//! Simulation trace: the monitors' raw material.
//!
//! The paper's injector "logged all control plane connections, all
//! messages sent across such connections, and rule notifications"
//! (§VII-A2); this module is the simulator-side half of that logging.

use crate::engine::ConnId;
use crate::interpose::Direction;
use crate::time::SimTime;
use attain_openflow::OfType;
use std::collections::BTreeMap;
use std::fmt;

/// What a trace record describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A control-plane message passed the proxy point.
    ControlMessage {
        /// Connection it traversed.
        conn: ConnId,
        /// Direction of travel.
        direction: Direction,
        /// Message type (`None` if the bytes did not parse).
        of_type: Option<OfType>,
        /// Encoded length.
        len: usize,
    },
    /// A control connection completed its handshake.
    ConnectionUp {
        /// The connection.
        conn: ConnId,
    },
    /// A connection was declared dead by liveness probing.
    ConnectionDead {
        /// The connection.
        conn: ConnId,
    },
    /// A switch entered its failure mode (fail-safe standalone or
    /// fail-secure lockdown).
    FailModeEntered {
        /// Switch name.
        switch: String,
        /// `true` for fail-safe (standalone), `false` for fail-secure.
        standalone: bool,
    },
    /// A flow entry was installed.
    FlowInstalled {
        /// Switch name.
        switch: String,
        /// Rendered match.
        description: String,
    },
    /// A flow entry was evicted to make room for a new one (bounded
    /// table under an evicting overflow policy).
    FlowEvicted {
        /// Switch name.
        switch: String,
        /// Rendered match of the victim.
        description: String,
    },
    /// A packet was dropped.
    PacketDropped {
        /// Where.
        switch: String,
        /// Why.
        reason: &'static str,
    },
    /// An environment-fault transition was applied (link down/up/degrade,
    /// loss/corruption rate change, controller crash/restart, switch
    /// restart).
    Fault {
        /// The fault's target, rendered (`link s1-s2`, `controller c1`).
        target: String,
        /// What happened to it (`down`, `up`, `crash`, `restart`, …).
        what: String,
    },
    /// A peer delivered bytes that did not decode as OpenFlow.
    DecodeFailure {
        /// The connection they arrived on.
        conn: ConnId,
        /// The direction they were travelling.
        direction: Direction,
    },
    /// A connection was dropped after too many consecutive undecodable
    /// messages (a corrupted-stream peer must not stay "up" forever).
    ConnectionReset {
        /// The connection.
        conn: ConnId,
        /// Consecutive decode failures that triggered the reset.
        failures: u32,
    },
    /// The run halted before its horizon on a deterministic budget
    /// (total event cap or the per-instant livelock detector). Counted
    /// in virtual-time quantities only, so it digests identically on
    /// every same-seed run. Wall-clock cancellations are deliberately
    /// *not* traced.
    RunHalted {
        /// Which bound tripped: `"event-budget"` or `"livelock"`.
        reason: &'static str,
        /// Total events dispatched when the run halted.
        events: u64,
    },
    /// A free-form marker (e.g. experiment phase boundaries).
    Marker(String),
}

/// How much a [`Trace`] retains.
///
/// Counters (and therefore [`Trace::counter_digest`]) accumulate
/// identically in both modes; only per-event record retention differs.
/// 100k-flow runs use [`TraceMode::Counters`] so the trace stays O(
/// connections × types), not O(events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Keep every event record plus the aggregate counters.
    #[default]
    Full,
    /// Keep only the aggregate counters (drop per-event records).
    Counters,
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:?}", self.time, self.kind)
    }
}

/// A 64-bit digest of a trace — the golden-trace oracle's unit of
/// comparison. Two runs with the same digest recorded the same events in
/// the same order at the same virtual times, and accumulated identical
/// control-plane counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceDigest(pub u64);

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceDigest {
    /// Parses the 16-hex-digit rendering back to a digest.
    pub fn parse(s: &str) -> Option<TraceDigest> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceDigest)
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms —
/// all the golden oracle needs (collision resistance against adversaries
/// is not a requirement; drift detection is).
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// The simulation's event log plus aggregate control-plane counters.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Per `(connection, direction, type)` message counts — the paper's
    /// "increased control plane traffic" metric. A `BTreeMap` so every
    /// iteration (reports, digests) is deterministically ordered without
    /// a sort at each call site.
    counts: BTreeMap<(ConnId, Direction, Option<OfType>), u64>,
    /// Whether per-event records are kept alongside the counters.
    mode: TraceMode,
}

impl Trace {
    /// Creates an empty trace that records full events.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a record (and updates counters for control messages).
    pub fn push(&mut self, time: SimTime, kind: TraceKind) {
        if let TraceKind::ControlMessage {
            conn,
            direction,
            of_type,
            ..
        } = &kind
        {
            *self
                .counts
                .entry((*conn, *direction, *of_type))
                .or_insert(0) += 1;
        }
        if self.mode == TraceMode::Full {
            self.events.push(TraceEvent { time, kind });
        }
    }

    /// All recorded events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Sets the retention mode. Switching to [`TraceMode::Counters`]
    /// stops recording from now on; already-recorded events are kept.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
    }

    /// The current retention mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Total control-plane messages observed (both directions, all
    /// connections).
    pub fn control_message_total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Control-plane messages of type `t` observed in `direction`.
    pub fn control_message_count(&self, t: OfType, direction: Direction) -> u64 {
        self.counts
            .iter()
            .filter(|((_, d, ty), _)| *d == direction && *ty == Some(t))
            .map(|(_, n)| *n)
            .sum()
    }

    /// All counters, deterministically ordered by `(connection,
    /// direction, type)` — the monitors' raw aggregate view.
    pub fn counters(&self) -> Vec<(ConnId, Direction, Option<OfType>, u64)> {
        self.counts
            .iter()
            .map(|(&(conn, dir, ty), &n)| (conn, dir, ty, n))
            .collect()
    }

    /// Digests the full trace: every recorded event (rendered, in
    /// order) followed by every counter (in key order).
    ///
    /// The digest is the campaign's golden-trace oracle: any semantic
    /// drift in the codec, classifier, controller applications, executor,
    /// or fault engine shifts an event's content, order, or virtual time
    /// and therefore the digest. Runs that disable event recording still
    /// digest their counters.
    pub fn digest(&self) -> TraceDigest {
        let mut h = Fnv1a::new();
        for e in &self.events {
            h.update(e.to_string().as_bytes());
            h.update(b"\n");
        }
        self.digest_counters(&mut h);
        TraceDigest(h.0)
    }

    /// Digests the counters alone, skipping per-event records.
    ///
    /// This is the digest that is mode-independent: a
    /// [`TraceMode::Counters`] run's [`Trace::digest`] equals a
    /// [`TraceMode::Full`] run's `counter_digest` byte for byte (the
    /// event section of `digest` contributes nothing when no events were
    /// recorded), which is what lets 100k-flow counters-only runs be
    /// checked against full-trace reference runs.
    pub fn counter_digest(&self) -> TraceDigest {
        let mut h = Fnv1a::new();
        self.digest_counters(&mut h);
        TraceDigest(h.0)
    }

    fn digest_counters(&self, h: &mut Fnv1a) {
        for (&(conn, dir, ty), &n) in &self.counts {
            h.update(&(conn.0 as u64).to_be_bytes());
            h.update(&[matches!(dir, Direction::ControllerToSwitch) as u8]);
            h.update(&[ty.map(|t| t as u8 + 1).unwrap_or(0)]);
            h.update(&n.to_be_bytes());
        }
    }

    /// Messages observed on one connection, any type or direction.
    pub fn connection_message_count(&self, conn: ConnId) -> u64 {
        self.counts
            .iter()
            .filter(|((c, _, _), _)| *c == conn)
            .map(|(_, n)| *n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_control_messages() {
        let mut t = Trace::new();
        for _ in 0..3 {
            t.push(
                SimTime::ZERO,
                TraceKind::ControlMessage {
                    conn: ConnId(0),
                    direction: Direction::SwitchToController,
                    of_type: Some(OfType::PacketIn),
                    len: 100,
                },
            );
        }
        t.push(
            SimTime::ZERO,
            TraceKind::ControlMessage {
                conn: ConnId(1),
                direction: Direction::ControllerToSwitch,
                of_type: Some(OfType::FlowMod),
                len: 80,
            },
        );
        assert_eq!(t.control_message_total(), 4);
        assert_eq!(
            t.control_message_count(OfType::PacketIn, Direction::SwitchToController),
            3
        );
        assert_eq!(
            t.control_message_count(OfType::PacketIn, Direction::ControllerToSwitch),
            0
        );
        assert_eq!(t.connection_message_count(ConnId(1)), 1);
        assert_eq!(t.events().len(), 4);
    }

    #[test]
    fn disabling_event_recording_keeps_counters() {
        let mut t = Trace::new();
        t.set_mode(TraceMode::Counters);
        t.push(
            SimTime::ZERO,
            TraceKind::ControlMessage {
                conn: ConnId(0),
                direction: Direction::SwitchToController,
                of_type: Some(OfType::Hello),
                len: 8,
            },
        );
        assert!(t.events().is_empty());
        assert_eq!(t.control_message_total(), 1);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let msg = |conn: usize, len: usize| TraceKind::ControlMessage {
            conn: ConnId(conn),
            direction: Direction::SwitchToController,
            of_type: Some(OfType::PacketIn),
            len,
        };
        let mut a = Trace::new();
        a.push(SimTime::from_secs(1), msg(0, 100));
        a.push(SimTime::from_secs(2), msg(1, 100));
        let mut b = Trace::new();
        b.push(SimTime::from_secs(1), msg(0, 100));
        b.push(SimTime::from_secs(2), msg(1, 100));
        assert_eq!(a.digest(), b.digest());
        // Different order → different digest.
        let mut c = Trace::new();
        c.push(SimTime::from_secs(1), msg(1, 100));
        c.push(SimTime::from_secs(2), msg(0, 100));
        assert_ne!(a.digest(), c.digest());
        // Different content (length) → different digest.
        let mut d = Trace::new();
        d.push(SimTime::from_secs(1), msg(0, 101));
        d.push(SimTime::from_secs(2), msg(1, 100));
        assert_ne!(a.digest(), d.digest());
        // Digest renders as 16 hex digits and parses back.
        let rendered = a.digest().to_string();
        assert_eq!(rendered.len(), 16);
        assert_eq!(TraceDigest::parse(&rendered), Some(a.digest()));
        assert_eq!(TraceDigest::parse("xyz"), None);
    }

    #[test]
    fn counterless_digest_still_covers_counters() {
        let mut t = Trace::new();
        t.set_mode(TraceMode::Counters);
        let empty = t.digest();
        t.push(
            SimTime::ZERO,
            TraceKind::ControlMessage {
                conn: ConnId(0),
                direction: Direction::ControllerToSwitch,
                of_type: Some(OfType::FlowMod),
                len: 80,
            },
        );
        assert!(t.events().is_empty());
        assert_ne!(t.digest(), empty);
    }

    #[test]
    fn counters_mode_digest_matches_full_mode_counter_digest() {
        let msg = |conn: usize| TraceKind::ControlMessage {
            conn: ConnId(conn),
            direction: Direction::SwitchToController,
            of_type: Some(OfType::PacketIn),
            len: 60,
        };
        let mut full = Trace::new();
        assert_eq!(full.mode(), TraceMode::Full);
        let mut counters = Trace::new();
        counters.set_mode(TraceMode::Counters);
        assert_eq!(counters.mode(), TraceMode::Counters);
        for t in [full.events(), counters.events()] {
            assert!(t.is_empty());
        }
        for trace in [&mut full, &mut counters] {
            trace.push(SimTime::from_secs(1), msg(0));
            trace.push(SimTime::from_secs(2), msg(0));
            trace.push(SimTime::from_secs(3), msg(1));
            trace.push(SimTime::from_secs(3), TraceKind::Marker("m".into()));
        }
        assert_eq!(full.events().len(), 4);
        assert!(counters.events().is_empty());
        // The full digest covers events; the counter digest is identical
        // across modes, and in Counters mode it IS the digest.
        assert_ne!(full.digest(), counters.digest());
        assert_eq!(full.counter_digest(), counters.digest());
        assert_eq!(counters.counter_digest(), counters.digest());
    }

    #[test]
    fn markers_are_recorded_without_counting() {
        let mut t = Trace::new();
        t.push(SimTime::from_secs(1), TraceKind::Marker("phase 1".into()));
        assert_eq!(t.control_message_total(), 0);
        assert_eq!(t.events().len(), 1);
    }
}
