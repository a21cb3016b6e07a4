//! The deterministic event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a binary min-heap keyed by `(time, seq)`, where
//! `seq` is one counter assigned at schedule time. The key is a strict
//! total order, so the pop order is a pure function of the schedule
//! calls and does not depend on how the heap lays out its storage.
//!
//! Data-plane payloads are arena-allocated ([`FrameArena`]): a queued
//! frame event carries a 4-byte [`FrameRef`] instead of the `Vec<u8>`
//! itself, so queue records stay small and heap sifts move index math,
//! not packet buffers.

use crate::command::HostCommand;
use crate::interpose::Direction;
use crate::time::SimTime;
use attain_openflow::{Frame, PortNo};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Index of a node (host or switch) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a control-plane connection (one `(controller, switch)` pair
/// of the paper's relation `N_C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub usize);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// What a [`EventKind::NodeTimer`] means to its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerToken {
    /// A switch's 1 Hz housekeeping sweep (flow expiry + liveness).
    SwitchTick,
    /// A switch should (re)start its control-plane handshake.
    Connect {
        /// Which of the switch's connections.
        conn: ConnId,
    },
    /// A switch's handshake deadline expired.
    HandshakeDeadline {
        /// Which of the switch's connections.
        conn: ConnId,
        /// The attempt number the deadline belongs to.
        attempt: u32,
    },
    /// A controller's liveness sweep.
    ControllerTick,
    /// A host application timer; the payload identifies the app slot.
    App {
        /// Index into the host's application table.
        app: usize,
    },
    /// A host's ARP retransmission check.
    ArpRetry,
}

/// An opaque handle to a data-plane frame payload parked in the
/// simulation's [`FrameArena`]. Stored in queued events in place of the
/// payload itself so queue records stay small and flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRef(pub(crate) u32);

/// An event payload.
#[derive(Debug)]
pub enum EventKind {
    /// A data-plane frame arrives at `node` on `port`.
    Frame {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortNo,
        /// Handle to the raw Ethernet frame in the simulation's arena.
        frame: FrameRef,
    },
    /// An encoded OpenFlow message enters the proxy point of a control
    /// connection (where the interposer sits).
    ProxyIngress {
        /// The connection.
        conn: ConnId,
        /// Which way the message travels.
        direction: Direction,
        /// The encoded message.
        frame: Frame,
    },
    /// An encoded OpenFlow message is delivered to one end of a control
    /// connection.
    ControlDeliver {
        /// The connection.
        conn: ConnId,
        /// Which way the message travels (delivery is at the far end).
        direction: Direction,
        /// The encoded message.
        frame: Frame,
    },
    /// A timer owned by `node` fires.
    NodeTimer {
        /// Owning node.
        node: NodeId,
        /// What the timer means.
        token: TimerToken,
    },
    /// A controller-owned timer fires.
    ControllerTimer {
        /// Controller index.
        ctrl: usize,
        /// What the timer means.
        token: TimerToken,
    },
    /// A scheduled workload command executes. Boxed: commands are rare
    /// and large, and every queued record is as wide as the widest
    /// variant.
    Command(Box<HostCommand>),
    /// The interposer asked to be woken (attack `SLEEP` support).
    InterposerWake,
}

/// A side effect produced by a node event handler, applied by the
/// simulation after the handler returns (keeping node borrows disjoint
/// from link/queue borrows).
#[derive(Debug)]
pub(crate) enum Effect {
    /// Emit a data-plane frame out of a port of the handling node.
    Frame {
        /// Egress port.
        out_port: PortNo,
        /// Raw frame.
        frame: Vec<u8>,
    },
    /// Send an OpenFlow message on a control connection (from the
    /// handling node's side of it).
    Control {
        /// The connection.
        conn: ConnId,
        /// Encoded message.
        frame: Frame,
    },
    /// Arm a timer owned by the handling node.
    Timer {
        /// Absolute fire time.
        at: SimTime,
        /// Meaning.
        token: TimerToken,
    },
    /// Record a trace event.
    Trace(crate::trace::TraceKind),
}

/// The event queue's configuration. It has no settable value: the
/// binary heap is the only queue. It exists only so that
/// [`EventQueue::with_config`] keeps the signature `perfbench` sizes
/// its queue probe with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerConfig;

struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A strictly deterministic future-event list.
///
/// Ties at the same virtual time are broken by insertion order (one
/// global sequence counter), so a simulation run is a pure function of
/// its inputs — the property the paper gets from its single-threaded
/// injector's total message order (§VI-C) and that our tests rely on.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Creates an empty queue with room for `capacity_hint` events
    /// before it reallocates. `config` has no settable value; see
    /// [`SchedulerConfig`].
    pub fn with_config(_config: SchedulerConfig, capacity_hint: usize) -> EventQueue {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity_hint),
            seq: 0,
        }
    }

    /// Schedules `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(QueuedEvent {
            time: at,
            seq,
            kind,
        }));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.heap.pop().map(|Reverse(ev)| (ev.time, ev.kind))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.seq)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Frame arena
// ---------------------------------------------------------------------------

/// Slab storage for in-flight data-plane frame payloads.
///
/// A payload is stored exactly once when its delivery event is
/// scheduled and taken exactly once when the event dispatches, so a
/// frame's arena lifetime equals its time on the wire. Freed slots are
/// recycled through a free list: at steady state the slab stops
/// growing and queue records stay at 48 bytes regardless of frame size.
#[derive(Debug, Default)]
pub(crate) struct FrameArena {
    slots: Vec<Vec<u8>>,
    free: Vec<u32>,
}

impl FrameArena {
    pub(crate) fn with_capacity(n: usize) -> FrameArena {
        FrameArena {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Parks `frame` and returns its handle.
    pub(crate) fn store(&mut self, frame: Vec<u8>) -> FrameRef {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = frame;
                FrameRef(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("frame arena overflow");
                self.slots.push(frame);
                FrameRef(i)
            }
        }
    }

    /// Takes the payload back out, freeing the slot.
    pub(crate) fn take(&mut self, r: FrameRef) -> Vec<u8> {
        let buf = std::mem::take(&mut self.slots[r.0 as usize]);
        self.free.push(r.0);
        buf
    }

    /// Frames currently parked (stored but not yet taken).
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), EventKind::InterposerWake);
        q.schedule(SimTime::from_secs(1), EventKind::InterposerWake);
        q.schedule(SimTime::from_secs(2), EventKind::InterposerWake);
        let times: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(
            t,
            EventKind::NodeTimer {
                node: NodeId(0),
                token: TimerToken::SwitchTick,
            },
        );
        q.schedule(
            t,
            EventKind::NodeTimer {
                node: NodeId(1),
                token: TimerToken::SwitchTick,
            },
        );
        let (_, first) = q.pop().unwrap();
        let (_, second) = q.pop().unwrap();
        match (first, second) {
            (EventKind::NodeTimer { node: a, .. }, EventKind::NodeTimer { node: b, .. }) => {
                assert_eq!(a, NodeId(0));
                assert_eq!(b, NodeId(1));
            }
            _ => panic!("unexpected kinds"),
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), EventKind::InterposerWake);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// A tiny deterministic generator (xorshift64*) for differential
    /// tests; seeds must be non-zero.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    fn timer(node: usize) -> EventKind {
        EventKind::NodeTimer {
            node: NodeId(node),
            token: TimerToken::SwitchTick,
        }
    }

    fn node_of(kind: &EventKind) -> usize {
        match kind {
            EventKind::NodeTimer { node, .. } => node.0,
            _ => panic!("expected NodeTimer"),
        }
    }

    /// Replays a 4000-step bursty schedule/pop workload against the
    /// queue and against a naive model (pop the minimum `(time, seq)`
    /// from a `Vec`) and checks both pop sequences match exactly.
    #[test]
    fn pops_match_naive_min_model() {
        let mut q = EventQueue::new();
        // (time, seq, node)
        let mut model: Vec<(u64, u64, usize)> = Vec::new();
        let model_pop = |model: &mut Vec<(u64, u64, usize)>| {
            let i = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
            let (t, _, node) = model.swap_remove(i);
            Some((SimTime(t), node))
        };
        let mut rng = TestRng(0x5eed_cafe);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        for step in 0..4000u64 {
            // Bursty schedule: same-time ties, near term, far future.
            let r = rng.next();
            let dt = match r % 7 {
                0 => 0,
                1 => r % 1_000,
                2 => r % 100_000,
                3 => r % 50_000_000,
                4 => r % 5_000_000_000,
                5 => r % 400_000_000_000_000,
                _ => 1_000_000_000_000_000_000,
            };
            let node = (step % 11) as usize;
            q.schedule(SimTime(now + dt), timer(node));
            model.push((now + dt, step, node));
            if r.is_multiple_of(3) {
                if let Some((t, k)) = q.pop() {
                    assert!(t.0 >= now, "time went backwards");
                    now = t.0;
                    got.push((t, node_of(&k)));
                    want.extend(model_pop(&mut model));
                }
            }
        }
        while let Some((t, k)) = q.pop() {
            got.push((t, node_of(&k)));
        }
        while let Some(e) = model_pop(&mut model) {
            want.push(e);
        }
        assert!(q.is_empty());
        assert_eq!(got.len(), 4000);
        assert_eq!(got, want, "queue diverged from the naive model");
    }

    #[test]
    fn queued_records_stay_small() {
        // Every heap sift moves whole records; a wide new `EventKind`
        // variant belongs behind a `Box`, like `Command`.
        assert_eq!(std::mem::size_of::<QueuedEvent>(), 48);
    }

    #[test]
    fn frame_arena_round_trips_and_recycles() {
        let mut a = FrameArena::with_capacity(4);
        let r1 = a.store(vec![1, 2, 3]);
        let r2 = a.store(vec![4, 5]);
        assert_eq!(a.live(), 2);
        assert_eq!(a.take(r1), vec![1, 2, 3]);
        assert_eq!(a.live(), 1);
        let r3 = a.store(vec![6]); // reuses r1's slot
        assert_eq!(r3.0, r1.0);
        assert_eq!(a.take(r2), vec![4, 5]);
        assert_eq!(a.take(r3), vec![6]);
        assert_eq!(a.live(), 0);
    }
}
