//! Hosts a [`Controller`] implementation on simulated control-plane
//! connections: OpenFlow handshake, liveness, and a serial processing
//! model for the controller's event loop.

use crate::engine::ConnId;
use crate::interpose::Direction;
use crate::time::SimTime;
use crate::trace::TraceKind;
use attain_controllers::{Controller, Outbox};
use attain_openflow::{DatapathId, Frame, OfMessage, OfType, Xid};

/// Controller-side silence threshold before a switch is declared gone.
const DEAD_AFTER: SimTime = SimTime::from_secs(15);

/// Consecutive undecodable messages on one connection before the
/// controller resets it: a corrupted stream cannot stay "up" forever.
pub(crate) const MAX_DECODE_FAILURES: u32 = 8;

/// Handshake state of the controller's side of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitHello,
    WaitFeatures,
    Up,
}

#[derive(Debug)]
struct CtrlConn {
    conn: ConnId,
    phase: Phase,
    dpid: Option<DatapathId>,
    last_rx: SimTime,
    next_xid: Xid,
    /// Consecutive undecodable deliveries (reset by any good message).
    decode_fails: u32,
}

/// A message the controller wants delivered, with its departure time
/// (after queueing behind the controller's serial event loop).
#[derive(Debug)]
pub(crate) struct CtrlSend {
    pub conn: ConnId,
    pub frame: Frame,
    pub depart: SimTime,
}

/// A controller process: platform runtime + hosted application.
pub struct ControllerHost {
    name: String,
    app: Box<dyn Controller>,
    conns: Vec<CtrlConn>,
    /// The event loop is busy until this time; each message's processing
    /// starts no earlier (the serial-bottleneck model that makes the
    /// controller path a measurable data-plane detour under attack).
    busy_until: SimTime,
    /// Per-message processing jitter amplitude in microseconds. 0 by
    /// default — the jitterless delay model stays byte-identical to the
    /// pre-jitter simulator; fingerprint-robustness tests opt in.
    jitter_amp_us: u64,
    /// SplitMix64 state for the deterministic jitter stream.
    jitter_state: u64,
    /// `false` after a crash fault, until the matching restart.
    alive: bool,
    /// Crash faults applied (for the fault report).
    pub(crate) crashes: u64,
    /// Restart faults applied (for the fault report).
    pub(crate) restarts: u64,
    /// Total undecodable deliveries observed across all connections.
    pub decode_failures: u64,
}

impl std::fmt::Debug for ControllerHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerHost")
            .field("name", &self.name)
            .field("kind", &self.app.kind())
            .field("conns", &self.conns.len())
            .finish()
    }
}

impl ControllerHost {
    pub(crate) fn new(name: String, app: Box<dyn Controller>) -> ControllerHost {
        ControllerHost {
            name,
            app,
            conns: Vec::new(),
            busy_until: SimTime::ZERO,
            jitter_amp_us: 0,
            jitter_state: 0,
            alive: true,
            crashes: 0,
            restarts: 0,
            decode_failures: 0,
        }
    }

    /// The controller's name (e.g. `c1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hosted application's kind.
    pub fn kind(&self) -> attain_controllers::ControllerKind {
        self.app.kind()
    }

    pub(crate) fn add_conn(&mut self, conn: ConnId) {
        self.conns.push(CtrlConn {
            conn,
            phase: Phase::WaitHello,
            dpid: None,
            last_rx: SimTime::ZERO,
            next_xid: 0x1000,
            decode_fails: 0,
        });
    }

    /// Whether the process is running (not crashed by a fault).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// A crash fault: the process dies. Every connection is torn down
    /// (the application sees disconnects first — its last gasp — then
    /// all state is lost; the restart builds a pristine app).
    pub(crate) fn crash(&mut self) {
        if !self.alive {
            return;
        }
        self.alive = false;
        self.crashes += 1;
        for c in &mut self.conns {
            if c.phase == Phase::Up {
                if let Some(dpid) = c.dpid.take() {
                    self.app.on_switch_disconnect(dpid);
                }
            }
            c.phase = Phase::WaitHello;
            c.dpid = None;
            c.decode_fails = 0;
        }
        self.app.reset();
    }

    /// A restart fault: a fresh process comes up. Handshake state and
    /// the hosted application start from scratch; switches re-handshake
    /// when their reconnect timers fire.
    pub(crate) fn restart(&mut self) {
        if self.alive {
            return;
        }
        self.alive = true;
        self.restarts += 1;
        self.busy_until = SimTime::ZERO;
        for c in &mut self.conns {
            c.phase = Phase::WaitHello;
            c.dpid = None;
            c.next_xid = 0x1000;
            c.decode_fails = 0;
        }
        self.app.reset();
    }

    fn conn_index(&self, conn: ConnId) -> Option<usize> {
        self.conns.iter().position(|c| c.conn == conn)
    }

    fn conn_for_dpid(&self, dpid: DatapathId) -> Option<ConnId> {
        self.conns
            .iter()
            .find(|c| c.dpid == Some(dpid) && c.phase == Phase::Up)
            .map(|c| c.conn)
    }

    /// Enables seeded per-message processing jitter: each handled
    /// message adds a deterministic `0..=amplitude_us` microseconds on
    /// top of the app's fixed processing delay. Amplitude 0 (the
    /// default) restores the exact jitterless delay model.
    pub fn set_processing_jitter(&mut self, amplitude_us: u64, seed: u64) {
        self.jitter_amp_us = amplitude_us;
        self.jitter_state = seed;
    }

    /// SplitMix64 step — the jitter stream is a pure function of the
    /// seed and the number of messages processed so far.
    fn next_jitter_us(&mut self) -> u64 {
        if self.jitter_amp_us == 0 {
            return 0;
        }
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % (self.jitter_amp_us + 1)
    }

    /// Computes when processing started `now` departs, advancing the
    /// serial event loop.
    fn depart_time(&mut self, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        let jitter = self.next_jitter_us();
        let depart = start + SimTime::from_micros(self.app.processing_delay_us() + jitter);
        self.busy_until = depart;
        depart
    }

    fn drain_outbox(&mut self, out: &mut Outbox, depart: SimTime, sends: &mut Vec<CtrlSend>) {
        for (dpid, msg) in out.drain() {
            if let Some(conn) = self.conn_for_dpid(dpid) {
                let xid = {
                    let i = self.conn_index(conn).expect("conn just resolved");
                    let c = &mut self.conns[i];
                    let x = c.next_xid;
                    c.next_xid += 1;
                    x
                };
                sends.push(CtrlSend {
                    conn,
                    frame: Frame::from_message(msg, xid),
                    depart,
                });
            }
        }
    }

    /// An encoded message arrived from a switch on `conn`. Trace records
    /// (decode failures, connection resets) are pushed onto `traces`.
    pub(crate) fn handle_control(
        &mut self,
        conn: ConnId,
        frame: &Frame,
        now: SimTime,
        traces: &mut Vec<TraceKind>,
    ) -> Vec<CtrlSend> {
        if !self.alive {
            // A crashed process reads nothing off its sockets.
            return Vec::new();
        }
        let Some(i) = self.conn_index(conn) else {
            return Vec::new();
        };
        self.conns[i].last_rx = now;
        let Some((msg, _xid)) = frame.decoded() else {
            // Garbled bytes at the controller: platforms log and drop —
            // but a persistently corrupted stream means the peer (or the
            // path) is broken, so after enough consecutive failures the
            // connection is reset rather than left "up" forever.
            self.decode_failures += 1;
            self.conns[i].decode_fails += 1;
            traces.push(TraceKind::DecodeFailure {
                conn,
                direction: Direction::SwitchToController,
            });
            if self.conns[i].decode_fails >= MAX_DECODE_FAILURES {
                let failures = self.conns[i].decode_fails;
                self.conns[i].phase = Phase::WaitHello;
                self.conns[i].decode_fails = 0;
                if let Some(dpid) = self.conns[i].dpid.take() {
                    self.app.on_switch_disconnect(dpid);
                }
                traces.push(TraceKind::ConnectionReset { conn, failures });
            }
            return Vec::new();
        };
        self.conns[i].decode_fails = 0;
        let mut sends = Vec::new();
        match msg {
            OfMessage::Hello => {
                // A HELLO in any phase (re)starts the handshake.
                if self.conns[i].phase == Phase::Up {
                    if let Some(dpid) = self.conns[i].dpid {
                        self.app.on_switch_disconnect(dpid);
                    }
                }
                self.conns[i].phase = Phase::WaitFeatures;
                let depart = self.depart_time(now);
                for reply in [OfMessage::Hello, OfMessage::FeaturesRequest] {
                    let xid = {
                        let c = &mut self.conns[i];
                        let x = c.next_xid;
                        c.next_xid += 1;
                        x
                    };
                    sends.push(CtrlSend {
                        conn,
                        frame: Frame::from_message(reply, xid),
                        depart,
                    });
                }
            }
            OfMessage::FeaturesReply(features) => {
                if self.conns[i].phase == Phase::WaitFeatures {
                    self.conns[i].phase = Phase::Up;
                    self.conns[i].dpid = Some(features.datapath_id);
                    let depart = self.depart_time(now);
                    let mut out = Outbox::new();
                    self.app
                        .on_switch_connect(features.datapath_id, features, &mut out);
                    self.drain_outbox(&mut out, depart, &mut sends);
                }
            }
            OfMessage::EchoRequest(_) => {
                // Echo handling bypasses the application (platform duty).
                // The reply is the request with the header's type and xid
                // patched: same body, no decode→re-encode round trip.
                let depart = self.depart_time(now);
                let xid = {
                    let c = &mut self.conns[i];
                    let x = c.next_xid;
                    c.next_xid += 1;
                    x
                };
                if let Some(reply) = frame.patched_reply(OfType::EchoReply, xid) {
                    sends.push(CtrlSend {
                        conn,
                        frame: reply,
                        depart,
                    });
                }
            }
            OfMessage::EchoReply(_) => {}
            OfMessage::PacketIn(pi) => {
                if self.conns[i].phase == Phase::Up {
                    if let Some(dpid) = self.conns[i].dpid {
                        let depart = self.depart_time(now);
                        let mut out = Outbox::new();
                        self.app.on_packet_in(dpid, pi, &mut out);
                        self.drain_outbox(&mut out, depart, &mut sends);
                    }
                }
            }
            other => {
                if self.conns[i].phase == Phase::Up {
                    if let Some(dpid) = self.conns[i].dpid {
                        let depart = self.depart_time(now);
                        let mut out = Outbox::new();
                        self.app.on_message(dpid, other, &mut out);
                        self.drain_outbox(&mut out, depart, &mut sends);
                    }
                }
            }
        }
        sends
    }

    /// Periodic liveness sweep: declares silent switches disconnected.
    pub(crate) fn tick(&mut self, now: SimTime) {
        if !self.alive {
            return;
        }
        for i in 0..self.conns.len() {
            if self.conns[i].phase == Phase::Up
                && now.saturating_sub(self.conns[i].last_rx) >= DEAD_AFTER
            {
                self.conns[i].phase = Phase::WaitHello;
                if let Some(dpid) = self.conns[i].dpid.take() {
                    self.app.on_switch_disconnect(dpid);
                }
            }
        }
    }

    /// Whether the connection has completed its handshake.
    pub fn is_up(&self, conn: ConnId) -> bool {
        self.conn_index(conn)
            .map(|i| self.conns[i].phase == Phase::Up)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_controllers::ControllerKind;
    use attain_openflow::{MacAddr, PhyPort, PortNo, SwitchFeatures};

    fn features(dpid: u64) -> SwitchFeatures {
        SwitchFeatures {
            datapath_id: DatapathId(dpid),
            n_buffers: 256,
            n_tables: 1,
            capabilities: 0,
            actions: 0xfff,
            ports: vec![PhyPort::simulated(PortNo(1), MacAddr::from_low(1))],
        }
    }

    fn host() -> ControllerHost {
        let mut h = ControllerHost::new("c1".into(), ControllerKind::Floodlight.instantiate());
        h.add_conn(ConnId(0));
        h
    }

    #[test]
    fn hello_yields_hello_and_features_request() {
        let mut h = host();
        let sends = h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::Hello, 1),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        let types: Vec<_> = sends
            .iter()
            .map(|s| s.frame.message().unwrap().clone())
            .collect();
        assert_eq!(types[0], OfMessage::Hello);
        assert_eq!(types[1], OfMessage::FeaturesRequest);
        assert!(!h.is_up(ConnId(0)));
    }

    #[test]
    fn features_reply_completes_handshake() {
        let mut h = host();
        h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::Hello, 1),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::FeaturesReply(features(7)), 2),
            SimTime::from_millis(1),
            &mut Vec::new(),
        );
        assert!(h.is_up(ConnId(0)));
    }

    #[test]
    fn echo_request_is_answered_without_the_app() {
        let mut h = host();
        let sends = h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::EchoRequest(vec![9]), 3),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        assert_eq!(sends.len(), 1);
        assert_eq!(
            sends[0].frame.message(),
            Some(&OfMessage::EchoReply(vec![9]))
        );
    }

    #[test]
    fn serial_processing_queues_departures() {
        let mut h = host();
        h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::Hello, 1),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::FeaturesReply(features(7)), 2),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        // Two echo requests arriving at the same instant depart one
        // processing quantum apart.
        let s1 = h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::EchoRequest(vec![1]), 3),
            SimTime::from_secs(1),
            &mut Vec::new(),
        );
        let s2 = h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::EchoRequest(vec![2]), 4),
            SimTime::from_secs(1),
            &mut Vec::new(),
        );
        assert!(s2[0].depart > s1[0].depart);
        let quantum = s2[0].depart - s1[0].depart;
        assert_eq!(quantum, SimTime::from_micros(300)); // Floodlight's delay
    }

    #[test]
    fn silence_disconnects_the_switch() {
        let mut h = host();
        h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::Hello, 1),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        h.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::FeaturesReply(features(7)), 2),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        assert!(h.is_up(ConnId(0)));
        h.tick(SimTime::from_secs(20));
        assert!(!h.is_up(ConnId(0)));
    }

    #[test]
    fn packet_in_before_handshake_is_ignored() {
        let mut h = host();
        let pi = OfMessage::PacketIn(attain_openflow::PacketIn {
            buffer_id: None,
            total_len: 0,
            in_port: PortNo(1),
            reason: attain_openflow::PacketInReason::NoMatch,
            data: vec![],
        });
        let sends = h.handle_control(
            ConnId(0),
            &Frame::from_message(pi, 9),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        assert!(sends.is_empty());
    }

    #[test]
    fn garbage_bytes_are_dropped_silently() {
        let mut h = host();
        let sends = h.handle_control(
            ConnId(0),
            &Frame::new(vec![0xde, 0xad]),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        assert!(sends.is_empty());
    }
}
