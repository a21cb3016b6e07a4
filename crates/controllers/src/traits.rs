//! The [`Controller`] trait: how a harness hosts a controller model.

use attain_openflow::{DatapathId, OfMessage, PacketIn, SwitchFeatures};
use std::fmt;

/// Which controller implementation a value models.
///
/// Used by experiment harnesses to iterate over the paper's three
/// controllers and label results. The campaign harness additionally
/// sweeps two non-paper applications (Beacon and the hub) that widen the
/// behavioural space attacks are regressed against. What each kind does
/// is its row of the profile table, [`ControllerKind::profile`].
/// Declaration order is the table's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ControllerKind {
    /// Floodlight v1.2, `Forwarding` module.
    Floodlight,
    /// POX v0.2.0, `forwarding.l2_learning`.
    Pox,
    /// Ryu v4.5, `simple_switch`.
    Ryu,
    /// Beacon v1.0.4, `LearningSwitch` bundle.
    Beacon,
    /// A static flooding hub (POX `forwarding.hub` style): never learns,
    /// never installs flows.
    Hub,
}

impl ControllerKind {
    /// All three paper controllers, in the paper's order.
    pub const ALL: [ControllerKind; 3] = [
        ControllerKind::Floodlight,
        ControllerKind::Pox,
        ControllerKind::Ryu,
    ];

    /// The five controller applications the conformance campaign sweeps:
    /// the paper's three plus Beacon and the hub.
    pub const CAMPAIGN: [ControllerKind; 5] = [
        ControllerKind::Floodlight,
        ControllerKind::Pox,
        ControllerKind::Ryu,
        ControllerKind::Beacon,
        ControllerKind::Hub,
    ];

    /// A lowercase machine-readable label (campaign cell names, CLI
    /// filters, golden-file keys).
    pub fn slug(&self) -> &'static str {
        match self {
            ControllerKind::Floodlight => "floodlight",
            ControllerKind::Pox => "pox",
            ControllerKind::Ryu => "ryu",
            ControllerKind::Beacon => "beacon",
            ControllerKind::Hub => "hub",
        }
    }

    /// Parses a [`slug`](ControllerKind::slug) back to a kind.
    pub fn from_slug(s: &str) -> Option<ControllerKind> {
        ControllerKind::CAMPAIGN.into_iter().find(|k| k.slug() == s)
    }
}

impl fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ControllerKind::Floodlight => "Floodlight",
            ControllerKind::Pox => "POX",
            ControllerKind::Ryu => "Ryu",
            ControllerKind::Beacon => "Beacon",
            ControllerKind::Hub => "Hub",
        };
        f.write_str(s)
    }
}

/// Messages a controller wants sent, collected during one callback.
///
/// The hosting harness drains the outbox after each callback and delivers
/// each message on the named switch's control-plane connection.
#[derive(Debug, Default)]
pub struct Outbox {
    msgs: Vec<(DatapathId, OfMessage)>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Queues `msg` for delivery to switch `dpid`.
    pub fn send(&mut self, dpid: DatapathId, msg: OfMessage) {
        self.msgs.push((dpid, msg));
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Drains the queued messages in send order.
    pub fn drain(&mut self) -> Vec<(DatapathId, OfMessage)> {
        std::mem::take(&mut self.msgs)
    }
}

/// A controller application hosted on a control-plane connection.
///
/// The harness performs the OpenFlow handshake (HELLO exchange,
/// `FEATURES_REQUEST`) itself and surfaces the interesting milestones to
/// the application, mirroring how Floodlight/POX/Ryu applications sit on
/// top of their platforms' channel handlers.
///
/// Implementations must be deterministic: the simulator replays identical
/// event orders and expects identical outputs.
pub trait Controller: Send {
    /// Which implementation this models.
    fn kind(&self) -> ControllerKind;

    /// A switch completed the handshake (its `FEATURES_REPLY` arrived).
    fn on_switch_connect(&mut self, dpid: DatapathId, features: &SwitchFeatures, out: &mut Outbox);

    /// A `PACKET_IN` arrived from a connected switch.
    fn on_packet_in(&mut self, dpid: DatapathId, packet_in: &PacketIn, out: &mut Outbox);

    /// Any other message arrived (echo and handshake traffic is handled by
    /// the harness and not surfaced).
    fn on_message(&mut self, dpid: DatapathId, msg: &OfMessage, out: &mut Outbox) {
        let _ = (dpid, msg, out);
    }

    /// The switch's connection died (the harness's liveness check failed).
    fn on_switch_disconnect(&mut self, dpid: DatapathId) {
        let _ = dpid;
    }

    /// The controller process was restarted: discard all learned state, as
    /// a freshly started Floodlight/POX/Ryu would. Harnesses call this on
    /// crash and on restart so the application never carries state across
    /// a process boundary.
    fn reset(&mut self) {}

    /// Mean per-message processing latency in microseconds, modelling the
    /// platform runtime (JVM vs. CPython). Harnesses add this to every
    /// reply's departure time.
    fn processing_delay_us(&self) -> u64 {
        500
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_preserves_send_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(DatapathId(1), OfMessage::BarrierRequest);
        out.send(DatapathId(2), OfMessage::Hello);
        assert_eq!(out.len(), 2);
        let drained = out.drain();
        assert_eq!(drained[0].0, DatapathId(1));
        assert_eq!(drained[1].0, DatapathId(2));
        assert!(out.is_empty());
    }

    #[test]
    fn kind_display_matches_paper_names() {
        assert_eq!(ControllerKind::Floodlight.to_string(), "Floodlight");
        assert_eq!(ControllerKind::Pox.to_string(), "POX");
        assert_eq!(ControllerKind::Ryu.to_string(), "Ryu");
        assert_eq!(ControllerKind::ALL.len(), 3);
    }
}
