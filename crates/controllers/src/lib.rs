//! Models of the Floodlight, POX, and Ryu SDN controllers.
//!
//! The ATTAIN paper's evaluation (§VII) runs identical attacks against
//! Floodlight v1.2's `Forwarding` module, POX v0.2.0's
//! `forwarding.l2_learning`, and Ryu v4.5's `simple_switch` — and its
//! headline finding is that the *same* attack manifests differently per
//! controller. Those differences come from a handful of application
//! attributes, so this crate models every application as one
//! [`LearningSwitch`] configured by one row of a profile table
//! ([`ControllerKind::profile`]), the only place any per-controller fact
//! lives:
//!
//! | profile field | Floodlight | POX | Ryu | Beacon | Hub |
//! |---|---|---|---|---|---|
//! | `match_style` | [`L3Aware`](MatchStyle::L3Aware) (ports + MACs + ethertype + IPs) | [`FullExact`](MatchStyle::FullExact) (`ofp_match.from_packet`) | [`L2Only`](MatchStyle::L2Only) (`in_port`, `dl_src`, `dl_dst`) | `FullExact` (`OFMatch.loadFromPacket`) | `L2Only` (firewall only) |
//! | `cookie` | `0x20000000` | 0 | 0 | 0 | — |
//! | `idle_timeout` / `hard_timeout` | 5 s / none | 10 s / 30 s | none / none | 5 s / none | — |
//! | `priority` | 1 | `0x8000` | 1 | `0x8000` | — |
//! | `buffer_on_flow_mod` | no: separate `PACKET_OUT` | **yes** | no: separate `PACKET_OUT` | **yes** | — |
//! | `hairpin` | [`Release`](Hairpin::Release): empty `PACKET_OUT` | [`DropFlow`](Hairpin::DropFlow) carrying the buffer | [`Forward`](Hairpin::Forward) back out the ingress port | [`Flood`](Hairpin::Flood) | — |
//! | `processing_delay_us` | 300 (JVM) | 1200 (CPython) | 800 (CPython + eventlet) | 250 (JVM) | 800 (CPython) |
//!
//! The hub is the row with no flow policy (`flows: None`): it floods
//! every packet, learns nothing and never sends a `FLOW_MOD`.
//!
//! Consequences (reproduced by the experiment suite):
//!
//! * Under **flow-modification suppression** (paper Figure 10/11), POX's
//!   buffered packets are released only by the suppressed `FLOW_MOD`, so
//!   the data plane deadlocks — a full denial of service. Floodlight and
//!   Ryu keep forwarding each packet via `PACKET_OUT` at controller speed:
//!   degraded service and ballooning control-plane traffic, but no DoS.
//! * Under **connection interruption** (paper Figure 12/Table II), the
//!   attack's rule `φ2` matches a `FLOW_MOD` whose match names `nw_src =
//!   h2`. Floodlight and POX construct such matches; Ryu's L2-only match
//!   never satisfies `φ2`, so against Ryu the attack never reaches its
//!   dropping state — the paper's reported Ryu anomaly.
//!
//! Beyond the paper's three, Beacon v1.0.4's `LearningSwitch` and the
//! static flooding hub widen the behavioural space the conformance
//! campaign sweeps ([`ControllerKind::CAMPAIGN`]): Beacon pairs POX's
//! deadlock-under-suppression with Floodlight's short idle timeout, and
//! the hub gives flow-mod attacks nothing to bite on.
//!
//! The crate also provides [`DmzFirewall`], a policy wrapper for the case
//! study's DMZ switch `s2`, and the [`Controller`] trait through which the
//! network simulator (or any other harness) hosts a controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod firewall;
mod learning;
mod profile;
mod traits;

pub use firewall::{DmzFirewall, DmzPolicy};
pub use learning::{L2Table, LearningSwitch, MatchStyle};
pub use profile::{FlowPolicy, Hairpin, Profile};
pub use traits::{Controller, ControllerKind, Outbox};

impl ControllerKind {
    /// Instantiates a fresh (bare, un-wrapped) application of this kind.
    pub fn instantiate(&self) -> Box<dyn Controller> {
        Box::new(LearningSwitch::new(*self))
    }
}
