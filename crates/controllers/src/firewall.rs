//! The DMZ firewall policy module for the case-study switch `s2`.

use crate::profile::Hairpin;
use crate::traits::{Controller, ControllerKind, Outbox};
use attain_openflow::packet::{self, EtherType};
use attain_openflow::{
    DatapathId, FlowKey, FlowMod, FlowModCommand, FlowModFlags, OfMessage, PacketIn, PacketOut,
    PortNo, SwitchFeatures,
};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The enterprise case study's DMZ isolation policy (paper §VII-A):
/// of the traffic entering the firewall switch from the external side,
/// the enterprise's own DMZ machines (the public web server) are
/// trusted to talk inward, while Internet traffic arriving through the
/// gateway may reach only the published destinations — everything else
/// toward the internal network is denied. This is the minimal policy
/// under which the paper's h1↔h6 workloads flow freely while
/// `h2 → internal` constitutes "unauthorized increased access"
/// (Table II).
///
/// ARP is always allowed — hosts must be able to resolve addresses for
/// the *permitted* flows, and the firewall filters at L3.
#[derive(Debug, Clone)]
pub struct DmzPolicy {
    /// The firewall switch's datapath id (`s2` in the case study).
    pub firewall_dpid: DatapathId,
    /// The firewall port facing the external segment.
    pub external_port: PortNo,
    /// External sources trusted to reach the internal network (the DMZ
    /// web server `h1`).
    pub trusted_sources: BTreeSet<Ipv4Addr>,
    /// Destinations untrusted external traffic may still reach.
    pub allowed_external_dsts: BTreeSet<Ipv4Addr>,
}

/// The policy's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward normally (delegate to the learning switch).
    Allow,
    /// Block, installing a deny flow entry.
    Deny,
}

impl DmzPolicy {
    /// Decides the policy verdict for a packet summarized by `key`
    /// arriving at switch `dpid`.
    pub fn decide(&self, dpid: DatapathId, key: &FlowKey) -> Verdict {
        if dpid != self.firewall_dpid || key.in_port != self.external_port {
            return Verdict::Allow;
        }
        if key.dl_type != EtherType::IPV4.0 {
            // ARP and other non-IP control traffic passes.
            return Verdict::Allow;
        }
        let src = Ipv4Addr::from(key.nw_src);
        if self.trusted_sources.contains(&src) {
            return Verdict::Allow;
        }
        let dst = Ipv4Addr::from(key.nw_dst);
        if self.allowed_external_dsts.contains(&dst) {
            Verdict::Allow
        } else {
            Verdict::Deny
        }
    }
}

/// A controller composed of a DMZ firewall in front of a learning switch.
///
/// On a denied packet, the firewall installs a **deny flow mod** (empty
/// action list) whose match is built in the inner controller's
/// [`MatchStyle`](crate::MatchStyle) — exactly the message the
/// connection-interruption attack's rule `φ2` waits for. Allowed packets
/// are handed to the inner learning switch untouched.
pub struct DmzFirewall {
    inner: Box<dyn Controller>,
    policy: DmzPolicy,
    deny_idle_timeout: u16,
}

impl std::fmt::Debug for DmzFirewall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmzFirewall")
            .field("inner", &self.inner.kind())
            .field("policy", &self.policy)
            .finish()
    }
}

impl DmzFirewall {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: Box<dyn Controller>, policy: DmzPolicy) -> DmzFirewall {
        DmzFirewall {
            inner,
            policy,
            deny_idle_timeout: 10,
        }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &DmzPolicy {
        &self.policy
    }
}

impl Controller for DmzFirewall {
    fn kind(&self) -> ControllerKind {
        self.inner.kind()
    }

    fn on_switch_connect(&mut self, dpid: DatapathId, features: &SwitchFeatures, out: &mut Outbox) {
        self.inner.on_switch_connect(dpid, features, out);
    }

    fn on_packet_in(&mut self, dpid: DatapathId, pi: &PacketIn, out: &mut Outbox) {
        let key = packet::flow_key(&pi.data, pi.in_port);
        if self.policy.decide(dpid, &key) == Verdict::Deny {
            let profile = self.inner.kind().profile();
            // Only POX drops a packet with a flow mod carrying its
            // buffer; the other firewall apps free the buffer explicitly
            // with an empty PACKET_OUT. Either way the buffer is released
            // exactly once.
            let buffer_on_flow_mod = profile.flows.map(|f| f.hairpin) == Some(Hairpin::DropFlow);
            // The deny entry outranks any learning-switch entry.
            out.send(
                dpid,
                OfMessage::FlowMod(FlowMod {
                    r#match: profile.match_style.build(&key),
                    cookie: 0xf14e_0000, // firewall app cookie
                    command: FlowModCommand::Add,
                    idle_timeout: self.deny_idle_timeout,
                    hard_timeout: 0,
                    priority: 0xf000,
                    buffer_id: pi.buffer_id.filter(|_| buffer_on_flow_mod),
                    out_port: PortNo::NONE,
                    flags: FlowModFlags::default(),
                    actions: vec![], // drop
                }),
            );
            if pi.buffer_id.is_some() && !buffer_on_flow_mod {
                out.send(
                    dpid,
                    OfMessage::PacketOut(PacketOut {
                        buffer_id: pi.buffer_id,
                        in_port: pi.in_port,
                        actions: vec![],
                        data: vec![],
                    }),
                );
            }
            return;
        }
        self.inner.on_packet_in(dpid, pi, out);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: &OfMessage, out: &mut Outbox) {
        self.inner.on_message(dpid, msg, out);
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId) {
        self.inner.on_switch_disconnect(dpid);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn processing_delay_us(&self) -> u64 {
        self.inner.processing_delay_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_openflow::{MacAddr, PacketInReason};

    fn policy() -> DmzPolicy {
        DmzPolicy {
            firewall_dpid: DatapathId(2),
            external_port: PortNo(1),
            trusted_sources: ["10.0.0.1".parse().unwrap()].into_iter().collect(),
            allowed_external_dsts: ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()]
                .into_iter()
                .collect(),
        }
    }

    fn icmp_packet_in(dst_ip: &str, in_port: u16, buffer: Option<u32>) -> PacketIn {
        let frame = packet::icmp_echo_request(
            MacAddr::from_low(0x22),
            MacAddr::from_low(0x33),
            "10.0.0.2".parse().unwrap(),
            dst_ip.parse().unwrap(),
            1,
            1,
            vec![0; 16],
        );
        PacketIn {
            buffer_id: buffer,
            total_len: frame.wire_len() as u16,
            in_port: PortNo(in_port),
            reason: PacketInReason::NoMatch,
            data: frame.encode(),
        }
    }

    #[test]
    fn verdicts_follow_the_paper_policy() {
        let p = policy();
        let mk = |dpid: u64, in_port: u16, dl_type: u16, src: &str, dst: &str| {
            let key = FlowKey {
                in_port: PortNo(in_port),
                dl_type,
                nw_src: u32::from(src.parse::<Ipv4Addr>().unwrap()),
                nw_dst: u32::from(dst.parse::<Ipv4Addr>().unwrap()),
                ..FlowKey::default()
            };
            p.decide(DatapathId(dpid), &key)
        };
        // Gateway (Internet) → internal host: denied.
        assert_eq!(mk(2, 1, 0x0800, "10.0.0.2", "10.0.0.3"), Verdict::Deny);
        // Gateway → published web server: allowed.
        assert_eq!(mk(2, 1, 0x0800, "10.0.0.2", "10.0.0.1"), Verdict::Allow);
        // Trusted web server → internal host: allowed (the Fig. 11
        // h1↔h6 workload path).
        assert_eq!(mk(2, 1, 0x0800, "10.0.0.1", "10.0.0.6"), Verdict::Allow);
        // Internal side of the firewall: always allowed.
        assert_eq!(mk(2, 2, 0x0800, "10.0.0.2", "10.0.0.3"), Verdict::Allow);
        // Different switch: not the firewall's business.
        assert_eq!(mk(3, 1, 0x0800, "10.0.0.2", "10.0.0.3"), Verdict::Allow);
        // ARP through the external port: allowed.
        assert_eq!(mk(2, 1, 0x0806, "10.0.0.2", "10.0.0.3"), Verdict::Allow);
    }

    #[test]
    fn floodlight_deny_flow_mod_names_nw_src() {
        let mut fw = DmzFirewall::new(ControllerKind::Floodlight.instantiate(), policy());
        let mut out = Outbox::new();
        fw.on_packet_in(
            DatapathId(2),
            &icmp_packet_in("10.0.0.5", 1, Some(3)),
            &mut out,
        );
        let msgs = out.drain();
        let OfMessage::FlowMod(fm) = &msgs[0].1 else {
            panic!("expected deny flow mod");
        };
        assert!(fm.actions.is_empty());
        assert_eq!(
            fm.r#match.nw_src_addr(),
            Some("10.0.0.2".parse().unwrap()),
            "φ2 must be able to read nw_src from a Floodlight deny rule"
        );
        // Buffer freed once, by an explicit empty packet out.
        assert_eq!(fm.buffer_id, None);
        assert!(matches!(&msgs[1].1,
            OfMessage::PacketOut(po) if po.actions.is_empty() && po.buffer_id == Some(3)));
    }

    #[test]
    fn pox_deny_flow_mod_names_nw_src_and_carries_buffer() {
        let mut fw = DmzFirewall::new(ControllerKind::Pox.instantiate(), policy());
        let mut out = Outbox::new();
        fw.on_packet_in(
            DatapathId(2),
            &icmp_packet_in("10.0.0.5", 1, Some(3)),
            &mut out,
        );
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        let OfMessage::FlowMod(fm) = &msgs[0].1 else {
            panic!("expected deny flow mod");
        };
        assert_eq!(fm.buffer_id, Some(3));
        assert!(fm.r#match.nw_src_addr().is_some());
    }

    #[test]
    fn ryu_deny_flow_mod_wildcards_nw_src() {
        let mut fw = DmzFirewall::new(ControllerKind::Ryu.instantiate(), policy());
        let mut out = Outbox::new();
        fw.on_packet_in(
            DatapathId(2),
            &icmp_packet_in("10.0.0.5", 1, Some(3)),
            &mut out,
        );
        let msgs = out.drain();
        let OfMessage::FlowMod(fm) = &msgs[0].1 else {
            panic!("expected deny flow mod");
        };
        assert_eq!(
            fm.r#match.nw_src_addr(),
            None,
            "Ryu's L2-only match hides nw_src from φ2 — the paper's anomaly"
        );
    }

    #[test]
    fn allowed_traffic_reaches_the_inner_learning_switch() {
        let mut fw = DmzFirewall::new(ControllerKind::Floodlight.instantiate(), policy());
        let mut out = Outbox::new();
        fw.on_packet_in(
            DatapathId(2),
            &icmp_packet_in("10.0.0.1", 1, Some(3)),
            &mut out,
        );
        let msgs = out.drain();
        // Inner Floodlight floods (unknown dst): no deny rule installed.
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0].1, OfMessage::PacketOut(_)));
    }

    #[test]
    fn internal_to_external_is_never_firewalled() {
        let mut fw = DmzFirewall::new(ControllerKind::Floodlight.instantiate(), policy());
        let mut out = Outbox::new();
        // Arrives on the internal port 2.
        fw.on_packet_in(
            DatapathId(2),
            &icmp_packet_in("10.0.0.99", 2, Some(3)),
            &mut out,
        );
        let msgs = out.drain();
        assert!(matches!(&msgs[0].1, OfMessage::PacketOut(_)));
    }
}
