//! The one learning switch every controller model runs, its MAC table
//! and its flow-match styles.

use crate::profile::{FlowPolicy, Hairpin, Profile};
use crate::traits::{Controller, ControllerKind, Outbox};
use attain_openflow::{
    packet, Action, BufferId, DatapathId, FlowKey, FlowMod, FlowModCommand, FlowModFlags, MacAddr,
    Match, OfMessage, PacketIn, PacketOut, PortNo, SwitchFeatures, Wildcards,
};
use std::collections::HashMap;

/// The learning switch behind every [`ControllerKind`]: learn the source
/// MAC, flood unknown and broadcast destinations, install a flow toward a
/// known one. Everything that differs between controllers is read from
/// the kind's [`Profile`] row.
#[derive(Debug)]
pub struct LearningSwitch {
    profile: &'static Profile,
    table: L2Table,
}

impl LearningSwitch {
    /// A fresh application of `kind` with an empty MAC table.
    pub fn new(kind: ControllerKind) -> LearningSwitch {
        LearningSwitch {
            profile: kind.profile(),
            table: L2Table::new(),
        }
    }
}

/// A `PACKET_OUT` for `pi` with `actions`: it names the buffer, or
/// resends the raw data when nothing was buffered.
fn packet_out(pi: &PacketIn, actions: Vec<Action>) -> OfMessage {
    OfMessage::PacketOut(PacketOut {
        buffer_id: pi.buffer_id,
        in_port: pi.in_port,
        actions,
        data: if pi.buffer_id.is_none() {
            pi.data.clone()
        } else {
            vec![]
        },
    })
}

fn output(port: PortNo) -> Vec<Action> {
    vec![Action::Output { port, max_len: 0 }]
}

impl Controller for LearningSwitch {
    fn kind(&self) -> ControllerKind {
        self.profile.kind
    }

    fn on_switch_connect(
        &mut self,
        _dpid: DatapathId,
        _features: &SwitchFeatures,
        _out: &mut Outbox,
    ) {
    }

    fn on_packet_in(&mut self, dpid: DatapathId, pi: &PacketIn, out: &mut Outbox) {
        let Some(flows) = self.profile.flows else {
            out.send(dpid, packet_out(pi, output(PortNo::FLOOD)));
            return;
        };
        let key = packet::flow_key(&pi.data, pi.in_port);
        self.table.learn(dpid, key.dl_src, pi.in_port);
        let dst_port = if key.dl_dst.is_multicast() {
            None
        } else {
            self.table.lookup(dpid, key.dl_dst)
        };
        let forward_to = match dst_port {
            Some(port) if port != pi.in_port => Some(port),
            Some(port) => match flows.hairpin {
                Hairpin::Forward => Some(port),
                Hairpin::Flood => None,
                Hairpin::Release => {
                    out.send(dpid, packet_out(pi, vec![]));
                    return;
                }
                Hairpin::DropFlow => {
                    let drop = flow_mod(self.profile, &flows, &key, pi.buffer_id, vec![]);
                    out.send(dpid, drop);
                    return;
                }
            },
            None => None,
        };
        let Some(port) = forward_to else {
            out.send(dpid, packet_out(pi, output(PortNo::FLOOD)));
            return;
        };
        let buffer_id = pi.buffer_id.filter(|_| flows.buffer_on_flow_mod);
        out.send(
            dpid,
            flow_mod(self.profile, &flows, &key, buffer_id, output(port)),
        );
        if buffer_id.is_none() {
            // Nothing rode on the flow mod: release the buffer, or resend
            // the raw packet, separately.
            out.send(dpid, packet_out(pi, output(port)));
        }
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId) {
        self.table.forget_switch(dpid);
    }

    fn reset(&mut self) {
        self.table.clear();
    }

    fn processing_delay_us(&self) -> u64 {
        self.profile.processing_delay_us
    }
}

/// A flow mod for `key` with `profile`'s match style and `flows`' cookie,
/// timeouts and priority.
fn flow_mod(
    profile: &Profile,
    flows: &FlowPolicy,
    key: &FlowKey,
    buffer_id: BufferId,
    actions: Vec<Action>,
) -> OfMessage {
    OfMessage::FlowMod(FlowMod {
        r#match: profile.match_style.build(key),
        cookie: flows.cookie,
        command: FlowModCommand::Add,
        idle_timeout: flows.idle_timeout,
        hard_timeout: flows.hard_timeout,
        priority: flows.priority,
        buffer_id,
        out_port: PortNo::NONE,
        flags: FlowModFlags::default(),
        actions,
    })
}

/// The MAC learning table of the learning switch: one
/// `(switch, MAC) → port` map, exactly what `l2_learning`/`simple_switch`
/// keep per datapath.
#[derive(Debug, Clone, Default)]
pub struct L2Table {
    entries: HashMap<(DatapathId, MacAddr), PortNo>,
}

impl L2Table {
    /// Creates an empty table.
    pub fn new() -> L2Table {
        L2Table::default()
    }

    /// Records that `mac` was seen on `port` of switch `dpid`.
    pub fn learn(&mut self, dpid: DatapathId, mac: MacAddr, port: PortNo) {
        self.entries.insert((dpid, mac), port);
    }

    /// Looks up the port `mac` was last seen on at `dpid`.
    pub fn lookup(&self, dpid: DatapathId, mac: MacAddr) -> Option<PortNo> {
        self.entries.get(&(dpid, mac)).copied()
    }

    /// Drops everything learned at `dpid` (on disconnect).
    pub fn forget_switch(&mut self, dpid: DatapathId) {
        self.entries.retain(|(d, _), _| *d != dpid);
    }

    /// Drops everything (on controller restart).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of learned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been learned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How a controller constructs the match of the flow mods it installs —
/// the implementation detail the connection-interruption attack's rule
/// `φ2` hinges on (paper §VII-C4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchStyle {
    /// Floodlight `Forwarding`: ingress port, MACs, ethertype, and the
    /// IP/ARP network addresses — but not ToS or transport ports.
    L3Aware,
    /// POX `l2_learning`: `ofp_match.from_packet` — an exact match on all
    /// twelve fields.
    FullExact,
    /// Ryu `simple_switch`: L2 only — ingress port and MACs. The network
    /// addresses are *wildcarded*, which is why `φ2` (which reads
    /// `nw_src`) never fires against Ryu.
    L2Only,
}

impl MatchStyle {
    /// Builds a flow-mod match for `key` in this style.
    pub fn build(&self, key: &FlowKey) -> Match {
        match self {
            MatchStyle::FullExact => Match::from_flow_key(key),
            MatchStyle::L2Only => {
                let w = Wildcards::ALL.0
                    & !(Wildcards::IN_PORT | Wildcards::DL_SRC | Wildcards::DL_DST);
                Match {
                    wildcards: Wildcards(w),
                    in_port: key.in_port,
                    dl_src: key.dl_src,
                    dl_dst: key.dl_dst,
                    ..Match::all()
                }
            }
            MatchStyle::L3Aware => {
                let w = Wildcards(
                    Wildcards::ALL.0
                        & !(Wildcards::IN_PORT
                            | Wildcards::DL_SRC
                            | Wildcards::DL_DST
                            | Wildcards::DL_TYPE),
                )
                .with_nw_src_ignored_bits(0)
                .with_nw_dst_ignored_bits(0);
                Match {
                    wildcards: w,
                    in_port: key.in_port,
                    dl_src: key.dl_src,
                    dl_dst: key.dl_dst,
                    dl_type: key.dl_type,
                    nw_src: key.nw_src,
                    nw_dst: key.nw_dst,
                    ..Match::all()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey {
            in_port: PortNo(2),
            dl_src: MacAddr::from_low(1),
            dl_dst: MacAddr::from_low(2),
            dl_vlan: 0xffff,
            dl_vlan_pcp: 0,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 6,
            nw_src: 0x0a000101,
            nw_dst: 0x0a000202,
            tp_src: 1234,
            tp_dst: 80,
        }
    }

    #[test]
    fn l2_table_learn_lookup_forget() {
        let mut t = L2Table::new();
        t.learn(DatapathId(1), MacAddr::from_low(5), PortNo(3));
        t.learn(DatapathId(2), MacAddr::from_low(5), PortNo(7));
        assert_eq!(
            t.lookup(DatapathId(1), MacAddr::from_low(5)),
            Some(PortNo(3))
        );
        assert_eq!(
            t.lookup(DatapathId(2), MacAddr::from_low(5)),
            Some(PortNo(7))
        );
        assert_eq!(t.lookup(DatapathId(3), MacAddr::from_low(5)), None);
        t.forget_switch(DatapathId(1));
        assert_eq!(t.lookup(DatapathId(1), MacAddr::from_low(5)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn relearning_moves_the_port() {
        let mut t = L2Table::new();
        t.learn(DatapathId(1), MacAddr::from_low(5), PortNo(3));
        t.learn(DatapathId(1), MacAddr::from_low(5), PortNo(4));
        assert_eq!(
            t.lookup(DatapathId(1), MacAddr::from_low(5)),
            Some(PortNo(4))
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn full_exact_pins_every_field() {
        let m = MatchStyle::FullExact.build(&key());
        assert_eq!(m.wildcards, Wildcards::NONE);
        assert_eq!(m.nw_src_addr().map(u32::from), Some(0x0a000101));
    }

    #[test]
    fn l2_only_wildcards_network_addresses() {
        let m = MatchStyle::L2Only.build(&key());
        assert!(m.wildcards.nw_src_all());
        assert!(m.wildcards.nw_dst_all());
        assert_eq!(m.nw_src_addr(), None); // φ2 cannot read an nw_src here
        assert!(m.matches(&key()));
    }

    #[test]
    fn l3_aware_pins_ips_but_not_ports() {
        let m = MatchStyle::L3Aware.build(&key());
        assert_eq!(m.nw_src_addr().map(u32::from), Some(0x0a000101));
        assert_eq!(m.nw_dst_addr().map(u32::from), Some(0x0a000202));
        assert!(m.wildcards.has(Wildcards::TP_SRC));
        assert!(m.wildcards.has(Wildcards::TP_DST));
        assert!(m.matches(&key()));
        // Same hosts, different TCP ports: still matches (coarser than POX).
        let mut k2 = key();
        k2.tp_src = 9999;
        assert!(m.matches(&k2));
        assert!(!MatchStyle::FullExact.build(&key()).matches(&k2));
    }

    #[test]
    fn all_styles_match_their_own_key() {
        for style in [
            MatchStyle::L3Aware,
            MatchStyle::FullExact,
            MatchStyle::L2Only,
        ] {
            assert!(style.build(&key()).matches(&key()), "{style:?}");
        }
    }
}
