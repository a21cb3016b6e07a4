//! Every message each controller application emits, pinned to a golden.
//!
//! Each line of `tests/golden/emitted.txt` is one scenario driven
//! against one application, bare or behind the DMZ firewall: the
//! `(dpid, encoded OfMessage)` list of every step, hex-encoded. A
//! change to any match field, timeout, cookie, priority, buffer
//! handling or hairpin path shows up here. Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p attain-controllers --test emitted`.
//!
//! The second test checks that the behavioural predicates on
//! `ControllerKind`, which the campaign oracle reads, agree with what the
//! applications actually send.

use attain_controllers::{Controller, ControllerKind, DmzFirewall, DmzPolicy, Outbox};
use attain_openflow::{
    packet, DatapathId, FlowMod, MacAddr, OfMessage, PacketIn, PacketInReason, PortNo,
    SwitchFeatures,
};
use std::fmt::Write;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/emitted.txt");

/// The firewall switch; every scenario runs on it.
const DPID: DatapathId = DatapathId(2);

fn policy() -> DmzPolicy {
    DmzPolicy {
        firewall_dpid: DPID,
        external_port: PortNo(1),
        trusted_sources: ["10.0.0.1".parse().unwrap()].into_iter().collect(),
        allowed_external_dsts: ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()]
            .into_iter()
            .collect(),
    }
}

/// One input to an application.
enum Step {
    PacketIn(PacketIn),
    Disconnect,
    Reset,
}

/// An ICMP echo from host `src` to host `dst` (MAC low byte and last IP
/// octet), arriving on `in_port`.
fn icmp(src: u64, dst: u64, in_port: u16, buffer: Option<u32>) -> Step {
    let frame = packet::icmp_echo_request(
        MacAddr::from_low(src),
        MacAddr::from_low(dst),
        format!("10.0.0.{src}").parse().unwrap(),
        format!("10.0.0.{dst}").parse().unwrap(),
        1,
        1,
        vec![0; 16],
    );
    packet_in(frame, in_port, buffer)
}

/// A broadcast ARP request from host `src`.
fn arp(src: u64, in_port: u16, buffer: Option<u32>) -> Step {
    let frame = packet::arp_request(
        MacAddr::from_low(src),
        format!("10.0.0.{src}").parse().unwrap(),
        "10.0.0.9".parse().unwrap(),
    );
    packet_in(frame, in_port, buffer)
}

fn packet_in(frame: packet::Ethernet, in_port: u16, buffer: Option<u32>) -> Step {
    Step::PacketIn(PacketIn {
        buffer_id: buffer,
        total_len: frame.wire_len() as u16,
        in_port: PortNo(in_port),
        reason: PacketInReason::NoMatch,
        data: frame.encode(),
    })
}

/// Host 4 announces itself on port 3, so a later packet to it is a
/// known destination.
fn learn_h4() -> Step {
    icmp(4, 3, 3, None)
}

/// The scenarios, in golden-file order. Ports 2 and 3 are internal, so
/// the firewall delegates; port 1 is external.
fn scenarios() -> Vec<(&'static str, Vec<Step>)> {
    vec![
        ("unknown_unicast_buffered", vec![icmp(3, 4, 2, Some(7))]),
        ("unknown_unicast_unbuffered", vec![icmp(3, 4, 2, None)]),
        ("broadcast_buffered", vec![learn_h4(), arp(3, 2, Some(5))]),
        ("broadcast_unbuffered", vec![learn_h4(), arp(3, 2, None)]),
        ("known_buffered", vec![learn_h4(), icmp(3, 4, 2, Some(9))]),
        ("known_unbuffered", vec![learn_h4(), icmp(3, 4, 2, None)]),
        (
            "hairpin_buffered",
            vec![icmp(4, 3, 2, None), icmp(3, 4, 2, Some(3))],
        ),
        (
            "hairpin_unbuffered",
            vec![icmp(4, 3, 2, None), icmp(3, 4, 2, None)],
        ),
        (
            "after_disconnect",
            vec![learn_h4(), Step::Disconnect, icmp(3, 4, 2, Some(9))],
        ),
        (
            "after_reset",
            vec![learn_h4(), Step::Reset, icmp(3, 4, 2, Some(9))],
        ),
        ("firewall_allow_trusted", vec![icmp(1, 5, 1, Some(4))]),
        ("firewall_deny_buffered", vec![icmp(2, 5, 1, Some(3))]),
        ("firewall_deny_unbuffered", vec![icmp(2, 5, 1, None)]),
    ]
}

fn app(kind: ControllerKind, firewalled: bool) -> Box<dyn Controller> {
    if firewalled {
        Box::new(DmzFirewall::new(kind.instantiate(), policy()))
    } else {
        kind.instantiate()
    }
}

/// Runs `steps` against a fresh application and returns what each step
/// emitted (the handshake milestone first).
fn drive(kind: ControllerKind, firewalled: bool, steps: &[Step]) -> Vec<Vec<OfMessage>> {
    let mut c = app(kind, firewalled);
    assert_eq!(c.kind(), kind);
    let mut out = Outbox::new();
    let features = SwitchFeatures {
        datapath_id: DPID,
        n_buffers: 256,
        n_tables: 1,
        capabilities: 0,
        actions: 0,
        ports: vec![],
    };
    c.on_switch_connect(DPID, &features, &mut out);
    let mut emitted = vec![out.drain()];
    for step in steps {
        match step {
            Step::PacketIn(pi) => c.on_packet_in(DPID, pi, &mut out),
            Step::Disconnect => c.on_switch_disconnect(DPID),
            Step::Reset => c.reset(),
        }
        emitted.push(out.drain());
    }
    emitted
        .into_iter()
        .map(|msgs| {
            msgs.into_iter()
                .map(|(dpid, msg)| {
                    assert_eq!(dpid, DPID, "reply addressed to another switch");
                    msg
                })
                .collect()
        })
        .collect()
}

fn render(emitted: &[Vec<OfMessage>]) -> String {
    let steps: Vec<String> = emitted
        .iter()
        .map(|msgs| {
            if msgs.is_empty() {
                return "-".to_string();
            }
            let hex: Vec<String> = msgs
                .iter()
                .map(|m| {
                    let mut s = format!("{:x}:", DPID.0);
                    for b in m.encode(0) {
                        write!(s, "{b:02x}").unwrap();
                    }
                    s
                })
                .collect();
            hex.join(" ")
        })
        .collect();
    steps.join(" | ")
}

#[test]
fn emitted_messages_match_golden() {
    let mut lines = Vec::new();
    for kind in ControllerKind::CAMPAIGN {
        for (wrap, firewalled) in [("bare", false), ("dmz", true)] {
            for (name, steps) in scenarios() {
                let emitted = drive(kind, firewalled, &steps);
                lines.push(format!(
                    "{} {wrap} {name} {}",
                    kind.slug(),
                    render(&emitted)
                ));
            }
        }
    }
    let rendered = lines.join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &rendered).unwrap();
        return;
    }
    let checked_in = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN} missing ({e}); generate with UPDATE_GOLDEN=1"));
    for (want, got) in checked_in.lines().zip(rendered.lines()) {
        assert_eq!(got, want, "emitted messages drifted");
    }
    assert_eq!(checked_in.lines().count(), rendered.lines().count());
}

fn flow_mods(emitted: &[Vec<OfMessage>]) -> Vec<FlowMod> {
    emitted
        .iter()
        .flatten()
        .filter_map(|m| match m {
            OfMessage::FlowMod(fm) => Some(fm.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn kind_predicates_agree_with_emitted_messages() {
    for kind in ControllerKind::CAMPAIGN {
        // Everything the bare application installs across all scenarios.
        let app_flows: Vec<FlowMod> = scenarios()
            .iter()
            .flat_map(|(_, steps)| flow_mods(&drive(kind, false, steps)))
            .collect();
        assert_eq!(kind.installs_flows(), !app_flows.is_empty(), "{kind}");

        // A known destination behind a buffered packet-in: is the
        // buffer released by the flow mod, or by a separate packet out?
        let known = drive(kind, false, &[learn_h4(), icmp(3, 4, 2, Some(9))]);
        let last = known.last().unwrap();
        let by_flow_mod = last
            .iter()
            .any(|m| matches!(m, OfMessage::FlowMod(fm) if fm.buffer_id == Some(9)));
        let by_packet_out = last
            .iter()
            .any(|m| matches!(m, OfMessage::PacketOut(po) if po.buffer_id == Some(9)));
        assert_eq!(kind.releases_buffer_via_flow_mod(), by_flow_mod, "{kind}");
        assert!(by_flow_mod != by_packet_out, "{kind}: buffer released once");

        // The flow mods the application and its firewall build either
        // all name a concrete nw_src or none do.
        let deny = drive(kind, true, &[icmp(2, 5, 1, Some(3))]);
        let all_flows: Vec<FlowMod> = app_flows.iter().cloned().chain(flow_mods(&deny)).collect();
        assert!(!all_flows.is_empty());
        let exposing = all_flows
            .iter()
            .filter(|fm| fm.r#match.nw_src_addr().is_some())
            .count();
        assert!(exposing == 0 || exposing == all_flows.len(), "{kind}");
        assert_eq!(kind.flow_mod_exposes_nw_src(), exposing > 0, "{kind}");

        let permanent = !app_flows.is_empty()
            && app_flows
                .iter()
                .all(|fm| fm.idle_timeout == 0 && fm.hard_timeout == 0);
        assert_eq!(kind.installs_permanent_flows(), permanent, "{kind}");
    }
}
