//! Virtual-time history pinned to checked-in goldens.
//!
//! The simulator's output is a pure function of its inputs: the event
//! queue orders events by `(time, seq)`, whatever structure holds them.
//! These tests pin that history for both kinds of scenario the repo
//! cares about: the paper-style small controller networks (where the
//! control-plane trace digest is the oracle) and generated datacenter
//! fabrics under seeded traffic matrices (where the data-plane record
//! is). Each scenario's [`fingerprint`] is hashed (FNV-1a, 64-bit) and
//! compared with its line in `tests/golden/scale_determinism.txt`.
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p attain-netsim --test scale_determinism`.

use attain_controllers::ControllerKind;
use attain_netsim::topo::{fat_tree, install_fat_tree_routes, FatTreeParams};
use attain_netsim::workload::{FlowKind, TrafficMatrix, TrafficPattern};
use attain_netsim::{FaultPlan, HostCommand, NetworkBuilder, PassThrough, SimTime, Simulation};
use std::sync::Mutex;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scale_determinism.txt"
);

/// Serialises `UPDATE_GOLDEN` rewrites across the tests of this binary.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a, 64-bit, over the rendered fingerprint.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks `name`'s fingerprint digest against its golden line, or
/// rewrites that line under `UPDATE_GOLDEN`.
fn check_golden(name: &str, fingerprint: &str) {
    let line = format!("{name} {:016x}", fnv1a(fingerprint));
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let checked_in = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let prefix = format!("{name} ");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut lines: Vec<&str> = checked_in
            .lines()
            .filter(|l| !l.starts_with(&prefix))
            .collect();
        lines.push(&line);
        lines.sort_unstable();
        std::fs::write(GOLDEN, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = checked_in
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("{GOLDEN} has no line for {name}"));
    assert_eq!(line, golden, "{name} diverged; fingerprint:\n{fingerprint}");
}

/// Everything externally observable about a finished run, rendered.
/// Any reordering, retiming, loss, or duplication anywhere in the
/// simulation shows up here.
fn fingerprint(sim: &Simulation) -> String {
    let mut out = String::new();
    out.push_str(&format!("trace {}\n", sim.trace().digest()));
    out.push_str(&format!("counters {}\n", sim.trace().counter_digest()));
    out.push_str(&format!("events {}\n", sim.events_dispatched()));
    for p in sim.ping_stats() {
        out.push_str(&format!(
            "ping {} {} {}/{} {:?}\n",
            p.label,
            p.dst,
            p.received(),
            p.transmitted(),
            p.rtts_ms()
        ));
    }
    for s in sim.iperf_stats() {
        out.push_str(&format!("iperf {} {} {}\n", s.label, s.dst, s.bytes));
    }
    for l in sim.link_stats() {
        out.push_str(&format!(
            "link {}-{} tx {} drops {}/{}/{} corrupted {}\n",
            l.a, l.b, l.tx, l.queue_drops, l.down_drops, l.lost, l.corrupted
        ));
    }
    out
}

/// The paper-style 10-node line/star scenario: four switches, four
/// hosts, one controller, ping + iperf crossing the fabric while a
/// fault plan flaps a core link — the existing campaign shape.
fn paper_scenario(interpose: bool, fault: bool) -> Simulation {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let h3 = b.host("h3", "10.0.0.3");
    let h4 = b.host("h4", "10.0.0.4");
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    let s3 = b.switch("s3");
    let s4 = b.switch("s4");
    b.link(h1, s1);
    b.link(h2, s2);
    b.link(h3, s3);
    b.link(h4, s4);
    b.link(s1, s2);
    b.link(s2, s3);
    b.link(s3, s4);
    let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
    b.control(c1, s1);
    b.control(c1, s2);
    b.control(c1, s3);
    b.control(c1, s4);
    let mut sim = b.build();
    if interpose {
        sim.set_interposer(Box::new(PassThrough));
    }
    if fault {
        let mut plan = FaultPlan::seeded(7);
        plan.at_str(SimTime::from_secs(14), "link s2-s3 down")
            .unwrap()
            .at_str(SimTime::from_secs(18), "link s2-s3 up")
            .unwrap();
        sim.apply_fault_plan(&plan);
    }
    let ping = |host, dst: &str, label: &str| HostCommand::Ping {
        host,
        dst: dst.parse().unwrap(),
        count: 8,
        interval: SimTime::from_secs(1),
        label: label.into(),
    };
    let h1 = sim.node_id("h1").unwrap();
    let h3 = sim.node_id("h3").unwrap();
    sim.schedule_command(SimTime::from_secs(10), ping(h1, "10.0.0.4", "h1->h4"));
    sim.schedule_command(SimTime::from_secs(11), ping(h3, "10.0.0.2", "h3->h2"));
    sim.run_until(SimTime::from_secs(30));
    sim
}

/// A generated fat-tree under a seeded traffic matrix, optionally with
/// an interposer-less fault plan (no controller, so no interposer).
fn fabric_scenario(k: usize, fault: bool, seed: u64) -> Simulation {
    let mut b = NetworkBuilder::new();
    let t = fat_tree(&mut b, &FatTreeParams::new(k)).unwrap();
    let mut sim = b.build();
    install_fat_tree_routes(&mut sim, &t);
    if fault {
        // Flap one core uplink mid-run; seeded loss on another.
        let mut plan = FaultPlan::seeded(seed);
        plan.at_str(SimTime::from_secs(2), "link fta0_0-ftc0 down")
            .unwrap()
            .at_str(SimTime::from_secs(4), "link fta0_0-ftc0 up")
            .unwrap();
        sim.apply_fault_plan(&plan);
    }
    TrafficMatrix::new(48, seed)
        .with_pattern(TrafficPattern::Hotspot {
            hotspots: 3,
            bias_pct: 70,
        })
        .apply(&mut sim, &t);
    sim.run_until(SimTime::from_secs(8));
    sim
}

#[test]
fn paper_scenario_matches_golden() {
    for interpose in [false, true] {
        for fault in [false, true] {
            let name = format!("paper/interpose={interpose}/fault={fault}");
            check_golden(&name, &fingerprint(&paper_scenario(interpose, fault)));
        }
    }
}

#[test]
fn fat_tree_k4_traffic_matrix_matches_golden() {
    for fault in [false, true] {
        let fp = fingerprint(&fabric_scenario(4, fault, 42));
        assert!(fp.contains("ping"), "scenario produced no flows");
        check_golden(&format!("fat_tree_k4/fault={fault}"), &fp);
    }
}

#[test]
fn fat_tree_k8_traffic_matrix_matches_golden() {
    // k=8: 80 switches, 128 hosts — one fabric size up.
    check_golden("fat_tree_k8", &fingerprint(&fabric_scenario(8, false, 9)));
}

#[test]
fn iperf_workload_matches_golden() {
    let mut b = NetworkBuilder::new();
    let t = fat_tree(&mut b, &FatTreeParams::new(4)).unwrap();
    let mut sim = b.build();
    install_fat_tree_routes(&mut sim, &t);
    TrafficMatrix::new(12, 5)
        .with_pattern(TrafficPattern::Permutation)
        .with_kind(FlowKind::Iperf {
            duration: SimTime::from_secs(1),
        })
        .apply(&mut sim, &t);
    sim.run_until(SimTime::from_secs(10));
    let fp = fingerprint(&sim);
    assert!(fp.contains("iperf"), "scenario produced no flows");
    check_golden("iperf_k4", &fp);
}
