//! The flow-table overflow family's cost and accuracy sweeps.
//!
//! Three groups, each swept over the overflow policies at capacities
//! 64/256/1024:
//!
//! * `fill` — amortized per-entry install cost while filling an empty
//!   bounded table to capacity (the attack's ramp phase);
//! * `install_at_capacity` — the steady-state cost of one more install
//!   into a full table: victim selection plus index churn under the
//!   evicting policies, the refusal path under `reject`;
//! * `inference_estimate` — not a timing at all: the capacity the
//!   data-plane probe host recovers from RTT inflection against a Ryu
//!   controller (see `netsim/tests/capacity_inference.rs`). The value
//!   recorded is the estimate in `entries`, so the checked-in JSON pins
//!   the ±5% accuracy claim alongside the timings.
//!
//! `cargo bench` writes `BENCH_table_overflow.json` at the workspace
//! root.

use attain_bench::BenchReport;
use attain_controllers::Ryu;
use attain_netsim::{EvictionPolicy, FlowTable, HostCommand, NetworkBuilder, SimTime, Simulation};
use attain_openflow::{Action, FlowKey, FlowMod, MacAddr, Match, PortNo};
use std::hint::black_box;

const CAPACITIES: [usize; 3] = [64, 256, 1024];
const POLICIES: [EvictionPolicy; 3] = [
    EvictionPolicy::Reject,
    EvictionPolicy::EvictLru,
    EvictionPolicy::EvictLowestPriority,
];

fn nth_key(i: usize) -> FlowKey {
    FlowKey {
        in_port: PortNo((i % 48 + 1) as u16),
        dl_src: MacAddr::from_low(i as u64),
        dl_dst: MacAddr::from_low((i * 7) as u64),
        dl_type: 0x0800,
        nw_proto: 6,
        nw_src: i as u32,
        nw_dst: (i * 13) as u32,
        tp_src: (i % 65_535) as u16,
        tp_dst: 80,
        ..FlowKey::default()
    }
}

fn nth_add(i: usize) -> FlowMod {
    FlowMod::add(
        Match::from_flow_key(&nth_key(i)),
        vec![Action::Output {
            port: PortNo(2),
            max_len: 0,
        }],
    )
}

fn filled_table(capacity: usize, policy: EvictionPolicy) -> FlowTable {
    let mut t = FlowTable::with_policy(capacity, policy);
    for i in 0..capacity {
        t.apply(&nth_add(i), SimTime::ZERO).expect("table has room");
    }
    t
}

/// Runs the capacity-inference probe against a bounded switch under a
/// Ryu controller and returns the recovered estimate.
fn probe_estimate(capacity: usize, policy: EvictionPolicy) -> Option<usize> {
    let mut sim: Simulation = {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        b.set_table(s1, capacity, policy);
        b.link(h1, s1);
        b.link(h2, s1);
        let c1 = b.controller("c1", Box::new(Ryu::new()));
        b.control(c1, s1);
        b.build()
    };
    let h1 = sim.node_id("h1").expect("h1 exists");
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Probe {
            host: h1,
            dst: "10.0.0.2".parse().expect("valid address"),
            fill: capacity as u32,
            gap: SimTime::from_millis(10),
            label: format!("bench capprobe {capacity} {}", policy.name()),
        },
    );
    let horizon = 10 + (2 * capacity as u64 + 20) / 100 + 2;
    sim.run_until(SimTime::from_secs(horizon));
    sim.probe_stats()[0].estimate()
}

fn main() {
    let mut report = BenchReport::new("table_overflow");
    for policy in POLICIES {
        for cap in CAPACITIES {
            report.time_per(format!("fill/{}/{cap}", policy.name()), cap, || {
                black_box(filled_table(cap, policy));
            });
        }
    }
    for policy in POLICIES {
        for cap in CAPACITIES {
            let mut t = filled_table(cap, policy);
            let mut i = cap;
            report.time(
                format!("install_at_capacity/{}/{cap}", policy.name()),
                || {
                    i += 1;
                    black_box(t.apply(&nth_add(i), SimTime::ZERO).ok());
                },
            );
        }
    }
    for policy in POLICIES {
        for cap in CAPACITIES {
            let estimate = probe_estimate(cap, policy).expect("probe completes");
            report.record(
                format!("inference_estimate/{}/{cap}", policy.name()),
                "entries",
                estimate as f64,
            );
        }
    }
    report.finish();
}
