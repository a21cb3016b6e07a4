//! Interposition overhead ablation: what the proxy costs per message
//! when it does nothing (Figure 5's trivial attack) versus when an
//! attack's rules run — the overhead a practitioner's testbed pays for
//! hosting ATTAIN at all. `cargo bench` writes
//! `BENCH_injector_overhead.json` at the workspace root.

use attain_bench::BenchReport;
use attain_core::exec::{AttackExecutor, InjectorInput};
use attain_core::model::ConnectionId;
use attain_core::{dsl, scenario};
use attain_openflow::{FlowMod, Frame, Match, OfMessage};
use std::hint::black_box;

fn executor(source: &str) -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).expect("attack compiles");
    AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).expect("attack validates")
}

fn main() {
    let flow_mod = Frame::new(OfMessage::FlowMod(FlowMod::add(Match::all(), vec![])).encode(1));
    let mut report = BenchReport::new("injector_overhead");
    let cases = [
        ("trivial_pass", scenario::attacks::TRIVIAL_PASS),
        (
            "flow_mod_suppression",
            scenario::attacks::FLOW_MOD_SUPPRESSION,
        ),
        (
            "connection_interruption",
            scenario::attacks::CONNECTION_INTERRUPTION,
        ),
        (
            "counted_suppression",
            scenario::attacks::COUNTED_SUPPRESSION,
        ),
    ];
    for (name, source) in cases {
        let mut exec = executor(source);
        let mut now = 0u64;
        report.time(name, || {
            now += 1;
            black_box(exec.on_message(InjectorInput {
                conn: ConnectionId(0),
                to_controller: false,
                frame: flow_mod.clone(),
                now_ns: now,
            }));
        });
    }
    report.finish();
}
