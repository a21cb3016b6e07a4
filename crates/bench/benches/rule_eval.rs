//! §VI-D2 runtime complexity: per-message rule evaluation cost as the
//! rule count |Φ| grows, under both the reference scan and the compiled
//! per-state dispatcher.
//!
//! Three workloads:
//!
//! * `one_match` — every rule tests a distinct length no message has
//!   (≤1 can be true). Under the scan this is the paper's
//!   `O(|Φ| + |α_executed|)` case; the dispatcher resolves it with one
//!   equality-bucket probe and no candidates.
//! * `all_match` — every conditional is satisfied by every message
//!   (`O(|Φ| · |α_max|)`). Dispatch cannot help here by construction:
//!   all |Φ| rules are candidates, so both modes pay the full
//!   evaluation cost — the floor the dispatcher must not regress.
//! * `mixed_types` — rules anchor on 8 distinct message types and the
//!   workload round-robins one frame of each, so hash dispatch
//!   narrows each message to ~|Φ|/8 real (non-firing) candidate
//!   evaluations: the selectivity regime between the two extremes.
//!
//! Every point is measured in **both** dispatch modes, as `scan/…` and
//! `dispatch/…` rows, so the speedup stays checked in across revisions;
//! `cargo bench` writes `BENCH_rule_eval.json` at the workspace root.

use attain_bench::{
    bench_message, mixed_messages, mixed_type_executor, rule_sweep_executor_mode, BenchReport,
};
use attain_core::exec::{AttackExecutor, DispatchMode, InjectorInput};
use attain_core::model::ConnectionId;
use attain_openflow::Frame;
use std::hint::black_box;

const SIZES: [usize; 5] = [1, 8, 64, 256, 1024];

/// One message through the executor; `now` advances so sleep/wakeup
/// arithmetic stays monotone across iterations.
fn step(exec: &mut AttackExecutor, frame: &Frame, now: &mut u64) {
    *now += 1_000;
    let out = exec.on_message(InjectorInput {
        conn: ConnectionId(0),
        to_controller: true,
        frame: frame.clone(),
        now_ns: *now,
    });
    black_box(out);
}

/// Times one (executor, workload) point: ns/message with the frame set
/// cycled round-robin.
fn time_point(report: &mut BenchReport, name: String, mut exec: AttackExecutor, frames: &[Frame]) {
    let mut now = 0u64;
    let mut i = 0usize;
    report.time(name, || {
        let frame = &frames[i % frames.len()];
        i += 1;
        step(&mut exec, frame, &mut now);
    });
}

fn main() {
    let single = [bench_message()];
    let mixed = mixed_messages();
    let mut report = BenchReport::new("rule_eval");
    for (label, mode) in [
        ("scan", DispatchMode::Scan),
        ("dispatch", DispatchMode::Compiled),
    ] {
        for &rules in &SIZES {
            for (workload, all_match) in [("one_match", false), ("all_match", true)] {
                let exec = rule_sweep_executor_mode(rules, all_match, mode);
                time_point(
                    &mut report,
                    format!("{label}/{workload}/{rules}"),
                    exec,
                    &single,
                );
            }
            let exec = mixed_type_executor(rules, mode);
            time_point(
                &mut report,
                format!("{label}/mixed_types/{rules}"),
                exec,
                &mixed,
            );
        }
    }
    report.finish();
}
