//! End-to-end control-plane message-path cost: allocations and time per
//! message on the interposed proxy pipeline (§VI-C's hot loop).
//!
//! Three workloads, each measured for wall-clock ns/message (`…/time`,
//! unit `ns`) and — via a counting global allocator — heap allocations
//! (`…/allocs`, unit `allocs`) and allocated bytes (`…/bytes`, unit `B`)
//! per message:
//!
//! * `executor_pass` — the §VI-D sweep executor (64 non-matching rules)
//!   passing an `ECHO_REQUEST` through unchanged: the pure pass-through
//!   path every interposed message pays.
//! * `executor_duplicate` — a single always-firing `DUPLICATEMESSAGE`
//!   rule: the replay/duplication path the `Frame` refactor turns into a
//!   refcount bump.
//! * `sim_e2e` — the full §VII case-study network (4 switches, 6 hosts,
//!   DMZ firewall controller) with the trivial pass-all attack
//!   interposed, driven by a ping workload; cost is amortized over every
//!   control-plane message the proxy saw in one run, so its rows are
//!   single values (`n` = 1).
//!
//! `cargo bench` writes `BENCH_msg_path.json` at the workspace root.

use attain_bench::{bench_message, rule_sweep_executor, tiny_system, BenchReport};
use attain_controllers::ControllerKind;
use attain_core::exec::{AttackExecutor, InjectorInput};
use attain_core::lang::{Attack, AttackAction, AttackState, Expr, Property, Rule, Value};
use attain_core::model::{CapabilitySet, ConnectionId};
use attain_core::scenario;
use attain_injector::harness::{attach_attack, build_case_study};
use attain_netsim::{FailMode, HostCommand, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator, counting every allocation and its size.
/// Deallocations are not counted: the metric of interest is how much
/// fresh heap the message path requests per message.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Messages the allocation counters average over.
const ALLOC_ITERS: u64 = 10_000;

/// An attack whose single rule always fires and duplicates the message.
fn duplicate_executor() -> AttackExecutor {
    let (system, model) = tiny_system();
    let attack = Attack {
        name: "dup".into(),
        states: vec![AttackState {
            name: "s".into(),
            rules: vec![Rule {
                name: "phi0".into(),
                connections: vec![ConnectionId(0)],
                required: CapabilitySet::no_tls(),
                condition: Expr::Ge(
                    Box::new(Expr::Prop(Property::Length)),
                    Box::new(Expr::Lit(Value::Int(0))),
                ),
                actions: vec![AttackAction::Duplicate],
            }],
        }],
        start: 0,
    };
    AttackExecutor::new(system, model, attack).expect("duplicate attack validates")
}

/// Records one executor workload: allocation counting over a fixed
/// batch, then wall-clock timing (counted separately so timing noise
/// cannot perturb the deterministic allocation numbers).
fn executor_rows(report: &mut BenchReport, name: &str, mut exec: AttackExecutor) {
    let msg = bench_message();
    let mut now = 0u64;
    let mut run_one = || {
        now += 1_000;
        let out = exec.on_message(InjectorInput {
            conn: ConnectionId(0),
            to_controller: true,
            frame: msg.clone(),
            now_ns: now,
        });
        black_box(out);
    };
    // Warm up (executor log buffers etc. reach steady state).
    for _ in 0..64 {
        run_one();
    }
    let (calls0, bytes0) = alloc_snapshot();
    for _ in 0..ALLOC_ITERS {
        run_one();
    }
    let (calls1, bytes1) = alloc_snapshot();
    let per_msg = |n: u64| n as f64 / ALLOC_ITERS as f64;
    report.record(format!("{name}/allocs"), "allocs", per_msg(calls1 - calls0));
    report.record(format!("{name}/bytes"), "B", per_msg(bytes1 - bytes0));
    report.time(format!("{name}/time"), run_one);
}

/// The end-to-end pipeline: the §VII case study with the trivial
/// pass-all attack interposed, a 30-trial ping workload, costs amortized
/// over every control-plane message that crossed the proxy.
fn sim_e2e_rows(report: &mut BenchReport) {
    let mut sim = build_case_study(ControllerKind::Floodlight, FailMode::Secure);
    let _exec = attach_attack(&mut sim, scenario::attacks::TRIVIAL_PASS);
    let h1 = sim.node_id("h1").expect("case study has h1");
    sim.schedule_command(
        SimTime::from_secs(1),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.6".parse().expect("valid address"),
            count: 30,
            interval: SimTime::from_secs(1),
            label: "bench ping".into(),
        },
    );
    // Count and time only the run, not construction.
    let (calls0, bytes0) = alloc_snapshot();
    let t = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(40));
    let wall_ns = t.elapsed().as_nanos() as f64;
    let (calls1, bytes1) = alloc_snapshot();
    let msgs = sim.trace().control_message_total() as f64;
    assert!(msgs > 0.0, "e2e bench saw no control-plane traffic");
    report.record("sim_e2e/allocs", "allocs", (calls1 - calls0) as f64 / msgs);
    report.record("sim_e2e/bytes", "B", (bytes1 - bytes0) as f64 / msgs);
    report.record("sim_e2e/time", "ns", wall_ns / msgs);
}

fn main() {
    let mut report = BenchReport::new("msg_path");
    executor_rows(&mut report, "executor_pass", rule_sweep_executor(64, false));
    executor_rows(&mut report, "executor_duplicate", duplicate_executor());
    sim_e2e_rows(&mut report);
    report.finish();
}
