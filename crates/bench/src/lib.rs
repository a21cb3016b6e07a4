//! Shared formatting and workload helpers for the experiment binaries
//! and benchmarks, plus the one timer and report emitter behind every
//! checked-in `BENCH_*.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use attain_core::exec::{AttackExecutor, DispatchMode};
use attain_core::lang::AttackAction;
use attain_core::lang::{Attack, AttackState, Expr, Property, Rule, Value};
use attain_core::model::{AttackModel, CapabilitySet, ConnectionId, SystemModel};
use attain_openflow::OfType;

/// Renders an ASCII table: a header row plus data rows, columns padded
/// to content width.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let rule: String = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            let pad = w - cell.chars().count();
            s.push(' ');
            s.push_str(cell);
            s.push_str(&" ".repeat(pad + 1));
            s.push('|');
        }
        s
    };
    let mut out = String::new();
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&fmt_row(
        &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&rule);
    out.push('\n');
    out
}

/// Builds a synthetic system model with one controller and one switch
/// (for executor micro-benchmarks).
pub fn tiny_system() -> (SystemModel, AttackModel) {
    let mut m = SystemModel::new();
    let c = m.add_controller("c1").expect("fresh model");
    let s = m.add_switch("s1").expect("fresh model");
    let h1 = m.add_host("h1", None, None).expect("fresh model");
    let h2 = m.add_host("h2", None, None).expect("fresh model");
    m.add_host_link(h1, s, 1).expect("valid link");
    m.add_host_link(h2, s, 2).expect("valid link");
    m.add_connection(c, s).expect("fresh connection");
    let model = AttackModel::uniform(&m, CapabilitySet::no_tls());
    (m, model)
}

/// Builds an attack whose single state holds `n` rules, for the §VI-D
/// runtime-complexity sweeps.
///
/// * `all_match = false`: every rule's conditional tests a distinct
///   length (at most one can be true) — the paper's first case,
///   `O(|Φ| + |α_executed|)`.
/// * `all_match = true`: every conditional is satisfied by every message
///   — the second case, `O(|Φ| · |α_max|)`.
pub fn rule_sweep_attack(n: usize, all_match: bool) -> Attack {
    let rules = (0..n)
        .map(|i| Rule {
            name: format!("phi{i}"),
            connections: vec![ConnectionId(0)],
            required: CapabilitySet::no_tls(),
            condition: if all_match {
                // length >= 0: always true, but still a real property read.
                Expr::Ge(
                    Box::new(Expr::Prop(Property::Length)),
                    Box::new(Expr::Lit(Value::Int(0))),
                )
            } else {
                // Matches only messages of one specific length, which the
                // bench workload never produces (i ≠ message length).
                Expr::eq(
                    Expr::Prop(Property::Length),
                    Expr::Lit(Value::Int(1_000_000 + i as i64)),
                )
            },
            actions: vec![AttackAction::ReadMetadata],
        })
        .collect();
    Attack {
        name: format!("sweep_{n}_{all_match}"),
        states: vec![AttackState {
            name: "s".into(),
            rules,
        }],
        start: 0,
    }
}

/// Builds an executor over [`tiny_system`] running [`rule_sweep_attack`].
///
/// # Panics
///
/// Panics if the synthetic attack fails validation (a bug here, not in
/// caller input).
pub fn rule_sweep_executor(n: usize, all_match: bool) -> AttackExecutor {
    rule_sweep_executor_mode(n, all_match, DispatchMode::default())
}

/// [`rule_sweep_executor`] pinned to an explicit [`DispatchMode`], for
/// scan-vs-dispatch comparison sweeps.
///
/// # Panics
///
/// Panics if the synthetic attack fails validation (a bug here, not in
/// caller input).
pub fn rule_sweep_executor_mode(n: usize, all_match: bool, mode: DispatchMode) -> AttackExecutor {
    let (system, model) = tiny_system();
    AttackExecutor::new(system, model, rule_sweep_attack(n, all_match))
        .expect("synthetic sweep attack validates")
        .with_dispatch_mode(mode)
}

/// The eight message types the mixed-type workload cycles through.
const MIXED_TYPES: [OfType; 8] = [
    OfType::Hello,
    OfType::EchoRequest,
    OfType::EchoReply,
    OfType::FeaturesRequest,
    OfType::GetConfigRequest,
    OfType::BarrierRequest,
    OfType::BarrierReply,
    OfType::FlowMod,
];

/// Builds an attack whose `n` rules anchor on a type-equality guard —
/// rule `i` watches `MIXED_TYPES[i % 8]` — followed by a length test no
/// workload message satisfies. Against [`mixed_messages`], hash
/// dispatch narrows each message to the ~`n/8` rules of its type
/// instead of scanning all `n`; the residual length conjunct keeps
/// every candidate a real (non-firing) evaluation.
pub fn mixed_type_attack(n: usize) -> Attack {
    let rules = (0..n)
        .map(|i| Rule {
            name: format!("phi{i}"),
            connections: vec![ConnectionId(0)],
            required: CapabilitySet::no_tls(),
            condition: Expr::and(
                Expr::eq(
                    Expr::Prop(Property::Type),
                    Expr::Lit(Value::MsgType(MIXED_TYPES[i % MIXED_TYPES.len()])),
                ),
                Expr::eq(
                    Expr::Prop(Property::Length),
                    Expr::Lit(Value::Int(1_000_000 + i as i64)),
                ),
            ),
            actions: vec![AttackAction::ReadMetadata],
        })
        .collect();
    Attack {
        name: format!("mixed_{n}"),
        states: vec![AttackState {
            name: "s".into(),
            rules,
        }],
        start: 0,
    }
}

/// Builds an executor over [`tiny_system`] running [`mixed_type_attack`]
/// in the given dispatch mode.
///
/// # Panics
///
/// Panics if the synthetic attack fails validation (a bug here, not in
/// caller input).
pub fn mixed_type_executor(n: usize, mode: DispatchMode) -> AttackExecutor {
    let (system, model) = tiny_system();
    AttackExecutor::new(system, model, mixed_type_attack(n))
        .expect("synthetic mixed-type attack validates")
        .with_dispatch_mode(mode)
}

/// One encoded frame per [`mixed_type_attack`] message type, so a
/// round-robin over the returned set exercises every dispatch bucket.
pub fn mixed_messages() -> Vec<attain_openflow::Frame> {
    use attain_openflow::{Frame, OfMessage};
    vec![
        Frame::new(OfMessage::Hello.encode(1)),
        Frame::new(OfMessage::EchoRequest(vec![7u8; 32]).encode(2)),
        Frame::new(OfMessage::EchoReply(vec![7u8; 32]).encode(3)),
        Frame::new(OfMessage::FeaturesRequest.encode(4)),
        Frame::new(OfMessage::GetConfigRequest.encode(5)),
        Frame::new(OfMessage::BarrierRequest.encode(6)),
        Frame::new(OfMessage::BarrierReply.encode(7)),
        Frame::new(
            OfMessage::FlowMod(attain_openflow::FlowMod::add(
                attain_openflow::Match::all(),
                vec![],
            ))
            .encode(8),
        ),
    ]
}

/// A representative message workload for executor benches: one encoded
/// `ECHO_REQUEST` (the length no sweep rule matches), as a shared
/// [`Frame`](attain_openflow::Frame) so benches feed the executor the
/// same way the proxies do — a refcount bump per message.
pub fn bench_message() -> attain_openflow::Frame {
    attain_openflow::Frame::new(attain_openflow::OfMessage::EchoRequest(vec![7u8; 32]).encode(1))
}

/// Human-readable OF type histogram line from counts.
pub fn type_histogram(counts: &[(OfType, u64)]) -> String {
    counts
        .iter()
        .map(|(t, n)| format!("{t}×{n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The one per-call wall-clock timer every bench row goes through.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Windows the measurement budget is split into; a timed row's `n`.
    pub const WINDOWS: usize = 5;

    /// Total wall-clock budget for one measured point.
    const BUDGET: Duration = Duration::from_millis(200);

    /// Per-call cost over [`WINDOWS`] windows, in nanoseconds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Sample {
        /// Median window.
        pub median: f64,
        /// Fastest window.
        pub min: f64,
        /// Slowest window.
        pub max: f64,
    }

    /// Measures `f`'s wall-clock cost in nanoseconds per call.
    ///
    /// Calibrates a batch size until one batch takes at least ~1 ms
    /// (which doubles as warm-up), then splits a ~200 ms budget into
    /// [`WINDOWS`] equal windows, each timing whole batches — enough to
    /// keep sub-100 ns routines out of timer-resolution noise while
    /// still showing the run-to-run spread.
    pub fn measure(mut f: impl FnMut()) -> Sample {
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 30 {
                break;
            }
            batch *= 8;
        }
        let window = BUDGET / WINDOWS as u32;
        let mut per_call = [0.0f64; WINDOWS];
        for slot in &mut per_call {
            let start = Instant::now();
            let mut iters: u64 = 0;
            while start.elapsed() < window {
                for _ in 0..batch {
                    f();
                }
                iters += batch;
            }
            *slot = start.elapsed().as_nanos() as f64 / iters as f64;
        }
        per_call.sort_by(f64::total_cmp);
        Sample {
            median: per_call[WINDOWS / 2],
            min: per_call[0],
            max: per_call[WINDOWS - 1],
        }
    }
}

use timing::Sample;

/// One report row: a named value with its unit, spread and sample count.
#[derive(Debug, Clone)]
struct BenchRow {
    name: String,
    unit: &'static str,
    sample: Sample,
    n: usize,
}

/// The one emitter for every checked-in `BENCH_*.json`, written without
/// any serialization dependency (the container builds offline).
///
/// The report owns the run mode. `cargo bench` passes `--bench` to a
/// harness-less bench binary: that is a full run, which measures every
/// point and writes the file. Any other invocation (`cargo test
/// --benches`, `--all-targets`) is a quick run: each timed point runs
/// once as a smoke test and nothing is written.
#[derive(Debug, Clone)]
pub struct BenchReport {
    bench: String,
    full: bool,
    rows: Vec<BenchRow>,
}

impl BenchReport {
    /// An empty report for the benchmark suite `bench`, in the run mode
    /// the process arguments select.
    pub fn new(bench: impl Into<String>) -> BenchReport {
        BenchReport::from_args(bench, std::env::args())
    }

    fn from_args(bench: impl Into<String>, args: impl IntoIterator<Item = String>) -> BenchReport {
        BenchReport {
            bench: bench.into(),
            full: args.into_iter().any(|a| a == "--bench"),
            rows: Vec::new(),
        }
    }

    /// Times `f` and records its cost in ns per call.
    pub fn time(&mut self, name: impl Into<String>, f: impl FnMut()) {
        self.time_per(name, 1, f);
    }

    /// Times `f`, which does `items` units of work per call, and records
    /// its cost in ns per unit. A quick run calls `f` once instead.
    pub fn time_per(&mut self, name: impl Into<String>, items: usize, mut f: impl FnMut()) {
        if !self.full {
            f();
            return;
        }
        let s = timing::measure(f);
        let k = items as f64;
        let sample = Sample {
            median: s.median / k,
            min: s.min / k,
            max: s.max / k,
        };
        self.push(name.into(), "ns", sample, timing::WINDOWS);
    }

    /// Records one counted or derived value in its own `unit`.
    pub fn record(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let sample = Sample {
            median: value,
            min: value,
            max: value,
        };
        self.push(name.into(), unit, sample, 1);
    }

    fn push(&mut self, name: String, unit: &'static str, sample: Sample, n: usize) {
        if n > 1 {
            println!(
                "{name:<48} {:>12.2} {unit}  [{:.2} .. {:.2}]",
                sample.median, sample.min, sample.max
            );
        } else {
            println!("{name:<48} {:>12.2} {unit}", sample.median);
        }
        self.rows.push(BenchRow {
            name,
            unit,
            sample,
            n,
        });
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", esc(&self.bench)));
        out.push_str(&format!("  \"cpus\": {cpus},\n"));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"median\": {:.2}, \"min\": {:.2}, \"max\": {:.2}, \"n\": {}}}{}\n",
                esc(&r.name),
                esc(r.unit),
                r.sample.median,
                r.sample.min,
                r.sample.max,
                r.n,
                comma
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON document to `path` on a full run; a quick run
    /// writes nothing. Returns whether the file was written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<bool> {
        if !self.full {
            return Ok(false);
        }
        std::fs::write(path, self.to_json())?;
        Ok(true)
    }

    /// Saves the report as `BENCH_<bench>.json` at the workspace root.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn finish(&self) {
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.bench
        );
        let wrote = self
            .save(&path)
            .unwrap_or_else(|e| panic!("could not write {path}: {e}"));
        if wrote {
            println!("wrote {path}");
        } else {
            println!("quick run (no --bench): {path} left as it is");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_core::exec::InjectorInput;

    #[test]
    fn table_renders_with_padding() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "10000".into()],
            ],
        );
        assert!(t.contains("| alpha | 1     |"));
        assert!(t.contains("| b     | 10000 |"));
        assert!(t.starts_with('+'));
    }

    #[test]
    fn bench_report_renders_valid_json() {
        let mut r = BenchReport::from_args("flow_table", ["--bench".to_string()]);
        let timed = Sample {
            median: 41.5,
            min: 40.0,
            max: 45.25,
        };
        r.push("lookup_hit_exact/64".into(), "ns", timed, timing::WINDOWS);
        r.record("executor_pass/allocs", "allocs", 4.0);
        r.record("odd \"name\"\\\n", "B", 1.0);
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"flow_table\",\n  \"cpus\": "));
        assert!(json.contains(",\n  \"rows\": [\n"));
        assert!(json.contains(
            "    {\"name\": \"lookup_hit_exact/64\", \"unit\": \"ns\", \
             \"median\": 41.50, \"min\": 40.00, \"max\": 45.25, \"n\": 5},\n"
        ));
        assert!(json.contains(
            "{\"name\": \"executor_pass/allocs\", \"unit\": \"allocs\", \
             \"median\": 4.00, \"min\": 4.00, \"max\": 4.00, \"n\": 1},\n"
        ));
        assert!(json.contains("\"name\": \"odd \\\"name\\\"\\\\\\u000a\", \"unit\": \"B\""));
        // Last element carries no trailing comma.
        assert!(json.ends_with("\"n\": 1}\n  ]\n}\n"));
    }

    #[test]
    fn quick_run_writes_no_file() {
        let path = std::env::temp_dir().join(format!("BENCH_quick_{}.json", std::process::id()));
        let mut calls = 0;
        let mut quick = BenchReport::from_args("quick", ["bench_binary".to_string()]);
        quick.time("point", || calls += 1);
        assert_eq!(calls, 1, "a quick run calls each timed point once");
        quick.record("count", "entries", 64.0);
        assert!(!quick.save(&path).expect("quick save is a no-op"));
        assert!(!path.exists());
        let mut full = BenchReport::from_args("quick", ["--bench".to_string()]);
        full.record("count", "entries", 64.0);
        assert!(full.save(&path).expect("temp dir is writable"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full.to_json());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn measure_returns_ordered_window_stats() {
        // Keep it cheap: measure an empty closure; even that takes >0 ns
        // amortized, and must not panic or divide by zero.
        let s = timing::measure(|| {});
        assert!(s.min >= 0.0 && s.max.is_finite());
        assert!(s.min <= s.median && s.median <= s.max);
    }

    #[test]
    fn mixed_type_workload_agrees_across_dispatch_modes() {
        let mut scan = mixed_type_executor(64, DispatchMode::Scan);
        let mut compiled = mixed_type_executor(64, DispatchMode::Compiled);
        for (i, frame) in mixed_messages().iter().cycle().take(32).enumerate() {
            let input = |frame: &attain_openflow::Frame| InjectorInput {
                conn: ConnectionId(0),
                to_controller: true,
                frame: frame.clone(),
                now_ns: i as u64 * 1_000,
            };
            let a = scan.on_message(input(frame));
            let b = compiled.on_message(input(frame));
            assert_eq!(a, b);
            assert_eq!(a.deliveries.len(), 1); // nothing fires: pass-through
        }
        assert_eq!(scan.log().events(), compiled.log().events());
    }

    #[test]
    fn sweep_attacks_validate_and_run() {
        for all_match in [false, true] {
            let mut exec = rule_sweep_executor(64, all_match);
            let msg = bench_message();
            let out = exec.on_message(InjectorInput {
                conn: ConnectionId(0),
                to_controller: true,
                frame: msg.clone(),
                now_ns: 0,
            });
            assert_eq!(out.deliveries.len(), 1); // default pass either way
            let fired: u64 = (0..64)
                .map(|i| exec.log().rule_fires(&format!("phi{i}")))
                .sum();
            assert_eq!(fired, if all_match { 64 } else { 0 });
        }
    }
}
