//! The ATTAIN benchmark: three workloads driven through the public API,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run, measured from outside the library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|fabric|storm --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give provenance, sample counts and tail percentiles. See
//! `perfbench/README.md` for the metric definitions.

mod campaign;
mod fabric;
mod measure;
mod storm;

use measure::{describe, median, secs_since, timed};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

/// One measured repetition of a workload: set-up, then the measured
/// phase, then the output checks.
pub struct Rep {
    /// Host seconds before the first simulated event.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Useful operations completed (cells judged, echo replies, control
    /// messages), the numerator of `ops_per_s`.
    pub ops: u64,
    /// Checked operations (cells, echo requests, iperf trials).
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Peak resident memory of the process in MiB, read right after the
    /// measured phase.
    pub peak_rss_mib: f64,
    /// Everything the run produced that must repeat exactly.
    pub fingerprint: String,
}

/// Per-layer metrics a traced run measured, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A traced run's per-layer metrics and its checked operations.
pub struct Traced {
    /// The measured per-layer metrics.
    pub layers: Layers,
    /// Checked operations (both the untraced and the traced half).
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
}

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "ops/s"),
];

/// Per-layer metrics, reported by every traced run; a workload that
/// does not exercise or measure a layer reports it as 0 and names it on
/// the `not measured` line.
const PER_LAYER: [(&str, &str); 38] = [
    ("campaign.cell_ms.p50", "ms"),
    ("campaign.cell_ms.p99", "ms"),
    ("campaign.baseline_ms.p50", "ms"),
    ("campaign.baseline_ms.p99", "ms"),
    ("campaign.parallel_efficiency", "ratio"),
    ("dsl.compile_us", "us"),
    ("harness.build_us", "us"),
    ("topo.build_ms", "ms"),
    ("topo.routes_ms", "ms"),
    ("workload.apply_ms", "ms"),
    ("trace.events", "count"),
    ("trace.digest_us", "us"),
    ("interposer.calls", "count"),
    ("interposer.ns.p50", "ns"),
    ("interposer.ns.p99", "ns"),
    ("interposer.allocs_per_call", "allocs/call"),
    ("interposer.share", "ratio"),
    ("controller.calls", "count"),
    ("controller.ns.p50", "ns"),
    ("controller.ns.p99", "ns"),
    ("controller.share", "ratio"),
    ("openflow.decode_ns", "ns"),
    ("openflow.encode_ns", "ns"),
    ("openflow.share", "ratio"),
    ("flow_table.lookup_ns.spine", "ns"),
    ("flow_table.lookup_ns.leaf", "ns"),
    ("flow_table.lookups", "count"),
    ("flow_table.share", "ratio"),
    ("engine.events", "count"),
    ("engine.peak_pending", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.queue_ns", "ns"),
    ("link.tx", "count"),
    ("link.drops", "count"),
    ("netsim.allocs_per_event", "allocs/event"),
    ("netsim.allocs_per_ctrl_msg", "allocs/msg"),
    ("netsim.residual_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Fewest measured repetitions per untraced run, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Campaign,
    Fabric,
    Storm,
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: perfbench --workload campaign|fabric|storm --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} takes a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "campaign" => Workload::Campaign,
                    "fabric" => Workload::Fabric,
                    "storm" => Workload::Storm,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
    })
}

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit checked out, read from `.git` without running git; the
/// benchmark also runs from plain source trees, which have none.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// FNV-1a over every library source file (path and bytes, in sorted
/// path order): identifies the code measured when no git rev exists.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x} over {} files", measure::fnv1a(&bytes), files.len())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn size_label(args: &Args) -> String {
    match args.workload {
        Workload::Campaign => format!("{:?}", campaign::size(args.smoke)),
        Workload::Fabric => format!("{:?}", fabric::size(args.smoke)),
        Workload::Storm => format!("{:?}", storm::size(args.smoke)),
    }
}

fn provenance(args: &Args) -> String {
    format!(
        "{{\"provenance\": {{\"git_rev\": {}, \"source\": {}, \"nproc\": {}, \"cpu\": {}, \
         \"rustc\": {}, \"workload\": {}, \"seed\": {}, \"size\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&git_rev()),
        json_str(&source_digest()),
        jobs(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&format!("{:?}", args.workload).to_lowercase()),
        args.seed,
        json_str(&size_label(args)),
        args.seconds,
        args.trace,
    )
}

/// The untimed gate of pinned outputs.
fn gate(args: &Args) -> Result<(), String> {
    match args.workload {
        Workload::Campaign => campaign::gate(jobs()),
        Workload::Fabric => fabric::gate(),
        Workload::Storm => storm::gate(),
    }
}

fn one_rep(args: &Args) -> Result<Rep, String> {
    match args.workload {
        Workload::Campaign => campaign::rep(campaign::size(args.smoke), args.seed, jobs()),
        Workload::Fabric => fabric::rep(fabric::size(args.smoke), args.seed),
        Workload::Storm => storm::rep(storm::size(args.smoke), false),
    }
}

fn one_traced(args: &Args) -> Result<Traced, String> {
    match args.workload {
        Workload::Campaign => campaign::traced(campaign::size(args.smoke), args.seed, jobs()),
        Workload::Fabric => fabric::traced(fabric::size(args.smoke), args.seed),
        Workload::Storm => storm::traced(storm::size(args.smoke)),
    }
}

/// A run's result: correctness, checked operations and metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Untraced: repeat set-up, run and check until `--seconds` have
/// passed (at least [`MIN_REPS`] times) and report medians.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || secs_since(start) < args.seconds {
        let r = one_rep(args)?;
        if reps
            .first()
            .is_some_and(|first| r.fingerprint != first.fingerprint)
        {
            return Err("a repetition's outputs differ from the first's".into());
        }
        reps.push(r);
    }
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let rate: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.run_s).collect();
    println!("{}", describe("setup_s", "s", &setup));
    println!("{}", describe("run_s", "s", &run));
    let samples: Vec<String> = run.iter().map(|s| format!("{s:.4}")).collect();
    println!("run_s samples in run order: {}", samples.join(" "));
    println!("{}", describe("ops_per_s", "ops/s", &rate));
    println!(
        "ops per repetition: {} ({})",
        reps[0].ops,
        match args.workload {
            Workload::Campaign => "judged cells",
            Workload::Fabric => "echo replies",
            Workload::Storm => "control messages at the proxy",
        }
    );
    // Later repetitions only add allocator fragmentation, so the
    // workload's peak is the first repetition's.
    let values = [
        median(&setup),
        median(&run),
        reps[0].peak_rss_mib,
        median(&rate),
    ];
    Ok(Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    })
}

/// Traced: the workload's traced run, repeated until `--seconds` have
/// passed; each per-layer metric is the median over the traced runs, and
/// layers the workload does not measure read 0.
fn traced(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut runs = vec![one_traced(args)?];
    while secs_since(start) < args.seconds {
        runs.push(one_traced(args)?);
    }
    let measured: Vec<&str> = runs[0].layers.keys().copied().collect();
    if let Some(unknown) = measured
        .iter()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("undeclared per-layer metric {unknown}"));
    }
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !measured.contains(n))
        .collect();
    println!(
        "per-layer medians over {} traced runs; not measured on this workload (reported as 0): {}",
        runs.len(),
        missing.join(" ")
    );
    let layer = |name: &str| -> f64 {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.layers.get(name).copied())
            .collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    Ok(Outcome {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layer(name), unit))
            .collect(),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (gated, gate_s) = timed(|| gate(args));
    gated?;
    println!("gate of pinned outputs passed in {gate_s:.3} s");
    let outcome = if args.trace {
        traced(args)?
    } else {
        untraced(args)?
    };
    if let Some((name, ..)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} of {} checked operations failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> Outcome {
        let args = Args {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
            smoke: true,
        };
        run(&args).unwrap_or_else(|e| panic!("{workload:?}: {e}"))
    }

    fn value(o: &Outcome, name: &str) -> f64 {
        o.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    }

    /// Every workload passes its gates at the smoke size, reports every
    /// metric, and its traced run reproduces the untraced outputs. One
    /// test, because allocation counting is process-wide.
    #[test]
    fn every_workload_passes_its_gates_at_smoke_size() {
        for w in [Workload::Campaign, Workload::Fabric, Workload::Storm] {
            let e2e = smoke(w, false);
            assert_eq!(e2e.failed, 0, "{w:?}");
            assert!(e2e.attempted > 0, "{w:?}");
            let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, END_TO_END.map(|m| m.0));
            assert!(e2e.metrics.iter().all(|m| m.1 > 0.0), "{w:?}");

            let traced = smoke(w, true);
            assert_eq!(traced.failed, 0, "{w:?}");
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.0));
        }
        let storm = smoke(Workload::Storm, true);
        let shares: f64 = [
            "interposer.share",
            "controller.share",
            "openflow.share",
            "netsim.residual_share",
        ]
        .iter()
        .map(|n| value(&storm, n))
        .sum();
        assert!((shares - 1.0).abs() < 1e-9, "storm shares sum to {shares}");
        assert!(value(&storm, "interposer.calls") > 0.0);
        assert!(value(&storm, "controller.calls") > 0.0);
    }

    #[test]
    fn benchmark_json_declares_the_reported_metrics_with_their_units() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let at = spec
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
            let rest = &spec[at..];
            let unit_at = rest.find("\"unit\": \"").expect("every metric has a unit") + 9;
            assert!(rest[unit_at..].starts_with(&format!("{unit}\"")), "{name}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| {
            let v: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&v)
        };
        let a = parse("--workload fabric --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Fabric);
        assert_eq!(a.seed, 7);
        assert!(a.trace && !a.smoke);
        assert!(parse("--workload fabric --seed 7 --seconds 20").is_err());
        assert!(parse("--workload mesh --seed 7 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload storm --seed -1 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload storm --seed 1 --seconds 20 --trace 2").is_err());
    }
}
