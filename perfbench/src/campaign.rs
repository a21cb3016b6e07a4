//! The `campaign` workload: the full conformance matrix (11 attacks × 5
//! controller applications × 2 fail modes) over a seed range, run by
//! `attain::campaign::run_with` on `jobs` worker threads and judged by
//! the oracles.
//!
//! Thousands of ~1 ms simulations of the 11-node enterprise network:
//! fixed per-run costs dominate (network build, attack compile,
//! handshake, the Full-mode trace and its digest, the oracle) together
//! with the runner's parallel efficiency.

use crate::measure::{median, peak_rss_mib, percentile_sorted, secs_since, timed};
use crate::{Layers, Rep, Traced};
use attain::campaign::cell::{run_baseline_limited, run_cell_limited};
use attain::campaign::matrix::fail_slug;
use attain::campaign::runner::DEFAULT_LIVELOCK_BOUND;
use attain::campaign::{
    diff_golden, oracle, AttackDef, CampaignReport, CellLimits, CellStatus, Matrix, RunnerConfig,
    Scope,
};
use attain::controllers::ControllerKind;
use attain::core::dsl;
use attain::core::exec::AttackExecutor;
use attain::core::scenario;
use attain::injector::harness::{build_case_study, build_simulation, try_attach_attack};
use attain::injector::SimInjector;
use attain::netsim::{CancelToken, DetRng, FailMode, HaltReason, HostCommand, SimTime, Simulation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The checked-in digests of the seeds-1–3 matrix (read, never written).
const GOLDEN: &str = include_str!("../../tests/golden/campaign/full.txt");

/// Campaign sizing: seeds swept per measured repetition.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Consecutive seeds per repetition (each seed is 110 cells).
    pub seeds: u64,
}

/// The measured size: 2,200 judged cells (plus 400 baselines) per
/// repetition.
const FULL: Size = Size { seeds: 20 };
/// The benchmark's own test size.
const SMOKE: Size = Size { seeds: 1 };

/// The measured size, or the smoke size of the benchmark's own tests.
pub fn size(smoke: bool) -> Size {
    if smoke {
        SMOKE
    } else {
        FULL
    }
}

/// The matrix a repetition runs: the full matrix over `size.seeds`
/// consecutive seeds starting at `seed × size.seeds + 1`.
fn matrix(size: Size, seed: u64) -> Matrix {
    let base = seed.wrapping_mul(size.seeds).wrapping_add(1);
    Matrix {
        seeds: (0..size.seeds).map(|i| base.wrapping_add(i)).collect(),
        ..Matrix::full()
    }
}

/// One simulation the runner executes: an attacked cell or the
/// baseline it is diffed against.
struct Unit {
    attack: AttackDef,
    kind: ControllerKind,
    mode: FailMode,
    seed: u64,
    attacked: bool,
}

/// The runner's unit list in its order (one baseline per distinct
/// topology, controller, fail mode and seed, then every cell in matrix
/// order), with each cell's baseline index.
fn units(m: &Matrix) -> (Vec<Unit>, Vec<usize>) {
    let topology = |a: &AttackDef| match a.scope {
        Scope::Enterprise => "enterprise",
        Scope::SelfContained => a.name,
    };
    let cells = m.cells();
    let mut units = Vec::new();
    let mut slot: BTreeMap<(&str, &str, &str, u64), usize> = BTreeMap::new();
    let mut baseline_of = Vec::with_capacity(cells.len());
    for c in &cells {
        let attack = m.attacks[c.attack];
        let key = (
            topology(&attack),
            c.controller.slug(),
            fail_slug(c.fail_mode),
            c.seed,
        );
        let i = *slot.entry(key).or_insert_with(|| {
            units.push(Unit {
                attack,
                kind: c.controller,
                mode: c.fail_mode,
                seed: c.seed,
                attacked: false,
            });
            units.len() - 1
        });
        baseline_of.push(i);
    }
    for c in &cells {
        units.push(Unit {
            attack: m.attacks[c.attack],
            kind: c.controller,
            mode: c.fail_mode,
            seed: c.seed,
            attacked: true,
        });
    }
    (units, baseline_of)
}

fn ping(sim: &mut Simulation, at: SimTime, host: &str, dst: &str, count: u32, label: &str) {
    let host = sim.node_id(host).expect("workload host exists");
    sim.schedule_command(
        at,
        HostCommand::Ping {
            host,
            dst: dst.parse().expect("workload address parses"),
            count,
            interval: SimTime::from_secs(1),
            label: label.into(),
        },
    );
}

/// A unit's simulation, set up exactly as a campaign cell sets it up
/// (network, table bound, attack, fault seed, seed-jittered ping
/// workload), with its horizon. Checked against the runner's own
/// digests in the traced run.
fn unit_sim(u: &Unit) -> Result<(Simulation, SimTime), String> {
    let at = |base: u64| {
        let jitter_ms = DetRng::new(u.seed).next_u64() % 400;
        SimTime::from_secs_f64(base as f64 + jitter_ms as f64 / 1000.0)
    };
    let name = u.attack.name;
    match u.attack.scope {
        Scope::Enterprise => {
            let mut sim = build_case_study(u.kind, u.mode);
            if let Some(t) = u.attack.table {
                sim.set_table_config(t.switch, t.capacity, t.policy);
            }
            if u.attacked {
                try_attach_attack(&mut sim, u.attack.source).map_err(|e| format!("{name}: {e}"))?;
            }
            sim.set_fault_seed(u.seed);
            ping(&mut sim, at(10), "h1", "10.0.0.6", 8, "w1");
            ping(&mut sim, at(20), "h2", "10.0.0.3", 10, "trigger");
            ping(&mut sim, at(42), "h1", "10.0.0.6", 6, "w2");
            ping(&mut sim, at(44), "h2", "10.0.0.3", 6, "probe");
            Ok((sim, SimTime::from_secs(65)))
        }
        Scope::SelfContained => {
            let doc = dsl::compile_document(u.attack.source).map_err(|e| format!("{name}: {e}"))?;
            let mut sim = build_simulation(&doc.system, u.mode, |_| u.kind.instantiate());
            if u.attacked {
                let compiled = doc.attacks.first().ok_or(format!("{name}: no attack"))?;
                let exec = AttackExecutor::new(
                    doc.system.clone(),
                    doc.attack_model.clone(),
                    compiled.attack.clone(),
                )
                .map_err(|e| format!("{name}: {e}"))?;
                let (injector, _) = SimInjector::new(exec, &doc.system, &sim);
                sim.set_interposer(Box::new(injector));
            }
            sim.set_fault_seed(u.seed);
            let hosts: Vec<_> = doc.system.hosts().map(|(_, h)| h.clone()).collect();
            let dst = hosts[1].ip.ok_or(format!("{name}: host without IP"))?;
            let (src, dst) = (hosts[0].name.clone(), dst.to_string());
            ping(&mut sim, at(10), &src, &dst, 8, "w1");
            ping(&mut sim, at(25), &src, &dst, 6, "w2");
            Ok((sim, SimTime::from_secs(40)))
        }
    }
}

/// The untimed gate: seeds 1–3 of the full matrix must pass every
/// oracle and reproduce the checked-in golden digests byte for byte.
pub fn gate(jobs: usize) -> Result<(), String> {
    let report = attain::campaign::run(&Matrix::full(), jobs);
    judge_report(&report)?;
    match diff_golden(GOLDEN, &report.golden_digests()) {
        None => Ok(()),
        Some(diff) => Err(diff),
    }
}

/// `Err` when any cell failed its expectation or went unjudged.
fn judge_report(report: &CampaignReport) -> Result<(), String> {
    let failures = report.failures();
    match failures.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} of {} campaign cells failed (first: {}, observed {:?}, expected {:?})",
            failures.len(),
            report.cells.len(),
            first.name,
            first.observed,
            first.expected
        )),
    }
}

/// One measured repetition. Set-up time is the host time to set up
/// every unit of the matrix once on one thread (network build, attack
/// compile and attach, workload schedule), replayed outside the
/// runner, which does the same work inside its cells.
pub fn rep(size: Size, seed: u64, jobs: usize) -> Result<Rep, String> {
    let m = matrix(size, seed);
    let (units, _) = units(&m);
    let t = Instant::now();
    for u in &units {
        std::hint::black_box(unit_sim(u)?);
    }
    let setup_s = secs_since(t);
    let (report, run_s) = timed(|| attain::campaign::run_with(&m, &RunnerConfig::new(jobs)));
    let peak_rss_mib = peak_rss_mib()?;
    let failed = report.failures().len() as u64;
    let attempted = report.cells.len() as u64;
    Ok(Rep {
        setup_s,
        run_s,
        ops: attempted - report.unjudged() as u64,
        attempted,
        failed,
        peak_rss_mib,
        fingerprint: report.golden_digests(),
    })
}

/// Runs every unit on `jobs` threads, timing each call into the
/// campaign's cell layer. Returns each unit's status and host seconds.
fn timed_pool(units: &[Unit], jobs: usize) -> Vec<(CellStatus, f64)> {
    let slots: Vec<OnceLock<(CellStatus, f64)>> = units.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(u) = units.get(i) else { break };
                // The runner's limits: the stock livelock bound and a
                // cancellation token that never fires.
                let limits = CellLimits {
                    livelock_bound: Some(DEFAULT_LIVELOCK_BOUND),
                    cancel: Some(CancelToken::new()),
                    ..CellLimits::default()
                };
                let (result, secs) = timed(|| {
                    if u.attacked {
                        run_cell_limited(&u.attack, u.kind, u.mode, u.seed, &limits)
                    } else {
                        run_baseline_limited(&u.attack, u.kind, u.mode, u.seed, &limits)
                    }
                });
                let status = match result {
                    Ok(outcome) => CellStatus::Completed(outcome),
                    Err(e) => CellStatus::Failed { msg: e.to_string() },
                };
                let _ = slots[i].set((status, secs));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every unit ran"))
        .collect()
}

/// Compiles every matrix attack once, as its cells do.
fn compile_all(attacks: &[AttackDef], sc: &scenario::Scenario) -> Result<(), String> {
    for a in attacks {
        let ok = match a.scope {
            Scope::Enterprise => dsl::compile(a.source, &sc.system, &sc.attack_model).is_ok(),
            Scope::SelfContained => dsl::compile_document(a.source).is_ok(),
        };
        if !ok {
            return Err(format!("{} does not compile", a.name));
        }
    }
    Ok(())
}

/// The traced run: an untraced repetition, then the same matrix through
/// timed calls to the cell layer, the set-up replica (trace events and
/// digest cost), and replays of the compiler and the network builder.
///
/// `bench.trace_overhead` is not measured here: the timed calls run on
/// the benchmark's own pool, without the runner's supervision and
/// report, so their wall time is not a traced run of the runner.
pub fn traced(size: Size, seed: u64, jobs: usize) -> Result<Traced, String> {
    let reference = rep(size, seed, jobs)?;
    let m = matrix(size, seed);
    let (units, baseline_of) = units(&m);
    let (results, wall) = timed(|| timed_pool(&units, jobs));
    println!(
        "campaign: untraced run_s {:.6} s, timed cell calls {wall:.6} s",
        reference.run_s
    );

    // Identical digests and verdicts mean identical oracle outcomes,
    // which the untraced repetition already judged.
    let first_cell = units.len() - baseline_of.len();
    let mut golden = String::new();
    for (i, cell) in m.cells().iter().enumerate() {
        let status = &results[first_cell + i].0;
        if let (Some(o), Some(observed)) = (
            status.outcome(),
            oracle::judge(status, &results[baseline_of[i]].0),
        ) {
            golden.push_str(&format!(
                "{} {} {}\n",
                m.cell_name(cell),
                o.digest,
                observed.slug()
            ));
        }
    }
    if golden != reference.fingerprint {
        return Err("timed cell calls disagree with the runner's report".into());
    }

    let mut cell_ms: Vec<f64> = Vec::new();
    let mut baseline_ms: Vec<f64> = Vec::new();
    for (u, (_, secs)) in units.iter().zip(&results) {
        let v = if u.attacked {
            &mut cell_ms
        } else {
            &mut baseline_ms
        };
        v.push(secs * 1e3);
    }
    cell_ms.sort_by(f64::total_cmp);
    baseline_ms.sort_by(f64::total_cmp);
    let busy_s: f64 = results.iter().map(|(_, s)| s).sum();

    // The set-up replica, run to its horizon: its digests must equal
    // the runner's, which makes its event counts and digest timings
    // those of the measured cells.
    let mut events = 0u64;
    let mut digest_s = 0.0;
    let reference_digest: BTreeMap<&str, &str> = reference
        .fingerprint
        .lines()
        .filter_map(|l| {
            let mut it = l.split(' ');
            Some((it.next()?, it.next()?))
        })
        .collect();
    let cells = m.cells();
    for (i, u) in units.iter().enumerate() {
        let (mut sim, horizon) = unit_sim(u)?;
        if sim.run_until(horizon) != HaltReason::Horizon {
            return Err(format!(
                "{} replica did not reach its horizon",
                u.attack.name
            ));
        }
        events += sim.trace().events().len() as u64;
        let (digest, secs) = timed(|| sim.trace().digest());
        digest_s += secs;
        if u.attacked {
            let name = m.cell_name(&cells[i - first_cell]);
            if reference_digest.get(name.as_str()) != Some(&digest.to_string().as_str()) {
                return Err(format!("{name}: set-up replica diverges from the runner"));
            }
        }
    }

    let sc = scenario::enterprise_network();
    let mut compile_s = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        compile_all(&m.attacks, &sc)?;
        compile_s.push(secs_since(t));
    }
    let mut build_s = Vec::new();
    for i in 0..100 {
        let kind = ControllerKind::CAMPAIGN[i % ControllerKind::CAMPAIGN.len()];
        let (sim, s) = timed(|| build_case_study(kind, FailMode::Safe));
        drop(std::hint::black_box(sim));
        build_s.push(s);
    }

    let mut layers = Layers::new();
    layers.insert("campaign.cell_ms.p50", percentile_sorted(&cell_ms, 50.0));
    layers.insert("campaign.cell_ms.p99", percentile_sorted(&cell_ms, 99.0));
    layers.insert(
        "campaign.baseline_ms.p50",
        percentile_sorted(&baseline_ms, 50.0),
    );
    layers.insert(
        "campaign.baseline_ms.p99",
        percentile_sorted(&baseline_ms, 99.0),
    );
    // Σ cell time over the runner's own wall time: the timed calls
    // stand in for the runner's cells, whose outputs they reproduce.
    layers.insert(
        "campaign.parallel_efficiency",
        busy_s / (jobs.max(1) as f64 * reference.run_s),
    );
    layers.insert("dsl.compile_us", median(&compile_s) * 1e6);
    layers.insert("harness.build_us", median(&build_s) * 1e6);
    layers.insert("trace.events", events as f64);
    layers.insert("trace.digest_us", digest_s * 1e6);
    Ok(Traced {
        layers,
        attempted: reference.attempted + cells.len() as u64,
        failed: reference.failed,
    })
}
