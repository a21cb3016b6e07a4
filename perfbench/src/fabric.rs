//! The `fabric` workload: a generated leaf-spine datacenter fabric with
//! proactive prefix routes and a seeded hotspot ping matrix, run in
//! `TraceMode::Counters` with no controller and no interposer.
//!
//! Data plane only: every spine holds one wildcard `/24` route per
//! leaf and the event queue runs deep, so the wildcard classifier tier,
//! the event queue, the links and the ping application do the work. No
//! control-plane message exists, so executor, controller and codec
//! changes must read as no change here.

use crate::measure::{allocs, count_allocs, fnv1a, median, peak_rss_mib, secs_since, timed};
use crate::{Layers, Rep, Traced};
use attain::netsim::engine::{EventKind, EventQueue};
use attain::netsim::topo::{install_leaf_spine_routes, leaf_spine};
use attain::netsim::{
    DetRng, FlowKind, FlowTable, HaltReason, LeafSpineParams, NetworkBuilder, NodeId,
    SchedulerConfig, SimTime, Simulation, TimerToken, TraceMode, TrafficMatrix, TrafficPattern,
};
use attain::openflow::{FlowKey, FlowMod};
use std::time::Instant;

/// Fabric and traffic sizing.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Spine switches.
    pub spines: usize,
    /// Leaf switches (each spine holds one `/24` route per leaf).
    pub leaves: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Ping flows in the traffic matrix.
    pub flows: usize,
    /// Mean gap between flow starts.
    pub mean_gap: SimTime,
    /// Virtual run length.
    pub horizon: SimTime,
}

/// Echo requests per flow.
const PINGS_PER_FLOW: u32 = 5;

/// The measured size: 1,024 switches, 32,000 hosts, 20,000 flows.
const FULL: Size = Size {
    spines: 24,
    leaves: 1_000,
    hosts_per_leaf: 32,
    flows: 20_000,
    mean_gap: SimTime::from_micros(20),
    horizon: SimTime::from_secs(8),
};

/// The benchmark's own test size, also the pinned gate.
const SMOKE: Size = Size {
    spines: 4,
    leaves: 40,
    hosts_per_leaf: 4,
    flows: 400,
    mean_gap: SimTime::from_micros(200),
    horizon: SimTime::from_secs(8),
};

/// The measured size, or the smoke size of the benchmark's own tests.
pub fn size(smoke: bool) -> Size {
    if smoke {
        SMOKE
    } else {
        FULL
    }
}

/// The gate's seed and its pinned outputs at [`SMOKE`] size.
const GATE_SEED: u64 = 1;
const GATE_EVENTS: u64 = 18_529;
const GATE_REPLIES: u64 = 2_000;

/// A built fabric ready to run, with its set-up phase timings.
struct Built {
    sim: Simulation,
    spine_names: Vec<String>,
    leaf_names: Vec<String>,
    build_s: f64,
    routes_s: f64,
    apply_s: f64,
}

fn build(size: Size, seed: u64) -> Built {
    let t = Instant::now();
    let mut b = NetworkBuilder::new();
    let topo = leaf_spine(
        &mut b,
        &LeafSpineParams::new(size.spines, size.leaves, size.hosts_per_leaf),
    )
    .expect("fabric dimensions are valid");
    let mut sim = b.build();
    let build_s = secs_since(t);
    let (_, routes_s) = timed(|| install_leaf_spine_routes(&mut sim, &topo));
    sim.set_trace_mode(TraceMode::Counters);
    let matrix = TrafficMatrix {
        mean_gap: size.mean_gap,
        kind: FlowKind::Ping {
            count: PINGS_PER_FLOW,
            interval: SimTime::from_secs(1),
        },
        ..TrafficMatrix::new(size.flows, seed)
    }
    .with_pattern(TrafficPattern::Hotspot {
        hotspots: 8,
        bias_pct: 30,
    });
    let (_, apply_s) = timed(|| matrix.apply(&mut sim, &topo));
    Built {
        sim,
        spine_names: (0..size.spines).map(|i| format!("lss{i}")).collect(),
        leaf_names: (0..size.leaves).map(|i| format!("lsl{i}")).collect(),
        build_s,
        routes_s,
        apply_s,
    }
}

/// What a finished run produced, for the correctness gates.
struct Outcome {
    events: u64,
    /// Echo requests the matrix schedules: flows × [`PINGS_PER_FLOW`].
    attempted: u64,
    replies: u64,
    /// Scheduled echoes that got no reply, plus one if the run did not
    /// halt at its horizon.
    failed: u64,
    fingerprint: String,
}

fn outcome(size: Size, sim: &Simulation, halt: HaltReason) -> Outcome {
    let pings = sim.ping_stats();
    let transmitted: u64 = pings.iter().map(|p| u64::from(p.transmitted())).sum();
    let replies: u64 = pings.iter().map(|p| u64::from(p.received())).sum();
    let per_flow = u64::from(PINGS_PER_FLOW);
    let attempted = size.flows as u64 * per_flow;
    // Every scheduled echo must come back: a flow missing from the
    // stats lost all of its echoes.
    let unanswered: u64 = pings
        .iter()
        .map(|p| per_flow.saturating_sub(u64::from(p.received())))
        .sum::<u64>()
        + (size.flows as u64).saturating_sub(pings.len() as u64) * per_flow;
    let links = sim.link_stats();
    let fingerprint = format!(
        "halt={halt:?} events={} peak={} tx={} replies={replies} pings={:016x} links={:016x} counters={}",
        sim.events_dispatched(),
        sim.peak_pending_events(),
        transmitted,
        fnv1a(format!("{pings:?}").as_bytes()),
        fnv1a(format!("{links:?}").as_bytes()),
        sim.trace().digest(),
    );
    Outcome {
        events: sim.events_dispatched(),
        attempted,
        replies,
        failed: unanswered + u64::from(halt != HaltReason::Horizon),
        fingerprint,
    }
}

/// The untimed gate: the pinned configuration reproduces its pinned
/// event count with every echo answered.
pub fn gate() -> Result<(), String> {
    let mut b = build(SMOKE, GATE_SEED);
    let halt = b.sim.run_until(SMOKE.horizon);
    let o = outcome(SMOKE, &b.sim, halt);
    if o.failed != 0 || o.events != GATE_EVENTS || o.replies != GATE_REPLIES {
        return Err(format!(
            "fabric gate: {} failed echoes, {} events (pinned {GATE_EVENTS}), {} replies (pinned {GATE_REPLIES})",
            o.failed, o.events, o.replies
        ));
    }
    Ok(())
}

/// Set-ups per repetition: building 32,000 hosts is dominated by
/// fresh-memory page faults, so the median of several is reported.
const SETUPS: usize = 3;

/// One measured repetition: build, route and schedule, run to the
/// horizon, then time the extra set-ups. They come after the run so
/// that the run's memory peak is that of a single fabric.
pub fn rep(size: Size, seed: u64) -> Result<Rep, String> {
    let (mut b, first) = timed(|| build(size, seed));
    let (halt, run_s) = timed(|| b.sim.run_until(size.horizon));
    let peak_rss_mib = peak_rss_mib()?;
    let o = outcome(size, &b.sim, halt);
    drop(b);
    let mut setups = vec![first];
    for _ in 1..SETUPS {
        let (b, s) = timed(|| build(size, seed));
        drop(b);
        setups.push(s);
    }
    Ok(Rep {
        setup_s: median(&setups),
        run_s,
        ops: o.replies,
        attempted: o.attempted,
        failed: o.failed,
        peak_rss_mib,
        fingerprint: o.fingerprint,
    })
}

/// A fresh table holding `table`'s rules, as the switch installed them.
fn copy_table(table: &FlowTable) -> FlowTable {
    let mut fresh = FlowTable::with_policy(table.capacity(), table.policy());
    for e in table.entries() {
        let fm = FlowMod {
            priority: e.priority,
            cookie: e.cookie,
            idle_timeout: e.idle_timeout,
            hard_timeout: e.hard_timeout,
            ..FlowMod::add(e.r#match, e.actions.to_vec())
        };
        fresh
            .apply(&fm, SimTime::ZERO)
            .expect("copied rule fits its table");
    }
    fresh
}

/// Mean host nanoseconds per lookup of `keys` in a copy of `table`
/// (median of several passes).
fn lookup_ns(table: &FlowTable, keys: &[FlowKey]) -> f64 {
    let mut t = copy_table(table);
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let (_, s) = timed(|| {
                for k in keys {
                    std::hint::black_box(t.lookup(std::hint::black_box(k), 98, SimTime::ZERO));
                }
            });
            s * 1e9 / keys.len() as f64
        })
        .collect();
    median(&passes)
}

/// Host nanoseconds per pop-then-push pair on a queue held at `depth`
/// pending events (one pair per dispatched event in the simulator).
fn queue_ns(depth: usize) -> f64 {
    let mut rng = DetRng::new(7);
    let mut q = EventQueue::with_config(SchedulerConfig::default(), depth);
    let timer = |i: u64| EventKind::NodeTimer {
        node: NodeId((i % 1024) as usize),
        token: TimerToken::SwitchTick,
    };
    for i in 0..depth as u64 {
        q.schedule(SimTime::from_micros(rng.next_u64() % 1_000_000), timer(i));
    }
    let ops = 1_000_000u64;
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let (_, s) = timed(|| {
                for i in 0..ops {
                    let (at, _) = q.pop().expect("queue holds `depth` events");
                    let later = at + SimTime::from_micros(1 + rng.next_u64() % 1_000_000);
                    q.schedule(later, timer(i));
                }
            });
            s * 1e9 / ops as f64
        })
        .collect();
    median(&passes)
}

/// The traced run: an untraced run, the same run with allocation
/// counting, then replays of the classifier on the run's own tables and
/// keys and of the event queue at the run's peak depth.
pub fn traced(size: Size, seed: u64) -> Result<Traced, String> {
    let reference = rep(size, seed)?;
    let mut b = build(size, seed);
    count_allocs(true);
    let before = allocs();
    let (halt, run_s) = timed(|| b.sim.run_until(size.horizon));
    let run_allocs = allocs() - before;
    count_allocs(false);
    let o = outcome(size, &b.sim, halt);
    if o.fingerprint != reference.fingerprint {
        return Err("allocation counting changed the fabric run".into());
    }

    let keys: Vec<FlowKey> = b
        .sim
        .ping_stats()
        .iter()
        .map(|p| FlowKey {
            dl_type: 0x0800,
            nw_proto: 1,
            nw_dst: u32::from(p.dst),
            ..FlowKey::default()
        })
        .collect();
    let spine_ns = lookup_ns(b.sim.switch(&b.spine_names[0]).flow_table(), &keys);
    let leaf_ns = lookup_ns(b.sim.switch(&b.leaf_names[0]).flow_table(), &keys);
    let lookups = |names: &[String]| -> u64 {
        names
            .iter()
            .map(|n| b.sim.switch(n).flow_table().lookup_count)
            .sum()
    };
    let spine_lookups = lookups(&b.spine_names);
    let leaf_lookups = lookups(&b.leaf_names);
    let links = b.sim.link_stats();
    let peak = b.sim.peak_pending_events();

    let mut layers = Layers::new();
    layers.insert("topo.build_ms", b.build_s * 1e3);
    layers.insert("topo.routes_ms", b.routes_s * 1e3);
    layers.insert("workload.apply_ms", b.apply_s * 1e3);
    layers.insert("flow_table.lookup_ns.spine", spine_ns);
    layers.insert("flow_table.lookup_ns.leaf", leaf_ns);
    layers.insert("flow_table.lookups", (spine_lookups + leaf_lookups) as f64);
    layers.insert(
        "flow_table.share",
        (spine_lookups as f64 * spine_ns + leaf_lookups as f64 * leaf_ns) / (reference.run_s * 1e9),
    );
    layers.insert("engine.events", o.events as f64);
    layers.insert("engine.peak_pending", peak as f64);
    layers.insert(
        "engine.ns_per_event",
        reference.run_s * 1e9 / o.events as f64,
    );
    layers.insert("engine.queue_ns", queue_ns(peak));
    layers.insert("link.tx", links.iter().map(|l| l.tx).sum::<u64>() as f64);
    layers.insert(
        "link.drops",
        links
            .iter()
            .map(|l| l.queue_drops + l.down_drops + l.lost)
            .sum::<u64>() as f64,
    );
    layers.insert(
        "netsim.allocs_per_event",
        run_allocs as f64 / o.events as f64,
    );
    layers.insert("bench.trace_overhead", run_s / reference.run_s - 1.0);
    Ok(Traced {
        layers,
        attempted: reference.attempted + o.attempted,
        failed: reference.failed + o.failed,
    })
}
