//! Scalability sweep: how far the event engine carries the simulator
//! past the paper's eleven-node testbed.
//!
//! Usage:
//!   cargo run --release --bin scalability [options]
//!
//!   --smoke            the capped CI sweep (fat-tree k=4 only)
//!   --max-events N     deterministic event budget per row (default:
//!                      50,000,000; smoke default 2,000,000)
//!   --json PATH        also write the report as JSON
//!
//! Each row builds a generated fabric (fat-tree or leaf-spine), installs
//! proactive two-level prefix routes, schedules a seeded traffic matrix,
//! and runs to the horizon in [`TraceMode::Counters`], reporting virtual
//! events dispatched, wall-clock, event rate, and the engine's peak
//! pending-event depth. The largest row reaches 1,024 switches and
//! 100,000 concurrent flows.

use attain_netsim::topo::{
    fat_tree, install_fat_tree_routes, install_leaf_spine_routes, leaf_spine, FatTreeParams,
    LeafSpineParams, Topology,
};
use attain_netsim::workload::{FlowKind, TrafficMatrix, TrafficPattern};
use attain_netsim::{NetworkBuilder, RunBudget, SimTime, Simulation, TraceMode};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One sweep row: a fabric plus a traffic matrix sized for it.
struct Row {
    name: &'static str,
    fabric: Fabric,
    flows: usize,
    /// Mean inter-arrival gap; small gaps pile flows up concurrently.
    mean_gap: SimTime,
    horizon: SimTime,
}

enum Fabric {
    FatTree {
        k: usize,
    },
    LeafSpine {
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
    },
}

struct Outcome {
    name: &'static str,
    switches: usize,
    hosts: usize,
    flows: usize,
    routes: usize,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    peak_pending: usize,
    pings_sent: u64,
    pings_received: u64,
    halt: String,
}

fn sweep_rows(smoke: bool) -> Vec<Row> {
    // Ping trains are long (5 echoes at 1 s) relative to the arrival
    // window (flows × mean_gap), so at the larger rows effectively the
    // whole matrix is in flight at once — "concurrent flows" is meant
    // literally, and peak_pending shows it.
    let rows = vec![
        Row {
            name: "fat-tree k=4",
            fabric: Fabric::FatTree { k: 4 },
            flows: 64,
            mean_gap: SimTime::from_millis(1),
            horizon: SimTime::from_secs(10),
        },
        Row {
            name: "fat-tree k=8",
            fabric: Fabric::FatTree { k: 8 },
            flows: 1_000,
            mean_gap: SimTime::from_micros(500),
            horizon: SimTime::from_secs(10),
        },
        Row {
            name: "fat-tree k=16",
            fabric: Fabric::FatTree { k: 16 },
            flows: 10_000,
            mean_gap: SimTime::from_micros(100),
            horizon: SimTime::from_secs(12),
        },
        Row {
            name: "fat-tree k=32",
            fabric: Fabric::FatTree { k: 32 },
            flows: 50_000,
            mean_gap: SimTime::from_micros(40),
            horizon: SimTime::from_secs(12),
        },
        Row {
            name: "leaf-spine 24x1000",
            fabric: Fabric::LeafSpine {
                spines: 24,
                leaves: 1_000,
                hosts_per_leaf: 32,
            },
            flows: 100_000,
            mean_gap: SimTime::from_micros(20),
            horizon: SimTime::from_secs(12),
        },
    ];
    if smoke {
        rows.into_iter().take(1).collect()
    } else {
        rows
    }
}

fn build(row: &Row) -> (Simulation, Topology, usize) {
    let mut b = NetworkBuilder::new();
    match row.fabric {
        Fabric::FatTree { k } => {
            let t = fat_tree(&mut b, &FatTreeParams::new(k)).expect("fat-tree params");
            let mut sim = b.build();
            let routes = install_fat_tree_routes(&mut sim, &t);
            (sim, t, routes)
        }
        Fabric::LeafSpine {
            spines,
            leaves,
            hosts_per_leaf,
        } => {
            let t = leaf_spine(
                &mut b,
                &LeafSpineParams::new(spines, leaves, hosts_per_leaf),
            )
            .expect("leaf-spine params");
            let mut sim = b.build();
            let routes = install_leaf_spine_routes(&mut sim, &t);
            (sim, t, routes)
        }
    }
}

fn run_row(row: &Row, max_events: u64) -> Outcome {
    let (mut sim, topo, routes) = build(row);
    sim.set_trace_mode(TraceMode::Counters);
    sim.set_run_budget(RunBudget::unlimited().with_max_events(max_events));
    let matrix = TrafficMatrix {
        mean_gap: row.mean_gap,
        kind: FlowKind::Ping {
            count: 5,
            interval: SimTime::from_secs(1),
        },
        ..TrafficMatrix::new(row.flows, 42)
    }
    .with_pattern(TrafficPattern::Hotspot {
        hotspots: 8,
        bias_pct: 30,
    });
    matrix.apply(&mut sim, &topo);

    let start = Instant::now();
    let halt = sim.run_until(row.horizon);
    let wall = start.elapsed();

    let pings = sim.ping_stats();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events = sim.events_dispatched();
    Outcome {
        name: row.name,
        switches: topo.switch_count(),
        hosts: topo.host_count(),
        flows: row.flows,
        routes,
        events,
        wall_ms,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        peak_pending: sim.peak_pending_events(),
        pings_sent: pings.iter().map(|p| u64::from(p.transmitted())).sum(),
        pings_received: pings.iter().map(|p| u64::from(p.received())).sum(),
        halt: format!("{halt:?}"),
    }
}

fn render_json(outcomes: &[Outcome]) -> String {
    let mut s = String::from("{\n  \"bench\": \"scalability\",\n  \"rows\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 == outcomes.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"switches\": {}, \"hosts\": {}, \
             \"flows\": {}, \"routes\": {}, \"events\": {}, \"wall_ms\": {:.1}, \
             \"events_per_sec\": {:.0}, \"peak_pending\": {}, \"pings_sent\": {}, \
             \"pings_received\": {}, \"halt\": \"{}\"}}{}",
            o.name,
            o.switches,
            o.hosts,
            o.flows,
            o.routes,
            o.events,
            o.wall_ms,
            o.events_per_sec,
            o.peak_pending,
            o.pings_sent,
            o.pings_received,
            o.halt,
            comma
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{key} takes a value"))
            .clone()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_events: u64 = arg_value(&args, "--max-events")
        .map(|s| s.parse().expect("--max-events takes an integer"))
        .unwrap_or(if smoke { 2_000_000 } else { 50_000_000 });
    let json_path = arg_value(&args, "--json");

    let mut outcomes = Vec::new();
    println!(
        "{:<20} {:>8} {:>7} {:>7} {:>10} {:>9} {:>11} {:>9}",
        "fabric", "switches", "hosts", "flows", "events", "wall ms", "events/s", "peak q"
    );
    for row in sweep_rows(smoke) {
        let o = run_row(&row, max_events);
        println!(
            "{:<20} {:>8} {:>7} {:>7} {:>10} {:>9.1} {:>11.0} {:>9}",
            o.name,
            o.switches,
            o.hosts,
            o.flows,
            o.events,
            o.wall_ms,
            o.events_per_sec,
            o.peak_pending
        );
        if o.pings_received == 0 {
            eprintln!("error: {} delivered no pings", o.name);
            return ExitCode::FAILURE;
        }
        outcomes.push(o);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, render_json(&outcomes)).expect("write json report");
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
