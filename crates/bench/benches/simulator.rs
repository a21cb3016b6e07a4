//! Simulator substrate throughput: virtual-seconds of case-study
//! workload simulated per wall-second — bounds how large an experiment
//! campaign the framework sustains.

use attain_controllers::ControllerKind;
use attain_injector::harness::build_case_study;
use attain_netsim::{FailMode, HostCommand, SimTime, TraceMode};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("case_study_ping_20s", |b| {
        b.iter(|| {
            let mut sim = build_case_study(ControllerKind::Floodlight, FailMode::Secure);
            let h1 = sim.node_id("h1").expect("case study has h1");
            sim.set_trace_mode(TraceMode::Counters);
            sim.schedule_command(
                SimTime::from_secs(5),
                HostCommand::Ping {
                    host: h1,
                    dst: "10.0.0.6".parse().expect("valid address"),
                    count: 10,
                    interval: SimTime::from_secs(1),
                    label: "bench".into(),
                },
            );
            sim.run_until(SimTime::from_secs(20));
            sim.ping_stats()[0].received()
        });
    });
    group.bench_function("case_study_iperf_5s", |b| {
        b.iter(|| {
            let mut sim = build_case_study(ControllerKind::Floodlight, FailMode::Secure);
            let h1 = sim.node_id("h1").expect("case study has h1");
            let h6 = sim.node_id("h6").expect("case study has h6");
            sim.set_trace_mode(TraceMode::Counters);
            sim.schedule_command(
                SimTime::from_secs(5),
                HostCommand::IperfServer {
                    host: h6,
                    port: 5001,
                },
            );
            sim.schedule_command(
                SimTime::from_secs(6),
                HostCommand::IperfClient {
                    host: h1,
                    dst: "10.0.0.6".parse().expect("valid address"),
                    port: 5001,
                    duration: SimTime::from_secs(5),
                    label: "bench".into(),
                },
            );
            sim.run_until(SimTime::from_secs(15));
            sim.iperf_stats()[0].bytes
        });
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
