//! The `storm` workload: §VII-B flow-modification suppression (the
//! paper's Figure 11). `flow_mod_suppression.atk` is interposed on the
//! case-study network while `h1` runs iperf trials to `h6`, against
//! Floodlight and Ryu. (POX deadlocks within milliseconds of the first
//! trial and would add nothing.)
//!
//! Every data packet misses the switches' empty tables and becomes
//! PACKET_IN → interposer → controller → suppressed FLOW_MOD, so the
//! codec, the executor with its rule dispatch and the controller apps
//! do the work; the classifier holds nothing.

use crate::measure::{allocs, count_allocs, fnv1a, median, peak_rss_mib, percentile_sorted, timed};
use crate::{Layers, Rep, Traced};
use attain::controllers::{Controller, ControllerKind, Outbox};
use attain::core::exec::AttackExecutor;
use attain::core::{dsl, scenario};
use attain::injector::harness::{
    build_case_study, build_simulation, case_study_controller, try_attach_attack,
};
use attain::injector::{SharedExecutor, SimInjector};
use attain::netsim::{
    Direction, FailMode, HaltReason, HostCommand, Interposer, InterposerActions, ProxiedMessage,
    SimTime, Simulation,
};
use attain::openflow::{
    frame_decode_count, DatapathId, OfMessage, OfType, PacketIn, SwitchFeatures,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Iperf trial sizing.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Trials per controller.
    pub trials: u64,
    /// Seconds per trial.
    pub secs: u64,
}

/// The measured size: five 10 s trials per controller, about 0.7M
/// control messages, so that a run holds many repetitions.
const FULL: Size = Size {
    trials: 5,
    secs: 10,
};
/// The benchmark's own test size.
const SMOKE: Size = Size { trials: 1, secs: 2 };

/// The measured size, or the smoke size of the benchmark's own tests.
pub fn size(smoke: bool) -> Size {
    if smoke {
        SMOKE
    } else {
        FULL
    }
}

const CONTROLLERS: [ControllerKind; 2] = [ControllerKind::Floodlight, ControllerKind::Ryu];

/// Set-ups per repetition: one set-up is well under a millisecond, so
/// its median over several is reported.
const SETUPS: usize = 15;

/// The pinned per-controller outcome at each size: iperf Mb/s per
/// trial, PACKET_INs, FLOW_MODs sent by the controller, `phi1` fires.
fn pinned(size: Size) -> &'static str {
    match (size.trials, size.secs) {
        (5, 10) => {
            "floodlight iperf=[4.934 4.934 4.934 4.934 4.934] \
             packet_in=169048 flow_mod=169044 phi1=169044\n\
             ryu iperf=[1.869 1.869 1.869 1.869 1.869] \
             packet_in=64088 flow_mod=64084 phi1=64084"
        }
        (1, 2) => {
            "floodlight iperf=[5.163] packet_in=7096 flow_mod=7092 phi1=7092\n\
             ryu iperf=[1.898] packet_in=2624 flow_mod=2620 phi1=2620"
        }
        _ => unreachable!("storm sizes are FULL and SMOKE"),
    }
}

/// Schedules the iperf server on `h6` and the trials from `h1`, the
/// Figure 11 timeline with 10 s gaps; returns the horizon.
fn schedule(sim: &mut Simulation, size: Size) -> SimTime {
    let h1 = sim.node_id("h1").expect("case study has h1");
    let h6 = sim.node_id("h6").expect("case study has h6");
    let dst = "10.0.0.6".parse().expect("valid address");
    let start = SimTime::from_secs(5);
    sim.schedule_command(
        start,
        HostCommand::IperfServer {
            host: h6,
            port: 5001,
        },
    );
    for trial in 0..size.trials {
        sim.schedule_command(
            start + SimTime::from_secs(1 + trial * (size.secs + 10)),
            HostCommand::IperfClient {
                host: h1,
                dst,
                port: 5001,
                duration: SimTime::from_secs(size.secs),
                label: format!("iperf trial {trial}"),
            },
        );
    }
    start + SimTime::from_secs(1 + size.trials * (size.secs + 10) + 5)
}

/// One controller's simulation, set up through the public harness.
fn setup(
    kind: ControllerKind,
    size: Size,
) -> Result<(Simulation, SharedExecutor, SimTime), String> {
    let mut sim = build_case_study(kind, FailMode::Secure);
    let exec = try_attach_attack(&mut sim, scenario::attacks::FLOW_MOD_SUPPRESSION)?;
    let horizon = schedule(&mut sim, size);
    Ok((sim, exec, horizon))
}

/// What one controller's run produced.
struct Outcome {
    summary: String,
    fingerprint: String,
    control_msgs: u64,
    events: u64,
    failed: u64,
}

/// `full_digest` adds the digest of every recorded trace event, which
/// costs about half a run at the full size; otherwise the counters are
/// digested.
fn outcome(
    kind: ControllerKind,
    size: Size,
    sim: &Simulation,
    exec: &SharedExecutor,
    halt: HaltReason,
    full_digest: bool,
) -> Outcome {
    let trace = sim.trace();
    let iperf = sim.iperf_stats();
    let mbps: Vec<String> = iperf
        .iter()
        .map(|s| format!("{:.3}", s.throughput_mbps()))
        .collect();
    let summary = format!(
        "{} iperf=[{}] packet_in={} flow_mod={} phi1={}",
        kind.slug(),
        mbps.join(" "),
        trace.control_message_count(OfType::PacketIn, Direction::SwitchToController),
        trace.control_message_count(OfType::FlowMod, Direction::ControllerToSwitch),
        exec.lock().log().rule_fires("phi1"),
    );
    let fingerprint = format!(
        "{summary} halt={halt:?} events={} trace_events={} digest={} iperf={:016x} links={:016x}",
        sim.events_dispatched(),
        trace.events().len(),
        if full_digest {
            trace.digest()
        } else {
            trace.counter_digest()
        },
        fnv1a(format!("{iperf:?}").as_bytes()),
        fnv1a(format!("{:?}", sim.link_stats()).as_bytes()),
    );
    let finished = iperf.iter().filter(|s| s.finished).count() as u64;
    let failed = size.trials.saturating_sub(finished) + u64::from(halt != HaltReason::Horizon);
    Outcome {
        summary,
        fingerprint,
        control_msgs: trace.control_message_total(),
        events: sim.events_dispatched(),
        failed,
    }
}

/// The untimed gate: the measured input at the smoke size reproduces
/// its pinned outcome.
pub fn gate() -> Result<(), String> {
    let mut summaries = Vec::new();
    for kind in CONTROLLERS {
        let (mut sim, exec, horizon) = setup(kind, SMOKE)?;
        let halt = sim.run_until(horizon);
        summaries.push(outcome(kind, SMOKE, &sim, &exec, halt, false).summary);
    }
    check_pinned(SMOKE, &summaries.join("\n"))
}

fn check_pinned(size: Size, summary: &str) -> Result<(), String> {
    let pinned = pinned(size);
    if summary == pinned {
        Ok(())
    } else {
        Err(format!(
            "storm outcome drifted:\n  got    {summary:?}\n  pinned {pinned:?}"
        ))
    }
}

/// One measured repetition: both controllers, set up and run in turn.
pub fn rep(size: Size, full_digest: bool) -> Result<Rep, String> {
    let mut setup_s = 0.0;
    let mut run_s = 0.0;
    let mut outcomes = Vec::new();
    for kind in CONTROLLERS {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut built = None;
        for _ in 0..SETUPS {
            let (b, s) = timed(|| setup(kind, size));
            setups.push(s);
            built = Some(b?);
        }
        setup_s += median(&setups);
        let (mut sim, exec, horizon) = built.expect("at least one set-up");
        let (halt, s) = timed(|| sim.run_until(horizon));
        run_s += s;
        outcomes.push(outcome(kind, size, &sim, &exec, halt, full_digest));
    }
    let peak_rss_mib = peak_rss_mib()?;
    let summary: Vec<&str> = outcomes.iter().map(|o| o.summary.as_str()).collect();
    let pinned_miss = match check_pinned(size, &summary.join("\n")) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    };
    Ok(Rep {
        setup_s,
        run_s,
        ops: outcomes.iter().map(|o| o.control_msgs).sum(),
        attempted: CONTROLLERS.len() as u64 * size.trials,
        failed: outcomes.iter().map(|o| o.failed).sum::<u64>() + pinned_miss,
        peak_rss_mib,
        fingerprint: outcomes
            .iter()
            .map(|o| o.fingerprint.as_str())
            .collect::<Vec<_>>()
            .join("\n"),
    })
}

/// Host nanoseconds per call and allocations observed at one seam,
/// plus the first frame of each OpenFlow type the seam saw.
#[derive(Default)]
struct SeamStats {
    ns: Vec<f64>,
    allocs: u64,
    samples: BTreeMap<u8, Vec<u8>>,
}

impl SeamStats {
    /// Runs `f`, recording its host time and allocations.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let a = allocs();
        let t = Instant::now();
        let out = f();
        self.ns.push(t.elapsed().as_nanos() as f64);
        self.allocs += allocs() - a;
        out
    }

    fn merge_into(&mut self, sink: &Mutex<SeamStats>) {
        // Runs in `Drop`: a poisoned sink loses the statistics rather
        // than panicking during an unwind.
        if let Ok(mut sink) = sink.lock() {
            sink.ns.append(&mut self.ns);
            sink.allocs += self.allocs;
            for (ty, bytes) in std::mem::take(&mut self.samples) {
                sink.samples.entry(ty).or_insert(bytes);
            }
        }
    }
}

/// The injector seam: times every call into the interposer. Statistics
/// stay local while the simulation runs and reach `sink` when the
/// simulation drops its interposer.
struct TimedInterposer {
    inner: SimInjector,
    stats: SeamStats,
    sink: Arc<Mutex<SeamStats>>,
}

impl Interposer for TimedInterposer {
    fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
        // The type byte is read from the header: `Frame::of_type` would
        // decode, which the untraced run may not do.
        let bytes = msg.frame.bytes();
        if bytes.len() > 1 && !self.stats.samples.contains_key(&bytes[1]) {
            self.stats.samples.insert(bytes[1], bytes.to_vec());
        }
        let inner = &mut self.inner;
        self.stats.time(|| inner.on_message(msg))
    }

    fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
        let inner = &mut self.inner;
        self.stats.time(|| inner.on_wakeup(now))
    }
}

impl Drop for TimedInterposer {
    fn drop(&mut self) {
        self.stats.merge_into(&self.sink);
    }
}

/// The controller seam: times every message handed to the application,
/// publishing to `sink` when the simulation drops its controller.
struct TimedController {
    inner: Box<dyn Controller>,
    stats: SeamStats,
    sink: Arc<Mutex<SeamStats>>,
}

impl Controller for TimedController {
    fn kind(&self) -> ControllerKind {
        self.inner.kind()
    }

    fn on_switch_connect(&mut self, dpid: DatapathId, features: &SwitchFeatures, out: &mut Outbox) {
        let inner = &mut self.inner;
        self.stats
            .time(|| inner.on_switch_connect(dpid, features, out));
    }

    fn on_packet_in(&mut self, dpid: DatapathId, packet_in: &PacketIn, out: &mut Outbox) {
        let inner = &mut self.inner;
        self.stats.time(|| inner.on_packet_in(dpid, packet_in, out));
    }

    fn on_message(&mut self, dpid: DatapathId, msg: &OfMessage, out: &mut Outbox) {
        let inner = &mut self.inner;
        self.stats.time(|| inner.on_message(dpid, msg, out));
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId) {
        self.inner.on_switch_disconnect(dpid);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn processing_delay_us(&self) -> u64 {
        self.inner.processing_delay_us()
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        self.stats.merge_into(&self.sink);
    }
}

/// Mean host nanoseconds to decode and to encode one message of the
/// run's mix: each sampled type timed alone, weighted by its count.
fn codec_ns(
    samples: &BTreeMap<u8, Vec<u8>>,
    mix: &BTreeMap<u8, u64>,
) -> Result<(f64, f64), String> {
    const REPS: u32 = 20_000;
    let (mut decode, mut encode, mut total) = (0.0, 0.0, 0u64);
    for (ty, &count) in mix {
        let bytes = samples
            .get(ty)
            .ok_or(format!("no sample frame of OpenFlow type {ty}"))?;
        let (msg, xid) = OfMessage::decode(bytes).map_err(|e| format!("sample frame: {e}"))?;
        let (_, d) = timed(|| {
            for _ in 0..REPS {
                let _ = std::hint::black_box(OfMessage::decode(std::hint::black_box(bytes)));
            }
        });
        let (_, e) = timed(|| {
            for _ in 0..REPS {
                std::hint::black_box(std::hint::black_box(&msg).encode(xid));
            }
        });
        decode += d * 1e9 / f64::from(REPS) * count as f64;
        encode += e * 1e9 / f64::from(REPS) * count as f64;
        total += count;
    }
    let total = total.max(1) as f64;
    Ok((decode / total, encode / total))
}

/// The traced run: an untraced repetition, then both controllers on
/// the same network built from the scenario model with the controller
/// and the interposer behind timing seams, allocation counting on.
pub fn traced(size: Size) -> Result<Traced, String> {
    let reference = rep(size, true)?;
    let sc = scenario::enterprise_network();
    let interposer = Arc::new(Mutex::new(SeamStats::default()));
    let controller = Arc::new(Mutex::new(SeamStats::default()));
    let mut fingerprints = Vec::new();
    let mut mix: BTreeMap<u8, u64> = BTreeMap::new();
    let (mut run_s, mut control_msgs, mut events, mut run_allocs, mut decodes) = (0.0, 0, 0, 0, 0);
    let (mut trace_events, mut lookups, mut link_tx, mut link_drops, mut peak) = (0, 0, 0, 0, 0);
    let mut failed = 0;
    for kind in CONTROLLERS {
        let stats = Arc::clone(&controller);
        let mut sim = build_simulation(&sc.system, FailMode::Secure, move |_| {
            Box::new(TimedController {
                inner: case_study_controller(kind),
                stats: SeamStats::default(),
                sink: Arc::clone(&stats),
            })
        });
        let compiled = dsl::compile(
            scenario::attacks::FLOW_MOD_SUPPRESSION,
            &sc.system,
            &sc.attack_model,
        )
        .map_err(|e| e.to_string())?;
        let exec = AttackExecutor::new(sc.system.clone(), sc.attack_model.clone(), compiled.attack)
            .map_err(|e| e.to_string())?;
        let (injector, handle) = SimInjector::new(exec, &sc.system, &sim);
        sim.set_interposer(Box::new(TimedInterposer {
            inner: injector,
            stats: SeamStats::default(),
            sink: Arc::clone(&interposer),
        }));
        let horizon = schedule(&mut sim, size);

        let d0 = frame_decode_count();
        count_allocs(true);
        let a0 = allocs();
        let (halt, s) = timed(|| sim.run_until(horizon));
        run_allocs += allocs() - a0;
        count_allocs(false);
        decodes += frame_decode_count() - d0;
        run_s += s;

        let o = outcome(kind, size, &sim, &handle, halt, true);
        failed += o.failed;
        control_msgs += o.control_msgs;
        events += o.events;
        fingerprints.push(o.fingerprint);
        for (_, _, ty, n) in sim.trace().counters() {
            if let Some(ty) = ty {
                *mix.entry(ty as u8).or_default() += n;
            }
        }
        trace_events += sim.trace().events().len() as u64;
        peak = peak.max(sim.peak_pending_events());
        lookups += ["s1", "s2", "s3", "s4"]
            .iter()
            .map(|s| sim.switch(s).flow_table().lookup_count)
            .sum::<u64>();
        for l in sim.link_stats() {
            link_tx += l.tx;
            link_drops += l.queue_drops + l.down_drops + l.lost;
        }
    }
    if fingerprints.join("\n") != reference.fingerprint {
        return Err("the timing seams changed the storm run".into());
    }

    let run_ns = run_s * 1e9;
    let seam_metrics = |stats: &Mutex<SeamStats>| {
        let s = stats.lock().expect("seam stats lock is never poisoned");
        let mut ns = s.ns.clone();
        ns.sort_by(f64::total_cmp);
        let calls = ns.len().max(1) as f64;
        (
            ns.len() as f64,
            percentile_sorted(&ns, 50.0),
            percentile_sorted(&ns, 99.0),
            s.allocs as f64 / calls,
            ns.iter().sum::<f64>() / run_ns,
        )
    };
    let (i_calls, i_p50, i_p99, i_allocs, i_share) = seam_metrics(&interposer);
    let (c_calls, c_p50, c_p99, _, c_share) = seam_metrics(&controller);
    let (decode_ns, encode_ns) = codec_ns(
        &interposer
            .lock()
            .expect("seam stats lock is never poisoned")
            .samples,
        &mix,
    )?;
    // Every message is encoded once where it is created; decodes are
    // the codec's own count of real (non-memoised) parses.
    let of_share = (decodes as f64 * decode_ns + control_msgs as f64 * encode_ns) / run_ns;

    let mut layers = Layers::new();
    layers.insert("interposer.calls", i_calls);
    layers.insert("interposer.ns.p50", i_p50);
    layers.insert("interposer.ns.p99", i_p99);
    layers.insert("interposer.allocs_per_call", i_allocs);
    layers.insert("interposer.share", i_share);
    layers.insert("controller.calls", c_calls);
    layers.insert("controller.ns.p50", c_p50);
    layers.insert("controller.ns.p99", c_p99);
    layers.insert("controller.share", c_share);
    layers.insert("openflow.decode_ns", decode_ns);
    layers.insert("openflow.encode_ns", encode_ns);
    layers.insert("openflow.share", of_share);
    layers.insert(
        "netsim.allocs_per_ctrl_msg",
        run_allocs as f64 / control_msgs as f64,
    );
    layers.insert("netsim.residual_share", 1.0 - i_share - c_share - of_share);
    layers.insert("trace.events", trace_events as f64);
    layers.insert("flow_table.lookups", lookups as f64);
    layers.insert("engine.events", events as f64);
    layers.insert("engine.peak_pending", peak as f64);
    layers.insert("engine.ns_per_event", reference.run_s * 1e9 / events as f64);
    layers.insert("link.tx", link_tx as f64);
    layers.insert("link.drops", link_drops as f64);
    layers.insert("bench.trace_overhead", run_s / reference.run_s - 1.0);
    Ok(Traced {
        layers,
        attempted: reference.attempted + (CONTROLLERS.len() as u64 * size.trials),
        failed: reference.failed + failed,
    })
}
