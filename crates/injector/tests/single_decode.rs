//! The single-decode invariant, end to end: over a full interposed
//! simulation, the message path parses each frame's bytes at most once,
//! no matter how many hops (proxy, executor, switch, controller,
//! tracer) inspect it.

use attain_controllers::ControllerKind;
use attain_core::scenario;
use attain_injector::harness::{attach_attack, build_case_study};
use attain_netsim::{FailMode, HostCommand, SimTime};
use attain_openflow::frame_decode_count;

#[test]
fn interposed_sim_decodes_each_frame_at_most_once() {
    let mut sim = build_case_study(ControllerKind::Floodlight, FailMode::Secure);
    let _exec = attach_attack(&mut sim, scenario::attacks::TRIVIAL_PASS);
    let h1 = sim.node_id("h1").expect("case study has h1");
    sim.schedule_command(
        SimTime::from_secs(1),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.6".parse().expect("valid address"),
            count: 10,
            interval: SimTime::from_secs(1),
            label: "decode-count ping".into(),
        },
    );

    let before = frame_decode_count();
    sim.run_until(SimTime::from_secs(20));
    let decodes = frame_decode_count() - before;

    let msgs = sim.trace().control_message_total();
    assert!(msgs > 0, "workload produced no control-plane traffic");
    // At most one parse per message is the invariant. Almost every frame
    // in this pipeline comes from `Frame::from_message` (the structured
    // view travels with the bytes, zero parses); the only raw frames are
    // the byte-patched echo replies, and each of those is parsed once no
    // matter how many hops (tracer, executor, endpoint) inspect it — so
    // the total stays far below one decode per message.
    assert!(
        decodes <= msgs,
        "message path decoded {decodes} times for {msgs} control messages"
    );
    assert!(
        decodes * 2 <= msgs,
        "decode sharing broke: {decodes} decodes for {msgs} messages \
         (expected only the echo-reply fast-path frames to be parsed)"
    );
}
