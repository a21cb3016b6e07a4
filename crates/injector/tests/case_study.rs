//! End-to-end case-study tests: the §VII experiments at reduced
//! fidelity, checking the qualitative shapes the paper reports.

use attain_controllers::ControllerKind;
use attain_injector::harness::{
    build_case_study, run_connection_interruption, run_flow_mod_suppression, Fidelity,
};
use attain_netsim::{Direction, FailMode, HostCommand, SimTime};
use attain_openflow::OfType;

#[test]
fn baselines_are_healthy_for_all_controllers() {
    for kind in ControllerKind::ALL {
        let out = run_flow_mod_suppression(kind, false, &Fidelity::quick());
        assert_eq!(out.phi1_fires, 0, "{kind}: baseline must not fire φ1");
        assert!(
            !out.ping_denied(),
            "{kind}: baseline ping lost everything: {:?}",
            out.ping.rtts_ms()
        );
        assert!(
            out.ping.loss_pct() < 10.0,
            "{kind}: baseline ping loss {}%",
            out.ping.loss_pct()
        );
        let mbps = out.mean_throughput_mbps();
        assert!(
            mbps > 70.0,
            "{kind}: baseline throughput {mbps:.1} Mb/s should be near line rate"
        );
        let rtt = out.ping.avg_rtt_ms().unwrap();
        assert!(rtt < 30.0, "{kind}: baseline RTT {rtt:.2} ms too high");
    }
}

#[test]
fn suppression_deadlocks_pox_data_plane() {
    // POX attaches buffer_id to its flow mods: suppressing them discards
    // every first packet — the paper's asterisk (zero throughput,
    // infinite latency).
    let out = run_flow_mod_suppression(ControllerKind::Pox, true, &Fidelity::quick());
    assert!(out.phi1_fires > 0, "φ1 must fire");
    assert!(out.ping_denied(), "POX ping should be fully denied");
    assert!(out.iperf_denied(), "POX iperf should be fully denied");
}

#[test]
fn suppression_degrades_but_does_not_kill_floodlight_and_ryu() {
    for kind in [ControllerKind::Floodlight, ControllerKind::Ryu] {
        let baseline = run_flow_mod_suppression(kind, false, &Fidelity::quick());
        let attacked = run_flow_mod_suppression(kind, true, &Fidelity::quick());
        assert!(attacked.phi1_fires > 0, "{kind}: φ1 must fire");
        // Service survives: packets still flow via per-packet PACKET_OUT.
        assert!(
            !attacked.ping_denied(),
            "{kind}: ping should survive suppression"
        );
        assert!(
            !attacked.iperf_denied(),
            "{kind}: iperf should survive suppression"
        );
        // …but degrades: throughput collapses, latency inflates.
        let b_mbps = baseline.mean_throughput_mbps();
        let a_mbps = attacked.mean_throughput_mbps();
        assert!(
            a_mbps < b_mbps / 4.0,
            "{kind}: attacked throughput {a_mbps:.1} should be far below baseline {b_mbps:.1}"
        );
        let b_rtt = baseline.ping.avg_rtt_ms().unwrap();
        let a_rtt = attacked.ping.avg_rtt_ms().unwrap();
        assert!(
            a_rtt > 2.0 * b_rtt,
            "{kind}: attacked RTT {a_rtt:.2} should be well above baseline {b_rtt:.2}"
        );
        // Control-plane traffic balloons (the paper's second finding).
        assert!(
            attacked.packet_ins > 4 * baseline.packet_ins,
            "{kind}: packet-ins {} vs baseline {} should balloon",
            attacked.packet_ins,
            baseline.packet_ins
        );
    }
}

#[test]
fn interruption_fail_safe_grants_unauthorized_access() {
    for kind in [ControllerKind::Floodlight, ControllerKind::Pox] {
        let out = run_connection_interruption(kind, FailMode::Safe);
        assert_eq!(out.final_state, "sigma3", "{kind}: attack must engage");
        assert!(out.phi2_fires > 0, "{kind}: φ2 must fire");
        // Rows 1–2 (pre-attack): everything reachable.
        assert!(out.ext_to_ext.accessible(), "{kind}: row 1");
        assert!(out.int_to_ext_before.accessible(), "{kind}: row 2");
        // Row 3: the DMZ falls open — unauthorized increased access.
        assert!(
            out.unauthorized_access(),
            "{kind}: fail-safe should let the external user in: {}",
            out.ext_to_int
        );
        // Row 4: legitimate traffic still flows.
        assert!(!out.legitimate_dos(), "{kind}: row 4 should stay up");
    }
}

#[test]
fn interruption_fail_secure_denies_legitimate_traffic() {
    for kind in [ControllerKind::Floodlight, ControllerKind::Pox] {
        let out = run_connection_interruption(kind, FailMode::Secure);
        assert_eq!(out.final_state, "sigma3", "{kind}: attack must engage");
        assert!(out.ext_to_ext.accessible(), "{kind}: row 1");
        assert!(out.int_to_ext_before.accessible(), "{kind}: row 2");
        // Row 3: the firewall holds.
        assert!(
            !out.unauthorized_access(),
            "{kind}: fail-secure must keep the external user out: {}",
            out.ext_to_int
        );
        // Row 4: at the price of a denial of service for insiders.
        assert!(
            out.legitimate_dos(),
            "{kind}: fail-secure should deny legitimate traffic: {}",
            out.int_to_ext_after
        );
    }
}

#[test]
fn interruption_never_engages_against_ryu() {
    // Ryu's flow-mod matches carry no nw_src, so φ2 never fires and the
    // connection is never interrupted — the paper's §VII-C4 anomaly.
    for mode in [FailMode::Safe, FailMode::Secure] {
        let out = run_connection_interruption(ControllerKind::Ryu, mode);
        assert_eq!(out.final_state, "sigma2", "attack must stall in σ2");
        assert_eq!(out.phi2_fires, 0);
        assert!(out.ext_to_ext.accessible());
        assert!(out.int_to_ext_before.accessible());
        // The DMZ policy holds (enforced by Ryu's L2 deny rule)…
        assert!(!out.unauthorized_access(), "{}", out.ext_to_int);
        // …and nothing is denied.
        assert!(!out.legitimate_dos(), "{}", out.int_to_ext_after);
    }
}

#[test]
fn firewall_denials_release_each_buffer_once() {
    // h2 (outside, behind the gateway) pings the internal h3: every echo
    // is denied at s2. The deny path must release the switch's buffer
    // exactly once, so the switch never answers with BUFFER_UNKNOWN.
    for kind in ControllerKind::CAMPAIGN {
        let mut sim = build_case_study(kind, FailMode::Secure);
        let h2 = sim.node_id("h2").expect("h2 exists");
        sim.schedule_command(
            SimTime::from_secs(5),
            HostCommand::Ping {
                host: h2,
                dst: "10.0.0.3".parse().expect("valid"),
                count: 10,
                interval: SimTime::from_secs(1),
                label: "denied".into(),
            },
        );
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.ping_stats()[0].received(), 0, "{kind}: policy breached");
        let errors = sim
            .trace()
            .control_message_count(OfType::Error, Direction::SwitchToController);
        assert_eq!(errors, 0, "{kind}: switch reported {errors} ERRORs");
    }
}
