//! The fingerprint-accuracy arm as a regression surface: the timing
//! fingerprinting attack must identify every controller application
//! from virtual-time observables alone, across both fail modes and all
//! campaign seeds, and the resulting confusion matrix must be pinned
//! and `--jobs`-invariant.
//!
//! The classification evidence is entirely in-band: `PACKET_IN →
//! FLOW_MOD` service-time means on the `(c1, s1)` channel separate
//! Beacon (1.25 ms), Floodlight (1.30 ms), Ryu (1.80 ms), and POX
//! (2.20 ms), while the hub betrays itself behaviourally (no installs,
//! heavy flooding). See `attacks/fingerprint_then_attack.atk`.

use attain_campaign::{attacks, cell, oracle, runner, Filter, Matrix};
use attain_controllers::ControllerKind;
use attain_netsim::FailMode;

fn fingerprint_matrix() -> Matrix {
    let mut matrix = Matrix::full();
    Filter::parse(&format!("attack={}", oracle::FINGERPRINT_ATTACK))
        .unwrap()
        .apply(&mut matrix);
    matrix
}

#[test]
fn classifies_every_application_across_fail_modes_and_seeds() {
    let attack = attacks::by_name(oracle::FINGERPRINT_ATTACK).expect("attack shipped");
    for kind in ControllerKind::CAMPAIGN {
        for fail_mode in [FailMode::Safe, FailMode::Secure] {
            for seed in [1u64, 2, 3] {
                let outcome = cell::run_cell(&attack, kind, fail_mode, seed)
                    .unwrap_or_else(|e| panic!("{kind}/{fail_mode:?}/s{seed}: {e}"));
                let predicted = oracle::fingerprint_prediction(&outcome);
                assert_eq!(
                    predicted,
                    Some(kind),
                    "{kind}/{fail_mode:?}/s{seed}: final state {:?} predicts {predicted:?}",
                    outcome.final_state
                );
            }
        }
    }
}

#[test]
fn hub_is_never_misclassified_as_a_learning_switch() {
    // The hub's timing signature (800 µs) collides with Ryu's — the
    // attack must separate them behaviourally, never by latency. Pin
    // that the hub cells end in `attack_hub` specifically and that the
    // only rule to fire before the payload is the hub classifier.
    let attack = attacks::by_name(oracle::FINGERPRINT_ATTACK).unwrap();
    for seed in [1u64, 2, 3] {
        let outcome = cell::run_cell(&attack, ControllerKind::Hub, FailMode::Secure, seed).unwrap();
        assert_eq!(outcome.final_state.as_deref(), Some("attack_hub"));
        let classifier_fires: Vec<&str> = outcome
            .rule_fires
            .iter()
            .filter(|(name, n)| name.starts_with("classify_") && *n > 0)
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(
            classifier_fires,
            ["classify_hub"],
            "s{seed}: exactly one classifier may fire"
        );
    }
}

#[test]
fn confusion_matrix_is_diagonal_and_jobs_invariant() {
    let matrix = fingerprint_matrix();
    let serial = runner::run(&matrix, 1);
    let parallel = runner::run(&matrix, 4);
    assert_eq!(
        serial.canonical_json(),
        parallel.canonical_json(),
        "fingerprint cells and confusion matrix must not depend on --jobs"
    );

    let confusion = serial
        .confusion_matrix()
        .expect("fingerprint cells present");
    assert_eq!(confusion, parallel.confusion_matrix().unwrap());
    // 2 fail modes × 3 seeds per application, every one on the diagonal.
    assert_eq!(confusion.total(), 30);
    assert_eq!(confusion.correct(), 30);
    for (kind, preds) in &confusion.rows {
        assert_eq!(
            preds.as_slice(),
            [(kind.slug().to_string(), 6)],
            "{kind}: all six cells must predict the true application"
        );
    }

    // The canonical report serializes the matrix into the summary.
    let json = serial.canonical_json();
    assert!(
        json.contains("\"fingerprint\": {\"attack\": \"fingerprint_then_attack\", \"cells\": 30, \"correct\": 30"),
        "summary must carry the fingerprint tally: {json}"
    );
    assert!(json.contains("\"confusion\": {\"floodlight\": {\"floodlight\": 6}, \"pox\": {\"pox\": 6}, \"ryu\": {\"ryu\": 6}, \"beacon\": {\"beacon\": 6}, \"hub\": {\"hub\": 6}}"));
}

#[test]
fn reports_without_fingerprint_cells_carry_no_confusion_matrix() {
    let mut matrix = Matrix::full();
    Filter::parse("attack=trivial_pass,controller=pox,fail=secure,seed=1")
        .unwrap()
        .apply(&mut matrix);
    let report = runner::run(&matrix, 1);
    assert!(report.confusion_matrix().is_none());
    assert!(!report.canonical_json().contains("\"fingerprint\""));
}

#[test]
fn misclassified_prediction_fails_the_cell_even_when_the_class_matches() {
    // The fingerprint arm is additive: a cell whose differential class
    // is in the expected set but whose prediction names the wrong
    // application must not pass. Exercised by relabelling a real Ryu
    // outcome as a Floodlight cell through the oracle helpers.
    let attack = attacks::by_name(oracle::FINGERPRINT_ATTACK).unwrap();
    let outcome = cell::run_cell(&attack, ControllerKind::Ryu, FailMode::Secure, 1).unwrap();
    let predicted = oracle::fingerprint_prediction(&outcome).expect("ryu cell classifies");
    assert_eq!(predicted, ControllerKind::Ryu);
    assert_ne!(
        predicted,
        ControllerKind::Floodlight,
        "a wrong-application prediction must be distinguishable"
    );
}
