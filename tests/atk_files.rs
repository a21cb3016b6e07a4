//! The shipped `attacks/*.atk` description files stay compilable — they
//! are the "reusable and shareable attack descriptions" the paper's
//! abstract promises. `scenario::attacks` embeds these files, so the
//! bundled sources cannot drift from them.

use attain::core::{dsl, scenario};

#[test]
fn shipped_atk_files_match_bundled_attacks() {
    let sc = scenario::enterprise_network();
    for (name, source) in scenario::attacks::ALL {
        let compiled = dsl::compile(source, &sc.system, &sc.attack_model);
        assert!(
            compiled.is_ok(),
            "attacks/{name}.atk: {}",
            compiled.unwrap_err()
        );
    }
}

#[test]
fn self_contained_demo_compiles_as_a_document() {
    let file =
        std::fs::read_to_string("attacks/self_contained_demo.atk").expect("demo file present");
    let doc = dsl::compile_document(&file).expect("demo compiles");
    assert_eq!(doc.attacks.len(), 1);
    assert_eq!(doc.attacks[0].name(), "tap_and_slow");
    // The demo exercises the TLS/no-TLS split: the tapped channel grants
    // everything, the TLS one does not.
    use attain::core::model::{Capability, ConnectionId};
    assert!(!doc
        .attack_model
        .get(ConnectionId(0))
        .contains(Capability::ReadMessage));
    assert!(doc
        .attack_model
        .get(ConnectionId(1))
        .contains(Capability::ReadMessage));
}
