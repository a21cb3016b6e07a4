//! The paper's attack descriptions, ready to compile against the
//! [`enterprise_network`](super::enterprise_network) scenario.
//!
//! Each constant embeds its `attacks/<name>.atk` file, the one source
//! of the description; the files' comments explain each attack.

/// Figure 5: the trivial "attack" that models normal control-plane operation.
pub const TRIVIAL_PASS: &str = include_str!("../../../../attacks/trivial_pass.atk");

/// Figure 10: drop every `FLOW_MOD` the controller sends (§VII-B).
pub const FLOW_MOD_SUPPRESSION: &str = include_str!("../../../../attacks/flow_mod_suppression.atk");

/// Figure 12: sever the DMZ firewall switch `s2`'s control channel (§VII-C).
pub const CONNECTION_INTERRUPTION: &str =
    include_str!("../../../../attacks/connection_interruption.atk");

/// Figure 6: attack states as prior-message history.
pub const MESSAGE_HISTORY: &str = include_str!("../../../../attacks/message_history.atk");

/// §VIII-B: a deque counter lets ten `FLOW_MOD`s through, then suppresses the rest.
pub const COUNTED_SUPPRESSION: &str = include_str!("../../../../attacks/counted_suppression.atk");

/// §VIII-A: reorder `PACKET_IN`s through a deque used as a stack.
pub const REORDER_PACKET_INS: &str = include_str!("../../../../attacks/reorder_packet_ins.atk");

/// §VIII-A: replay `FLOW_MOD`s through a deque used as a queue.
pub const REPLAY_FLOW_MODS: &str = include_str!("../../../../attacks/replay_flow_mods.atk");

/// DELTA-style fuzzing (§IX-A): corrupt every tenth controller-to-switch message.
pub const FUZZ_CONTROL_PLANE: &str = include_str!("../../../../attacks/fuzz_control_plane.atk");

/// Overflow family: phantom-port `PACKET_IN` corruption fills `s4`'s bounded table.
pub const TABLE_OVERFLOW: &str = include_str!("../../../../attacks/table_overflow.atk");

/// Timing-observable controller fingerprinting, then a per-application worst payload.
pub const FINGERPRINT_THEN_ATTACK: &str =
    include_str!("../../../../attacks/fingerprint_then_attack.atk");

/// All bundled attacks with their names, for iteration in tests and
/// examples.
pub const ALL: [(&str, &str); 10] = [
    ("trivial_pass", TRIVIAL_PASS),
    ("flow_mod_suppression", FLOW_MOD_SUPPRESSION),
    ("connection_interruption", CONNECTION_INTERRUPTION),
    ("message_history", MESSAGE_HISTORY),
    ("counted_suppression", COUNTED_SUPPRESSION),
    ("reorder_packet_ins", REORDER_PACKET_INS),
    ("replay_flow_mods", REPLAY_FLOW_MODS),
    ("fuzz_control_plane", FUZZ_CONTROL_PLANE),
    ("table_overflow", TABLE_OVERFLOW),
    ("fingerprint_then_attack", FINGERPRINT_THEN_ATTACK),
];
