//! The profile table: the only place any per-controller fact lives.
//!
//! The five applications are one [`LearningSwitch`](crate::LearningSwitch)
//! configured by one row each. The behavioural predicates the campaign
//! oracle reads are computed from these rows, so what a controller is
//! predicted to do and what it does cannot drift apart.

use crate::learning::MatchStyle;
use crate::traits::ControllerKind;

/// What one controller application does, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// The application this row describes.
    pub kind: ControllerKind,
    /// How flow-mod matches are built, by the application and by the
    /// DMZ firewall module running on it.
    pub match_style: MatchStyle,
    /// How the application installs flows; `None` for a hub, which
    /// floods every packet and learns nothing.
    pub flows: Option<FlowPolicy>,
    /// Mean per-message processing latency in microseconds, modelling
    /// the platform runtime (JVM vs. CPython).
    pub processing_delay_us: u64,
}

/// The flow mods a learning application installs for a known destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPolicy {
    /// The application cookie on every flow mod.
    pub cookie: u64,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
    /// Flow priority.
    pub priority: u16,
    /// Whether the flow mod carries the packet-in's `buffer_id`, so the
    /// flow mod itself releases the buffered packet. Otherwise a separate
    /// `PACKET_OUT` releases it.
    pub buffer_on_flow_mod: bool,
    /// What happens when the destination was learned on the ingress port.
    pub hairpin: Hairpin,
}

/// The answer to a packet whose destination sits behind its ingress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hairpin {
    /// Install the flow and forward back out of the ingress port, like
    /// any known destination (Ryu `simple_switch`).
    Forward,
    /// Flood, as if the destination were unknown (Beacon).
    Flood,
    /// Release the buffer with an empty-action `PACKET_OUT` (Floodlight).
    Release,
    /// Install a drop flow that carries the buffer (POX `l2_learning`).
    /// POX's firewall module drops a denied packet the same way.
    DropFlow,
}

/// The table, in [`ControllerKind`] declaration order.
const PROFILES: [Profile; 5] = [
    // Floodlight v1.2 `Forwarding`: JVM service pipeline.
    Profile {
        kind: ControllerKind::Floodlight,
        match_style: MatchStyle::L3Aware,
        flows: Some(FlowPolicy {
            cookie: 0x20_000000,
            idle_timeout: 5,
            hard_timeout: 0,
            priority: 1,
            buffer_on_flow_mod: false,
            hairpin: Hairpin::Release,
        }),
        processing_delay_us: 300,
    },
    // POX v0.2.0 `forwarding.l2_learning`: CPython event loop.
    Profile {
        kind: ControllerKind::Pox,
        match_style: MatchStyle::FullExact,
        flows: Some(FlowPolicy {
            cookie: 0,
            idle_timeout: 10,
            hard_timeout: 30,
            priority: 0x8000,
            buffer_on_flow_mod: true,
            hairpin: Hairpin::DropFlow,
        }),
        processing_delay_us: 1200,
    },
    // Ryu v4.5 `simple_switch`: CPython with an eventlet hub.
    Profile {
        kind: ControllerKind::Ryu,
        match_style: MatchStyle::L2Only,
        flows: Some(FlowPolicy {
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_on_flow_mod: false,
            hairpin: Hairpin::Forward,
        }),
        processing_delay_us: 800,
    },
    // Beacon v1.0.4 `LearningSwitch`: JVM, leaner than Floodlight.
    Profile {
        kind: ControllerKind::Beacon,
        match_style: MatchStyle::FullExact,
        flows: Some(FlowPolicy {
            cookie: 0,
            idle_timeout: 5,
            hard_timeout: 0,
            priority: 0x8000,
            buffer_on_flow_mod: true,
            hairpin: Hairpin::Flood,
        }),
        processing_delay_us: 250,
    },
    // POX `forwarding.hub`: CPython, but the handler is a one-liner. A
    // firewall on top of it builds L2 matches, all the state a hub keeps.
    Profile {
        kind: ControllerKind::Hub,
        match_style: MatchStyle::L2Only,
        flows: None,
        processing_delay_us: 800,
    },
];

// `profile()` indexes the table by declaration order; fail the build if
// a row is out of place.
const _: () = {
    let mut i = 0;
    while i < PROFILES.len() {
        assert!(PROFILES[i].kind as usize == i);
        i += 1;
    }
};

impl ControllerKind {
    /// This application's row of the profile table.
    pub fn profile(&self) -> &'static Profile {
        &PROFILES[*self as usize]
    }

    // ---- behavioural predicates -------------------------------------
    //
    // The campaign's expectation table is derived from these rather than
    // hard-coded per cell: each predicate names the implementation
    // detail that makes an attack manifest (or stay silent) against a
    // given controller, mirroring the paper's §VII analysis.

    /// Whether the application installs flow entries at all. The hub
    /// forwards every packet by `PACKET_OUT`, so attacks that target
    /// `FLOW_MOD`s have nothing to bite on.
    pub fn installs_flows(&self) -> bool {
        self.profile().flows.is_some()
    }

    /// Whether buffered packets are released only by the `FLOW_MOD`
    /// itself (`buffer_id` attached). Suppressing flow mods then
    /// deadlocks the data plane — the paper's POX asterisk in Figure 11.
    pub fn releases_buffer_via_flow_mod(&self) -> bool {
        self.profile().flows.is_some_and(|f| f.buffer_on_flow_mod)
    }

    /// Whether the flow mods this application (and the DMZ firewall
    /// module running on it) construct expose a concrete `nw_src` — the
    /// field the connection-interruption attack's rule `φ2` reads.
    /// Ryu's L2-only matches wildcard it, which is why the paper's §VII-C
    /// attack never fires against Ryu; the hub sends no flow mods at all.
    pub fn flow_mod_exposes_nw_src(&self) -> bool {
        self.profile().match_style != MatchStyle::L2Only
    }

    /// Whether installed flows are permanent (no idle/hard timeout).
    /// Ryu's timeout-free entries mean a suppression that arms *after*
    /// the first installs never gets another `FLOW_MOD` to matter for
    /// the steady workload — and timeout-guarded attacks (matching
    /// `idle_timeout > 0`) never trigger at all.
    pub fn installs_permanent_flows(&self) -> bool {
        self.profile()
            .flows
            .is_some_and(|f| f.idle_timeout == 0 && f.hard_timeout == 0)
    }
}
