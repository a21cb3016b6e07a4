//! The [`Simulation`]: event dispatch, effect application, and the
//! control-plane proxy point.

use crate::budget::{HaltReason, RunBudget};
use crate::command::HostCommand;
use crate::controller_host::ControllerHost;
use crate::engine::{
    ConnId, Effect, EventKind, EventQueue, FrameArena, NodeId, SchedulerConfig, TimerToken,
};
use crate::fault::{
    ControllerFaultStats, FaultKind, FaultPlan, FaultReport, FaultSpec, FaultTarget, LinkStats,
    SwitchFaultStats,
};
use crate::host::Host;
use crate::interpose::{Direction, Interposer, InterposerActions, ProxiedMessage};
use crate::link::{Link, TxOutcome};
use crate::switch::{ApplyOutcome, EvictionPolicy, FlowModError, Switch};
use crate::time::SimTime;
use crate::trace::{Trace, TraceKind, TraceMode};
use crate::{IperfStats, PingStats, ProbeStats};
use attain_openflow::{FlowMod, Frame, PortNo};
use std::collections::HashMap;

/// A node: an end host or a switch.
#[derive(Debug)]
pub(crate) enum Node {
    /// An end host.
    Host(Host),
    /// A switch. Boxed: the switch state (flow table, connections) dwarfs
    /// a host, and nodes of both kinds share one `Vec<Node>`.
    Switch(Box<Switch>),
}

/// One control-plane connection of the relation `N_C`.
#[derive(Debug)]
pub(crate) struct Connection {
    pub controller: usize,
    pub switch: NodeId,
    pub latency: SimTime,
}

/// Descriptive metadata for one control connection, used by the injector
/// to map attack-model connection names onto simulator ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnInfo {
    /// The connection id.
    pub id: ConnId,
    /// The controller's name (e.g. `c1`).
    pub controller: String,
    /// The switch's name (e.g. `s2`).
    pub switch: String,
}

/// The assembled network simulation.
///
/// Built with [`NetworkBuilder`](crate::NetworkBuilder); driven with
/// [`Simulation::run_until`]; interrogated through the stats accessors.
pub struct Simulation {
    now: SimTime,
    queue: EventQueue,
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    pub(crate) port_map: HashMap<(NodeId, PortNo), usize>,
    pub(crate) controllers: Vec<ControllerHost>,
    pub(crate) connections: Vec<Connection>,
    interposer: Option<Box<dyn Interposer>>,
    trace: Trace,
    names: HashMap<String, NodeId>,
    /// In-flight data-plane frame payloads (see [`FrameArena`]).
    arena: FrameArena,
    /// High-water mark of pending events, sampled each dispatch loop.
    peak_pending: usize,
    /// Data-plane frames dropped by link queues.
    pub frames_dropped: u64,
    budget: RunBudget,
    events_dispatched: u64,
    /// Events dispatched at the current instant (livelock detector).
    instant_events: u64,
    /// Sticky: once a budget halt or cancellation fires, further
    /// `run_until` calls return the same reason without dispatching.
    halted: Option<HaltReason>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("controllers", &self.controllers.len())
            .field("connections", &self.connections.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Simulation {
    pub(crate) fn assemble(
        nodes: Vec<Node>,
        links: Vec<Link>,
        port_map: HashMap<(NodeId, PortNo), usize>,
        controllers: Vec<ControllerHost>,
        connections: Vec<Connection>,
        names: HashMap<String, NodeId>,
        capacity_hint: usize,
    ) -> Simulation {
        let mut sim = Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::with_config(SchedulerConfig, capacity_hint),
            nodes,
            links,
            port_map,
            controllers,
            connections,
            interposer: None,
            trace: Trace::new(),
            names,
            arena: FrameArena::with_capacity(capacity_hint.min(1 << 16)),
            peak_pending: 0,
            frames_dropped: 0,
            budget: RunBudget::default(),
            events_dispatched: 0,
            instant_events: 0,
            halted: None,
        };
        // Stagger the initial handshakes and housekeeping ticks slightly
        // so same-instant ties don't depend on construction order alone.
        for (i, conn) in sim.connections.iter().enumerate() {
            sim.queue.schedule(
                SimTime::from_millis(100 + 10 * i as u64),
                EventKind::NodeTimer {
                    node: conn.switch,
                    token: TimerToken::Connect { conn: ConnId(i) },
                },
            );
        }
        for (i, node) in sim.nodes.iter().enumerate() {
            if matches!(node, Node::Switch(_)) {
                sim.queue.schedule(
                    SimTime::from_secs(1) + SimTime::from_millis(i as u64),
                    EventKind::NodeTimer {
                        node: NodeId(i),
                        token: TimerToken::SwitchTick,
                    },
                );
            }
        }
        for i in 0..sim.controllers.len() {
            sim.queue.schedule(
                SimTime::from_secs(2) + SimTime::from_millis(i as u64),
                EventKind::ControllerTimer {
                    ctrl: i,
                    token: TimerToken::ControllerTick,
                },
            );
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Installs the control-plane interposer (the attack injector).
    pub fn set_interposer(&mut self, interposer: Box<dyn Interposer>) {
        self.interposer = Some(interposer);
    }

    /// Schedules a workload command at absolute time `at`.
    pub fn schedule_command(&mut self, at: SimTime, cmd: HostCommand) {
        self.queue.schedule(at, EventKind::Command(Box::new(cmd)));
    }

    /// Schedules an environment fault at absolute time `at`.
    pub fn schedule_fault(&mut self, at: SimTime, spec: FaultSpec) {
        self.queue
            .schedule(at, EventKind::Command(Box::new(HostCommand::Fault(spec))));
    }

    /// Bounds the named switch's flow table at `capacity` entries under
    /// the given overflow `policy`. Scenario configuration: call before
    /// driving the simulation (the table is rebuilt empty).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is unknown or names a host.
    pub fn set_table_config(&mut self, switch: &str, capacity: usize, policy: EvictionPolicy) {
        let id = self
            .names
            .get(switch)
            .copied()
            .unwrap_or_else(|| panic!("no node named {switch}"));
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s.set_table_config(capacity, policy),
            Node::Host(_) => panic!("{switch} is a host, not a switch"),
        }
    }

    /// Sets the scenario seed for the per-link loss/corruption streams.
    ///
    /// Each link's stream is derived from `seed` and the link's index,
    /// so runs with the same topology, schedule, and seed are
    /// byte-identical, and per-link streams are mutually decorrelated.
    pub fn set_fault_seed(&mut self, seed: u64) {
        for (i, link) in self.links.iter_mut().enumerate() {
            link.reseed(seed, i);
        }
    }

    /// Applies a [`FaultPlan`]: installs its seed and schedules every
    /// event.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.set_fault_seed(plan.seed);
        for (at, spec) in &plan.events {
            self.schedule_fault(*at, spec.clone());
        }
    }

    /// Installs the run budget enforced by [`Simulation::run_until`].
    pub fn set_run_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Events currently pending in the future-event list.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of pending events observed so far.
    pub fn peak_pending_events(&self) -> usize {
        self.peak_pending.max(self.queue.len())
    }

    /// Data-plane frame payloads currently in flight (arena occupancy).
    pub fn live_frames(&self) -> usize {
        self.arena.live()
    }

    /// The sticky halt reason, if a budget or cancellation ever fired.
    pub fn halt_reason(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Runs the simulation until virtual time `t` (inclusive of events at
    /// `t`), subject to the installed [`RunBudget`].
    ///
    /// Budget halts (event cap, livelock detector) are deterministic:
    /// they trip after the same event on every same-seed run, record a
    /// [`TraceKind::RunHalted`] event, and stick — further calls return
    /// the same reason without dispatching. Cancellation is wall-clock
    /// driven and leaves the trace untouched.
    pub fn run_until(&mut self, t: SimTime) -> HaltReason {
        if let Some(reason) = self.halted {
            return reason;
        }
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.peak_pending = self.peak_pending.max(self.queue.len());
            if let Some(token) = &self.budget.cancel {
                if token.is_cancelled() {
                    // Nondeterministic by nature — do not trace it.
                    self.halted = Some(HaltReason::Cancelled);
                    return HaltReason::Cancelled;
                }
            }
            if let Some(max) = self.budget.max_events {
                if self.events_dispatched >= max {
                    let reason = HaltReason::EventBudget {
                        events: self.events_dispatched,
                    };
                    self.halt(reason, "event-budget");
                    return reason;
                }
            }
            let (time, kind) = self.queue.pop().expect("peeked event");
            if time > self.now {
                self.instant_events = 0;
            }
            self.now = time;
            self.dispatch(kind);
            self.events_dispatched += 1;
            self.instant_events += 1;
            if let Some(max) = self.budget.max_events_per_instant {
                if self.instant_events >= max {
                    let reason = HaltReason::Livelock {
                        events_at_instant: self.instant_events,
                    };
                    self.halt(reason, "livelock");
                    return reason;
                }
            }
        }
        self.now = self.now.max(t);
        HaltReason::Horizon
    }

    fn halt(&mut self, reason: HaltReason, slug: &'static str) {
        self.halted = Some(reason);
        self.trace.push(
            self.now,
            TraceKind::RunHalted {
                reason: slug,
                events: self.events_dispatched,
            },
        );
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimTime) -> HaltReason {
        let t = self.now + d;
        self.run_until(t)
    }

    // ---- lookups ------------------------------------------------------

    /// The node id of the named host or switch.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The named host.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a host.
    pub fn host(&self, name: &str) -> &Host {
        match &self.nodes[self.names[name].0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("{name} is a switch, not a host"),
        }
    }

    /// The named switch.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a switch.
    pub fn switch(&self, name: &str) -> &Switch {
        match &self.nodes[self.names[name].0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("{name} is a host, not a switch"),
        }
    }

    /// The named controller host.
    ///
    /// # Panics
    ///
    /// Panics if no controller has that name.
    pub fn controller(&self, name: &str) -> &ControllerHost {
        self.controllers
            .iter()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("no controller named {name}"))
    }

    /// The named controller host, mutably (e.g. to enable seeded
    /// processing jitter before `run`).
    ///
    /// # Panics
    ///
    /// Panics if no controller has that name.
    pub fn controller_mut(&mut self, name: &str) -> &mut ControllerHost {
        self.controllers
            .iter_mut()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("no controller named {name}"))
    }

    fn node_name(&self, id: NodeId) -> &str {
        match &self.nodes[id.0] {
            Node::Host(h) => h.name(),
            Node::Switch(s) => s.name(),
        }
    }

    /// Per-link transmission and fault counters, in link-creation order.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links
            .iter()
            .map(|l| LinkStats {
                a: self.node_name(l.a.node).to_string(),
                b: self.node_name(l.b.node).to_string(),
                tx: l.tx_ab + l.tx_ba,
                queue_drops: l.drops_ab + l.drops_ba,
                down_drops: l.down_drops,
                lost: l.lost,
                corrupted: l.corrupted,
                down_events: l.down_events,
                up: l.is_up(),
            })
            .collect()
    }

    /// Aggregate fault/drop/corruption accounting for this run.
    pub fn fault_report(&self) -> FaultReport {
        FaultReport {
            links: self.link_stats(),
            controllers: self
                .controllers
                .iter()
                .map(|c| ControllerFaultStats {
                    name: c.name().to_string(),
                    crashes: c.crashes,
                    restarts: c.restarts,
                    alive: c.is_alive(),
                })
                .collect(),
            switches: self
                .nodes
                .iter()
                .filter_map(|n| match n {
                    Node::Switch(s) => Some(SwitchFaultStats {
                        name: s.name().to_string(),
                        restarts: s.restarts,
                        secure_drops: s.secure_drops,
                        standalone_forwards: s.standalone_forwards,
                    }),
                    Node::Host(_) => None,
                })
                .collect(),
        }
    }

    /// Metadata for every control connection, in id order.
    pub fn conn_infos(&self) -> Vec<ConnInfo> {
        self.connections
            .iter()
            .enumerate()
            .map(|(i, c)| ConnInfo {
                id: ConnId(i),
                controller: self.controllers[c.controller].name().to_string(),
                switch: match &self.nodes[c.switch.0] {
                    Node::Switch(s) => s.name().to_string(),
                    Node::Host(h) => h.name().to_string(),
                },
            })
            .collect()
    }

    /// All ping runs across all hosts, in node then start order.
    pub fn ping_stats(&self) -> Vec<PingStats> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host(h) => Some(h.ping_stats()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// All iperf client runs across all hosts.
    pub fn iperf_stats(&self) -> Vec<IperfStats> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host(h) => Some(h.iperf_stats()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// All capacity-probe runs across all hosts.
    pub fn probe_stats(&self) -> Vec<ProbeStats> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host(h) => Some(h.probe_stats()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// The simulation trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Sets the trace mode (see [`TraceMode`]).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace.set_mode(mode);
    }

    /// Installs a flow entry directly into the named switch's table, as
    /// proactive provisioning would — no control-plane round trip and no
    /// `FlowInstalled` trace event, so a pre-provisioned fabric digests
    /// identically regardless of how many routes were pushed.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is unknown or names a host.
    pub fn install_flow(
        &mut self,
        switch: &str,
        fm: &FlowMod,
    ) -> Result<ApplyOutcome, FlowModError> {
        let id = self
            .names
            .get(switch)
            .copied()
            .unwrap_or_else(|| panic!("no node named {switch}"));
        self.install_flow_at(id, fm)
    }

    /// [`Simulation::install_flow`] by node id (generators hold ids, not
    /// names).
    ///
    /// # Panics
    ///
    /// Panics if `switch` names a host.
    pub fn install_flow_at(
        &mut self,
        switch: NodeId,
        fm: &FlowMod,
    ) -> Result<ApplyOutcome, FlowModError> {
        let now = self.now;
        match &mut self.nodes[switch.0] {
            Node::Switch(s) => s.install_flow(fm, now),
            Node::Host(_) => panic!("install_flow target {switch} is a host"),
        }
    }

    /// Seeds `from`'s ARP table with `to`'s `(ip, mac)` binding, as a
    /// static ARP entry would. Large generated workloads prime the pairs
    /// they use so the fabric isn't warmed up by broadcast ARP storms.
    ///
    /// # Panics
    ///
    /// Panics if either id is not a host.
    pub fn prime_arp(&mut self, from: NodeId, to: NodeId) {
        let (ip, mac) = match &self.nodes[to.0] {
            Node::Host(h) => (h.ip(), h.mac()),
            Node::Switch(_) => panic!("prime_arp target {to} is a switch"),
        };
        match &mut self.nodes[from.0] {
            Node::Host(h) => h.prime_arp(ip, mac),
            Node::Switch(_) => panic!("prime_arp source {from} is a switch"),
        }
    }

    // ---- dispatch -----------------------------------------------------

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Frame { node, port, frame } => {
                let frame = self.arena.take(frame);
                // A frame still in flight when its link was severed never
                // arrives: the LinkDown fault discards it at delivery.
                if let Some(&link_idx) = self.port_map.get(&(node, port)) {
                    let link = &mut self.links[link_idx];
                    if !link.is_up() {
                        link.down_drops += 1;
                        return;
                    }
                }
                let mut fx = Vec::new();
                match &mut self.nodes[node.0] {
                    Node::Host(h) => h.handle_frame(&frame, self.now, &mut fx),
                    Node::Switch(s) => s.handle_frame(port, frame, self.now, &mut fx),
                }
                self.apply_effects(node, fx);
            }
            EventKind::ProxyIngress {
                conn,
                direction,
                frame,
            } => self.proxy_ingress(conn, direction, frame),
            EventKind::ControlDeliver {
                conn,
                direction,
                frame,
            } => match direction {
                Direction::SwitchToController => {
                    let ctrl = self.connections[conn.0].controller;
                    let mut traces = Vec::new();
                    let sends =
                        self.controllers[ctrl].handle_control(conn, &frame, self.now, &mut traces);
                    for kind in traces {
                        self.trace.push(self.now, kind);
                    }
                    for s in sends {
                        self.queue.schedule(
                            s.depart,
                            EventKind::ProxyIngress {
                                conn: s.conn,
                                direction: Direction::ControllerToSwitch,
                                frame: s.frame,
                            },
                        );
                    }
                }
                Direction::ControllerToSwitch => {
                    let node = self.connections[conn.0].switch;
                    let mut fx = Vec::new();
                    if let Node::Switch(s) = &mut self.nodes[node.0] {
                        s.handle_control(conn, &frame, self.now, &mut fx);
                    }
                    self.apply_effects(node, fx);
                }
            },
            EventKind::NodeTimer { node, token } => {
                let mut fx = Vec::new();
                match (&mut self.nodes[node.0], token) {
                    (Node::Switch(s), TimerToken::SwitchTick) => s.tick(self.now, &mut fx),
                    (Node::Switch(s), TimerToken::Connect { conn }) => {
                        s.start_connect(conn, self.now, &mut fx)
                    }
                    (Node::Switch(s), TimerToken::HandshakeDeadline { conn, attempt }) => {
                        s.handshake_deadline(conn, attempt, self.now, &mut fx)
                    }
                    (Node::Host(h), token) => h.handle_timer(token, self.now, &mut fx),
                    _ => {}
                }
                self.apply_effects(node, fx);
            }
            EventKind::ControllerTimer { ctrl, .. } => {
                self.controllers[ctrl].tick(self.now);
                self.queue.schedule(
                    self.now + SimTime::from_secs(2),
                    EventKind::ControllerTimer {
                        ctrl,
                        token: TimerToken::ControllerTick,
                    },
                );
            }
            EventKind::Command(cmd) => self.apply_command(*cmd),
            EventKind::InterposerWake => {
                if let Some(mut ip) = self.interposer.take() {
                    let actions = ip.on_wakeup(self.now);
                    self.interposer = Some(ip);
                    self.apply_interposer_actions(actions);
                }
            }
        }
    }

    /// The proxy point: every control-plane message lands here before
    /// delivery, and the interposer (if any) decides its fate.
    fn proxy_ingress(&mut self, conn: ConnId, direction: Direction, frame: Frame) {
        self.trace.push(
            self.now,
            TraceKind::ControlMessage {
                conn,
                direction,
                of_type: frame.of_type(),
                len: frame.len(),
            },
        );
        match self.interposer.take() {
            Some(mut ip) => {
                let actions = ip.on_message(ProxiedMessage {
                    conn,
                    direction,
                    frame: &frame,
                    now: self.now,
                });
                self.interposer = Some(ip);
                self.apply_interposer_actions(actions);
            }
            None => {
                let latency = self.connections[conn.0].latency;
                self.queue.schedule(
                    self.now + latency,
                    EventKind::ControlDeliver {
                        conn,
                        direction,
                        frame,
                    },
                );
            }
        }
    }

    fn apply_interposer_actions(&mut self, actions: InterposerActions) {
        for d in actions.deliveries {
            if d.conn.0 >= self.connections.len() {
                continue; // injected onto a nonexistent connection
            }
            let latency = self.connections[d.conn.0].latency;
            self.queue.schedule(
                self.now + latency + d.extra_delay,
                EventKind::ControlDeliver {
                    conn: d.conn,
                    direction: d.direction,
                    frame: d.frame,
                },
            );
        }
        for cmd in actions.commands {
            self.apply_command(cmd);
        }
        if let Some(at) = actions.wakeup {
            self.queue
                .schedule(at.max(self.now), EventKind::InterposerWake);
        }
    }

    fn apply_command(&mut self, cmd: HostCommand) {
        match cmd {
            HostCommand::Ping {
                host,
                dst,
                count,
                interval,
                label,
            } => {
                let mut fx = Vec::new();
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_ping(dst, count, interval, label, self.now, &mut fx);
                }
                self.apply_effects(host, fx);
            }
            HostCommand::IperfServer { host, port } => {
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_iperf_server(port);
                }
            }
            HostCommand::Probe {
                host,
                dst,
                fill,
                gap,
                label,
            } => {
                let mut fx = Vec::new();
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_probe(dst, fill as usize, gap, label, self.now, &mut fx);
                }
                self.apply_effects(host, fx);
            }
            HostCommand::IperfClient {
                host,
                dst,
                port,
                duration,
                label,
            } => {
                let mut fx = Vec::new();
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_iperf_client(dst, port, duration, label, self.now, &mut fx);
                }
                self.apply_effects(host, fx);
            }
            HostCommand::Marker { label } => {
                self.trace.push(self.now, TraceKind::Marker(label));
            }
            HostCommand::Fault(spec) => self.apply_fault(spec),
        }
    }

    /// Looks up the link between two named nodes (order-insensitive).
    fn link_index(&self, a: &str, b: &str) -> Option<usize> {
        let na = *self.names.get(a)?;
        let nb = *self.names.get(b)?;
        self.links
            .iter()
            .position(|l| (l.a.node == na && l.b.node == nb) || (l.a.node == nb && l.b.node == na))
    }

    /// Applies one environment fault, tracing the transition. Unknown
    /// targets are traced (not panicked on): a fault schedule is data,
    /// often authored separately from the topology.
    fn apply_fault(&mut self, spec: FaultSpec) {
        let target = spec.target.to_string();
        let what = spec.kind.to_string();
        match (&spec.target, &spec.kind) {
            (FaultTarget::Link { a, b }, kind) => {
                let Some(idx) = self.link_index(a, b) else {
                    self.trace.push(
                        self.now,
                        TraceKind::Fault {
                            target,
                            what: "unknown link (ignored)".into(),
                        },
                    );
                    return;
                };
                let link = &mut self.links[idx];
                let changed = match kind {
                    FaultKind::LinkDown => link.set_down(),
                    FaultKind::LinkUp => link.set_up(),
                    FaultKind::LinkFlap { count, down, up } => {
                        if *count > 0 {
                            link.set_down();
                            let target = FaultTarget::Link {
                                a: a.clone(),
                                b: b.clone(),
                            };
                            self.schedule_fault(
                                self.now + *down,
                                FaultSpec {
                                    target: target.clone(),
                                    kind: FaultKind::LinkUp,
                                },
                            );
                            if *count > 1 {
                                self.schedule_fault(
                                    self.now + *down + *up,
                                    FaultSpec {
                                        target,
                                        kind: FaultKind::LinkFlap {
                                            count: count - 1,
                                            down: *down,
                                            up: *up,
                                        },
                                    },
                                );
                            }
                        }
                        *count > 0
                    }
                    FaultKind::LinkDegrade {
                        bandwidth_bps,
                        delay,
                    } => {
                        link.degrade(*bandwidth_bps, *delay);
                        true
                    }
                    FaultKind::LinkRestore => {
                        link.restore();
                        link.set_up();
                        true
                    }
                    FaultKind::PacketLoss { pct } => {
                        link.set_loss(*pct);
                        true
                    }
                    FaultKind::PacketCorrupt { pct } => {
                        link.set_corrupt(*pct);
                        true
                    }
                    _ => false,
                };
                if changed {
                    self.trace.push(self.now, TraceKind::Fault { target, what });
                }
            }
            (FaultTarget::Controller(name), kind) => {
                let Some(ctrl) = self.controllers.iter_mut().find(|c| c.name() == name) else {
                    self.trace.push(
                        self.now,
                        TraceKind::Fault {
                            target,
                            what: "unknown controller (ignored)".into(),
                        },
                    );
                    return;
                };
                let changed = match kind {
                    FaultKind::ControllerCrash => {
                        let was_alive = ctrl.is_alive();
                        ctrl.crash();
                        was_alive
                    }
                    FaultKind::ControllerRestart => {
                        let was_dead = !ctrl.is_alive();
                        ctrl.restart();
                        was_dead
                    }
                    _ => false,
                };
                if changed {
                    self.trace.push(self.now, TraceKind::Fault { target, what });
                }
            }
            (FaultTarget::Switch(name), FaultKind::SwitchRestart) => {
                let Some(&node) = self.names.get(name.as_str()) else {
                    self.trace.push(
                        self.now,
                        TraceKind::Fault {
                            target,
                            what: "unknown switch (ignored)".into(),
                        },
                    );
                    return;
                };
                let mut fx = Vec::new();
                if let Node::Switch(s) = &mut self.nodes[node.0] {
                    s.restart(self.now, &mut fx);
                    self.trace.push(self.now, TraceKind::Fault { target, what });
                }
                self.apply_effects(node, fx);
            }
            (FaultTarget::Switch(_), _) => {
                // Unreachable through the parser; ignore quietly.
            }
        }
    }

    fn apply_effects(&mut self, node: NodeId, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Frame { out_port, frame } => {
                    let Some(&link_idx) = self.port_map.get(&(node, out_port)) else {
                        continue; // unconnected port
                    };
                    let link = &mut self.links[link_idx];
                    match link.transmit(node, frame.len(), self.now) {
                        TxOutcome::Arrives(at) => {
                            let mut frame = frame;
                            if !link.stochastic(&mut frame) {
                                continue; // lost; counted on the link
                            }
                            let far = link.opposite(node).expect("node attached");
                            let frame = self.arena.store(frame);
                            self.queue.schedule(
                                at,
                                EventKind::Frame {
                                    node: far.node,
                                    port: far.port,
                                    frame,
                                },
                            );
                        }
                        TxOutcome::Dropped => self.frames_dropped += 1,
                    }
                }
                Effect::Control { conn, frame } => {
                    // Only switches emit Control effects: direction fixed.
                    self.queue.schedule(
                        self.now,
                        EventKind::ProxyIngress {
                            conn,
                            direction: Direction::SwitchToController,
                            frame,
                        },
                    );
                }
                Effect::Timer { at, token } => {
                    self.queue
                        .schedule(at.max(self.now), EventKind::NodeTimer { node, token });
                }
                Effect::Trace(kind) => self.trace.push(self.now, kind),
            }
        }
    }
}
