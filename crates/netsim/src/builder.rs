//! Topology construction.
//!
//! Hand-written scenarios call [`NetworkBuilder::build`], which panics
//! on a malformed topology (a typo should fail loudly at the call
//! site). Generators producing thousands of nodes use
//! [`NetworkBuilder::try_build`], which returns a typed [`BuildError`]
//! naming the offending node — builder methods themselves never panic
//! on bad references; every problem is deferred and reported at build
//! time with its context.

use crate::budget::RunBudget;
use crate::controller_host::ControllerHost;
use crate::engine::NodeId;
use crate::fault::{FaultPlan, FaultSpec};
use crate::host::Host;
use crate::link::{Link, LinkEnd};
use crate::sim::{Connection, Node, Simulation};
use crate::switch::{EvictionPolicy, FailMode, Switch};
use crate::time::SimTime;
use attain_controllers::Controller;
use attain_openflow::{DatapathId, MacAddr, PortNo};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Reference to a controller added to a [`NetworkBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerRef(pub usize);

/// Physical characteristics of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimTime,
}

impl Default for LinkParams {
    /// The paper's testbed links: 100 Mb/s, with a quarter-millisecond
    /// of propagation/stack delay.
    fn default() -> Self {
        LinkParams {
            bandwidth_bps: 100_000_000,
            delay: SimTime::from_micros(250),
        }
    }
}

/// A malformed topology, detected at build time.
///
/// Every variant names the offending node (or the offending call's
/// position), so a generator emitting thousands of builder calls fails
/// fast with something actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two nodes share a name.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// A host's IP address did not parse.
    InvalidIp {
        /// The host's name.
        name: String,
        /// The rejected address text.
        ip: String,
    },
    /// A link references a node id that was never created.
    DanglingLink {
        /// Index of the link (in creation order).
        index: usize,
        /// The out-of-range node id.
        id: NodeId,
    },
    /// A link connects a node to itself.
    SelfLink {
        /// The node's name.
        name: String,
    },
    /// A host has more than one link.
    MultihomedHost {
        /// The host's name.
        name: String,
    },
    /// A switch-only configuration call targeted a host or an unknown
    /// id.
    NotASwitch {
        /// The target's name, or `n<id>` if the id was out of range.
        name: String,
        /// Which call misfired (`set_fail_mode`, `set_table`).
        context: &'static str,
    },
    /// A control connection references a controller that was never
    /// added.
    DanglingController {
        /// Index of the control connection (in creation order).
        index: usize,
    },
    /// A control connection's switch end is a host or an unknown id.
    ControlOnHost {
        /// The target's name, or `n<id>` if the id was out of range.
        name: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateName { name } => write!(f, "duplicate node name {name}"),
            BuildError::InvalidIp { name, ip } => write!(f, "host {name}: invalid ip {ip}"),
            BuildError::DanglingLink { index, id } => {
                write!(f, "link #{index} references unknown node {id}")
            }
            BuildError::SelfLink { name } => write!(f, "link connects {name} to itself"),
            BuildError::MultihomedHost { name } => {
                write!(f, "host {name} may have only one link")
            }
            BuildError::NotASwitch { name, context } => {
                write!(f, "{context}: {name} is not a switch")
            }
            BuildError::DanglingController { index } => {
                write!(f, "control #{index} references an unknown controller")
            }
            BuildError::ControlOnHost { name } => write!(
                f,
                "{name} is a host; control connections attach to switches"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

enum NodeSpec {
    Host {
        name: String,
        /// Unparsed: validated in `try_build` so a bad address is a
        /// `BuildError`, not a panic mid-generation.
        ip: String,
    },
    Switch {
        name: String,
        fail_mode: FailMode,
        /// `(capacity, policy)` flow-table bound; `None` keeps the
        /// default (1024 entries, reject-on-full).
        table: Option<(usize, EvictionPolicy)>,
    },
}

impl NodeSpec {
    fn name(&self) -> &str {
        match self {
            NodeSpec::Host { name, .. } | NodeSpec::Switch { name, .. } => name,
        }
    }
}

/// Builds a [`Simulation`] from hosts, switches, links, controllers, and
/// control-plane connections — the system model `(C, S, H, N_D, N_C)` of
/// the paper's §IV-A, in executable form.
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<(NodeId, PortNo, NodeId, PortNo, LinkParams)>,
    /// Next free port number per node id (ports are assigned at link
    /// creation, in link order, so generators learn their wiring as
    /// they emit it).
    next_port: Vec<u16>,
    controllers: Vec<(String, Box<dyn Controller>)>,
    controls: Vec<(ControllerRef, NodeId, SimTime)>,
    faults: FaultPlan,
    budget: RunBudget,
    /// Errors from misused builder calls, reported by `try_build`.
    deferred: Vec<BuildError>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Adds an end host with the given IPv4 address (validated at
    /// build time).
    pub fn host(&mut self, name: &str, ip: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSpec::Host {
            name: name.to_string(),
            ip: ip.to_string(),
        });
        self.next_port.push(0);
        id
    }

    /// Adds a switch with the default fail mode (`secure`, OVS's
    /// OpenFlow-era default).
    pub fn switch(&mut self, name: &str) -> NodeId {
        self.switch_with_mode(name, FailMode::Secure)
    }

    /// Adds a switch with an explicit fail mode.
    pub fn switch_with_mode(&mut self, name: &str, fail_mode: FailMode) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSpec::Switch {
            name: name.to_string(),
            fail_mode,
            table: None,
        });
        self.next_port.push(0);
        id
    }

    /// The name a diagnostics message should use for `id`.
    fn name_for(&self, id: NodeId) -> String {
        self.nodes
            .get(id.0)
            .map(|n| n.name().to_string())
            .unwrap_or_else(|| id.to_string())
    }

    /// Changes a switch's fail mode (before `build`). Targeting a host
    /// or an unknown id is reported at build time.
    pub fn set_fail_mode(&mut self, id: NodeId, mode: FailMode) {
        match self.nodes.get_mut(id.0) {
            Some(NodeSpec::Switch { fail_mode, .. }) => *fail_mode = mode,
            _ => {
                let name = self.name_for(id);
                self.deferred.push(BuildError::NotASwitch {
                    name,
                    context: "set_fail_mode",
                });
            }
        }
    }

    /// Bounds a switch's flow table (before `build`): `capacity` entries
    /// plus the overflow policy applied once it fills. Targeting a host
    /// or an unknown id is reported at build time.
    pub fn set_table(&mut self, id: NodeId, capacity: usize, policy: EvictionPolicy) {
        match self.nodes.get_mut(id.0) {
            Some(NodeSpec::Switch { table, .. }) => *table = Some((capacity, policy)),
            _ => {
                let name = self.name_for(id);
                self.deferred.push(BuildError::NotASwitch {
                    name,
                    context: "set_table",
                });
            }
        }
    }

    /// Connects two nodes with a default link, returning the assigned
    /// `(port_on_a, port_on_b)`. Port numbers are assigned in
    /// link-creation order, matching the paper's `p_{i,j}` figures.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> (PortNo, PortNo) {
        self.link_with(a, b, LinkParams::default())
    }

    /// Connects two nodes with explicit link parameters, returning the
    /// assigned `(port_on_a, port_on_b)`.
    pub fn link_with(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> (PortNo, PortNo) {
        let mut assign = |id: NodeId| -> PortNo {
            match self.next_port.get_mut(id.0) {
                Some(n) => {
                    *n += 1;
                    PortNo(*n)
                }
                // Dangling id: reported by try_build; the placeholder
                // port never reaches a simulation.
                None => PortNo(0),
            }
        };
        let pa = assign(a);
        let pb = assign(b);
        self.links.push((a, pa, b, pb, params));
        (pa, pb)
    }

    /// Adds a controller hosting `app`.
    pub fn controller(&mut self, name: &str, app: Box<dyn Controller>) -> ControllerRef {
        let r = ControllerRef(self.controllers.len());
        self.controllers.push((name.to_string(), app));
        r
    }

    /// Adds a control-plane connection `(controller, switch)` to `N_C`
    /// with 1 ms one-way latency.
    pub fn control(&mut self, ctrl: ControllerRef, switch: NodeId) {
        self.control_with_latency(ctrl, switch, SimTime::from_millis(1));
    }

    /// Adds a control-plane connection with explicit one-way latency.
    pub fn control_with_latency(&mut self, ctrl: ControllerRef, switch: NodeId, latency: SimTime) {
        self.controls.push((ctrl, switch, latency));
    }

    /// Sets the scenario seed for the per-link loss/corruption streams.
    pub fn fault_seed(&mut self, seed: u64) {
        self.faults.seed = seed;
    }

    /// Schedules an environment fault for `at` (virtual time).
    pub fn fault_at(&mut self, at: SimTime, spec: FaultSpec) {
        self.faults.events.push((at, spec));
    }

    /// Installs the run budget the built simulation will enforce
    /// (default: unlimited).
    pub fn run_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// Schedules a fault from its textual form (`link s1-s2 down`, …).
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not parse; builder-time specs are authored
    /// by the experimenter, so a typo should fail loudly.
    pub fn fault_at_str(&mut self, at: SimTime, spec: &str) {
        let spec = FaultSpec::parse(spec).unwrap_or_else(|e| panic!("{e}"));
        self.fault_at(at, spec);
    }

    /// Validates the accumulated topology, returning the first problem.
    fn validate(&self) -> Result<(), BuildError> {
        if let Some(err) = self.deferred.first() {
            return Err(err.clone());
        }
        let mut seen: HashMap<&str, ()> = HashMap::with_capacity(self.nodes.len());
        for spec in &self.nodes {
            if seen.insert(spec.name(), ()).is_some() {
                return Err(BuildError::DuplicateName {
                    name: spec.name().to_string(),
                });
            }
            if let NodeSpec::Host { name, ip } = spec {
                if ip.parse::<Ipv4Addr>().is_err() {
                    return Err(BuildError::InvalidIp {
                        name: name.clone(),
                        ip: ip.clone(),
                    });
                }
            }
        }
        for (index, &(a, pa, b, pb, _)) in self.links.iter().enumerate() {
            for id in [a, b] {
                if id.0 >= self.nodes.len() {
                    return Err(BuildError::DanglingLink { index, id });
                }
            }
            if a == b {
                return Err(BuildError::SelfLink {
                    name: self.nodes[a.0].name().to_string(),
                });
            }
            for (id, port) in [(a, pa), (b, pb)] {
                if matches!(self.nodes[id.0], NodeSpec::Host { .. })
                    && port != crate::host::HOST_PORT
                {
                    return Err(BuildError::MultihomedHost {
                        name: self.nodes[id.0].name().to_string(),
                    });
                }
            }
        }
        for (index, &(ctrl, switch, _)) in self.controls.iter().enumerate() {
            if ctrl.0 >= self.controllers.len() {
                return Err(BuildError::DanglingController { index });
            }
            match self.nodes.get(switch.0) {
                Some(NodeSpec::Switch { .. }) => {}
                _ => {
                    return Err(BuildError::ControlOnHost {
                        name: self.name_for(switch),
                    });
                }
            }
        }
        Ok(())
    }

    /// Assembles the simulation, returning a typed error for a
    /// malformed topology. This is the generator-facing entry point:
    /// it never panics on topology mistakes.
    pub fn try_build(self) -> Result<Simulation, BuildError> {
        self.validate()?;

        let host_count = self
            .nodes
            .iter()
            .filter(|n| matches!(n, NodeSpec::Host { .. }))
            .count();
        // Topology hints for hot-map pre-sizing (capped: a MAC table
        // only learns sources whose traffic traverses the switch, so
        // reserving the full host count on every switch of a large
        // fabric would be pure waste).
        let mac_hint = host_count.min(4096);
        let capacity_hint = self.nodes.len() * 4 + self.links.len() * 2;

        let mut names = HashMap::with_capacity(self.nodes.len());
        let mut nodes: Vec<Node> = Vec::with_capacity(self.nodes.len());
        let mut dpid = 0u64;
        for (i, spec) in self.nodes.into_iter().enumerate() {
            let id = NodeId(i);
            match spec {
                NodeSpec::Host { name, ip } => {
                    names.insert(name.clone(), id);
                    // Host MACs derive from the node index; switch port
                    // MACs derive from the dpid, so they cannot collide.
                    nodes.push(Node::Host(Host::new(
                        id,
                        name,
                        MacAddr::from_low(i as u64 + 1),
                        ip.parse().expect("validated above"),
                    )));
                }
                NodeSpec::Switch {
                    name,
                    fail_mode,
                    table,
                } => {
                    dpid += 1;
                    names.insert(name.clone(), id);
                    let mut switch = Switch::new(id, name, DatapathId(dpid), fail_mode);
                    if let Some((capacity, policy)) = table {
                        switch.set_table_config(capacity, policy);
                    }
                    switch.reserve_mac_table(mac_hint);
                    nodes.push(Node::Switch(Box::new(switch)));
                }
            }
        }

        let mut links = Vec::with_capacity(self.links.len());
        let mut port_map = HashMap::with_capacity(self.links.len() * 2);
        for (a, pa, b, pb, params) in self.links {
            for (id, port) in [(a, pa), (b, pb)] {
                if let Node::Switch(s) = &mut nodes[id.0] {
                    s.add_port(port);
                }
            }
            let idx = links.len();
            links.push(Link::new(
                LinkEnd { node: a, port: pa },
                LinkEnd { node: b, port: pb },
                params.bandwidth_bps,
                params.delay,
            ));
            port_map.insert((a, pa), idx);
            port_map.insert((b, pb), idx);
        }

        let mut controllers: Vec<ControllerHost> = self
            .controllers
            .into_iter()
            .map(|(name, app)| ControllerHost::new(name, app))
            .collect();
        let mut connections = Vec::with_capacity(self.controls.len());
        for (i, (ctrl, switch, latency)) in self.controls.into_iter().enumerate() {
            if let Node::Switch(s) = &mut nodes[switch.0] {
                s.add_conn(crate::engine::ConnId(i));
            }
            controllers[ctrl.0].add_conn(crate::engine::ConnId(i));
            connections.push(Connection {
                controller: ctrl.0,
                switch,
                latency,
            });
        }

        let mut sim = Simulation::assemble(
            nodes,
            links,
            port_map,
            controllers,
            connections,
            names,
            capacity_hint,
        );
        sim.apply_fault_plan(&self.faults);
        sim.set_run_budget(self.budget);
        Ok(sim)
    }

    /// Assembles the simulation.
    ///
    /// # Panics
    ///
    /// Panics on any [`BuildError`] — duplicate names, invalid IPs,
    /// dangling references, multihomed hosts, controls on hosts. The
    /// non-panicking form is [`NetworkBuilder::try_build`].
    pub fn build(self) -> Simulation {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_controllers::ControllerKind;

    #[test]
    fn builds_a_minimal_network() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        b.link(h1, s1);
        b.link(h2, s1);
        let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
        b.control(c1, s1);
        let sim = b.build();
        assert_eq!(sim.host("h1").ip(), "10.0.0.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(sim.switch("s1").dpid(), DatapathId(1));
        let infos = sim.conn_infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].controller, "c1");
        assert_eq!(infos[0].switch, "s1");
    }

    #[test]
    fn set_table_bounds_the_switch() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let s1 = b.switch("s1");
        b.link(h1, s1);
        b.set_table(s1, 8, EvictionPolicy::EvictLru);
        let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
        b.control(c1, s1);
        let sim = b.build();
        assert_eq!(sim.switch("s1").flow_table().capacity(), 8);
        assert_eq!(
            sim.switch("s1").flow_table().policy(),
            EvictionPolicy::EvictLru
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn rejects_duplicate_names() {
        let mut b = NetworkBuilder::new();
        b.host("h1", "10.0.0.1");
        b.host("h1", "10.0.0.2");
        b.build();
    }

    #[test]
    #[should_panic(expected = "may have only one link")]
    fn rejects_multihomed_hosts() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        b.link(h1, s1);
        b.link(h1, s2);
        b.build();
    }

    #[test]
    fn try_build_reports_typed_errors() {
        // Duplicate name, surfaced with the offending name.
        let mut b = NetworkBuilder::new();
        b.switch("s1");
        b.switch("s1");
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::DuplicateName { name: "s1".into() })
        );

        // Invalid IP.
        let mut b = NetworkBuilder::new();
        b.host("h1", "10.0.0.256");
        match b.try_build() {
            Err(BuildError::InvalidIp { name, ip }) => {
                assert_eq!(name, "h1");
                assert_eq!(ip, "10.0.0.256");
            }
            other => panic!("expected InvalidIp, got {other:?}"),
        }

        // Dangling link endpoint.
        let mut b = NetworkBuilder::new();
        let s1 = b.switch("s1");
        b.link(s1, NodeId(17));
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::DanglingLink {
                index: 0,
                id: NodeId(17)
            })
        );

        // Self link.
        let mut b = NetworkBuilder::new();
        let s1 = b.switch("s1");
        b.link(s1, s1);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::SelfLink { name: "s1".into() })
        );

        // Multihomed host.
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        b.link(h1, s1);
        b.link(h1, s2);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::MultihomedHost { name: "h1".into() })
        );

        // set_table on a host (deferred, not a panic).
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        b.set_table(h1, 8, EvictionPolicy::Reject);
        match b.try_build() {
            Err(BuildError::NotASwitch { name, context }) => {
                assert_eq!(name, "h1");
                assert_eq!(context, "set_table");
            }
            other => panic!("expected NotASwitch, got {other:?}"),
        }

        // Control connection on a host.
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
        b.control(c1, h1);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::ControlOnHost { name: "h1".into() })
        );

        // Control referencing a controller that was never added.
        let mut b = NetworkBuilder::new();
        let s1 = b.switch("s1");
        b.control(ControllerRef(3), s1);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::DanglingController { index: 0 })
        );

        // Error messages carry the offending name.
        let err = BuildError::DuplicateName {
            name: "e3_1".into(),
        };
        assert!(err.to_string().contains("e3_1"));
    }

    #[test]
    fn switch_ports_number_in_link_order() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        // Figure 3's shape: h1,h2 on s1 (ports 1,2); s1-s2 (s1 port 3).
        let (p1, q1) = b.link(h1, s1);
        b.link(h2, s1);
        let (p3, p4) = b.link(s1, s2);
        assert_eq!((p1, q1), (PortNo(1), PortNo(1)));
        assert_eq!((p3, p4), (PortNo(3), PortNo(1)));
        let sim = b.build();
        assert!(sim.port_map.contains_key(&(s1, PortNo(3))));
        assert!(sim.port_map.contains_key(&(s2, PortNo(1))));
        assert!(!sim.port_map.contains_key(&(s2, PortNo(2))));
    }
}
