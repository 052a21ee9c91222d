//! Topology construction: hosts, switches and links.

use std::time::Duration;

use crate::fault::FaultSpec;
use crate::network::Network;

/// Physical characteristics of a (bidirectional, full-duplex) link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: Duration,
    /// Fault model (applied independently per direction).
    pub fault: FaultSpec,
    /// Output queue capacity, in cells, at each transmitter on this link.
    pub queue_cells: usize,
}

impl LinkSpec {
    /// OC-3 (155.52 Mb/s), 50 µs propagation (LAN scale), lossless — the
    /// NYNET access links of the paper.
    pub fn oc3() -> Self {
        LinkSpec {
            bandwidth_bps: 155_520_000,
            propagation: Duration::from_micros(50),
            fault: FaultSpec::none(),
            queue_cells: 8192,
        }
    }

    /// A WAN OC-3: same line rate, `ms` milliseconds of propagation delay
    /// (NYNET spans New York state; the paper quotes 15 ms coast-to-coast).
    pub fn oc3_wan(ms: u64) -> Self {
        LinkSpec {
            propagation: Duration::from_millis(ms),
            ..Self::oc3()
        }
    }

    /// Replaces the fault model.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the line rate.
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Replaces the output queue capacity.
    pub fn with_queue(mut self, cells: usize) -> Self {
        self.queue_cells = cells;
        self
    }
}

/// Errors detected while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two nodes share a name.
    DuplicateName(String),
    /// A link references an unknown node.
    UnknownNode(String),
    /// A host was given more than one link (hosts are single-homed).
    HostMultiHomed(String),
    /// A host has no link at all.
    HostUnlinked(String),
    /// A link connects a node to itself.
    SelfLink(String),
    /// Zero bandwidth or zero queue.
    InvalidLink(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate node name '{n}'"),
            TopologyError::UnknownNode(n) => write!(f, "link references unknown node '{n}'"),
            TopologyError::HostMultiHomed(n) => {
                write!(
                    f,
                    "host '{n}' has more than one link (hosts are single-homed)"
                )
            }
            TopologyError::HostUnlinked(n) => write!(f, "host '{n}' has no link"),
            TopologyError::SelfLink(n) => write!(f, "node '{n}' linked to itself"),
            TopologyError::InvalidLink(n) => {
                write!(f, "link at '{n}' has zero bandwidth or queue capacity")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[derive(Debug, Clone)]
enum NodeSpec {
    Host(String),
    Switch(String),
}

#[derive(Debug, Clone)]
struct LinkDecl {
    a: String,
    b: String,
    spec: LinkSpec,
}

/// Builder for a simulated ATM network (C-BUILDER).
///
/// # Example
///
/// ```
/// use atm_sim::{NetworkBuilder, LinkSpec};
///
/// let net = NetworkBuilder::new()
///     .host("a")
///     .host("b")
///     .switch("sw")
///     .link("a", "sw", LinkSpec::oc3())
///     .link("b", "sw", LinkSpec::oc3())
///     .build()?;
/// assert!(net.node_id("a").is_some());
/// # Ok::<(), atm_sim::TopologyError>(())
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkDecl>,
}

impl NetworkBuilder {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host (AAL5 endpoint) called `name`.
    pub fn host(mut self, name: &str) -> Self {
        self.nodes.push(NodeSpec::Host(name.to_owned()));
        self
    }

    /// Adds a switch called `name`.
    pub fn switch(mut self, name: &str) -> Self {
        self.nodes.push(NodeSpec::Switch(name.to_owned()));
        self
    }

    /// Links nodes `a` and `b` with the given characteristics.
    pub fn link(mut self, a: &str, b: &str, spec: LinkSpec) -> Self {
        self.links.push(LinkDecl {
            a: a.to_owned(),
            b: b.to_owned(),
            spec,
        });
        self
    }

    /// Validates and materialises the network.
    ///
    /// # Errors
    ///
    /// See [`TopologyError`].
    pub fn build(self) -> Result<Network, TopologyError> {
        let mut names = std::collections::HashSet::new();
        for n in &self.nodes {
            let name = match n {
                NodeSpec::Host(n) | NodeSpec::Switch(n) => n,
            };
            if !names.insert(name.clone()) {
                return Err(TopologyError::DuplicateName(name.clone()));
            }
        }
        let mut net = Network::empty();
        for n in &self.nodes {
            match n {
                NodeSpec::Host(name) => net.add_host(name),
                NodeSpec::Switch(name) => net.add_switch(name),
            };
        }
        for l in &self.links {
            if l.a == l.b {
                return Err(TopologyError::SelfLink(l.a.clone()));
            }
            if l.spec.bandwidth_bps == 0 || l.spec.queue_cells == 0 {
                return Err(TopologyError::InvalidLink(l.a.clone()));
            }
            let a = net
                .node_id(&l.a)
                .ok_or_else(|| TopologyError::UnknownNode(l.a.clone()))?;
            let b = net
                .node_id(&l.b)
                .ok_or_else(|| TopologyError::UnknownNode(l.b.clone()))?;
            net.add_link(a, b, l.spec.clone())
                .map_err(TopologyError::HostMultiHomed)?;
        }
        net.check_hosts_linked()
            .map_err(TopologyError::HostUnlinked)?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_topology_builds() {
        let net = NetworkBuilder::new()
            .host("a")
            .host("b")
            .switch("s")
            .link("a", "s", LinkSpec::oc3())
            .link("b", "s", LinkSpec::oc3())
            .build()
            .unwrap();
        assert!(net.node_id("s").is_some());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = NetworkBuilder::new().host("x").switch("x").build();
        assert_eq!(err.unwrap_err(), TopologyError::DuplicateName("x".into()));
    }

    #[test]
    fn unknown_node_rejected() {
        let err = NetworkBuilder::new()
            .host("a")
            .link("a", "ghost", LinkSpec::oc3())
            .build();
        assert_eq!(err.unwrap_err(), TopologyError::UnknownNode("ghost".into()));
    }

    #[test]
    fn multi_homed_host_rejected() {
        let err = NetworkBuilder::new()
            .host("a")
            .switch("s1")
            .switch("s2")
            .link("a", "s1", LinkSpec::oc3())
            .link("a", "s2", LinkSpec::oc3())
            .build();
        assert_eq!(err.unwrap_err(), TopologyError::HostMultiHomed("a".into()));
    }

    #[test]
    fn unlinked_host_rejected() {
        let err = NetworkBuilder::new().host("lonely").build();
        assert_eq!(
            err.unwrap_err(),
            TopologyError::HostUnlinked("lonely".into())
        );
    }

    #[test]
    fn self_link_rejected() {
        let err = NetworkBuilder::new()
            .switch("s")
            .link("s", "s", LinkSpec::oc3())
            .build();
        assert_eq!(err.unwrap_err(), TopologyError::SelfLink("s".into()));
    }

    #[test]
    fn zero_bandwidth_rejected() {
        let err = NetworkBuilder::new()
            .host("a")
            .switch("s")
            .link("a", "s", LinkSpec::oc3().with_bandwidth(0))
            .build();
        assert_eq!(err.unwrap_err(), TopologyError::InvalidLink("a".into()));
    }

    #[test]
    fn link_spec_builders() {
        let s = LinkSpec::oc3_wan(15)
            .with_bandwidth(622_080_000)
            .with_queue(16)
            .with_fault(FaultSpec::cell_loss(0.01, 9));
        assert_eq!(s.propagation, Duration::from_millis(15));
        assert_eq!(s.bandwidth_bps, 622_080_000);
        assert_eq!(s.queue_cells, 16);
        assert!(s.fault.is_active());
    }
}
