//! Node state: hosts (AAL5 endpoints) and switches (VCI-swapping fabric).

use std::collections::HashMap;

use crate::aal5::Reassembler;
use crate::cell::Vc;
use crate::network::{ConnId, NodeId, QosParams, SetupTicket};
use crate::stats::ConnStats;

/// Index of a link in the network's link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LinkIndex(pub usize);

/// Lifecycle of a host connection endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// SETUP sent, waiting for CONNECT.
    SetupSent(SetupTicket),
    /// Fully established.
    Active,
    /// Torn down; retained for post-mortem stats queries.
    Released,
}

/// One endpoint of a virtual circuit at a host.
#[derive(Debug)]
pub(crate) struct HostConn {
    pub state: ConnState,
    /// The VC on this host's access link.
    pub vc: Vc,
    /// Remote host.
    pub peer: NodeId,
    /// Remote connection id (known once Active).
    pub peer_conn: Option<ConnId>,
    pub qos: QosParams,
    /// Links along the path, ordered from this host towards the peer.
    pub path_links: Vec<LinkIndex>,
    /// VCI on each of `path_links`.
    pub path_vcis: Vec<u16>,
    pub reasm: Reassembler,
    pub stats: ConnStats,
}

/// A host: terminates VCs and performs AAL5 SAR.
#[derive(Debug)]
pub(crate) struct Host {
    pub name: String,
    /// The single access link (hosts are single-homed in this model).
    pub access: Option<LinkIndex>,
    pub conns: HashMap<ConnId, HostConn>,
    /// Demultiplexes incoming cells: VCI on the access link -> connection.
    pub vc_to_conn: HashMap<u16, ConnId>,
    pub next_conn: u32,
}

impl Host {
    pub(crate) fn new(name: String) -> Self {
        Host {
            name,
            access: None,
            conns: HashMap::new(),
            vc_to_conn: HashMap::new(),
            next_conn: 0,
        }
    }

    pub(crate) fn alloc_conn(&mut self) -> ConnId {
        let id = ConnId::from_raw(self.next_conn);
        self.next_conn += 1;
        id
    }
}

/// A switch: swaps VCIs between ports according to its connection table.
#[derive(Debug)]
pub(crate) struct Switch {
    /// Port index -> attached link.
    pub ports: Vec<LinkIndex>,
    /// (input port, input VCI) -> (output port, output VCI).
    pub table: HashMap<(usize, u16), (usize, u16)>,
}

impl Switch {
    pub(crate) fn new() -> Self {
        Switch {
            ports: Vec::new(),
            table: HashMap::new(),
        }
    }

    /// The port to which `link` is attached, if any.
    pub(crate) fn port_of_link(&self, link: LinkIndex) -> Option<usize> {
        self.ports.iter().position(|&l| l == link)
    }
}

/// A network node.
#[derive(Debug)]
pub(crate) enum Node {
    Host(Host),
    Switch(Switch),
}

impl Node {
    pub(crate) fn as_host_mut(&mut self) -> Option<&mut Host> {
        match self {
            Node::Host(h) => Some(h),
            Node::Switch(_) => None,
        }
    }

    pub(crate) fn as_host(&self) -> Option<&Host> {
        match self {
            Node::Host(h) => Some(h),
            Node::Switch(_) => None,
        }
    }

    pub(crate) fn as_switch_mut(&mut self) -> Option<&mut Switch> {
        match self {
            Node::Switch(s) => Some(s),
            Node::Host(_) => None,
        }
    }
}
