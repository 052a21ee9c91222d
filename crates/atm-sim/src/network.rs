//! The simulated ATM network: hosts, switches, links, signaling and the
//! cell-level data path, all driven by the deterministic event core.

use std::collections::HashMap;
use std::time::Duration;

use crate::aal5;
use crate::cell::{AtmCell, Vc, CELL_SIZE};
use crate::engine::{EventKind, EventQueue, NetEvent};
use crate::fault::{Fate, FaultProcess};
use crate::node::{ConnState, Host, HostConn, LinkIndex, Node, Switch};
use crate::stats::{ConnStats, NetStats};
use crate::time::{tx_time, SimTime};
use crate::topology::LinkSpec;

/// Per-hop signaling processing cost (call setup handling in the switch
/// control processor; ~100 µs is representative of 1990s SVC signaling).
const SIG_PROC: Duration = Duration::from_micros(100);

/// Identifier of a node (host or switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Constructs from a raw index (test/diagnostic use).
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub fn as_raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Identifier of a connection endpoint at one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(u32);

impl ConnId {
    /// Constructs from a raw index.
    pub fn from_raw(raw: u32) -> Self {
        ConnId(raw)
    }

    /// The raw index.
    pub fn as_raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn-{}", self.0)
    }
}

/// Ticket identifying an in-flight `open_vc` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetupTicket(u64);

/// ATM service category (UNI traffic classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServiceCategory {
    /// Constant bit rate.
    Cbr,
    /// Variable bit rate.
    Vbr,
    /// Available bit rate.
    Abr,
    /// Unspecified bit rate (best effort).
    #[default]
    Ubr,
}

/// QoS parameters for a VC.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosParams {
    /// Traffic class.
    pub category: ServiceCategory,
    /// Peak cell rate in cells/second; ingress-shaped at the source host.
    /// `None` means line rate.
    pub peak_cell_rate: Option<u64>,
}

impl QosParams {
    /// Best-effort UBR with no rate cap.
    pub fn unspecified() -> Self {
        QosParams::default()
    }

    /// CBR shaped to `cells_per_sec`.
    pub fn cbr(cells_per_sec: u64) -> Self {
        QosParams {
            category: ServiceCategory::Cbr,
            peak_cell_rate: Some(cells_per_sec),
        }
    }
}

/// A successfully established VC, reported by [`Network::established`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstablishedVc {
    /// The `open_vc` ticket this answers.
    pub ticket: SetupTicket,
    /// Originating host.
    pub local: NodeId,
    /// Connection id at the originating host.
    pub conn: ConnId,
    /// Remote host.
    pub peer: NodeId,
    /// Connection id at the remote host.
    pub peer_conn: ConnId,
}

/// Errors returned by network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtmError {
    /// Named node does not exist.
    UnknownNode(String),
    /// Operation requires a host but the node is a switch (or vice versa).
    NotAHost(NodeId),
    /// No path exists between the two hosts.
    NoRoute(NodeId, NodeId),
    /// Connection id is unknown at this host.
    UnknownConn(NodeId, ConnId),
    /// Connection is not in a state that allows the operation.
    NotActive(ConnId),
    /// Frame violates AAL5 limits.
    BadFrame(aal5::SegmentError),
}

impl std::fmt::Display for AtmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtmError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            AtmError::NotAHost(n) => write!(f, "{n} is not a host"),
            AtmError::NoRoute(a, b) => write!(f, "no route between {a} and {b}"),
            AtmError::UnknownConn(h, c) => write!(f, "host {h} has no connection {c}"),
            AtmError::NotActive(c) => write!(f, "connection {c} is not active"),
            AtmError::BadFrame(e) => write!(f, "invalid frame: {e}"),
        }
    }
}

impl std::error::Error for AtmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AtmError::BadFrame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aal5::SegmentError> for AtmError {
    fn from(e: aal5::SegmentError) -> Self {
        AtmError::BadFrame(e)
    }
}

/// Signaling messages exchanged hop by hop to manage VCs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SignalMsg {
    /// Travels origin -> dest installing VCI mappings.
    Setup {
        ticket: SetupTicket,
        origin: NodeId,
        origin_conn: ConnId,
        dest: NodeId,
        qos: QosParams,
        /// Links along the route, origin side first.
        path_links: Vec<LinkIndex>,
        /// VCI allocated on each traversed link so far.
        vcis: Vec<u16>,
        /// Index into `path_links` of the next link to traverse.
        hop: usize,
    },
    /// Travels dest -> origin confirming establishment.
    Connect {
        ticket: SetupTicket,
        origin: NodeId,
        origin_conn: ConnId,
        dest: NodeId,
        dest_conn: ConnId,
        path_links: Vec<LinkIndex>,
        vcis: Vec<u16>,
        /// Index into `path_links` of the link just traversed (walking back).
        hop: usize,
    },
    /// Travels releaser -> peer uninstalling VCI mappings.
    Release {
        /// Links from the releasing host towards the peer.
        path_links: Vec<LinkIndex>,
        vcis: Vec<u16>,
        hop: usize,
    },
}

/// One direction of a link.
#[derive(Debug)]
struct LinkDir {
    /// When the transmitter at this end is next free.
    next_free: SimTime,
    fault: FaultProcess,
}

#[derive(Debug)]
struct Link {
    spec: LinkSpec,
    /// `ends[d]` transmits on direction `d`; direction 0 is ends[0]→ends[1].
    ends: [NodeId; 2],
    dirs: [LinkDir; 2],
    next_vci: u16,
}

impl Link {
    fn dir_from(&self, node: NodeId) -> usize {
        if self.ends[0] == node {
            0
        } else {
            debug_assert_eq!(self.ends[1], node);
            1
        }
    }

    fn other_end(&self, node: NodeId) -> NodeId {
        self.ends[(self.dir_from(node) + 1) % 2]
    }

    fn alloc_vci(&mut self) -> u16 {
        let vci = self.next_vci;
        self.next_vci += 1;
        vci
    }
}

/// The simulated network. See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_name: HashMap<String, NodeId>,
    queue: EventQueue,
    now: SimTime,
    events: Vec<NetEvent>,
    established: HashMap<SetupTicket, EstablishedVc>,
    next_ticket: u64,
    stats: NetStats,
}

impl Network {
    pub(crate) fn empty() -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            by_name: HashMap::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events: Vec::new(),
            established: HashMap::new(),
            next_ticket: 0,
            stats: NetStats::default(),
        }
    }

    pub(crate) fn add_host(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Host(Host::new(name.to_owned())));
        self.by_name.insert(name.to_owned(), id);
        id
    }

    pub(crate) fn add_switch(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Switch(Switch::new()));
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Returns Err(host name) if a host would become multi-homed.
    pub(crate) fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        spec: LinkSpec,
    ) -> Result<LinkIndex, String> {
        let id = LinkIndex(self.links.len());
        for node in [a, b] {
            match &mut self.nodes[node.0 as usize] {
                Node::Host(h) => {
                    if h.access.is_some() {
                        return Err(h.name.clone());
                    }
                    h.access = Some(id);
                }
                Node::Switch(s) => s.ports.push(id),
            }
        }
        let fault = spec.fault.clone();
        self.links.push(Link {
            spec,
            ends: [a, b],
            dirs: [
                LinkDir {
                    next_free: SimTime::ZERO,
                    fault: FaultProcess::new(seeded_fault(&fault, 0)),
                },
                LinkDir {
                    next_free: SimTime::ZERO,
                    fault: FaultProcess::new(seeded_fault(&fault, 1)),
                },
            ],
            next_vci: Vc::FIRST_UNRESERVED_VCI,
        });
        Ok(id)
    }

    pub(crate) fn check_hosts_linked(&self) -> Result<(), String> {
        for node in &self.nodes {
            if let Node::Host(h) = node {
                if h.access.is_none() {
                    return Err(h.name.clone());
                }
            }
        }
        Ok(())
    }

    /// Looks up a node by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Virtual time of the next pending event whose outcome can be
    /// observed — a signal, or a frame's last cell reaching a switch or a
    /// host: no [`NetEvent`] comes out before it (but a reassembly that
    /// overflows for want of an end cell, which is reported at the next
    /// run).
    pub fn next_observable_time(&self) -> Option<SimTime> {
        self.queue.next_mark()
    }

    /// Network-wide statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Statistics of one connection.
    pub fn conn_stats(&self, host: NodeId, conn: ConnId) -> Option<ConnStats> {
        self.nodes[host.0 as usize]
            .as_host()?
            .conns
            .get(&conn)
            .map(|c| c.stats)
    }

    /// The remote host and (once established) remote connection of a local
    /// connection endpoint.
    pub fn conn_peer(&self, host: NodeId, conn: ConnId) -> Option<(NodeId, Option<ConnId>)> {
        self.nodes[host.0 as usize]
            .as_host()?
            .conns
            .get(&conn)
            .map(|c| (c.peer, c.peer_conn))
    }

    /// The established record for `ticket`, once signaling completed.
    pub fn established(&self, ticket: SetupTicket) -> Option<EstablishedVc> {
        self.established.get(&ticket).copied()
    }

    /// Initiates VC setup from host `from` to host `to` (both by name).
    /// Completion is reported via [`NetEvent::VcEstablished`] and
    /// [`Network::established`].
    ///
    /// # Errors
    ///
    /// Fails synchronously for unknown names, non-hosts or unroutable pairs.
    pub fn open_vc(
        &mut self,
        from: &str,
        to: &str,
        qos: QosParams,
    ) -> Result<SetupTicket, AtmError> {
        let origin = self
            .node_id(from)
            .ok_or_else(|| AtmError::UnknownNode(from.to_owned()))?;
        let dest = self
            .node_id(to)
            .ok_or_else(|| AtmError::UnknownNode(to.to_owned()))?;
        self.open_vc_ids(origin, dest, qos)
    }

    /// [`Network::open_vc`] with node ids.
    ///
    /// # Errors
    ///
    /// As [`Network::open_vc`].
    pub fn open_vc_ids(
        &mut self,
        origin: NodeId,
        dest: NodeId,
        qos: QosParams,
    ) -> Result<SetupTicket, AtmError> {
        if self.nodes[origin.0 as usize].as_host().is_none() {
            return Err(AtmError::NotAHost(origin));
        }
        if self.nodes[dest.0 as usize].as_host().is_none() {
            return Err(AtmError::NotAHost(dest));
        }
        let path_links = self
            .route(origin, dest)
            .ok_or(AtmError::NoRoute(origin, dest))?;
        let ticket = SetupTicket(self.next_ticket);
        self.next_ticket += 1;

        // Allocate the VCI on the first link and create the local endpoint.
        let first_link = path_links[0];
        let vci0 = self.links[first_link.0].alloc_vci();
        let origin_host = self.nodes[origin.0 as usize]
            .as_host_mut()
            .expect("checked above");
        let conn = origin_host.alloc_conn();
        origin_host.conns.insert(
            conn,
            HostConn {
                state: ConnState::SetupSent(ticket),
                vc: Vc::new(vci0),
                peer: dest,
                peer_conn: None,
                qos,
                path_links: path_links.clone(),
                path_vcis: vec![vci0],
                reasm: aal5::Reassembler::new(),
                stats: ConnStats::default(),
            },
        );
        origin_host.vc_to_conn.insert(vci0, conn);
        self.stats.setups += 1;

        // Launch the SETUP towards the first hop.
        let next = self.links[first_link.0].other_end(origin);
        let at = self.now + SIG_PROC + self.links[first_link.0].spec.propagation;
        self.queue.schedule(
            at,
            EventKind::Signal {
                node: next,
                msg: SignalMsg::Setup {
                    ticket,
                    origin,
                    origin_conn: conn,
                    dest,
                    qos,
                    path_links,
                    vcis: vec![vci0],
                    hop: 1,
                },
            },
        );
        Ok(ticket)
    }

    /// Tears down an active VC from either endpoint.
    ///
    /// # Errors
    ///
    /// Fails for unknown hosts/connections or inactive connections.
    pub fn close_vc(&mut self, host: NodeId, conn: ConnId) -> Result<(), AtmError> {
        let h = self.nodes[host.0 as usize]
            .as_host_mut()
            .ok_or(AtmError::NotAHost(host))?;
        let hc = h
            .conns
            .get_mut(&conn)
            .ok_or(AtmError::UnknownConn(host, conn))?;
        if hc.state != ConnState::Active {
            return Err(AtmError::NotActive(conn));
        }
        hc.state = ConnState::Released;
        let vci = hc.vc.vci;
        let path_links = hc.path_links.clone();
        let vcis = hc.path_vcis.clone();
        h.vc_to_conn.remove(&vci);
        self.stats.releases += 1;
        let first = path_links[0];
        let next = self.links[first.0].other_end(host);
        let at = self.now + SIG_PROC + self.links[first.0].spec.propagation;
        self.queue.schedule(
            at,
            EventKind::Signal {
                node: next,
                msg: SignalMsg::Release {
                    path_links,
                    vcis,
                    hop: 1,
                },
            },
        );
        Ok(())
    }

    /// Submits an AAL5 frame on an active connection. The frame is segmented
    /// into cells and paced onto the access link at line (or PCR) rate.
    ///
    /// # Errors
    ///
    /// Fails for unknown/inactive connections and frames outside AAL5
    /// limits.
    pub fn send_frame(
        &mut self,
        host: NodeId,
        conn: ConnId,
        frame: Vec<u8>,
    ) -> Result<(), AtmError> {
        let (vc, link_id) = {
            let h = self.nodes[host.0 as usize]
                .as_host_mut()
                .ok_or(AtmError::NotAHost(host))?;
            let hc = h
                .conns
                .get_mut(&conn)
                .ok_or(AtmError::UnknownConn(host, conn))?;
            if hc.state != ConnState::Active {
                return Err(AtmError::NotActive(conn));
            }
            let link = h.access.expect("hosts always have an access link");
            hc.stats.frames_sent += 1;
            (hc.vc, link)
        };
        let mut cells = aal5::segment(vc, &frame)?;
        for c in &mut cells {
            // CLP 1 marks best-effort cells, the ones fault injection takes.
            c.clp = true;
        }
        let ncells = cells.len() as u64;
        if let Some(hc) = self.nodes[host.0 as usize]
            .as_host_mut()
            .and_then(|h| h.conns.get_mut(&conn))
        {
            hc.stats.cells_sent += ncells;
        }
        for cell in cells {
            self.transmit(host, link_id, cell, true);
        }
        Ok(())
    }

    /// Transmits one cell from `node` onto `link`. `from_host` applies the
    /// host-side PCR shaping interval (ingress shaping only).
    fn transmit(&mut self, node: NodeId, link_id: LinkIndex, mut cell: AtmCell, from_host: bool) {
        let (dir, line_interval, propagation, queue_cells, peer) = {
            let link = &self.links[link_id.0];
            (
                link.dir_from(node),
                tx_time(CELL_SIZE, link.spec.bandwidth_bps),
                link.spec.propagation,
                link.spec.queue_cells,
                link.other_end(node),
            )
        };
        // PCR shaping: hosts pace their VCs at min(line rate, PCR).
        let mut interval = line_interval;
        if from_host {
            if let Some(host) = self.nodes[node.0 as usize].as_host() {
                let pcr = host
                    .vc_to_conn
                    .get(&cell.vc.vci)
                    .and_then(|c| host.conns.get(c))
                    .and_then(|hc| hc.qos.peak_cell_rate);
                if let Some(ns) = pcr.and_then(|rate| 1_000_000_000u64.checked_div(rate)) {
                    interval = interval.max(Duration::from_nanos(ns));
                }
            }
        }
        let now = self.now;
        let d = &mut self.links[link_id.0].dirs[dir];
        let start = d.next_free.max(now);
        // Output queue: the backlog ahead of this cell, in line-rate cells.
        let backlog = start.saturating_sub(now);
        let depth_cells = (backlog.as_nanos() / line_interval.as_nanos().max(1)) as usize;
        if depth_cells >= queue_cells {
            self.stats.cells_dropped_congestion += 1;
            return;
        }
        d.next_free = start + interval;
        // Random loss/corruption only afflicts best-effort (CLP 1) cells,
        // as the header marks them (congestion drops above apply to
        // every cell).
        let fate = if cell.clp {
            d.fault.next_fate()
        } else {
            Fate::Deliver
        };
        self.stats.cells_sent += 1;
        match fate {
            Fate::Drop => {
                self.stats.cells_lost += 1;
                return;
            }
            Fate::Corrupt { byte, bit } => {
                cell.payload[byte] ^= 1 << bit;
                self.stats.cells_corrupted += 1;
            }
            Fate::Deliver => {}
        }
        let arrive = start + interval + propagation;
        let peer_port = match &self.nodes[peer.0 as usize] {
            Node::Switch(s) => s.port_of_link(link_id).expect("link attached"),
            Node::Host(_) => 0,
        };
        self.queue.schedule(
            arrive,
            EventKind::CellArrive {
                node: peer,
                port: peer_port,
                cell,
            },
        );
    }

    /// Shortest path (in hops) between two nodes, as the list of links to
    /// traverse. `None` if disconnected.
    fn route(&self, from: NodeId, to: NodeId) -> Option<Vec<LinkIndex>> {
        let n = self.nodes.len();
        let mut prev: Vec<Option<(NodeId, LinkIndex)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut frontier = std::collections::VecDeque::new();
        visited[from.0 as usize] = true;
        frontier.push_back(from);
        'search: while let Some(cur) = frontier.pop_front() {
            let links: Vec<LinkIndex> = match &self.nodes[cur.0 as usize] {
                Node::Host(h) => h.access.into_iter().collect(),
                Node::Switch(s) => s.ports.clone(),
            };
            for lid in links {
                let peer = self.links[lid.0].other_end(cur);
                if visited[peer.0 as usize] {
                    continue;
                }
                // Cells never transit through a host.
                if self.nodes[peer.0 as usize].as_host().is_some() && peer != to {
                    continue;
                }
                visited[peer.0 as usize] = true;
                prev[peer.0 as usize] = Some((cur, lid));
                if peer == to {
                    break 'search;
                }
                frontier.push_back(peer);
            }
        }
        if !visited[to.0 as usize] {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, l) = prev[cur.0 as usize].expect("visited nodes have predecessors");
            path.push(l);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Processes a single pending event, if one exists at or before `horizon`.
    fn step_one(&mut self, horizon: SimTime) -> bool {
        let Some(ev) = self.queue.pop_due(horizon) else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        match ev.kind {
            EventKind::CellArrive { node, port, cell } => self.on_cell(node, port, cell),
            EventKind::Signal { node, msg } => self.on_signal(node, msg),
        }
        true
    }

    /// Runs the simulation up to virtual time `t`, returning the events that
    /// occurred. Time always advances to `t` even if idle.
    pub fn run_until(&mut self, t: SimTime) -> Vec<NetEvent> {
        while self.step_one(t) {}
        if self.now < t {
            self.now = t;
        }
        self.drain_events()
    }

    /// Convenience: advance `ms` virtual milliseconds from now.
    pub fn run_for_millis(&mut self, ms: u64) -> Vec<NetEvent> {
        self.run_until(self.now + Duration::from_millis(ms))
    }

    /// Runs until the event queue is empty, with a safety bound of
    /// `max_events` processed events (guards against livelock in tests).
    pub fn run_to_quiescence(&mut self, max_events: usize) -> Vec<NetEvent> {
        let mut processed = 0;
        while processed < max_events && self.step_one(SimTime::from_nanos(u64::MAX)) {
            processed += 1;
        }
        self.drain_events()
    }

    /// Takes the accumulated observable events.
    pub fn drain_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of pending internal events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Whether the simulation has no scheduled work.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    fn on_cell(&mut self, node: NodeId, port: usize, cell: AtmCell) {
        // Switch forwarding is resolved first so the `nodes` borrow ends
        // before `transmit` needs `&mut self`.
        if let Node::Switch(sw) = &self.nodes[node.0 as usize] {
            let Some(&(out_port, out_vci)) = sw.table.get(&(port, cell.vc.vci)) else {
                return; // no VC entry (e.g. released mid-flight): drop
            };
            let out_link = sw.ports[out_port];
            let mut out_cell = cell;
            out_cell.vc = Vc::new(out_vci);
            self.transmit(node, out_link, out_cell, false);
            return;
        }
        match &mut self.nodes[node.0 as usize] {
            Node::Switch(_) => unreachable!("handled above"),
            Node::Host(h) => {
                let Some(&conn) = h.vc_to_conn.get(&cell.vc.vci) else {
                    return; // unknown VC: drop
                };
                let Some(hc) = h.conns.get_mut(&conn) else {
                    return;
                };
                hc.stats.cells_received += 1;
                if let Some(result) = hc.reasm.push(&cell) {
                    match result {
                        Ok(frame) => {
                            hc.stats.frames_received += 1;
                            self.stats.frames_delivered += 1;
                            self.events.push(NetEvent::Frame {
                                host: node,
                                conn,
                                frame,
                                at: self.now,
                            });
                        }
                        Err(error) => {
                            hc.stats.frames_failed += 1;
                            self.stats.frames_failed += 1;
                            self.events.push(NetEvent::FrameError {
                                host: node,
                                conn,
                                error,
                                at: self.now,
                            });
                        }
                    }
                }
            }
        }
    }

    fn on_signal(&mut self, node: NodeId, msg: SignalMsg) {
        match msg {
            SignalMsg::Setup {
                ticket,
                origin,
                origin_conn,
                dest,
                qos,
                path_links,
                mut vcis,
                hop,
            } => {
                if node == dest {
                    // Terminate at the destination host.
                    let in_vci = *vcis.last().expect("setup carries at least one vci");
                    let host = self.nodes[node.0 as usize]
                        .as_host_mut()
                        .expect("setup terminates at a host");
                    let conn = host.alloc_conn();
                    let mut rev_links = path_links.clone();
                    rev_links.reverse();
                    let mut rev_vcis = vcis.clone();
                    rev_vcis.reverse();
                    host.conns.insert(
                        conn,
                        HostConn {
                            state: ConnState::Active,
                            vc: Vc::new(in_vci),
                            peer: origin,
                            peer_conn: Some(origin_conn),
                            qos,
                            path_links: rev_links,
                            path_vcis: rev_vcis,
                            reasm: aal5::Reassembler::new(),
                            stats: ConnStats::default(),
                        },
                    );
                    host.vc_to_conn.insert(in_vci, conn);
                    self.events.push(NetEvent::IncomingVc {
                        host: node,
                        conn,
                        peer: origin,
                        qos,
                        at: self.now,
                    });
                    // CONNECT walks back towards the origin.
                    let back_link = *path_links.last().expect("non-empty path");
                    let prev = self.links[back_link.0].other_end(node);
                    let at = self.now + SIG_PROC + self.links[back_link.0].spec.propagation;
                    self.queue.schedule(
                        at,
                        EventKind::Signal {
                            node: prev,
                            msg: SignalMsg::Connect {
                                ticket,
                                origin,
                                origin_conn,
                                dest: node,
                                dest_conn: conn,
                                path_links,
                                vcis,
                                hop: hop - 1,
                            },
                        },
                    );
                } else {
                    // Transit switch: allocate the next link's VCI and
                    // install both directions of the mapping.
                    let in_link = path_links[hop - 1];
                    let out_link = path_links[hop];
                    let in_vci = vcis[hop - 1];
                    let out_vci = self.links[out_link.0].alloc_vci();
                    vcis.push(out_vci);
                    let sw = self.nodes[node.0 as usize]
                        .as_switch_mut()
                        .expect("transit nodes are switches");
                    let in_port = sw.port_of_link(in_link).expect("attached");
                    let out_port = sw.port_of_link(out_link).expect("attached");
                    sw.table.insert((in_port, in_vci), (out_port, out_vci));
                    sw.table.insert((out_port, out_vci), (in_port, in_vci));
                    let next = self.links[out_link.0].other_end(node);
                    let at = self.now + SIG_PROC + self.links[out_link.0].spec.propagation;
                    self.queue.schedule(
                        at,
                        EventKind::Signal {
                            node: next,
                            msg: SignalMsg::Setup {
                                ticket,
                                origin,
                                origin_conn,
                                dest,
                                qos,
                                path_links,
                                vcis,
                                hop: hop + 1,
                            },
                        },
                    );
                }
            }
            SignalMsg::Connect {
                ticket,
                origin,
                origin_conn,
                dest,
                dest_conn,
                path_links,
                vcis,
                hop,
            } => {
                if node == origin {
                    let host = self.nodes[node.0 as usize]
                        .as_host_mut()
                        .expect("connect terminates at the origin host");
                    if let Some(hc) = host.conns.get_mut(&origin_conn) {
                        hc.state = ConnState::Active;
                        hc.peer_conn = Some(dest_conn);
                        hc.path_vcis = vcis.clone();
                    }
                    let record = EstablishedVc {
                        ticket,
                        local: origin,
                        conn: origin_conn,
                        peer: dest,
                        peer_conn: dest_conn,
                    };
                    self.established.insert(ticket, record);
                    self.events.push(NetEvent::VcEstablished {
                        ticket,
                        host: origin,
                        conn: origin_conn,
                        peer: dest,
                        peer_conn: dest_conn,
                        at: self.now,
                    });
                } else {
                    // Transit switch: mappings already installed; forward.
                    let back_link = path_links[hop - 1];
                    let prev = self.links[back_link.0].other_end(node);
                    let at = self.now + SIG_PROC + self.links[back_link.0].spec.propagation;
                    self.queue.schedule(
                        at,
                        EventKind::Signal {
                            node: prev,
                            msg: SignalMsg::Connect {
                                ticket,
                                origin,
                                origin_conn,
                                dest,
                                dest_conn,
                                path_links,
                                vcis,
                                hop: hop - 1,
                            },
                        },
                    );
                }
            }
            SignalMsg::Release {
                path_links,
                vcis,
                hop,
            } => {
                if hop == path_links.len() {
                    // Reached the peer host: release its endpoint.
                    let in_vci = *vcis.last().expect("release carries vcis");
                    let host = match self.nodes[node.0 as usize].as_host_mut() {
                        Some(h) => h,
                        None => return,
                    };
                    if let Some(&conn) = host.vc_to_conn.get(&in_vci) {
                        host.vc_to_conn.remove(&in_vci);
                        if let Some(hc) = host.conns.get_mut(&conn) {
                            hc.state = ConnState::Released;
                            hc.reasm.reset();
                        }
                        self.events.push(NetEvent::VcReleased {
                            host: node,
                            conn,
                            at: self.now,
                        });
                    }
                } else {
                    // Transit switch: uninstall both directions, forward.
                    let in_link = path_links[hop - 1];
                    let out_link = path_links[hop];
                    let in_vci = vcis[hop - 1];
                    let out_vci = vcis[hop];
                    if let Some(sw) = self.nodes[node.0 as usize].as_switch_mut() {
                        let in_port = sw.port_of_link(in_link);
                        let out_port = sw.port_of_link(out_link);
                        if let (Some(ip), Some(op)) = (in_port, out_port) {
                            sw.table.remove(&(ip, in_vci));
                            sw.table.remove(&(op, out_vci));
                        }
                    }
                    let next = self.links[out_link.0].other_end(node);
                    let at = self.now + SIG_PROC + self.links[out_link.0].spec.propagation;
                    self.queue.schedule(
                        at,
                        EventKind::Signal {
                            node: next,
                            msg: SignalMsg::Release {
                                path_links,
                                vcis,
                                hop: hop + 1,
                            },
                        },
                    );
                }
            }
        }
    }
}

/// Derives a distinct fault seed for each link direction from the configured
/// per-link seed.
fn seeded_fault(base: &crate::fault::FaultSpec, dir: u64) -> crate::fault::FaultSpec {
    // Full SplitMix64 finalizer: a plain `seed * K + dir` leaves the two
    // direction streams linearly related, which lets low-probability fault
    // processes stay correlated (or pathologically quiet) for small seeds.
    let mut z = base
        .seed
        .wrapping_add((dir + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    crate::fault::FaultSpec {
        seed: z ^ (z >> 31),
        // The exact drop plan addresses the forward direction only (see
        // `FaultSpec::drop_cells`); the reverse direction keeps just the
        // probabilistic knobs.
        drop_cells: if dir == 0 {
            base.drop_cells.clone()
        } else {
            Vec::new()
        },
        ..base.clone()
    }
}
