//! The NCS node: one message-passing process with its connection
//! registry and per-peer control plane.
//!
//! Of the node threads in the paper's Figure 1 only one kind is left: an
//! acceptor per attached peer, because [`PeerLink::accept_channel`] is a
//! blocking call. Everything else is work for the node's
//! [`Reactor`]:
//!
//! * the Control Send and Control Receive threads are one task per peer
//!   ([`crate::control`]);
//! * the Master Thread's connection management runs where the event that
//!   asks for it arrives — an incoming data channel is turned into a
//!   connection by the acceptor that took it off the link (opening the
//!   control channel back to the peer may block, and that thread already
//!   does), the peer's `AcceptConn` is applied by the control task that
//!   decoded it, and the initiating side is set up on the thread that
//!   called [`NcsNode::connect`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use ncs_obs::{MetricsSnapshot, Registry};
use ncs_threads::sync::Mailbox;
use ncs_threads::{KernelPackage, PackageKind, SpawnOptions, ThreadPackage};
use ncs_transport::{Connection as Transport, TransportError};
use parking_lot::Mutex;

use crate::clock::{Clock, SystemClock};
use crate::config::{ConfigError, ConnectionConfig};
use crate::connection::{attach_connection, dispatch_ctrl, ConnShared, NcsConnection};
use crate::control::PeerCtrl;
use crate::link::PeerLink;
use crate::packet::{CtrlMsg, Hello};
use crate::pool::{BufPool, PoolStats};
use crate::reactor::Reactor;
use crate::stats::{PackageMetricSource, PoolMetricSource, ReactorMetricSource};

const ACCEPT_POLL: Duration = Duration::from_millis(200);
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);
/// Most control channels kept waiting for their opener to be attached.
const EARLY_CHANNELS: usize = 64;

/// Errors from [`NcsNode::connect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectError {
    /// No link attached for this peer name.
    UnknownPeer(String),
    /// The configuration is invalid for the link's interface.
    Config(ConfigError),
    /// The underlying interface failed.
    Transport(String),
    /// The peer did not accept in time.
    Timeout,
    /// The node is shut down.
    Shutdown,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::UnknownPeer(p) => write!(f, "no link attached for peer '{p}'"),
            ConnectError::Config(e) => write!(f, "invalid configuration: {e}"),
            ConnectError::Transport(e) => write!(f, "transport failure: {e}"),
            ConnectError::Timeout => write!(f, "peer did not accept the connection in time"),
            ConnectError::Shutdown => write!(f, "node is shut down"),
        }
    }
}

impl std::error::Error for ConnectError {}

impl From<TransportError> for ConnectError {
    fn from(e: TransportError) -> Self {
        ConnectError::Transport(e.to_string())
    }
}

impl From<ConfigError> for ConnectError {
    fn from(e: ConfigError) -> Self {
        ConnectError::Config(e)
    }
}

/// Errors from [`NcsNode::accept`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptError {
    /// No incoming connection arrived in time.
    Timeout,
    /// The node is shut down.
    Shutdown,
}

impl std::fmt::Display for AcceptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcceptError::Timeout => write!(f, "no incoming connection arrived in time"),
            AcceptError::Shutdown => write!(f, "node is shut down"),
        }
    }
}

impl std::error::Error for AcceptError {}

#[derive(Clone)]
struct PeerState {
    link: Arc<dyn PeerLink>,
    /// The peer's control plane: its reactor task and outbound queue.
    ctrl: Arc<PeerCtrl>,
}

pub(crate) struct NodeInner {
    name: String,
    /// Cluster rank, when this node is a member of a multi-process world.
    rank: Option<u32>,
    pkg: Arc<dyn ThreadPackage>,
    /// The readiness reactor driving every connection's data plane: a
    /// fixed O(cores) pool of event loops, shared by all connections (and
    /// optionally across nodes — see [`NcsNodeBuilder::reactor`]).
    reactor: Arc<Reactor>,
    /// Whether this node built its own reactor (and thus owns its
    /// shutdown); a caller-supplied reactor may serve other nodes and is
    /// left running.
    owns_reactor: bool,
    /// Recycling frame-buffer pool shared by every connection's data plane.
    pool: Arc<BufPool>,
    /// The node's telemetry registry: every layer (connections, reactor,
    /// pool, thread package) registers its metrics here.
    registry: Arc<Registry>,
    /// The node's time source: every deadline the runtime arms against
    /// this node (collective op timeouts, group barrier waits) is
    /// computed from this clock, so a simulated node can run them under
    /// virtual time (see [`crate::clock`]).
    clock: Arc<dyn Clock>,
    peers: Mutex<HashMap<String, PeerState>>,
    /// Control channels whose opener this node has not attached yet, by
    /// the name in their hello; [`NcsNode::attach_peer`] adopts them. (A
    /// shared listener delivers them from the moment the first peer is
    /// attached, while the rest of a roster is still being attached.) The
    /// oldest give way beyond [`EARLY_CHANNELS`].
    early: Mutex<Vec<(String, Arc<dyn Transport>)>>,
    conns: Mutex<HashMap<u32, Arc<ConnShared>>>,
    next_conn: AtomicU32,
    pending_accepts: Mailbox<NcsConnection>,
    shutdown: AtomicBool,
}

impl NodeInner {
    /// Builds a connection to `peer` on the data channel `channel` and
    /// enters it into the registry — unless the node has shut down, in
    /// which case the channel is closed. The flag is read under the
    /// registry lock, and `shutdown` empties the registry under that lock
    /// after setting the flag: a connection is either closed by `shutdown`
    /// or never created.
    fn open_conn(
        &self,
        peer: String,
        config: ConnectionConfig,
        channel: Arc<dyn Transport>,
        ctrl_tx: Arc<Mailbox<CtrlMsg>>,
    ) -> Option<Arc<ConnShared>> {
        // Meter the data channel: interface-labelled frame/byte counters
        // in the node registry, shared by all channels of the family.
        let transport = Arc::new(ncs_transport::Metered::register(channel, &self.registry));
        let shared = ConnShared::new(
            self.next_conn.fetch_add(1, Ordering::Relaxed),
            peer,
            config,
            transport,
            Arc::clone(&self.pool),
            ctrl_tx,
            Some(Arc::clone(&self.registry)),
            Arc::clone(&self.clock),
        );
        let mut conns = self.conns.lock();
        if self.shutdown.load(Ordering::Acquire) {
            shared.transport.close();
            return None;
        }
        conns.insert(shared.id, Arc::clone(&shared));
        Some(shared)
    }
}

impl std::fmt::Debug for NodeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NcsNode")
            .field("name", &self.name)
            .field("peers", &self.peers.lock().len())
            .field("connections", &self.conns.lock().len())
            .finish()
    }
}

/// Builder for [`NcsNode`] (C-BUILDER).
#[derive(Debug)]
pub struct NcsNodeBuilder {
    name: String,
    rank: Option<u32>,
    pkg: Option<Arc<dyn ThreadPackage>>,
    pool: Option<Arc<BufPool>>,
    reactor: Option<Arc<Reactor>>,
    registry: Option<Arc<Registry>>,
    clock: Option<Arc<dyn Clock>>,
}

impl NcsNodeBuilder {
    /// Selects the thread package running this node's NCS threads
    /// (defaults to the kernel-level package).
    pub fn thread_package(mut self, pkg: Arc<dyn ThreadPackage>) -> Self {
        self.pkg = Some(pkg);
        self
    }

    /// Supplies the readiness reactor driving this node's connections
    /// (defaults to a private [`Reactor::with_default_shards`] on the
    /// node's thread package). Sharing one reactor across co-located
    /// nodes keeps the event-loop count at O(cores) no matter how many
    /// nodes — and connections — the process holds; a shared reactor is
    /// left running by [`NcsNode::shutdown`].
    pub fn reactor(mut self, reactor: Arc<Reactor>) -> Self {
        self.reactor = Some(reactor);
        self
    }

    /// Records this node's rank in a multi-process world (set by the
    /// cluster runtime when a node is built from a rendezvous roster;
    /// purely identity — single-process nodes leave it unset).
    pub fn rank(mut self, rank: u32) -> Self {
        self.rank = Some(rank);
        self
    }

    /// Supplies the frame-buffer pool this node's data plane recycles
    /// buffers through (defaults to a private [`BufPool::new`]). Sharing a
    /// pool across co-located nodes lets one side's returns feed the
    /// other's checkouts.
    pub fn buffer_pool(mut self, pool: Arc<BufPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Supplies the time source deadlines against this node are computed
    /// from (defaults to [`SystemClock`] — the wall clock). A simulation
    /// driver passes a shared [`crate::clock::VirtualClock`] here so collective op
    /// timeouts and barrier waits fire on virtual, not wall, time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Supplies the telemetry [`Registry`] this node's layers register
    /// their metrics into (defaults to a private one). Sharing a registry
    /// across co-located nodes merges their series into one snapshot —
    /// per-connection series stay distinguishable by their `conn`/`peer`
    /// labels.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds and starts the node.
    pub fn build(self) -> NcsNode {
        let pkg = self
            .pkg
            .unwrap_or_else(|| Arc::new(KernelPackage::new()) as Arc<dyn ThreadPackage>);
        let owns_reactor = self.reactor.is_none();
        let reactor = self
            .reactor
            .unwrap_or_else(|| Reactor::with_default_shards(Arc::clone(&pkg)));
        let pool = self.pool.unwrap_or_else(BufPool::new);
        let registry = self.registry.unwrap_or_default();
        let clock = self.clock.unwrap_or_else(SystemClock::shared);
        // Register the node's shared-infrastructure gauges/counters: the
        // buffer pool, the reactor and the thread package each export
        // through a pull adapter, so a snapshot always reads live values.
        registry.register_source(Arc::new(PoolMetricSource(Arc::clone(&pool))));
        registry.register_source(Arc::new(ReactorMetricSource(Arc::clone(&reactor))));
        registry.register_source(Arc::new(PackageMetricSource(Arc::clone(&pkg))));
        let inner = NodeInner {
            name: self.name,
            rank: self.rank,
            pkg,
            reactor,
            owns_reactor,
            pool,
            registry,
            clock,
            peers: Mutex::new(HashMap::new()),
            early: Mutex::new(Vec::new()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU32::new(0),
            pending_accepts: Mailbox::unbounded(),
            shutdown: AtomicBool::new(false),
        };
        NcsNode {
            inner: Arc::new(inner),
        }
    }
}

/// One NCS process: owns the per-peer control plane and all connections.
/// See the crate docs for a usage example.
#[derive(Debug, Clone)]
pub struct NcsNode {
    inner: Arc<NodeInner>,
}

impl NcsNode {
    /// Starts building a node called `name`.
    pub fn builder(name: &str) -> NcsNodeBuilder {
        NcsNodeBuilder {
            name: name.to_owned(),
            rank: None,
            pkg: None,
            pool: None,
            reactor: None,
            registry: None,
            clock: None,
        }
    }

    /// This node's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// This node's rank in its multi-process world, when built by the
    /// cluster runtime ([`NcsNodeBuilder::rank`]).
    pub fn rank(&self) -> Option<u32> {
        self.inner.rank
    }

    /// The thread package running this node's NCS threads.
    pub fn thread_package(&self) -> Arc<dyn ThreadPackage> {
        Arc::clone(&self.inner.pkg)
    }

    /// The time source this node's deadlines are computed from
    /// ([`NcsNodeBuilder::clock`]; [`SystemClock`] unless configured).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// The readiness reactor multiplexing this node's connections. Pass it
    /// to other builders via [`NcsNodeBuilder::reactor`] to share one
    /// O(cores) event-loop pool across co-located nodes, or inspect
    /// [`Reactor::stats`] for diagnostics.
    pub fn reactor(&self) -> Arc<Reactor> {
        Arc::clone(&self.inner.reactor)
    }

    /// Attaches a link towards `peer` — the peer node's own name, which
    /// the hello frames of the channels it opens carry — and starts
    /// accepting channels from it. Must be called on both nodes (with
    /// matching link pair ends) before connections can be made.
    pub fn attach_peer(&self, peer: &str, link: Arc<dyn PeerLink>) {
        if self.inner.pkg.kind() == PackageKind::UserLevel {
            // §4.1: under the user-level package, blocking system calls
            // stall every green thread. Links over such interfaces (SCI)
            // switch to non-blocking polls + cooperative yields.
            let pkg = Arc::clone(&self.inner.pkg);
            link.set_yield_hook(Some(Arc::new(move || pkg.yield_now())));
        }
        let inner = Arc::clone(&self.inner);
        let ctrl = PeerCtrl::spawn(&self.inner.reactor, move |msg| handle_ctrl(&inner, msg));
        let replaced = self.inner.peers.lock().insert(
            peer.to_owned(),
            PeerState {
                link: Arc::clone(&link),
                ctrl: Arc::clone(&ctrl),
            },
        );
        // Re-attaching a name supersedes its old registration; attaching
        // to a node that has shut down attaches nothing. (`shutdown`
        // retires the peers it finds after setting the flag, so one side
        // always sees the other.)
        if let Some(old) = replaced {
            old.ctrl.retire();
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            ctrl.retire();
        }
        // Control channels the peer opened before it was attached here.
        let mut early = self.inner.early.lock();
        for (_, channel) in early.extract_if(.., |(name, _)| name == peer) {
            ctrl.adopt(&self.inner.reactor, channel, false);
        }
        drop(early);
        // Acceptor thread for this link: the one blocking service thread a
        // peer costs. It leaves on its own once the peer is retired.
        let node = Arc::downgrade(&self.inner);
        self.inner.pkg.spawn_with(
            SpawnOptions::new(format!("ncs-accept-{}-{}", self.inner.name, peer)).daemon(true),
            Box::new(move || acceptor_thread(&node, link, &ctrl)),
        );
    }

    /// Severs every tie to `peer`: closes and unregisters its live
    /// connections, discards the ones it opened that nobody has accepted
    /// yet, and drops the peer registration (link, control channels,
    /// control task and acceptor thread). The counterpart of
    /// [`NcsNode::attach_peer`] for membership churn — a *replacement*
    /// process re-adopting the peer's name starts from a clean slate. A
    /// no-op for an unknown peer.
    pub fn forget_peer(&self, peer: &str) {
        let forgotten = self.inner.peers.lock().remove(peer);
        // A replacement may dial before this node learns its predecessor
        // died: that dial is accepted against the old registration, and
        // closed below with the rest — it must not be handed to an
        // `accept` that waits for the replacement's real connection.
        let pending = &self.inner.pending_accepts;
        let queued: Vec<NcsConnection> = std::iter::from_fn(|| pending.try_recv()).collect();
        for conn in queued.into_iter().filter(|c| c.peer_name() != peer) {
            pending.send(conn);
        }
        let dropped: Vec<Arc<ConnShared>> = {
            let mut conns = self.inner.conns.lock();
            let ids: Vec<u32> = conns
                .iter()
                .filter(|(_, s)| s.peer_name == peer)
                .map(|(&id, _)| id)
                .collect();
            ids.iter().filter_map(|id| conns.remove(id)).collect()
        };
        for shared in dropped {
            shared.initiate_close();
        }
        // Last, so the control task's final flush carries the CloseConns
        // queued just above.
        if let Some(state) = forgotten {
            state.ctrl.retire();
        }
    }

    /// Opens an NCS connection to `peer` with the given per-connection
    /// configuration (paper §3: flow control, error control and interface
    /// are fixed here; afterwards the same `send`/`recv` primitives apply
    /// regardless).
    ///
    /// # Errors
    ///
    /// See [`ConnectError`].
    pub fn connect(
        &self,
        peer: &str,
        config: ConnectionConfig,
    ) -> Result<NcsConnection, ConnectError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ConnectError::Shutdown);
        }
        let to = ensure_ctrl_tx(&self.inner, peer)?;
        let channel = to.link.open_channel()?;
        config.validate(channel.caps().max_frame)?;
        let ctrl_tx = to.ctrl.outbox();
        let shared = self
            .inner
            .open_conn(peer.to_owned(), config.clone(), Arc::from(channel), ctrl_tx)
            .ok_or(ConnectError::Shutdown)?;
        let transport = &shared.transport;
        // Announce the connection on its own data channel, then attach its
        // task (the paper's Master Thread duty, done on the caller's
        // thread for the initiator side).
        let hello = Hello::Data {
            node: self.inner.name.clone(),
            initiator_conn: shared.id,
            config,
        }
        .encode();
        transport.send(&hello)?;
        attach_connection(&self.inner.reactor, &shared);
        // The hello rides the (possibly unreliable) data channel; retry a
        // few times before declaring the setup dead. A retry that follows
        // a hello the acceptor did read lands on the connection it built
        // from it, whose receive plane drops it as not a data packet.
        let mut established = false;
        for _attempt in 0..5 {
            if shared.established.wait_timeout(ESTABLISH_TIMEOUT / 5) {
                established = true;
                break;
            }
            let _ = transport.send(&hello);
        }
        // A peer that hangs up instead of accepting (it has not attached
        // this node, or refuses the configuration) fires the event too.
        if !established || shared.peer_conn_id() == u32::MAX {
            shared.initiate_close();
            self.inner.conns.lock().remove(&shared.id);
            return Err(ConnectError::Timeout);
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ConnectError::Shutdown);
        }
        Ok(NcsConnection::new(shared))
    }

    /// Accepts the next incoming NCS connection.
    ///
    /// # Errors
    ///
    /// See [`AcceptError`].
    pub fn accept(&self, timeout: Duration) -> Result<NcsConnection, AcceptError> {
        match self.inner.pending_accepts.recv_timeout(timeout) {
            Ok(c) => Ok(c),
            Err(_) => {
                if self.inner.shutdown.load(Ordering::Acquire) {
                    Err(AcceptError::Shutdown)
                } else {
                    Err(AcceptError::Timeout)
                }
            }
        }
    }

    /// [`NcsNode::accept`] with a 30 s limit.
    ///
    /// # Errors
    ///
    /// See [`AcceptError`].
    pub fn accept_default(&self) -> Result<NcsConnection, AcceptError> {
        self.accept(Duration::from_secs(30))
    }

    /// Number of live connections (diagnostics).
    pub fn connection_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// The node's frame-buffer pool.
    pub fn buffer_pool(&self) -> Arc<BufPool> {
        Arc::clone(&self.inner.pool)
    }

    /// Statistics of the node's frame-buffer pool. `checkouts` counts the
    /// allocations the unpooled seed path would have made; `misses` counts
    /// the allocations the pooled path actually made (see [`PoolStats`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// The node's telemetry [`Registry`] — register application metrics
    /// here to have them appear in [`NcsNode::metrics_snapshot`] beside
    /// the runtime's own.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// One consistent read of every metric registered with this node:
    /// connection counters, reactor/pool/thread-package gauges, and
    /// anything the application registered. Render it with
    /// [`MetricsSnapshot::render_table`],
    /// [`MetricsSnapshot::render_prometheus`] or
    /// [`MetricsSnapshot::render_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Toggles the flight recorders of every live connection (and sets
    /// nothing else — new connections start enabled regardless).
    pub fn set_flight_recording(&self, on: bool) {
        for c in self.inner.conns.lock().values() {
            c.recorder.set_enabled(on);
        }
    }

    /// The node's full telemetry dump as one JSON object:
    /// `{"node":...,"rank":...,"metrics":[...],"flights":[...]}` — the
    /// metrics snapshot plus every live connection's flight-recorder ring.
    /// This is what the cluster runtime pushes to the rendezvous daemon
    /// for `ncs-launch --telemetry` aggregation.
    pub fn telemetry(&self) -> String {
        let conns: Vec<Arc<ConnShared>> = self.inner.conns.lock().values().cloned().collect();
        let mut flights: Vec<String> = conns
            .iter()
            .map(|c| {
                c.recorder
                    .dump_json_labelled(&format!("{}->{}", c.id, c.peer_name))
            })
            .collect();
        flights.sort();
        format!(
            "{{\"node\":\"{}\",\"rank\":{},\"metrics\":{},\"flights\":[{}]}}",
            ncs_obs::json::escape(&self.inner.name),
            self.inner
                .rank
                .map_or_else(|| "null".to_owned(), |r| r.to_string()),
            self.metrics_snapshot().render_json(),
            flights.join(",")
        )
    }

    /// Shuts the node down: closes every connection and retires the
    /// control plane. Idempotent. Once it returns the node dispatches no
    /// control message and creates no connection; nothing is waited for —
    /// the tasks retire on the wake they are given, and each acceptor
    /// thread leaves at the end of its current accept poll.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Emptied under the lock `open_conn` reads the flag under. With no
        // connection left to address, nothing a peer still sends can be
        // dispatched.
        let conns = std::mem::take(&mut *self.inner.conns.lock());
        for c in conns.into_values() {
            c.initiate_close();
        }
        // After the closes: each task's final flush carries their
        // CloseConns to the peer.
        for state in self.inner.peers.lock().values() {
            state.ctrl.retire();
        }
        // A reactor this node built privately stops with it; a shared one
        // (supplied via the builder) may still drive other nodes.
        if self.inner.owns_reactor {
            self.inner.reactor.shutdown();
        }
    }
}

/// The registration of `peer`, with a control channel towards it up (so
/// that its control queue leads somewhere): opens one first when none is.
/// Runs on the thread that sets a connection up — opening may block on
/// signaling — never on the reactor.
fn ensure_ctrl_tx(inner: &NodeInner, peer: &str) -> Result<PeerState, ConnectError> {
    let state = inner.peers.lock().get(peer).cloned();
    let state = state.ok_or_else(|| ConnectError::UnknownPeer(peer.to_owned()))?;
    if !state.ctrl.has_outbound() {
        // Control channels use the link's assured path where the
        // interface has one (ACI/SSCOP). Two setups racing here open two;
        // the spare one idles.
        let channel = state.link.open_control_channel()?;
        let hello = Hello::Control {
            node: inner.name.clone(),
        };
        channel.send(&hello.encode())?;
        state.ctrl.adopt(&inner.reactor, Arc::from(channel), true);
    }
    Ok(state)
}

/// Per-link acceptor: classifies fresh channels by their hello frame. A
/// control channel goes to its peer's control task; a data channel becomes
/// a connection right here. Leaves once `ctrl` — the registration it was
/// spawned for — is retired (`forget_peer`, re-attachment, node shutdown).
/// It holds the node only while it serves a channel: a node that is shut
/// down and dropped is freed there and then, not an accept poll later.
fn acceptor_thread(node: &Weak<NodeInner>, link: Arc<dyn PeerLink>, ctrl: &PeerCtrl) {
    loop {
        if ctrl.is_retired() {
            return;
        }
        let channel = match link.accept_channel(ACCEPT_POLL) {
            Ok(c) => c,
            Err(TransportError::Timeout) => continue,
            Err(_) => {
                // Transient link failure: back off briefly.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let hello = match channel.recv_timeout(HELLO_TIMEOUT) {
            Ok(frame) => match Hello::decode(&frame) {
                Ok(h) => h,
                Err(_) => continue, // not an NCS channel: drop it
            },
            Err(_) => continue,
        };
        let Some(inner) = &node.upgrade() else {
            return;
        };
        let transport: Arc<dyn Transport> = Arc::from(channel);
        match hello {
            Hello::Control { node } => {
                // Peer attribution comes from the hello, not the link
                // (shared listeners may deliver other peers' channels). A
                // name not attached yet waits for `attach_peer`, which
                // inserts under the lock held here: it finds the channel.
                let peers = inner.peers.lock();
                match peers.get(&node) {
                    Some(named) => named.ctrl.adopt(&inner.reactor, transport, false),
                    None => {
                        let mut early = inner.early.lock();
                        if early.len() == EARLY_CHANNELS {
                            early.remove(0).1.close();
                        }
                        early.push((node, transport));
                    }
                }
            }
            Hello::Data {
                node,
                initiator_conn,
                config,
            } => incoming_data(inner, node, transport, initiator_conn, config),
        }
    }
}

/// Control-plane dispatcher: runs on the reactor, inside the poll of the
/// control task that decoded `msg`.
fn handle_ctrl(inner: &NodeInner, msg: CtrlMsg) {
    let conn = match msg {
        CtrlMsg::Ack { conn, .. }
        | CtrlMsg::GbnAck { conn, .. }
        | CtrlMsg::Credit { conn, .. }
        | CtrlMsg::CloseConn { conn } => conn,
        CtrlMsg::AcceptConn { initiator_conn, .. } => initiator_conn,
        // Connection opening rides the data channel's hello; this control
        // variant is reserved for future out-of-band setup.
        CtrlMsg::OpenConn { .. } => return,
    };
    let Some(shared) = inner.conns.lock().get(&conn).cloned() else {
        return;
    };
    match msg {
        CtrlMsg::AcceptConn { acceptor_conn, .. } => shared.mark_established(acceptor_conn),
        CtrlMsg::CloseConn { .. } => shared.peer_closed(),
        _ => dispatch_ctrl(&shared, msg),
    }
}

/// Connection management, accepting side (paper Figure 1 — "data transfer
/// threads … are spawned on a per-connection basis by the Master Thread"):
/// turns a data channel a peer opened into a connection and acknowledges
/// it over the control connection. Runs on the acceptor thread.
fn incoming_data(
    inner: &Arc<NodeInner>,
    peer: String,
    transport: Arc<dyn Transport>,
    initiator_conn: u32,
    config: ConnectionConfig,
) {
    if config.validate(transport.caps().max_frame).is_err() {
        transport.close();
        return;
    }
    let Ok(from) = ensure_ctrl_tx(inner, &peer) else {
        transport.close();
        return;
    };
    let ctrl_tx = from.ctrl.outbox();
    // The node may have shut down while this thread sat in its accept
    // poll or opened the control channel: nothing is built on a late
    // channel.
    let Some(shared) = inner.open_conn(peer, config, transport, Arc::clone(&ctrl_tx)) else {
        return;
    };
    shared.mark_established(initiator_conn);
    attach_connection(&inner.reactor, &shared);
    ctrl_tx.send(CtrlMsg::AcceptConn {
        initiator_conn,
        acceptor_conn: shared.id,
    });
    inner.pending_accepts.send(NcsConnection::new(shared));
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use crate::link::HpiLinkPair;
    use std::time::Instant;

    /// Threads of this process whose name contains `needle`.
    fn threads_named(needle: &str) -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.contains(needle))
            .count()
    }

    /// Regression: `forget_peer` used to leave the peer's Control Send
    /// thread polling its mailbox until node shutdown — one leaked thread
    /// per rejoin per survivor under membership churn. Everything a peer
    /// costs must go when it is forgotten.
    #[test]
    fn forget_peer_returns_threads_and_reactor_tasks() {
        // "fg50" marks every service thread of the two nodes, in either
        // model: ncs-accept-fg50…, ncs-cs-fg50x, ncs-master-fg50, ….
        let node = NcsNode::builder("fg50").build();
        let peer = NcsNode::builder("fg50x").build();
        let reactor = node.reactor();
        let (threads, tasks) = (threads_named("fg50"), reactor.live_tasks());
        assert_eq!((threads, tasks), (0, 0));
        for round in 0..50u8 {
            let (ln, lp) = HpiLinkPair::create();
            node.attach_peer("fg50x", ln);
            peer.attach_peer("fg50", lp);
            let conn = node
                .connect("fg50x", ConnectionConfig::reliable())
                .expect("connect");
            let back = peer.accept_default().expect("accept");
            conn.send_sync(&[round]).expect("send");
            assert_eq!(back.recv().expect("recv"), [round]);
            node.forget_peer("fg50x");
            assert!(!conn.is_open());
            peer.forget_peer("fg50");
        }
        assert_eq!(node.connection_count(), 0);
        // The tasks retire on the wake `forget_peer` gave them; each
        // acceptor leaves at the end of its accept poll.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (threads_named("fg50"), reactor.live_tasks()) != (threads, tasks) {
            assert!(
                Instant::now() < deadline,
                "after 50 attach/connect/forget rounds: {} service threads, {} reactor tasks",
                threads_named("fg50"),
                reactor.live_tasks()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        node.shutdown();
        peer.shutdown();
    }
}
