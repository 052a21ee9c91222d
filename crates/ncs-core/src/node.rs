//! The NCS node: one message-passing process with its connection
//! registry and the links to its peers.
//!
//! None of the node threads in the paper's Figure 1 is left. Everything a
//! node does between calls is work for its [`Reactor`]:
//!
//! * the Control Send and Control Receive threads have no work left: a
//!   connection is one duplex channel, whose feedback and connection
//!   control travel against its data ([`crate::connection`]), so there is
//!   no control connection to serve;
//! * the Master Thread's connection management runs where the event that
//!   asks for it arrives. Accepting is one task per node ([`AcceptTask`]):
//!   it takes the channels peers opened off the links with
//!   [`PeerLink::try_accept_channel`], reads each one's hello when it
//!   comes and turns it into a connection right there on the event loop,
//!   whose first frame back is the `AcceptConn` — none of which blocks,
//!   because the accepting side never opens a channel. The connection's
//!   own task applies the `AcceptConn` on the initiating side, which —
//!   the one place that may block, on TCP connects and ATM signaling — is
//!   set up on the thread that called [`NcsNode::connect`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use ncs_obs::{MetricsSnapshot, Registry};
use ncs_threads::sync::Mailbox;
use ncs_threads::{KernelPackage, ThreadPackage};
use ncs_transport::{Connection as Transport, Readiness, TransportError, Waker};
use parking_lot::Mutex;

use crate::clock::{Clock, SystemClock};
use crate::config::{ConfigError, ConnectionConfig};
use crate::connection::{attach_connection, min_timer, ConnShared, NcsConnection};
use crate::link::PeerLink;
use crate::packet::{CtrlMsg, Hello};
use crate::pool::{BufPool, PoolStats};
use crate::reactor::{FdRegistration, Reactor, ReactorTask, TaskHandle, TaskPoll, TaskRef, Watch};
use crate::stats::{PackageMetricSource, PoolMetricSource, ReactorMetricSource};

/// How long an accepted channel may stay silent before its hello.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);
/// Most channels kept waiting, their hello said, for the node it names to
/// be attached; the oldest give way.
const UNATTACHED_CHANNELS: usize = 64;
/// Pause before an accept source that reported a failure is tried again.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

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
    /// The link to each attached peer, by name.
    peers: Mutex<HashMap<String, Arc<dyn PeerLink>>>,
    /// Set when `peers` gained or lost a link: the accept task subscribes
    /// to the links' accept sources anew.
    links_changed: AtomicBool,
    /// The node's accept task, from the first `attach_peer` to `shutdown`
    /// (or the node's drop): letting go of it retires it.
    accept: Mutex<Option<TaskRef>>,
    conns: Mutex<HashMap<u32, Arc<ConnShared>>>,
    next_conn: AtomicU32,
    /// Accepted connections, for [`NcsNode::accept`]; `None` is the
    /// node's shutdown, which every caller that takes it puts back.
    pending_accepts: Mailbox<Option<NcsConnection>>,
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
            Some(Arc::clone(&self.registry)),
        );
        let mut conns = self.conns.lock();
        if self.shutdown.load(Ordering::Acquire) {
            shared.transport.close();
            return None;
        }
        conns.insert(shared.id, Arc::clone(&shared));
        Some(shared)
    }

    /// Has the accept task, if there is one, look at its pending channels
    /// again: something they may wait for has happened.
    fn wake_accept_task(&self) {
        if let Some(task) = &*self.accept.lock() {
            task.wake();
        }
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
            links_changed: AtomicBool::new(false),
            accept: Mutex::new(None),
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

/// One NCS process: owns its links to its peers and all connections.
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
    /// matching link pair ends) before connections can be made; a channel
    /// the peer opens before this node attaches it waits for the call.
    pub fn attach_peer(&self, peer: &str, link: Arc<dyn PeerLink>) {
        // Re-attaching a name supersedes its old link.
        self.inner.peers.lock().insert(peer.to_owned(), link);
        // The accept task — spawned with the first peer — subscribes to
        // the new link and looks at the channels that waited for this
        // call. `shutdown` takes the task under this lock after setting
        // its flag: a node that is down is not given another.
        self.inner.links_changed.store(true, Ordering::Release);
        let mut accept = self.inner.accept.lock();
        if self.inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        accept
            .get_or_insert_with(|| AcceptTask::spawn(&self.inner))
            .wake();
    }

    /// Severs every tie to `peer`: closes and unregisters its live
    /// connections, discards the ones it opened that nobody has accepted
    /// yet, and drops its link. The counterpart of
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
        let others = |c: &Option<NcsConnection>| c.as_ref().is_none_or(|c| c.peer_name() != peer);
        let queued: Vec<_> = std::iter::from_fn(|| pending.try_recv())
            .filter(others)
            .collect();
        queued.into_iter().for_each(|conn| pending.send(conn));
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
        if forgotten.is_some() {
            self.inner.links_changed.store(true, Ordering::Release);
            self.inner.wake_accept_task();
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
        let link = self.inner.peers.lock().get(peer).cloned();
        let link = link.ok_or_else(|| ConnectError::UnknownPeer(peer.to_owned()))?;
        let channel = link.open_channel()?;
        config.validate(channel.caps().max_frame)?;
        let shared = self
            .inner
            .open_conn(peer.to_owned(), config.clone(), Arc::from(channel))
            .ok_or(ConnectError::Shutdown)?;
        let transport = &shared.transport;
        // Announce the connection on its channel, then attach its task
        // (the paper's Master Thread duty, done on the caller's thread for
        // the initiator side), which applies the peer's `AcceptConn`.
        let hello = Hello {
            node: self.inner.name.clone(),
            initiator_conn: shared.id,
            config,
        }
        .encode();
        transport.send(&hello)?;
        attach_connection(&self.inner.reactor, &shared);
        // Where the channel may lose a frame, the hello or the
        // `AcceptConn` may be lost: repeat the hello before declaring the
        // setup dead. A repeat the accept task reads before it places the
        // channel is dropped; one that reaches the connection it built is
        // answered with the `AcceptConn` again. Over a ring that loses
        // only what overruns it nothing is repeated: nothing can be lost,
        // and the ring holds no frame the ring rule does not count.
        let give_up = Instant::now() + ESTABLISH_TIMEOUT;
        let lossy = transport.caps().overrun_ring.is_none();
        let mut repeat_after = if lossy {
            ESTABLISH_TIMEOUT / 100
        } else {
            ESTABLISH_TIMEOUT
        };
        let mut established = shared.established.wait_timeout(repeat_after);
        while !established && Instant::now() < give_up {
            let _ = transport.send(&hello);
            repeat_after = (repeat_after * 2).min(ESTABLISH_TIMEOUT / 5);
            established = shared.established.wait_timeout(repeat_after);
        }
        // A peer that hangs up instead of accepting (it refuses the
        // configuration, or forgot this node) fires the event too.
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
        let pending = &self.inner.pending_accepts;
        match pending.recv_timeout(timeout) {
            Ok(Some(c)) => Ok(c),
            Ok(None) => {
                pending.send(None);
                Err(AcceptError::Shutdown)
            }
            Err(_) => Err(AcceptError::Timeout),
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

    /// Shuts the node down, retiring what it owns in this order. Idempotent.
    ///
    /// 1. **Groups and their operations.** The flag goes up first: a
    ///    collective group over this node's connections takes no more
    ///    operations, and fails the ones in flight `Closed`, when its next
    ///    step runs — which the closes below bring about, as each link's
    ///    receive sink reports its death to the group.
    /// 2. **Connections.** Each closes: its session in flight and what is
    ///    queued behind it fail `Closed` (the node waits for no
    ///    acknowledgement), and its task writes what it can — bounded by
    ///    the close's linger — then its `CloseConn`, and retires.
    /// 3. **Accept.** The accept task retires, hanging up the channels it
    ///    had not placed, and a caller waiting in [`NcsNode::accept`]
    ///    returns [`AcceptError::Shutdown`].
    /// 4. **The reactor**, if the node built it: it drops the closure
    ///    tasks (a held group's among them), and returns once the tasks
    ///    above have finished. A shared reactor (supplied via the builder)
    ///    may still drive other nodes and is left running.
    ///
    /// Once it returns the node creates no connection.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Emptied under the lock `open_conn` reads the flag under.
        let conns = std::mem::take(&mut *self.inner.conns.lock());
        for c in conns.into_values() {
            c.close_with_node();
        }
        drop(self.inner.accept.lock().take());
        self.inner.pending_accepts.send(None);
        if self.inner.owns_reactor {
            self.inner.reactor.shutdown();
        }
    }

    /// Whether [`NcsNode::shutdown`] has begun.
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }
}

/// A channel the accept task took off a link and could not place yet.
struct PendingChannel {
    watch: Watch,
    /// What the channel is, once its opener has said so; until then, when
    /// waiting for that ends with the channel closed. A channel that has
    /// said its hello waits for the node it names to be attached, as one
    /// of at most [`UNATTACHED_CHANNELS`].
    hello: Result<Hello, Instant>,
}

/// Connection management, accepting side, as one reactor task per node —
/// the non-blocking stand-in for the accepting half of Figure 1's Master
/// Thread ("data transfer threads … are spawned on a per-connection basis
/// by the Master Thread"). Woken by its links' accept sources, by its
/// pending channels' frames and by `attach_peer`/`forget_peer`; it only
/// ever calls `try_accept_channel` and `try_recv`.
struct AcceptTask {
    /// Weak: the task must not keep a dropped node alive.
    node: Weak<NodeInner>,
    me: Arc<TaskHandle>,
    /// One link per accept source (of links sharing a listener, the first
    /// holds its descriptor's registration — ahead of the link, as it is
    /// keyed by a number the system may hand out again the moment the
    /// listener closes), as of the last change to the node's peers.
    sources: Vec<(Option<FdRegistration>, Arc<dyn PeerLink>)>,
    /// In order of arrival.
    pending: Vec<PendingChannel>,
}

impl AcceptTask {
    fn spawn(node: &Arc<NodeInner>) -> TaskRef {
        TaskRef(node.reactor.spawn(crate::reactor::TaskKind::Accept, |me| {
            Box::new(AcceptTask {
                node: Arc::downgrade(node),
                me: Arc::clone(me),
                sources: Vec::new(),
                pending: Vec::new(),
            })
        }))
    }

    /// Subscribes to the accept source of every attached link, from
    /// scratch: links come and go, and a source shared by several of them
    /// has one waker slot and one descriptor. (A link that went keeps the
    /// waker it was given: its source may be one that others still share,
    /// and a wake for nothing costs one look.)
    fn subscribe(&mut self, inner: &NodeInner) {
        self.sources.clear();
        let me = Arc::clone(&self.me);
        let waker: Waker = Arc::new(move || me.wake());
        let links: Vec<_> = inner.peers.lock().values().cloned().collect();
        let mut listeners = HashSet::new();
        for link in links {
            let fd = match link.watch_accepts(Some(Arc::clone(&waker))) {
                Readiness::Fd(fd) if !listeners.insert(fd) => continue,
                Readiness::Fd(fd) => Some(self.me.watch_fd(fd)),
                _ => None,
            };
            self.sources.push((fd, link));
        }
    }

    /// Looks at one pending channel again; `None` once it is placed or
    /// closed.
    fn advance(
        &self,
        mut p: PendingChannel,
        inner: &Arc<NodeInner>,
        now: Instant,
    ) -> Option<PendingChannel> {
        // A channel carries repeats of its hello at most until it is
        // accepted — reading on loses nothing, and shows a dialer that
        // gave up.
        match p.watch.transport().try_recv() {
            Ok(Some(frame)) if p.hello.is_err() => {
                p.hello = Hello::decode(&frame).map_err(|_| now);
            }
            Ok(_) | Err(TransportError::Timeout) => p.watch.rearm(false),
            Err(_) => p.hello = Err(now),
        }
        // Peer attribution comes from the hello, not the link (shared
        // listeners deliver other peers' channels).
        let hello = match &p.hello {
            Ok(hello) => hello,
            // Silent for too long, hung up, or not an NCS channel.
            Err(end) if *end <= now => {
                p.watch.transport().close();
                return None;
            }
            Err(_) => return Some(p),
        };
        if !inner.peers.lock().contains_key(&hello.node) {
            return Some(p);
        }
        // Unsubscribe before the channel's next task subscribes.
        let transport = Arc::clone(p.watch.transport());
        drop(p.watch);
        if let Ok(hello) = p.hello {
            incoming(inner, transport, hello);
        }
        None
    }
}

impl ReactorTask for AcceptTask {
    fn poll(&mut self, now: Instant) -> TaskPoll {
        let Some(inner) = &self.node.upgrade() else {
            return TaskPoll::Done;
        };
        if inner.links_changed.swap(false, Ordering::AcqRel) {
            self.subscribe(inner);
        }
        let mut timer = None;
        for (fd, link) in &self.sources {
            loop {
                match link.try_accept_channel() {
                    Ok(Some(channel)) => self.pending.push(PendingChannel {
                        watch: inner.reactor.watch(&Arc::from(channel), &self.me),
                        hello: Err(now + HELLO_TIMEOUT),
                    }),
                    Ok(None) => break fd.iter().for_each(|fd| fd.rearm(false)),
                    Err(_) => break min_timer(&mut timer, now + ACCEPT_RETRY),
                }
            }
        }
        for p in std::mem::take(&mut self.pending) {
            let kept = self.advance(p, inner, now);
            self.pending.extend(kept);
        }
        let said_hello = |p: &PendingChannel| p.hello.is_ok();
        while self.pending.iter().filter(|p| said_hello(p)).count() > UNATTACHED_CHANNELS {
            let oldest = self.pending.iter().position(said_hello).expect("counted");
            self.pending.remove(oldest).watch.transport().close();
        }
        // A channel whose hello is awaited is looked at again by its
        // deadline, and when its wire's next frame falls due.
        for p in &self.pending {
            if let Err(by) = p.hello {
                let due = p.watch.transport().due();
                min_timer(&mut timer, due.map_or(by, |at| at.min(by)));
            }
        }
        timer.map_or(TaskPoll::Idle, TaskPoll::Timer)
    }
}

impl Drop for AcceptTask {
    /// Hangs up what the task still holds, however it ends: retired by
    /// its node, or dropped with a reactor that was shut down under it.
    fn drop(&mut self) {
        for (_, link) in &self.sources {
            link.watch_accepts(None);
        }
        for p in &self.pending {
            p.watch.transport().close();
        }
    }
}

/// Turns a channel a peer opened into a connection, whose first frame back
/// is its `AcceptConn`. Runs on the event loop, inside the accept task's
/// poll: nothing here blocks.
fn incoming(inner: &Arc<NodeInner>, transport: Arc<dyn Transport>, hello: Hello) {
    if hello.config.validate(transport.caps().max_frame).is_err() {
        transport.close();
        return;
    }
    // Nothing is built on a channel that arrives as the node shuts down.
    let Some(shared) = inner.open_conn(hello.node, hello.config, transport) else {
        return;
    };
    shared.mark_established(hello.initiator_conn);
    // The channel's first frame back. A fresh channel has room for it; one
    // that is lost is sent again when the hello's repeat comes.
    let accept = CtrlMsg::AcceptConn {
        initiator_conn: hello.initiator_conn,
        acceptor_conn: shared.id,
    };
    let _ = shared.transport.try_send_batch(&[&accept.encode()]);
    attach_connection(&inner.reactor, &shared);
    inner.pending_accepts.send(Some(NcsConnection::new(shared)));
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use crate::link::HpiLinkPair;
    use ncs_threads::UserRuntime;
    use ncs_transport::Capabilities;
    use std::collections::VecDeque;

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
        // "fg50" would mark every service thread of the two nodes, in any
        // model there has been: the acceptors', Control Send's, ….
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
            conn.isend(&[round]).and_then(|r| r.wait()).expect("send");
            assert_eq!(back.recv().expect("recv"), [round]);
            node.forget_peer("fg50x");
            assert!(!conn.is_open());
            peer.forget_peer("fg50");
        }
        assert_eq!(node.connection_count(), 0);
        // The tasks retire on the wake `forget_peer` gave them; what is
        // left is the node's one accept task, with nothing to watch.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (threads_named("fg50"), reactor.live_tasks()) != (threads, tasks + 1) {
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

    /// A channel whose blocking calls panic: whatever a task gets done
    /// on it, it gets done with `try_recv` and `try_send_batch`.
    /// Clones share their state: one goes to the node, one stays with the
    /// test.
    #[derive(Default, Clone)]
    struct Stub {
        /// The readiness waker the channel's watch installed.
        waker: Arc<Mutex<Option<Waker>>>,
        inbound: Arc<Mutex<VecDeque<Vec<u8>>>>,
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
        closed: Arc<AtomicBool>,
    }

    impl Transport for Stub {
        fn caps(&self) -> Capabilities {
            Capabilities {
                interface: "STUB",
                overrun_ring: None,
                ordered: true,
                max_frame: 1 << 16,
            }
        }
        fn recv_timeout(&self, _: Duration) -> Result<Vec<u8>, TransportError> {
            panic!("blocking recv_timeout on the event loop")
        }
        fn send_batch(&self, _: &[&[u8]]) -> Result<usize, TransportError> {
            panic!("blocking send_batch on the event loop")
        }
        fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
            Ok(self.inbound.lock().pop_front())
        }
        fn try_send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
            let mut sent = self.sent.lock();
            sent.extend(frames.iter().map(|f| f.to_vec()));
            Ok(frames.len())
        }
        fn readiness(&self) -> Readiness {
            Readiness::Waker
        }
        fn register_waker(&self, waker: Option<Waker>) {
            *self.waker.lock() = waker;
        }
        fn close(&self) {
            self.closed.store(true, Ordering::Release);
        }
        fn peer_label(&self) -> String {
            "stub".to_owned()
        }
    }

    impl std::fmt::Debug for Stub {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Stub")
        }
    }

    impl Stub {
        /// A frame from the far end, announced as a waker-driven endpoint
        /// announces one.
        fn arrive(&self, frame: Vec<u8>) {
            self.inbound.lock().push_back(frame);
            let waker = self.waker.lock().clone();
            if let Some(wake) = waker {
                wake();
            }
        }

        /// What the node wrote so far, waiting for `n` control messages.
        fn control_messages(&self, n: usize) -> Vec<CtrlMsg> {
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.sent.lock().len() < n {
                assert!(Instant::now() < deadline, "control message {n} never sent");
                std::thread::sleep(Duration::from_millis(1));
            }
            let sent = self.sent.lock();
            sent.iter().map(|f| CtrlMsg::decode(f).unwrap()).collect()
        }
    }

    /// A link nobody can dial over, holding the channels a peer "opened".
    #[derive(Debug, Default)]
    struct StubLink {
        incoming: Mutex<VecDeque<Stub>>,
    }

    impl StubLink {
        /// Queues a channel for acceptance, with `frames` already on it.
        fn incoming(&self, frames: &[Vec<u8>]) -> Stub {
            let channel = Stub::default();
            channel.inbound.lock().extend(frames.iter().cloned());
            self.incoming.lock().push_back(channel.clone());
            channel
        }
    }

    impl PeerLink for StubLink {
        fn open_channel(&self) -> Result<Box<dyn Transport>, TransportError> {
            panic!("the accepting side opened a channel")
        }
        fn try_accept_channel(&self) -> Result<Option<Box<dyn Transport>>, TransportError> {
            Ok(self.incoming.lock().pop_front().map(|c| Box::new(c) as _))
        }
        fn watch_accepts(&self, _: Option<Waker>) -> Readiness {
            Readiness::Waker
        }
        fn interface(&self) -> &'static str {
            "STUB"
        }
    }

    fn hello(node: &str, initiator_conn: u32) -> Vec<u8> {
        Hello {
            node: node.to_owned(),
            initiator_conn,
            config: ConnectionConfig::reliable(),
        }
        .encode()
    }

    /// The body of the isolation test: the accepting side of a connection
    /// set-up, the connection's life and its close, over a link and
    /// channels whose blocking methods panic. The accept task is polled
    /// by hand — the node's reactor runs the connection tasks it hands the
    /// channels to.
    fn drive_accept_task_by_hand() {
        let node = NcsNode::builder("hand").build();
        // The task under test takes the node's accept slot, so that
        // `attach_peer` spawns no second one onto the reactor.
        let idle = node.inner.reactor.spawn_task(|_| None);
        let mut task = AcceptTask {
            node: Arc::downgrade(&node.inner),
            me: Arc::clone(&idle.0),
            sources: Vec::new(),
            pending: Vec::new(),
        };
        *node.inner.accept.lock() = Some(idle);
        let link = Arc::new(StubLink::default());
        let now = Instant::now();
        let hello_by = TaskPoll::Timer(now + HELLO_TIMEOUT);
        let polls_to = |task: &mut AcceptTask, at, want: &TaskPoll| match (task.poll(at), want) {
            (TaskPoll::Idle, TaskPoll::Idle) => {}
            (TaskPoll::Timer(got), TaskPoll::Timer(want)) => assert_eq!(got, *want),
            _ => panic!("the poll did not end as expected"),
        };

        // Over a link the node accepts on for another peer, three channels
        // arrive before their own peer is attached: one that says nothing,
        // one that is not NCS's, and one that opens a connection.
        node.attach_peer("anchor", Arc::clone(&link) as Arc<dyn PeerLink>);
        let silent = link.incoming(&[]);
        let garbage = link.incoming(&[vec![0xFF, 0xFF]]);
        let data = link.incoming(&[hello("far", 7)]);
        polls_to(&mut task, now, &hello_by);
        assert!(garbage.closed.load(Ordering::Acquire));
        assert_eq!(task.pending.len(), 2, "waiting for the attach");
        assert_eq!(
            node.accept(Duration::ZERO).err(),
            Some(AcceptError::Timeout)
        );

        // The attach: the channel becomes a connection, whose first frame
        // back is its AcceptConn.
        node.attach_peer("far", Arc::clone(&link) as Arc<dyn PeerLink>);
        polls_to(&mut task, now, &hello_by);
        assert_eq!(task.pending.len(), 1, "the silent channel waits on");
        let conn = node.accept(Duration::ZERO).expect("accepted on the poll");
        assert_eq!((conn.peer_name(), node.connection_count()), ("far", 1));
        let accept = CtrlMsg::AcceptConn {
            initiator_conn: 7,
            acceptor_conn: conn.id(),
        };
        assert_eq!(data.control_messages(1), std::slice::from_ref(&accept));

        // A repeat of the hello — the AcceptConn was lost — is answered
        // with the AcceptConn again, on the same connection.
        data.arrive(hello("far", 7));
        assert_eq!(data.control_messages(2), [accept.clone(), accept.clone()]);
        assert_eq!(node.connection_count(), 1);

        // A second connection; then both close, each channel's last frame
        // its CloseConn.
        let data2 = link.incoming(&[hello("far", 8)]);
        polls_to(&mut task, now, &hello_by);
        let conn2 = node.accept(Duration::ZERO).expect("accepted on the poll");
        let accept2 = CtrlMsg::AcceptConn {
            initiator_conn: 8,
            acceptor_conn: conn2.id(),
        };
        conn.close();
        conn2.close();
        assert_eq!(
            data.control_messages(3),
            [accept.clone(), accept, CtrlMsg::CloseConn { conn: 7 }]
        );
        assert_eq!(
            data2.control_messages(2),
            [accept2, CtrlMsg::CloseConn { conn: 8 }]
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while !(data.closed.load(Ordering::Acquire) && data2.closed.load(Ordering::Acquire)) {
            assert!(Instant::now() < deadline, "a closed connection hangs up");
            std::thread::sleep(Duration::from_millis(1));
        }

        // The silent channel is closed at its deadline, not before.
        assert!(!silent.closed.load(Ordering::Acquire));
        polls_to(&mut task, now + HELLO_TIMEOUT, &TaskPoll::Idle);
        assert!(silent.closed.load(Ordering::Acquire) && task.pending.is_empty());

        // Channels of nodes not attached wait for `attach_peer`, the
        // oldest giving way beyond the bound...
        let ghosts: Vec<Stub> = (0..=UNATTACHED_CHANNELS)
            .map(|i| link.incoming(&[hello(&format!("ghost-{i}"), 1)]))
            .collect();
        polls_to(&mut task, now, &TaskPoll::Idle);
        assert_eq!(task.pending.len(), UNATTACHED_CHANNELS);
        let closed: Vec<bool> = ghosts
            .iter()
            .map(|g| g.closed.load(Ordering::Acquire))
            .collect();
        assert!(closed[0] && !closed[1..].contains(&true));
        // ...and are hung up with the task.
        node.shutdown();
        drop(task);
        assert!(ghosts.iter().all(|g| g.closed.load(Ordering::Acquire)));
    }

    #[test]
    fn accept_task_never_blocks_through_a_connect_accept_close_cycle() {
        // On a kernel thread, then as a green thread of the user-level
        // package (whose mailboxes park cooperatively).
        drive_accept_task_by_hand();
        UserRuntime::default().run(|_pkg| drive_accept_task_by_hand());
    }
}
