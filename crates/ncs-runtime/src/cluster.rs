//! [`ClusterNode`]: one rank of a multi-process NCS world.
//!
//! Bootstrap sequence (the tentpole of the cluster runtime):
//!
//! 1. bind an SCI listener (`bind`, default ephemeral on loopback);
//! 2. register `(rank, listener address)` with the rendezvous service and
//!    block for the world [`Roster`];
//! 3. build an [`NcsNode`] named `rank<r>` carrying the rank identity,
//!    and attach one [`SciLink`] per peer (all sharing the one listener —
//!    peer attribution comes from the NCS hello, and every dial retries
//!    with bounded backoff because peers race through startup);
//! 4. establish one NCS connection per peer, deterministically: this rank
//!    *dials* every higher rank and *accepts* from every lower rank;
//! 5. exchange a [`ClusterHello`] (protocol version + rank + world) on
//!    every connection and refuse mismatches.
//!
//! The result is a fully wired world: per-peer [`NcsConnection`]s ready
//! for point-to-point traffic, and [`ClusterNode::collective_group`] for
//! the collectives engine — which runs unmodified across processes, since
//! it only ever sees `NcsConnection`s.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_collectives::{CollectiveConfig, CollectiveError, CollectiveGroup, ViewAbortHandle};
use ncs_core::link::SciLink;
use ncs_core::{AcceptError, ConnectError, ConnectionConfig, NcsConnection, NcsNode};
use ncs_transport::sci::SciListener;
use ncs_transport::TransportError;
use parking_lot::{Condvar, Mutex};

use crate::membership::{MemberAgent, MembershipConfig, MembershipMetrics, View, ViewSink};
use crate::rendezvous;
use crate::wire::{ClusterHello, Roster, PROTOCOL_VERSION};

/// Environment variables the launcher hands to every rank (read by
/// [`ClusterConfig::from_env`]).
pub mod env {
    /// This process's rank (`0..world`).
    pub const RANK: &str = "NCS_RANK";
    /// World size.
    pub const WORLD: &str = "NCS_WORLD";
    /// Rendezvous service address (`ip:port`).
    pub const NCSD: &str = "NCS_NCSD";
    /// Optional SCI listener bind address (default `127.0.0.1:0`).
    pub const BIND: &str = "NCS_BIND";
    /// This process's incarnation of its rank slot (0 at first launch;
    /// `ncs-launch --respawn-dead` bumps it on every respawn). A nonzero
    /// incarnation means "rejoin the world" rather than "bootstrap it".
    pub const INCARNATION: &str = "NCS_INCARNATION";
}

/// Errors from cluster bootstrap and membership operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Invalid or missing configuration (bad env vars, zero world, rank
    /// out of range).
    Config(String),
    /// The rendezvous exchange failed (rejection, malformed answer).
    Rendezvous(String),
    /// A socket-level failure.
    Transport(TransportError),
    /// Establishing an NCS connection to a peer failed.
    Connect(String),
    /// Waiting for a peer's inbound connection failed.
    Accept(AcceptError),
    /// The peer handshake refused the connection (version or identity
    /// mismatch).
    Handshake(String),
    /// A bootstrap stage ran out of time.
    Timeout(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(why) => write!(f, "cluster configuration error: {why}"),
            ClusterError::Rendezvous(why) => write!(f, "rendezvous failure: {why}"),
            ClusterError::Transport(e) => write!(f, "cluster transport failure: {e}"),
            ClusterError::Connect(why) => write!(f, "peer connect failure: {why}"),
            ClusterError::Accept(e) => write!(f, "peer accept failure: {e}"),
            ClusterError::Handshake(why) => write!(f, "cluster handshake refused: {why}"),
            ClusterError::Timeout(why) => write!(f, "cluster bootstrap timed out: {why}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<TransportError> for ClusterError {
    fn from(e: TransportError) -> Self {
        ClusterError::Transport(e)
    }
}

impl From<ConnectError> for ClusterError {
    fn from(e: ConnectError) -> Self {
        ClusterError::Connect(e.to_string())
    }
}

impl From<AcceptError> for ClusterError {
    fn from(e: AcceptError) -> Self {
        ClusterError::Accept(e)
    }
}

/// Bootstrap parameters of one rank.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This process's rank (`0..world`).
    pub rank: u32,
    /// World size (number of ranks).
    pub world: u32,
    /// Rendezvous service address.
    pub ncsd: SocketAddr,
    /// SCI listener bind address (port 0 for ephemeral).
    pub bind: String,
    /// Per-connection NCS configuration for the world links. SCI rides
    /// TCP, which is already reliable, so the default is the paper's
    /// §3.1 bypass ([`ConnectionConfig::unreliable`] — no FC/EC threads).
    pub conn: ConnectionConfig,
    /// Budget for the whole bootstrap. Rendezvous, the accept phase and
    /// the handshakes all draw from one deadline; each per-peer dial is
    /// additionally bounded by whatever remained when the links were
    /// attached (so a world of crashed peers costs at most one further
    /// budget per dial, not an unbounded kernel connect).
    pub boot_timeout: Duration,
    /// This process's incarnation of its rank slot (see
    /// [`env::INCARNATION`]). Zero for a first launch; a replacement
    /// process rejoining a vacated slot carries a higher number.
    pub incarnation: u32,
}

impl ClusterConfig {
    /// A default configuration for `rank` of `world` meeting at `ncsd`.
    pub fn new(rank: u32, world: u32, ncsd: SocketAddr) -> Self {
        ClusterConfig {
            rank,
            world,
            ncsd,
            bind: "127.0.0.1:0".into(),
            conn: ConnectionConfig::unreliable(),
            boot_timeout: Duration::from_secs(30),
            incarnation: 0,
        }
    }

    /// Reads the launcher-provided environment ([`mod@env`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] when a required variable is missing or
    /// unparseable.
    pub fn from_env() -> Result<Self, ClusterError> {
        fn need(name: &str) -> Result<String, ClusterError> {
            std::env::var(name).map_err(|_| {
                ClusterError::Config(format!(
                    "{name} is not set — run under ncs-launch, or export it manually"
                ))
            })
        }
        let rank: u32 = need(env::RANK)?
            .parse()
            .map_err(|_| ClusterError::Config(format!("{} must be an integer", env::RANK)))?;
        let world: u32 = need(env::WORLD)?
            .parse()
            .map_err(|_| ClusterError::Config(format!("{} must be an integer", env::WORLD)))?;
        let ncsd: SocketAddr = need(env::NCSD)?
            .parse()
            .map_err(|_| ClusterError::Config(format!("{} must be ip:port", env::NCSD)))?;
        let mut cfg = ClusterConfig::new(rank, world, ncsd);
        if let Ok(bind) = std::env::var(env::BIND) {
            cfg.bind = bind;
        }
        if let Ok(inc) = std::env::var(env::INCARNATION) {
            cfg.incarnation = inc.parse().map_err(|_| {
                ClusterError::Config(format!("{} must be an integer", env::INCARNATION))
            })?;
        }
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ClusterError> {
        if self.world == 0 {
            return Err(ClusterError::Config("world size must be positive".into()));
        }
        if self.rank >= self.world {
            return Err(ClusterError::Config(format!(
                "rank {} out of range for world {}",
                self.rank, self.world
            )));
        }
        Ok(())
    }
}

/// The canonical node name of `rank` (shared with the in-process
/// [`crate::session::LocalWorld`], so logs read the same either way).
pub(crate) fn rank_name(rank: u32) -> String {
    format!("rank{rank}")
}

/// Parses a peer rank back out of its node name.
fn parse_rank_name(name: &str) -> Option<u32> {
    name.strip_prefix("rank")?.parse().ok()
}

/// One rank's handle on a fully bootstrapped multi-process NCS world.
///
/// Static worlds use it exactly as before membership existed. Elastic
/// worlds additionally call [`ClusterNode::enable_membership`]: the rank
/// then heartbeats `ncsd`, receives epoch [`View`]s, re-meshes its links
/// when membership changes, and fails watched collective groups fast
/// with [`CollectiveError::ViewChanged`] (register groups with
/// [`ClusterNode::watch_group`]).
pub struct ClusterNode {
    shared: Arc<ClusterShared>,
}

/// The state a [`ClusterNode`] shares with its membership machinery (the
/// view-applier thread re-meshes through the same link map the
/// application reads).
struct ClusterShared {
    node: NcsNode,
    rank: u32,
    world: u32,
    ncsd: SocketAddr,
    /// This rank's SCI listener, shared by every peer link — kept so
    /// re-mesh can attach replacement links to it.
    listener: Arc<SciListener>,
    /// Per-connection configuration applied to re-meshed world links.
    conn_cfg: ConnectionConfig,
    incarnation: u32,
    roster: Mutex<Roster>,
    links: Mutex<HashMap<usize, NcsConnection>>,
    /// The latest membership view applied (links already re-meshed to
    /// match it when it lands here). `None` until membership is enabled
    /// and the first view arrives.
    view: Mutex<Option<View>>,
    view_cv: Condvar,
    /// Abort handles of collective groups watching for view changes.
    watched: Mutex<Vec<ViewAbortHandle>>,
    /// The running membership client, once enabled.
    agent: Mutex<Option<MembershipDriver>>,
    telemetry_published: std::sync::Once,
}

/// The two threads behind an enabled membership: the heartbeat agent and
/// the view applier (which does the slow re-mesh work so heartbeats never
/// stall behind it — a rank must not get itself declared dead by being
/// busy re-meshing).
struct MembershipDriver {
    agent: MemberAgent,
    applier: Option<std::thread::JoinHandle<()>>,
}

/// Budget for the best-effort telemetry push back to `ncsd` at shutdown.
const TELEMETRY_PUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Budget for re-establishing one link during a view-change re-mesh.
const REMESH_BUDGET: Duration = Duration::from_secs(10);

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("rank", &self.shared.rank)
            .field("world", &self.shared.world)
            .field("incarnation", &self.shared.incarnation)
            .finish()
    }
}

impl ClusterNode {
    /// Runs the full bootstrap (module docs) and returns the wired world.
    ///
    /// Every rank of the world must run this concurrently; it blocks
    /// until all of them have met, connected and shaken hands, bounded by
    /// [`ClusterConfig::boot_timeout`].
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn bootstrap(cfg: ClusterConfig) -> Result<Self, ClusterError> {
        Self::enter(cfg, false)
    }

    /// Boots a *replacement* process back into a vacated rank slot of an
    /// already-running world.
    ///
    /// Where [`ClusterNode::bootstrap`] is symmetric (every rank runs it
    /// together), `rejoin` is one-sided: the world already exists, one
    /// slot's occupant died (or left), and this process re-adopts the slot
    /// with a bumped [`ClusterConfig::incarnation`]. It binds a listener,
    /// replays the current membership [`View`] from `ncsd` (which also
    /// publishes this join to every subscriber), and meshes with each
    /// survivor under the bootstrap direction invariant — this rank dials
    /// the higher survivors while the lower survivors' view appliers dial
    /// it back.
    ///
    /// The survivors must be elastic ([`ClusterNode::enable_membership`])
    /// or nobody re-meshes with the replacement and rejoin times out.
    ///
    /// # Errors
    ///
    /// See [`ClusterError`]; notably [`ClusterError::Rendezvous`] when the
    /// slot is still occupied by a live member.
    pub fn rejoin(cfg: ClusterConfig) -> Result<Self, ClusterError> {
        Self::enter(cfg, true)
    }

    /// The one way into a world: bind, learn who is where — the roster
    /// from `Register` at bootstrap, the member list of the replayed view
    /// (which is then installed) on a rejoin — attach a link per peer,
    /// dial up, accept down, and shake hands.
    fn enter(cfg: ClusterConfig, rejoining: bool) -> Result<Self, ClusterError> {
        cfg.validate()?;
        let deadline = Instant::now() + cfg.boot_timeout;
        let listener = Arc::new(SciListener::bind(&cfg.bind)?);
        let my_addr = listener.local_addr()?;
        let budget = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(10));
        let (mut members, view) = if rejoining {
            // State replay: ncsd admits us into the slot and hands back
            // the post-join view (every live member, us included).
            let view = rendezvous::rejoin(
                cfg.ncsd,
                cfg.rank,
                cfg.world,
                my_addr,
                cfg.incarnation,
                budget,
            )?;
            let members = view
                .members
                .iter()
                .map(|m| {
                    let addr = m.addr.parse().map_err(|_| {
                        ClusterError::Rendezvous(format!(
                            "replayed view carries unparseable address {:?} for rank {}",
                            m.addr, m.rank
                        ))
                    })?;
                    Ok((m.rank, addr))
                })
                .collect::<Result<Vec<(u32, SocketAddr)>, ClusterError>>()?;
            (members, Some(view))
        } else {
            let roster = rendezvous::register(cfg.ncsd, cfg.rank, cfg.world, my_addr, budget)?;
            (roster.members, None)
        };
        members.retain(|&(r, _)| r != cfg.rank);

        // The NCS node, with one retrying SCI link per peer. All links
        // share this rank's listener: inbound channels carry the opener's
        // node name in their hello, so the node routes them correctly no
        // matter which link accepted. Each dial's retry budget is what
        // remains of the deadline now (floored so a tight deadline still
        // gets one real attempt per peer). One node per process: its
        // readiness reactor multiplexes every peer link on O(cores) event
        // loops, however large the world is (see [`ClusterNode::reactor`]).
        let dial_budget = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_secs(1));
        let node = NcsNode::builder(&rank_name(cfg.rank))
            .rank(cfg.rank)
            .build();
        for &(r, addr) in &members {
            node.attach_peer(
                &rank_name(r),
                SciLink::with_connect_timeout(addr, Arc::clone(&listener), dial_budget),
            );
        }

        // Deterministic establishment: dial up, accept down — the same
        // invariant the survivors' view appliers follow on a rejoin, so
        // both sides agree who opens each link. A peer answers only once
        // it has attached this rank (still working through its roster, or
        // not yet through the join view), so dials retry until the
        // deadline.
        let mut links: HashMap<usize, NcsConnection> = HashMap::new();
        for &(r, _) in members.iter().filter(|&&(r, _)| r > cfg.rank) {
            links.insert(r as usize, dial(&node, r, &cfg.conn, deadline)?);
        }
        while links.len() < members.len() {
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| {
                    ClusterError::Timeout(format!(
                        "rank {} still waiting for {} inbound peer connection(s){}",
                        cfg.rank,
                        members.len() - links.len(),
                        if rejoining {
                            " (are the survivors running with membership enabled?)"
                        } else {
                            ""
                        }
                    ))
                })?;
            let conn = node.accept(left)?;
            let Some(peer) = parse_rank_name(conn.peer_name()) else {
                // Not a cluster rank (stray connector); ignore it.
                continue;
            };
            if peer >= cfg.world || peer == cfg.rank || links.contains_key(&(peer as usize)) {
                continue;
            }
            links.insert(peer as usize, conn);
        }

        handshake(cfg.rank, cfg.world, &links, deadline)?;

        members.push((cfg.rank, my_addr));
        members.sort_by_key(|&(r, _)| r);
        Ok(ClusterNode {
            shared: Arc::new(ClusterShared {
                node,
                rank: cfg.rank,
                world: cfg.world,
                ncsd: cfg.ncsd,
                listener,
                conn_cfg: cfg.conn,
                incarnation: cfg.incarnation,
                roster: Mutex::new(Roster {
                    world: cfg.world,
                    members,
                }),
                links: Mutex::new(links),
                view: Mutex::new(view),
                view_cv: Condvar::new(),
                watched: Mutex::new(Vec::new()),
                agent: Mutex::new(None),
                telemetry_published: std::sync::Once::new(),
            }),
        })
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.shared.rank
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.shared.world
    }

    /// This process's incarnation of its rank slot (0 for a first
    /// launch).
    pub fn incarnation(&self) -> u32 {
        self.shared.incarnation
    }

    /// The underlying NCS node (for point-to-point primitives, pool
    /// statistics, thread package).
    pub fn node(&self) -> &NcsNode {
        &self.shared.node
    }

    /// The readiness reactor multiplexing every link of this rank — all
    /// world links and any extra [`ClusterNode::open_connection`] channels
    /// share its O(cores) event loops. Inspect its
    /// [`stats`](ncs_core::Reactor::stats) for wakeup/poll diagnostics.
    pub fn reactor(&self) -> Arc<ncs_core::Reactor> {
        self.shared.node.reactor()
    }

    /// The world roster: learned at rendezvous, kept current across
    /// membership re-meshes (a replaced rank's slot points at its live
    /// occupant).
    pub fn roster(&self) -> Roster {
        self.shared.roster.lock().clone()
    }

    /// The current world connection to `rank`, if it is another live
    /// member. Returns a clone — connections are shareable handles — so
    /// the membership machinery can re-mesh the underlying map without
    /// invalidating anything the application holds.
    pub fn connection(&self, rank: u32) -> Option<NcsConnection> {
        self.shared.links.lock().get(&(rank as usize)).cloned()
    }

    /// A clone of the world-link map (peer rank -> connection), the shape
    /// [`CollectiveGroup::new`] consumes.
    pub fn world_links(&self) -> HashMap<usize, NcsConnection> {
        self.shared.links.lock().clone()
    }

    /// Builds the collectives engine over the world links with the
    /// default [`CollectiveConfig`].
    ///
    /// The group's pump threads take ownership of the links' delivery
    /// queues: once a collective group exists, use
    /// [`ClusterNode::open_connection`] / [`ClusterNode::accept_connection`]
    /// for point-to-point traffic instead of the bootstrap links (and
    /// build at most one live group over them).
    ///
    /// # Errors
    ///
    /// Propagates [`CollectiveGroup::new`] errors.
    pub fn collective_group(&self, id: u32) -> Result<CollectiveGroup, CollectiveError> {
        CollectiveGroup::new(
            &self.shared.node,
            id,
            self.shared.rank as usize,
            self.world_links(),
        )
    }

    /// [`ClusterNode::collective_group`] with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// Propagates [`CollectiveGroup::with_config`] errors.
    pub fn collective_group_with(
        &self,
        id: u32,
        cfg: CollectiveConfig,
    ) -> Result<CollectiveGroup, CollectiveError> {
        CollectiveGroup::with_config(
            &self.shared.node,
            id,
            self.shared.rank as usize,
            self.world_links(),
            cfg,
        )
    }

    /// Opens a fresh point-to-point NCS connection to `rank` (beyond the
    /// bootstrap links); the peer must call
    /// [`ClusterNode::accept_connection`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an invalid rank, otherwise connect
    /// errors.
    pub fn open_connection(
        &self,
        rank: u32,
        cfg: ConnectionConfig,
    ) -> Result<NcsConnection, ClusterError> {
        if rank == self.shared.rank || rank >= self.shared.world {
            return Err(ClusterError::Config(format!(
                "cannot open a connection to rank {rank} from rank {} of {}",
                self.shared.rank, self.shared.world
            )));
        }
        Ok(self.shared.node.connect(&rank_name(rank), cfg)?)
    }

    /// Accepts the next incoming point-to-point connection from any peer
    /// rank (the counterpart of [`ClusterNode::open_connection`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Accept`] on timeout or shutdown.
    pub fn accept_connection(&self, timeout: Duration) -> Result<NcsConnection, ClusterError> {
        Ok(self.shared.node.accept(timeout)?)
    }

    /// This rank's full telemetry dump — metrics snapshot plus every
    /// connection's flight recording — as one JSON object (the per-rank
    /// unit [`crate::launch()`] aggregates into the world view).
    pub fn telemetry(&self) -> String {
        self.shared.node.telemetry()
    }

    /// Publishes this rank's telemetry to the launcher-side sinks, if any
    /// were requested: pushes to `ncsd` when `NCS_TELEMETRY=1`
    /// ([`ncs_obs::postmortem::push_requested`]) and writes to the
    /// `NCS_TELEMETRY_FILE` path when set. Best-effort — failures are
    /// swallowed so telemetry never turns a clean exit into a failure.
    pub fn publish_telemetry(&self) {
        self.shared.telemetry_published.call_once(|| {
            let needs_push = ncs_obs::postmortem::push_requested();
            let needs_file = ncs_obs::postmortem::sink_path().is_some();
            if !needs_push && !needs_file {
                return;
            }
            let dump = self.telemetry();
            if needs_file {
                ncs_obs::postmortem::write(&dump);
            }
            if needs_push {
                let _ = rendezvous::push_telemetry(
                    self.shared.ncsd,
                    self.shared.rank,
                    &dump,
                    TELEMETRY_PUSH_TIMEOUT,
                );
            }
        });
    }

    /// Shuts the rank down: stops the membership machinery (if enabled),
    /// publishes telemetry (when requested via the
    /// [`mod@ncs_obs::postmortem`] environment), closes every connection
    /// and stops the node's NCS threads. Idempotent.
    pub fn shutdown(&self) {
        if let Some(mut driver) = self.shared.agent.lock().take() {
            // Stopping the agent drops its view sink, which closes the
            // applier's channel; join both so no thread outlives the node.
            driver.agent.stop();
            if let Some(h) = driver.applier.take() {
                let _ = h.join();
            }
        }
        self.publish_telemetry();
        self.shared.node.shutdown();
    }

    // -- membership --------------------------------------------------------

    /// Turns this rank into a member of an *elastic* world, with
    /// failure-detector thresholds from the environment
    /// ([`MembershipConfig::from_env`]). See
    /// [`ClusterNode::enable_membership_with`].
    ///
    /// # Errors
    ///
    /// As [`ClusterNode::enable_membership_with`].
    pub fn enable_membership(&self) -> Result<(), ClusterError> {
        self.enable_membership_with(MembershipConfig::from_env())
    }

    /// Turns this rank into a member of an *elastic* world: starts the
    /// heartbeat agent (subscribing to `ncsd`'s view stream) and the view
    /// applier that keeps this rank's links matching each arriving
    /// [`View`] — dropping links (and flushing their per-peer metric
    /// series) when members die or leave, dialling/accepting replacement
    /// links when members join, and failing watched collective groups
    /// fast with [`CollectiveError::ViewChanged`].
    ///
    /// Idempotent: a second call on an already-elastic rank is a no-op.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for unordered thresholds;
    /// [`ClusterError::Transport`] when the subscription dial fails.
    pub fn enable_membership_with(&self, cfg: MembershipConfig) -> Result<(), ClusterError> {
        cfg.validate()?;
        let mut slot = self.shared.agent.lock();
        if slot.is_some() {
            return Ok(());
        }
        let metrics = MembershipMetrics::register(&self.shared.node.registry());
        // Views are applied off the agent thread: re-meshing dials and
        // accepts with multi-second budgets, and a rank that stalled its
        // own heartbeats while re-meshing would promptly be declared dead
        // itself.
        let (tx, rx) = std::sync::mpsc::channel::<View>();
        let weak = Arc::downgrade(&self.shared);
        let applier = std::thread::Builder::new()
            .name(format!("ncs-view-{}", self.shared.rank))
            .spawn(move || {
                while let Ok(view) = rx.recv() {
                    let Some(shared) = weak.upgrade() else { return };
                    apply_view(&shared, &view);
                }
            })
            .expect("spawn view applier");
        let tx = std::sync::Mutex::new(tx);
        let sink: ViewSink = Arc::new(move |v: &View| {
            if let Ok(tx) = tx.lock() {
                let _ = tx.send(v.clone());
            }
        });
        let agent = MemberAgent::start(
            self.shared.ncsd,
            self.shared.rank,
            self.shared.incarnation,
            cfg,
            metrics,
            sink,
        )?;
        *slot = Some(MembershipDriver {
            agent,
            applier: Some(applier),
        });
        Ok(())
    }

    /// The latest membership view applied to this rank (`None` until
    /// membership is enabled and the first view arrives). When a view is
    /// returned, this rank's links already match it.
    pub fn current_view(&self) -> Option<View> {
        self.shared.view.lock().clone()
    }

    /// Blocks until a membership view satisfying `pred` has been applied
    /// (links re-meshed to match), or `timeout` passes.
    ///
    /// The canonical recovery wait after a [`CollectiveError::ViewChanged`]:
    /// `wait_view(|v| v.is_full(), ...)` parks until the dead rank's
    /// replacement has joined and this rank has re-linked to it.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Timeout`] when no satisfying view arrives in time.
    pub fn wait_view(
        &self,
        pred: impl Fn(&View) -> bool,
        timeout: Duration,
    ) -> Result<View, ClusterError> {
        // No deadline at all for a timeout beyond what the clock can tell.
        let deadline = Instant::now().checked_add(timeout);
        let mut guard = self.shared.view.lock();
        loop {
            if let Some(v) = guard.as_ref() {
                if pred(v) {
                    return Ok(v.clone());
                }
            }
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return Err(ClusterError::Timeout(
                    "no matching membership view in time".into(),
                ));
            }
            self.shared.view_cv.wait_for(&mut guard, left);
        }
    }

    /// Registers `group` for fail-fast on view change: when the world's
    /// membership view next changes, the group's in-flight and queued
    /// operations fail with [`CollectiveError::ViewChanged`] instead of
    /// idling out their timeouts. Watching is weak — dropping the group
    /// unregisters it.
    pub fn watch_group(&self, group: &CollectiveGroup) {
        let mut watched = self.shared.watched.lock();
        watched.retain(ViewAbortHandle::is_live);
        watched.push(group.view_abort_handle());
    }
}

/// The cluster handshake on a set of freshly established links (peer rank
/// -> connection): rank `me` of `world` sends its [`ClusterHello`] on
/// every link, then awaits each peer's and refuses a protocol version,
/// rank or world size other than the expected one. Every hello goes out
/// before any is awaited — sends are asynchronous, so no order in which
/// the ranks of a world walk their links can leave them waiting on each
/// other.
fn handshake(
    me: u32,
    world: u32,
    links: &HashMap<usize, NcsConnection>,
    deadline: Instant,
) -> Result<(), ClusterError> {
    let hello = ClusterHello {
        version: PROTOCOL_VERSION,
        rank: me,
        world,
    };
    for conn in links.values() {
        conn.send(&hello.encode())
            .map_err(|e| ClusterError::Connect(e.to_string()))?;
    }
    for (&peer, conn) in links {
        let left = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| {
                ClusterError::Timeout(format!("no handshake from rank {peer} in time"))
            })?;
        let frame = conn
            .recv_timeout(left)
            .map_err(|e| ClusterError::Handshake(format!("rank {peer}: {e}")))?;
        let h = ClusterHello::decode(&frame)
            .map_err(|e| ClusterError::Handshake(format!("rank {peer}: {e}")))?;
        if h.version != PROTOCOL_VERSION {
            return Err(ClusterError::Handshake(format!(
                "rank {peer} speaks protocol {} (this rank speaks {PROTOCOL_VERSION})",
                h.version
            )));
        }
        if h.rank as usize != peer || h.world != world {
            return Err(ClusterError::Handshake(format!(
                "peer on link {peer} claims rank {} of world {} (expected rank {peer} of {world})",
                h.rank, h.world
            )));
        }
    }
    Ok(())
}

/// Applies one membership view to a rank: aborts watched groups, drops
/// links to departed members (flushing their per-peer metric series),
/// establishes links to new members, updates the roster, and finally
/// publishes the view to [`ClusterNode::wait_view`] waiters — strictly in
/// that order, so a satisfied `wait_view` implies the links already
/// match. Runs on the dedicated view-applier thread, one view at a time,
/// in epoch order.
fn apply_view(shared: &Arc<ClusterShared>, view: &View) {
    if let Some(cur) = shared.view.lock().as_ref() {
        if view.id <= cur.id {
            return;
        }
    }
    let me = shared.rank;
    // Diff the view against our wiring (rather than trusting the deltas
    // alone): a subscriber that missed intermediate views still converges
    // on the member list, which is authoritative.
    let mut to_drop: Vec<u32> = Vec::new();
    let mut to_link: Vec<(u32, SocketAddr)> = Vec::new();
    {
        let links = shared.links.lock();
        let roster = shared.roster.lock();
        let known_addr = |r: u32| {
            roster
                .members
                .iter()
                .find(|&&(rr, _)| rr == r)
                .map(|&(_, a)| a)
        };
        for &p in links.keys() {
            let p = p as u32;
            match view.member(p) {
                None => to_drop.push(p),
                // Same slot, different occupant: relink below.
                Some(m) if known_addr(p).map(|a| a.to_string()) != Some(m.addr.clone()) => {
                    to_drop.push(p);
                }
                Some(_) => {}
            }
        }
        for m in &view.members {
            if m.rank == me {
                continue;
            }
            let linked = links.contains_key(&(m.rank as usize));
            let same_addr = known_addr(m.rank).map(|a| a.to_string()) == Some(m.addr.clone());
            if linked && same_addr {
                continue;
            }
            match m.addr.parse::<SocketAddr>() {
                Ok(a) => to_link.push((m.rank, a)),
                Err(_) => eprintln!(
                    "[rank {me}] view {} carries unparseable address {:?} for rank {}",
                    view.id, m.addr, m.rank
                ),
            }
        }
    }
    to_drop.sort_unstable();
    to_drop.dedup();
    if !to_drop.is_empty() || !to_link.is_empty() {
        // The topology is wrong from this instant: fail watched groups
        // *before* the (slow) re-mesh so no collective idles against a
        // member that will never answer.
        let mut watched = shared.watched.lock();
        watched.retain(ViewAbortHandle::is_live);
        for h in watched.iter() {
            h.abort(view.id);
        }
    }
    let registry = shared.node.registry();
    for p in &to_drop {
        shared.links.lock().remove(&(*p as usize));
        // Sever the node's ties (connections, accept dedup state, link)
        // so a replacement re-adopting the name meshes from a clean
        // slate, and flush the departed member's labelled series so
        // telemetry snapshots don't accumulate ghosts across generations
        // of occupants.
        shared.node.forget_peer(&rank_name(*p));
        registry.unregister_label("peer", &rank_name(*p));
    }
    for &(p, addr) in &to_link {
        if let Err(e) = remesh_peer(shared, p, addr) {
            eprintln!("[rank {me}] re-mesh with rank {p} at {addr} failed: {e}");
        }
    }
    {
        let mut roster = shared.roster.lock();
        roster
            .members
            .retain(|&(r, _)| r == me || view.member(r).is_some());
        for m in &view.members {
            let Ok(a) = m.addr.parse::<SocketAddr>() else {
                continue;
            };
            match roster.members.iter_mut().find(|&&mut (r, _)| r == m.rank) {
                Some(slot) => slot.1 = a,
                None => roster.members.push((m.rank, a)),
            }
        }
        roster.members.sort_by_key(|&(r, _)| r);
    }
    let mut cur = shared.view.lock();
    if view.id > cur.as_ref().map_or(0, |v| v.id) {
        *cur = Some(view.clone());
    }
    shared.view_cv.notify_all();
}

/// Opens the world link to rank `peer`, retrying until `deadline`: the
/// other end refuses (or ignores) the dial until it has attached this
/// rank — it may still be working through its roster at bootstrap, be a
/// replacement between its state replay and its accept loop, or a
/// survivor that has not applied the join yet.
fn dial(
    node: &NcsNode,
    peer: u32,
    cfg: &ConnectionConfig,
    deadline: Instant,
) -> Result<NcsConnection, ClusterError> {
    loop {
        match node.connect(&rank_name(peer), cfg.clone()) {
            Ok(conn) => return Ok(conn),
            Err(e) if Instant::now() >= deadline => return Err(e.into()),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Re-establishes the world link to `peer` (now at `addr`) after a view
/// change, honouring the bootstrap direction invariant — the lower rank
/// dials, the higher rank accepts — so the two ends of every re-mesh
/// agree without coordination.
fn remesh_peer(
    shared: &Arc<ClusterShared>,
    peer: u32,
    addr: SocketAddr,
) -> Result<(), ClusterError> {
    let deadline = Instant::now() + REMESH_BUDGET;
    shared.node.attach_peer(
        &rank_name(peer),
        SciLink::with_connect_timeout(addr, Arc::clone(&shared.listener), REMESH_BUDGET),
    );
    let conn = if shared.rank < peer {
        dial(&shared.node, peer, &shared.conn_cfg, deadline)?
    } else {
        loop {
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| {
                    ClusterError::Timeout(format!(
                        "no inbound connection from rank {peer} during re-mesh"
                    ))
                })?;
            let c = shared.node.accept(left)?;
            match parse_rank_name(c.peer_name()) {
                Some(p) if p == peer => break c,
                _ => continue,
            }
        }
    };
    let links = HashMap::from([(peer as usize, conn)]);
    handshake(shared.rank, shared.world, &links, deadline)?;
    shared.links.lock().extend(links);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_names_round_trip() {
        assert_eq!(parse_rank_name(&rank_name(0)), Some(0));
        assert_eq!(parse_rank_name(&rank_name(41)), Some(41));
        assert_eq!(parse_rank_name("alice"), None);
        assert_eq!(parse_rank_name("rankx"), None);
    }

    /// Rank 0's end of a two-member world whose rank 1 answers the
    /// handshake with `forged`.
    fn handshake_against(forged: ClusterHello) -> Result<(), ClusterError> {
        let world = crate::LocalWorld::create(2).expect("world");
        let to_zero = world[1].connection(0).expect("link");
        to_zero.send(&forged.encode()).expect("forged hello");
        let links = HashMap::from([(1, world[0].connection(1).expect("link").clone())]);
        let verdict = handshake(0, 2, &links, Instant::now() + Duration::from_secs(10));
        // Rank 0's own hello went out regardless of the verdict.
        let sent = to_zero
            .recv_timeout(Duration::from_secs(10))
            .expect("hello");
        assert_eq!(
            ClusterHello::decode(&sent),
            Ok(ClusterHello {
                version: PROTOCOL_VERSION,
                rank: 0,
                world: 2
            })
        );
        for s in &world {
            crate::Session::shutdown(s);
        }
        verdict
    }

    #[test]
    fn handshake_names_what_the_peer_got_wrong() {
        let honest = ClusterHello {
            version: PROTOCOL_VERSION,
            rank: 1,
            world: 2,
        };
        assert_eq!(handshake_against(honest), Ok(()));
        let skewed = handshake_against(ClusterHello {
            version: PROTOCOL_VERSION + 1,
            ..honest
        });
        assert!(
            matches!(&skewed, Err(ClusterError::Handshake(why)) if why.contains("speaks protocol")),
            "{skewed:?}"
        );
        for miswired in [
            ClusterHello { rank: 5, ..honest },
            ClusterHello { world: 3, ..honest },
        ] {
            let refused = handshake_against(miswired);
            assert!(
                matches!(&refused, Err(ClusterError::Handshake(why)) if why.contains("claims rank")),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn config_validation_catches_bad_worlds() {
        let ncsd = "127.0.0.1:1".parse().unwrap();
        assert!(matches!(
            ClusterConfig::new(0, 0, ncsd).validate(),
            Err(ClusterError::Config(_))
        ));
        assert!(matches!(
            ClusterConfig::new(3, 3, ncsd).validate(),
            Err(ClusterError::Config(_))
        ));
        assert!(ClusterConfig::new(2, 3, ncsd).validate().is_ok());
    }
}
