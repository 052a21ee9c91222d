//! The rendezvous service (`ncsd`): where ranks meet.
//!
//! N processes that should form one NCS world know nothing about each
//! other except one address — the rendezvous service's. Each rank binds
//! its own SCI listener, registers `(rank, listener address)` here, and
//! blocks until the service has seen the whole world; the service then
//! sends every rank the complete roster and the ranks wire themselves up
//! directly (the service is *not* on the data path — the same shape as
//! the lightweight bootstraps of MPWide-style cluster tools).
//!
//! The service is deliberately tiny: one thread, framed SCI messages
//! ([`crate::wire::RvMsg`]), strict validation (protocol version, world
//! size, rank range, duplicates). It can run standalone (the `ncsd`
//! binary), embedded in a launcher ([`mod@crate::launch`]), or embedded in
//! rank 0 of an application.
//!
//! # Membership
//!
//! Since protocol version 2 the service doubles as the world's
//! **membership authority** (see [`crate::membership`] and
//! `docs/MEMBERSHIP.md`): ranks keep a long-lived channel open
//! ([`RvMsg::Subscribe`]) on which they pulse heartbeats and receive
//! epoch-numbered [`View`]s; a [`MembershipTable`] declares silent ranks
//! suspect then dead, graceful leavers send [`RvMsg::Leave`], and a
//! replacement rank re-adopts a vacant slot with [`RvMsg::Rejoin`],
//! receiving the full current view back ([`RvMsg::Replay`]) so it can
//! re-mesh without any other source of truth.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ncs_core::SystemClock;
use ncs_transport::sci::{self, SciConnection, SciListener};
use ncs_transport::{Connection as _, TransportError};

use crate::cluster::ClusterError;
use crate::membership::{MembershipConfig, MembershipTable, View};
use crate::wire::{Roster, RvMsg, PROTOCOL_VERSION};

/// How long the server waits for the `Register` frame of a freshly
/// accepted connection before dropping it (a port-scanner, not a rank).
const REGISTER_TIMEOUT: Duration = Duration::from_secs(5);

/// Accept poll granularity (bounds shutdown latency). When membership is
/// active the serve loop polls at a quarter of the heartbeat interval
/// instead, so failure-detector sweeps and heartbeat acks never stall
/// behind a long accept wait.
const SERVE_POLL: Duration = Duration::from_millis(100);

/// Poll granularity of a subscriber connection's reader thread (bounds
/// shutdown latency only — frames are forwarded the moment they arrive).
const SUBSCRIBER_POLL: Duration = Duration::from_millis(200);

/// An embedded rendezvous service for one world.
///
/// Runs on a background thread from [`RendezvousServer::start`] until
/// dropped (or [`RendezvousServer::stop`]). Once the `world`-th rank has
/// registered, the roster goes out to every registered rank; later
/// registrations with a valid identity (e.g. a restarted rank re-fetching)
/// are answered with the same roster immediately.
pub struct RendezvousServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    complete: Arc<AtomicBool>,
    /// Telemetry snapshots pushed by ranks ([`RvMsg::Telemetry`]),
    /// keyed by rank; the latest push wins.
    telemetry: Arc<Mutex<HashMap<u32, String>>>,
    /// The latest membership view published (None until the roster seals
    /// or the first subscriber arrives).
    view: Arc<Mutex<Option<View>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RendezvousServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RendezvousServer")
            .field("addr", &self.addr)
            .field("complete", &self.complete.load(Ordering::Relaxed))
            .finish()
    }
}

impl RendezvousServer {
    /// Binds `listen` (use port 0 for an ephemeral port) and starts
    /// serving a world of `world` ranks, with failure-detector thresholds
    /// from the environment ([`MembershipConfig::from_env`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for a zero world, otherwise socket errors.
    pub fn start(listen: &str, world: u32) -> Result<Self, ClusterError> {
        Self::start_with(listen, world, MembershipConfig::from_env())
    }

    /// [`RendezvousServer::start`] with explicit membership thresholds.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for a zero world or unordered thresholds,
    /// otherwise socket errors.
    pub fn start_with(
        listen: &str,
        world: u32,
        cfg: MembershipConfig,
    ) -> Result<Self, ClusterError> {
        if world == 0 {
            return Err(ClusterError::Config("world size must be positive".into()));
        }
        cfg.validate()?;
        let listener = SciListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let complete = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(Mutex::new(HashMap::new()));
        let view = Arc::new(Mutex::new(None));
        let sd = Arc::clone(&shutdown);
        let cp = Arc::clone(&complete);
        let tl = Arc::clone(&telemetry);
        let vw = Arc::clone(&view);
        let handle = std::thread::Builder::new()
            .name("ncsd".into())
            .spawn(move || serve(&listener, world, &cfg, &sd, &cp, &tl, &vw))
            .expect("spawn ncsd thread");
        Ok(RendezvousServer {
            addr,
            shutdown,
            complete,
            telemetry,
            view,
            handle: Some(handle),
        })
    }

    /// The address ranks should register at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the roster has been assembled and broadcast.
    pub fn roster_complete(&self) -> bool {
        self.complete.load(Ordering::Acquire)
    }

    /// Blocks until the roster went out, or `timeout`. Returns whether it
    /// did.
    pub fn wait_complete(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.roster_complete() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// The telemetry snapshots ranks have pushed so far, keyed by rank
    /// (the JSON payloads of [`RvMsg::Telemetry`], latest push per rank).
    pub fn telemetry_snapshots(&self) -> HashMap<u32, String> {
        self.telemetry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The latest membership view the service has published (`None`
    /// before the roster seals).
    pub fn current_view(&self) -> Option<View> {
        self.view.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Stops the service. Idempotent; called by `Drop`.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RendezvousServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One registered rank, held open until the roster goes out.
struct Pending {
    rank: u32,
    conn: Arc<SciConnection>,
}

/// The membership half of the server: the failure-detecting table plus
/// the long-lived subscriber channels views are pushed down.
struct ServerMembership {
    table: MembershipTable,
    subs: HashMap<u32, Arc<SciConnection>>,
}

impl ServerMembership {
    fn new(world: u32, cfg: &MembershipConfig) -> Self {
        ServerMembership {
            table: MembershipTable::new(world, cfg.clone(), SystemClock::shared()),
            subs: HashMap::new(),
        }
    }

    /// Pushes `view` to every subscriber (dropping ones whose channel
    /// broke) and records it as the server's latest.
    fn publish(&mut self, view: &View, latest: &Mutex<Option<View>>) {
        let encoded = RvMsg::View { view: view.clone() }.encode();
        self.subs.retain(|_, conn| conn.send(&encoded).is_ok());
        *latest.lock().unwrap_or_else(|e| e.into_inner()) = Some(view.clone());
    }
}

/// The assembling (then assembled) world state the serve loop owns.
struct WorldState {
    world: u32,
    pending: Vec<Pending>,
    members: Vec<(u32, String)>,
    /// The sealed bootstrap roster, kept current across rejoins so a
    /// restarted rank re-fetching via `Register` gets live addresses.
    sealed: Vec<(u32, String)>,
    roster: Option<RvMsg>,
    membership: Option<ServerMembership>,
}

fn serve(
    listener: &SciListener,
    world: u32,
    cfg: &MembershipConfig,
    shutdown: &Arc<AtomicBool>,
    complete: &AtomicBool,
    telemetry: &Mutex<HashMap<u32, String>>,
    latest_view: &Mutex<Option<View>>,
) {
    let mut st = WorldState {
        world,
        pending: Vec::new(),
        members: Vec::new(),
        sealed: Vec::new(),
        roster: None,
        membership: None,
    };
    // Frames are read off the accept loop: a connection that never sends
    // one (port scanner, health probe) must cost the world nothing but
    // one short-lived reader thread — not REGISTER_TIMEOUT of everyone
    // else's registration latency. Subscriber connections keep their
    // reader looping, forwarding heartbeats/leaves on the same channel.
    let (tx, rx) = std::sync::mpsc::channel::<(Arc<SciConnection>, RvMsg)>();
    // Membership gives the loop a second duty (detector sweeps, ack
    // latency), so poll accepts finely enough that a sweep is never more
    // than a quarter-interval late.
    let poll = SERVE_POLL
        .min(cfg.heartbeat_interval / 4)
        .max(Duration::from_millis(5));
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept_timeout(poll) {
            Ok(conn) => {
                let tx = tx.clone();
                let sd = Arc::clone(shutdown);
                std::thread::spawn(move || read_frames(conn, &tx, &sd));
            }
            Err(TransportError::Timeout) => {}
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
        while let Ok((conn, msg)) = rx.try_recv() {
            dispatch(conn, msg, cfg, &mut st, complete, telemetry, latest_view);
        }
        // Failure-detector sweep: anyone silent past the death threshold
        // leaves the view here.
        if let Some(m) = st.membership.as_mut() {
            if let Some(view) = m.table.tick() {
                for dead in &view.dead {
                    m.subs.remove(dead);
                }
                m.publish(&view, latest_view);
            }
        }
    }
}

/// Reads framed `RvMsg`s off one accepted connection and forwards them to
/// the serve loop. Exits after the first frame unless it opened a
/// subscription, in which case the connection is long-lived and every
/// subsequent frame (heartbeats, leaves) is forwarded as it arrives.
fn read_frames(
    conn: SciConnection,
    tx: &std::sync::mpsc::Sender<(Arc<SciConnection>, RvMsg)>,
    shutdown: &AtomicBool,
) {
    let conn = Arc::new(conn);
    let Ok(frame) = conn.recv_timeout(REGISTER_TIMEOUT) else {
        return; // silent connection: drop it
    };
    let Ok(msg) = RvMsg::decode(&frame) else {
        return; // not speaking the protocol
    };
    let long_lived = matches!(msg, RvMsg::Subscribe { .. });
    if tx.send((Arc::clone(&conn), msg)).is_err() {
        return;
    }
    if !long_lived {
        return;
    }
    while !shutdown.load(Ordering::Acquire) {
        match conn.recv_timeout(SUBSCRIBER_POLL) {
            Ok(frame) => {
                let Ok(msg) = RvMsg::decode(&frame) else {
                    continue;
                };
                if tx.send((Arc::clone(&conn), msg)).is_err() {
                    return;
                }
            }
            Err(TransportError::Timeout) => {}
            Err(_) => return, // subscriber hung up (or died)
        }
    }
}

/// Routes one decoded frame to its handler.
fn dispatch(
    conn: Arc<SciConnection>,
    msg: RvMsg,
    cfg: &MembershipConfig,
    st: &mut WorldState,
    complete: &AtomicBool,
    telemetry: &Mutex<HashMap<u32, String>>,
    latest_view: &Mutex<Option<View>>,
) {
    match msg {
        RvMsg::Telemetry { rank, json } => {
            // A rank's shutdown snapshot: stash it for the launcher's
            // world aggregation and acknowledge so the rank may exit.
            telemetry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(rank, json);
            let _ = conn.send(&RvMsg::TelemetryAck.encode());
        }
        RvMsg::Subscribe { rank, .. } => {
            if rank >= st.world {
                return;
            }
            let m = st
                .membership
                .get_or_insert_with(|| ServerMembership::new(st.world, cfg));
            m.table.track(rank);
            m.subs.insert(rank, Arc::clone(&conn));
            // Hand the newcomer the current view at once (epoch 0 — the
            // pre-seal empty view — is discarded client-side).
            let view = m.table.current().clone();
            let _ = conn.send(&RvMsg::View { view }.encode());
        }
        RvMsg::Heartbeat { rank, seq, nanos } => {
            if let Some(m) = st.membership.as_mut() {
                m.table.heartbeat(rank);
                let ack = RvMsg::HeartbeatAck {
                    seq,
                    nanos,
                    view: m.table.current().id,
                    suspects: m.table.suspects().len() as u32,
                };
                let _ = conn.send(&ack.encode());
            }
        }
        RvMsg::Leave { rank } => {
            if let Some(m) = st.membership.as_mut() {
                m.subs.remove(&rank);
                if let Some(view) = m.table.leave(rank) {
                    m.publish(&view, latest_view);
                }
            }
        }
        RvMsg::Rejoin {
            version,
            world: w,
            rank,
            addr,
            incarnation,
        } => handle_rejoin(
            &conn,
            (version, w, rank, addr, incarnation),
            cfg,
            st,
            latest_view,
        ),
        other => handle_register(conn, other, st, complete, cfg, latest_view),
    }
}

/// Processes one decoded registration against the assembling world.
fn handle_register(
    conn: Arc<SciConnection>,
    reg: RvMsg,
    st: &mut WorldState,
    complete: &AtomicBool,
    cfg: &MembershipConfig,
    latest_view: &Mutex<Option<View>>,
) {
    let RvMsg::Register {
        version,
        world: w,
        rank,
        addr,
    } = reg
    else {
        return;
    };
    let reject = |conn: &SciConnection, reason: String| {
        let _ = conn.send(&RvMsg::Reject { reason }.encode());
    };
    if version != PROTOCOL_VERSION {
        reject(
            &conn,
            format!("protocol version {version} (server speaks {PROTOCOL_VERSION})"),
        );
        return;
    }
    if w != st.world {
        reject(
            &conn,
            format!("world size {w} (server expects {})", st.world),
        );
        return;
    }
    if rank >= st.world {
        reject(
            &conn,
            format!("rank {rank} out of range (world {})", st.world),
        );
        return;
    }
    if let Some(r) = &st.roster {
        // World already assembled: a valid identity re-fetching the
        // roster (restart, late diagnostic client) gets it at once.
        let _ = conn.send(&r.encode());
        return;
    }
    if st.pending.iter().any(|p| p.rank == rank) {
        reject(&conn, format!("duplicate rank {rank}"));
        return;
    }
    st.pending.push(Pending { rank, conn });
    st.members.push((rank, addr));
    if st.members.len() == st.world as usize {
        st.members.sort_by_key(|&(r, _)| r);
        st.sealed = std::mem::take(&mut st.members);
        let msg = RvMsg::Roster {
            world: st.world,
            members: st.sealed.clone(),
        };
        // Mark complete before the broadcast: a rank that receives the
        // roster may immediately probe `roster_complete()` (or act on
        // it), and must never observe the flag lagging the send.
        complete.store(true, Ordering::Release);
        let encoded = msg.encode();
        for p in st.pending.drain(..) {
            let _ = p.conn.send(&encoded);
        }
        st.roster = Some(msg);
        // The sealed roster is membership epoch 1. Subscribers that
        // raced ahead of the seal get the seed view pushed now.
        let m = st
            .membership
            .get_or_insert_with(|| ServerMembership::new(st.world, cfg));
        if m.table.current().id == 0 {
            let seed = m.table.seed(&st.sealed).clone();
            m.publish(&seed, latest_view);
        }
    }
}

/// Processes a replacement rank re-adopting a (dead or vacated) slot.
fn handle_rejoin(
    conn: &SciConnection,
    req: (u32, u32, u32, String, u32),
    cfg: &MembershipConfig,
    st: &mut WorldState,
    latest_view: &Mutex<Option<View>>,
) {
    let (version, w, rank, addr, incarnation) = req;
    let reject = |reason: String| {
        let _ = conn.send(&RvMsg::Reject { reason }.encode());
    };
    if version != PROTOCOL_VERSION {
        reject(format!(
            "protocol version {version} (server speaks {PROTOCOL_VERSION})"
        ));
        return;
    }
    if w != st.world {
        reject(format!("world size {w} (server expects {})", st.world));
        return;
    }
    if rank >= st.world {
        reject(format!("rank {rank} out of range (world {})", st.world));
        return;
    }
    if st.roster.is_none() {
        reject("world not yet assembled — rejoin needs a sealed roster".into());
        return;
    }
    let m = st
        .membership
        .get_or_insert_with(|| ServerMembership::new(st.world, cfg));
    if m.table.current().id == 0 {
        let seed = m.table.seed(&st.sealed).clone();
        m.publish(&seed, latest_view);
    }
    let replay = match m.table.join(rank, &addr, incarnation) {
        Some(view) => {
            // Keep the cached roster pointing at the live occupant so a
            // later `Register` re-fetch gets the replacement's address.
            if let Some(slot) = st.sealed.iter_mut().find(|(r, _)| *r == rank) {
                slot.1 = addr;
            }
            st.roster = Some(RvMsg::Roster {
                world: st.world,
                members: st.sealed.clone(),
            });
            m.publish(&view, latest_view);
            view
        }
        // Idempotent retry: the slot already holds this occupant.
        None => m.table.current().clone(),
    };
    let _ = conn.send(&RvMsg::Replay { view: replay }.encode());
}

/// Registers `(rank, my_addr)` with the rendezvous service at `ncsd` and
/// blocks for the world roster.
///
/// Dials with bounded retry/backoff ([`sci::connect_retry`]) — the
/// service may itself still be starting — then waits up to `timeout` for
/// the roster (i.e. for every other rank to register too).
///
/// # Errors
///
/// [`ClusterError::Rendezvous`] when the service rejects the
/// registration or answers nonsense; [`ClusterError::Transport`] /
/// [`ClusterError::Timeout`] for connection failures.
pub fn register(
    ncsd: SocketAddr,
    rank: u32,
    world: u32,
    my_addr: SocketAddr,
    timeout: Duration,
) -> Result<Roster, ClusterError> {
    // One budget for the whole exchange: whatever the dial consumes is no
    // longer available for the roster wait.
    let deadline = Instant::now() + timeout;
    let conn = sci::connect_retry(ncsd, timeout)?;
    conn.send(
        &RvMsg::Register {
            version: PROTOCOL_VERSION,
            world,
            rank,
            addr: my_addr.to_string(),
        }
        .encode(),
    )?;
    let left = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10));
    let frame = conn.recv_timeout(left).map_err(|e| match e {
        TransportError::Timeout => ClusterError::Timeout(format!(
            "no roster within {timeout:?} — are all {world} ranks running?"
        )),
        other => ClusterError::Transport(other),
    })?;
    match RvMsg::decode(&frame).map_err(|e| ClusterError::Rendezvous(e.to_string()))? {
        RvMsg::Roster { world: w, members } => {
            Roster::from_members(w, &members).map_err(|e| ClusterError::Rendezvous(e.to_string()))
        }
        RvMsg::Reject { reason } => Err(ClusterError::Rendezvous(format!(
            "registration rejected: {reason}"
        ))),
        other => Err(ClusterError::Rendezvous(format!(
            "server answered with an unexpected frame: {other:?}"
        ))),
    }
}

/// Pushes one rank's telemetry snapshot to the rendezvous service and
/// waits for the acknowledgement. Used by [`ClusterNode::shutdown`]
/// (when telemetry push is enabled) so `ncs-launch --telemetry` can
/// aggregate the world view after the ranks exit.
///
/// # Errors
///
/// [`ClusterError::Transport`] / [`ClusterError::Timeout`] for dial and
/// I/O failures; [`ClusterError::Rendezvous`] if the service answers
/// anything but an ack.
///
/// [`ClusterNode::shutdown`]: crate::ClusterNode::shutdown
pub fn push_telemetry(
    ncsd: SocketAddr,
    rank: u32,
    json: &str,
    timeout: Duration,
) -> Result<(), ClusterError> {
    let conn = sci::connect_retry(ncsd, timeout)?;
    conn.send(
        &RvMsg::Telemetry {
            rank,
            json: json.to_owned(),
        }
        .encode(),
    )?;
    let frame = conn.recv_timeout(timeout).map_err(|e| match e {
        TransportError::Timeout => ClusterError::Timeout("no telemetry ack".into()),
        other => ClusterError::Transport(other),
    })?;
    match RvMsg::decode(&frame).map_err(|e| ClusterError::Rendezvous(e.to_string()))? {
        RvMsg::TelemetryAck => Ok(()),
        other => Err(ClusterError::Rendezvous(format!(
            "telemetry push answered with {other:?}"
        ))),
    }
}

/// Re-adopts rank slot `rank` for a replacement process: registers
/// `(rank, my_addr, incarnation)` with the membership service at `ncsd`
/// and blocks for the state replay — the current [`View`], which carries
/// every live member's address and is all the replacement needs to
/// re-mesh.
///
/// # Errors
///
/// [`ClusterError::Rendezvous`] when the service refuses the slot (bad
/// version/world/rank, roster not yet sealed);
/// [`ClusterError::Transport`] / [`ClusterError::Timeout`] for
/// connection failures.
pub fn rejoin(
    ncsd: SocketAddr,
    rank: u32,
    world: u32,
    my_addr: SocketAddr,
    incarnation: u32,
    timeout: Duration,
) -> Result<View, ClusterError> {
    let deadline = Instant::now() + timeout;
    let conn = sci::connect_retry(ncsd, timeout)?;
    conn.send(
        &RvMsg::Rejoin {
            version: PROTOCOL_VERSION,
            world,
            rank,
            addr: my_addr.to_string(),
            incarnation,
        }
        .encode(),
    )?;
    let left = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10));
    let frame = conn.recv_timeout(left).map_err(|e| match e {
        TransportError::Timeout => {
            ClusterError::Timeout(format!("no rejoin replay within {timeout:?}"))
        }
        other => ClusterError::Transport(other),
    })?;
    match RvMsg::decode(&frame).map_err(|e| ClusterError::Rendezvous(e.to_string()))? {
        RvMsg::Replay { view } => Ok(view),
        RvMsg::Reject { reason } => Err(ClusterError::Rendezvous(format!(
            "rejoin rejected: {reason}"
        ))),
        other => Err(ClusterError::Rendezvous(format!(
            "rejoin answered with an unexpected frame: {other:?}"
        ))),
    }
}

/// Announces a graceful departure of `rank` to the membership service.
/// Fire-and-forget: the view change propagates to the remaining
/// subscribers; the leaver does not wait for it.
///
/// # Errors
///
/// [`ClusterError::Transport`] when the service cannot be reached.
pub fn leave(ncsd: SocketAddr, rank: u32, timeout: Duration) -> Result<(), ClusterError> {
    let conn = sci::connect_retry(ncsd, timeout)?;
    conn.send(&RvMsg::Leave { rank }.encode())?;
    Ok(())
}
