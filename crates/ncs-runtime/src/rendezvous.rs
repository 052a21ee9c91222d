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
//! Everything the service decides — validation (protocol version, world
//! size, rank range, duplicates), the roster, the membership table, the
//! subscribers — lives in the sans-I/O `MembershipService`. This module
//! is its socket shell, framed SCI messages ([`crate::wire::RvMsg`]) in
//! and out, and it has two kinds of thread:
//!
//! * one **accept thread** (`ncsd`): accepts connections and sweeps the
//!   failure detector (`MembershipService::tick`) every
//!   `min(100 ms, heartbeat / 4)` (floor 5 ms);
//! * one **reader** per connection (`ncsd-conn`): blocks in `recv`,
//!   steps the service with each frame under the service lock and writes
//!   the answers before releasing it — a request is answered on the
//!   thread that read it, the moment it arrives.
//!
//! It can run standalone (the `ncsd` binary), embedded in a launcher
//! ([`mod@crate::launch`]), or embedded in rank 0 of an application.
//!
//! # Membership
//!
//! Since protocol version 2 the service doubles as the world's
//! **membership authority** (see [`crate::membership`] and
//! `docs/MEMBERSHIP.md`): ranks keep a long-lived channel open
//! ([`RvMsg::Subscribe`]) on which they pulse heartbeats and receive
//! epoch-numbered [`View`]s; the failure detector declares silent ranks
//! suspect then dead, graceful leavers send [`RvMsg::Leave`], and a
//! replacement rank re-adopts a vacant slot with [`RvMsg::Rejoin`],
//! receiving the full current view back ([`RvMsg::Replay`]) so it can
//! re-mesh without any other source of truth.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncs_core::SystemClock;
use ncs_transport::sci::{self, SciConnection, SciListener};
use ncs_transport::{Connection as _, TransportError};
use parking_lot::{Condvar, Mutex};

use crate::cluster::ClusterError;
use crate::membership::{ConnId, MembershipConfig, MembershipService, Outgoing, View};
use crate::wire::{Roster, RvMsg, PROTOCOL_VERSION};

/// How long the server waits for the first frame of a freshly accepted
/// connection before dropping it (a port-scanner, not a rank).
const REGISTER_TIMEOUT: Duration = Duration::from_secs(5);

/// Accept poll granularity, and so the failure detector's sweep period
/// (at most a quarter of the heartbeat interval, floor 5 ms).
const SERVE_POLL: Duration = Duration::from_millis(100);

/// An embedded rendezvous service for one world.
///
/// Runs on background threads from [`RendezvousServer::start`] until
/// dropped (or [`RendezvousServer::stop`]). Once the `world`-th rank has
/// registered, the roster goes out to every registered rank; later
/// registrations with a valid identity (e.g. a restarted rank re-fetching)
/// are answered with the same roster immediately.
pub struct RendezvousServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// What the accept thread and the connection readers share.
struct Shared {
    state: Mutex<State>,
    /// Signalled when the roster seals.
    sealed: Condvar,
    stop: AtomicBool,
}

/// The service and the connections its answers go to, under one lock.
struct State {
    service: MembershipService,
    /// Every open connection, by the id the service knows it as.
    conns: HashMap<ConnId, Arc<SciConnection>>,
    next_id: ConnId,
    readers: Vec<JoinHandle<()>>,
}

impl State {
    /// Writes `out`, in order, to the connections still open.
    fn send(&self, out: &[Outgoing]) {
        for o in out {
            let frame = o.msg.encode();
            for conn in o.to.iter().filter_map(|id| self.conns.get(id)) {
                let _ = conn.send(&frame);
            }
        }
    }
}

impl std::fmt::Debug for RendezvousServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RendezvousServer")
            .field("addr", &self.addr)
            .field("complete", &self.roster_complete())
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
        let poll = SERVE_POLL
            .min(cfg.heartbeat_interval / 4)
            .max(Duration::from_millis(5));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                service: MembershipService::new(world, cfg, SystemClock::shared()),
                conns: HashMap::new(),
                next_id: 0,
                readers: Vec::new(),
            }),
            sealed: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let sh = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ncsd".into())
            .spawn(move || accept_loop(&listener, &sh, poll))
            .expect("spawn ncsd thread");
        Ok(RendezvousServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address ranks should register at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the roster has been assembled and broadcast.
    pub fn roster_complete(&self) -> bool {
        self.shared.state.lock().service.roster_sealed()
    }

    /// Blocks until the roster went out, or `timeout`. Returns whether it
    /// did.
    pub fn wait_complete(&self, timeout: Duration) -> bool {
        // No deadline at all for a timeout beyond what the clock can tell.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.shared.state.lock();
        while !state.service.roster_sealed() {
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return false;
            }
            self.shared.sealed.wait_for(&mut state, left);
        }
        true
    }

    /// The telemetry snapshots ranks have pushed so far, keyed by rank
    /// (the JSON payloads of [`RvMsg::Telemetry`], latest push per rank).
    pub fn telemetry_snapshots(&self) -> HashMap<u32, String> {
        self.shared
            .state
            .lock()
            .service
            .telemetry_snapshots()
            .clone()
    }

    /// The latest membership view the service has published (`None`
    /// before the roster seals).
    pub fn current_view(&self) -> Option<View> {
        let state = self.shared.state.lock();
        let service = &state.service;
        service.roster_sealed().then(|| service.current().clone())
    }

    /// Stops the service: closes every connection it holds and joins
    /// every thread it started. Idempotent; called by `Drop`.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let readers = {
            let mut state = self.shared.state.lock();
            for conn in state.conns.values() {
                conn.close();
            }
            std::mem::take(&mut state.readers)
        };
        for h in readers {
            let _ = h.join();
        }
    }
}

impl Drop for RendezvousServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The accept thread: hands each new connection to a reader of its own,
/// and sweeps the failure detector once per accept poll.
fn accept_loop(listener: &SciListener, shared: &Arc<Shared>, poll: Duration) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept_timeout(poll) {
            Ok(conn) => {
                let conn = Arc::new(conn);
                let mut state = shared.state.lock();
                let id = state.next_id;
                state.next_id += 1;
                state.conns.insert(id, Arc::clone(&conn));
                let sh = Arc::clone(shared);
                let reader = std::thread::Builder::new()
                    .name("ncsd-conn".into())
                    .spawn(move || serve_conn(&sh, id, &conn))
                    .expect("spawn ncsd reader");
                state.readers.retain(|h| !h.is_finished());
                state.readers.push(reader);
            }
            Err(TransportError::Timeout) => {}
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
        let mut state = shared.state.lock();
        let out = state.service.tick();
        state.send(&out);
    }
}

/// One connection's reader: steps the service with every frame the
/// connection carries until the client hangs up, speaks garbage, or
/// (first frame only) stays silent past [`REGISTER_TIMEOUT`].
fn serve_conn(shared: &Shared, id: ConnId, conn: &SciConnection) {
    let mut frame = conn.recv_timeout(REGISTER_TIMEOUT);
    while let Ok(Ok(msg)) = frame.as_deref().map(RvMsg::decode) {
        let mut state = shared.state.lock();
        let was_sealed = state.service.roster_sealed();
        let out = state.service.handle(id, msg);
        state.send(&out);
        if !was_sealed && state.service.roster_sealed() {
            shared.sealed.notify_all();
        }
        drop(state);
        frame = conn.recv();
    }
    shared.state.lock().conns.remove(&id);
}

/// Dials `ncsd` (with bounded retry — the service may itself still be
/// starting) and sends `msg`.
fn dial_and_send(
    ncsd: SocketAddr,
    msg: &RvMsg,
    timeout: Duration,
) -> Result<SciConnection, ClusterError> {
    let conn = sci::connect_retry(ncsd, timeout)?;
    conn.send(&msg.encode())?;
    Ok(conn)
}

/// One request/answer exchange with `ncsd`, all within `timeout`: dial,
/// send `msg`, wait for one frame and decode it. A [`RvMsg::Reject`]
/// becomes an error naming `verb`; no answer in time becomes
/// [`ClusterError::Timeout`] carrying `silence`.
fn ask(
    ncsd: SocketAddr,
    msg: &RvMsg,
    timeout: Duration,
    verb: &str,
    silence: String,
) -> Result<RvMsg, ClusterError> {
    let deadline = Instant::now() + timeout;
    let conn = dial_and_send(ncsd, msg, timeout)?;
    let left = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10));
    let frame = conn.recv_timeout(left).map_err(|e| match e {
        TransportError::Timeout => ClusterError::Timeout(silence),
        other => ClusterError::Transport(other),
    })?;
    match RvMsg::decode(&frame).map_err(|e| ClusterError::Rendezvous(e.to_string()))? {
        RvMsg::Reject { reason } => Err(ClusterError::Rendezvous(format!(
            "{verb} rejected: {reason}"
        ))),
        answer => Ok(answer),
    }
}

/// The error for an answer `ask` did not expect.
fn unexpected(verb: &str, answer: &RvMsg) -> ClusterError {
    ClusterError::Rendezvous(format!(
        "{verb} answered with an unexpected frame: {answer:?}"
    ))
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
    let msg = RvMsg::Register {
        version: PROTOCOL_VERSION,
        world,
        rank,
        addr: my_addr.to_string(),
    };
    let silence = format!("no roster within {timeout:?} — are all {world} ranks running?");
    match ask(ncsd, &msg, timeout, "registration", silence)? {
        RvMsg::Roster { world: w, members } => {
            Roster::from_members(w, &members).map_err(|e| ClusterError::Rendezvous(e.to_string()))
        }
        other => Err(unexpected("registration", &other)),
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
    let msg = RvMsg::Telemetry {
        rank,
        json: json.to_owned(),
    };
    match ask(
        ncsd,
        &msg,
        timeout,
        "telemetry push",
        "no telemetry ack".into(),
    )? {
        RvMsg::TelemetryAck => Ok(()),
        other => Err(unexpected("telemetry push", &other)),
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
    let msg = RvMsg::Rejoin {
        version: PROTOCOL_VERSION,
        world,
        rank,
        addr: my_addr.to_string(),
        incarnation,
    };
    let silence = format!("no rejoin replay within {timeout:?}");
    match ask(ncsd, &msg, timeout, "rejoin", silence)? {
        RvMsg::Replay { view } => Ok(view),
        other => Err(unexpected("rejoin", &other)),
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
    dial_and_send(ncsd, &RvMsg::Leave { rank }, timeout).map(drop)
}
