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
//! and out, on one event loop (a single-shard [`Reactor`]: one OS thread
//! however many ranks connect):
//!
//! * the **accept task**, woken by the listener's readiness, gives every
//!   connection it takes a task of its own; it also sweeps the failure
//!   detector (`MembershipService::tick`) at the instant the next member
//!   is due ([`MembershipTable::next_due`](crate::MembershipTable::next_due)),
//!   a deadline;
//! * one **connection task** per connection, woken by its socket, reads a
//!   bounded number of frames, steps the service with each under the
//!   state lock, appends the answers to their recipients' outboxes and
//!   wakes them, and writes its own outbox without waiting: a socket that
//!   refuses the write re-arms for output, and nothing retries on a timer.
//!
//! Nothing waits on a client. One that stops reading only fills its own
//! outbox, and past `OUTBOX_LIMIT` bytes its connection is closed and
//! forgotten — a rank's `MemberAgent` redials and re-subscribes. One that
//! says nothing within `REGISTER_TIMEOUT` is closed when its task's
//! first deadline fires.
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

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::reactor::FdRegistration;
use ncs_core::{Reactor, SystemClock, TaskRef};
use ncs_threads::KernelPackage;
use ncs_transport::sci::{self, SciConnection, SciListener};
use ncs_transport::{Connection as _, Readiness, TransportError};
use parking_lot::{Condvar, Mutex};

use crate::cluster::ClusterError;
use crate::membership::{ConnId, MembershipConfig, MembershipService, Outgoing, View};
use crate::wire::{Roster, RvMsg, PROTOCOL_VERSION};

/// How long a freshly accepted connection may stay silent before it is
/// dropped (a port-scanner, not a rank).
const REGISTER_TIMEOUT: Duration = Duration::from_secs(5);

/// Bytes of answers a connection may owe before it is dropped: what a
/// subscriber that stops reading can cost the service. An encoded view
/// takes some 30 bytes per member, so this is thirty views of a
/// 1,000-rank world beyond what the socket itself buffers.
const OUTBOX_LIMIT: usize = 1 << 20;

/// Frames a connection task reads, or offers its socket, at a time: a
/// client that floods the service takes its turn with the others.
const BATCH: usize = 32;

/// Pause before a listener that failed to accept is tried again (an
/// accept error, such as running out of descriptors, reports no
/// recovery).
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// An embedded rendezvous service for one world.
///
/// Runs on an event loop of its own from [`RendezvousServer::start`]
/// until dropped (or [`RendezvousServer::stop`]). Once the `world`-th
/// rank has registered, the roster goes out to every registered rank;
/// later registrations with a valid identity (e.g. a restarted rank
/// re-fetching) are answered with the same roster immediately.
pub struct RendezvousServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Arc<Reactor>,
}

/// What the server's tasks and its owner share.
struct Shared {
    state: Mutex<State>,
    /// Signalled when the roster seals.
    sealed: Condvar,
}

/// The service and the connections its answers go to, under one lock.
struct State {
    service: MembershipService,
    /// The listener and its task, until [`RendezvousServer::stop`].
    acceptor: Option<Acceptor>,
    /// Every open connection, by the id the service knows it as.
    clients: HashMap<ConnId, Client>,
    next_id: ConnId,
}

/// The listener and the task that accepts on it and sweeps the detector.
struct Acceptor {
    // Ahead of `listener`: the registration is keyed by a descriptor
    // number the system may hand out again once the listener closes.
    watch: FdRegistration,
    listener: SciListener,
    task: TaskRef,
}

/// One open connection: its socket, its task, and what it owes.
struct Client {
    // Ahead of `sock`, as in `Acceptor`.
    watch: FdRegistration,
    sock: SciConnection,
    task: TaskRef,
    /// Encoded frames the socket has not taken yet, oldest first.
    outbox: VecDeque<Arc<[u8]>>,
    /// Their bytes.
    owed: usize,
    /// When a connection that has said nothing yet is hung up.
    silent_until: Option<Instant>,
}

/// The descriptor an SCI socket or listener is watched by.
pub(crate) fn fd_of(readiness: Readiness) -> RawFd {
    match readiness {
        Readiness::Fd(fd) => fd,
        _ => unreachable!("an SCI socket is a descriptor"),
    }
}

impl Client {
    /// Offers the socket what the connection owes, without waiting.
    /// Says whether some of it is still owed: the socket refused it.
    fn flush(&mut self) -> Result<bool, TransportError> {
        loop {
            let frames: Vec<&[u8]> = self.outbox.iter().take(BATCH).map(|f| &f[..]).collect();
            let taken = self.sock.try_send_batch(&frames)?;
            if taken == 0 {
                return Ok(!self.outbox.is_empty() || self.sock.owes_bytes());
            }
            for frame in self.outbox.drain(..taken) {
                self.owed -= frame.len();
            }
        }
    }
}

impl State {
    /// Queues each frame of `out`, in order, for those of its recipients
    /// still connected, and wakes their tasks (all but `serving`'s, which
    /// writes on its own when its poll ends). A recipient that now owes
    /// more than [`OUTBOX_LIMIT`] is hung up.
    fn post(&mut self, out: &[Outgoing], serving: Option<ConnId>) {
        for o in out {
            let frame: Arc<[u8]> = o.msg.encode().into();
            for id in &o.to {
                let Some(client) = self.clients.get_mut(id) else {
                    continue;
                };
                client.owed += frame.len();
                if client.owed > OUTBOX_LIMIT {
                    self.clients.remove(id);
                    continue;
                }
                client.outbox.push_back(Arc::clone(&frame));
                if serving != Some(*id) {
                    client.task.wake();
                }
            }
        }
    }

    /// When the detector is next due, on the event loop's clock.
    fn next_sweep(&self, now: Instant) -> Option<Instant> {
        self.service.next_due_in().map(|left| now + left)
    }

    /// One poll of the accept task: takes every waiting connection, and
    /// sweeps the detector. Returns when it is next due, or when a
    /// listener that failed is tried again.
    fn accept(&mut self, shared: &Arc<Shared>, reactor: &Reactor, now: Instant) -> Option<Instant> {
        let acceptor = self.acceptor.as_ref()?;
        let mut retry = None;
        loop {
            match acceptor.listener.try_accept() {
                Ok(Some(sock)) => {
                    let id = self.next_id;
                    self.next_id += 1;
                    let sh = Arc::clone(shared);
                    let task =
                        reactor.spawn_task(move |now| sh.state.lock().serve(id, now, &sh.sealed));
                    let client = Client {
                        watch: task.watch_fd(fd_of(sock.readiness())),
                        sock,
                        task,
                        outbox: VecDeque::new(),
                        owed: 0,
                        silent_until: Some(now + REGISTER_TIMEOUT),
                    };
                    self.clients.insert(id, client);
                }
                Ok(None) => break acceptor.watch.rearm(false),
                Err(_) => break retry = Some(now + ACCEPT_RETRY),
            }
        }
        let out = self.service.tick();
        self.post(&out, None);
        retry.into_iter().chain(self.next_sweep(now)).min()
    }

    /// One poll of connection `id`'s task: reads up to [`BATCH`] frames,
    /// steps the service with each (signalling `sealed` if that seals the
    /// roster), then writes what the connection owes. Hangs up on a client
    /// that hung up, spoke garbage, or stayed silent past
    /// [`REGISTER_TIMEOUT`]. Returns when that silence ends.
    fn serve(&mut self, id: ConnId, now: Instant, sealed: &Condvar) -> Option<Instant> {
        let mut sealing = !self.service.roster_sealed();
        let mut read = 0;
        let open = loop {
            // Gone if a post hung it up.
            let client = self.clients.get_mut(&id)?;
            if read == BATCH {
                break true;
            }
            let msg = match client.sock.try_recv() {
                Ok(Some(frame)) => RvMsg::decode(&frame),
                Ok(None) => break client.silent_until.is_none_or(|end| end > now),
                Err(_) => break false,
            };
            let Ok(msg) = msg else { break false };
            client.silent_until = None;
            read += 1;
            let out = self.service.handle(id, msg);
            if sealing && self.service.roster_sealed() {
                sealing = false;
                sealed.notify_all();
            }
            self.post(&out, Some(id));
        };
        // A batch that ended before the frames did re-arms for output as
        // well: the event loop reports the socket again at once, in turn
        // with every other one — or, while it is full, when its client
        // reads or writes. (A wake of its own would run it again before
        // the loop looks at any socket.)
        let client = self.clients.get_mut(&id)?;
        match client.flush() {
            Ok(owes) if open => client.watch.rearm(owes || read == BATCH),
            _ => {
                self.clients.remove(&id);
                return None;
            }
        }
        let silent_until = client.silent_until;
        // A subscriber the detector did not track until now may be due
        // before the accept task's deadline.
        if let (Some(at), Some(acceptor)) = (self.next_sweep(now), &self.acceptor) {
            if !acceptor.task.armed_by(at) {
                acceptor.task.wake();
            }
        }
        silent_until
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
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                service: MembershipService::new(world, cfg, SystemClock::shared()),
                acceptor: None,
                clients: HashMap::new(),
                next_id: 0,
            }),
            sealed: Condvar::new(),
        });
        let reactor = Reactor::new(Arc::new(KernelPackage::new()), 1);
        // The task holds the reactor it spawns on until `stop` shuts that
        // down, which drops the task.
        let (sh, on) = (Arc::clone(&shared), Arc::clone(&reactor));
        let task = reactor.spawn_task(move |now| sh.state.lock().accept(&sh, &on, now));
        let watch = task.watch_fd(fd_of(listener.readiness()));
        shared.state.lock().acceptor = Some(Acceptor {
            watch,
            listener,
            task,
        });
        Ok(RendezvousServer {
            addr,
            shared,
            reactor,
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

    /// Stops the service: ends its event loop, whose thread has exited
    /// when this returns, then closes the listener and every connection.
    /// Idempotent; called by `Drop`.
    pub fn stop(&mut self) {
        self.reactor.shutdown();
        let mut state = self.shared.state.lock();
        state.acceptor = None;
        state.clients.clear();
    }
}

impl Drop for RendezvousServer {
    fn drop(&mut self) {
        self.stop();
    }
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
