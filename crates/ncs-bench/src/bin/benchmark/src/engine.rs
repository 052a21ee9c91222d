//! The three closed loops that generate load: an echo ping-pong, a
//! windowed one-way stream, and an allreduce driven on every rank.
//!
//! Closed loop, one client: the next operation is issued only when the
//! previous one completed, so a slower system is offered less load. At most
//! two threads generate load (client and peer); rates are counted where
//! messages are *delivered*, never where they are submitted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ncs_collectives::ReduceOp;
use ncs_core::{Channel, MsgView, NcsConnection, Request, SendError};
use ncs_transport::{Connection, TransportError};

use crate::payload::{mix, now_ns, Mismatch, Payloads};
use crate::scenario::World;
use crate::trace::{Kind, Trace};

/// Longest any one operation may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// How often a blocked peer thread looks at its stop flag.
const PEER_POLL: Duration = Duration::from_millis(50);
/// A repetition gives up after this many failures in a row, so a dead
/// connection costs a few timeouts, not a stuck run.
const MAX_CONSECUTIVE_FAILURES: u32 = 3;

/// What one timed repetition did.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Operations issued (messages, round trips or allreduces).
    pub attempted: u64,
    /// Errors + timeouts + payload/sequence/result mismatches, on either
    /// thread.
    pub failed: u64,
    /// Messages handed to the receiving application and verified.
    pub delivered_msgs: u64,
    /// Their payload bytes (headers and retransmissions excluded).
    pub delivered_bytes: u64,
    /// First submit until the last delivery was observed.
    pub elapsed_s: f64,
    /// Latency of each completed operation, µs.
    pub lat_us: Vec<f64>,
}

/// How long one [`Engine::run`] lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this much time has passed (and at least one operation ran).
    Time(Duration),
    /// This many operations — for a workload whose behaviour is a function
    /// of how much was sent, not of how long it ran.
    Ops(u64),
}

impl Budget {
    /// A stop-watch for this budget, started now.
    fn start(self) -> Running {
        Running {
            budget: self,
            start_ns: now_ns(),
            ops: 0,
            streak: 0,
        }
    }
}

/// One run in progress: decides after each operation whether to go on.
struct Running {
    budget: Budget,
    start_ns: u64,
    ops: u64,
    /// Failures in a row.
    streak: u32,
}

impl Running {
    /// Records an operation's outcome; `true` while the run should go on.
    fn after_op(&mut self, ok: bool) -> bool {
        self.ops += 1;
        self.streak = if ok { 0 } else { self.streak + 1 };
        let more = match self.budget {
            Budget::Time(d) => now_ns() < self.start_ns + d.as_nanos() as u64,
            Budget::Ops(n) => self.ops < n,
        };
        more && self.streak < MAX_CONSECUTIVE_FAILURES
    }
}

/// The closed loop of the engines whose operation is one call: runs `op`
/// (`Ok(latency_ns)`) until the budget is spent; every success delivers
/// `per_op` = `(messages, bytes)`.
fn run_ops(budget: Budget, per_op: (u64, u64), mut op: impl FnMut() -> Result<u64, String>) -> Rep {
    let mut rep = Rep::default();
    let mut running = budget.start();
    loop {
        rep.attempted += 1;
        let outcome = op();
        match outcome {
            Ok(ns) => {
                rep.lat_us.push(ns as f64 / 1e3);
                rep.delivered_msgs += per_op.0;
                rep.delivered_bytes += per_op.1;
            }
            Err(_) => rep.failed += 1,
        }
        if !running.after_op(outcome.is_ok()) {
            break;
        }
    }
    rep.elapsed_s = elapsed_s(running.start_ns, now_ns());
    rep
}

/// A load generator over an already-built scenario.
pub trait Engine: Send {
    /// Runs closed-loop operations until `budget` is spent or
    /// [`MAX_CONSECUTIVE_FAILURES`] operations failed in a row.
    fn run(&mut self, budget: Budget) -> Rep;
    /// Stops and joins the peer thread.
    fn stop(&mut self);
}

fn elapsed_s(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

// ---------------------------------------------------------------------------
// Ports: the four ways the ping-pong ladder reaches the wire
// ---------------------------------------------------------------------------

/// One endpoint of a ping-pong, at some depth of the stack.
pub enum Port {
    /// `send` / `recv_view` through the reactor (the workload itself, and
    /// the bypass rung).
    Ncs(NcsConnection),
    /// `send_direct` / `recv_direct`: the §4.2 procedures, no reactor task.
    Direct(NcsConnection),
    /// Bare transport frames, no NCS at all.
    Raw(Box<dyn Connection>),
}

/// A received message, pooled or owned.
pub enum Msg {
    View(MsgView),
    Owned(Vec<u8>),
}

impl std::ops::Deref for Msg {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Msg::View(v) => v,
            Msg::Owned(v) => v,
        }
    }
}

enum RecvError {
    Timeout,
    Other(String),
}

impl From<SendError> for RecvError {
    fn from(e: SendError) -> Self {
        match e {
            SendError::Timeout => RecvError::Timeout,
            other => RecvError::Other(other.to_string()),
        }
    }
}

impl Port {
    fn send(&self, data: &[u8]) -> Result<(), String> {
        match self {
            Port::Ncs(c) => c.send(data).map_err(|e| e.to_string()),
            Port::Direct(c) => c.send_direct(data).map_err(|e| e.to_string()),
            Port::Raw(c) => c.send(data).map_err(|e| e.to_string()),
        }
    }

    fn recv(&self, timeout: Duration) -> Result<Msg, RecvError> {
        match self {
            Port::Ncs(c) => Ok(Msg::View(c.recv_view(timeout)?)),
            Port::Direct(c) => Ok(Msg::Owned(c.recv_direct(timeout)?)),
            Port::Raw(c) => match c.recv_timeout(timeout) {
                Ok(frame) => Ok(Msg::Owned(frame)),
                Err(TransportError::Timeout) => Err(RecvError::Timeout),
                Err(e) => Err(RecvError::Other(e.to_string())),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The peer thread both two-node engines run
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PeerShared {
    stop: AtomicBool,
    /// Mismatches and errors seen by the echo thread since the client last
    /// asked.
    failed: AtomicU64,
    /// Verified deliveries `(messages, bytes)`, for the windowed engine.
    delivered: Mutex<(u64, u64)>,
    progress: Condvar,
}

struct Peer {
    shared: Arc<PeerShared>,
    handle: Option<JoinHandle<()>>,
}

impl Peer {
    fn spawn(name: &str, body: impl FnOnce(&PeerShared) + Send + 'static) -> Peer {
        let shared = Arc::new(PeerShared::default());
        let theirs = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || body(&theirs))
            .expect("spawn benchmark peer thread");
        Peer {
            shared,
            handle: Some(handle),
        }
    }

    fn take_failed(&self) -> u64 {
        self.shared.failed.swap(0, Ordering::Relaxed)
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            // A panicked peer already showed up as failed operations.
            let _ = h.join();
        }
    }
}

/// Checks message `*expect` and advances; after a gap, resynchronises on
/// what actually arrived so one loss is one failure, not a cascade.
fn verify_next(payloads: &Payloads, msg: &[u8], expect: &mut u64) -> Result<u64, Mismatch> {
    let result = payloads.verify(msg, *expect);
    *expect = match result {
        Err(Mismatch::Sequence(seen)) => seen + 1,
        _ => *expect + 1,
    };
    result
}

// ---------------------------------------------------------------------------
// Ping-pong
// ---------------------------------------------------------------------------

/// One message in flight: send, wait for the echo, verify it.
pub struct PingPong {
    client: Port,
    payloads: Payloads,
    buf: Vec<u8>,
    next_seq: u64,
    trace: Arc<Trace>,
    peer: Peer,
}

impl PingPong {
    pub fn start(client: Port, server: Port, payloads: Payloads, trace: Arc<Trace>) -> Self {
        let peer = {
            let (payloads, trace) = (payloads.clone(), Arc::clone(&trace));
            Peer::spawn("bench-echo", move |shared| {
                echo_loop(&server, &payloads, &trace, shared)
            })
        };
        PingPong {
            client,
            buf: payloads.template(),
            payloads,
            next_seq: 0,
            trace,
            peer,
        }
    }

    /// One round trip. `Ok(latency_ns)` only for a verified echo.
    fn round_trip(&mut self) -> Result<u64, String> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = self.payloads.stamp(&mut self.buf, seq);
        let t0 = now_ns();
        self.client.send(msg)?;
        let t1 = now_ns();
        let deadline = t0 + OP_TIMEOUT.as_nanos() as u64;
        loop {
            let left = Duration::from_nanos(deadline.saturating_sub(now_ns()));
            let reply = match self.client.recv(left) {
                Ok(reply) => reply,
                Err(RecvError::Timeout) => return Err("echo timed out".into()),
                Err(RecvError::Other(e)) => return Err(e),
            };
            let t2 = now_ns();
            match self.payloads.verify(&reply, seq) {
                // The late echo of an operation that already timed out.
                Err(Mismatch::Sequence(seen)) if seen < seq => continue,
                Err(m) => return Err(format!("echo mismatch: {m:?}")),
                Ok(_) => {}
            }
            if self.trace.enabled() {
                self.trace.push_op(
                    seq,
                    (Kind::Op, t0, t2),
                    &[(Kind::Submit, t0, t1), (Kind::Wait, t1, t2)],
                );
            }
            return Ok(t2 - t0);
        }
    }
}

fn echo_loop(server: &Port, payloads: &Payloads, trace: &Trace, shared: &PeerShared) {
    let mut expect = 0u64;
    let mut wait_from = now_ns();
    while !shared.stop.load(Ordering::Relaxed) {
        let msg = match server.recv(PEER_POLL) {
            Ok(msg) => msg,
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Other(_)) => {
                // Closed under us: the client sees its operations fail.
                return;
            }
        };
        let t1 = now_ns();
        // Decided before the echo goes out: once it has, the client may end
        // the traced phase before this thread runs again.
        let tracing = trace.enabled();
        let seq = expect;
        let sent_ns = verify_next(payloads, &msg, &mut expect);
        if sent_ns.is_err() | server.send(&msg).is_err() {
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
        let t2 = now_ns();
        if tracing {
            trace.push_remote(seq, Kind::PeerWait, wait_from, t1);
            trace.push_remote(seq, Kind::PeerSubmit, t1, t2);
            if let Ok(sent_ns @ 1..) = sent_ns {
                trace.push_remote(seq, Kind::OneWay, sent_ns, t1);
            }
        }
        wait_from = t2;
    }
}

impl Engine for PingPong {
    fn run(&mut self, budget: Budget) -> Rep {
        // Delivered and verified once at each end.
        let per_op = (2, 2 * self.payloads.len_of(0) as u64);
        let mut rep = run_ops(budget, per_op, || self.round_trip());
        rep.failed += self.peer.take_failed();
        rep
    }

    fn stop(&mut self) {
        self.peer.stop();
    }
}

// ---------------------------------------------------------------------------
// Windowed one-way stream
// ---------------------------------------------------------------------------

/// Where a window's messages go: the connection itself, or one of its
/// per-thread channels.
#[derive(Clone)]
pub enum Lane {
    Conn(NcsConnection),
    Chan(Channel),
}

impl Lane {
    fn isend(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        match self {
            Lane::Conn(c) => c.isend(data),
            Lane::Chan(c) => c.isend(data),
        }
    }

    fn irecv(&self) -> Request<MsgView> {
        match self {
            Lane::Conn(c) => c.irecv(),
            Lane::Chan(c) => c.irecv(),
        }
    }
}

/// Windows of `window` nonblocking sends, each window waited to completion
/// before the next; the receiver mirrors every window with `irecv`.
pub struct Window {
    tx: Lane,
    window: usize,
    payloads: Payloads,
    buf: Vec<u8>,
    next_seq: u64,
    trace: Arc<Trace>,
    children: Vec<(Kind, u64, u64)>,
    peer: Peer,
}

impl Window {
    pub fn start(tx: Lane, rx: Lane, window: usize, payloads: Payloads, trace: Arc<Trace>) -> Self {
        let peer = {
            let (payloads, trace) = (payloads.clone(), Arc::clone(&trace));
            Peer::spawn("bench-sink", move |shared| {
                sink_loop(&rx, window, &payloads, &trace, shared)
            })
        };
        Window {
            tx,
            window,
            buf: payloads.template(),
            payloads,
            next_seq: 0,
            trace,
            children: Vec::with_capacity(2 * window),
            peer,
        }
    }

    /// Issues one window and waits for every send to complete. Returns
    /// `(messages completed, window latency ns)`.
    fn one_window(&mut self) -> (u64, u64) {
        let first = self.next_seq;
        self.next_seq += self.window as u64;
        self.children.clear();
        let t0 = now_ns();
        let requests: Vec<_> = (first..self.next_seq)
            .map(|seq| {
                let msg = self.payloads.stamp(&mut self.buf, seq);
                let ts = now_ns();
                let req = self.tx.isend(msg);
                let te = now_ns();
                self.children.push((Kind::Submit, ts, te));
                (req, te)
            })
            .collect();
        let mut completed = 0;
        for (req, submitted) in requests {
            if req.and_then(|r| r.wait_timeout(OP_TIMEOUT)).is_ok() {
                completed += 1;
                self.children
                    .push((Kind::SendComplete, submitted, now_ns()));
            }
        }
        let t1 = now_ns();
        if self.trace.enabled() {
            self.trace.push_op(
                first / self.window as u64,
                (Kind::Op, t0, t1),
                &self.children,
            );
        }
        (completed, t1 - t0)
    }
}

fn sink_loop(rx: &Lane, window: usize, payloads: &Payloads, trace: &Trace, shared: &PeerShared) {
    let mut expect = 0u64;
    loop {
        let posted: Vec<_> = (0..window).map(|_| rx.irecv()).collect();
        let (mut msgs, mut bytes) = (0u64, 0u64);
        for req in posted {
            let wait_from = now_ns();
            let msg = loop {
                match req.wait_timeout(PEER_POLL) {
                    Ok(msg) => break msg,
                    // Dropping the parked requests cancels them.
                    Err(_) if shared.stop.load(Ordering::Relaxed) => return,
                    Err(SendError::Timeout) => {}
                    Err(_) => return,
                }
            };
            let t1 = now_ns();
            let op_id = expect / window as u64;
            // A message that fails the check is simply not counted as
            // delivered; the sender's side turns the shortfall into failures.
            if let Ok(sent_ns) = verify_next(payloads, &msg, &mut expect) {
                msgs += 1;
                bytes += msg.len() as u64;
                if trace.enabled() {
                    trace.push_remote(op_id, Kind::PeerWait, wait_from, t1);
                    if sent_ns > 0 {
                        trace.push_remote(op_id, Kind::OneWay, sent_ns, t1);
                    }
                }
            }
        }
        let mut delivered = shared
            .delivered
            .lock()
            .expect("sink never panics holding it");
        delivered.0 += msgs;
        delivered.1 += bytes;
        shared.progress.notify_all();
    }
}

impl Engine for Window {
    fn run(&mut self, budget: Budget) -> Rep {
        let mut rep = Rep::default();
        let delivered_before = *self.peer.shared.delivered.lock().expect("sink lock");
        let mut running = budget.start();
        let mut completed_total = 0;
        loop {
            let (completed, ns) = self.one_window();
            rep.attempted += self.window as u64;
            completed_total += completed;
            let ok = completed == self.window as u64;
            if ok {
                rep.lat_us.push(ns as f64 / 1e3);
            }
            if !running.after_op(ok) {
                break;
            }
        }
        // The rate is the receiver's: wait until it has handed every
        // completed message to the application, and stop the clock there.
        let want = delivered_before.0 + completed_total;
        let guard = self.peer.shared.delivered.lock().expect("sink lock");
        let (guard, _) = self
            .peer
            .shared
            .progress
            .wait_timeout_while(guard, OP_TIMEOUT, |d| d.0 < want)
            .expect("sink lock");
        let delivered = *guard;
        drop(guard);
        rep.elapsed_s = elapsed_s(running.start_ns, now_ns());
        rep.delivered_msgs = delivered.0 - delivered_before.0;
        rep.delivered_bytes = delivered.1 - delivered_before.1;
        // Every attempted message that was not delivered intact failed,
        // whichever side noticed.
        rep.failed = rep.attempted.saturating_sub(rep.delivered_msgs);
        rep
    }

    fn stop(&mut self) {
        self.peer.stop();
    }
}

// ---------------------------------------------------------------------------
// Allreduce on every rank, driven by one thread
// ---------------------------------------------------------------------------

/// `f64` elements per allreduce contribution.
pub const ALLREDUCE_ELEMS: usize = 64;

/// `iallreduce` on every rank's group, then wait for every handle; the
/// result is checked against the closed form on every rank.
pub struct Allreduce {
    world: Arc<World>,
    seed: u64,
    next_op: u64,
    trace: Arc<Trace>,
}

impl Allreduce {
    pub fn new(world: Arc<World>, seed: u64, trace: Arc<Trace>) -> Self {
        Allreduce {
            world,
            seed,
            next_op: 0,
            trace,
        }
    }

    /// Element `i` of operation `op`, before rank scaling: a small integer,
    /// so every partial sum is exact in `f64` whatever the reduction order.
    fn base(&self, op: u64, i: usize) -> f64 {
        (mix(self.seed ^ mix(op) ^ i as u64) % 1000) as f64
    }

    fn one_op(&mut self) -> Result<u64, String> {
        let op = self.next_op;
        self.next_op += 1;
        let base: Vec<f64> = (0..ALLREDUCE_ELEMS).map(|i| self.base(op, i)).collect();
        let groups = &self.world.groups;
        let mut children = Vec::with_capacity(2 * groups.len());
        let t0 = now_ns();
        let mut handles = Vec::with_capacity(groups.len());
        for (rank, group) in groups.iter().enumerate() {
            // Rank r contributes (r + 1) * base.
            let contrib: Vec<f64> = base.iter().map(|b| b * (rank + 1) as f64).collect();
            let ts = now_ns();
            let handle = group
                .iallreduce(contrib, ReduceOp::Sum)
                .map_err(|e| e.to_string())?;
            children.push((Kind::CollSubmit, ts, now_ns()));
            handles.push(handle);
        }
        let n = groups.len() as f64;
        let scale = n * (n + 1.0) / 2.0;
        for handle in handles {
            let ts = now_ns();
            let sum: Vec<f64> = handle.wait_timeout(OP_TIMEOUT).map_err(|e| e.to_string())?;
            children.push((Kind::CollWait, ts, now_ns()));
            if sum.len() != base.len() || sum.iter().zip(&base).any(|(s, b)| *s != b * scale) {
                return Err("allreduce result differs from the closed form".into());
            }
        }
        let t1 = now_ns();
        if self.trace.enabled() {
            self.trace.push_op(op, (Kind::Op, t0, t1), &children);
        }
        Ok(t1 - t0)
    }
}

impl Engine for Allreduce {
    fn run(&mut self, budget: Budget) -> Rep {
        // One verified result vector per rank.
        let ranks = self.world.groups.len() as u64;
        let result_bytes = (ALLREDUCE_ELEMS * std::mem::size_of::<f64>()) as u64;
        run_ops(budget, (ranks, ranks * result_bytes), || self.one_op())
    }

    fn stop(&mut self) {}
}

/// Median round trip (µs) of a ladder rung: a fresh ping-pong over `client`
/// and `server`, warmed for `warmup`, measured for `dur`, torn down.
pub fn ladder_rtt_us(
    client: Port,
    server: Port,
    payloads: Payloads,
    warmup: Duration,
    dur: Duration,
) -> Result<f64, String> {
    let mut pp = PingPong::start(client, server, payloads, Trace::with_capacity(0));
    pp.run(Budget::Time(warmup));
    let rep = pp.run(Budget::Time(dur));
    pp.stop();
    if rep.failed > 0 || rep.lat_us.is_empty() {
        return Err(format!(
            "ladder rung failed {} of {} round trips",
            rep.failed, rep.attempted
        ));
    }
    Ok(crate::stats::median(&rep.lat_us))
}
