//! Per-connection machinery: the driver of the Figure-4 pipeline of
//! [`crate::plane`], and the public [`NcsConnection`] handle.
//!
//! The send path follows the paper's Figure 4:
//!
//! 1. `NCS_send` activates the Error Control plane;
//! 2. the EC plane segments the message into SDUs — or, when small
//!    messages are queued behind it, packs them with it into one SDU (a
//!    *train*, see [`crate::plane`]) — and activates the Flow Control
//!    plane;
//! 3. the FC plane releases packets to the Send plane as credits permit;
//! 4. the Send plane transmits on the data connection;
//! 5. *(figure steps 5-8)* on the receive side the Receive plane activates
//!    the FC plane, which moves the credit edge, and activates the EC
//!    plane;
//! 6. *(figure steps 9-10)* the EC plane reassembles, delivers into the
//!    user buffer and sends the acknowledgement bitmap over the control
//!    connection — with the credit edge in the same frame, where the
//!    figure has the FC plane send a grant of its own.
//!
//! Steps 1-3 and 5-6 — everything that is flow or error control — are
//! the two sans-I/O state machines of [`crate::plane`]:
//! [`TxPlane`] and [`RxPlane`]. This module is what moves bytes and time
//! around them: a receive half ([`ConnShared::receive`]) and a send half
//! ([`TxSide`]),
//! each with one set of steps, run by one of two kinds of thread:
//!
//! * **The reactor task** ([`ConnTask`]). Where the paper runs each plane
//!   as a dedicated thread per connection, one resumable task registered
//!   with the node's [`Reactor`](crate::Reactor) reads frames off the
//!   transport into the `RxPlane`, feeds submissions and control events
//!   to the `TxPlane`, and moves the SDUs it releases onto the wire. The
//!   paper's mailbox "activations" become task wakeups: a control-plane
//!   acknowledgement or a frame arriving on the transport each schedule
//!   the task onto one of the reactor's O(cores) event loops. Protocol
//!   waits (ack timeouts, credit pacing, starvation probes) park on
//!   reactor timers instead of blocking a thread, so a node holds
//!   thousands of connections with a fixed-size thread pool. The only
//!   queues left are the two that cross threads: submissions and control
//!   events (from the peer's control task). Feedback — an acknowledgement
//!   with the credit edge in it, or the edge alone — leaves through the
//!   peer's control queue, which the peer's control task
//!   (`crate::control`) flushes on the same event loops — no thread sits
//!   between the two tasks.
//!
//!   The receive half is the task's alone: only the reactor reads a
//!   threaded connection's transport. The send half — the `TxPlane`, the
//!   Send plane's frame queue — sits in [`ConnShared::tx`] behind one lock
//!   and is stepped by whoever holds it. `NCS_send` always queues first, then
//!   activates: a message of several SDUs wakes the task and the caller
//!   goes back to computing while the reactor segments, copies and
//!   transmits (§4.1's overlap); a message of one SDU is run through the
//!   pipeline by its own submitter when the lock is free
//!   ([`ConnShared::drive_or_wake`]), because the hand-off costs more than
//!   the work. The task is then woken only for what the inline step left
//!   that needs it.
//! * **The caller, in direct mode** (§4.2, [`NcsConnection::send_direct`]
//!   / [`NcsConnection::recv_direct`]). No task is registered; the task's
//!   own steps run as procedures on the caller's thread. A sender holds
//!   the send half for the length of its message and waits on the
//!   control-event queue between steps; a receiver runs each frame it
//!   reads through the connection's receive half and takes its messages
//!   from the delivery queue, as a threaded receiver does.
//!
//! Every connection runs the planes. One configured without flow and
//! error control (paper §3.1's bypass) runs them with null strategies,
//! which release every SDU at once and expect no feedback; what is left
//! to hold such a sender back is the bound on its send queue
//! ([`SEND_QUEUE_DEPTH`], [`ConnShared::queued`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_obs::{EventKind, FlightRecorder, Registry};
use ncs_threads::sync::{Event, Mailbox, NcsMutex, Semaphore};
use ncs_transport::{Connection as Transport, TransportError};
use parking_lot::{Mutex, RwLock};

use crate::config::{ConnectionConfig, ErrorControlAlg};
use crate::packet::{CtrlMsg, DataHeader, DataPacket};
use crate::plane::{sdu_count, CtrlEvent, PlaneObs, RxPlane, Sdu, Submission, TxPlane};
use crate::pool::{BufPool, PooledBuf};
use crate::reactor::{Reactor, ReactorTask, TaskHandle, TaskKind, TaskPoll, Watch};
use crate::request::{DeliveryQueue, MsgView, Request, RequestCore};
use crate::stats::{ConnCounters, ConnectionStats};

/// Size of the tag envelope prepended to tag-matched messages (the
/// big-endian `u32` channel tag).
const TAG_ENVELOPE: usize = 4;

/// Most frames the Send/Receive planes move per transport acquisition.
/// Large enough to amortise ring/buffer acquisition over bulk traffic,
/// small enough to keep a batch within one credit grant.
pub(crate) const IO_BATCH: usize = 32;

/// Bound on the SDUs queued ahead of the interface on a connection without
/// flow and error control, and on the Send plane's frame queue of any
/// connection. Bounding it backpressures producers that outrun the
/// interface, which (a) caps the data plane's buffer memory per connection
/// and (b) keeps the working set of pooled buffers small enough to recycle
/// instead of alloc (an unbounded burst would drain the pool and fall back
/// to the heap for every frame).
const SEND_QUEUE_DEPTH: usize = 4 * IO_BATCH;

/// The send queue of a connection without flow and error control: the
/// SDUs queued ahead of the interface, counted from submission to write,
/// and the senders parked until it is below [`SEND_QUEUE_DEPTH`].
#[derive(Debug)]
pub(crate) struct SendQueue {
    sdus: AtomicUsize,
    /// Senders parked in [`SendQueue::admit`], and the permits that wake
    /// them.
    parked: AtomicUsize,
    room: Semaphore,
}

impl SendQueue {
    fn new() -> Self {
        SendQueue {
            sdus: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            room: Semaphore::new(0),
        }
    }

    /// SDUs queued ahead of the interface.
    pub(crate) fn len(&self) -> usize {
        self.sdus.load(Ordering::SeqCst)
    }

    /// Counts a message of `sdus` SDUs in. A message goes in whole once the
    /// queue is below its bound, however little room is left, so the queue
    /// overshoots by at most one message and none is too long to ever fit.
    /// With `wait` the call blocks (cooperatively) while the queue is full;
    /// without, the caller admitted the message while there was room
    /// ([`NcsConnection::try_send_batch`]). A parked sender waits for
    /// room or the connection's close, which wakes it as a release does,
    /// and fails once the connection is `closed`, so producers never hang
    /// on a task that has already retired.
    fn admit(&self, sdus: usize, wait: bool, closed: &AtomicBool) -> Result<(), SendError> {
        while wait && self.len() >= SEND_QUEUE_DEPTH {
            self.parked.fetch_add(1, Ordering::SeqCst);
            // Looked at again once announced: a release or a close that
            // came before saw nobody parked and woke nobody. (Sequentially
            // consistent on both sides: one of the two sees the other.)
            if self.len() >= SEND_QUEUE_DEPTH && !closed.load(Ordering::SeqCst) {
                self.room.acquire();
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
            if closed.load(Ordering::Acquire) {
                return Err(SendError::Closed);
            }
        }
        self.sdus.fetch_add(sdus, Ordering::SeqCst);
        Ok(())
    }

    /// Counts `sdus` SDUs, written or gone, out, and wakes every parked
    /// sender to look again.
    fn release(&self, sdus: usize) {
        if sdus == 0 {
            return;
        }
        self.sdus.fetch_sub(sdus, Ordering::SeqCst);
        self.room.release_n(self.parked.load(Ordering::SeqCst));
    }
}

/// Errors from sending on an NCS connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The connection is closed (locally or by the peer).
    Closed,
    /// Message too large for this configuration (unreliable connections
    /// are limited to one SDU; reliable ones to the bitmap's SDU count).
    TooLarge {
        /// Offered message length.
        len: usize,
        /// Configuration limit.
        max: usize,
    },
    /// Empty messages cannot be sent.
    Empty,
    /// Error control exhausted its retries.
    DeliveryFailed(String),
    /// The underlying interface failed.
    Transport(String),
    /// Timed out waiting for a synchronous completion.
    Timeout,
    /// The operation requires a different connection mode (e.g.
    /// `send_direct` on a threaded connection).
    WrongMode(&'static str),
    /// A request's result was already taken (each [`Request`] resolves
    /// exactly once).
    ResultTaken,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Closed => write!(f, "connection closed"),
            SendError::TooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds limit {max}")
            }
            SendError::Empty => write!(f, "empty messages cannot be sent"),
            SendError::DeliveryFailed(why) => write!(f, "delivery failed: {why}"),
            SendError::Transport(e) => write!(f, "transport error: {e}"),
            SendError::Timeout => write!(f, "timed out"),
            SendError::WrongMode(need) => write!(f, "operation requires {need} mode"),
            SendError::ResultTaken => write!(f, "request result already taken"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<TransportError> for SendError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Closed => SendError::Closed,
            TransportError::Timeout => SendError::Timeout,
            other => SendError::Transport(other.to_string()),
        }
    }
}

/// One encoded frame on the Send plane's queue, with the completions its
/// write resolves ([`Sdu::done`]). Transmitting the frame returns its
/// buffer to the pool.
type SendJob = (PooledBuf, Vec<Arc<RequestCore<()>>>);

/// The send half of a connection's pipeline — everything between
/// `NCS_send` and the interface — behind one lock ([`ConnShared::tx`]) and
/// driven by whoever holds it: the connection's reactor task, a submitter
/// that found the lock free ([`ConnShared::drive_or_wake`]), or, in direct
/// mode, the thread inside `send_direct` for as long as its message takes.
pub(crate) struct TxSide {
    /// Flow and error control, sender half (Figures 6-8, steps 1-3).
    plane: TxPlane,
    /// The Send plane (Figure 4 step 4): frames waiting for the interface.
    pending: VecDeque<SendJob>,
    /// The interface refused the last flush; retried on [`TX_RETRY`].
    blocked: bool,
}

/// Connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    Connecting,
    Active,
    Closed,
}

/// Shared state of one connection endpoint.
pub(crate) struct ConnShared {
    pub id: u32,
    pub peer_name: String,
    pub peer_conn: AtomicU32,
    pub config: ConnectionConfig,
    pub state: Mutex<ConnState>,
    pub established: Event,
    pub closed: AtomicBool,
    /// Whether the close was peer-initiated (CloseConn / transport EOF).
    /// A peer close entitles the reactor task to a final receive-side
    /// drain before parked receives fail: the CloseConn rides the control
    /// connection and can overtake the peer's last data frames.
    pub closed_by_peer: AtomicBool,
    /// The dedicated data channel.
    pub transport: Arc<dyn Transport>,
    /// The node's recycling frame-buffer pool (every encode on the data
    /// plane draws from it).
    pub pool: Arc<BufPool>,
    /// The peer's outbound control queue (control connection): one FIFO
    /// per peer, flushed by the peer's control task (`crate::control`).
    pub ctrl_tx: Arc<Mailbox<CtrlMsg>>,
    // The queues that cross threads (everything else is a field of the
    // task, of `tx`, or of a plane).
    /// Messages for the pipeline: application → whoever holds `tx`.
    /// Queued before anybody is asked to drain them, which is what keeps
    /// one thread's messages in order whoever does.
    pub submit_inbox: Mailbox<Submission>,
    /// Acknowledgements and flow-control feedback: control dispatcher →
    /// whoever holds `tx`.
    pub ctrl_inbox: Mailbox<CtrlEvent>,
    /// Without flow and error control nothing else holds a sender back:
    /// the SDUs queued ahead of the interface, bounded at
    /// [`SEND_QUEUE_DEPTH`]. `None` where flow or error control paces the
    /// sender.
    pub queued: Option<SendQueue>,
    /// The send pipeline.
    pub tx: NcsMutex<TxSide>,
    /// Wake handle of the connection's reactor task, with the task's
    /// subscription to the data channel's readiness (`None` in direct
    /// mode, before attachment, and after the task retires). A read-write
    /// lock, not a mutex: every submitter on the send path takes it
    /// shared in [`ConnShared::wake_task`], so N application threads
    /// hammering one connection never serialise on the wake handle —
    /// only attachment and retirement take it exclusively.
    pub task: RwLock<Option<(Arc<TaskHandle>, Watch)>>,
    /// Reassembled messages awaiting a receive: routed by tag, matched
    /// against parked [`Request`]s, failed fast on close.
    pub delivery: DeliveryQueue,
    pub counters: ConnCounters,
    /// Message-lifecycle flight recorder (telemetry plane). Always
    /// present; the ring itself carries the runtime kill-switch.
    pub recorder: FlightRecorder,
    /// The node's metrics registry, when the connection was opened under
    /// one. Held so the connection can retire its labelled series on drop.
    pub registry: Option<Arc<Registry>>,
    /// Sticky error from the error-control plane (reported by
    /// [`NcsConnection::last_error`]). Shared with the connection's
    /// [`TxPlane`].
    pub last_error: Arc<Mutex<Option<SendError>>>,
    /// Direct mode (paper §4.2): the receive half lives here and runs on
    /// whichever thread calls `recv_direct`. `None` on connections with a
    /// reactor task, which owns its own — only the task reads a
    /// transport.
    pub direct_rx: NcsMutex<Option<RxPlane>>,
}

impl std::fmt::Debug for ConnShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnShared")
            .field("id", &self.id)
            .field("peer", &self.peer_name)
            .field("state", &*self.state.lock())
            .field("interface", &self.transport.caps().interface)
            .finish()
    }
}

impl Drop for ConnShared {
    fn drop(&mut self) {
        // Retire this connection's labelled series so long-lived nodes
        // with connection churn don't accumulate dead metrics. Detached
        // `ConnectionStats` handles keep their own counter clones.
        if let Some(registry) = &self.registry {
            registry.unregister_label("conn", &self.id.to_string());
        }
    }
}

impl ConnShared {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor; every field is load-bearing
    pub(crate) fn new(
        id: u32,
        peer_name: String,
        config: ConnectionConfig,
        transport: Arc<dyn Transport>,
        pool: Arc<BufPool>,
        ctrl_tx: Arc<Mailbox<CtrlMsg>>,
        registry: Option<Arc<Registry>>,
    ) -> Arc<Self> {
        let counters = match &registry {
            Some(r) => ConnCounters::registered(r, id, &peer_name),
            None => ConnCounters::default(),
        };
        // The sender pipeline reports into the connection's counters,
        // recorder and sticky error.
        let obs = PlaneObs {
            counters: counters.clone(),
            recorder: FlightRecorder::default(),
            last_error: Arc::default(),
        };
        let plane = TxPlane::new(&config, obs.clone(), Instant::now());
        let queued = (!config.needs_control_threads()).then(SendQueue::new);
        let direct_rx = config
            .direct
            .then(|| RxPlane::new(&config, &counters, &pool));
        let shared = Arc::new(ConnShared {
            id,
            peer_name,
            peer_conn: AtomicU32::new(u32::MAX),
            config,
            state: Mutex::new(ConnState::Connecting),
            established: Event::new(),
            closed: AtomicBool::new(false),
            closed_by_peer: AtomicBool::new(false),
            transport,
            pool,
            ctrl_tx,
            submit_inbox: Mailbox::unbounded(),
            ctrl_inbox: Mailbox::unbounded(),
            queued,
            tx: NcsMutex::new(TxSide {
                plane,
                pending: VecDeque::with_capacity(IO_BATCH),
                blocked: false,
            }),
            task: RwLock::new(None),
            delivery: DeliveryQueue::new(),
            counters,
            recorder: obs.recorder,
            registry,
            last_error: obs.last_error,
            direct_rx: NcsMutex::new(direct_rx),
        });
        // Exact receive accounting (all four transports, bypass included):
        // the delivery queue is the one point every reassembled or
        // zero-copy message crosses, so it owns the `messages_received`
        // increment and the `Deliver` flight event.
        shared.delivery.set_obs(
            shared.counters.messages_received.clone(),
            shared.recorder.clone(),
        );
        shared
    }

    /// Records a link-failure flight event and, when a post-mortem sink
    /// is configured, writes the connection's final stats and flight dump
    /// to it. Called from the fail-fast transport-error paths only — a
    /// graceful peer close is not a link failure.
    pub(crate) fn link_down(&self) {
        self.recorder.record(EventKind::LinkDown, 0, 0, 0);
        if ncs_obs::postmortem::sink_path().is_some() {
            let dump = format!(
                "{{\"event\":\"link_down\",\"peer\":\"{}\",\"flight\":{}}}",
                ncs_obs::json::escape(&self.peer_name),
                self.recorder
                    .dump_json_labelled(&format!("{}->{}", self.id, self.peer_name)),
            );
            ncs_obs::postmortem::write(&dump);
        }
    }

    /// Largest message this configuration accepts.
    pub(crate) fn max_message(&self) -> usize {
        if matches!(self.config.error_control, ErrorControlAlg::None) {
            // Without error control there is no reassembly guarantee across
            // loss; bound messages to what segmentation keeps intact on an
            // ordered transport (still multiple SDUs, delivered on the end
            // bit).
            self.config.sdu_size * 64
        } else {
            self.config.sdu_size * crate::seq::AckBitmap::MAX_TOTAL as usize
        }
    }

    pub(crate) fn peer_conn_id(&self) -> u32 {
        self.peer_conn.load(Ordering::Acquire)
    }

    pub(crate) fn mark_established(&self, peer_conn: u32) {
        self.peer_conn.store(peer_conn, Ordering::Release);
        *self.state.lock() = ConnState::Active;
        self.established.fire();
    }

    /// Learns the peer's connection id from an incoming data packet (covers
    /// the window where data outruns the control-plane accept).
    pub(crate) fn note_peer_conn(&self, src: u32) {
        let _ = self
            .peer_conn
            .compare_exchange(u32::MAX, src, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Schedules the connection's reactor task — the reactor-era analogue
    /// of the paper's mailbox activation. No-op in direct mode, before
    /// attachment, and after retirement (wakes coalesce; a wake racing a
    /// running poll reschedules it, so no activation is ever lost).
    pub(crate) fn wake_task(&self) {
        if let Some((t, _)) = self.task.read().as_ref() {
            t.wake();
        }
    }

    /// Runs the send pipeline on the calling thread if nobody else is
    /// running it, and wakes the task otherwise: the submitter's half of
    /// "queue, then activate". Called after queueing a message of one SDU
    /// — the hand-off to the task costs more than segmenting, encoding and
    /// transmitting one frame does, where a longer message is worth
    /// handing over so the caller computes meanwhile (§4.1).
    ///
    /// A busy lock always wakes: the poll holding it may be past its look
    /// at the queues. After an inline step the task is woken only for what
    /// the step left that needs it — a deadline earlier than the one it
    /// has armed (the acknowledgement timeout of a first message after a
    /// silence; every later one finds that timer still armed), a flush the
    /// interface refused, or frames beyond the one run the Send plane
    /// takes per step.
    pub(crate) fn drive_or_wake(&self) {
        // A closing connection's queues are the task's to flush and fail.
        let open = |_: &_| !self.closed.load(Ordering::Acquire);
        let Some(mut tx) = self.tx.try_lock().filter(open) else {
            return self.wake_task();
        };
        // Behind a message in flight there is nothing to run and nobody
        // to wake: what ends it — an event, which wakes the task, or a
        // deadline the task holds — is handled by a step that then drains
        // the queue, this message included.
        if tx.plane.in_flight() {
            return;
        }
        let mut timer = None;
        self.step_tx(&mut tx, &mut timer);
        self.step_send(&mut tx, &mut timer);
        drop(tx);
        // Read after the step, outside the lock: a poll that missed the
        // step has either published its deadline by now or is still
        // running and will find this wake.
        if let (Some(at), Some((task, _))) = (timer, self.task.read().as_ref()) {
            if !task.armed_by(at) {
                task.wake();
            }
        }
    }

    /// Counts `sdus` SDUs, written or gone, out of a bounded send queue.
    fn unqueue(&self, sdus: usize) {
        if let Some(queued) = &self.queued {
            queued.release(sdus);
        }
    }

    /// Encodes one SDU into a pooled, wire-ready frame.
    fn encode_sdu(&self, sdu: &Sdu<'_>) -> PooledBuf {
        let header = DataHeader {
            conn: self.peer_conn_id(),
            src_conn: self.id,
            session: sdu.session,
            seq: sdu.seq,
            end: sdu.end,
            tagged: sdu.tagged,
        };
        header.encode_sdu_pooled(sdu.packed, sdu.payload, &self.pool)
    }

    /// Queues one feedback frame for the peer's control task.
    fn feedback(&self, msg: CtrlMsg) {
        self.counters.feedback_sent.inc();
        self.ctrl_tx.send(msg);
    }

    /// The receive half of the pipeline — everything between the interface
    /// and the delivery queue — for one arrived frame, parsed in place
    /// ([`DataPacket::peek`]): runs it through the [`RxPlane`] (Figure 4
    /// steps 5-10) and delivers what it completes: none, one, or a train's
    /// messages. The reactor task owns the `RxPlane`; a direct connection
    /// keeps one in [`ConnShared::direct_rx`] for the thread inside
    /// `recv_direct`. The pipeline's acknowledgement leaves at once, with
    /// the credit edge in the same frame if one is owed — one
    /// advertisement, the latest edge, covers a whole receive drain: here,
    /// or alone when the drain ends ([`ConnShared::drained`]). Inlined: the
    /// task's receive loop runs it once per frame.
    #[inline(always)]
    fn receive(&self, rx: &mut RxPlane, frame: &[u8]) {
        let Ok(view) = DataPacket::peek(frame) else {
            return; // not a data packet: ignore
        };
        self.note_peer_conn(view.header.src_conn);
        self.counters.packets_received.inc();
        // `messages_received` is counted at the delivery queue.
        let step = rx.on_frame(&view, Instant::now());
        if let Some(info) = step.ack {
            self.counters.acks_sent.inc();
            self.feedback(CtrlMsg::Ack {
                conn: self.peer_conn_id(),
                session: view.header.session,
                info,
                edge: rx.advertise(),
            });
        }
        for (message, tagged) in step.delivered {
            deliver_message(self, message, tagged);
        }
    }

    /// Ends a receive drain: advertises the credit edge alone, if an
    /// arrival after the last acknowledgement still owes it.
    fn drained(&self, rx: &mut RxPlane) {
        if let Some(edge) = rx.advertise() {
            self.feedback(CtrlMsg::Credit {
                conn: self.peer_conn_id(),
                credits: edge,
            });
        }
    }

    /// Flow and error control, sender half: feeds the [`TxPlane`] what
    /// arrived for it — control events, new messages, the time — and
    /// queues the SDUs it releases on the Send plane while that has room.
    fn step_tx(&self, tx: &mut TxSide, timer: &mut Option<Instant>) -> bool {
        let TxSide { plane, pending, .. } = tx;
        // Read once, and not at all by a step that finds nothing to do.
        let mut now = None;
        let mut clock = || *now.get_or_insert_with(Instant::now);
        let mut progressed = false;
        while let Some(event) = self.ctrl_inbox.try_recv() {
            plane.on_event(event, clock());
            progressed = true;
        }
        // The Send plane's queue fills only while the interface refuses
        // it; everything behind waits where it is until that clears, and
        // the Send plane's retry timer comes back for it.
        if pending.len() >= SEND_QUEUE_DEPTH {
            return progressed;
        }
        let mut submitted = 0;
        while let Some(mut submission) = self.submit_inbox.try_recv() {
            // Hand-off acknowledgement: the caller may resume (and overlap
            // computation with the transmit — §4.1).
            if let Some(accepted) = submission.accepted.take() {
                accepted.fire();
            }
            submitted += sdu_count(submission.data.len(), self.config.sdu_size) as usize;
            plane.submit(submission);
            progressed = true;
        }
        // Handed nothing, an idle pipeline releases nothing and keeps no
        // deadline: the step that finds every queue empty ends here.
        if !progressed && plane.is_idle() {
            return false;
        }
        let now = clock();
        let before = pending.len();
        progressed |= plane.poll(now, |sdu| {
            let frame = self.encode_sdu(&sdu);
            pending.push_back((frame, sdu.done));
        });
        // A train is one frame for the SDUs of several messages: the room
        // of the rest is free now.
        self.unqueue(submitted.saturating_sub(pending.len() - before));
        if let Some(at) = plane.next_deadline(now) {
            min_timer(timer, at);
        }
        progressed
    }

    /// The Send plane: moves queued frames onto the data connection. Up to
    /// [`IO_BATCH`] frames cross the transport per
    /// [`ncs_transport::Connection::try_send_batch`] call, and their
    /// pooled buffers return to the pool as each is transmitted.
    fn step_send(&self, tx: &mut TxSide, timer: &mut Option<Instant>) -> bool {
        let TxSide {
            pending, blocked, ..
        } = tx;
        let mut progressed = false;
        *blocked = false;
        while !pending.is_empty() {
            let mut refs = [&[][..]; IO_BATCH];
            let batch = fill_batch(&mut refs, pending.iter().map(|(f, _)| f.as_slice()));
            match self.transport.try_send_batch(&refs[..batch]) {
                Ok(0) => {
                    // Interface backpressure: the peer must drain before
                    // more fits, which no local readiness source reports —
                    // retry on a short timer.
                    *blocked = true;
                    break;
                }
                Ok(sent) => {
                    let sent = sent.min(batch);
                    self.counters.packets_sent.add(sent as u64);
                    let bytes: usize = refs[..sent].iter().map(|r| r.len()).sum();
                    self.recorder.record(EventKind::Wire, 0, 0, bytes);
                    // The buffers return to the pool.
                    for (_, done) in pending.drain(..sent) {
                        for core in done {
                            core.complete(Ok(()));
                        }
                    }
                    self.unqueue(sent);
                    progressed = true;
                }
                Err(e) => {
                    // Nothing of the batch was accepted: fail its
                    // senders, then handle the failure as the single-frame
                    // path did: Closed tears the data plane down, anything
                    // else drops the frames.
                    let failure = SendError::from(e.clone());
                    self.unqueue(pending.len());
                    for (_, done) in pending.drain(..) {
                        for core in done {
                            core.complete(Err(failure.clone()));
                        }
                    }
                    progressed = true;
                    if matches!(e, TransportError::Closed) {
                        self.link_down();
                        self.peer_closed();
                    }
                    break;
                }
            }
        }
        if pending.is_empty() {
            *blocked = flush_owed(self.transport.as_ref());
        }
        if *blocked {
            min_timer(timer, Instant::now() + TX_RETRY);
        }
        progressed
    }

    pub(crate) fn initiate_close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.state.lock() = ConnState::Closed;
        // Tell the peer (best effort), then retire our data plane.
        let peer = self.peer_conn_id();
        if peer != u32::MAX {
            self.ctrl_tx.send(CtrlMsg::CloseConn { conn: peer });
        }
        self.retire_data_plane();
    }

    /// The close of a node shutting down. The control plane goes with the
    /// node, so no acknowledgement can arrive any more: the session in
    /// flight and what is queued behind it fail now, and the closing task
    /// finds its send side flushed instead of lingering for them.
    pub(crate) fn close_with_node(&self) {
        self.initiate_close();
        self.tx.lock().plane.fail_all(SendError::Closed);
        self.wake_task();
    }

    pub(crate) fn peer_closed(&self) {
        self.closed_by_peer.store(true, Ordering::Release);
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.state.lock() = ConnState::Closed;
        self.retire_data_plane();
    }

    /// Retires the connection's data plane. Called exactly once (guarded
    /// by the callers' `closed` swap); the reactor task retires on the
    /// `closed` flag the wake below makes it observe. A second close, or a
    /// close landing while the task is mid-poll, resolves to a coalesced
    /// wake and a no-op retirement.
    ///
    /// With a live reactor task the transport close is deferred to the
    /// task's retirement so the close is *graceful* in both directions:
    ///
    /// - A **locally**-initiated close keeps the receive fail-fast
    ///   contract (parked receives resolve here, now) but lets the task
    ///   flush queued sends — frames parked behind flow-control credits
    ///   or an unacknowledged error-control session — before the
    ///   transport closes, so fire-and-forget sends issued right before
    ///   `close()` still reach the peer.
    /// - A **peer**-initiated close defers the receive fail-fast too: the
    ///   CloseConn travels on the control connection and can overtake the
    ///   peer's final data frames on the data channel, so the task keeps
    ///   delivering until the channel itself reports EOF (or a bounded
    ///   linger) and only then fails the parked receives.
    ///
    /// Without a task (direct mode, or the task already retired) the
    /// teardown is immediate.
    fn retire_data_plane(&self) {
        let task_attached = self.task.read().is_some();
        if !task_attached {
            self.transport.close();
            self.delivery.fail_all(SendError::Closed);
        } else if !self.closed_by_peer.load(Ordering::Acquire) {
            // Fail-fast for parked receives: every in-flight `irecv` (and
            // the blocking wrappers over it) resolves *now*, not a poll
            // tick later.
            self.delivery.fail_all(SendError::Closed);
        }
        self.established.fire();
        // Senders parked for room or, in direct mode, for the peer's next
        // word see the close now.
        if let Some(q) = &self.queued {
            q.room.release_n(q.parked.load(Ordering::SeqCst));
        }
        self.ctrl_inbox.send(CtrlEvent::Closed);
        // Schedule the task so it observes `closed` and runs the closing
        // drain (flush sends / deliver final frames), then retires.
        self.wake_task();
    }
}

/// Frames drained per poll round before the task yields its shard with
/// [`TaskPoll::Again`] (keeps one firehose connection from starving its
/// shard siblings).
pub(crate) const RECV_BUDGET: usize = 4 * IO_BATCH;

/// Plane rounds per poll: the planes feed each other (receive → FC → EC →
/// send), so one poll loops until a full round makes no progress — bounded
/// so a busy task still yields the shard.
const MAX_ROUNDS: usize = 8;

/// Retry delay after the transport refused a nonblocking transmit
/// ([`ncs_transport::Connection::try_send_batch`] returned 0). The remedy
/// is the *peer* draining, which this reactor cannot observe, so a short
/// timer polls the flush.
pub(crate) const TX_RETRY: Duration = Duration::from_millis(1);

/// Upper bound on the post-close receive drain after a *peer* close. The
/// drain normally ends much earlier — when the data channel reports EOF
/// (the peer's transport close follows its last frame) — the linger only
/// bounds transports that never signal EOF.
pub(crate) const CLOSE_LINGER: Duration = Duration::from_millis(250);

/// Attaches a connection to the reactor: one [`ConnTask`] multiplexing all
/// four Figure-4 planes onto a shared event loop. Direct mode (§4.2)
/// attaches nothing — its planes run on the caller.
pub(crate) fn attach_connection(reactor: &Arc<Reactor>, shared: &Arc<ConnShared>) {
    if shared.config.direct {
        return;
    }
    let task = Box::new(ConnTask::new(Arc::clone(shared)));
    let handle = reactor.spawn(TaskKind::Connection, |_| task);
    let watch = reactor.watch(&shared.transport, &handle);
    *shared.task.write() = Some((Arc::clone(&handle), watch));
    // Frames arriving between the task's first poll and the subscription
    // above had nothing to wake; one explicit wake closes the gap (the
    // poll it schedules drains them).
    handle.wake();
}

/// A connection's Figure-4 pipeline as one resumable reactor task: the
/// non-blocking driver of the [`crate::plane`] state machines.
///
/// The Receive plane is the task's `step_recv` — only the task reads the
/// transport — feeding its [`RxPlane`]; the send half ([`TxSide`]: the
/// [`TxPlane`] and the Send plane's queue) is shared with submitters and
/// stepped under its lock by [`ConnShared::step_tx`] /
/// [`ConnShared::step_send`]. The paper's blocking waits became
/// [`TaskPoll::Timer`] deadlines.
struct ConnTask {
    shared: Arc<ConnShared>,
    rx: RxPlane,
    /// The transport reported EOF/failure on the receive side: the
    /// post-close drain is complete, nothing more can arrive.
    rx_eof: bool,
    /// Deadline of the post-close receive drain (armed on the first
    /// closing poll after a peer close).
    drain_deadline: Option<Instant>,
    finished: bool,
}

impl ConnTask {
    fn new(shared: Arc<ConnShared>) -> Self {
        ConnTask {
            rx: RxPlane::new(&shared.config, &shared.counters, &shared.pool),
            rx_eof: false,
            drain_deadline: None,
            finished: false,
            shared,
        }
    }

    /// The Receive plane: drains ready frames off the data connection
    /// through the receive half ([`ConnShared::receive`]).
    fn step_recv(&mut self, hungry: &mut bool) -> bool {
        let shared = Arc::clone(&self.shared);
        let mut progressed = false;
        let mut budget = RECV_BUDGET;
        loop {
            if budget == 0 {
                *hungry = true;
                break;
            }
            let frame = match shared.transport.try_recv() {
                Ok(Some(f)) => f,
                Ok(None) | Err(TransportError::Timeout) => break,
                Err(_) => {
                    // The link died: nothing more can arrive. Record EOF
                    // (ends any post-close drain) and fail fast.
                    self.rx_eof = true;
                    shared.link_down();
                    shared.peer_closed();
                    progressed = true;
                    break;
                }
            };
            budget -= 1;
            progressed = true;
            shared.receive(&mut self.rx, &frame);
        }
        shared.drained(&mut self.rx);
        progressed
    }

    /// Terminal teardown, run once when the task observes `closed`: every
    /// queued send — in the pipeline, in the submission queue, on the send
    /// queue — resolves `Closed` instead of dangling, and the task
    /// detaches from its readiness sources. Idempotent by construction
    /// (double close and close-during-poll both funnel into the same
    /// single retirement).
    fn retire(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let shared = Arc::clone(&self.shared);
        let mut tx = shared.tx.lock();
        // The session in flight fails like a delivery error, and
        // everything queued behind it resolves Closed (the send-side half
        // of the fail-fast contract).
        tx.plane.fail_all(SendError::Closed);
        while let Some(submission) = shared.submit_inbox.try_recv() {
            if let Some(accepted) = submission.accepted {
                accepted.fire();
            }
            if let Some(c) = submission.completion {
                c.complete(Err(SendError::Closed));
            }
        }
        // The buffers return to the pool.
        for (_, done) in tx.pending.drain(..) {
            for core in done {
                core.complete(Err(SendError::Closed));
            }
        }
        drop(tx);
        // Close the transport and fail the parked receives. On a local
        // close `retire_data_plane` already did both (these repeats are
        // no-ops); on a peer close they were deferred to this retirement
        // so the final drain could deliver the peer's last frames first.
        shared.transport.close();
        shared.delivery.fail_all(SendError::Closed);
        // Detach from the transport's readiness, and drop the wake handle
        // so later `wake_task` calls are no-ops.
        *shared.task.write() = None;
    }

    /// Whether the send side is empty: nothing in or queued for the
    /// FC/EC pipeline (no session in flight, nothing parked on credits),
    /// nothing waiting on the wire.
    fn flushed(&self, tx: &TxSide) -> bool {
        tx.plane.is_idle()
            && tx.pending.is_empty()
            && !tx.blocked
            && self.shared.submit_inbox.is_empty()
    }

    /// Post-close polling: the graceful half of the close, bounded by
    /// [`CLOSE_LINGER`].
    ///
    /// A **locally**-initiated close flushes the send planes — frames
    /// parked on flow-control credits or an unacknowledged error-control
    /// session still go out — and retires as soon as they are empty
    /// (instantly for the common quiescent close). A **peer**-initiated
    /// close additionally keeps the receive planes delivering: the
    /// CloseConn rides the control connection and can overtake the peer's
    /// final data frames, so the task drains until the data channel
    /// itself reports EOF (the peer's transport close follows its data).
    fn poll_closing(&mut self) -> TaskPoll {
        let deadline = *self
            .drain_deadline
            .get_or_insert_with(|| Instant::now() + CLOSE_LINGER);
        let peer_close = self.shared.closed_by_peer.load(Ordering::Acquire);
        let mut timer = None;
        for _ in 0..MAX_ROUNDS {
            let mut hungry = false;
            timer = None;
            let mut progressed = false;
            if peer_close {
                progressed |= self.step_recv(&mut hungry);
            }
            let mut tx = self.shared.tx.lock();
            progressed |= self.shared.step_tx(&mut tx, &mut timer);
            progressed |= self.shared.step_send(&mut tx, &mut timer);
            let flushed = self.flushed(&tx);
            drop(tx);
            if self.rx_eof || (!peer_close && flushed) {
                self.retire();
                return TaskPoll::Done;
            }
            if hungry {
                return TaskPoll::Again;
            }
            if !progressed {
                break;
            }
        }
        if Instant::now() >= deadline {
            self.retire();
            return TaskPoll::Done;
        }
        // Quiescent but still lingering: re-arm fd readiness so the final
        // frames (or the EOF behind them) wake the task, and park on the
        // nearest protocol deadline with the linger as the backstop.
        if let Some((_, watch)) = self.shared.task.read().as_ref() {
            watch.rearm();
        }
        TaskPoll::Timer(timer.map_or(deadline, |t: Instant| t.min(deadline)))
    }
}

/// Reactor teardown can drop a live task without a final poll (shard
/// shutdown while connections are still attached): retire here so queued
/// sends and parked receives resolve `Closed` instead of dangling.
impl Drop for ConnTask {
    fn drop(&mut self) {
        self.retire();
    }
}

impl ReactorTask for ConnTask {
    fn poll(&mut self, _now: Instant) -> TaskPoll {
        if self.finished {
            return TaskPoll::Done;
        }
        let mut timer: Option<Instant> = None;
        for round in 0.. {
            if self.shared.closed.load(Ordering::Acquire) {
                return self.poll_closing();
            }
            if round == MAX_ROUNDS {
                return TaskPoll::Again;
            }
            // Timers are a function of the *current* protocol state, so
            // each round recomputes them from scratch.
            timer = None;
            let mut hungry = false;
            let mut progressed = false;
            // Receive in the first round only: it drains until the
            // transport is empty or its budget is spent, and the latter
            // ends the poll with `Again`. Whatever arrives later is
            // reported anyway — a waker marks the task dirty, a re-armed
            // fd is looked at again — the same contract `Idle` relies on.
            if round == 0 {
                progressed |= self.step_recv(&mut hungry);
            }
            let mut tx = self.shared.tx.lock();
            if !self.shared.closed.load(Ordering::Acquire) {
                progressed |= self.shared.step_tx(&mut tx, &mut timer);
            }
            progressed |= self.shared.step_send(&mut tx, &mut timer);
            drop(tx);
            if hungry {
                return TaskPoll::Again;
            }
            if !progressed {
                break;
            }
        }
        // Quiescent. Re-arm fd readiness — the kernel looks again, so
        // anything that arrived while disarmed is reported at once — and
        // park on the nearest protocol deadline.
        if let Some((_, watch)) = self.shared.task.read().as_ref() {
            watch.rearm();
        }
        match timer {
            Some(at) => TaskPoll::Timer(at),
            None => TaskPoll::Idle,
        }
    }
}

/// Points `refs` at the first [`IO_BATCH`] of `frames` — the slice list a
/// transport's batch calls take, on the stack — and returns how many that
/// is.
pub(crate) fn fill_batch<'a>(
    refs: &mut [&'a [u8]; IO_BATCH],
    frames: impl Iterator<Item = &'a [u8]>,
) -> usize {
    let mut n = 0;
    for (slot, frame) in refs.iter_mut().zip(frames) {
        *slot = frame;
        n += 1;
    }
    n
}

/// Writes what `transport` still owes of frames it counted as sent (SCI:
/// the tail of a frame its socket took only part of), which no later send
/// may come to deliver. Returns whether some is still owed: the caller
/// comes back on [`TX_RETRY`], as for a refused flush. A failure is left to
/// the next send to meet.
pub(crate) fn flush_owed(transport: &dyn Transport) -> bool {
    if !transport.owes_bytes() {
        return false;
    }
    let _ = transport.try_send_batch(&[]);
    transport.owes_bytes()
}

pub(crate) fn min_timer(timer: &mut Option<Instant>, at: Instant) {
    match timer {
        Some(t) if *t <= at => {}
        _ => *timer = Some(at),
    }
}

/// Routes one reassembled message into the connection's delivery queue,
/// stripping the tag envelope of tag-matched traffic. A tagged message
/// too short to carry its envelope is a protocol corruption and is
/// dropped (never delivered as garbage).
fn deliver_message(shared: &ConnShared, buf: PooledBuf, tagged: bool) {
    let view = if tagged {
        if buf.as_slice().len() < TAG_ENVELOPE {
            return;
        }
        let tag = u32::from_be_bytes(buf.as_slice()[..TAG_ENVELOPE].try_into().expect("4 bytes"));
        MsgView::new(buf, TAG_ENVELOPE, Some(tag))
    } else {
        MsgView::new(buf, 0, None)
    };
    shared.delivery.deliver(view);
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// A point-to-point NCS connection (the object behind `NCS_send` /
/// `NCS_recv`).
///
/// Created by [`NcsNode::connect`](crate::NcsNode::connect) or
/// [`NcsNode::accept`](crate::NcsNode::accept). The connection's behaviour
/// — flow control, error control, threading — is fixed by its
/// [`ConnectionConfig`]; afterwards "the underlying operations are
/// transparent to users and they just need to invoke the same high-level
/// abstractions" (paper §3).
#[derive(Debug, Clone)]
pub struct NcsConnection {
    pub(crate) shared: Arc<ConnShared>,
}

impl NcsConnection {
    pub(crate) fn new(shared: Arc<ConnShared>) -> Self {
        NcsConnection { shared }
    }

    /// The local connection id.
    pub fn id(&self) -> u32 {
        self.shared.id
    }

    /// The peer node's name.
    pub fn peer_name(&self) -> &str {
        &self.shared.peer_name
    }

    /// This connection's configuration.
    pub fn config(&self) -> &ConnectionConfig {
        &self.shared.config
    }

    /// The interface family carrying this connection.
    pub fn interface(&self) -> &'static str {
        self.shared.transport.caps().interface
    }

    /// Traffic statistics.
    pub fn stats(&self) -> ConnectionStats {
        self.shared.counters.snapshot()
    }

    /// The connection's message-lifecycle [`FlightRecorder`]. Clones
    /// share the ring; use it to dump or re-enable recording.
    pub fn flight(&self) -> FlightRecorder {
        self.shared.recorder.clone()
    }

    /// Toggles the flight recorder's runtime kill-switch.
    pub fn set_flight_recording(&self, on: bool) {
        self.shared.recorder.set_enabled(on);
    }

    /// Whether the connection is still usable.
    pub fn is_open(&self) -> bool {
        !self.shared.closed.load(Ordering::Acquire)
    }

    fn check_sendable(&self, data: &[u8], tag: Option<u32>) -> Result<(), SendError> {
        if data.is_empty() {
            return Err(SendError::Empty);
        }
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(SendError::Closed);
        }
        let max = self.shared.max_message();
        let envelope = if tag.is_some() { TAG_ENVELOPE } else { 0 };
        if data.len() + envelope > max {
            return Err(SendError::TooLarge {
                len: data.len(),
                max: max - envelope,
            });
        }
        Ok(())
    }

    /// `NCS_send`: hands the message to the connection's plane (Figure 4
    /// step 1) and returns once queued. Reliable configurations deliver (or
    /// record a failure in [`NcsConnection::last_error`]) asynchronously;
    /// to wait for the acknowledgement, wait on the completion
    /// [`Request`] of [`NcsConnection::isend`] instead.
    ///
    /// # Errors
    ///
    /// See [`SendError`].
    pub fn send(&self, data: &[u8]) -> Result<(), SendError> {
        let one_sdu = self.submit(data, None, None, None, true)?;
        self.activate(one_sdu);
        Ok(())
    }

    /// Nonblocking `NCS_send`: queues the message and returns a
    /// [`Request`] that completes when the message is *delivered* (the
    /// error-control acknowledgement) or, on configurations without error
    /// control, when its last frame is *written* to the interface. The
    /// caller computes; the runtime's threads move the data — the paper's
    /// overlap thesis as an API.
    ///
    /// # Errors
    ///
    /// Validation errors ([`SendError::Empty`], [`SendError::TooLarge`],
    /// [`SendError::Closed`], [`SendError::WrongMode`] on direct-mode
    /// connections) surface immediately; everything later resolves through
    /// the request.
    pub fn isend(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        self.isend_inner(data, None)
    }

    /// [`NcsConnection::isend`] on logical channel `tag`: the receiver
    /// matches it with [`NcsConnection::irecv_tagged`] on the same tag.
    /// Tags multiplex independent message streams over one connection —
    /// per-tag FIFO order, no cross-tag interference.
    ///
    /// Tags at or above [`CHANNEL_TAG_BASE`] (top bit set) are the
    /// tag-class reserved for [`Channel`] handles; direct callers should
    /// stay below it or traffic will cross with
    /// [`NcsConnection::channel`] users of the same id.
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::isend`].
    pub fn isend_tagged(&self, tag: u32, data: &[u8]) -> Result<Request<()>, SendError> {
        self.isend_inner(data, Some(tag))
    }

    fn isend_inner(&self, data: &[u8], tag: Option<u32>) -> Result<Request<()>, SendError> {
        let core = RequestCore::new();
        let one_sdu = self.submit(data, tag, Some(Arc::clone(&core)), None, true)?;
        self.activate(one_sdu);
        Ok(Request::new(core))
    }

    /// The one way into the send path: validates, then queues the message
    /// for the pipeline (Figure 4 step 1) with its `completion` and the
    /// hand-off event `accepted` ([`Submission`]). The caller activates the
    /// pipeline ([`NcsConnection::activate`]) with the verdict returned
    /// here: whether the message is one SDU. `wait` says what a full send
    /// queue does to a message on a bounded connection: park the caller,
    /// or be overshot ([`SendQueue::admit`]).
    fn submit(
        &self,
        data: &[u8],
        tag: Option<u32>,
        completion: Option<Arc<RequestCore<()>>>,
        accepted: Option<Arc<Event>>,
        wait: bool,
    ) -> Result<bool, SendError> {
        self.check_sendable(data, tag)?;
        if self.shared.config.direct {
            return Err(SendError::WrongMode("threaded"));
        }
        self.queue(data, tag, completion, accepted, wait)
    }

    /// [`NcsConnection::submit`] past its checks: the queueing itself,
    /// shared with [`NcsConnection::send_direct`].
    fn queue(
        &self,
        data: &[u8],
        tag: Option<u32>,
        completion: Option<Arc<RequestCore<()>>>,
        accepted: Option<Arc<Event>>,
        wait: bool,
    ) -> Result<bool, SendError> {
        self.shared
            .recorder
            .record(EventKind::Isend, tag.unwrap_or(0), 0, data.len());
        // Tag-matched messages carry their tag as a 4-byte envelope at
        // the front of the message body (flagged in every SDU header).
        // The reactor task that runs the peer's receive plane strips the
        // envelope during reassembly and routes the message to the tag's
        // delivery shard — see `deliver_message` and
        // `request::DELIVERY_SHARDS`.
        let envelope = if tag.is_some() { TAG_ENVELOPE } else { 0 };
        let mut body = Vec::with_capacity(envelope + data.len());
        if let Some(t) = tag {
            body.extend_from_slice(&t.to_be_bytes());
        }
        body.extend_from_slice(data);
        let sdus = sdu_count(body.len(), self.shared.config.sdu_size);
        if let Some(queued) = &self.shared.queued {
            queued.admit(sdus as usize, wait, &self.shared.closed)?;
        }
        self.shared.submit_inbox.send(Submission {
            data: body,
            tagged: tag.is_some(),
            completion: completion.clone(),
            accepted: accepted.clone(),
        });
        // Close raced with the queueing? The task may already have drained
        // its queues and retired; resolve the request and the hand-off here
        // so neither can dangle (the first completion wins).
        if self.shared.closed.load(Ordering::Acquire) {
            if let Some(c) = completion {
                c.complete(Err(SendError::Closed));
            }
            if let Some(a) = accepted {
                a.fire();
            }
        }
        Ok(sdus == 1)
    }

    /// Activates the send pipeline for what [`NcsConnection::submit`]
    /// queued: a message of one SDU goes out on this thread when the
    /// pipeline is free, anything longer is the task's.
    fn activate(&self, one_sdu: bool) {
        if one_sdu {
            self.shared.drive_or_wake();
        } else {
            self.shared.wake_task();
        }
    }

    /// `NCS_send` for several messages in one call, without waiting — for
    /// callers on an event loop (a receive sink, a reactor task), which
    /// must not. The messages queue back to back, so the pipeline packs
    /// the small ones into trains and the Send plane coalesces the frames
    /// into [`ncs_transport::Connection::try_send_batch`] transmissions.
    /// Validates the whole batch, then admits whole messages in order
    /// while there is room and returns how many: `Ok(n)` with
    /// `n < msgs.len()` is back-pressure, not an error — offer the rest
    /// again later. The contract of
    /// [`ncs_transport::Connection::try_send_batch`], one layer up.
    ///
    /// Without flow and error control a message is admitted whenever
    /// fewer than 128 SDUs are queued ahead of the interface, and then
    /// queued whole, so the queue overshoots by at most one message and no
    /// message is too long to ever fit. With flow or error control
    /// configured, which pace the sender themselves, the submission queue
    /// is unbounded and everything is admitted.
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::send`]; validation errors are reported before
    /// anything is queued.
    pub fn try_send_batch(&self, msgs: &[&[u8]]) -> Result<usize, SendError> {
        for m in msgs {
            self.check_sendable(m, None)?;
        }
        let mut one_sdu = true;
        let mut admitted = 0;
        for m in msgs {
            if self.shared.queued.as_ref().map_or(0, SendQueue::len) >= SEND_QUEUE_DEPTH {
                break;
            }
            one_sdu &= self.submit(m, None, None, None, false)?;
            admitted += 1;
        }
        // (With nothing admitted this is a nudge to whoever drains a full
        // queue.)
        self.activate(one_sdu);
        Ok(admitted)
    }

    /// Nonblocking `NCS_recv`: returns a [`Request`] that completes with
    /// the next untagged message, as a pooled zero-copy [`MsgView`].
    ///
    /// The request resolves immediately if a message is already waiting,
    /// and *fails fast* — [`SendError::Closed`] within the close itself,
    /// not a poll tick later — if the connection closes or the link dies
    /// while it is parked. Dropping the request un-parks it; a message it
    /// had already claimed is requeued for the next receiver.
    pub fn irecv(&self) -> Request<MsgView> {
        self.irecv_inner(None)
    }

    /// [`NcsConnection::irecv`] on logical channel `tag`: completes only
    /// with messages sent via [`NcsConnection::isend_tagged`] on the same
    /// tag. Per-tag FIFO order is preserved; other tags and untagged
    /// traffic are untouched.
    pub fn irecv_tagged(&self, tag: u32) -> Request<MsgView> {
        self.irecv_inner(Some(tag))
    }

    fn irecv_inner(&self, tag: Option<u32>) -> Request<MsgView> {
        let core = RequestCore::new();
        self.shared.delivery.register(tag, &core);
        let shared = Arc::clone(&self.shared);
        Request::with_cancel(
            core,
            Box::new(move |core| shared.delivery.cancel(tag, core)),
        )
    }

    /// `NCS_recv`: blocks until the next reassembled message arrives.
    /// Thin wrapper over [`NcsConnection::irecv`]; prefer the request form
    /// (and its [`MsgView`]) on hot paths — this one detaches the buffer
    /// from the pool to hand out an owning `Vec`.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] once the connection is closed and drained.
    pub fn recv(&self) -> Result<Vec<u8>, SendError> {
        Ok(self.recv_view_deadline(None)?.into_vec())
    }

    /// [`NcsConnection::recv`] with a deadline.
    ///
    /// # Errors
    ///
    /// [`SendError::Timeout`] when nothing arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, SendError> {
        Ok(self
            .recv_view_deadline(Instant::now().checked_add(timeout))?
            .into_vec())
    }

    /// Blocking receive of the next untagged message as a zero-copy
    /// [`MsgView`] (the buffer-recycling counterpart of
    /// [`NcsConnection::recv_timeout`]). With [`Duration::ZERO`] it is the
    /// non-blocking receive: [`SendError::Timeout`] means nothing has
    /// arrived yet.
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::recv_timeout`], and the connection's terminal
    /// error once it is closed (or its link died) and drained.
    pub fn recv_view(&self, timeout: Duration) -> Result<MsgView, SendError> {
        self.recv_view_deadline(Instant::now().checked_add(timeout))
    }

    fn recv_view_deadline(&self, deadline: Option<Instant>) -> Result<MsgView, SendError> {
        // Fast path: a ready message needs no request machinery.
        if let Some(m) = self.shared.delivery.try_take(None)? {
            return Ok(m);
        }
        let req = self.irecv();
        match deadline {
            None => req.wait(),
            Some(d) => req.wait_timeout(d.saturating_duration_since(Instant::now())),
        }
        // A timed-out request is dropped here, which cancels it: no
        // message can leak into an abandoned waiter.
    }

    /// Hands this connection's untagged receive stream to `sink`: every
    /// untagged message — including any already queued — is pushed into
    /// the callback as it is reassembled, and the connection's terminal
    /// error is pushed exactly once when the link dies or closes. `None`
    /// uninstalls.
    ///
    /// This is the threadless pump: an engine that previously parked a
    /// thread per connection on [`NcsConnection::recv_timeout`] (the
    /// collectives engine's link pumps) registers a sink instead and is
    /// fed directly from the reactor task. The sink runs on the reactor's
    /// event loops — it must not block. While a sink is installed the
    /// untagged receive primitives (`recv*`, `irecv`) see no
    /// traffic; tag-matched channels are unaffected.
    pub fn set_receive_sink(&self, sink: Option<crate::request::ReceiveSink>) {
        self.shared.delivery.set_sink(sink);
    }

    /// The sticky error recorded by the error-control plane, if any
    /// (asynchronous [`NcsConnection::send`] failures surface here).
    pub fn last_error(&self) -> Option<SendError> {
        self.shared.last_error.lock().clone()
    }

    /// Closes the connection, notifying the peer over the control
    /// connection. Idempotent.
    pub fn close(&self) {
        self.shared.initiate_close();
    }

    // -- §4.2 direct (thread-bypass) mode ---------------------------------

    /// The thread-bypass `NCS_send` (paper §4.2): flow control, error
    /// control and transmission run as procedures on the calling thread.
    /// Returns once the message has resolved and every byte of it is on
    /// the wire: a direct connection has no task to write it later.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] unless the connection was configured with
    /// [`ConnectionConfig::direct`]; otherwise as the completion of
    /// [`NcsConnection::isend`] (notably [`SendError::DeliveryFailed`]
    /// when error control exhausts its retries).
    pub fn send_direct(&self, data: &[u8]) -> Result<(), SendError> {
        self.check_sendable(data, None)?;
        let shared = &self.shared;
        if !shared.config.direct {
            return Err(SendError::WrongMode("direct"));
        }
        let done = RequestCore::new();
        self.queue(data, None, Some(Arc::clone(&done)), None, false)?;
        // The task's steps, on this thread, which holds the send half until
        // the message resolves and — no task flushes for it later — its
        // frames and any tail the interface still owes are on the wire.
        let mut tx = shared.tx.lock();
        let mut result = None;
        loop {
            let mut timer = None;
            shared.step_tx(&mut tx, &mut timer);
            shared.step_send(&mut tx, &mut timer);
            result = result.or_else(|| done.take());
            match result {
                Some(Err(e)) => return Err(e),
                Some(Ok(())) if tx.pending.is_empty() && !tx.blocked => return Ok(()),
                _ => {}
            }
            if shared.closed.load(Ordering::Acquire) {
                return Err(SendError::Closed);
            }
            // Wait for the peer's next word, but no longer than the
            // pipeline's own deadline; a close ends the wait too.
            let wait = timer.map_or(Duration::MAX, |at| at.duration_since(Instant::now()));
            if let Ok(event) = shared.ctrl_inbox.recv_timeout(wait) {
                tx.plane.on_event(event, Instant::now());
            }
        }
    }

    /// The thread-bypass `NCS_recv`: reads the data connection and runs
    /// each frame through the connection's receive half (reassembly,
    /// acknowledgements, credit grants) on the calling thread, until the
    /// next untagged message is delivered.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] on threaded connections;
    /// [`SendError::Timeout`] if no message completed in time.
    pub fn recv_direct(&self, timeout: Duration) -> Result<Vec<u8>, SendError> {
        let shared = &self.shared;
        let mut slot = shared.direct_rx.lock();
        let rx = slot.as_mut().ok_or(SendError::WrongMode("direct"))?;
        let deadline = Instant::now().checked_add(timeout);
        loop {
            // A train delivers several messages at once: the rest wait here.
            if let Some(message) = shared.delivery.try_take(None)? {
                return Ok(message.into_vec());
            }
            let wait = crate::request::time_left(deadline);
            if wait.is_zero() {
                return Err(SendError::Timeout);
            }
            let frame = shared.transport.recv_timeout(wait)?;
            shared.receive(rx, &frame);
            shared.drained(rx);
        }
    }

    /// `NCS_send` with hand-off semantics: queues the message to the Send
    /// Thread and returns as soon as the pipeline *takes* it, with the
    /// [`Request`] that completes when its last frame is written
    /// ([`NcsConnection::isend`]'s completion without error control).
    /// Unlike [`NcsConnection::send`], it hands over
    /// even a message of one SDU: under the kernel-level package a
    /// transmit that then blocks (full kernel buffer) overlaps with the
    /// caller's computation; under the user-level package the blocking
    /// write stalls the whole process — the exact §4.1 experiment
    /// (Figures 9/10).
    ///
    /// Only available on bypass-configured threaded connections.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] when flow or error control is configured or
    /// the connection is in direct mode, [`SendError::Timeout`] when the
    /// pipeline has not taken the message within 30 s, otherwise as
    /// [`NcsConnection::send`].
    pub fn send_handoff(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        if self.shared.config.direct || self.shared.config.needs_control_threads() {
            return Err(SendError::WrongMode("threaded bypass (no FC/EC)"));
        }
        let core = RequestCore::new();
        let accepted = Arc::new(Event::new());
        self.submit(
            data,
            None,
            Some(Arc::clone(&core)),
            Some(Arc::clone(&accepted)),
            true,
        )?;
        // The task's even at one SDU, which `send` would run inline: the
        // hand-off is what this call exists to make.
        self.shared.wake_task();
        if !accepted.wait_timeout(Duration::from_secs(30)) {
            return Err(SendError::Timeout);
        }
        Ok(Request::new(core))
    }
}

/// Routes a control-plane event into this connection (called by the
/// node's control dispatcher, on the event loop of the peer's control
/// task): queued for whoever drives the connection's [`TxPlane`], and —
/// when that is a reactor task — the task is woken.
pub(crate) fn dispatch_ctrl(shared: &ConnShared, msg: CtrlMsg) {
    let event = match msg {
        CtrlMsg::Ack {
            session,
            info,
            edge,
            ..
        } => CtrlEvent::Ack {
            session,
            info,
            edge,
        },
        CtrlMsg::Credit { credits, .. } => CtrlEvent::Credit(credits),
        _ => return,
    };
    shared.ctrl_inbox.send(event);
    shared.wake_task();
}

// ---------------------------------------------------------------------------
// Channels — per-thread logical endpoints over one connection
// ---------------------------------------------------------------------------

/// First tag of the tag-class reserved for [`Channel`] handles.
///
/// A channel with id `i` owns the tag `CHANNEL_TAG_BASE | i`, so the
/// upper half of the tag space (`0x8000_0000..=0xFFFF_FFFF`, top bit
/// set) belongs to channels and can never collide with application tags
/// below it. Within the reserved class, ids map onto the delivery
/// queue's shards by `id % DELIVERY_SHARDS` — ids `0..8` land on eight
/// distinct locks (see [`crate::request::DELIVERY_SHARDS`]).
pub const CHANNEL_TAG_BASE: u32 = 0x8000_0000;

/// A logical per-thread endpoint over one connection — the NCS analogue
/// of a communicator dup: same wire, independent matching space.
///
/// Created by [`NcsConnection::channel`]. A channel's sends complete
/// only against receives on the *same* channel id at the peer; per-channel
/// FIFO order holds and traffic on other channels (or the untagged
/// stream) is never touched. Because each channel id maps to its own
/// delivery-queue shard, N threads each driving their own channel never
/// contend on a shared receive lock, and a receiver blocked on one
/// channel never stalls another (`tests/channels.rs`).
///
/// A `Channel` is a value handle (cheaply cloneable, no registration or
/// teardown): dropping it releases nothing and two handles with the same
/// id are the same channel.
///
/// # Example
///
/// ```
/// use ncs_core::{ConnectionConfig, NcsNode};
/// use ncs_core::link::HpiLinkPair;
///
/// let alice = NcsNode::builder("alice").build();
/// let bob = NcsNode::builder("bob").build();
/// let (la, lb) = HpiLinkPair::create();
/// alice.attach_peer("bob", la);
/// bob.attach_peer("alice", lb);
/// let conn_a = alice.connect("bob", ConnectionConfig::reliable()).unwrap();
/// let conn_b = bob.accept_default().unwrap();
///
/// // One channel per application thread; id selects the matching space.
/// let ch_a = conn_a.channel(3);
/// let ch_b = conn_b.channel(3);
/// let want = ch_b.irecv();
/// ch_a.isend(b"on channel 3").unwrap().wait().unwrap();
/// assert_eq!(&*want.wait().unwrap(), b"on channel 3");
/// # alice.shutdown(); bob.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    conn: NcsConnection,
    tag: u32,
}

impl Channel {
    /// The channel id this handle was created with.
    pub fn id(&self) -> u16 {
        (self.tag & 0xFFFF) as u16
    }

    /// The reserved tag this channel rides on
    /// (`CHANNEL_TAG_BASE | id`).
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// The connection carrying this channel.
    pub fn connection(&self) -> &NcsConnection {
        &self.conn
    }

    /// Nonblocking send on this channel: completes when the message is
    /// delivered (reliable configurations) or transmitted (§3.1 bypass).
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::isend`].
    pub fn isend(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        self.conn.isend_tagged(self.tag, data)
    }

    /// Nonblocking receive on this channel: completes with the next
    /// message a peer sent on the same channel id.
    pub fn irecv(&self) -> Request<MsgView> {
        self.conn.irecv_tagged(self.tag)
    }

    /// Blocking send: [`Channel::isend`] + wait for its completion.
    ///
    /// # Errors
    ///
    /// As [`Channel::isend`], then the error its completion resolves to.
    pub fn send(&self, data: &[u8]) -> Result<(), SendError> {
        self.isend(data)?.wait()
    }

    /// Blocking receive of the next message on this channel, as an
    /// owning `Vec`.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] once the connection is closed and the
    /// channel drained.
    pub fn recv(&self) -> Result<Vec<u8>, SendError> {
        Ok(self.irecv().wait()?.into_vec())
    }

    /// Blocking zero-copy receive with a deadline. On timeout the
    /// receive is cancelled — a message it had already claimed is
    /// requeued for the channel's next receiver.
    ///
    /// # Errors
    ///
    /// [`SendError::Timeout`] when nothing arrived in time; otherwise as
    /// [`Channel::recv`].
    pub fn recv_view(&self, timeout: Duration) -> Result<MsgView, SendError> {
        // Fast path: something is already queued on this channel's shard.
        if let Some(msg) = self.conn.shared.delivery.try_take(Some(self.tag))? {
            return Ok(msg);
        }
        self.irecv().wait_timeout(timeout)
    }
}

impl NcsConnection {
    /// Opens logical channel `id` over this connection (a value handle —
    /// nothing is registered, and every handle with the same id is the
    /// same channel).
    ///
    /// Channels give each application thread an independent matching
    /// space on a shared connection: sends on channel `i` pair with
    /// receives on channel `i`, in FIFO order, with no interference from
    /// other channels or the untagged stream. They ride the reserved
    /// tag-class at [`CHANNEL_TAG_BASE`]; ids `0..8` additionally map to
    /// distinct delivery-queue shards, so that many threads receiving
    /// concurrently never share a lock.
    pub fn channel(&self, id: u16) -> Channel {
        Channel {
            conn: self.clone(),
            tag: CHANNEL_TAG_BASE | u32::from(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::HpiLinkPair;
    use crate::NcsNode;

    /// A §3.1 bypass connection over a ring that holds everything these
    /// tests queue (a full HPI ring drops frames, as a NIC's does).
    fn bypass_pair() -> (NcsNode, NcsNode, NcsConnection, NcsConnection) {
        let a = NcsNode::builder("alice").build();
        let b = NcsNode::builder("bob").build();
        let (la, lb) = HpiLinkPair::with_capacity(4 * SEND_QUEUE_DEPTH);
        a.attach_peer("bob", la);
        b.attach_peer("alice", lb);
        let ca = a
            .connect("bob", ConnectionConfig::unreliable())
            .expect("connect");
        let cb = b.accept_default().expect("accept");
        (a, b, ca, cb)
    }

    /// Back-pressure on a bypass connection is `Ok(n)` with `n` short of
    /// the batch, never an error and never a wait; what was admitted
    /// arrives in order once the queue drains, and the refused suffix is
    /// admitted when offered again.
    #[test]
    fn try_send_batch_reports_a_refused_suffix_as_a_count() {
        let (a, b, ca, cb) = bypass_pair();
        let numbered: Vec<[u8; 2]> = (0..SEND_QUEUE_DEPTH as u16 + 10)
            .map(u16::to_be_bytes)
            .collect();
        let msgs: Vec<&[u8]> = numbered.iter().map(|m| &m[..]).collect();
        // Holding the send half keeps everybody from draining the queue.
        let gate = ca.shared.tx.lock();
        assert_eq!(ca.try_send_batch(&msgs), Ok(SEND_QUEUE_DEPTH));
        assert_eq!(ca.try_send_batch(&msgs[SEND_QUEUE_DEPTH..]), Ok(0));
        drop(gate);
        for want in &msgs[..SEND_QUEUE_DEPTH] {
            assert_eq!(
                &cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
                want
            );
        }
        assert_eq!(ca.try_send_batch(&msgs[SEND_QUEUE_DEPTH..]), Ok(10));
        for want in &msgs[SEND_QUEUE_DEPTH..] {
            assert_eq!(
                &cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
                want
            );
        }
        // Validation comes before admission, for the whole batch.
        assert_eq!(ca.try_send_batch(&[&[1], &[]]), Err(SendError::Empty));
        assert_eq!(ca.stats().messages_sent, msgs.len() as u64);
        a.shutdown();
        b.shutdown();
    }

    /// A message is admitted whole whenever the queue is below its bound,
    /// however little room is left: here the longest message the
    /// configuration takes (64 SDUs — `max_message` keeps any one message
    /// under the bound of 128) goes in with one slot free, the queue
    /// overshoots by the rest of it, and the message arrives intact. Then
    /// the queue reads full to the blocking path until it is back under
    /// its bound.
    #[test]
    fn try_send_batch_admits_a_message_longer_than_the_room_left() {
        let (a, b, ca, cb) = bypass_pair();
        let long: Vec<u8> = (0..ca.shared.max_message())
            .map(|i| (i % 251) as u8)
            .collect();
        let sdus = sdu_count(long.len(), ca.shared.config.sdu_size) as usize;
        let filler: Vec<&[u8]> = vec![&[9u8; 3]; SEND_QUEUE_DEPTH - 1];
        let gate = ca.shared.tx.lock();
        assert_eq!(ca.try_send_batch(&filler), Ok(filler.len()));
        assert_eq!(ca.try_send_batch(&[&long, &[1]]), Ok(1));
        let queued = ca.shared.queued.as_ref().expect("a bounded send queue");
        assert_eq!(queued.len(), SEND_QUEUE_DEPTH - 1 + sdus);
        drop(gate);
        for _ in &filler {
            assert_eq!(
                cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
                [9; 3]
            );
        }
        assert_eq!(cb.recv_timeout(Duration::from_secs(5)).expect("recv"), long);
        // Drained: the debt of the overshoot is settled, the bound is back.
        assert_eq!(ca.try_send_batch(&filler), Ok(filler.len()));
        for _ in &filler {
            assert_eq!(
                cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
                [9; 3]
            );
        }
        a.shutdown();
        b.shutdown();
    }

    /// A blocking send on a full queue parks until the Send plane has
    /// written enough to bring the queue below its bound, and one parked
    /// when the connection closes fails at once instead of hanging.
    #[test]
    fn send_parks_on_a_full_queue_until_it_drains_or_closes() {
        let (a, b, ca, cb) = bypass_pair();
        let filler: Vec<&[u8]> = vec![&[9u8; 3]; SEND_QUEUE_DEPTH];
        let park = |conn: &NcsConnection| {
            let conn = conn.clone();
            let sending = std::thread::spawn(move || conn.send(b"behind"));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!sending.is_finished(), "a send went in past a full queue");
            sending
        };
        let gate = ca.shared.tx.lock();
        assert_eq!(ca.try_send_batch(&filler), Ok(filler.len()));
        let sending = park(&ca);
        drop(gate);
        assert_eq!(sending.join().expect("sender"), Ok(()));
        for _ in &filler {
            assert_eq!(
                cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
                [9; 3]
            );
        }
        assert_eq!(
            cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
            b"behind"
        );

        // The queue stays full: the close alone wakes the sender, at once.
        let gate = ca.shared.tx.lock();
        assert_eq!(ca.try_send_batch(&filler), Ok(filler.len()));
        let sending = park(&ca);
        let closed = Instant::now();
        ca.close();
        assert_eq!(sending.join().expect("sender"), Err(SendError::Closed));
        let took = closed.elapsed();
        assert!(
            took < Duration::from_millis(20),
            "woken {took:?} after the close"
        );
        drop(gate);
        a.shutdown();
        b.shutdown();
    }

    /// Small messages queued on a connection without flow and error control
    /// travel as trains, as behind a reliable session in flight: held back
    /// by the send half's lock, sixteen of them leave in fewer frames, and
    /// the receiver unpacks every one, in order.
    #[test]
    fn small_messages_queued_without_fc_or_ec_travel_as_trains() {
        let (a, b, ca, cb) = bypass_pair();
        let numbered: Vec<[u8; 2]> = (0..16u16).map(u16::to_be_bytes).collect();
        let msgs: Vec<&[u8]> = numbered.iter().map(|m| &m[..]).collect();
        let gate = ca.shared.tx.lock();
        assert_eq!(ca.try_send_batch(&msgs), Ok(msgs.len()));
        drop(gate);
        for want in &msgs {
            assert_eq!(
                &cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
                want
            );
        }
        let (sa, sb) = (ca.stats(), cb.stats());
        assert_eq!((sa.messages_sent, sb.messages_received), (16, 16));
        assert!(sa.packets_sent < 16, "no trains: {sa}");
        assert_eq!(sb.frames_rejected, 0, "{sb}");
        a.shutdown();
        b.shutdown();
    }

    /// Reliable configurations queue on the pipeline's unbounded
    /// submission queue: everything is admitted. A closed connection
    /// admits nothing, as an error.
    #[test]
    fn try_send_batch_admits_everything_with_fc_ec_and_nothing_once_closed() {
        let a = NcsNode::builder("alice").build();
        let b = NcsNode::builder("bob").build();
        let (la, lb) = HpiLinkPair::create();
        a.attach_peer("bob", la);
        b.attach_peer("alice", lb);
        let ca = a
            .connect("bob", ConnectionConfig::reliable())
            .expect("connect");
        let cb = b.accept_default().expect("accept");
        let msgs: Vec<&[u8]> = vec![b"reliable"; 4 * SEND_QUEUE_DEPTH];
        assert_eq!(ca.try_send_batch(&msgs), Ok(msgs.len()));
        for _ in &msgs {
            assert_eq!(
                cb.recv_timeout(Duration::from_secs(5)).expect("recv"),
                b"reliable"
            );
        }
        ca.close();
        assert_eq!(ca.try_send_batch(&msgs[..1]), Err(SendError::Closed));
        let (c, d, cc, _cd) = bypass_pair();
        cc.close();
        assert_eq!(cc.try_send_batch(&msgs[..1]), Err(SendError::Closed));
        for node in [a, b, c, d] {
            node.shutdown();
        }
    }

    /// A reliable one-SDU message costs its receiver one feedback frame:
    /// the acknowledgement, with the credit edge in it (the edge used to go
    /// ahead of it in a frame of its own: two per message). A
    /// retransmission — a stall of the test past the timeout — is answered
    /// with one more.
    #[test]
    fn a_reliable_round_trip_sends_one_feedback_frame_each_way() {
        const ROUND_TRIPS: u64 = 200;
        let a = NcsNode::builder("alice").build();
        let b = NcsNode::builder("bob").build();
        let (la, lb) = HpiLinkPair::create();
        a.attach_peer("bob", la);
        b.attach_peer("alice", lb);
        let ca = a
            .connect("bob", ConnectionConfig::reliable())
            .expect("connect");
        let cb = b.accept_default().expect("accept");
        let timeout = Duration::from_secs(5);
        for _ in 0..ROUND_TRIPS {
            ca.isend(b"ping").expect("isend").wait().expect("delivered");
            assert_eq!(cb.recv_timeout(timeout).expect("recv"), b"ping");
            cb.isend(b"pong").expect("isend").wait().expect("delivered");
            assert_eq!(ca.recv_timeout(timeout).expect("recv"), b"pong");
        }
        let (sa, sb) = (ca.stats(), cb.stats());
        assert_eq!(sa.feedback_sent, ROUND_TRIPS + sb.retransmissions, "{sa}");
        assert_eq!(sb.feedback_sent, ROUND_TRIPS + sa.retransmissions, "{sb}");
        assert_eq!(
            (sa.acks_sent, sb.acks_sent),
            (sa.feedback_sent, sb.feedback_sent)
        );
        a.shutdown();
        b.shutdown();
    }

    /// An SCI loopback pair whose first end's socket send buffer is 4 KiB,
    /// so one large frame leaves a tail the socket has not taken.
    #[cfg(target_os = "linux")]
    fn sci_pair_with_a_small_send_buffer() -> (
        ncs_transport::sci::SciConnection,
        ncs_transport::sci::SciConnection,
    ) {
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        let (ours, theirs) = ncs_transport::sci::loopback_pair().expect("loopback pair");
        let ncs_transport::Readiness::Fd(fd) = ours.readiness() else {
            panic!("SCI has a socket");
        };
        // SAFETY: the option value is one valid `int`, as its length says.
        assert_eq!(
            unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &4096, 4) },
            0
        );
        (ours, theirs)
    }

    /// A frame the socket takes only part of counts as sent, and its tail
    /// waits in the transport for the next write. With nothing more to
    /// send the Send plane makes that write itself, on the transmit-retry
    /// timer, until the peer has drained enough: the peer here reads late,
    /// and the frame arrives whole with no later send.
    #[cfg(target_os = "linux")]
    #[test]
    fn the_tail_of_a_frame_the_socket_took_part_of_arrives_without_a_later_send() {
        let (ours, theirs) = sci_pair_with_a_small_send_buffer();
        let reactor = Reactor::new(Arc::new(ncs_threads::KernelPackage::new()), 1);
        // One frame far larger than the socket takes at once.
        let config = ConnectionConfig {
            sdu_size: 1 << 20,
            ..ConnectionConfig::unreliable()
        };
        let shared = ConnShared::new(
            0,
            "peer".to_owned(),
            config,
            Arc::new(ours),
            BufPool::new(),
            Arc::default(),
            None,
        );
        attach_connection(&reactor, &shared);
        let conn = NcsConnection::new(Arc::clone(&shared));
        let message: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        conn.send(&message).expect("send");
        assert!(shared.transport.owes_bytes(), "the socket took all of it");
        std::thread::sleep(Duration::from_millis(100));
        let frame = theirs
            .recv_timeout(Duration::from_secs(5))
            .expect("the whole frame");
        assert_eq!(
            DataPacket::peek(&frame).expect("a data frame").payload,
            message
        );
        conn.close();
        reactor.shutdown();
    }

    /// A direct connection has no task to flush for it: `send_direct`
    /// returns only once the whole message is on the wire, tail included,
    /// even without error control, whose message resolves as soon as the
    /// socket has taken part of its last frame. The peer here reads late,
    /// and the message arrives whole with no later `send_direct`.
    #[cfg(target_os = "linux")]
    #[test]
    fn send_direct_returns_once_a_message_larger_than_the_socket_buffer_is_on_the_wire() {
        let (ours, theirs) = sci_pair_with_a_small_send_buffer();
        let config = ConnectionConfig {
            sdu_size: 1 << 16,
            ..ConnectionConfig::direct()
        };
        let end = |transport: ncs_transport::sci::SciConnection| {
            NcsConnection::new(ConnShared::new(
                0,
                "peer".to_owned(),
                config.clone(),
                Arc::new(transport),
                BufPool::new(),
                Arc::default(),
                None,
            ))
        };
        let (sender, receiver) = (end(ours), end(theirs));
        let message: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        let sending = {
            let message = message.clone();
            std::thread::spawn(move || {
                let result = sender.send_direct(&message);
                let owed = sender.shared.transport.owes_bytes();
                (result, owed, sender)
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            receiver
                .recv_direct(Duration::from_secs(5))
                .expect("the whole message"),
            message
        );
        let (result, owed, sender) = sending.join().expect("sender");
        assert_eq!(result, Ok(()));
        assert!(!owed, "send_direct returned with bytes still owed");
        sender.close();
        receiver.close();
    }

    /// A train — small messages queued behind a session in flight, framed
    /// into one SDU — reaches a direct receiver as it reaches a threaded
    /// one: `recv_direct` runs it through the same receive half, hands
    /// back its first message and keeps the rest for the next calls.
    #[test]
    fn a_train_on_a_direct_connection_delivers_every_message() {
        let a = NcsNode::builder("alice").build();
        let b = NcsNode::builder("bob").build();
        let (la, lb) = HpiLinkPair::create();
        a.attach_peer("bob", la);
        b.attach_peer("alice", lb);
        let ca = a
            .connect("bob", ConnectionConfig::direct())
            .expect("connect");
        let cb = b.accept_default().expect("accept");

        // A train as a threaded sender would frame it, put on the wire by
        // hand.
        let mut tx = ca.shared.tx.lock();
        let sender = &mut tx.plane;
        for data in [b"one".to_vec(), b"two".to_vec()] {
            sender.submit(Submission {
                data,
                tagged: false,
                completion: None,
                accepted: None,
            });
        }
        let mut trains = 0;
        sender.poll(Instant::now(), |sdu| {
            assert!(sdu.packed);
            let frame = ca.shared.encode_sdu(&sdu);
            ca.shared.transport.send(frame.as_slice()).expect("inject");
            trains += 1;
        });
        assert_eq!(trains, 1);
        drop(tx);

        ca.send_direct(b"real").expect("send_direct");
        for want in [&b"one"[..], b"two", b"real"] {
            assert_eq!(cb.recv_direct(Duration::from_secs(5)).expect("recv"), want);
        }
        let stats = cb.stats();
        assert_eq!((stats.frames_rejected, stats.messages_received), (0, 3));
        a.shutdown();
        b.shutdown();
    }
}
