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
//!    user buffer and sends the acknowledgement bitmap back — with the
//!    credit edge in the same frame, where the figure has the FC plane
//!    send a grant of its own.
//!
//! A connection is one duplex channel. Each direction carries its side's
//! data and, as control frames ([`CtrlMsg`]), its feedback about the other
//! side's data, the acceptor's `AcceptConn` first and the close last; the
//! receive half tells them apart by their tag byte. Figure 1 puts the
//! control messages on a control connection per peer, served by Control
//! Send and Control Receive threads; here feedback goes from the receive
//! half that reads it straight to the send half it is for, in the same
//! run of the connection's task.
//!
//! Steps 1-3 and 5-6 — everything that is flow or error control — are
//! the two sans-I/O state machines of [`crate::plane`]:
//! [`TxPlane`] and [`RxPlane`]. This module is what moves bytes and time
//! around them: a receive half ([`ConnShared::receive`]) and a send half
//! ([`TxSide`]), each with one set of steps. A connection's steps are one
//! task, run by its shard or by the thread that waits on it:
//!
//! * **The reactor task** ([`ConnTask`]). Where the paper runs each plane
//!   as a dedicated thread per connection, one resumable task registered
//!   with the node's [`Reactor`](crate::Reactor) reads frames off the
//!   transport into the `RxPlane`, feeds submissions and control events
//!   to the `TxPlane`, and moves the SDUs it releases onto the wire. The
//!   paper's mailbox "activations" become task wakeups: a frame arriving
//!   on the transport, a control-plane acknowledgement, or a submission
//!   the submitter could not run itself, schedules the task onto one of
//!   the reactor's O(cores) event loops. Protocol waits (ack timeouts,
//!   credit pacing, starvation probes) park on reactor timers instead of
//!   blocking a thread, so a node holds thousands of connections with a
//!   fixed-size thread pool. The only queue left that crosses threads is
//!   the submissions'. Feedback — an acknowledgement with the credit edge
//!   in it, or the edge alone — the receive half queues on the send half,
//!   ahead of its data, and the run that read what it answers writes it.
//! * **The thread that waits on it** (§4.2's thread bypass, on the default
//!   path: [`ConnShared::drive`]). A thread blocked on a request the
//!   connection issued — `recv`, `recv_timeout`, `recv_view`, the `wait`
//!   of a receive or of a send — claims the task while it is idle and
//!   runs it itself, parking where the shard would: on the socket, or on
//!   the bell the transport's waker rings. Every wake of the task reaches
//!   it, none the shard, until it lets go; then the shard hears of the
//!   socket again, and gets the task back at once if it was woken
//!   meanwhile. A frame its receiver waits for, and the feedback or the
//!   deadline its sender waits for, so cross no thread.
//!
//! The receive half is the task's runner's alone, in [`ConnShared::rx`].
//! The send half — the `TxPlane`, the Send plane's frame queue — sits in
//! [`ConnShared::tx`] behind one lock and is stepped by whoever holds it.
//! `NCS_send` always queues first, then activates: a message of several
//! SDUs wakes the task and the caller goes back to computing while the
//! task segments, copies and transmits (§4.1's overlap); a message of
//! one SDU is run through the pipeline by its own submitter when the lock
//! is free ([`ConnShared::drive_or_wake`]), because the hand-off costs
//! more than the work. The task is then woken only for what the inline
//! step left that needs it.
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
use ncs_threads::sync::{Event, Mailbox, NcsMutex, Semaphore, POLLIN, POLLOUT};
use ncs_transport::{Connection as Transport, TransportError, Waker};
use parking_lot::{Mutex, RwLock};

use crate::config::{ConnectionConfig, ErrorControlAlg};
use crate::packet::{CtrlMsg, DataHeader, DataPacket, FrameKind};
use crate::plane::{
    plane_config, sdu_count, Body, CtrlEvent, PlaneObs, RxPlane, Sdu, Submission, TxPlane,
};
use crate::pool::{BufPool, PooledBuf};
use crate::reactor::{Reactor, ReactorTask, TaskHandle, TaskKind, TaskPoll, Watch};
use crate::request::{
    self, DeliveryQueue, MsgBody, MsgView, Request, RequestCore, FREE_RECEIVES, FREE_SENDS,
};
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
/// and who waits until it is below [`SEND_QUEUE_DEPTH`]: senders parked
/// in it, and a [`NcsConnection::try_send_batch`] caller it cut short.
pub(crate) struct SendQueue {
    sdus: AtomicUsize,
    /// Senders parked in [`SendQueue::admit`], and the permits that wake
    /// them.
    parked: AtomicUsize,
    room: Semaphore,
    /// Set by a caller [`SendQueue::has_room`] turned away, cleared by the
    /// release that takes the queue below its bound, which then runs
    /// `on_room` ([`NcsConnection::set_room_waker`]).
    wanted: AtomicBool,
    on_room: Mutex<Option<Waker>>,
}

impl SendQueue {
    fn new() -> Self {
        SendQueue {
            sdus: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            room: Semaphore::new(0),
            wanted: AtomicBool::new(false),
            on_room: Mutex::new(None),
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

    /// Whether a message may go in without waiting. When it may not, the
    /// caller is announced for the release that makes room, and the queue
    /// looked at once more: the protocol of [`SendQueue::admit`]'s parked
    /// senders, with a call of `on_room` for the semaphore.
    fn has_room(&self) -> bool {
        if self.len() < SEND_QUEUE_DEPTH {
            return true;
        }
        self.wanted.store(true, Ordering::SeqCst);
        self.len() < SEND_QUEUE_DEPTH
    }

    /// Counts `sdus` SDUs, written or gone, out, and wakes whoever waits
    /// once that takes the queue below its bound.
    fn release(&self, sdus: usize) {
        if sdus > 0 && self.sdus.fetch_sub(sdus, Ordering::SeqCst) - sdus < SEND_QUEUE_DEPTH {
            self.wake();
        }
    }

    /// Wakes every parked sender to look again, and calls the caller
    /// [`SendQueue::has_room`] turned away (one atomic load when there is
    /// none): on room, and on the connection's close.
    fn wake(&self) {
        self.room.release_n(self.parked.load(Ordering::SeqCst));
        if self.wanted.load(Ordering::SeqCst) && self.wanted.swap(false, Ordering::SeqCst) {
            let on_room = self.on_room.lock().clone();
            if let Some(wake) = on_room {
                wake();
            }
        }
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
    /// The operation requires a different connection configuration
    /// ([`NcsConnection::send_handoff`] on one with flow or error
    /// control).
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
/// driven by whoever holds it: the connection's task (on its shard, or on
/// the thread that claimed it), or a submitter that found the lock free
/// ([`ConnShared::drive_or_wake`]).
pub(crate) struct TxSide {
    /// Flow and error control, sender half (Figures 6-8, steps 1-3).
    plane: TxPlane,
    /// The Send plane (Figure 4 step 4): frames waiting for the interface.
    /// After a step, frames still here were refused.
    pending: VecDeque<SendJob>,
    /// Control frames for the peer — feedback, an `AcceptConn` — which
    /// leave ahead of `pending`.
    control: VecDeque<PooledBuf>,
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
    /// The connection's one channel: data and control frames both ways.
    pub transport: Arc<dyn Transport>,
    /// The node's recycling frame-buffer pool (every encode on the data
    /// plane draws from it).
    pub pool: Arc<BufPool>,
    /// Messages for the pipeline: application → whoever holds `tx`.
    /// Queued before anybody is asked to drain them, which is what keeps
    /// one thread's messages in order whoever does. (The one queue that
    /// crosses threads; everything else is a field of the task, of `tx`,
    /// or of a plane.)
    pub submit_inbox: Mailbox<Submission>,
    /// Without flow and error control nothing else holds a sender back:
    /// the SDUs queued ahead of the interface, bounded at
    /// [`SEND_QUEUE_DEPTH`]. `None` where flow or error control paces the
    /// sender.
    pub queued: Option<SendQueue>,
    /// The send pipeline.
    pub tx: NcsMutex<TxSide>,
    /// Wake handle of the connection's reactor task, with the task's
    /// subscription to the data channel's readiness (`None` before
    /// attachment and after the task retires). A read-write lock, not a
    /// mutex: every submitter on the send path takes it shared in
    /// [`ConnShared::wake_task`], so N application threads hammering one
    /// connection never serialise on the wake handle —
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
    /// The receive half, and what the connection's driver keeps between
    /// runs: whoever runs the task locks it — its shard, or the thread
    /// that claimed the task while it waits ([`ConnShared::drive`]).
    pub rx: NcsMutex<RxSide>,
}

/// The receive half's [`RxPlane`], and the driver's closing state.
pub(crate) struct RxSide {
    plane: RxPlane,
    /// The peer's close arrived (its `CloseConn`, or the transport's end):
    /// nothing more can.
    eof: bool,
    /// Deadline of a local close's flush (armed on the first closing
    /// run).
    drain_deadline: Option<Instant>,
    /// Retired: every later run ends at once.
    finished: bool,
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
    pub(crate) fn new(
        id: u32,
        peer_name: String,
        config: ConnectionConfig,
        transport: Arc<dyn Transport>,
        pool: Arc<BufPool>,
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
        // Both halves run what the interface needs of the configuration:
        // error control is left out where a credit window rules loss out.
        // `config()` still reports what the application asked for.
        let ring = transport.caps().overrun_ring;
        let planes = plane_config(&config, ring);
        let plane = TxPlane::new(&planes, ring, obs.clone(), &pool, Instant::now());
        let rx = RxPlane::new(&planes, &counters, &pool);
        let queued = (!config.needs_control_threads()).then(SendQueue::new);
        let shared = Arc::new(ConnShared {
            id,
            peer_name,
            peer_conn: AtomicU32::new(u32::MAX),
            config,
            state: Mutex::new(ConnState::Connecting),
            established: Event::new(),
            closed: AtomicBool::new(false),
            transport,
            pool,
            submit_inbox: Mailbox::unbounded(),
            queued,
            tx: NcsMutex::new(TxSide {
                plane,
                pending: VecDeque::with_capacity(IO_BATCH),
                control: VecDeque::new(),
            }),
            task: RwLock::new(None),
            delivery: DeliveryQueue::new(),
            counters,
            recorder: obs.recorder,
            registry,
            last_error: obs.last_error,
            rx: NcsMutex::new(RxSide {
                plane: rx,
                eof: false,
                drain_deadline: None,
                finished: false,
            }),
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

    /// Learns the peer's connection id from an incoming data packet (the
    /// `AcceptConn` is the first frame, so this only covers a lost one).
    pub(crate) fn note_peer_conn(&self, src: u32) {
        let _ = self
            .peer_conn
            .compare_exchange(u32::MAX, src, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Schedules the connection's reactor task — the reactor-era analogue
    /// of the paper's mailbox activation — or wakes the thread that
    /// claimed it. No-op before attachment and after retirement (wakes
    /// coalesce; a wake racing a running poll reschedules it, so no
    /// activation is ever lost).
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
    /// silence, or the end of a first held message's wait; every later one
    /// finds that timer still armed), a flush the
    /// interface refused, or frames beyond the one run the Send plane
    /// takes per step.
    pub(crate) fn drive_or_wake(&self) {
        // A closing connection's queues are the task's to flush and fail.
        let open = |_: &_| !self.closed.load(Ordering::Acquire);
        let Some(mut tx) = self.tx.try_lock().filter(open) else {
            return self.wake_task();
        };
        // Behind a message in flight, or one held for the credit of the
        // last, there is nothing to run and nobody to wake: what ends it —
        // an event, which wakes the task, or a deadline the task holds —
        // is handled by a step that then drains the queue, this message
        // included.
        if tx.plane.in_flight() {
            return;
        }
        let mut timer = None;
        self.step_tx(&mut tx, &mut timer);
        self.step_send(&mut tx);
        let blocked = self.owes_write(&tx);
        drop(tx);
        // Read after the step, outside the lock: a poll that missed the
        // step has either published its deadline by now or is still
        // running and will find this wake. A refused write is the task's
        // to wait for: it arms for the interface turning writable.
        if let Some((task, _)) = self.task.read().as_ref() {
            if blocked || timer.is_some_and(|at| !task.armed_by(at)) {
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

    /// Queues one control frame for the peer, ahead of the data waiting
    /// for the interface. Whoever holds the receive half calls this, and
    /// then runs a send step that writes it.
    fn send_control(&self, msg: CtrlMsg) {
        let mut frame = self.pool.get();
        msg.encode_into(frame.vec_mut());
        self.tx.lock().control.push_back(frame);
    }

    /// Queues one feedback frame for the peer.
    fn feedback(&self, msg: CtrlMsg) {
        self.counters.feedback_sent.inc();
        self.send_control(msg);
    }

    /// The receive half of the pipeline for one arrived frame: a data frame
    /// goes through [`ConnShared::receive_data`]; a control frame about
    /// our own data goes straight to the send half's plane, and one about
    /// the connection is applied here. After a local close only control
    /// frames count: the flush may wait for feedback, and nobody takes
    /// data any more.
    #[inline(always)]
    fn receive(&self, rx: &mut RxSide, frame: &[u8]) {
        let event = match FrameKind::of(frame) {
            FrameKind::Data if !self.closed.load(Ordering::Acquire) => {
                return self.receive_data(&mut rx.plane, frame)
            }
            FrameKind::Ctrl => match CtrlMsg::decode(frame) {
                Ok(CtrlMsg::Ack {
                    session,
                    info,
                    edge,
                    ..
                }) => CtrlEvent::Ack {
                    session,
                    info,
                    edge,
                },
                Ok(CtrlMsg::Credit { credits, .. }) => CtrlEvent::Credit(credits),
                Ok(CtrlMsg::AcceptConn { acceptor_conn, .. }) => {
                    return self.mark_established(acceptor_conn)
                }
                Ok(CtrlMsg::CloseConn { .. }) => {
                    // The channel's last frame: everything before it is in.
                    rx.eof = true;
                    return self.peer_closed();
                }
                Err(_) => return,
            },
            // A repeat of the hello: our `AcceptConn` was lost.
            FrameKind::Hello => {
                return self.send_control(CtrlMsg::AcceptConn {
                    initiator_conn: self.peer_conn_id(),
                    acceptor_conn: self.id,
                })
            }
            _ => return,
        };
        self.tx.lock().plane.on_event(event, Instant::now());
    }

    /// The receive half of the data pipeline — everything between the
    /// interface and the delivery queue — for one data frame, parsed in
    /// place ([`DataPacket::peek`]): runs it through the [`RxPlane`]
    /// (Figure 4 steps 5-10) and delivers what it completes: none, one, or
    /// a train's messages. The pipeline's acknowledgement is queued at
    /// once, with the credit edge in the same frame if one is owed — one
    /// advertisement, the latest edge, covers a whole receive drain: here,
    /// or alone when the drain ends ([`ConnShared::drained`]).
    fn receive_data(&self, rx: &mut RxPlane, frame: &[u8]) {
        let Ok(view) = DataPacket::peek(frame) else {
            return; // a malformed data packet: ignore
        };
        self.note_peer_conn(view.header.src_conn);
        self.counters.packets_received.inc();
        // `messages_received` is counted at the delivery queue.
        let step = rx.on_frame(&view, Instant::now());
        // Lost where error control was asked for and left out (`plane_config`).
        if step.lost && self.config.error_control != ErrorControlAlg::None {
            *self.last_error.lock() = Some(SendError::DeliveryFailed("an SDU was lost".into()));
        }
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
    /// arrived for it — new messages, the time — and queues the SDUs it
    /// releases on the Send plane while that has room. (Feedback reached
    /// the plane as the receive half read it.)
    fn step_tx(&self, tx: &mut TxSide, timer: &mut Option<Instant>) -> bool {
        let TxSide { plane, pending, .. } = tx;
        let mut progressed = false;
        // The Send plane's queue fills only while the interface refuses
        // it; everything behind waits where it is until that clears, and
        // the report that the interface turned writable brings the task
        // back for it.
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
        // deadline: the step that finds every queue empty ends here, with
        // no look at the clock.
        if !progressed && plane.is_idle() {
            return false;
        }
        let now = Instant::now();
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

    /// The Send plane: moves queued frames onto the channel, control frames
    /// first. Up to [`IO_BATCH`] frames cross the transport per
    /// [`ncs_transport::Connection::try_send_batch`] call, and their
    /// pooled buffers return to the pool as each is transmitted.
    fn step_send(&self, tx: &mut TxSide) -> bool {
        let TxSide {
            plane,
            pending,
            control,
        } = tx;
        let mut progressed = false;
        while !(control.is_empty() && pending.is_empty()) {
            let mut refs = [&[][..]; IO_BATCH];
            let queued = control.iter().map(PooledBuf::as_slice);
            let queued = queued.chain(pending.iter().map(|(f, _)| f.as_slice()));
            let batch = fill_batch(&mut refs, queued);
            match self.transport.try_send_batch(&refs[..batch]) {
                // Interface backpressure: the peer must drain before more
                // fits, and the task waits for the interface to say so.
                Ok(0) => break,
                Ok(sent) => {
                    let sent = sent.min(batch);
                    let controls = sent.min(control.len());
                    let bytes: usize = refs[controls..sent].iter().map(|r| r.len()).sum();
                    // The buffers return to the pool.
                    control.drain(..controls);
                    let data = sent - controls;
                    self.counters.packets_sent.add(data as u64);
                    self.recorder.record(EventKind::Wire, 0, 0, bytes);
                    for (_, mut done) in pending.drain(..data) {
                        for core in done.drain(..) {
                            core.complete(Ok(()));
                        }
                        plane.recycle_done(done);
                    }
                    self.unqueue(data);
                    progressed = true;
                }
                Err(e) => {
                    // Nothing of the batch was accepted: fail its senders
                    // and drop its frames. A channel the peer closed shows
                    // its end to the receive half too, behind the peer's
                    // last frames, which are still to be read.
                    let failure = SendError::from(e);
                    control.clear();
                    self.unqueue(pending.len());
                    for (_, done) in pending.drain(..) {
                        for core in done {
                            core.complete(Err(failure.clone()));
                        }
                    }
                    progressed = true;
                    break;
                }
            }
        }
        if pending.is_empty() && control.is_empty() {
            flush_owed(self.transport.as_ref());
        }
        progressed
    }

    /// Whether the interface refused the last flush, or still owes the
    /// tail of a frame: the task waits for it to turn writable
    /// ([`Watch::rearm`]).
    fn owes_write(&self, tx: &TxSide) -> bool {
        !(tx.pending.is_empty() && tx.control.is_empty()) || self.transport.owes_bytes()
    }

    pub(crate) fn initiate_close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.state.lock() = ConnState::Closed;
        self.retire_data_plane(true);
    }

    /// The close of a node shutting down, which waits for no
    /// acknowledgement: the session in flight and what is queued behind it
    /// fail now, and the closing task finds its send side flushed instead
    /// of lingering for them.
    pub(crate) fn close_with_node(&self) {
        self.initiate_close();
        self.tx.lock().plane.fail_all(SendError::Closed);
        self.wake_task();
    }

    /// The peer's close arrived: its `CloseConn`, behind everything it
    /// sent, or the channel's end.
    pub(crate) fn peer_closed(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.state.lock() = ConnState::Closed;
        self.retire_data_plane(false);
    }

    /// Retires the connection's data plane. Called exactly once (guarded
    /// by the callers' `closed` swap); the reactor task retires on the
    /// `closed` flag the wake below makes it observe. A second close, or a
    /// close landing while the task is mid-poll, resolves to a coalesced
    /// wake and a no-op retirement.
    ///
    /// Parked receives fail now — every in-flight `irecv`, and the blocking
    /// wrappers over it, resolves within the close — while the messages
    /// already delivered stay takeable. A peer's close comes behind its
    /// last frame, so nothing it sent is still to come. A local one lets
    /// the task flush queued sends — frames parked behind flow-control
    /// credits or an unacknowledged error-control session — before its
    /// `CloseConn` and the transport's close, so fire-and-forget sends
    /// issued right before `close()` still reach the peer. Without a task
    /// (not attached yet, or already retired) the teardown is immediate.
    fn retire_data_plane(&self, local: bool) {
        if self.task.read().is_none() {
            self.hang_up(local);
        }
        self.delivery.fail_all(SendError::Closed);
        self.established.fire();
        // Senders parked for room, or a caller a full queue turned away
        // (its next offer meets the close), see the close now.
        if let Some(q) = &self.queued {
            q.wake();
        }
        // Schedule the task so it observes `closed` and runs the closing
        // flush, then retires.
        self.wake_task();
    }

    /// Closes the channel; a local close first writes the peer its
    /// `CloseConn`, as the channel's last frame (best effort: the peer
    /// also learns of the close from the transport's end).
    fn hang_up(&self, local: bool) {
        let peer = self.peer_conn_id();
        if local && peer != u32::MAX {
            let close = CtrlMsg::CloseConn { conn: peer }.encode();
            let _ = self.transport.try_send_batch(&[&close]);
        }
        self.transport.close();
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

/// Upper bound on a local close's flush of the send side: frames parked
/// behind credits or an unacknowledged session go out if the peer answers
/// within it.
pub(crate) const CLOSE_LINGER: Duration = Duration::from_millis(250);

/// Attaches a connection to the reactor: one [`ConnTask`] multiplexing all
/// four Figure-4 planes onto a shared event loop.
pub(crate) fn attach_connection(reactor: &Arc<Reactor>, shared: &Arc<ConnShared>) {
    let task = Box::new(ConnTask(Arc::clone(shared)));
    let handle = reactor.spawn(TaskKind::Connection, |_| task);
    let watch = reactor.watch(&shared.transport, &handle);
    *shared.task.write() = Some((Arc::clone(&handle), watch));
    // Frames arriving between the task's first poll and the subscription
    // above had nothing to wake; one explicit wake closes the gap (the
    // poll it schedules drains them).
    handle.wake();
}

/// A connection's Figure-4 pipeline as one resumable reactor task: the
/// non-blocking driver of the [`crate::plane`] state machines. Its poll is
/// a run of [`ConnShared::run`], which a thread that claimed the task
/// makes too ([`ConnShared::drive`]).
///
/// The Receive plane is the run's `step_recv` — only the task's runner
/// reads the transport — feeding the [`RxPlane`] in [`ConnShared::rx`];
/// the send half ([`TxSide`]: the [`TxPlane`] and the Send plane's queue)
/// is shared with submitters and stepped under its lock by
/// [`ConnShared::step_tx`] / [`ConnShared::step_send`]. The paper's
/// blocking waits became [`TaskPoll::Timer`] deadlines, and a write the
/// interface refused a wait for it to turn writable.
struct ConnTask(Arc<ConnShared>);

/// Reactor teardown can drop a live task without a final poll (shard
/// shutdown while connections are still attached): retire here so queued
/// sends and parked receives resolve `Closed` instead of dangling.
impl Drop for ConnTask {
    fn drop(&mut self) {
        self.0.retire(&mut self.0.rx.lock());
    }
}

impl ReactorTask for ConnTask {
    fn poll(&mut self, _now: Instant) -> TaskPoll {
        let shared = &self.0;
        let (poll, owes_write) = shared.run(&mut shared.rx.lock());
        if matches!(poll, TaskPoll::Idle | TaskPoll::Timer(_)) {
            shared.rearm(owes_write);
        }
        poll
    }
}

impl ConnShared {
    /// The Receive plane: drains ready frames off the channel through the
    /// receive half ([`ConnShared::receive`]).
    fn step_recv(&self, rx: &mut RxSide, hungry: &mut bool) -> bool {
        let mut progressed = false;
        let mut budget = RECV_BUDGET;
        loop {
            if budget == 0 {
                *hungry = true;
                break;
            }
            let frame = match self.transport.try_recv() {
                Ok(Some(f)) => f,
                Ok(None) | Err(TransportError::Timeout) => break,
                Err(_) => {
                    // The channel ended without a `CloseConn`: nothing
                    // more can arrive.
                    rx.eof = true;
                    self.link_down();
                    self.peer_closed();
                    progressed = true;
                    break;
                }
            };
            budget -= 1;
            progressed = true;
            self.receive(rx, &frame);
            self.transport.recycle(frame);
            if rx.eof {
                break;
            }
        }
        self.drained(&mut rx.plane);
        progressed
    }

    /// Terminal teardown, run once when the task observes `closed`: every
    /// queued send — in the pipeline, in the submission queue, on the send
    /// queue — resolves `Closed` instead of dangling, and the task
    /// detaches from its readiness sources. Idempotent by construction
    /// (double close and close-during-run both funnel into the same
    /// single retirement).
    fn retire(&self, rx: &mut RxSide) {
        if rx.finished {
            return;
        }
        rx.finished = true;
        let mut tx = self.tx.lock();
        // The session in flight fails like a delivery error, and
        // everything queued behind it resolves Closed (the send-side half
        // of the fail-fast contract).
        tx.plane.fail_all(SendError::Closed);
        while let Some(submission) = self.submit_inbox.try_recv() {
            if let Some(accepted) = submission.accepted {
                accepted.fire();
            }
            if let Some(c) = submission.completion {
                c.complete(Err(SendError::Closed));
            }
        }
        // The buffers return to the pool.
        tx.control.clear();
        for (_, done) in tx.pending.drain(..) {
            for core in done {
                core.complete(Err(SendError::Closed));
            }
        }
        drop(tx);
        self.hang_up(!rx.eof);
        // A no-op after a close; a reactor dropped under a live task fails
        // the parked receives here.
        self.delivery.fail_all(SendError::Closed);
        // Detach from the transport's readiness, and drop the wake handle
        // so later `wake_task` calls are no-ops.
        *self.task.write() = None;
    }

    /// Whether the send side is empty: nothing in or queued for the
    /// FC/EC pipeline (no session in flight, nothing parked on credits),
    /// nothing waiting on the wire.
    fn flushed(&self, tx: &TxSide) -> bool {
        tx.plane.is_idle() && !self.owes_write(tx) && self.submit_inbox.is_empty()
    }

    /// One run of the connection's task, by whoever runs it: the planes
    /// run until a round makes no progress, and the run says what its
    /// runner waits for next — the nearest protocol deadline and the
    /// transport's readiness, for output too while a write is owed (the
    /// second value).
    ///
    /// A peer's close ends the task at once: it came behind everything the
    /// peer sent. After a local close the task flushes the send planes —
    /// frames parked on flow-control credits or an unacknowledged
    /// error-control session still go out, on the feedback it keeps
    /// reading — and retires as soon as they are empty (instantly for the
    /// common quiescent close), or at [`CLOSE_LINGER`].
    fn run(&self, rx: &mut RxSide) -> (TaskPoll, bool) {
        if rx.finished {
            return (TaskPoll::Done, false);
        }
        let (mut timer, mut owes_write) = (None, false);
        for round in 0..=MAX_ROUNDS {
            let closed = self.closed.load(Ordering::Acquire);
            if closed {
                rx.drain_deadline
                    .get_or_insert_with(|| Instant::now() + CLOSE_LINGER);
            }
            // A busy task yields its shard; a closing one goes on to linger.
            if round == MAX_ROUNDS && !closed {
                return (TaskPoll::Again, owes_write);
            } else if round == MAX_ROUNDS {
                break;
            }
            // Timers are a function of the *current* protocol state, so
            // each round recomputes them from scratch.
            timer = None;
            let (mut hungry, mut progressed) = (false, false);
            // The task receives in the first round only: it drains until
            // the transport is empty or its budget is spent, and the
            // latter ends the run with `Again`. Whatever arrives later is
            // reported anyway — a waker marks the task dirty, a re-armed fd
            // is looked at again — the same contract `Idle` relies on.
            if round == 0 {
                progressed |= self.step_recv(rx, &mut hungry);
            }
            let mut tx = self.tx.lock();
            progressed |= self.step_tx(&mut tx, &mut timer);
            progressed |= self.step_send(&mut tx);
            let flushed = closed && self.flushed(&tx);
            owes_write = self.owes_write(&tx);
            drop(tx);
            if rx.eof || flushed {
                self.retire(rx);
                return (TaskPoll::Done, false);
            }
            if hungry {
                return (TaskPoll::Again, owes_write);
            }
            if !progressed {
                break;
            }
        }
        // Quiescent, or flushing after a close with the linger as the
        // backstop. A modelled wire is looked at again when its next
        // frame falls due: nothing else would bring it there.
        if let Some(at) = self.transport.due() {
            min_timer(&mut timer, at);
        }
        if let Some(linger) = rx.drain_deadline {
            if Instant::now() >= linger {
                self.retire(rx);
                return (TaskPoll::Done, false);
            }
            timer = Some(timer.map_or(linger, |at: Instant| at.min(linger)));
        }
        (timer.map_or(TaskPoll::Idle, TaskPoll::Timer), owes_write)
    }

    /// Re-enables the task's fd readiness, if it has a task: the kernel
    /// looks again, so anything that arrived while disarmed is reported at
    /// once — for output too while a write is owed.
    fn rearm(&self, owes_write: bool) {
        if let Some((_, watch)) = self.task.read().as_ref() {
            watch.rearm(owes_write);
        }
    }

    /// Runs the connection's task on the calling thread while it waits —
    /// the paper's §4.2 thread bypass, on the default path — until `done`
    /// says the wait is over or `deadline` passes. The thread claims the
    /// idle task ([`TaskHandle::claim`]) and parks where the shard would:
    /// on the socket, and the claim's bell beside it, for a descriptor
    /// transport; on the bell alone for a waker transport, whose waker
    /// rings it — for data and feedback alike — as every other wake of the
    /// task does meanwhile: a submitter's, a close's, and that of a
    /// deadline the shard holds. The shard hears of the descriptor again
    /// when the thread lets go. It returns at once where the task is not
    /// idle (the shard or another waiter runs it, or it is not attached
    /// yet or retired), and the caller waits as it would have.
    pub(crate) fn drive(&self, mut done: impl FnMut() -> bool, deadline: Option<Instant>) {
        if done() {
            return;
        }
        // The watch is disarmed only once the claim is taken: the shard
        // keeps hearing of the socket while it runs the task.
        let claimed = (self.task.read().as_ref())
            .and_then(|(task, watch)| Some((task.claim()?, watch.disarm())));
        let Some((claim, fd)) = claimed else {
            return;
        };
        // Everything that came before the claim woke the task, which would
        // then not have been idle: the first thing a claimant does is wait.
        let (mut poll, mut owes_write) = (TaskPoll::Idle, false);
        let over = || crate::request::time_left(deadline).is_zero();
        while !(matches!(poll, TaskPoll::Done) || done() || over()) {
            let wait = match poll {
                TaskPoll::Timer(at) => at.saturating_duration_since(Instant::now()),
                TaskPoll::Again => Duration::ZERO,
                _ => Duration::MAX,
            }
            .min(crate::request::time_left(deadline));
            let events = POLLIN | if owes_write { POLLOUT } else { 0 };
            claim.park(fd.map(|fd| (fd, events)), wait);
            (poll, owes_write) = self.run(&mut self.rx.lock());
        }
        // What is left of the task's work is the shard's again.
        if matches!(poll, TaskPoll::Idle | TaskPoll::Timer(_)) {
            self.rearm(owes_write);
        }
        claim.release(&poll);
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
/// comes back when the transport turns writable, as for a refused flush.
/// A failure is left to the next send to meet.
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
fn deliver_message(shared: &ConnShared, body: MsgBody, tagged: bool) {
    let view = if tagged {
        let Some(envelope) = body.bytes().get(..TAG_ENVELOPE) else {
            return;
        };
        let tag = u32::from_be_bytes(envelope.try_into().expect("4 bytes"));
        MsgView::new(body, TAG_ENVELOPE, Some(tag))
    } else {
        MsgView::new(body, 0, None)
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
    /// error-control acknowledgement) or, where error control does not
    /// run, when its last frame is *written* to the interface. That is a
    /// configuration without it, and also a reliable one over an interface
    /// that loses frames only when its receiver's ring overruns, with a
    /// ring the credit window cannot fill (HPI's default ring under
    /// [`ConnectionConfig::reliable`]): the ring then holds the message
    /// for the peer, whose close still drains it, but a peer node that
    /// dies first loses it. The caller computes; the runtime's threads
    /// move the data — the paper's overlap thesis as an API.
    ///
    /// # Errors
    ///
    /// Validation errors ([`SendError::Empty`], [`SendError::TooLarge`],
    /// [`SendError::Closed`]) surface immediately; everything later
    /// resolves through the request.
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
        let request = self.send_request();
        let one_sdu = self.submit(data, tag, Some(Arc::clone(&request.core)), None, true)?;
        self.activate(one_sdu);
        Ok(request)
    }

    /// A send's request, on this connection: a thread that waits on it
    /// runs the connection's task while it is idle, as a receiver does.
    fn send_request(&self) -> Request<()> {
        let mut request = request::issue(&FREE_SENDS);
        request.conn = Some(Arc::clone(&self.shared));
        request
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
        self.shared
            .recorder
            .record(EventKind::Isend, tag.unwrap_or(0), 0, data.len());
        // Tag-matched messages carry their tag as a 4-byte envelope at
        // the front of the message body (flagged in every SDU header).
        // The reactor task that runs the peer's receive plane strips the
        // envelope during reassembly and routes the message to the tag's
        // delivery shard — see `deliver_message` and
        // `request::DELIVERY_SHARDS`.
        let body = Body::new(tag, data, &self.shared.pool);
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
    /// message is too long to ever fit. A call cut short is owed the
    /// connection's room waker ([`NcsConnection::set_room_waker`]) once
    /// the queue is below that bound again. With flow or error control
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
            if !self.shared.queued.as_ref().is_none_or(SendQueue::has_room) {
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
        let mut request = request::issue(&FREE_RECEIVES);
        (request.conn, request.tag) = (Some(Arc::clone(&self.shared)), tag);
        request.cancel = Some(|conn, tag, core| conn.delivery.cancel(tag, core));
        self.shared.delivery.register(tag, &request.core);
        request
    }

    /// `NCS_recv`: blocks until the next reassembled message arrives.
    /// Thin wrapper over [`NcsConnection::irecv`]; prefer the request form
    /// (and its [`MsgView`]) on hot paths — this one copies the message
    /// out to hand out an owning `Vec`.
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

    /// Installs (or with `None`, removes) the callback a
    /// [`NcsConnection::try_send_batch`] that was cut short is owed: it
    /// runs once the send queue is below its bound again, on the thread
    /// whose write made the room — an event loop, so it must not block —
    /// and is the caller's cue to offer the rest again. Connections with
    /// flow or error control admit everything and never call it.
    pub fn set_room_waker(&self, waker: Option<Waker>) {
        if let Some(queued) = &self.shared.queued {
            *queued.on_room.lock() = waker;
        }
    }

    /// The sticky error recorded by the error-control plane, if any
    /// (asynchronous [`NcsConnection::send`] failures surface here; so
    /// does a message lost on its way in to a connection that asked for
    /// error control and runs without it, see [`NcsConnection::isend`]).
    pub fn last_error(&self) -> Option<SendError> {
        self.shared.last_error.lock().clone()
    }

    /// Closes the connection: what is queued goes out first, then a
    /// `CloseConn` as the channel's last frame. Idempotent.
    pub fn close(&self) {
        self.shared.initiate_close();
    }

    /// The thread-bypass `NCS_send` of paper §4.2, which is the default
    /// path now: `isend(data)?.wait()`, whose waiting thread runs the
    /// connection's task itself while it is idle. An alias, kept until the
    /// benchmark's ladder moves off it (ROADMAP 1(b)).
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::isend`] and its completion.
    pub fn send_direct(&self, data: &[u8]) -> Result<(), SendError> {
        self.isend(data)?.wait()
    }

    /// The thread-bypass `NCS_recv` of paper §4.2, which is the default
    /// path now: [`NcsConnection::recv_timeout`]. An alias, kept until the
    /// benchmark's ladder moves off it (ROADMAP 1(b)).
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::recv_timeout`].
    pub fn recv_direct(&self, timeout: Duration) -> Result<Vec<u8>, SendError> {
        self.recv_timeout(timeout)
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
    /// Only available on bypass-configured connections.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] when flow or error control is configured,
    /// [`SendError::Timeout`] when the pipeline has not taken the message
    /// within 30 s, otherwise as [`NcsConnection::send`].
    pub fn send_handoff(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        if self.shared.config.needs_control_threads() {
            return Err(SendError::WrongMode("bypass (no FC/EC)"));
        }
        let request = self.send_request();
        let accepted = Arc::new(Event::new());
        self.submit(
            data,
            None,
            Some(Arc::clone(&request.core)),
            Some(Arc::clone(&accepted)),
            true,
        )?;
        // The task's even at one SDU, which `send` would run inline: the
        // hand-off is what this call exists to make.
        self.shared.wake_task();
        if !accepted.wait_timeout(Duration::from_secs(30)) {
            return Err(SendError::Timeout);
        }
        Ok(request)
    }
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
    /// delivered (under error control) or written (without it — see
    /// [`NcsConnection::isend`]).
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
pub(crate) mod tests {
    use super::*;
    use crate::link::HpiLinkPair;
    use crate::NcsNode;
    use ncs_transport::hpi;

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

    /// The room wake's protocol, explored: every schedule of a caller that
    /// a full send queue turned away against one or two releases. The
    /// caller — the collective engine's step, holding its machine's lock —
    /// announces itself (`wanted`), looks at the queue once more, unlocks,
    /// and looks at its room flag. A release counts its SDUs out and,
    /// below the bound, takes the announcement and runs the room waker,
    /// which flags the room and then wakes the caller's task; the task
    /// steps only if it gets the lock. Each step is atomic and the steps
    /// are sequentially consistent, as the orderings on both sides make
    /// them.
    mod room {
        #[derive(Clone, Copy, Debug)]
        pub(super) enum Step {
            Announce,
            Look,
            Unlock,
            LookAtFlag,
        }

        /// The order of the room waker's two stores.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub(super) enum Waker {
            FlagThenWake,
            WakeThenFlag,
        }

        const BOUND: u8 = 2;

        #[derive(Clone, Copy, Default)]
        struct World {
            queued: u8,
            wanted: bool,
            room: bool,
            locked: bool,
            woken: bool,
            /// Steps taken by the caller, and by each release.
            caller: usize,
            releases: [usize; 2],
            /// What each release left queued, and took of `wanted`.
            left: [u8; 2],
            took: [bool; 2],
            /// Whether the caller found room, or its flag, and so ran on;
            /// whether the task tried the lock, and got it.
            ran_on: bool,
            tried: bool,
            task_ran: bool,
        }

        /// A schedule, by step, that leaves the caller's frames with
        /// neither a wake nor a runner, if there is one.
        pub(super) fn lost_wake(
            caller: &[Step],
            waker: Waker,
            releases: usize,
        ) -> Option<Vec<String>> {
            let start = World {
                // Only the last release takes the queue below its bound.
                queued: BOUND + releases as u8 - 1,
                locked: true,
                ..World::default()
            };
            let mut trace = Vec::new();
            explore(start, caller, waker, releases, &mut trace).then_some(trace)
        }

        fn explore(
            w: World,
            caller: &[Step],
            waker: Waker,
            releases: usize,
            trace: &mut Vec<String>,
        ) -> bool {
            let mut moves = Vec::new();
            if let Some(&step) = caller.get(w.caller) {
                let mut next = w;
                match step {
                    Step::Announce => next.wanted = true,
                    Step::Look => next.ran_on |= w.queued < BOUND,
                    Step::Unlock => next.locked = false,
                    Step::LookAtFlag => next.ran_on |= w.room,
                }
                next.caller += 1;
                moves.push((format!("caller {step:?}"), next));
            }
            for i in 0..releases {
                let mut next = w;
                let flag_first = waker == Waker::FlagThenWake;
                let step = match w.releases[i] {
                    0 => {
                        next.queued -= 1;
                        next.left[i] = next.queued;
                        "count out"
                    }
                    1 => {
                        if w.left[i] < BOUND {
                            (next.took[i], next.wanted) = (w.wanted, false);
                        }
                        "take wanted"
                    }
                    2 | 3 if (w.releases[i] == 2) == flag_first => {
                        next.room |= w.took[i];
                        "flag room"
                    }
                    2 | 3 => {
                        next.woken |= w.took[i];
                        "wake task"
                    }
                    _ => continue,
                };
                next.releases[i] += 1;
                moves.push((format!("release {i} {step}"), next));
            }
            if w.woken && !w.tried {
                let mut next = w;
                (next.tried, next.task_ran) = (true, !w.locked);
                moves.push(("task try_lock".to_owned(), next));
            }
            if moves.is_empty() {
                return !w.ran_on && !w.task_ran;
            }
            for (step, next) in moves {
                trace.push(step);
                if explore(next, caller, waker, releases, trace) {
                    return true;
                }
                trace.pop();
            }
            false
        }
    }

    #[test]
    fn no_schedule_of_the_room_wake_leaves_frames_with_neither_a_wake_nor_a_runner() {
        use room::{lost_wake, Step::*, Waker::*};
        let ours = [Announce, Look, Unlock, LookAtFlag];
        for releases in 1..=2 {
            let lost = lost_wake(&ours, FlagThenWake, releases);
            assert_eq!(lost, None, "{releases} releases");
            // Looking before announcing loses the wake of a release that
            // lands between the two.
            let lost = lost_wake(
                &[Look, Announce, Unlock, LookAtFlag],
                FlagThenWake,
                releases,
            );
            assert!(lost.is_some(), "{releases} releases: look-first passed");
            // A caller that leaves without a look at its flag loses the
            // wake whose task found the lock taken,
            let lost = lost_wake(&[Announce, Look, Unlock], FlagThenWake, releases);
            assert!(lost.is_some(), "{releases} releases: no last look passed");
            // and so does a waker that wakes before it flags.
            let lost = lost_wake(&ours, WakeThenFlag, releases);
            assert!(lost.is_some(), "{releases} releases: wake-first passed");
        }
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

    /// A reliable one-SDU message costs its receiver one feedback frame.
    /// Over a ring narrower than the ring rule needs for the default window
    /// (67 frames) error control stays, and the frame is the
    /// acknowledgement with the credit edge in it (the edge used to go
    /// ahead of it in a frame of its own: two per message); a
    /// retransmission — a stall of the test past the timeout — is answered
    /// with one more. Over the default ring, which the window cannot
    /// overrun, it is the credit edge alone.
    #[test]
    fn a_reliable_round_trip_sends_one_feedback_frame_each_way() {
        const ROUND_TRIPS: u64 = 200;
        for ring in [32, hpi::DEFAULT_RING] {
            let a = NcsNode::builder("alice").build();
            let b = NcsNode::builder("bob").build();
            let (la, lb) = HpiLinkPair::with_capacity(ring);
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
            // Read once both nodes are down: the last pong may have been
            // read by `alice`'s event loop, whose drain is still counting
            // its feedback frame when the receive returns.
            a.shutdown();
            b.shutdown();
            let (sa, sb) = (ca.stats(), cb.stats());
            assert_eq!(sa.feedback_sent, ROUND_TRIPS + sb.retransmissions, "{sa}");
            assert_eq!(sb.feedback_sent, ROUND_TRIPS + sa.retransmissions, "{sb}");
            let acks = if ring == 32 { ROUND_TRIPS } else { 0 };
            assert_eq!(
                (sa.acks_sent, sb.acks_sent),
                (acks + sb.retransmissions, acks + sa.retransmissions),
                "ring {ring}"
            );
        }
    }

    // -- A waiting thread drives ---------------------------------------

    type Pkg = Arc<dyn ncs_threads::ThreadPackage>;

    /// Runs `test` on the kernel package, then as the primary green thread
    /// of a user-level runtime.
    fn on_both_packages(test: fn(&Pkg)) {
        test(&(Arc::new(ncs_threads::KernelPackage::new()) as Pkg));
        ncs_threads::UserRuntime::default().run(move |pkg| test(&(Arc::new(pkg) as Pkg)));
    }

    /// The two ways a driving receiver parks: on its claim's bell, which
    /// HPI's waker rings, or on an SCI socket and the bell beside it.
    #[derive(Clone, Copy, Debug)]
    enum Wire {
        Hpi,
        Sci,
    }

    const WIRES: [Wire; 2] = [Wire::Hpi, Wire::Sci];

    /// How long a test waits for what must come: a hang detector, not a
    /// measurement.
    const LIVENESS: Duration = Duration::from_secs(5);

    /// Error control with no credit window: a waiting receiver drives it,
    /// and the peer's acknowledgements are control events.
    fn error_controlled() -> ConnectionConfig {
        ConnectionConfig::builder()
            .flow_control(crate::FlowControlAlg::None)
            .error_control(ErrorControlAlg::SelectiveRepeat {
                timeout: Duration::from_millis(100),
                max_retries: 30,
            })
            .build()
    }

    /// Two nodes on `pkg` over `wire`, and one connection between them.
    fn linked(
        pkg: &Pkg,
        wire: Wire,
        config: ConnectionConfig,
    ) -> (NcsNode, NcsNode, NcsConnection, NcsConnection) {
        let node = |name: &str| {
            NcsNode::builder(name)
                .thread_package(Arc::clone(pkg))
                .build()
        };
        let (a, b) = (node("alice"), node("bob"));
        match wire {
            Wire::Hpi => {
                let (la, lb) = HpiLinkPair::create();
                a.attach_peer("bob", la);
                b.attach_peer("alice", lb);
            }
            Wire::Sci => {
                use ncs_transport::sci::SciListener;
                let listen = || {
                    let listener = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind"));
                    let addr = listener.local_addr().expect("local_addr");
                    (listener, addr)
                };
                let ((la, addr_a), (lb, addr_b)) = (listen(), listen());
                a.attach_peer("bob", crate::link::SciLink::new(addr_b, la));
                b.attach_peer("alice", crate::link::SciLink::new(addr_a, lb));
            }
        }
        let ca = a.connect("bob", config).expect("connect");
        let cb = b.accept_default().expect("accept");
        (a, b, ca, cb)
    }

    /// Waits, sleeping on `pkg`, until `cond` holds.
    fn until(pkg: &Pkg, what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < LIVENESS, "{what}");
            pkg.sleep(Duration::from_millis(1));
        }
    }

    /// Whether a thread waiting on `conn` runs its task.
    fn driving(conn: &NcsConnection) -> bool {
        let task = conn.shared.task.read();
        task.as_ref()
            .is_some_and(|(task, _)| crate::reactor::tests::claimed(task))
    }

    /// Whether `conn`'s task is idle: a receive that starts now drives.
    fn idle(conn: &NcsConnection) -> bool {
        let task = conn.shared.task.read();
        let claim = task.as_ref().and_then(|(task, _)| task.claim());
        claim.map(|claim| claim.release(&TaskPoll::Idle)).is_some()
    }

    /// A thread that waits on `conn` in `wait`, once it drives.
    fn driving_wait<T: Send + 'static>(
        pkg: &Pkg,
        conn: &NcsConnection,
        wait: impl FnOnce() -> T + Send + 'static,
    ) -> ncs_threads::TypedJoinHandle<T> {
        use ncs_threads::ThreadPackageExt;
        until(pkg, "the task idle", || idle(conn));
        let waiting = pkg.spawn_typed("waiter", wait);
        until(pkg, "the waiter driving", || driving(conn));
        waiting
    }

    /// A thread blocked in `conn.recv_timeout`, once it drives.
    fn driving_receive(
        pkg: &Pkg,
        conn: &NcsConnection,
    ) -> ncs_threads::TypedJoinHandle<Result<Vec<u8>, SendError>> {
        let theirs = conn.clone();
        driving_wait(pkg, conn, move || theirs.recv_timeout(4 * LIVENESS))
    }

    /// A wait that drives fails within the close that ends its connection
    /// — a local one, the peer's, or its node's shutdown — on a socket and
    /// on a waker alike: a receive's, and a send's whose message the peer
    /// leaves unacknowledged (its receive half is held). A local close
    /// fails the send once it has lingered for the acknowledgement.
    #[test]
    fn every_close_fails_a_wait_that_drives() {
        on_both_packages(|pkg| {
            for wire in WIRES {
                for waiter in ["receive", "send"] {
                    for close in ["local", "peer", "shutdown"] {
                        let (a, b, ca, cb) = linked(pkg, wire, error_controlled());
                        let mut silence = Some(ca.shared.rx.lock());
                        let theirs = cb.clone();
                        let waiting = match waiter {
                            "receive" => driving_wait(pkg, &cb, move || {
                                theirs.recv_timeout(4 * LIVENESS).map(drop)
                            }),
                            _ => {
                                let sent = theirs.isend(b"unheard").expect("isend");
                                driving_wait(pkg, &cb, move || sent.wait_timeout(4 * LIVENESS))
                            }
                        };
                        match close {
                            "local" => cb.close(),
                            "peer" => ca.close(),
                            _ => b.shutdown(),
                        }
                        // The peer's close goes out from its task.
                        if close == "peer" {
                            silence = None;
                        }
                        let got = waiting.join().expect("waiter");
                        assert_eq!(got, Err(SendError::Closed), "{wire:?}, {waiter}, {close}");
                        drop(silence);
                        a.shutdown();
                        b.shutdown();
                    }
                }
            }
        });
    }

    /// While a receiver drives, the task's other work still goes out: a
    /// multi-SDU message another thread hands over, and the messages
    /// held for the peer's acknowledgement (a control event).
    #[test]
    fn a_driving_receiver_runs_other_threads_sends_and_control_events() {
        on_both_packages(|pkg| {
            use ncs_threads::ThreadPackageExt;
            for wire in WIRES {
                let (a, b, ca, cb) = linked(pkg, wire, error_controlled());
                let receiving = driving_receive(pkg, &cb);
                let long: Vec<u8> = (0..5 * cb.config().sdu_size).map(|i| i as u8).collect();
                let sender = cb.clone();
                let message = long.clone();
                let sending = pkg.spawn_typed("sender", move || {
                    let sent: Vec<_> = [&message[..], b"one", b"two"]
                        .iter()
                        .map(|m| sender.isend(m).expect("isend"))
                        .collect();
                    sent.into_iter()
                        .map(|r| r.wait_timeout(LIVENESS))
                        .collect::<Vec<_>>()
                });
                for want in [&long[..], b"one", b"two"] {
                    assert_eq!(ca.recv_timeout(LIVENESS).expect("recv"), want, "{wire:?}");
                }
                let sent = sending.join().expect("sender");
                assert!(sent.iter().all(Result::is_ok), "{wire:?}: {sent:?}");
                assert!(driving(&cb), "{wire:?}: the receiver let go");
                ca.send(b"done").expect("send");
                assert_eq!(receiving.join().expect("receiver"), Ok(b"done".to_vec()));
                a.shutdown();
                b.shutdown();
            }
        });
    }

    /// Two receivers on one connection, the untagged stream and a
    /// channel: one drives, the other waits on its request, and each gets
    /// its own messages whichever order they come in.
    #[test]
    fn two_receivers_on_one_connection_are_both_served() {
        on_both_packages(|pkg| {
            use ncs_threads::ThreadPackageExt;
            for wire in WIRES {
                let (a, b, ca, cb) = linked(pkg, wire, ConnectionConfig::unreliable());
                for round in 0..20u8 {
                    until(pkg, "the task idle", || idle(&cb));
                    let (untagged, channel) = (cb.clone(), cb.channel(1));
                    let first = pkg.spawn_typed("untagged", move || untagged.recv());
                    let second = pkg.spawn_typed("channel", move || channel.recv());
                    until(pkg, "a receiver driving", || driving(&cb));
                    if round % 2 == 0 {
                        ca.send(&[round]).expect("send");
                        ca.channel(1).send(&[round, 1]).expect("send");
                    } else {
                        ca.channel(1).send(&[round, 1]).expect("send");
                        ca.send(&[round]).expect("send");
                    }
                    assert_eq!(first.join().expect("untagged"), Ok(vec![round]));
                    assert_eq!(second.join().expect("channel"), Ok(vec![round, 1]));
                }
                a.shutdown();
                b.shutdown();
            }
        });
    }

    /// A receive that times out while it drives hands the task back to
    /// its shard: a frame that comes later reaches a later `irecv` nobody
    /// waits on, and then a receive sink installed afterwards.
    #[test]
    fn a_receive_that_times_out_hands_the_task_back() {
        on_both_packages(|pkg| {
            for wire in WIRES {
                let (a, b, ca, cb) = linked(pkg, wire, ConnectionConfig::unreliable());
                until(pkg, "the task idle", || idle(&cb));
                let timeout = Duration::from_millis(20);
                assert_eq!(cb.recv_timeout(timeout), Err(SendError::Timeout));
                let later = cb.irecv();
                ca.send(b"later").expect("send");
                until(pkg, "the shard delivering", || later.test());
                assert_eq!(&*later.wait().expect("irecv"), b"later");
                let sunk = Arc::new(Mutex::new(Vec::new()));
                let into = Arc::clone(&sunk);
                cb.set_receive_sink(Some(Arc::new(move |m: Result<MsgView, SendError>| {
                    if let Ok(m) = m {
                        into.lock().push(m.to_vec());
                    }
                })));
                ca.send(b"sunk").expect("send");
                until(pkg, "the sink fed", || !sunk.lock().is_empty());
                assert_eq!(*sunk.lock(), [b"sunk".to_vec()], "{wire:?}");
                a.shutdown();
                b.shutdown();
            }
        });
    }

    /// An error-controlled connection whose thread waits holds its task
    /// while its own message, which lost a cell, waits for its
    /// retransmission deadline: the deadline fires and the thread
    /// retransmits the message itself. A thread that waits on a reply
    /// then gets it; one that waits on the message's own request, the
    /// acknowledgement.
    #[test]
    fn a_retransmission_deadline_fires_while_a_receiver_drives() {
        on_both_packages(|pkg| {
            use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
            for waiter in ["receiver", "sender"] {
                // Alice's uplink drops its 41st cell: past the handshake,
                // in the message.
                let net = NetworkBuilder::new()
                    .switch("sw")
                    .host("alice")
                    .host("bob")
                    .link(
                        "alice",
                        "sw",
                        LinkSpec::oc3().with_fault(FaultSpec::drop_plan(vec![40])),
                    )
                    .link("bob", "sw", LinkSpec::oc3())
                    .build()
                    .expect("atm network");
                let fabric = ncs_transport::aci::AciFabric::start(net, PumpConfig::speedup(4.0));
                let node = |name: &str| {
                    NcsNode::builder(name)
                        .thread_package(Arc::clone(pkg))
                        .build()
                };
                let (a, b) = (node("alice"), node("bob"));
                let dev = |host| Arc::new(fabric.device(host).expect("device"));
                let qos = QosParams::unspecified();
                a.attach_peer("bob", crate::link::AciLink::new(dev("alice"), "bob", qos));
                b.attach_peer("alice", crate::link::AciLink::new(dev("bob"), "alice", qos));
                let ca = a.connect("bob", error_controlled()).expect("connect");
                let cb = b.accept_default().expect("accept");
                let message = vec![7u8; 4_000];
                // Bob reads nothing until the retransmission: no
                // acknowledgement ends a wait before it.
                let silence = cb.shared.rx.lock();
                let sent = ca.isend(&message).expect("isend");
                let theirs = ca.clone();
                let waiting = match waiter {
                    "receiver" => driving_wait(pkg, &ca, move || {
                        let reply = theirs.recv_timeout(4 * LIVENESS)?;
                        assert_eq!(reply, b"reply");
                        sent.wait_timeout(LIVENESS)
                    }),
                    _ => driving_wait(pkg, &ca, move || sent.wait_timeout(4 * LIVENESS)),
                };
                until(pkg, "the retransmission", || {
                    ca.stats().retransmissions == 1
                });
                assert!(driving(&ca), "the {waiter} let go before the deadline");
                drop(silence);
                assert_eq!(cb.recv_timeout(LIVENESS).expect("repaired"), message);
                if waiter == "receiver" {
                    cb.send(b"reply").expect("send");
                }
                assert_eq!(waiting.join().expect("waiter"), Ok(()), "{waiter}");
                assert_eq!(fabric.stats().cells_lost, 1);
                a.shutdown();
                b.shutdown();
                fabric.shutdown();
            }
        });
    }

    /// An SCI loopback pair whose first end's socket send buffer is 4 KiB,
    /// so one large frame leaves a tail the socket has not taken.
    #[cfg(target_os = "linux")]
    pub(crate) fn sci_pair_with_a_small_send_buffer() -> (
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
    /// send the Send plane makes that write itself, each time the socket
    /// reports room, until the peer has drained enough: the peer here
    /// reads late, and the frame arrives whole with no later send. No
    /// timer fires while the tail is owed; the fd reports bring it out.
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
            None,
        );
        attach_connection(&reactor, &shared);
        let conn = NcsConnection::new(Arc::clone(&shared));
        let message: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        conn.send(&message).expect("send");
        assert!(shared.transport.owes_bytes(), "the socket took all of it");
        std::thread::sleep(Duration::from_millis(100));
        let owed = reactor.stats();
        assert!(shared.transport.owes_bytes(), "the tail left unread");
        assert_eq!(owed.timer_fires, 0, "a retry timer fired: {owed}");
        let frame = theirs
            .recv_timeout(Duration::from_secs(5))
            .expect("the whole frame");
        assert_eq!(
            DataPacket::peek(&frame).expect("a data frame").payload,
            message
        );
        // (The writer marks the tail written just after the write the
        // peer may already have read.)
        let written = Instant::now();
        while shared.transport.owes_bytes() {
            assert!(written.elapsed() < Duration::from_secs(5), "still owed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let sent = reactor.stats();
        assert_eq!(sent.timer_fires, 0, "a retry timer fired: {sent}");
        assert!(sent.fd_events > owed.fd_events, "no fd report: {sent}");
        conn.close();
        reactor.shutdown();
    }

    /// A train — small messages queued behind a session in flight, framed
    /// into one SDU — put on the wire by hand reaches its receiver whole:
    /// the receive half hands back its first message and keeps the rest
    /// for the next receives.
    #[test]
    fn a_train_put_on_the_wire_by_hand_delivers_every_message() {
        let a = NcsNode::builder("alice").build();
        let b = NcsNode::builder("bob").build();
        let (la, lb) = HpiLinkPair::create();
        a.attach_peer("bob", la);
        b.attach_peer("alice", lb);
        let ca = a
            .connect("bob", ConnectionConfig::unreliable())
            .expect("connect");
        let cb = b.accept_default().expect("accept");

        // A train as a threaded sender would frame it, put on the wire by
        // hand.
        let mut tx = ca.shared.tx.lock();
        let sender = &mut tx.plane;
        for data in [b"one".to_vec(), b"two".to_vec()] {
            sender.submit(Submission {
                data: Body::Pooled(PooledBuf::detached(data)),
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

        ca.send(b"real").expect("send");
        for want in [&b"one"[..], b"two", b"real"] {
            assert_eq!(cb.recv_timeout(Duration::from_secs(5)).expect("recv"), want);
        }
        let stats = cb.stats();
        assert_eq!((stats.frames_rejected, stats.messages_received), (0, 3));
        a.shutdown();
        b.shutdown();
    }
}
