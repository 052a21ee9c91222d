//! The Figure-4 flow- and error-control pipeline as two sans-I/O state
//! machines.
//!
//! The paper runs the same flow- and error-control algorithms two ways:
//! as per-connection threads activated through mailboxes (§3, Figure 4)
//! and as plain procedures on the caller (§4.2). Here the algorithms'
//! *driver* exists once. [`TxPlane`] is the sender half — error-control
//! backlog → the one session in flight (Figure 6) → flow-control release
//! (Figures 7/8) → "encode SDU *i* now" — and [`RxPlane`] the receiver
//! half — credit grant, reassembly, acknowledgement, delivery (Figure 4
//! steps 5-10). Both own their [`SenderEc`] / [`ReceiverEc`] /
//! [`FlowControlStrategy`] objects and never touch a transport, a
//! mailbox or a clock: frames and control events come in as arguments,
//! SDUs to encode and control messages to send come out as values, and
//! every method that depends on time takes `now`.
//!
//! Every connection runs them, configured or not: the paper's §3.1 bypass
//! is the null strategies. Without error control nothing waits for an
//! acknowledgement, so a message's completions leave with its last SDU
//! ([`Sdu::done`]) and resolve when the shell has written it; and the
//! receiver, having no strategy to consult, appends each payload straight
//! into one pooled buffer that becomes the delivered message.
//!
//! Figure 6's "one session in flight" holds as drawn; what a session
//! carries is an SDU's worth of queued messages, not always one. When the
//! sender starts a session and the messages queued behind the first fit in
//! the same SDU beside it, they ride along as a *train*: each message a
//! record — a 4-byte header (length; top bit = "carries a tag envelope")
//! and its bytes — in one body that runs as an ordinary one-SDU session:
//! one frame, one acknowledgement, and every completion of the train
//! resolves with the session's result. Nothing waits for a train to fill
//! and nothing configures it: only what is already queued rides, a lone
//! message goes out exactly as before, and a message longer than one SDU
//! is never packed. The receiver reassembles the body with the unchanged
//! strategy and splits it back into messages ([`Delivered`]).
//!
//! An interface that loses frames only by overrunning the receiver's ring
//! (HPI, [`Capabilities::overrun_ring`](ncs_transport::Capabilities))
//! loses nothing where no schedule can fill that ring, so such a
//! connection runs without error control whatever it was configured with
//! ([`plane_config`]): no acknowledgement, no retransmission timer, pooled
//! reassembly, and each message complete once the ring has taken its last
//! SDU. The credit edge still flows, once per receive drain. A ring carries
//! more than its sender's data: its feedback about the other side's data
//! rides it too, and one set-up or close frame. With `w` the widest window
//! and `p` the SDUs starvation probes may send past the edge, a ring holds
//! at most `2(w + p) + 1` unread frames, however late its receiver reads:
//!
//! * its sender's data: at most `w + p` beyond what the receiver took;
//! * its sender's feedback: one frame per receive drain that took a data
//!   frame, so each frame after the oldest unread one answers a data frame
//!   its receiver sent after the last edge it read — at most `w + p` in all;
//! * the acceptor's `AcceptConn` (no feedback can be behind it: its
//!   initiator sends nothing before it reads it) or the close, the
//!   channel's last frame. The initiator's hello is not repeated over such
//!   an interface: it cannot be lost.
//!
//! So error control goes where `2(w + 1) + 1` fits (67 frames for the
//! default window of 32), and probes send up to `(ring - 1) / 2 - w` SDUs
//! past the edge until an edge beyond them comes. Feedback on such a ring
//! is never lost, so a probe that goes is answered, and a direction cannot
//! stall waiting for the answer to its last probe. A session without
//! acknowledgements ends as its last SDU leaves,
//! so nothing would queue behind it to ride in a train; a message short
//! enough to share an SDU does not start a session while the previous
//! session has had no feedback since its last SDU left. The next credit
//! frame ends the wait, or the starvation probe's interval does. Messages
//! of an SDU or more never wait, so bulk messages pipeline up to the
//! window. Pooled reassembly takes a session's SDUs only in order, from
//! the first: a message missing one is dropped whole, never delivered
//! short, and where error control was asked for and left out, the loss is
//! the connection's sticky error.
//!
//! The wait for an acknowledgement is the one clock the sender keeps, and
//! it fits itself to the link (RFC 6298): every session acknowledged clean
//! without a retransmission gives a round-trip sample — last SDU released
//! → acknowledgement; a retransmitted session gives none (Karn) — and the
//! wait is `SRTT + 4·RTTVAR`, no shorter than [`MIN_RTO`], doubling with
//! every timeout of a session, and never longer than the configured
//! `timeout`, which is also what a connection waits before its first
//! sample. The clock runs from the last SDU released. A wait that ran out
//! below the configured timeout was an estimate, so what it triggers is a
//! *probe* ([`SenderEc::on_probe`]): same retransmission, no retry spent —
//! a silent peer is given up on no sooner than `(max_retries + 1) ×
//! timeout`, as if the timer never adapted.
//!
//! Under the credit window flow control counts *fresh* SDUs only: both
//! sides count a session by its high-water mark — one past the highest
//! SDU released, one past the highest seen — and a retransmission below it
//! is free. The receiver advertises a cumulative edge, the SDUs it has
//! taken plus its window `W` ([`RxPlane::advertise`]); a lost frame
//! holds nothing once a later one arrives, and a hole is repaired
//! outside the window. (A pacer such as the rate-based bucket meters
//! every frame, retransmissions included.) A round whose fresh SDUs wait
//! for an edge that does not come still has its clock running; when it
//! runs out, the sender re-sends the highest SDU it released — free, and
//! its arrival moves the edge to everything released plus `W`. Such a
//! timeout spends a retry only if the edge has not moved since the
//! previous one: a peer that keeps answering is not silent.
//! The two sides agree on session boundaries: the sender drops the count
//! of a session it gives up on, the receiver that of a session it never
//! completed once a later one supersedes it (an edge advertised before
//! that still counts it: the next SDUs may overshoot the window by as
//! many). They disagree in one case: the receiver delivered a session
//! whose acknowledgements were all lost until the sender gave up — the
//! window is then larger by at most that session's SDUs. The starvation
//! probe (one fresh SDU past the edge after [`FC_STARVATION_PROBE`]
//! without feedback) is left for a round with nothing released and its
//! last advertisement lost.
//!
//! Where the paper's Figure 4 has flow and error control each talk to the
//! peer, the receiver sends one feedback frame: the edge an arrival owes
//! rides in the acknowledgement that answers it ([`CtrlEvent::Ack`]), and
//! the sender takes the edge first, then the acknowledgement. Only an
//! arrival that no acknowledgement answers — a middle SDU of a
//! selective-repeat session — leaves its edge to the end of the receive
//! drain, where it goes alone ([`CtrlEvent::Credit`]). The strategies stay
//! separate objects; only the frame is shared, so losing it loses both.
//!
//! One driver in [`crate::connection`] runs them: the connection's
//! receive and send steps, which the reactor task runs — on its shard or
//! on the thread that waits on it — with deadlines as reactor timers.
//! Being free of I/O is also what lets the tests
//! below wire a `TxPlane` to an `RxPlane` through an in-test wire and
//! enumerate loss schedules exhaustively.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_obs::{Counter, EventKind, FlightRecorder};
use ncs_threads::sync::Event;
use parking_lot::Mutex;

use crate::config::{ConnectionConfig, ErrorControlAlg};
use crate::connection::SendError;
use crate::error_control::{
    build_receiver, build_sender, AckInfo, ReceiverEc, ReceiverStep, SenderEc, SenderStep,
};
use crate::flow_control::{build as build_fc, widest_window, FlowControlStrategy};
use crate::packet::DataView;
use crate::pool::{BufPool, PooledBuf, MAX_RETAIN_CAPACITY};
use crate::request::{MsgBody, RequestCore};
use crate::seq::{wrapping_ahead, AckBitmap};
use crate::stats::ConnCounters;

/// How long the sender tolerates fresh SDUs queued behind flow control,
/// with none of the round released and no feedback, before letting one
/// past the edge. Feedback travels against the data on its channel, which
/// over ACI can lose cells; without this probe a lost advertisement at a
/// session boundary would starve the sender forever.
const FC_STARVATION_PROBE: Duration = Duration::from_millis(500);

/// The shortest wait for an acknowledgement, however fast the link
/// measures. An acknowledgement is late by a scheduler slice whenever the
/// peer's event loop was not running when the frame arrived (4 ms at
/// HZ = 250, and a batch-class thread is not preempted for it), and a
/// timer that fires into that retransmits a message that was never lost;
/// the lossless benchmark workloads must read 0 retransmissions. It is
/// also 2½ × the reactor's `TIMER_SLACK`, so that the deadline is still
/// two ticks ahead when it reaches the event loop and is kept lazily: an
/// acknowledged message never makes a loop park short.
pub(crate) const MIN_RTO: Duration = Duration::from_millis(10);

/// The configuration a connection's planes run: the application's, without
/// error control where the interface loses a frame only when its receiver
/// has a ring's worth unread (`ring`) and no schedule can leave that many:
/// the ring holds both sides' widest reach — its sender's data and its
/// sender's feedback, each the window plus the one SDU a starvation probe
/// may send past the edge — and a set-up or close frame (see the module
/// docs). Probes stop where that fills the ring ([`TxPlane::may_probe`]).
pub(crate) fn plane_config(config: &ConnectionConfig, ring: Option<usize>) -> ConnectionConfig {
    let mut planes = config.clone();
    if probe_allowance(config, ring).is_some() {
        planes.error_control = ErrorControlAlg::None;
    }
    planes
}

/// The SDUs starvation probes may send past the edge over a ring of
/// `ring` frames under `config`'s widest window `w`: the most `p` with
/// `2(w + p) + 1` frames in the ring — `None` where not even one fits, or
/// no ring or no window bounds what waits unread.
fn probe_allowance(config: &ConnectionConfig, ring: Option<usize>) -> Option<u32> {
    let window = widest_window(&config.flow_control)? as usize;
    let room = (ring?.checked_sub(1)? / 2).checked_sub(window)?;
    (room > 0).then_some(room as u32)
}

/// Where the planes report: the connection's counters, its flight
/// recorder and its sticky send error. All three are shared handles, so a
/// clone observes (and feeds) the same connection.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlaneObs {
    pub counters: ConnCounters,
    pub recorder: FlightRecorder,
    pub last_error: Arc<Mutex<Option<SendError>>>,
}

/// The most bytes a message body keeps in place, in its [`Submission`]:
/// a cache line's worth. A short message waits for its train in no buffer
/// of its own.
const SHORT_BODY: usize = 64;

/// A message body: in place when it is short, else in a buffer of the
/// node's pool.
#[derive(Debug)]
pub(crate) enum Body {
    Short(u8, [u8; SHORT_BODY]),
    Pooled(PooledBuf),
}

impl Body {
    /// `data` behind `tag`'s envelope, if it has one, as one body.
    pub(crate) fn new(tag: Option<u32>, data: &[u8], pool: &Arc<BufPool>) -> Body {
        let envelope = tag.map(u32::to_be_bytes);
        let head = envelope.as_ref().map_or(&[][..], |e| e);
        let len = head.len() + data.len();
        if len <= SHORT_BODY {
            let mut bytes = [0; SHORT_BODY];
            bytes[..head.len()].copy_from_slice(head);
            bytes[head.len()..len].copy_from_slice(data);
            return Body::Short(len as u8, bytes);
        }
        let mut buf = pool.get_for(len);
        buf.vec_mut().extend_from_slice(head);
        buf.vec_mut().extend_from_slice(data);
        Body::Pooled(buf)
    }
}

impl std::ops::Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Body::Short(len, bytes) => &bytes[..*len as usize],
            Body::Pooled(buf) => buf,
        }
    }
}

/// One message handed to the send side.
#[derive(Debug)]
pub(crate) struct Submission {
    /// The message body, tag envelope included.
    pub data: Body,
    /// The body starts with a tag envelope (sets the header flag on every
    /// SDU).
    pub tagged: bool,
    /// Resolved when error control finishes the message, either way, or —
    /// without error control — when its last SDU is written.
    pub completion: Option<Arc<RequestCore<()>>>,
    /// Fired when the pipeline takes the message off the submission queue
    /// (the hand-off `NcsConnection::send_handoff` returns on); the shell's
    /// to fire, never the plane's.
    pub accepted: Option<Arc<Event>>,
}

/// What the peer's receive side tells this sender, against the data on
/// their channel: one feedback frame.
#[derive(Debug, Clone)]
pub(crate) enum CtrlEvent {
    /// An acknowledgement of `session`, and the credit edge the receiver
    /// advertised with it, if the arrival it answers owed one.
    Ack {
        session: u32,
        info: AckInfo,
        edge: Option<u32>,
    },
    /// Flow-control feedback alone: the receiver's credit edge.
    Credit(u32),
}

/// One SDU the sender wants on the wire now: everything a data header
/// needs except the connection ids, which belong to the shell.
pub(crate) struct Sdu<'a> {
    pub session: u32,
    pub seq: u32,
    pub end: bool,
    pub tagged: bool,
    /// The payload is a train of records, not one message.
    pub packed: bool,
    pub payload: &'a [u8],
    /// Completions the write of this SDU resolves: those of its session
    /// when it is the last SDU of one that expects no acknowledgement,
    /// else none.
    pub done: Vec<Arc<RequestCore<()>>>,
}

/// SDUs a body of `len` bytes segments into.
pub(crate) fn sdu_count(len: usize, sdu_size: usize) -> u32 {
    len.div_ceil(sdu_size).max(1) as u32
}

impl<'a> Sdu<'a> {
    /// SDU `seq` of `body`, cut every `sdu_size` bytes — the one
    /// segmenter.
    pub(crate) fn of(
        body: &'a [u8],
        sdu_size: usize,
        session: u32,
        tagged: bool,
        seq: u32,
    ) -> Self {
        let lo = seq as usize * sdu_size;
        let hi = (lo + sdu_size).min(body.len());
        Sdu {
            session,
            seq,
            end: hi == body.len(),
            tagged,
            packed: false,
            payload: &body[lo..hi],
            done: Vec::new(),
        }
    }
}

/// Header of one record of a train: a big-endian `u32`, the record's
/// length in the low 31 bits and [`RECORD_TAGGED`] on top.
const RECORD_HEADER: usize = 4;
/// The record's bytes start with a tag envelope.
const RECORD_TAGGED: u32 = 1 << 31;

/// Appends `data` to a train as one record. A record is at most an SDU
/// long, far inside the header's 31 bits.
fn push_record(train: &mut Vec<u8>, data: &[u8], tagged: bool) {
    debug_assert!(!data.is_empty(), "`check_sendable` admits no empty message");
    let flag = if tagged { RECORD_TAGGED } else { 0 };
    train.extend_from_slice(&(data.len() as u32 | flag).to_be_bytes());
    train.extend_from_slice(data);
}

/// The record of `train` that starts at `at`: its bytes, its tag flag and
/// where the next one starts. `None` if no well-formed record starts
/// there — the header or the bytes run past the end, or the record is
/// empty (no message is).
fn record_at(train: &[u8], at: usize) -> Option<(&[u8], bool, usize)> {
    let data_at = at.checked_add(RECORD_HEADER)?;
    let head = u32::from_be_bytes(train.get(at..data_at)?.try_into().ok()?);
    let len = (head & !RECORD_TAGGED) as usize;
    let end = data_at.checked_add(len)?;
    let data = train.get(data_at..end)?;
    (len > 0).then_some((data, head & RECORD_TAGGED != 0, end))
}

/// The messages one arriving frame completed, in order, each with its
/// tag flag: none, the one reassembled message — handed over as it is —
/// or the records of a train, each a view of its range of the train's
/// body, which the records share: nothing is copied or allocated per
/// record.
#[derive(Debug, Default)]
pub(crate) enum Delivered {
    #[default]
    Nothing,
    Whole(PooledBuf, bool),
    /// A validated train and where its next record starts.
    Train {
        body: Arc<PooledBuf>,
        at: usize,
    },
}

impl Delivered {
    /// The records of `body`, or `None` unless it is one well-formed
    /// record after another from its first byte to its last: a train
    /// yields all of its messages or none. The records share `body` in
    /// `shared`, the last train's, if its records are all gone, and else
    /// in a new one, which is kept for the next train.
    fn train(body: PooledBuf, shared: &mut Option<Arc<PooledBuf>>) -> Option<Self> {
        let mut at = 0;
        while at < body.len() {
            at = record_at(&body, at)?.2;
        }
        (at > 0).then_some(())?;
        match shared.as_mut().and_then(Arc::get_mut) {
            Some(last) => *last = body,
            None => *shared = Some(Arc::new(body)),
        }
        let body = Arc::clone(shared.as_ref().expect("just set"));
        Some(Delivered::Train { body, at: 0 })
    }
}

impl Iterator for Delivered {
    type Item = (MsgBody, bool);

    fn next(&mut self) -> Option<Self::Item> {
        match std::mem::take(self) {
            Delivered::Nothing => None,
            Delivered::Whole(body, tagged) => Some((MsgBody::Own(body), tagged)),
            Delivered::Train { body, at } => {
                let (data, tagged, end) = record_at(&body, at)?;
                let record = MsgBody::Record(Arc::clone(&body), end - data.len()..end);
                if end < body.len() {
                    *self = Delivered::Train { body, at: end };
                }
                Some((record, tagged))
            }
        }
    }
}

/// The error-control session in flight (one at a time, Figure 6): one
/// message, or a train of them in one SDU. The body is kept once; SDUs
/// are cut from it each time one is released. The completions of its
/// messages are [`TxPlane::completions`].
#[derive(Debug)]
struct Session {
    id: u32,
    body: Body,
    tagged: bool,
    /// The body is a train of records.
    packed: bool,
    /// Messages the body carries: all of them share the session's fate.
    messages: u64,
    /// One past the highest SDU released: below it an SDU goes again free
    /// of a window (a pacer still meters it); at or above it, it is fresh.
    high: u32,
    /// Something was sent again: the session's round trip is no sample.
    retransmitted: bool,
    /// Acknowledgement waits that ran out; each doubles the next.
    timeouts: u32,
    /// `high` when a timeout last found fresh SDUs waiting for the edge.
    stalled_at: u32,
    /// When an SDU was last released: the start of the acknowledgement
    /// clock. `None` from a strategy step until its first SDU leaves.
    sent_at: Option<Instant>,
}

/// Counts `n` SDUs of `session`, from `first`, going on the wire again.
fn note_retransmission(obs: &PlaneObs, session: &mut Session, first: u32, n: usize) {
    obs.counters.retransmissions.add(n as u64);
    obs.recorder.record(EventKind::Retransmit, 0, first, n);
    session.retransmitted = true;
}

/// The sender half of the pipeline.
#[derive(Debug)]
pub(crate) struct TxPlane {
    sdu_size: usize,
    ec: Box<dyn SenderEc>,
    fc: Box<dyn FlowControlStrategy>,
    obs: PlaneObs,
    /// Where trains are built.
    pool: Arc<BufPool>,
    /// Messages queued behind the session in flight.
    backlog: VecDeque<Submission>,
    active: Option<Session>,
    /// Sequence numbers of the active session waiting for flow control.
    pending: VecDeque<u32>,
    /// Completions of the active session's messages (kept here, not in
    /// the session, so a message a time costs no allocation).
    completions: Vec<Arc<RequestCore<()>>>,
    /// The storage of completions the shell resolved
    /// ([`TxPlane::recycle_done`]), for the sessions to come, once
    /// `completions` left with an SDU ([`Sdu::done`]): as many lists as
    /// were out at once (an SDU that resolves nothing carries none).
    spare_done: Vec<Vec<Arc<RequestCore<()>>>>,
    /// Last time feedback arrived or an SDU was released.
    last_progress: Instant,
    next_session: u32,
    /// Smoothed acknowledgement round trip and its mean deviation;
    /// `None` before the first sample.
    rtt: Option<(Duration, Duration)>,
    /// The wait for an acknowledgement before any back-off: the
    /// configured timeout until there is a sample, then the estimate
    /// within its bounds. `None` under an algorithm that expects none.
    rto: Option<Duration>,
    /// The last session's last SDU left and no feedback came since.
    unanswered: bool,
    /// A credit window without error control over a ring: how many SDUs
    /// starvation probes may send past the edge before an edge beyond
    /// them comes ([`TxPlane::may_probe`]) — what the ring holds beyond
    /// both sides' windows and the set-up frame, at least one (see the
    /// module docs). Such a connection also holds a short message back for
    /// feedback ([`TxPlane::held`]). `None`: no bound, no hold.
    probes: Option<u32>,
    /// SDUs probes sent past the edge since it last passed everything
    /// released.
    past: u32,
}

impl TxPlane {
    /// A plane for `config` over an interface that loses frames only when
    /// `ring` frames wait unread, if it says so.
    pub(crate) fn new(
        config: &ConnectionConfig,
        ring: Option<usize>,
        obs: PlaneObs,
        pool: &Arc<BufPool>,
        now: Instant,
    ) -> Self {
        let ec = build_sender(&config.error_control);
        // A window over a ring too narrow for the rule still probes, one
        // SDU at a time past the edge.
        let probes = (config.error_control == ErrorControlAlg::None
            && ring.is_some()
            && widest_window(&config.flow_control).is_some())
        .then(|| probe_allowance(config, ring).unwrap_or(1));
        let plane = TxPlane {
            sdu_size: config.sdu_size,
            rto: ec.ack_timeout(),
            ec,
            fc: build_fc(&config.flow_control),
            obs,
            pool: Arc::clone(pool),
            backlog: VecDeque::new(),
            active: None,
            pending: VecDeque::new(),
            completions: Vec::new(),
            spare_done: Vec::new(),
            last_progress: now,
            next_session: 0,
            rtt: None,
            unanswered: false,
            probes,
            past: 0,
        };
        plane.publish_rto(0);
        plane
    }

    /// The wait for an acknowledgement after `timeouts` of the session's
    /// waits ran out; `None` under an algorithm that expects none.
    fn backed_off_rto(&self, timeouts: u32) -> Option<Duration> {
        let doubled = self.rto?.saturating_mul(1 << timeouts.min(16));
        Some(doubled.min(self.ec.ack_timeout()?))
    }

    fn publish_rto(&self, timeouts: u32) {
        let rto = self.backed_off_rto(timeouts).unwrap_or_default();
        self.obs.counters.rto_us.set(rto.as_micros() as i64);
    }

    /// One clean round trip (RFC 6298 §2, α = 1/8, β = 1/4).
    fn sample(&mut self, rtt: Duration) {
        let (srtt, rttvar) = match self.rtt {
            None => (rtt, rtt / 2),
            Some((srtt, rttvar)) => ((7 * srtt + rtt) / 8, (3 * rttvar + srtt.abs_diff(rtt)) / 4),
        };
        self.rtt = Some((srtt, rttvar));
        let estimate = (srtt + 4 * rttvar).max(MIN_RTO);
        self.rto = self.ec.ack_timeout().map(|ceiling| estimate.min(ceiling));
        let counters = &self.obs.counters;
        counters.ack_rtt_us.record(rtt.as_micros() as u64);
        counters.srtt_us.set(srtt.as_micros() as i64);
        self.publish_rto(0);
    }

    /// When the session in flight stops waiting for an acknowledgement.
    /// Not while pacing holds back the rest of the round: that wait is the
    /// sender's own.
    fn ack_deadline(&self) -> Option<Instant> {
        let session = self.active.as_ref()?;
        let sent_at = session.sent_at?;
        if !self.pending.is_empty() && self.fc.next_poll(sent_at).is_some() {
            return None;
        }
        Some(sent_at + self.backed_off_rto(session.timeouts)?)
    }

    /// Queues a message behind whatever is in flight.
    pub(crate) fn submit(&mut self, submission: Submission) {
        self.backlog.push_back(submission);
    }

    /// Routes one feedback frame from the peer. An acknowledgement's edge
    /// is taken first: the receiver advertised it on the arrival it
    /// answers.
    pub(crate) fn on_event(&mut self, event: CtrlEvent, now: Instant) {
        match event {
            CtrlEvent::Ack {
                session,
                info,
                edge,
            } => {
                if let Some(edge) = edge {
                    self.on_credit(edge, now);
                }
                self.on_ack(session, info, now);
            }
            CtrlEvent::Credit(edge) => self.on_credit(edge, now),
        }
    }

    /// An acknowledgement of `session` arrived. Only the session in
    /// flight has anything to learn from one: an acknowledgement that
    /// arrives between sessions, or that names an earlier session (the
    /// receiver re-sends the clean acknowledgement of a delivered message
    /// for every duplicate end marker it sees), is dropped — fed to the
    /// strategy it could complete a message that was never delivered.
    pub(crate) fn on_ack(&mut self, session: u32, info: AckInfo, now: Instant) {
        let waiting = self.active.as_ref().is_some_and(|s| s.id == session) && self.rto.is_some();
        if !waiting {
            return;
        }
        self.obs.counters.acks_received.inc();
        let step = self.ec.on_ack(info);
        // `Wait` keeps waiting against the *same* deadline: a partial
        // acknowledgement does not restart the retransmission clock.
        if !matches!(step, SenderStep::Wait) {
            self.apply(step, now);
        }
    }

    /// The receiver's credit edge arrived; an edge already passed changes
    /// nothing.
    pub(crate) fn on_credit(&mut self, edge: u32, now: Instant) {
        let before = self.fc.permits(now);
        self.fc.on_feedback(edge);
        let after = self.fc.permits(now);
        let opened = after.saturating_sub(before);
        self.obs.counters.credits_received.add(opened as u64);
        self.last_progress = now;
        self.unanswered = false;
        // An edge beyond everything released: nothing is past it.
        self.past = if after > 0 { 0 } else { self.past };
    }

    /// Fires the acknowledgement timeout if it is due at `now`; returns
    /// whether it was.
    fn on_timeout(&mut self, now: Instant) -> bool {
        if self.ack_deadline().is_none_or(|deadline| now < deadline) {
            return false;
        }
        let blocked = !self.pending.is_empty();
        let session = self.active.as_mut().expect("a deadline has a session");
        let waited = session.timeouts;
        session.timeouts += 1;
        // Held back by the edge, a peer whose edge moved since the last
        // such timeout is answering, however often the frame that would
        // move it again is lost: its wait is no silence.
        let answering =
            blocked && std::mem::replace(&mut session.stalled_at, session.high) != session.high;
        self.obs.counters.ack_timeouts.inc();
        self.publish_rto(waited + 1);
        // Only the configured patience running out spends a retry.
        let step = if !answering && self.backed_off_rto(waited) == self.ec.ack_timeout() {
            self.ec.on_timeout()
        } else {
            self.ec.on_probe()
        };
        match step {
            // Fresh SDUs wait for an edge that did not come: whatever the
            // strategy would ask, the receiver learns nothing until they
            // leave. Re-send the highest SDU released instead — free, and
            // its arrival moves the edge past everything released.
            SenderStep::Transmit(_) | SenderStep::TransmitRange(_) if blocked => {
                let session = self.active.as_mut().expect("still in flight");
                let highest = session.high - 1;
                note_retransmission(&self.obs, session, highest, 1);
                session.sent_at = None;
                self.pending.push_front(highest);
            }
            step => self.apply(step, now),
        }
        true
    }

    /// Advances the sender as far as it can go at `now`: releases what
    /// flow control now permits (which restarts the acknowledgement clock),
    /// fires a due acknowledgement timeout, starts the next message once
    /// idle, and hands every SDU released to `emit`. Returns whether
    /// anything happened.
    pub(crate) fn poll(&mut self, now: Instant, mut emit: impl FnMut(Sdu<'_>)) -> bool {
        let mut progressed = self.release(now, &mut emit);
        progressed |= self.on_timeout(now);
        loop {
            if self.active.is_none() {
                if self.held() && now < self.last_progress + FC_STARVATION_PROBE {
                    break;
                }
                let Some(submission) = self.backlog.pop_front() else {
                    break;
                };
                self.start(submission, now);
                progressed = true;
            }
            progressed |= self.release(now, &mut emit);
            // Without acknowledgements a session is over once its last SDU
            // is released — its completions left with that SDU — and stays
            // until then because the SDUs are cut from its body.
            if self.pending.is_empty() && self.ec.completes_without_ack() {
                self.finish(Ok(()));
                self.unanswered = self.probes.is_some();
                continue;
            }
            break;
        }
        progressed
    }

    /// The next message is short and waits, so that what queues behind it
    /// rides along: under a credit window without error control, no
    /// feedback came since the last session's last SDU left. The next
    /// credit frame ends the wait, or the starvation probe's interval
    /// ([`TxPlane::next_deadline`]).
    fn held(&self) -> bool {
        // Room beside it in the SDU for another record.
        let short = |m: &Submission| 2 * RECORD_HEADER + m.data.len() < self.sdu_size;
        self.probes.is_some()
            && self.unanswered
            && self.active.is_none()
            && self.backlog.front().is_some_and(short)
    }

    /// Whether a starvation probe may send an SDU past the edge: not while
    /// an acknowledgement clock runs (a running one re-sends, and that
    /// re-advertises), and, over a ring without error control, not once
    /// the SDUs past the edge fill what the ring holds beyond the window —
    /// however long the receiver is silent, its ring never overruns.
    fn may_probe(&self) -> bool {
        self.ack_deadline().is_none() && self.past < self.probes.unwrap_or(u32::MAX)
    }

    /// The earliest instant [`TxPlane::poll`] has work without a new
    /// event: the acknowledgement timeout, and — only while SDUs wait for
    /// flow control — the algorithm's own pacing and the starvation probe
    /// ([`TxPlane::may_probe`]); or the end of a held message's wait.
    /// `None` = only an event can move the sender.
    pub(crate) fn next_deadline(&self, now: Instant) -> Option<Instant> {
        let ack = self.ack_deadline();
        let probe = self.last_progress + FC_STARVATION_PROBE;
        let (pace, starved) = if self.pending.is_empty() {
            (None, None)
        } else {
            (self.fc.next_poll(now), self.may_probe().then_some(probe))
        };
        let held = self.held().then_some(probe);
        [ack, pace, starved, held].into_iter().flatten().min()
    }

    /// A message is in flight, or held: nothing queued behind it can start
    /// before an event or a deadline ends it.
    pub(crate) fn in_flight(&self) -> bool {
        self.active.is_some() || self.held()
    }

    /// Nothing in flight and nothing queued.
    pub(crate) fn is_idle(&self) -> bool {
        self.active.is_none() && self.backlog.is_empty()
    }

    /// Abandons everything: the session in flight fails like a delivery
    /// error, the messages queued behind it resolve `error` unsent.
    pub(crate) fn fail_all(&mut self, error: SendError) {
        self.finish(Err(error.clone()));
        for submission in self.backlog.drain(..) {
            if let Some(c) = submission.completion {
                c.complete(Err(error.clone()));
            }
        }
    }

    /// Starts the next session: `first`, and with it every message queued
    /// behind it that fits in the same SDU as a record beside it. A
    /// message alone in its session goes out as it is, header-less; a
    /// train is built in a buffer of the pool.
    fn start(&mut self, first: Submission, now: Instant) {
        let id = self.next_session;
        self.next_session = id.wrapping_add(1);
        let mut train_len = RECORD_HEADER + first.data.len();
        let mut riders = 0;
        for queued in &self.backlog {
            let longer = train_len + RECORD_HEADER + queued.data.len();
            if longer > self.sdu_size {
                break;
            }
            train_len = longer;
            riders += 1;
        }
        let packed = riders > 0;
        let recorder = &self.obs.recorder;
        let len = if packed { train_len } else { first.data.len() };
        recorder.record(EventKind::EcSession, 0, id, len);
        recorder.record(EventKind::Packetize, 0, id, first.data.len());
        self.completions.extend(first.completion);
        let (mut body, mut tagged) = (first.data, first.tagged);
        if packed {
            let mut train = self.pool.get();
            push_record(train.vec_mut(), &body, tagged);
            for message in self.backlog.drain(..riders) {
                recorder.record(EventKind::Packetize, 0, id, message.data.len());
                self.completions.extend(message.completion);
                push_record(train.vec_mut(), &message.data, message.tagged);
            }
            (body, tagged) = (Body::Pooled(train), false);
        }
        let messages = 1 + riders as u64;
        self.obs.counters.messages_sent.add(messages);
        let total = sdu_count(body.len(), self.sdu_size);
        self.active = Some(Session {
            id,
            body,
            tagged,
            packed,
            messages,
            high: 0,
            retransmitted: false,
            timeouts: 0,
            stalled_at: 0,
            sent_at: None,
        });
        let step = self.ec.begin(total);
        self.apply(step, now);
    }

    /// Applies one strategy step to the session in flight.
    fn apply(&mut self, step: SenderStep, now: Instant) {
        let Some(session) = self.active.as_mut() else {
            return;
        };
        let (listed, run): (&[u32], _) = match step {
            SenderStep::Transmit(ref seqs) => (seqs, 0..0),
            SenderStep::TransmitRange(ref seqs) => (&[], seqs.clone()),
            SenderStep::Done => {
                if let (false, Some(sent_at)) = (session.retransmitted, session.sent_at) {
                    self.sample(now.saturating_duration_since(sent_at));
                }
                return self.finish(Ok(()));
            }
            SenderStep::Failed(why) => return self.finish(Err(SendError::DeliveryFailed(why))),
            SenderStep::Wait => return,
        };
        let seqs = listed.iter().copied().chain(run);
        // Below the high-water mark an SDU was on the wire before; above
        // it, it is fresh — a go-back-N window sliding open retransmits
        // nothing.
        let again = seqs.clone().filter(|&seq| seq < session.high).count();
        if let (true, Some(first)) = (again > 0, seqs.clone().next()) {
            note_retransmission(&self.obs, session, first, again);
            // A retransmission round supersedes whatever of the session
            // still waits for flow control (keeps timeout storms from
            // ballooning the queue behind stale duplicates).
            self.pending.clear();
        }
        self.pending.extend(seqs);
        // The clock starts over when the step's first SDU leaves.
        session.sent_at = None;
    }

    /// Hands `emit` the waiting SDUs flow control lets out at `now`: a
    /// window counts what moves the high-water mark, so an SDU that goes
    /// again is free; a pacer meters every frame.
    fn release(&mut self, now: Instant, emit: &mut impl FnMut(Sdu<'_>)) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let unacknowledged = self.ec.completes_without_ack();
        // Starvation probe: rather than stall forever on lost feedback,
        // trickle one SDU out so that the receiver advertises again.
        let starved =
            self.may_probe() && now.duration_since(self.last_progress) >= FC_STARVATION_PROBE;
        let paced = self.fc.next_poll(now).is_some();
        let Some(session) = &mut self.active else {
            return false;
        };
        let (mut permits, mut spent, mut released) = (self.fc.permits(now), 0, false);
        while let Some(&seq) = self.pending.front() {
            let cost = if seq >= session.high {
                seq + 1 - session.high
            } else {
                u32::from(paced)
            };
            if cost > permits {
                // Stalled: note the queue depth for the recorder.
                let waiting = self.pending.len();
                self.obs.recorder.record(EventKind::FcWait, 0, 0, waiting);
                if !starved || released {
                    break;
                }
                permits = cost;
                self.past += cost;
            }
            permits -= cost;
            spent += cost;
            session.high = session.high.max(seq + 1);
            self.pending.pop_front();
            let done = if unacknowledged && self.pending.is_empty() {
                let next = self.spare_done.pop().unwrap_or_default();
                std::mem::replace(&mut self.completions, next)
            } else {
                Vec::new()
            };
            emit(Sdu {
                packed: session.packed,
                done,
                ..Sdu::of(
                    &session.body,
                    self.sdu_size,
                    session.id,
                    session.tagged,
                    seq,
                )
            });
            released = true;
        }
        if released {
            self.fc.on_transmit(spent);
            self.last_progress = now;
            session.sent_at = Some(now);
        }
        released
    }

    /// Takes back the storage of completions an SDU carried out
    /// ([`Sdu::done`]) once the shell resolved them.
    pub(crate) fn recycle_done(&mut self, done: Vec<Arc<RequestCore<()>>>) {
        debug_assert!(done.is_empty(), "resolved completions only");
        if done.capacity() > 0 {
            self.spare_done.push(done);
        }
    }

    /// Resolves the session in flight: a failure sticks on the
    /// connection and counts once per message the session carried, and
    /// the `isend` completions (if any) all resolve with `result`.
    fn finish(&mut self, result: Result<(), SendError>) {
        let Some(session) = self.active.take() else {
            return;
        };
        self.pending.clear();
        if session.timeouts > 0 {
            self.publish_rto(0); // the next session starts without back-off
        }
        if let Err(e) = &result {
            *self.obs.last_error.lock() = Some(e.clone());
            self.obs.counters.send_failures.add(session.messages);
            // The receiver drops the session once a later one supersedes it.
            self.fc.on_abandon(session.high);
        }
        for c in self.completions.drain(..) {
            c.complete(result.clone());
        }
    }
}

/// What one arriving data frame asks the shell to do — and, if it owes
/// one, to advertise the credit edge ([`RxPlane::advertise`]) in the
/// acknowledgement, or alone once the receive drain ends.
#[derive(Debug, Default)]
pub(crate) struct RxStep {
    /// Acknowledgement of the frame's session to send.
    pub ack: Option<AckInfo>,
    /// The messages the frame completed: deliver them, in order.
    pub delivered: Delivered,
    /// The frame showed a message lost: nothing repairs it.
    pub lost: bool,
}

/// How the SDUs of a session become its message.
#[derive(Debug)]
enum Reassembly {
    /// The error-control strategy, in buffers of its own.
    Strategy(Box<dyn ReceiverEc>),
    /// No error control: each payload is appended, in arrival order, to one
    /// buffer from the pool, which is delivered on the end bit as it is and
    /// returns to the pool when the application drops the message. The
    /// buffer grows no larger than the pool keeps, unless the message needs
    /// it ([`PooledBuf::extend_retained`]).
    Pooled {
        pool: Arc<BufPool>,
        message: Option<PooledBuf>,
    },
}

/// The receiver half of the pipeline.
#[derive(Debug)]
pub(crate) struct RxPlane {
    reassembly: Reassembly,
    fc: Box<dyn FlowControlStrategy>,
    /// The session being reassembled.
    session: Option<u32>,
    /// Sessions below this were fully delivered: their retransmissions
    /// are duplicates (the original acknowledgement was lost) and must be
    /// re-acknowledged, never re-delivered.
    delivered_below: u32,
    /// SDUs taken since the connection opened (wrapping): every SDU of a
    /// delivered session, and `high` of `session` — what the sender counts
    /// as fresh, the same way.
    taken: u32,
    /// One past the highest SDU of `session` seen. A hole below it holds
    /// no window: its repair is free to the sender.
    high: u32,
    /// The sender may give a session up (its error control waits for
    /// acknowledgements) and then drops that session's SDUs: so does this
    /// side, for a session superseded before it was delivered.
    forget_superseded: bool,
    /// The window flow control last named (0 = it advertises nothing).
    window: u32,
    /// A frame arrived since the edge was last advertised.
    owed: bool,
    /// The highest edge advertised; before the first advertisement, the
    /// sender's initial one — the window first named.
    advertised: Option<u32>,
    /// The body the last train's records share ([`Delivered::train`]).
    train: Option<Arc<PooledBuf>>,
    /// Frames refused ([`ConnectionStats::frames_rejected`](crate::ConnectionStats)).
    rejected: Counter,
    /// SDUs the advertised edge advanced.
    granted: Counter,
}

impl RxPlane {
    pub(crate) fn new(
        config: &ConnectionConfig,
        counters: &ConnCounters,
        pool: &Arc<BufPool>,
    ) -> Self {
        let reassembly = match build_receiver(&config.error_control) {
            Some(ec) => Reassembly::Strategy(ec),
            None => Reassembly::Pooled {
                pool: Arc::clone(pool),
                message: None,
            },
        };
        RxPlane {
            reassembly,
            fc: build_fc(&config.flow_control),
            session: None,
            delivered_below: 0,
            taken: 0,
            high: 0,
            forget_superseded: config.error_control != ErrorControlAlg::None,
            window: 0,
            owed: false,
            advertised: None,
            train: None,
            rejected: counters.frames_rejected.clone(),
            granted: counters.credits_granted.clone(),
        }
    }

    /// The credit edge — SDUs taken plus the window — if an arrival owes
    /// it since the last call. Every arrival does, duplicates and refused
    /// frames included, so a lost advertisement is healed by the next one.
    pub(crate) fn advertise(&mut self) -> Option<u32> {
        if !std::mem::take(&mut self.owed) {
            return None;
        }
        let edge = self.taken.wrapping_add(self.window);
        let advertised = self.advertised.get_or_insert(self.window);
        let advanced = wrapping_ahead(edge, *advertised);
        *advertised = advertised.wrapping_add(advanced);
        self.granted.add(advanced as u64);
        Some(edge)
    }

    /// One data frame arrived.
    pub(crate) fn on_frame(&mut self, frame: &DataView<'_>, now: Instant) -> RxStep {
        let h = frame.header;
        self.window = self.fc.on_receive(now);
        self.owed |= self.window > 0;
        let mut step = RxStep::default();
        // No strategy sees a sequence number its bitmap cannot hold, or a
        // train that is not the whole one-SDU session a train always is:
        // no sender here builds either.
        if h.seq >= AckBitmap::MAX_TOTAL || (frame.packed && !(h.seq == 0 && h.end)) {
            self.rejected.inc();
            return step;
        }
        if h.session < self.delivered_below {
            // Duplicate of a delivered message: re-send the clean
            // acknowledgement when its end marker shows up, so the sender
            // can finish even though the first one died.
            if let (true, Reassembly::Strategy(ec)) = (h.end, &self.reassembly) {
                step.ack = Some(match ec.name() {
                    "go-back-n" => AckInfo::Cumulative(h.seq + 1),
                    _ => AckInfo::Bitmap(AckBitmap::all_received(h.seq + 1)),
                });
            }
            return step;
        }
        match self.session {
            Some(s) if s == h.session => {}
            Some(s) if h.session < s => return step, // stale retransmission
            _ => {
                if self.forget_superseded {
                    self.taken = self.taken.wrapping_sub(self.high);
                }
                self.high = 0;
                match &mut self.reassembly {
                    Reassembly::Strategy(ec) => ec.reset(),
                    Reassembly::Pooled { message, .. } => *message = None,
                }
                self.session = Some(h.session);
            }
        }
        let next = self.high;
        let fresh = (h.seq + 1).saturating_sub(self.high);
        self.taken = self.taken.wrapping_add(fresh);
        self.high += fresh;
        let (ack, body) = match &mut self.reassembly {
            Reassembly::Strategy(ec) => match ec.on_packet(h.seq, h.end, frame.payload.to_vec()) {
                ReceiverStep::Ack(a) => (Some(a), None),
                ReceiverStep::Deliver(m) => (None, Some(PooledBuf::detached(m))),
                ReceiverStep::AckAndDeliver(a, m) => (Some(a), Some(PooledBuf::detached(m))),
                ReceiverStep::Continue => (None, None),
            },
            // Nothing repairs a missing SDU here: an SDU out of turn, or
            // one of a message whose start went missing, drops it whole.
            Reassembly::Pooled { message: m, .. } if h.seq != next || (next > 0 && m.is_none()) => {
                *m = None;
                self.rejected.inc();
                step.lost = true;
                (None, None)
            }
            Reassembly::Pooled { pool, message } => {
                // A message of more than one SDU takes a large buffer.
                let len = if h.end { 0 } else { MAX_RETAIN_CAPACITY };
                let buf = message.get_or_insert_with(|| pool.get_for(len));
                buf.extend_retained(frame.payload);
                (None, if h.end { message.take() } else { None })
            }
        };
        step.ack = ack;
        if let Some(body) = body {
            self.delivered_below = h.session.wrapping_add(1);
            self.session = None;
            self.high = 0; // taken for good
            step.delivered = if !frame.packed {
                Delivered::Whole(body, h.tagged)
            } else {
                // A train that does not parse arrived intact — error
                // control has nothing to repair — so it is acknowledged
                // like any session, and dropped whole.
                Delivered::train(body, &mut self.train).unwrap_or_else(|| {
                    self.rejected.inc();
                    Delivered::default()
                })
            };
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErrorControlAlg, FlowControlAlg};
    use crate::packet::{DataHeader, DataPacket};
    use proptest::prelude::*;
    use proptest::test_runner::{ProptestConfig, TestCaseError};

    const SDU: usize = 4;

    fn sr() -> ErrorControlAlg {
        ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_secs(1),
            max_retries: 4,
        }
    }

    fn gbn() -> ErrorControlAlg {
        ErrorControlAlg::GoBackN {
            window: 2,
            timeout: Duration::from_secs(1),
            max_retries: 4,
        }
    }

    fn credit() -> FlowControlAlg {
        FlowControlAlg::CreditBased {
            initial_credits: 2,
            dynamic: false,
        }
    }

    fn config(error_control: ErrorControlAlg, flow_control: FlowControlAlg) -> ConnectionConfig {
        ConnectionConfig {
            sdu_size: SDU,
            flow_control,
            error_control,
        }
    }

    /// An SDU that holds three `body(_, 1)` as records, and not four;
    /// `body(_, LONG)` takes three of them.
    const TRAIN_SDU: usize = 24;
    const LONG: usize = 13;

    fn train_config(ec: ErrorControlAlg, fc: FlowControlAlg) -> ConnectionConfig {
        ConnectionConfig {
            sdu_size: TRAIN_SDU,
            ..config(ec, fc)
        }
    }

    fn rx_plane(cfg: &ConnectionConfig) -> (RxPlane, Counter) {
        let counters = ConnCounters::default();
        (
            RxPlane::new(cfg, &counters, &BufPool::new()),
            counters.frames_rejected,
        )
    }

    /// Message `i` of a run: `sdus` SDUs, the last one short, every byte
    /// distinct from its neighbours in other messages.
    fn body(i: usize, sdus: usize) -> Vec<u8> {
        (0..sdus * SDU - 1).map(|j| (i * 37 + j) as u8).collect()
    }

    fn submit(tx: &mut TxPlane, data: Vec<u8>) -> Arc<RequestCore<()>> {
        let completion = RequestCore::new();
        tx.submit(Submission {
            data: Body::Pooled(PooledBuf::detached(data)),
            tagged: false,
            completion: Some(Arc::clone(&completion)),
            accepted: None,
        });
        completion
    }

    #[test]
    fn segmentation_cuts_at_sdu_boundaries_and_marks_the_end() {
        let data: Vec<u8> = (0..10).collect();
        assert_eq!(sdu_count(data.len(), SDU), 3);
        let cut: Vec<(&[u8], bool)> = (0..3)
            .map(|seq| Sdu::of(&data, SDU, 7, false, seq))
            .map(|s| (s.payload, s.end))
            .collect();
        assert_eq!(
            cut,
            [
                (&data[0..4], false),
                (&data[4..8], false),
                (&data[8..10], true)
            ]
        );
        // An exact multiple has no empty trailing SDU.
        assert_eq!(sdu_count(8, SDU), 2);
        assert!(Sdu::of(&data[..8], SDU, 7, false, 1).end);
    }

    /// The duplicate end-marker acknowledgement of message N arrives while
    /// message N+1 — same SDU count, so the same bitmap shape — is in
    /// flight. It must not complete N+1: nothing has acknowledged N+1 yet.
    #[test]
    fn stale_end_marker_ack_does_not_complete_the_next_message() {
        for (ec, clean_ack) in [
            (sr(), AckInfo::Bitmap(AckBitmap::all_received(1))),
            (gbn(), AckInfo::Cumulative(1)),
        ] {
            let now = Instant::now();
            let mut tx = TxPlane::new(
                &config(ec, FlowControlAlg::None),
                None,
                PlaneObs::default(),
                &BufPool::new(),
                now,
            );
            let first = submit(&mut tx, body(0, 1));
            let second = submit(&mut tx, body(1, 1));
            let mut sent = Vec::new();
            tx.poll(now, |sdu| sent.push(sdu.session));
            tx.on_ack(0, clean_ack.clone(), now);
            assert_eq!(first.take(), Some(Ok(())));
            tx.poll(now, |sdu| sent.push(sdu.session));
            assert_eq!(sent, [0, 1], "the second message is in flight");

            tx.on_ack(0, clean_ack.clone(), now);
            assert!(
                !second.is_complete(),
                "a stale acknowledgement of session 0 completed session 1"
            );
            tx.on_ack(1, clean_ack, now);
            assert_eq!(second.take(), Some(Ok(())));
            assert!(tx.is_idle());
        }
    }

    /// The same between trains: the late duplicate of train N's clean
    /// acknowledgement completes none of the messages riding in train N+1.
    #[test]
    fn stale_end_marker_ack_does_not_complete_the_next_train() {
        for (ec, clean_ack) in [
            (sr(), AckInfo::Bitmap(AckBitmap::all_received(1))),
            (gbn(), AckInfo::Cumulative(1)),
        ] {
            let now = Instant::now();
            let cfg = train_config(ec, FlowControlAlg::None);
            let mut tx = TxPlane::new(&cfg, None, PlaneObs::default(), &BufPool::new(), now);
            let mut sent = Vec::new();
            let first = [0, 1].map(|i| submit(&mut tx, body(i, 1)));
            tx.poll(now, |sdu| sent.push((sdu.session, sdu.packed)));
            tx.on_ack(0, clean_ack.clone(), now);
            for c in &first {
                assert_eq!(c.take(), Some(Ok(())));
            }
            let second = [2, 3].map(|i| submit(&mut tx, body(i, 1)));
            tx.poll(now, |sdu| sent.push((sdu.session, sdu.packed)));
            assert_eq!(sent, [(0, true), (1, true)], "two trains of two");

            tx.on_ack(0, clean_ack.clone(), now);
            assert!(
                second.iter().all(|c| !c.is_complete()),
                "a stale acknowledgement of train 0 completed a message of train 1"
            );
            tx.on_ack(1, clean_ack, now);
            for c in &second {
                assert_eq!(c.take(), Some(Ok(())));
            }
            assert!(tx.is_idle());
        }
    }

    /// What the sender puts on the wire for `messages`, all queued before
    /// it first runs: `(train flag, payload)` per frame.
    fn frames_for(sdu_size: usize, messages: &[(Vec<u8>, bool)]) -> Vec<(bool, Vec<u8>)> {
        let now = Instant::now();
        let cfg = ConnectionConfig {
            sdu_size,
            ..config(ErrorControlAlg::None, FlowControlAlg::None)
        };
        let mut tx = TxPlane::new(&cfg, None, PlaneObs::default(), &BufPool::new(), now);
        for (data, tagged) in messages {
            tx.submit(Submission {
                data: Body::Pooled(PooledBuf::detached(data.clone())),
                tagged: *tagged,
                completion: None,
                accepted: None,
            });
        }
        let mut frames = Vec::new();
        tx.poll(now, |sdu| frames.push((sdu.packed, sdu.payload.to_vec())));
        assert!(tx.is_idle());
        frames
    }

    #[test]
    fn a_train_is_bounded_by_the_sdu_to_the_byte() {
        let fits = [(vec![1; 10], false), (vec![2; 6], true)];
        let frames = frames_for(2 * RECORD_HEADER + 16, &fits);
        assert_eq!(frames.len(), 1, "both records fill the SDU exactly");
        assert!(frames[0].0);
        assert_eq!(frames[0].1.len(), 2 * RECORD_HEADER + 16);

        let one_more = [(vec![1; 10], false), (vec![2; 7], true)];
        let frames = frames_for(2 * RECORD_HEADER + 16, &one_more);
        let alone: Vec<_> = one_more.iter().map(|(m, _)| (false, m.clone())).collect();
        assert_eq!(frames, alone, "each goes out as it is, header-less");
    }

    /// A message of several SDUs neither rides nor lets later messages
    /// overtake it: the train stops in front of it.
    #[test]
    fn a_train_stops_at_a_message_that_needs_more_than_one_sdu() {
        let messages: Vec<_> = [1, 1, LONG, 1, 1]
            .iter()
            .enumerate()
            .map(|(i, &sdus)| (body(i, sdus), false))
            .collect();
        let shape: Vec<_> = frames_for(TRAIN_SDU, &messages)
            .iter()
            .map(|(packed, payload)| (*packed, payload.len()))
            .collect();
        let train = 2 * (RECORD_HEADER + body(0, 1).len());
        let tail = body(0, LONG).len() - 2 * TRAIN_SDU;
        assert_eq!(
            shape,
            [
                (true, train),
                (false, TRAIN_SDU),
                (false, TRAIN_SDU),
                (false, tail),
                (true, train)
            ]
        );
    }

    /// Non-empty messages with mixed tag flags.
    fn messages() -> impl Strategy<Value = Vec<(Vec<u8>, bool)>> {
        let message = (proptest::collection::vec(any::<u8>(), 1..40), any::<bool>());
        proptest::collection::vec(message, 1..12)
    }

    fn packed(messages: &[(Vec<u8>, bool)]) -> Vec<u8> {
        let mut train = Vec::new();
        for (data, tagged) in messages {
            push_record(&mut train, data, *tagged);
        }
        train
    }

    /// The records of a train body, owned.
    fn unpack(body: Vec<u8>) -> Option<Vec<(Vec<u8>, bool)>> {
        let train = Delivered::train(PooledBuf::detached(body), &mut None)?;
        Some(
            train
                .map(|(m, tagged)| (m.bytes().to_vec(), tagged))
                .collect(),
        )
    }

    /// All records or none: the records a train yields, packed again,
    /// are its body, byte for byte.
    fn check_unpack(bytes: Vec<u8>) {
        let Some(records) = unpack(bytes.clone()) else {
            return;
        };
        assert_eq!(packed(&records), bytes, "the records tile the body");
        assert!(records.iter().all(|(m, _)| !m.is_empty()));
    }

    proptest! {
        #[test]
        fn pack_then_unpack_is_identity(messages in messages()) {
            prop_assert_eq!(unpack(packed(&messages)).expect("own train parses"), messages);
        }

        /// Through the sender: whatever it packs into its frames, the
        /// receiver's split gives back, in order.
        #[test]
        fn what_the_sender_packs_the_receiver_unpacks(messages in messages()) {
            let mut got = Vec::new();
            for (is_train, payload) in frames_for(64, &messages) {
                if is_train {
                    got.extend(unpack(payload).expect("own train parses"));
                } else {
                    let tagged = messages[got.len()].1;
                    got.push((payload, tagged));
                }
            }
            prop_assert_eq!(got, messages);
        }

        #[test]
        fn arbitrary_bytes_unpack_to_all_records_or_none(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            check_unpack(bytes);
        }

        /// A valid train with a few bytes overwritten and its tail cut.
        #[test]
        fn mutated_trains_unpack_to_all_records_or_none(
            messages in messages(),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
            cut in any::<usize>(),
        ) {
            let mut bytes = packed(&messages);
            for (at, b) in edits {
                let at = at % bytes.len();
                bytes[at] = b;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            check_unpack(bytes);
        }
    }

    // -- Frames no sender of this crate builds ---------------------------

    fn frame(session: u32, seq: u32, end: bool, packed: bool, payload: &[u8]) -> DataView<'_> {
        DataView {
            header: DataHeader {
                conn: 0,
                src_conn: 0,
                session,
                seq,
                end,
                tagged: false,
            },
            packed,
            payload,
        }
    }

    /// The header the shell would put on `sdu`.
    fn header_of(sdu: &Sdu<'_>) -> DataHeader {
        DataHeader {
            conn: 0,
            src_conn: 0,
            session: sdu.session,
            seq: sdu.seq,
            end: sdu.end,
            tagged: sdu.tagged,
        }
    }

    /// The one feedback frame the shell sends for an arrival: its
    /// acknowledgement with the edge it owes in it, or the edge alone.
    fn feedback(session: u32, ack: Option<AckInfo>, edge: Option<u32>) -> Option<CtrlEvent> {
        match (ack, edge) {
            (Some(info), edge) => Some(CtrlEvent::Ack {
                session,
                info,
                edge,
            }),
            (None, edge) => edge.map(CtrlEvent::Credit),
        }
    }

    fn delivered(step: RxStep) -> Vec<Vec<u8>> {
        step.delivered
            .map(|(message, _)| message.bytes().to_vec())
            .collect()
    }

    /// A sequence number no bitmap holds reaches no strategy — it used to
    /// panic `AckBitmap::all_missing`, or size selective repeat's slot
    /// vector by it — and the message being reassembled around it, and
    /// the one after, arrive whole.
    #[test]
    fn out_of_range_sequence_numbers_are_refused_and_disturb_nothing() {
        for ec in [sr(), gbn()] {
            let now = Instant::now();
            let (mut rx, rejected) = rx_plane(&config(ec, credit()));
            let message = body(0, 3);
            let part = |seq: usize| &message[seq * SDU..message.len().min((seq + 1) * SDU)];
            assert!(delivered(rx.on_frame(&frame(0, 0, false, false, part(0)), now)).is_empty());
            for (session, seq) in [
                (0, AckBitmap::MAX_TOTAL),
                (0, 70_000),
                (0, u32::MAX),
                (9, u32::MAX),
                (u32::MAX, u32::MAX),
            ] {
                for end in [false, true] {
                    let step = rx.on_frame(&frame(session, seq, end, false, b"x"), now);
                    assert_eq!(step.ack, None);
                    assert!(delivered(step).is_empty());
                }
            }
            assert_eq!(rejected.get(), 10);
            rx.on_frame(&frame(0, 1, false, false, part(1)), now);
            let step = rx.on_frame(&frame(0, 2, true, false, part(2)), now);
            assert!(step.ack.is_some());
            assert_eq!(delivered(step), [message]);
            let next = rx.on_frame(&frame(1, 0, true, false, b"next"), now);
            assert_eq!(delivered(next), [b"next".to_vec()]);
            // Nor does the last session number there is overflow "the
            // sessions below this one were delivered".
            let last = rx.on_frame(&frame(u32::MAX, 0, true, false, b"last"), now);
            assert_eq!(delivered(last), [b"last".to_vec()]);
        }
    }

    /// A refused frame takes nothing — the edge stays where it was — but
    /// its arrival still owes the sender the edge, like any other: it may
    /// be all that reaches the receiver after an advertisement was lost.
    #[test]
    fn a_refused_frame_still_counts_for_the_credit_grant() {
        let now = Instant::now();
        let (mut rx, _) = rx_plane(&config(sr(), credit()));
        assert_eq!(rx.advertise(), None, "nothing arrived, nothing owed");
        for _ in 0..8 {
            rx.on_frame(&frame(0, u32::MAX, true, false, b"x"), now);
            assert_eq!(rx.advertise(), Some(2), "the initial window");
            assert_eq!(rx.advertise(), None, "owed once");
        }
        for i in 0..8 {
            rx.on_frame(&frame(i, 0, true, false, b"x"), now);
            assert_eq!(rx.advertise(), Some(i + 3), "one SDU taken per message");
        }
    }

    /// A train is always a whole one-SDU session: a frame that carries the
    /// flag anywhere else is ignored, and the next message arrives.
    #[test]
    fn a_train_flag_on_part_of_a_session_is_refused() {
        for ec in [sr(), gbn()] {
            let now = Instant::now();
            let (mut rx, rejected) = rx_plane(&config(ec, FlowControlAlg::None));
            let train = packed(&[(b"ab".to_vec(), false)]);
            for (seq, end) in [(0, false), (1, true), (1, false)] {
                let step = rx.on_frame(&frame(0, seq, end, true, &train), now);
                assert_eq!(step.ack, None);
                assert!(delivered(step).is_empty());
            }
            assert_eq!(rejected.get(), 3);
            let step = rx.on_frame(&frame(0, 0, true, true, &train), now);
            assert!(step.ack.is_some());
            assert_eq!(delivered(step), [b"ab".to_vec()]);
        }
    }

    /// A train whose records do not parse arrived intact, so it is
    /// acknowledged (the sender must not retransmit it for ever), dropped
    /// whole and counted; its retransmission is a duplicate like any
    /// other, and the next message arrives.
    #[test]
    fn an_unparsable_train_is_acknowledged_dropped_whole_and_counted() {
        for ec in [sr(), gbn()] {
            let now = Instant::now();
            let (mut rx, rejected) = rx_plane(&config(ec, FlowControlAlg::None));
            let mut train = packed(&[(b"first".to_vec(), false), (b"second".to_vec(), true)]);
            train.pop();
            let step = rx.on_frame(&frame(0, 0, true, true, &train), now);
            assert!(step.ack.is_some(), "acknowledged");
            assert!(delivered(step).is_empty(), "not even its first record");
            assert_eq!(rejected.get(), 1);
            let again = rx.on_frame(&frame(0, 0, true, true, &train), now);
            assert!(again.ack.is_some());
            assert!(delivered(again).is_empty());
            assert_eq!(rejected.get(), 1, "a duplicate of a finished session");
            let next = rx.on_frame(&frame(1, 0, true, false, b"next"), now);
            assert_eq!(delivered(next), [b"next".to_vec()]);
        }
    }

    /// Without error control the plane reassembles by itself: payloads
    /// append in arrival order to one buffer from the pool, delivered on
    /// the end bit, never acknowledged. A session a later one supersedes
    /// before its end bit is dropped, its buffer back in the pool.
    #[test]
    fn without_error_control_a_message_reassembles_in_one_pooled_buffer() {
        let now = Instant::now();
        let pool = BufPool::new();
        let cfg = config(ErrorControlAlg::None, FlowControlAlg::None);
        let mut rx = RxPlane::new(&cfg, &ConnCounters::default(), &pool);
        let message = body(0, 3);
        let part = |seq: usize| &message[seq * SDU..message.len().min((seq + 1) * SDU)];
        for seq in 0..2 {
            let step = rx.on_frame(&frame(0, seq, false, false, part(seq as usize)), now);
            assert_eq!(step.ack, None);
            assert!(matches!(step.delivered, Delivered::Nothing));
        }
        let step = rx.on_frame(&frame(0, 2, true, false, part(2)), now);
        assert_eq!(step.ack, None);
        let Delivered::Whole(whole, false) = step.delivered else {
            panic!("one whole untagged message");
        };
        assert_eq!(&whole[..], &message[..]);
        assert_eq!(pool.stats().checkouts, 1, "one buffer for three SDUs");
        drop(whole);
        assert_eq!(pool.stats().returns, 1, "the message was the pool's buffer");

        rx.on_frame(&frame(1, 0, false, false, b"cut"), now);
        let next = rx.on_frame(&frame(2, 0, true, false, b"next"), now);
        assert_eq!(pool.stats().returns, 2, "the superseded session's buffer");
        assert_eq!(delivered(next), [b"next".to_vec()]);
        assert_eq!(rx.advertise(), None, "no flow control, no feedback");
    }

    /// A 64 KiB message — 16 default SDUs — reassembles in a buffer the
    /// pool takes back when the message is dropped, so the next one is
    /// reassembled without a miss. (Grown by doubling alone, the buffer
    /// ended at 65,888 bytes, above what the pool keeps, and every such
    /// message cost a miss.)
    #[test]
    fn a_reassembled_64_kib_message_returns_its_buffer_to_the_pool() {
        use crate::pool::{DEFAULT_BUF_CAPACITY, DEFAULT_PER_SHARD, DEFAULT_SHARDS};
        let now = Instant::now();
        // The default geometry, with large buffers of its own.
        let pool = BufPool::with_config(DEFAULT_SHARDS, DEFAULT_PER_SHARD, DEFAULT_BUF_CAPACITY);
        let cfg = ConnectionConfig {
            sdu_size: 4096,
            ..config(ErrorControlAlg::None, FlowControlAlg::None)
        };
        let mut rx = RxPlane::new(&cfg, &ConnCounters::default(), &pool);
        let message: Vec<u8> = (0..64 * 1024).map(|j| (j % 251) as u8).collect();
        let mut misses = Vec::new();
        for session in 0..2 {
            let mut step = RxStep::default();
            for (seq, sdu) in message.chunks(4096).enumerate() {
                let end = seq == 15;
                step = rx.on_frame(&frame(session, seq as u32, end, false, sdu), now);
            }
            let Delivered::Whole(body, false) = step.delivered else {
                panic!("one whole message");
            };
            assert!(body[..] == message[..]);
            drop(body);
            misses.push(pool.stats().misses);
        }
        assert_eq!(misses[1], misses[0], "the second message missed the pool");
        assert_eq!(pool.stats().discards, 0);
    }

    /// Without error control nothing repairs a lost SDU: a message missing
    /// one — in the middle, or its first — is dropped whole, counted and
    /// reported lost, never delivered short, and the next message is
    /// unharmed.
    #[test]
    fn without_error_control_a_message_missing_an_sdu_is_dropped_whole() {
        let now = Instant::now();
        let (mut rx, rejected) = rx_plane(&config(ErrorControlAlg::None, credit()));
        let message = body(0, 3);
        let part = |seq: usize| &message[seq * SDU..message.len().min((seq + 1) * SDU)];
        // SDU 1 of session 0 lost; SDU 0 of session 1 lost.
        for (session, seq, lost) in [(0, 0, false), (0, 2, true), (1, 1, true), (1, 2, true)] {
            let step = rx.on_frame(
                &frame(session, seq, seq == 2, false, part(seq as usize)),
                now,
            );
            assert_eq!(step.lost, lost, "{session}/{seq}");
            assert!(
                matches!(step.delivered, Delivered::Nothing),
                "{session}/{seq}"
            );
        }
        assert_eq!(rejected.get(), 3);
        let next = rx.on_frame(&frame(2, 0, true, false, b"next"), now);
        assert!(!next.lost);
        assert_eq!(delivered(next), [b"next".to_vec()]);
        assert!(
            rx.advertise().is_some(),
            "every arrival still owes the edge"
        );
    }

    // -- The retransmission timer, on a hand-stepped clock ----------------

    /// A sender and a receiver joined by a wire the test steps: what the
    /// sender releases at `now` arrives — unless `lose` takes it — `delay`
    /// later, and the receiver's answers are back at that same instant.
    struct Link {
        tx: TxPlane,
        rx: RxPlane,
        obs: PlaneObs,
        now: Instant,
        /// Data frames put on the wire, lost ones included.
        frames: usize,
        /// Acknowledgements still to be lost on their way back.
        lose_acks: usize,
    }

    impl Link {
        fn new(cfg: &ConnectionConfig) -> Link {
            let (now, obs) = (Instant::now(), PlaneObs::default());
            Link {
                tx: TxPlane::new(cfg, None, obs.clone(), &BufPool::new(), now),
                rx: rx_plane(cfg).0,
                obs,
                now,
                frames: 0,
                lose_acks: 0,
            }
        }

        /// One poll of the sender and one trip of what it released.
        /// Returns whether the sender released anything.
        fn step(&mut self, delay: Duration, mut lose: impl FnMut(&DataHeader) -> bool) -> bool {
            let mut wire = Vec::new();
            self.tx.poll(self.now, |sdu| {
                wire.push((header_of(&sdu), sdu.packed, sdu.payload.to_vec()));
            });
            self.frames += wire.len();
            let released = !wire.is_empty();
            self.now += delay;
            for (header, packed, payload) in wire {
                if lose(&header) {
                    continue;
                }
                let view = DataView {
                    header,
                    packed,
                    payload: &payload,
                };
                let step = self.rx.on_frame(&view, self.now);
                match feedback(header.session, step.ack, self.rx.advertise()) {
                    // A lost acknowledgement takes its edge with it.
                    Some(CtrlEvent::Ack { .. }) if self.lose_acks > 0 => self.lose_acks -= 1,
                    Some(event) => self.tx.on_event(event, self.now),
                    None => {}
                }
            }
            released
        }

        /// Steps until the sender is idle, sleeping to its next deadline
        /// whenever a step released nothing. Returns the time it took.
        fn run(&mut self, delay: Duration, mut lose: impl FnMut(&DataHeader) -> bool) -> Duration {
            let start = self.now;
            for _ in 0..1_000 {
                if self.tx.is_idle() {
                    return self.now - start;
                }
                if !self.step(delay, &mut lose) {
                    self.sleep();
                }
            }
            panic!("the sender never came to rest: {:?}", self.tx);
        }

        /// Time passes until the sender's next deadline, if it has one.
        fn sleep(&mut self) {
            if let Some(at) = self.tx.next_deadline(self.now) {
                self.now = at;
            }
        }

        /// One message of `sdus` SDUs over a clean wire.
        fn deliver(&mut self, sdus: usize, delay: Duration) {
            let done = submit(&mut self.tx, body(0, sdus));
            self.run(delay, |_| false);
            assert_eq!(done.take(), Some(Ok(())));
        }

        fn rto(&self) -> Duration {
            Duration::from_micros(self.obs.counters.rto_us.get() as u64)
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn the_timeout_converges_on_the_links_round_trip_from_the_configured_ceiling() {
        for ec in [sr(), gbn()] {
            let mut link = Link::new(&config(ec, FlowControlAlg::None));
            assert_eq!(link.rto(), Duration::from_secs(1), "no sample yet");
            link.deliver(1, 50 * MS);
            assert_eq!(link.rto(), 150 * MS, "SRTT + 4 x SRTT/2");
            for _ in 0..4 {
                link.deliver(2, 50 * MS);
            }
            assert!(link.rto() >= 50 * MS && link.rto() <= 100 * MS);
            let counters = &link.obs.counters;
            assert_eq!(counters.srtt_us.get(), 50_000);
            assert_eq!(counters.ack_rtt_us.count(), 5);
            assert_eq!(
                counters.ack_timeouts.get() + counters.retransmissions.get(),
                0
            );
            // However fast the link, never below the floor.
            for _ in 0..40 {
                link.deliver(1, MS / 10);
            }
            assert_eq!(link.rto(), MIN_RTO);
        }
    }

    /// Karn: the acknowledgement of a session that retransmitted may
    /// answer either copy, so its round trip teaches nothing — here it
    /// would have taught 300 ms.
    #[test]
    fn a_retransmitted_session_contributes_no_sample() {
        for ec in [sr(), gbn()] {
            let mut link = Link::new(&config(ec, FlowControlAlg::None));
            link.deliver(1, 20 * MS);
            let (rto, samples) = (link.rto(), link.obs.counters.ack_rtt_us.count());
            let done = submit(&mut link.tx, body(1, 2));
            let mut first = true;
            link.run(300 * MS, |h| h.end && std::mem::take(&mut first));
            assert_eq!(done.take(), Some(Ok(())));
            assert_eq!(link.obs.counters.ack_timeouts.get(), 1);
            assert_eq!(link.obs.counters.ack_rtt_us.count(), samples);
            assert_eq!(link.rto(), rto);
        }
    }

    /// Every timeout of a session doubles the next wait, up to the
    /// configured timeout and no further; only waits of that full length
    /// spend retries, so the silent peer is given up on later than a
    /// fixed timer would have, never sooner.
    #[test]
    fn back_off_doubles_to_the_configured_timeout_and_patience_does_not_shrink() {
        for ec in [sr(), gbn()] {
            let mut link = Link::new(&config(ec, FlowControlAlg::None));
            for _ in 0..8 {
                link.deliver(1, MS);
            }
            assert_eq!(link.rto(), MIN_RTO);
            let done = submit(&mut link.tx, body(1, 3));
            let mut waits = Vec::new();
            while !link.tx.is_idle() {
                let before = link.now;
                if !link.step(MS, |_| true) && link.tx.in_flight() {
                    link.sleep();
                    waits.push((link.now - before + MS).as_millis());
                }
            }
            let ceiling = 1_000;
            assert_eq!(
                waits,
                [10, 20, 40, 80, 160, 320, 640, ceiling, ceiling, ceiling, ceiling, ceiling],
            );
            assert!(matches!(
                done.take(),
                Some(Err(SendError::DeliveryFailed(_)))
            ));
            assert_eq!(link.obs.counters.ack_timeouts.get(), 12);
            assert_eq!(link.rto(), MIN_RTO, "back-off ends with its session");
        }
    }

    /// What a timeout costs under selective repeat: one frame asks, and
    /// only what the answer names is sent again — whether it was the end
    /// SDU, its acknowledgement or a repair that was lost.
    #[test]
    fn a_selective_repeat_timeout_probes_with_the_end_sdu_alone() {
        let mut link = Link::new(&config(sr(), FlowControlAlg::None));
        // The end SDU lost: the probe is the repair. SDU 1 and its repair
        // lost: the probe's answer names it once more.
        for (lost, frames) in [(&[(0, 3)][..], 4 + 1), (&[(0, 1), (1, 1)], 4 + 1 + 1 + 1)] {
            let (before, done) = (link.frames, submit(&mut link.tx, body(2, 4)));
            let mut copy = [0; 4];
            link.run(MS, |h| {
                copy[h.seq as usize] += 1;
                lost.contains(&(copy[h.seq as usize] - 1, h.seq))
            });
            assert_eq!(done.take(), Some(Ok(())));
            assert_eq!(link.frames - before, frames, "copy and SDU lost: {lost:?}");
        }
        // The acknowledgement lost: the probe is answered with it again.
        let (before, done) = (link.frames, submit(&mut link.tx, body(3, 4)));
        link.lose_acks = 1;
        link.run(MS, |_| false);
        assert_eq!(done.take(), Some(Ok(())));
        assert_eq!(link.frames - before, 4 + 1);
        assert_eq!(link.obs.counters.ack_timeouts.get(), 3);
    }

    /// While fresh SDUs of a round wait for the edge, the acknowledgement
    /// clock still runs. Its timeout re-sends the highest SDU released —
    /// free, no retry spent — and its arrival lets the waiting SDU out:
    /// none waits for the starvation probe, and none goes twice.
    #[test]
    fn sdus_waiting_for_credits_past_the_timeout_are_not_retransmitted() {
        let mut link = Link::new(&config(sr(), credit()));
        for _ in 0..8 {
            link.deliver(1, MS);
        }
        assert_eq!(link.rto(), MIN_RTO);
        let done = submit(&mut link.tx, body(1, 3));
        let (start, mut sent) = (link.now, Vec::new());
        link.step(MS, |h| {
            sent.push(h.seq);
            true
        });
        assert_eq!(sent, [0, 1], "a window of two, both lost");
        assert_eq!(link.tx.next_deadline(link.now), Some(start + MIN_RTO));
        link.sleep();
        link.step(MS, |h| {
            sent.push(h.seq);
            false
        });
        assert_eq!(
            sent,
            [0, 1, 1],
            "the highest released, and nothing past the edge"
        );
        let counters = &link.obs.counters;
        assert_eq!(counters.ack_timeouts.get(), 1);
        assert_eq!(counters.retransmissions.get(), 1);
        link.run(MS, |h| {
            sent.push(h.seq);
            false
        });
        assert_eq!(done.take(), Some(Ok(())));
        // SDU 0 again, which the end SDU's acknowledgement names.
        assert_eq!(sent, [0, 1, 1, 2, 0]);
        assert_eq!(link.obs.counters.retransmissions.get(), 2);
        assert!(
            link.now - start < 4 * MIN_RTO,
            "took {:?}",
            link.now - start
        );
    }

    /// A dynamic window that shrinks while SDUs it let out are lost: the
    /// holes hold no part of it — the edge counts the highest SDU seen —
    /// so the SDUs after them move it, and the end SDU, whose
    /// acknowledgement is all that tells selective repeat what is missing,
    /// goes out without a timeout.
    #[test]
    fn a_window_that_shrank_under_lost_sdus_still_reaches_the_end_sdu() {
        let dynamic = FlowControlAlg::CreditBased {
            initial_credits: 1,
            dynamic: true,
        };
        let mut link = Link::new(&config(sr(), dynamic));
        // Dense traffic widens the window to 8...
        for _ in 0..20 {
            link.deliver(8, MS);
        }
        link.now += Duration::from_secs(1);
        link.deliver(1, MS);
        assert_eq!(link.rx.window, 8);
        // ...and after an idle spell the next arrival shrinks it to 1: the
        // first of a message of which 8 SDUs left and 3 are lost.
        link.now += Duration::from_secs(1);
        let done = submit(&mut link.tx, body(1, 12));
        let mut lost = 0;
        let took = link.run(MS, |h| {
            lost += usize::from(h.seq < 3);
            h.seq < 3 && lost <= 3
        });
        assert_eq!(done.take(), Some(Ok(())));
        assert_eq!(link.rx.window, 1);
        assert_eq!(link.obs.counters.ack_timeouts.get(), 0);
        assert!(took < 4 * MIN_RTO, "took {took:?}");
    }

    /// The first five data frames of a 40-SDU message lost under
    /// `reliable()`: the four of the first window and the timeout's re-send
    /// of the highest. The second re-send gets through and opens the
    /// window, the end SDU's acknowledgement names the holes, and the
    /// message completes, two timeouts in, with most of its retries left.
    #[test]
    fn a_long_message_whose_first_frames_are_lost_completes() {
        let cfg = ConnectionConfig {
            sdu_size: SDU,
            ..ConnectionConfig::reliable()
        };
        let mut link = Link::new(&cfg);
        let done = submit(&mut link.tx, body(0, 40));
        let mut frames = 0;
        let took = link.run(MS, |_| {
            frames += 1;
            frames <= 5
        });
        assert_eq!(done.take(), Some(Ok(())));
        assert_eq!(link.obs.counters.ack_timeouts.get(), 2);
        // 40 fresh, two re-sends of SDU 3, repairs of SDUs 0-2.
        assert_eq!(link.frames, 40 + 2 + 3);
        assert!(took < 3 * Duration::from_millis(200), "took {took:?}");
    }

    /// Behind the edge a peer that answers nothing is still given up on,
    /// and no sooner than `(max_retries + 1) x timeout`: only the first
    /// timeout, which finds the edge moved since the session began, is
    /// free.
    #[test]
    fn a_silent_peer_behind_the_edge_is_still_given_up_on() {
        let mut link = Link::new(&config(sr(), credit()));
        let done = submit(&mut link.tx, body(0, 3));
        let took = link.run(MS, |_| true);
        assert!(matches!(
            done.take(),
            Some(Err(SendError::DeliveryFailed(_)))
        ));
        assert_eq!(link.obs.counters.ack_timeouts.get(), 6);
        assert!(took >= 5 * Duration::from_secs(1), "gave up after {took:?}");
    }

    /// A pacer meters every frame, a retransmission round too: the
    /// repairs leave one token apart, not as one burst.
    #[test]
    fn a_paced_retransmission_round_waits_for_the_bucket() {
        let rate = FlowControlAlg::RateBased {
            packets_per_sec: 100,
            burst: 4,
        };
        let mut link = Link::new(&config(sr(), rate));
        let done = submit(&mut link.tx, body(0, 4));
        let (start, mut sent) = (link.now, Vec::new());
        while !link.tx.is_idle() {
            let at = link.now - start;
            let released = link.step(MS, |h| {
                sent.push((h.seq, at));
                h.seq < 3 && sent.len() <= 3
            });
            if !released {
                link.sleep();
            }
        }
        assert_eq!(done.take(), Some(Ok(())));
        let (seqs, times): (Vec<u32>, Vec<Duration>) = sent.into_iter().unzip();
        assert_eq!(seqs, [0, 1, 2, 3, 0, 1, 2], "the burst, then the repairs");
        assert!(times[..4].iter().all(|t| t.is_zero()));
        for pair in times[3..].windows(2) {
            assert!(pair[1] - pair[0] >= 10 * MS, "sent at {times:?}");
        }
    }

    /// Losses hold no part of the window for good: the
    /// first two data frames of each 4-SDU message lost under `reliable()`
    /// flow control, and every message completes in a few round trips.
    /// With a credit per arrival the second message waited out the
    /// starvation probe — the first had leaked two credits for good.
    #[test]
    fn lost_frames_leak_no_credit() {
        let cfg = ConnectionConfig {
            sdu_size: SDU,
            ..ConnectionConfig::reliable()
        };
        let mut link = Link::new(&cfg);
        for i in 0..4 {
            let done = submit(&mut link.tx, body(i, 4));
            let mut copies = [0; 4];
            let took = link.run(MS, |h| {
                copies[h.seq as usize] += 1;
                h.seq < 2 && copies[h.seq as usize] == 1
            });
            assert_eq!(done.take(), Some(Ok(())));
            assert!(took <= 4 * MIN_RTO, "message {i} took {took:?}");
        }
        assert_eq!(link.obs.counters.retransmissions.get(), 8);
    }

    /// A session given up on holds no window: whether the receiver saw
    /// none of it or part of it, the next message does not wait for the
    /// starvation probe, and after it the window is the configured one.
    #[test]
    fn a_failed_session_leaves_the_window_as_it_was() {
        for lose_all in [true, false] {
            let mut link = Link::new(&config(sr(), credit()));
            let failed = submit(&mut link.tx, body(0, 3));
            link.run(MS, |h| h.session == 0 && (lose_all || h.seq == 1));
            assert!(matches!(
                failed.take(),
                Some(Err(SendError::DeliveryFailed(_)))
            ));
            let done = submit(&mut link.tx, body(1, 3));
            let took = link.run(MS, |_| false);
            assert_eq!(done.take(), Some(Ok(())));
            assert!(took < FC_STARVATION_PROBE, "took {took:?}");
            assert_eq!(link.tx.fc.permits(link.now), 2);
        }
    }

    /// A duplicated, late or reordered advertisement carries an edge the
    /// sender has passed: it moves the window by nothing.
    #[test]
    fn a_stale_credit_edge_changes_no_permit() {
        let mut link = Link::new(&config(sr(), credit()));
        for _ in 0..3 {
            link.deliver(2, MS);
        }
        let (now, received) = (link.now, link.obs.counters.credits_received.get());
        assert_eq!(link.tx.fc.permits(now), 2);
        // Six SDUs taken: the latest edge is 8 — a duplicate of it, then
        // older ones.
        for stale in [8, 7, 4, 2, 0] {
            link.tx.on_credit(stale, now);
            assert_eq!(link.tx.fc.permits(now), 2, "edge {stale}");
        }
        assert_eq!(link.obs.counters.credits_received.get(), received);
        link.deliver(2, MS);
    }

    /// A go-back-N window that slides open sends fresh SDUs: a clean
    /// link counts no retransmission, and its round trips teach the timer.
    #[test]
    fn a_go_back_n_window_slide_is_no_retransmission() {
        let mut link = Link::new(&config(gbn(), FlowControlAlg::None));
        link.deliver(5, 20 * MS);
        let counters = &link.obs.counters;
        assert_eq!(counters.retransmissions.get(), 0);
        assert_eq!(counters.ack_timeouts.get(), 0);
        assert_eq!(counters.ack_rtt_us.count(), 1);
        for _ in 0..4 {
            link.deliver(5, 20 * MS);
        }
        assert!(link.rto() < Duration::from_secs(1), "rto {:?}", link.rto());
        assert_eq!(link.obs.counters.retransmissions.get(), 0);
    }

    /// A path that loses every copy of one SDU and delivers the rest
    /// acknowledges every round with the same bitmap. The session fails
    /// once the configured patience is spent; it used never to.
    #[test]
    fn a_path_that_always_loses_the_same_sdu_fails_the_message() {
        let mut link = Link::new(&config(sr(), FlowControlAlg::None));
        link.deliver(1, MS);
        let done = submit(&mut link.tx, body(1, 3));
        let took = link.run(MS, |h| h.seq == 1);
        assert!(matches!(
            done.take(),
            Some(Err(SendError::DeliveryFailed(_)))
        ));
        assert!(took >= 5 * Duration::from_secs(1), "gave up after {took:?}");
    }

    proptest! {
        /// Whatever round trips and losses the link has shown, the wait
        /// stays within its bounds, and a peer that then falls silent is
        /// given up on no sooner than the configured
        /// `(max_retries + 1) x timeout`.
        #[test]
        fn the_timeout_stays_in_bounds_and_patience_never_shrinks(
            trips in proptest::collection::vec((0u64..400_000, any::<bool>()), 0..24),
            sdus in 1usize..4,
        ) {
            for ec in [sr(), gbn()] {
                let mut link = Link::new(&config(ec, FlowControlAlg::None));
                for &(delay_us, lose_first) in &trips {
                    let done = submit(&mut link.tx, body(0, sdus));
                    let mut lose = lose_first;
                    link.run(Duration::from_micros(delay_us), |h| h.end && std::mem::take(&mut lose));
                    prop_assert_eq!(done.take(), Some(Ok(())));
                    prop_assert!(MIN_RTO <= link.rto() && link.rto() <= Duration::from_secs(1));
                }
                let done = submit(&mut link.tx, body(1, sdus));
                let took = link.run(MS, |_| true);
                prop_assert!(matches!(done.take(), Some(Err(SendError::DeliveryFailed(_)))));
                prop_assert!(took >= 5 * Duration::from_secs(1), "gave up after {:?}", took);
            }
        }
    }

    // -- Bounded schedule exploration ------------------------------------
    //
    // A `TxPlane` and an `RxPlane` joined by an in-test wire. Everything
    // put on the wire — a data frame, or a feedback frame: an
    // acknowledgement with the credit edge in it, or the edge alone — is an
    // *event*, numbered in the order it is created; a *schedule* is a set
    // of at most two faults, each naming an event. Runs are deterministic,
    // so the schedules with one more fault than `plan` are found by
    // running `plan` and faulting each later event in turn.

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Data,
        /// An acknowledgement, and whether the credit edge rode in it.
        Ack {
            edge: bool,
        },
        /// The credit edge alone.
        Credit,
    }

    impl Kind {
        fn of(event: &CtrlEvent) -> Kind {
            match event {
                CtrlEvent::Ack { edge, .. } => Kind::Ack {
                    edge: edge.is_some(),
                },
                CtrlEvent::Credit(_) => Kind::Credit,
            }
        }

        /// A fault on the event loses or stales an advertisement.
        fn carries_edge(self) -> bool {
            matches!(self, Kind::Credit | Kind::Ack { edge: true })
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        Drop,
        /// A second copy of a feedback frame — a stale acknowledgement, a
        /// stale edge, or both — that arrives late: after the sender has
        /// moved on to whatever it does next.
        Duplicate,
    }

    type Plan = Vec<(usize, Fault)>;

    /// Numbers the next event and says what the plan does to it.
    fn fate(events: &mut Vec<Kind>, kind: Kind, plan: &Plan) -> Option<Fault> {
        events.push(kind);
        let index = events.len() - 1;
        plan.iter().find(|(i, _)| *i == index).map(|(_, f)| *f)
    }

    /// Runs one schedule to quiescence, checks it, and returns the events
    /// it put on the wire.
    fn run(cfg: &ConnectionConfig, sdus_per_msg: &[usize], plan: &Plan) -> Vec<Kind> {
        let context = || {
            format!(
                "{:?} / {:?}, SDUs of {}, messages of {sdus_per_msg:?} x {SDU} bytes, faults {plan:?}",
                cfg.error_control, cfg.flow_control, cfg.sdu_size
            )
        };
        let mut now = Instant::now();
        let obs = PlaneObs::default();
        let mut tx = TxPlane::new(cfg, None, obs.clone(), &BufPool::new(), now);
        let (mut rx, rejected) = rx_plane(cfg);
        let bodies: Vec<Vec<u8>> = (0..sdus_per_msg.len())
            .map(|i| body(i, sdus_per_msg[i]))
            .collect();
        let completions: Vec<_> = bodies.iter().map(|b| submit(&mut tx, b.clone())).collect();

        let mut events = Vec::new();
        // A frame and its train flag.
        let mut data_wire: VecDeque<(DataPacket, bool)> = VecDeque::new();
        let mut ctrl_wire: VecDeque<CtrlEvent> = VecDeque::new();
        let mut late_ctrl: Vec<CtrlEvent> = Vec::new();
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        for _step in 0..10_000 {
            let mut moved = tx.poll(now, |sdu| {
                if fate(&mut events, Kind::Data, plan).is_none() {
                    let packet = DataPacket {
                        header: header_of(&sdu),
                        payload: sdu.payload.to_vec(),
                    };
                    data_wire.push_back((packet, sdu.packed));
                }
            });
            if moved {
                ctrl_wire.extend(late_ctrl.drain(..));
            }
            while let Some((packet, packed)) = data_wire.pop_front() {
                moved = true;
                let view = DataView {
                    header: packet.header,
                    packed,
                    payload: &packet.payload,
                };
                let step = rx.on_frame(&view, now);
                if let Some(event) = feedback(packet.header.session, step.ack, rx.advertise()) {
                    match fate(&mut events, Kind::of(&event), plan) {
                        None => ctrl_wire.push_back(event),
                        Some(Fault::Drop) => {}
                        Some(Fault::Duplicate) => {
                            late_ctrl.push(event.clone());
                            ctrl_wire.push_back(event);
                        }
                    }
                }
                delivered.extend(
                    step.delivered
                        .map(|(message, _tagged)| message.bytes().to_vec()),
                );
            }
            while let Some(event) = ctrl_wire.pop_front() {
                moved = true;
                tx.on_event(event, now);
            }
            if moved {
                continue;
            }
            if !late_ctrl.is_empty() {
                ctrl_wire.extend(late_ctrl.drain(..));
                continue;
            }
            // Nothing else can progress: only now may time pass, and only
            // as far as the sender's own next deadline — its starvation
            // probe only if an advertisement was lost.
            let starving = !tx.pending.is_empty() && tx.ack_deadline().is_none();
            let credit_fault = plan
                .iter()
                .any(|&(i, _)| events.get(i).is_some_and(|k| k.carries_edge()));
            assert!(
                !starving || credit_fault,
                "waits for the starvation probe: {}",
                context()
            );
            match tx.next_deadline(now) {
                Some(at) => now = now.max(at),
                None => break,
            }
        }

        assert_eq!(delivered, bodies, "exactly-once, in order: {}", context());
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(c.take(), Some(Ok(())), "completion {i}: {}", context());
        }
        assert!(obs.last_error.lock().is_none(), "{}", context());
        assert_eq!(rejected.get(), 0, "{}", context());
        assert_eq!(
            obs.counters.messages_sent.get(),
            bodies.len() as u64,
            "{}",
            context()
        );
        assert!(
            tx.is_idle() && tx.next_deadline(now).is_none(),
            "not quiescent: {tx:?}: {}",
            context()
        );
        events
    }

    fn data_frames(events: &[Kind]) -> usize {
        events.iter().filter(|k| **k == Kind::Data).count()
    }

    /// The faults that can befall an event of `kind`.
    fn faults_of(kind: Kind) -> &'static [Fault] {
        match kind {
            Kind::Data => &[Fault::Drop],
            Kind::Ack { .. } | Kind::Credit => &[Fault::Drop, Fault::Duplicate],
        }
    }

    /// Every schedule of at most two faults; returns how many there were
    /// and the most data frames any one of them put on the wire.
    fn explore(cfg: &ConnectionConfig, sdus_per_msg: &[usize]) -> (usize, usize) {
        let (mut schedules, mut most_frames) = (0, 0);
        let mut todo: Vec<Plan> = vec![Vec::new()];
        while let Some(plan) = todo.pop() {
            let events = run(cfg, sdus_per_msg, &plan);
            schedules += 1;
            most_frames = most_frames.max(data_frames(&events));
            if plan.len() == 2 {
                continue;
            }
            let from = plan.last().map_or(0, |(i, _)| i + 1);
            for (i, kind) in events.iter().enumerate().skip(from) {
                for fault in faults_of(*kind) {
                    let mut next = plan.clone();
                    next.push((i, *fault));
                    todo.push(next);
                }
            }
        }
        (schedules, most_frames)
    }

    /// What the parent of the adaptive timer (commit c6dbd39, whose
    /// selective repeat answered a timeout with every unacknowledged SDU)
    /// put on the wire for one set of messages: the most data frames of
    /// any schedule of at most two faults, and the data frames of each
    /// one-fault schedule — the faults of the fault-free run's events, in
    /// event order. Two-fault schedules cannot be told apart across
    /// versions (the second fault indexes a run the first one changed),
    /// so they are held to the maximum.
    type Recorded = (usize, &'static [usize]);

    /// Per `(ec, fc)` in the tests' order — SR/credit, SR/none, GBN/credit,
    /// GBN/none — the message sets of
    /// `every_schedule_of_two_faults_delivers_exactly_once`.
    const PARENT_FRAMES: [[Recorded; 4]; 4] = [
        [
            (4, &[3, 2, 3, 2, 3, 2, 3, 2]),
            (10, &[7, 8, 6, 6, 8, 6, 7, 8, 6, 6, 8, 6, 7, 8, 6, 6, 8, 6]),
            (12, &[7, 7, 6, 6, 9, 6, 9, 6, 7, 6, 7, 6, 7, 8, 6, 6, 8, 6]),
            (12, &[7, 7, 6, 6, 9, 6, 9, 6, 7, 7, 6, 6, 9, 6, 9, 6]),
        ],
        [
            (4, &[3, 3, 2, 3, 3, 2]),
            (10, &[7, 8, 8, 6, 7, 8, 8, 6, 7, 8, 8, 6]),
            (12, &[7, 7, 9, 9, 6, 7, 7, 6, 7, 8, 8, 6]),
            (12, &[7, 7, 9, 9, 6, 7, 7, 9, 9, 6]),
        ],
        [
            (4, &[3, 2, 3, 2, 3, 2, 3, 2]),
            (
                10,
                &[
                    8, 7, 6, 6, 6, 6, 7, 6, 8, 7, 6, 6, 6, 6, 7, 6, 8, 7, 6, 6, 6, 6, 7, 6,
                ],
            ),
            (
                11,
                &[
                    9, 8, 6, 6, 6, 6, 6, 6, 7, 6, 7, 6, 7, 6, 7, 6, 8, 7, 6, 6, 6, 6, 7, 6,
                ],
            ),
            (
                12,
                &[
                    10, 9, 7, 6, 6, 7, 6, 6, 8, 7, 7, 6, 9, 8, 6, 6, 6, 6, 6, 6, 7, 6, 7, 6,
                ],
            ),
        ],
        [
            (4, &[3, 3, 2, 3, 3, 2]),
            (10, &[8, 7, 6, 6, 7, 6, 8, 7, 6, 6, 7, 6, 8, 7, 6, 6, 7, 6]),
            (10, &[8, 8, 6, 6, 6, 6, 7, 7, 6, 7, 7, 6, 8, 7, 6, 6, 7, 6]),
            (10, &[8, 8, 6, 6, 6, 6, 7, 7, 6, 8, 8, 6, 6, 6, 6, 7, 7, 6]),
        ],
    ];

    /// The same for the message sets of the train test.
    const PARENT_TRAIN_FRAMES: [[Recorded; 3]; 4] = [
        [
            (3, &[2, 1, 2, 1]),
            (11, &[6, 5, 6, 5, 6, 5, 6, 5, 6, 6, 5, 5, 8, 5, 8, 5]),
            (11, &[6, 5, 6, 5, 6, 6, 5, 5, 8, 5, 8, 5, 6, 5, 6, 5]),
        ],
        [
            (3, &[2, 2, 1]),
            (11, &[6, 6, 5, 6, 6, 5, 6, 6, 8, 8, 5]),
            (11, &[6, 6, 5, 6, 6, 8, 8, 5, 6, 6, 5]),
        ],
        [
            (3, &[2, 1, 2, 1]),
            (
                10,
                &[7, 6, 6, 5, 7, 6, 6, 5, 8, 7, 5, 5, 5, 5, 5, 5, 6, 5, 6, 5],
            ),
            (
                10,
                &[7, 6, 6, 5, 8, 7, 5, 5, 5, 5, 5, 5, 6, 5, 6, 5, 6, 5, 6, 5],
            ),
        ],
        [
            (3, &[2, 2, 1]),
            (9, &[6, 6, 5, 6, 6, 5, 7, 7, 5, 5, 5, 5, 6, 6, 5]),
            (9, &[6, 6, 5, 7, 7, 5, 5, 5, 5, 6, 6, 5, 6, 6, 5]),
        ],
    ];

    /// No schedule puts more data frames on the wire than the parent did
    /// for it, and a stale edge costs none at all (the parent explored no
    /// late advertisement).
    ///
    /// The parent sent an acknowledgement's edge as a frame of its own,
    /// just ahead of it, so its one-fault records run edge (dropped),
    /// acknowledgement (dropped, then late) where an event here is one
    /// acknowledgement with the edge in it. Such an event is held, lost, to
    /// the parent's lost acknowledgement — the SDU re-sent for a lost
    /// acknowledgement advertises the edge again, so losing the edge with
    /// it may cost nothing more — and, late, to the parent's late
    /// acknowledgement.
    fn assert_no_more_frames_than_the_parent(
        cfg: &ConnectionConfig,
        sdus_per_msg: &[usize],
        most_frames: usize,
        (parent_most, parent_one_fault): Recorded,
    ) {
        let what = format!(
            "{:?} / {:?}, {sdus_per_msg:?}",
            cfg.error_control, cfg.flow_control
        );
        assert!(most_frames <= parent_most, "{most_frames} frames: {what}");
        let clean = run(cfg, sdus_per_msg, &Plan::new());
        let mut recorded = parent_one_fault.iter().copied();
        let mut parent = || recorded.next().expect("the fault-free run grew");
        for (i, kind) in clean.iter().enumerate() {
            // Per fault, the parent's record; `None` for a late edge.
            let bounds = match kind {
                Kind::Data => vec![(Fault::Drop, Some(parent()))],
                Kind::Credit => vec![(Fault::Drop, Some(parent())), (Fault::Duplicate, None)],
                Kind::Ack { edge: false } => {
                    vec![
                        (Fault::Drop, Some(parent())),
                        (Fault::Duplicate, Some(parent())),
                    ]
                }
                Kind::Ack { edge: true } => {
                    let (_edge_lost, ack_lost, ack_late) = (parent(), parent(), parent());
                    vec![
                        (Fault::Drop, Some(ack_lost)),
                        (Fault::Duplicate, Some(ack_late)),
                    ]
                }
            };
            for (fault, bound) in bounds {
                let frames = data_frames(&run(cfg, sdus_per_msg, &vec![(i, fault)]));
                let Some(parent) = bound else {
                    assert_eq!(frames, data_frames(&clean), "late edge {i}: {what}");
                    continue;
                };
                assert!(
                    frames <= parent,
                    "{frames} frames, the parent sent {parent}: {fault:?} of event {i}, {what}"
                );
            }
        }
        assert_eq!(recorded.next(), None, "the fault-free run shrank: {what}");
    }

    #[test]
    fn every_schedule_of_two_faults_delivers_exactly_once() {
        let configs = [sr(), gbn()]
            .into_iter()
            .flat_map(|ec| [credit(), FlowControlAlg::None].map(|fc| config(ec.clone(), fc)));
        for (cfg, parent) in configs.zip(PARENT_FRAMES) {
            let mut schedules = 0;
            let runs = [&[1, 1][..], &[2, 2, 2], &[3, 1, 2], &[3, 3]];
            for (sdus_per_msg, recorded) in runs.into_iter().zip(parent) {
                let (explored, most_frames) = explore(&cfg, sdus_per_msg);
                schedules += explored;
                assert_no_more_frames_than_the_parent(&cfg, sdus_per_msg, most_frames, recorded);
            }
            println!(
                "{:?} / {:?}: {schedules} schedules",
                cfg.error_control, cfg.flow_control
            );
            assert!(schedules > 100, "the exploration enumerated nothing");
        }
    }

    /// The same exploration with SDUs large enough that short messages
    /// ride in trains: checked per *message* — each delivered once, in
    /// submission order, each completion `Ok`. A dropped data frame now
    /// loses a whole train, a dropped acknowledgement leaves all of its
    /// messages unresolved.
    #[test]
    fn every_schedule_of_two_faults_delivers_every_message_of_a_train_exactly_once() {
        let runs: [(&[usize], usize); 3] = [
            // One train of three.
            (&[1, 1, 1], 1),
            // A train of three, a fourth message alone, one of three SDUs.
            (&[1, 1, 1, 1, LONG], 5),
            // Two trains with a message of three SDUs between them.
            (&[1, 1, LONG, 1, 1], 5),
        ];
        let configs = [sr(), gbn()]
            .into_iter()
            .flat_map(|ec| [credit(), FlowControlAlg::None].map(|fc| train_config(ec.clone(), fc)));
        for (cfg, parent) in configs.zip(PARENT_TRAIN_FRAMES) {
            let mut schedules = 0;
            for ((lens, frames), recorded) in runs.into_iter().zip(parent) {
                assert_eq!(
                    data_frames(&run(&cfg, lens, &Plan::new())),
                    frames,
                    "{lens:?}"
                );
                let (explored, most_frames) = explore(&cfg, lens);
                schedules += explored;
                assert_no_more_frames_than_the_parent(&cfg, lens, most_frames, recorded);
            }
            println!(
                "{:?} / {:?}: {schedules} schedules with trains",
                cfg.error_control, cfg.flow_control
            );
            assert!(schedules > 100, "the exploration enumerated nothing");
        }
    }

    // -- A credit window without error control ---------------------------

    /// Error control goes only where the widest window a connection can
    /// reach, plus the one SDU a starvation probe sends past the edge,
    /// fits in the interface's ring twice — once for the data, once for
    /// the feedback about the other side's — beside a set-up or close
    /// frame; and never over an interface that loses frames otherwise. What else the application configured
    /// stays.
    #[test]
    fn error_control_goes_only_where_the_window_and_a_probe_fit_the_ring() {
        let reliable = ConnectionConfig::reliable();
        let ec = |cfg: &ConnectionConfig, ring| plane_config(cfg, ring).error_control;
        // The default window widens from 4 to 32 SDUs: 2 x 33 + 1 frames.
        assert_eq!(ec(&reliable, Some(67)), ErrorControlAlg::None);
        assert_eq!(ec(&reliable, Some(66)), reliable.error_control);
        assert_eq!(ec(&reliable, Some(128)), ErrorControlAlg::None);
        let planes = plane_config(&reliable, Some(128));
        assert_eq!(
            (planes.flow_control, planes.sdu_size),
            (reliable.flow_control.clone(), reliable.sdu_size)
        );
        let with = |flow_control| ConnectionConfig {
            flow_control,
            ..reliable.clone()
        };
        let fixed = with(FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        });
        assert_eq!(ec(&fixed, Some(11)), ErrorControlAlg::None);
        assert_eq!(ec(&fixed, Some(10)), fixed.error_control);
        let wide = with(FlowControlAlg::CreditBased {
            initial_credits: 63,
            dynamic: false,
        });
        assert_eq!(ec(&wide, Some(129)), ErrorControlAlg::None);
        assert_eq!(ec(&wide, Some(128)), wide.error_control);
        // No window bounds what waits unread.
        for unbounded in [
            FlowControlAlg::None,
            FlowControlAlg::RateBased {
                packets_per_sec: 10,
                burst: 1,
            },
        ] {
            let cfg = with(unbounded);
            assert_eq!(ec(&cfg, Some(1 << 20)), cfg.error_control);
        }
        assert_eq!(ec(&reliable, None), reliable.error_control);
        // Probes send past the edge what the ring holds beyond both
        // sides' windows and the set-up frame.
        let probes = |cfg: &ConnectionConfig, ring| {
            let cfg = plane_config(cfg, Some(ring));
            TxPlane::new(
                &cfg,
                Some(ring),
                PlaneObs::default(),
                &BufPool::new(),
                Instant::now(),
            )
            .probes
        };
        assert_eq!(probes(&reliable, 67), Some(1));
        assert_eq!(probes(&reliable, 128), Some(31));
        assert_eq!(probes(&fixed, 14), Some(2));
    }

    /// A short message behind a session nobody has answered waits, so that
    /// what queues behind it can ride along. The credit that ends the wait
    /// can itself be lost — the control ring has no window and drops on
    /// overrun — and then the starvation probe's interval ends it: the
    /// message leaves at the probe, not never. A message that could not
    /// share its SDU never waits.
    #[test]
    fn a_message_held_for_a_lost_credit_leaves_at_the_starvation_probe() {
        let cfg = train_config(ErrorControlAlg::None, credit());
        let start = Instant::now();
        let mut tx = TxPlane::new(&cfg, Some(64), PlaneObs::default(), &BufPool::new(), start);
        let mut sent = Vec::new();
        // The shell's write resolves what the SDU carries.
        let mut poll = |tx: &mut TxPlane, at: Duration| {
            let before = sent.len();
            tx.poll(start + at, |sdu| {
                sent.push(sdu.session);
                sdu.done.iter().for_each(|c| c.complete(Ok(())));
            });
            sent.len() - before
        };
        let first = submit(&mut tx, body(0, 1));
        assert_eq!(poll(&mut tx, Duration::ZERO), 1);
        assert_eq!(first.take(), Some(Ok(())), "complete on the write");
        assert!(!tx.in_flight());

        // The first's credit is lost: nothing answers it.
        let held = submit(&mut tx, body(1, 1));
        assert_eq!(poll(&mut tx, MS), 0);
        assert!(tx.in_flight(), "a held message counts as in flight");
        assert_eq!(
            tx.next_deadline(start + MS),
            Some(start + FC_STARVATION_PROBE)
        );
        assert_eq!(poll(&mut tx, FC_STARVATION_PROBE - MS), 0);
        assert_eq!(
            poll(&mut tx, FC_STARVATION_PROBE),
            1,
            "released at the probe"
        );
        assert_eq!(held.take(), Some(Ok(())));

        // A credit frame ends the wait at once; what queued behind the
        // held message rides with it.
        let t = FC_STARVATION_PROBE + MS;
        let train = [2, 3, 4].map(|i| submit(&mut tx, body(i, 1)));
        assert_eq!(poll(&mut tx, t), 0);
        tx.on_credit(4, start + t);
        assert!(!tx.in_flight());
        assert_eq!(tx.next_deadline(start + t), None, "no hold, no deadline");
        assert_eq!(poll(&mut tx, t), 1, "one train of three");
        assert!(train.iter().all(|c| c.take() == Some(Ok(()))));

        // Unanswered again, but a message that fills its SDU goes at once.
        tx.on_credit(5, start + t);
        let full = submit(&mut tx, vec![7; TRAIN_SDU - 2 * RECORD_HEADER]);
        assert_eq!(poll(&mut tx, t), 1);
        assert_eq!(full.take(), Some(Ok(())));
        assert_eq!(sent, [0, 1, 2, 3]);
    }

    /// What a ring carries: a data frame, a credit edge — the feedback of
    /// the side that sends it about the other's data — or the set-up or
    /// close frame.
    enum Frame {
        Data(DataHeader, bool, Vec<u8>),
        Credit(u32),
        Control,
    }

    /// One end of a connection without error control under a credit
    /// window: its sender half, its receiver half, and what it sent and
    /// got.
    struct Side {
        tx: TxPlane,
        rx: RxPlane,
        submitted: Vec<Vec<u8>>,
        completions: Vec<Arc<RequestCore<()>>>,
        delivered: Vec<Vec<u8>>,
    }

    /// Two such ends joined by two rings, one each way, each carrying its
    /// sender's data, its sender's feedback about the other way's data and
    /// — acceptor to initiator — the set-up frame first; each side's close
    /// is its ring's last frame. Each ring is `slack` frames wider than the
    /// narrowest the ring rule takes: twice the widest window and a probe,
    /// beside one frame. A side reads its ring when it likes, or not at all
    /// for as long as it likes, and may lose a feedback frame it reads.
    struct RingModel {
        sides: [Side; 2],
        now: Instant,
        capacity: usize,
        /// `rings[i]`: frames from side `i` to the other, oldest first.
        rings: [VecDeque<Frame>; 2],
    }

    impl RingModel {
        fn new(cfg: &ConnectionConfig, slack: usize) -> RingModel {
            let now = Instant::now();
            let window = widest_window(&cfg.flow_control).expect("a window") as usize;
            let capacity = 2 * (window + 1) + slack;
            assert_eq!(
                plane_config(cfg, Some(capacity)).error_control,
                ErrorControlAlg::None
            );
            let side = || Side {
                tx: TxPlane::new(
                    cfg,
                    Some(capacity),
                    PlaneObs::default(),
                    &BufPool::new(),
                    now,
                ),
                rx: rx_plane(cfg).0,
                submitted: Vec::new(),
                completions: Vec::new(),
                delivered: Vec::new(),
            };
            RingModel {
                sides: [side(), side()],
                now,
                capacity,
                // Side 1 accepted the connection: its AcceptConn comes first.
                rings: [VecDeque::new(), VecDeque::from([Frame::Control])],
            }
        }

        /// Side `i`'s ring took one more frame.
        fn push(&mut self, i: usize, frame: Frame) -> Result<(), TestCaseError> {
            self.rings[i].push_back(frame);
            prop_assert!(
                self.rings[i].len() <= self.capacity,
                "{} frames unread in a ring of {}",
                self.rings[i].len(),
                self.capacity
            );
            Ok(())
        }

        fn submit(&mut self, i: usize, len: usize) {
            let side = &mut self.sides[i];
            let n = side.submitted.len();
            let data: Vec<u8> = (0..len).map(|j| (n * 31 + j + i) as u8).collect();
            side.completions.push(submit(&mut side.tx, data.clone()));
            side.submitted.push(data);
        }

        /// Side `i`'s sender runs; what it releases lands in its ring,
        /// which takes it — the write that completes a message's request.
        fn poll(&mut self, i: usize) -> Result<(), TestCaseError> {
            let mut out = Vec::new();
            self.sides[i].tx.poll(self.now, |sdu| {
                out.push(Frame::Data(
                    header_of(&sdu),
                    sdu.packed,
                    sdu.payload.to_vec(),
                ));
                for done in sdu.done {
                    done.complete(Ok(()));
                }
            });
            for frame in out {
                self.push(i, frame)?;
            }
            Ok(())
        }

        /// Side `i`'s event loop takes up to `n` frames off the ring
        /// towards it: data goes to its receiver half, an edge to its
        /// sender half — or nowhere, if `lose` says that edge is lost.
        fn read(&mut self, i: usize, n: usize, lose: bool) -> Result<(), TestCaseError> {
            let ring = &mut self.rings[1 - i];
            let side = &mut self.sides[i];
            for _ in 0..n.min(ring.len()) {
                match ring.pop_front().expect("a frame") {
                    Frame::Data(header, packed, payload) => {
                        let view = DataView {
                            header,
                            packed,
                            payload: &payload,
                        };
                        let step = side.rx.on_frame(&view, self.now);
                        prop_assert!(
                            step.ack.is_none(),
                            "an acknowledgement without error control"
                        );
                        side.delivered.extend(delivered(step));
                    }
                    Frame::Credit(_) if lose => {}
                    Frame::Credit(edge) => side.tx.on_credit(edge, self.now),
                    Frame::Control => {}
                }
            }
            Ok(())
        }

        /// The end of side `i`'s receive drain: its edge, if owed, goes
        /// back on its own ring.
        fn advertise(&mut self, i: usize) -> Result<(), TestCaseError> {
            match self.sides[i].rx.advertise() {
                Some(edge) => self.push(i, Frame::Credit(edge)),
                None => Ok(()),
            }
        }

        fn drain(&mut self, i: usize) -> Result<(), TestCaseError> {
            self.read(i, usize::MAX, false)?;
            self.advertise(i)
        }

        /// Time passes to side `i`'s next deadline, and it runs.
        fn starve(&mut self, i: usize) -> Result<(), TestCaseError> {
            if let Some(at) = self.sides[i].tx.next_deadline(self.now) {
                self.now = self.now.max(at);
            }
            self.poll(i)
        }

        /// Everything that was sent arrives, once, in order, and every
        /// request resolves `Ok`; then each side closes, its close the
        /// last frame of its ring.
        fn finish(&mut self) -> Result<(), TestCaseError> {
            let rest = |m: &RingModel| {
                m.sides.iter().all(|s| s.tx.is_idle()) && m.rings.iter().all(VecDeque::is_empty)
            };
            for _ in 0..10_000 {
                if rest(self) {
                    break;
                }
                for i in 0..2 {
                    self.drain(i)?;
                    self.poll(i)?;
                    if !self.sides[i].tx.is_idle() && self.rings[i].is_empty() {
                        self.starve(i)?;
                    }
                }
            }
            prop_assert!(rest(self), "the connection never came to rest");
            for i in 0..2 {
                self.push(i, Frame::Control)?;
                let side = &self.sides[i];
                prop_assert_eq!(&self.sides[1 - i].delivered, &side.submitted);
                for c in &side.completions {
                    prop_assert_eq!(c.take(), Some(Ok(())));
                }
            }
            Ok(())
        }
    }

    /// A receiver that stops reading its ring: the sender fills the
    /// window, its probes fill what the ring holds beyond both windows,
    /// and then it sends nothing more and keeps no deadline, however long
    /// the silence lasts. When the receiver reads again, everything
    /// arrives.
    #[test]
    fn a_silent_receiver_is_sent_no_more_than_its_ring_holds() -> Result<(), TestCaseError> {
        let fixed = FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        };
        // 2 x (4 + 1) + 4 = 14 frames: two probes.
        let mut model = RingModel::new(&config(ErrorControlAlg::None, fixed), 4);
        for _ in 0..20 {
            model.submit(0, SDU); // one whole SDU: never held
        }
        model.poll(0)?;
        assert_eq!(model.rings[0].len(), 4, "the window");
        for _ in 0..10 {
            model.starve(0)?;
        }
        assert_eq!(model.rings[0].len(), 6, "the window and two probes");
        assert_eq!(
            model.sides[0].tx.next_deadline(model.now),
            None,
            "nothing left to try"
        );
        model.now += 100 * FC_STARVATION_PROBE;
        model.poll(0)?;
        assert_eq!(model.rings[0].len(), 6);
        model.finish()
    }

    /// The credit that would reopen the window is lost, and so is the
    /// answer to the first probe; the answer to the last probe the ring
    /// has room for reopens it. Had that one been lost too, nothing would
    /// have — but a ring the rule holds loses no feedback: a frame is lost
    /// only where it would overrun it.
    #[test]
    fn a_lost_credit_is_healed_by_any_probe_the_ring_has_room_for() -> Result<(), TestCaseError> {
        let fixed = FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        };
        let mut model = RingModel::new(&config(ErrorControlAlg::None, fixed), 4);
        for _ in 0..12 {
            model.submit(0, SDU);
        }
        model.poll(0)?;
        model.read(0, usize::MAX, false)?; // the AcceptConn
        for probe in 0..2 {
            model.drain(1)?;
            model.read(0, 1, true)?;
            assert!(model.sides[0].tx.next_deadline(model.now).is_some());
            model.starve(0)?;
            assert_eq!(
                (model.rings[0].len(), model.sides[0].tx.past),
                (1, probe + 1)
            );
        }
        model.drain(1)?;
        model.read(0, 1, false)?;
        assert_eq!(model.sides[0].tx.past, 0, "the edge passed the probes");
        model.poll(0)?;
        assert_eq!(model.rings[0].len(), 4, "a whole window again");
        model.finish()
    }

    fn window_configs() -> impl Strategy<Value = FlowControlAlg> {
        prop_oneof![
            (1u32..=4, any::<bool>()).prop_map(|(initial_credits, dynamic)| {
                FlowControlAlg::CreditBased {
                    initial_credits,
                    dynamic,
                }
            }),
            (1u32..=8).prop_map(|initial_credits| FlowControlAlg::CreditBased {
                initial_credits,
                dynamic: false,
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No schedule overruns a ring: whatever both sides submit (short
        /// messages that wait to ride in trains, messages of one or more
        /// SDUs) and however their polls, their reads and advertisements
        /// (a drain of one frame answers it with a credit frame of its
        /// own), lost feedback, the window's growth under dense arrivals
        /// and its decay in quiet stretches, the starvation probe and
        /// silences of any length interleave — one side may read nothing
        /// until the end — neither ring, each carrying its sender's data,
        /// its sender's feedback about the other side's data, and the
        /// set-up or close frame, holds more than it can. The rings are
        /// one to three frames wider than the narrowest one the rule
        /// takes for the window. Feedback is lost at will while the sender
        /// it is for has a probe left — and then every message arrives
        /// once, in order.
        #[test]
        fn no_schedule_overruns_a_ring_one_to_three_frames_wider_than_the_window(
            fc in window_configs(),
            slack in 1usize..=3,
            // The side that reads nothing until the end, if 0 or 1.
            silent in 0usize..3,
            ops in proptest::collection::vec((0u8..9, 0usize..1_000), 1..300),
        ) {
            let mut model = RingModel::new(&train_config(ErrorControlAlg::None, fc), slack);
            for (op, n) in ops {
                let i = n % 2;
                let reads = silent != i;
                match op {
                    0 | 1 => model.submit(i, 1 + n % (3 * TRAIN_SDU)),
                    2 => model.poll(i)?,
                    3 if reads => model.read(i, 1 + n % 40, false)?,
                    4 => model.advertise(i)?,
                    5 if reads => {
                        let lose = n % 8 < 2 && model.sides[i].tx.may_probe();
                        model.read(i, 1, lose)?
                    }
                    6 if reads => {
                        model.read(i, 1, false)?;
                        model.advertise(i)?
                    }
                    7 => model.starve(i)?,
                    _ => model.now += Duration::from_millis(n as u64 % 31),
                }
            }
            model.finish()?;
        }
    }
}
