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
//! Two thin shells in [`crate::connection`] drive them: the reactor task
//! (non-blocking; deadlines become reactor timers) and direct mode
//! (blocking on the caller's thread; `now` is read from the node
//! [`Clock`](crate::Clock)). Being free of I/O is also what lets the tests
//! below wire a `TxPlane` to an `RxPlane` through an in-test wire and
//! enumerate loss schedules exhaustively.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_obs::{EventKind, FlightRecorder};
use parking_lot::Mutex;

use crate::config::ConnectionConfig;
use crate::connection::SendError;
use crate::error_control::{
    build_receiver, build_sender, AckInfo, ReceiverEc, ReceiverStep, SenderEc, SenderStep,
};
use crate::flow_control::{build as build_fc, FlowControlStrategy};
use crate::packet::DataView;
use crate::request::RequestCore;
use crate::seq::AckBitmap;
use crate::stats::ConnCounters;

/// How long the sender tolerates SDUs queued behind flow control with no
/// feedback before probing with one. Feedback (credits, window acks)
/// travels on the control connection, which over ACI can itself lose
/// cells; without this probe a lost credit grant would starve the sender
/// forever.
const FC_STARVATION_PROBE: Duration = Duration::from_millis(500);

/// Where the planes report: the connection's counters, its flight
/// recorder and its sticky send error. All three are shared handles, so a
/// clone observes (and feeds) the same connection.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlaneObs {
    pub counters: ConnCounters,
    pub recorder: FlightRecorder,
    pub last_error: Arc<Mutex<Option<SendError>>>,
}

/// One message handed to the send side.
#[derive(Debug)]
pub(crate) struct Submission {
    /// The message body, tag envelope included.
    pub data: Vec<u8>,
    /// The body starts with a tag envelope (sets the header flag on every
    /// SDU).
    pub tagged: bool,
    /// Resolved when error control finishes the message, either way.
    pub completion: Option<Arc<RequestCore<()>>>,
}

/// What the peer's receive side tells this sender over the control
/// connection.
#[derive(Debug)]
pub(crate) enum CtrlEvent {
    /// An acknowledgement of `session`.
    Ack { session: u32, info: AckInfo },
    /// Flow-control feedback: credits or window acknowledgements.
    Credit(u32),
}

/// One SDU the sender wants on the wire now: everything a data header
/// needs except the connection ids, which belong to the shell.
pub(crate) struct Sdu<'a> {
    pub session: u32,
    pub seq: u32,
    pub end: bool,
    pub tagged: bool,
    pub payload: &'a [u8],
}

/// SDUs a body of `len` bytes segments into.
pub(crate) fn sdu_count(len: usize, sdu_size: usize) -> u32 {
    len.div_ceil(sdu_size).max(1) as u32
}

impl<'a> Sdu<'a> {
    /// SDU `seq` of `body`, cut every `sdu_size` bytes — the one
    /// segmenter (the bypass path's eager encode uses it too).
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
            payload: &body[lo..hi],
        }
    }
}

/// The error-control session in flight (one at a time, Figure 6). The
/// body is kept once; SDUs are cut from it each time one is released.
#[derive(Debug)]
struct Session {
    id: u32,
    body: Vec<u8>,
    tagged: bool,
    completion: Option<Arc<RequestCore<()>>>,
    first_round: bool,
    /// When the current acknowledgement wait runs out; `None` under an
    /// algorithm that never expects one.
    ack_deadline: Option<Instant>,
}

/// The sender half of the pipeline.
#[derive(Debug)]
pub(crate) struct TxPlane {
    sdu_size: usize,
    ec: Box<dyn SenderEc>,
    fc: Box<dyn FlowControlStrategy>,
    obs: PlaneObs,
    /// Messages queued behind the session in flight.
    backlog: VecDeque<Submission>,
    active: Option<Session>,
    /// Sequence numbers of the active session waiting for flow control.
    pending: VecDeque<u32>,
    /// Last time feedback arrived or an SDU was released.
    last_progress: Instant,
    next_session: u32,
}

impl TxPlane {
    pub(crate) fn new(config: &ConnectionConfig, obs: PlaneObs, now: Instant) -> Self {
        TxPlane {
            sdu_size: config.sdu_size,
            ec: build_sender(&config.error_control),
            fc: build_fc(&config.flow_control),
            obs,
            backlog: VecDeque::new(),
            active: None,
            pending: VecDeque::new(),
            last_progress: now,
            next_session: 0,
        }
    }

    /// Queues a message behind whatever is in flight.
    pub(crate) fn submit(&mut self, submission: Submission) {
        self.backlog.push_back(submission);
    }

    /// Routes one control-connection event.
    pub(crate) fn on_event(&mut self, event: CtrlEvent, now: Instant) {
        match event {
            CtrlEvent::Ack { session, info } => self.on_ack(session, info, now),
            CtrlEvent::Credit(n) => self.on_credit(n, now),
        }
    }

    /// An acknowledgement of `session` arrived. Only the session in
    /// flight has anything to learn from one: an acknowledgement that
    /// arrives between sessions, or that names an earlier session (the
    /// receiver re-sends the clean acknowledgement of a delivered message
    /// for every duplicate end marker it sees), is dropped — fed to the
    /// strategy it could complete a message that was never delivered.
    pub(crate) fn on_ack(&mut self, session: u32, info: AckInfo, now: Instant) {
        let waiting = self
            .active
            .as_ref()
            .is_some_and(|s| s.id == session && s.ack_deadline.is_some());
        if !waiting {
            return;
        }
        self.obs.counters.acks_received.inc();
        let step = self.ec.on_ack(info);
        // `Wait` keeps waiting against the *same* deadline: a partial
        // acknowledgement does not reset the retransmission clock.
        if !matches!(step, SenderStep::Wait) {
            self.apply(step, now);
        }
    }

    /// Flow-control feedback arrived.
    pub(crate) fn on_credit(&mut self, n: u32, now: Instant) {
        self.obs.counters.credits_received.add(n as u64);
        self.fc.on_feedback(n);
        self.last_progress = now;
    }

    /// Fires the acknowledgement timeout if it is due at `now`; returns
    /// whether it was.
    fn on_timeout(&mut self, now: Instant) -> bool {
        let due = self
            .active
            .as_ref()
            .and_then(|s| s.ack_deadline)
            .is_some_and(|deadline| now >= deadline);
        if due {
            let step = self.ec.on_timeout();
            self.apply(step, now);
        }
        due
    }

    /// Advances the sender as far as it can go at `now`: fires a due
    /// acknowledgement timeout, starts the next message once idle, and
    /// hands every SDU flow control releases to `emit`. Returns whether
    /// anything happened.
    pub(crate) fn poll(&mut self, now: Instant, mut emit: impl FnMut(Sdu<'_>)) -> bool {
        let mut progressed = self.on_timeout(now);
        loop {
            if self.active.is_none() {
                let Some(submission) = self.backlog.pop_front() else {
                    break;
                };
                self.start(submission, now);
                progressed = true;
            }
            progressed |= self.release(now, &mut emit);
            // Without acknowledgements a message is done once its last SDU
            // is released; the session stays until then because the SDUs
            // are cut from its body.
            if self.pending.is_empty() && self.ec.completes_without_ack() {
                self.finish(Ok(()));
                continue;
            }
            break;
        }
        progressed
    }

    /// The earliest instant [`TxPlane::poll`] has work without a new
    /// event: the acknowledgement timeout, and — only while SDUs wait for
    /// flow control — the algorithm's own pacing and the starvation
    /// probe. `None` = only an event can move the sender.
    pub(crate) fn next_deadline(&self, now: Instant) -> Option<Instant> {
        let ack = self.active.as_ref().and_then(|s| s.ack_deadline);
        let (pace, probe) = if self.pending.is_empty() {
            (None, None)
        } else {
            (
                self.fc.next_poll(now),
                Some(self.last_progress + FC_STARVATION_PROBE),
            )
        };
        [ack, pace, probe].into_iter().flatten().min()
    }

    /// A message is in flight: nothing queued behind it can start before
    /// an event or a deadline ends it.
    pub(crate) fn in_flight(&self) -> bool {
        self.active.is_some()
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

    fn start(&mut self, submission: Submission, now: Instant) {
        let Submission {
            data,
            tagged,
            completion,
        } = submission;
        let id = self.next_session;
        self.next_session = id.wrapping_add(1);
        let recorder = &self.obs.recorder;
        recorder.record(EventKind::EcSession, 0, id, data.len());
        recorder.record(EventKind::Packetize, 0, id, data.len());
        self.obs.counters.messages_sent.inc();
        let total = sdu_count(data.len(), self.sdu_size);
        self.active = Some(Session {
            id,
            body: data,
            tagged,
            completion,
            first_round: true,
            ack_deadline: None,
        });
        let step = self.ec.begin(total);
        self.apply(step, now);
    }

    /// Applies one strategy step to the session in flight.
    fn apply(&mut self, step: SenderStep, now: Instant) {
        let Some(session) = self.active.as_mut() else {
            return;
        };
        let ack_deadline = self.ec.ack_timeout().map(|t| now + t);
        match step {
            SenderStep::Transmit(seqs) => {
                if !session.first_round {
                    self.obs.counters.retransmissions.add(seqs.len() as u64);
                    self.obs.recorder.record(
                        EventKind::Retransmit,
                        0,
                        *seqs.first().unwrap_or(&0),
                        seqs.len(),
                    );
                    // A retransmission round supersedes whatever of the
                    // session still waits for flow control (keeps timeout
                    // storms from ballooning the queue behind stale
                    // duplicates).
                    self.pending.clear();
                }
                self.pending.extend(seqs);
                session.first_round = false;
                session.ack_deadline = ack_deadline;
            }
            SenderStep::Done => self.finish(Ok(())),
            SenderStep::Failed(why) => self.finish(Err(SendError::DeliveryFailed(why))),
            SenderStep::Wait => session.ack_deadline = ack_deadline,
        }
    }

    /// Hands the SDUs flow control permits at `now` to `emit`.
    fn release(&mut self, now: Instant, emit: &mut impl FnMut(Sdu<'_>)) -> bool {
        let Some(session) = &self.active else {
            return false;
        };
        if self.pending.is_empty() {
            return false;
        }
        let permits = self.fc.permits(now) as usize;
        let mut n = permits.min(self.pending.len());
        if permits == 0 {
            // Stalled: note the queue depth for the recorder.
            self.obs
                .recorder
                .record(EventKind::FcWait, 0, 0, self.pending.len());
            // Starvation probe: rather than stall forever on lost
            // feedback, trickle one SDU out so the receiver's grants
            // resume.
            if now.duration_since(self.last_progress) >= FC_STARVATION_PROBE {
                n = 1;
            }
        }
        if n == 0 {
            return false;
        }
        for seq in self.pending.drain(..n) {
            emit(Sdu::of(
                &session.body,
                self.sdu_size,
                session.id,
                session.tagged,
                seq,
            ));
        }
        self.fc.on_transmit(n.min(permits) as u32);
        self.last_progress = now;
        true
    }

    /// Resolves the session in flight: a failure sticks on the
    /// connection, and the `isend` completion (if any) resolves either
    /// way.
    fn finish(&mut self, result: Result<(), SendError>) {
        let Some(session) = self.active.take() else {
            return;
        };
        self.pending.clear();
        if let Err(e) = &result {
            *self.obs.last_error.lock() = Some(e.clone());
            self.obs.counters.send_failures.inc();
        }
        if let Some(c) = session.completion {
            c.complete(result);
        }
    }
}

/// What one arriving data frame asks the shell to do.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct RxStep {
    /// Credits to grant back over the control connection (0 = none).
    pub credit: u32,
    /// Acknowledgement of the frame's session to send.
    pub ack: Option<AckInfo>,
    /// A message reassembled: deliver it.
    pub delivered: Option<Vec<u8>>,
}

/// The receiver half of the pipeline.
#[derive(Debug)]
pub(crate) struct RxPlane {
    ec: Box<dyn ReceiverEc>,
    fc: Box<dyn FlowControlStrategy>,
    /// The session being reassembled.
    session: Option<u32>,
    /// Sessions below this were fully delivered: their retransmissions
    /// are duplicates (the original acknowledgement was lost) and must be
    /// re-acknowledged, never re-delivered.
    delivered_below: u32,
}

impl RxPlane {
    pub(crate) fn new(config: &ConnectionConfig) -> Self {
        RxPlane {
            ec: build_receiver(&config.error_control),
            fc: build_fc(&config.flow_control),
            session: None,
            delivered_below: 0,
        }
    }

    /// One data frame arrived.
    pub(crate) fn on_frame(&mut self, frame: &DataView<'_>, now: Instant) -> RxStep {
        let h = frame.header;
        // Every arrival spent one of the sender's credits, duplicates
        // included.
        let mut step = RxStep {
            credit: self.fc.on_receive(now),
            ..RxStep::default()
        };
        if h.session < self.delivered_below {
            // Duplicate of a delivered message: re-send the clean
            // acknowledgement when its end marker shows up, so the sender
            // can finish even though the first one died.
            if h.end {
                step.ack = Some(match self.ec.name() {
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
                self.ec.reset();
                self.session = Some(h.session);
            }
        }
        (step.ack, step.delivered) = match self.ec.on_packet(h.seq, h.end, frame.payload.to_vec()) {
            ReceiverStep::Ack(a) => (Some(a), None),
            ReceiverStep::Deliver(m) => (None, Some(m)),
            ReceiverStep::AckAndDeliver(a, m) => (Some(a), Some(m)),
            ReceiverStep::Continue => (None, None),
        };
        if step.delivered.is_some() {
            self.delivered_below = h.session + 1;
            self.session = None;
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErrorControlAlg, FlowControlAlg};
    use crate::packet::{DataHeader, DataPacket};

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
            direct: false,
        }
    }

    /// Message `i` of a run: `sdus` SDUs, the last one short, every byte
    /// distinct from its neighbours in other messages.
    fn body(i: usize, sdus: usize) -> Vec<u8> {
        (0..sdus * SDU - 1).map(|j| (i * 37 + j) as u8).collect()
    }

    fn submit(tx: &mut TxPlane, data: Vec<u8>) -> Arc<RequestCore<()>> {
        let completion = RequestCore::new();
        tx.submit(Submission {
            data,
            tagged: false,
            completion: Some(Arc::clone(&completion)),
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
            let mut tx = TxPlane::new(&config(ec, FlowControlAlg::None), PlaneObs::default(), now);
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

    // -- Bounded schedule exploration ------------------------------------
    //
    // A `TxPlane` and an `RxPlane` joined by an in-test wire. Everything
    // put on the wire — data frame, acknowledgement, credit grant — is an
    // *event*, numbered in the order it is created; a *schedule* is a set
    // of at most two faults, each naming an event. Runs are deterministic,
    // so the schedules with one more fault than `plan` are found by
    // running `plan` and faulting each later event in turn.

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Data,
        Ack,
        Credit,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        Drop,
        /// A second copy of an acknowledgement that arrives late: after
        /// the sender has moved on to whatever it does next.
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
                "{:?} / {:?}, messages of {sdus_per_msg:?} SDUs, faults {plan:?}",
                cfg.error_control, cfg.flow_control
            )
        };
        let mut now = Instant::now();
        let obs = PlaneObs::default();
        let mut tx = TxPlane::new(cfg, obs.clone(), now);
        let mut rx = RxPlane::new(cfg);
        let bodies: Vec<Vec<u8>> = (0..sdus_per_msg.len())
            .map(|i| body(i, sdus_per_msg[i]))
            .collect();
        let completions: Vec<_> = bodies.iter().map(|b| submit(&mut tx, b.clone())).collect();

        let mut events = Vec::new();
        let mut data_wire: VecDeque<DataPacket> = VecDeque::new();
        let mut ctrl_wire: VecDeque<CtrlEvent> = VecDeque::new();
        let mut late_acks: Vec<CtrlEvent> = Vec::new();
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        for _step in 0..10_000 {
            let mut moved = tx.poll(now, |sdu| {
                if fate(&mut events, Kind::Data, plan).is_none() {
                    data_wire.push_back(DataPacket {
                        header: DataHeader {
                            conn: 0,
                            src_conn: 0,
                            session: sdu.session,
                            seq: sdu.seq,
                            end: sdu.end,
                            tagged: sdu.tagged,
                        },
                        payload: sdu.payload.to_vec(),
                    });
                }
            });
            if moved {
                ctrl_wire.extend(late_acks.drain(..));
            }
            while let Some(packet) = data_wire.pop_front() {
                moved = true;
                let view = DataView {
                    header: packet.header,
                    payload: &packet.payload,
                };
                let step = rx.on_frame(&view, now);
                if step.credit > 0 && fate(&mut events, Kind::Credit, plan).is_none() {
                    ctrl_wire.push_back(CtrlEvent::Credit(step.credit));
                }
                if let Some(info) = step.ack {
                    let ack = || CtrlEvent::Ack {
                        session: packet.header.session,
                        info: info.clone(),
                    };
                    match fate(&mut events, Kind::Ack, plan) {
                        None => ctrl_wire.push_back(ack()),
                        Some(Fault::Drop) => {}
                        Some(Fault::Duplicate) => {
                            ctrl_wire.push_back(ack());
                            late_acks.push(ack());
                        }
                    }
                }
                delivered.extend(step.delivered);
            }
            while let Some(event) = ctrl_wire.pop_front() {
                moved = true;
                tx.on_event(event, now);
            }
            if moved {
                continue;
            }
            if !late_acks.is_empty() {
                ctrl_wire.extend(late_acks.drain(..));
                continue;
            }
            // Nothing else can progress: only now may time pass, and only
            // as far as the sender's own next deadline.
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
        assert!(
            tx.is_idle() && tx.next_deadline(now).is_none(),
            "not quiescent: {tx:?}: {}",
            context()
        );
        events
    }

    /// Every schedule of at most two faults; returns how many there were.
    fn explore(cfg: &ConnectionConfig, sdus_per_msg: &[usize]) -> usize {
        let mut schedules = 0;
        let mut todo: Vec<Plan> = vec![Vec::new()];
        while let Some(plan) = todo.pop() {
            let events = run(cfg, sdus_per_msg, &plan);
            schedules += 1;
            if plan.len() == 2 {
                continue;
            }
            let from = plan.last().map_or(0, |(i, _)| i + 1);
            for (i, kind) in events.iter().enumerate().skip(from) {
                let faults: &[Fault] = match kind {
                    Kind::Ack => &[Fault::Drop, Fault::Duplicate],
                    Kind::Data | Kind::Credit => &[Fault::Drop],
                };
                for fault in faults {
                    let mut next = plan.clone();
                    next.push((i, *fault));
                    todo.push(next);
                }
            }
        }
        schedules
    }

    #[test]
    fn every_schedule_of_two_faults_delivers_exactly_once() {
        for ec in [sr(), gbn()] {
            for fc in [credit(), FlowControlAlg::None] {
                let cfg = config(ec.clone(), fc);
                let schedules: usize = [&[1, 1][..], &[2, 2, 2], &[3, 1, 2], &[3, 3]]
                    .iter()
                    .map(|sdus_per_msg| explore(&cfg, sdus_per_msg))
                    .sum();
                println!(
                    "{:?} / {:?}: {schedules} schedules",
                    cfg.error_control, cfg.flow_control
                );
                assert!(schedules > 100, "the exploration enumerated nothing");
            }
        }
    }
}
