//! The per-peer control plane: Figure 1's Control Send and Control
//! Receive threads as one resumable reactor task.
//!
//! A control channel is duplex, on every interface, and is used that way:
//! the node that dials a connection opens one first if none is up with
//! the peer, and from then on both nodes write their control messages to
//! it and read the other's from it — a pair connected from one side runs
//! one control channel. Setup stays free of initiation races without a
//! protocol for them: each task reads *every* channel it has with its
//! peer and writes to the oldest live one, so when both sides dial at
//! once and open a channel each, both channels are read at both ends and
//! nothing depends on which of them a node writes to.
//!
//! Where the paper parks a thread on each end of each channel, every
//! attached peer gets one [`CtrlTask`], registered with the node's
//! [`Reactor`] through the same waker/fd path as a connection's task. A
//! poll drains whatever the peer's channels hold into the node's
//! dispatcher and flushes the peer's one FIFO of outbound messages onto
//! one channel — one queue per peer, so `AcceptConn` precedes every
//! feedback frame of its connection (an `Ack`, which carries the credit
//! edge it owes, or a `Credit`, the edge alone) and `CloseConn` follows
//! them, across all connections to that peer. Opening channels (which may
//! block on signaling) stays with the thread that dials a connection; the
//! task only ever calls `try_recv` and `try_send_batch`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ncs_threads::sync::Mailbox;
use ncs_transport::{Connection as Transport, TransportError};
use parking_lot::Mutex;

use crate::connection::{fill_batch, flush_owed, IO_BATCH, RECV_BUDGET};
use crate::packet::CtrlMsg;
use crate::reactor::{Reactor, ReactorTask, TaskHandle, TaskKind, TaskPoll, Watch};

/// What the rest of the node holds of one peer's control plane.
pub(crate) struct PeerCtrl {
    /// Outbound messages, in submission order: connections → task. Sending
    /// wakes the task (the mailbox's notify hook).
    outbox: Arc<Mailbox<CtrlMsg>>,
    /// Every control channel with the peer, whoever opened it, in adoption
    /// order: the task reads them all and writes to the first. A channel
    /// that ends (the peer hung up) is dropped, the next one takes over,
    /// and with none left the next connection setup opens another. The
    /// task holds the lock for the length of a poll.
    channels: Mutex<Vec<Watch>>,
    retired: AtomicBool,
    task: Arc<TaskHandle>,
}

impl PeerCtrl {
    /// Registers a peer's control task with `reactor`. `dispatch` runs on
    /// the event loop for every message the peer sends; it must not block.
    pub(crate) fn spawn(
        reactor: &Reactor,
        dispatch: impl FnMut(CtrlMsg) + Send + 'static,
    ) -> Arc<Self> {
        let mut spawned = None;
        reactor.spawn(TaskKind::Control, |task| {
            let peer = Arc::new(PeerCtrl {
                outbox: Arc::default(),
                channels: Mutex::default(),
                retired: AtomicBool::new(false),
                task: Arc::clone(task),
            });
            let waker = Arc::clone(task);
            peer.outbox.set_notify(Some(Arc::new(move || waker.wake())));
            spawned = Some(Arc::clone(&peer));
            Box::new(CtrlTask {
                peer,
                dispatch: Box::new(dispatch),
                pending: VecDeque::new(),
                spare: Vec::new(),
            })
        });
        spawned.expect("made by the closure")
    }

    /// The peer's outbound queue.
    pub(crate) fn outbox(&self) -> Arc<Mailbox<CtrlMsg>> {
        Arc::clone(&self.outbox)
    }

    /// Whether a channel with the peer is up (so that what is queued on
    /// [`PeerCtrl::outbox`] has somewhere to go).
    pub(crate) fn has_outbound(&self) -> bool {
        !self.channels.lock().is_empty()
    }

    /// Hands a control channel to the task, which reads it from its next
    /// poll on. A retired task takes no more channels.
    pub(crate) fn adopt(&self, reactor: &Reactor, transport: Arc<dyn Transport>) {
        let watch = reactor.watch(&transport, &self.task);
        let mut channels = self.channels.lock();
        if self.is_retired() {
            transport.close();
        } else {
            channels.push(watch);
        }
        drop(channels);
        // Frames that arrived before the watch was in place woke nobody.
        self.task.wake();
    }

    /// Retires the task: it flushes what is queued (the `CloseConn`s of
    /// the connections closed with the peer), hangs up every channel and
    /// leaves the reactor. Idempotent.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release);
        self.task.wake();
    }

    fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Control channels up with the peer.
    #[cfg(test)]
    pub(crate) fn channel_count(&self) -> usize {
        self.channels.lock().len()
    }
}

/// One peer's control plane as a reactor task: the non-blocking stand-in
/// for the paper's Control Send and Control Receive threads.
struct CtrlTask {
    peer: Arc<PeerCtrl>,
    dispatch: Box<dyn FnMut(CtrlMsg) + Send>,
    /// Encoded frames the transport has not accepted yet, oldest first.
    pending: VecDeque<Vec<u8>>,
    /// Frame buffers to encode into (control frames are small and the
    /// queue is short: a handful of buffers serves the task's lifetime).
    spare: Vec<Vec<u8>>,
}

impl ReactorTask for CtrlTask {
    fn poll(&mut self, _now: Instant) -> TaskPoll {
        let CtrlTask {
            peer,
            dispatch,
            pending,
            spare,
        } = self;
        let retired = peer.is_retired();
        let mut channels = peer.channels.lock();
        // Control Receive: drain every channel into the dispatcher. A
        // frame that does not decode is skipped; a channel that reports
        // anything but "empty" has ended and is dropped.
        let mut budget = if retired { 0 } else { RECV_BUDGET };
        channels.retain(|ch| {
            while budget > 0 {
                match ch.transport().try_recv() {
                    Ok(Some(frame)) => {
                        budget -= 1;
                        if let Ok(msg) = CtrlMsg::decode(&frame) {
                            dispatch(msg);
                        }
                    }
                    Ok(None) | Err(TransportError::Timeout) => break,
                    Err(_) => {
                        ch.transport().close();
                        return false;
                    }
                }
            }
            true
        });
        // Control Send: move the outbound queue onto the wire, in order —
        // onto the oldest channel still up, so the choice changes only
        // when a channel ends.
        let out = channels.first();
        let refused = loop {
            while pending.len() < IO_BATCH {
                let Some(msg) = peer.outbox.try_recv() else {
                    break;
                };
                let mut frame = spare.pop().unwrap_or_default();
                msg.encode_into(&mut frame);
                pending.push_back(frame);
            }
            if pending.is_empty() {
                break out.is_some_and(|ch| flush_owed(ch.transport().as_ref()));
            }
            let mut refs = [&[][..]; IO_BATCH];
            let batch = fill_batch(&mut refs, pending.iter().map(Vec::as_slice));
            match out.map(|ch| ch.transport().try_send_batch(&refs[..batch])) {
                Some(Ok(0)) => break true,
                Some(Ok(sent)) => spare.extend(pending.drain(..sent.min(batch))),
                // No usable channel (the peer hung up, or the interface
                // failed): what is addressed to it is undeliverable.
                Some(Err(_)) | None => pending.clear(),
            }
        };
        if retired {
            // Those were the last words; dropping the task hangs up.
            return TaskPoll::Done;
        }
        if budget == 0 {
            return TaskPoll::Again;
        }
        // Quiescent: re-arm fd readiness — the channel written to for
        // output too, after a refused flush or with bytes still owed: the
        // peer draining wakes the task, as a frame arriving does.
        for (i, ch) in channels.iter().enumerate() {
            ch.rearm(refused && i == 0);
        }
        TaskPoll::Idle
    }
}

impl Drop for CtrlTask {
    /// Hangs up every channel, however the task ends: retired by its node
    /// (after the final flush), or dropped with a reactor that was shut
    /// down under it.
    fn drop(&mut self) {
        let mut channels = self.peer.channels.lock();
        self.peer.retired.store(true, Ordering::Release);
        for ch in channels.drain(..) {
            ch.transport().close();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error_control::AckInfo;
    use crate::seq::AckBitmap;
    use ncs_threads::{KernelPackage, UserRuntime};
    use ncs_transport::{Capabilities, Readiness, Waker};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A channel whose blocking calls panic: whatever a task gets done
    /// on it, it gets done with `try_recv` and `try_send_batch`.
    /// Clones share their state: one goes to the task, one stays with the
    /// test.
    #[derive(Default, Clone)]
    pub(crate) struct Stub {
        /// `try_send_batch` calls still to answer `Ok(0)`.
        pub(crate) refusals: Arc<Mutex<usize>>,
        /// The readiness waker the task's watch installed.
        pub(crate) waker: Arc<Mutex<Option<Waker>>>,
        /// At most this many frames are taken per accepted batch.
        pub(crate) take: usize,
        pub(crate) inbound: Arc<Mutex<VecDeque<Vec<u8>>>>,
        pub(crate) sent: Arc<Mutex<Vec<Vec<u8>>>>,
        pub(crate) closed: Arc<AtomicBool>,
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
            let mut refusals = self.refusals.lock();
            if *refusals > 0 {
                *refusals -= 1;
                return Ok(0);
            }
            let n = frames.len().min(self.take);
            self.sent
                .lock()
                .extend(frames[..n].iter().map(|f| f.to_vec()));
            Ok(n)
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
            f.debug_struct("Stub").field("take", &self.take).finish()
        }
    }

    impl Stub {
        /// Stops refusing, and says so through the waker — what a
        /// waker-driven endpoint that had refused owes its event loop.
        pub(crate) fn make_room(&self) {
            *self.refusals.lock() = 0;
            let waker = self.waker.lock().clone();
            if let Some(wake) = waker {
                wake();
            }
        }
    }

    /// A control task to poll by hand — no reactor drives it — over the
    /// given channels, in adoption order, with what it dispatches.
    struct ByHand {
        task: CtrlTask,
        peer: Arc<PeerCtrl>,
        dispatched: Arc<Mutex<Vec<CtrlMsg>>>,
        /// How often the reactor polled the stand-in that holds the
        /// task's wake handle: each poll after the first is a wake the
        /// task's channels gave it.
        woken: Arc<AtomicU64>,
        _reactor: Arc<Reactor>,
    }

    fn by_hand(channels: Vec<Arc<dyn Transport>>) -> ByHand {
        // A watch needs a task handle to wake: a stand-in that counts its
        // polls.
        struct StandIn(Arc<AtomicU64>);
        impl ReactorTask for StandIn {
            fn poll(&mut self, _: Instant) -> TaskPoll {
                self.0.fetch_add(1, Ordering::Relaxed);
                TaskPoll::Idle
            }
        }
        let reactor = Reactor::new(Arc::new(KernelPackage::new()), 1);
        let polls = Arc::new(AtomicU64::new(0));
        let stand_in = StandIn(Arc::clone(&polls));
        let handle = reactor.spawn(TaskKind::Control, |_| Box::new(stand_in));
        let peer = Arc::new(PeerCtrl {
            outbox: Arc::default(),
            channels: Mutex::new(
                channels
                    .into_iter()
                    .map(|t| reactor.watch(&t, &handle))
                    .collect(),
            ),
            retired: AtomicBool::new(false),
            task: handle,
        });
        let dispatched = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&dispatched);
        let task = CtrlTask {
            peer: Arc::clone(&peer),
            dispatch: Box::new(move |m| sink.lock().push(m)),
            pending: VecDeque::new(),
            spare: Vec::new(),
        };
        ByHand {
            task,
            peer,
            dispatched,
            woken: polls,
            _reactor: reactor,
        }
    }

    /// Waits up to 5 s for `cond`.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(5), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Two connections' setup, traffic and teardown, interleaved the way
    /// two connection tasks and a connector thread would submit them.
    fn script() -> Vec<CtrlMsg> {
        let ack = |conn, info| CtrlMsg::Ack {
            conn,
            session: 0,
            info,
            edge: Some(2),
        };
        let clean = || AckInfo::Bitmap(AckBitmap::all_received(1));
        let credit = |conn| CtrlMsg::Credit { conn, credits: 2 };
        vec![
            CtrlMsg::AcceptConn {
                initiator_conn: 7,
                acceptor_conn: 0,
            },
            credit(7),
            CtrlMsg::AcceptConn {
                initiator_conn: 8,
                acceptor_conn: 1,
            },
            ack(7, clean()),
            credit(8),
            ack(8, AckInfo::Cumulative(1)),
            CtrlMsg::CloseConn { conn: 7 },
            credit(8),
            ack(8, clean()),
            CtrlMsg::CloseConn { conn: 8 },
        ]
    }

    /// The body of the isolation test. No reactor drives the task: `poll`
    /// is called by hand.
    fn drive_task_by_hand() {
        // The pair's one duplex channel, and behind it the spare a
        // simultaneous dial from the other side leaves: read, never
        // written to while the first is up.
        let duplex = Stub {
            refusals: Arc::new(Mutex::new(usize::MAX)),
            take: 3, // partial batches: the rest must keep its place
            ..Stub::default()
        };
        let spare = Stub {
            take: usize::MAX,
            ..Stub::default()
        };
        let ByHand {
            mut task,
            peer,
            dispatched,
            woken,
            _reactor,
        } = by_hand(vec![Arc::new(duplex.clone()), Arc::new(spare.clone())]);
        let woken = || woken.load(Ordering::Relaxed);
        eventually("the stand-in's first poll", || woken() == 1);

        // Control Send: refused, the task parks with no timer, however
        // often it is polled; the channel's waker resumes it once the
        // channel has room, and the queue goes out in order.
        for msg in script() {
            peer.outbox.send(msg);
        }
        let now = Instant::now();
        for _ in 0..3 {
            assert!(matches!(task.poll(now), TaskPoll::Idle));
            assert!(duplex.sent.lock().is_empty());
        }
        assert_eq!(woken(), 1, "woken while the channel refused");
        duplex.make_room();
        eventually("the waker resumes the task", || woken() == 2);
        assert!(matches!(task.poll(now), TaskPoll::Idle));
        let wire: Vec<CtrlMsg> = duplex
            .sent
            .lock()
            .iter()
            .map(|f| CtrlMsg::decode(f).expect("task sends well-formed frames"))
            .collect();
        assert_eq!(
            wire,
            script(),
            "per-peer FIFO: wire order is submission order"
        );

        // Control Receive, off the channel the task writes to: garbage
        // between two messages is skipped.
        let credit = CtrlMsg::Credit {
            conn: 7,
            credits: 1,
        };
        let close = CtrlMsg::CloseConn { conn: 7 };
        *duplex.inbound.lock() = VecDeque::from([
            credit.encode(),
            vec![0xFF, 0xFF, 0xFF],
            vec![],
            close.encode(),
        ]);
        assert!(matches!(task.poll(now), TaskPoll::Idle));
        assert_eq!(*dispatched.lock(), vec![credit.clone(), close.clone()]);
        assert!(!duplex.closed.load(Ordering::Acquire));
        // ...and off the spare, which has carried nothing outbound.
        spare.inbound.lock().push_back(credit.encode());
        assert!(matches!(task.poll(now), TaskPoll::Idle));
        assert_eq!(*dispatched.lock(), vec![credit.clone(), close, credit]);
        assert!(spare.sent.lock().is_empty());

        // Retirement: last words go out, every channel is hung up.
        peer.outbox.send(CtrlMsg::CloseConn { conn: 9 });
        peer.retire();
        assert!(matches!(task.poll(now), TaskPoll::Done));
        drop(task);
        assert_eq!(duplex.sent.lock().len(), script().len() + 1);
        assert!(duplex.closed.load(Ordering::Acquire) && spare.closed.load(Ordering::Acquire));
        assert!(!peer.has_outbound() && spare.sent.lock().is_empty());
    }

    #[test]
    fn control_task_never_blocks_and_keeps_per_peer_fifo() {
        // On a kernel thread, then as a green thread of the user-level
        // package (whose mailboxes park cooperatively).
        drive_task_by_hand();
        UserRuntime::default().run(|_pkg| drive_task_by_hand());
    }

    /// A control socket that fills — a 4 KiB send buffer, and a peer that
    /// reads late — is drained by the task each time the socket reports
    /// room, with no timer: every message arrives, in order, and the
    /// reactor fires none.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_control_socket_drains_on_fd_reports_with_no_timer() {
        use ncs_transport::Connection as _;
        const MESSAGES: u32 = 100_000;
        let (ours, theirs) = crate::connection::tests::sci_pair_with_a_small_send_buffer();
        let reactor = Reactor::new(Arc::new(KernelPackage::new()), 1);
        let peer = PeerCtrl::spawn(&reactor, |_| {});
        peer.adopt(&reactor, Arc::new(ours));
        for conn in 0..MESSAGES {
            peer.outbox.send(CtrlMsg::CloseConn { conn });
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(!peer.outbox.is_empty(), "the socket took everything");
        let full = reactor.stats();
        for conn in 0..MESSAGES {
            let frame = theirs.recv_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(CtrlMsg::decode(&frame), Ok(CtrlMsg::CloseConn { conn }));
        }
        let drained = reactor.stats();
        assert_eq!(drained.timer_fires, 0, "a retry timer fired: {drained}");
        assert!(
            drained.fd_events > full.fd_events,
            "no fd report: {drained}"
        );
        peer.retire();
        reactor.shutdown();
    }

    #[test]
    fn peer_hang_up_on_our_channel_clears_the_outbound_slot() {
        #[derive(Debug)]
        struct HungUp;
        impl Transport for HungUp {
            fn caps(&self) -> Capabilities {
                Stub::default().caps()
            }
            fn send_batch(&self, _: &[&[u8]]) -> Result<usize, TransportError> {
                Err(TransportError::Closed)
            }
            fn recv_timeout(&self, _: Duration) -> Result<Vec<u8>, TransportError> {
                Err(TransportError::Closed)
            }
            fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
                Err(TransportError::Closed)
            }
            fn readiness(&self) -> Readiness {
                Readiness::Waker
            }
            fn close(&self) {}
            fn peer_label(&self) -> String {
                "gone".to_owned()
            }
        }
        let ByHand { mut task, peer, .. } = by_hand(vec![Arc::new(HungUp)]);
        assert!(peer.has_outbound());
        peer.outbox.send(CtrlMsg::CloseConn { conn: 1 });
        assert!(matches!(task.poll(Instant::now()), TaskPoll::Idle));
        assert!(!peer.has_outbound(), "the next setup opens a new channel");
        assert!(peer.channels.lock().is_empty() && task.pending.is_empty());

        // With a second channel up, that one takes over — the slot is
        // cleared of the dead channel, not of the peer.
        let next = Stub {
            take: usize::MAX,
            ..Stub::default()
        };
        let ByHand { mut task, peer, .. } = by_hand(vec![Arc::new(HungUp), Arc::new(next.clone())]);
        peer.outbox.send(CtrlMsg::CloseConn { conn: 1 });
        assert!(matches!(task.poll(Instant::now()), TaskPoll::Idle));
        assert!(peer.has_outbound() && peer.channels.lock().len() == 1);
        assert_eq!(*next.sent.lock(), [CtrlMsg::CloseConn { conn: 1 }.encode()]);
    }
}
