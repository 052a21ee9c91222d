//! The collective engine: the shell of the collective
//! [`machine`](crate::machine) over a group's pairwise NCS connections,
//! and the typed operations applications call.
//!
//! # Architecture
//!
//! What a collective sends to whom, and in which order, is decided by
//! [`plan`](crate::machine::plan) and interpreted by a
//! [`Machine`] that never touches a connection or a clock. This module
//! gives one member's machine its I/O, and owns **no threads at all**: a
//! collective advances on whichever thread brings it something.
//!
//! * **Who steps.** Everything that can change the machine's mind is an
//!   event on the member's inbox — a submitted operation, a multicast, a
//!   frame or a link's death reported by a link's receive sink
//!   ([`NcsConnection::set_receive_sink`], so on one of the node's event
//!   loops), `close()`, a view abort — and inbox order is execution order.
//!   Whoever queues an event then *drives*: `try_lock` the machine, feed
//!   it what the inbox holds, let it advance, perform what it asks for
//!   (frames out through [`NcsConnection::try_send_batch`], results into
//!   the callers' [`CollectiveHandle`]s), unlock, and look at the inbox
//!   once more. A busy lock means somebody else is stepping and will see
//!   the event on that last look, so the loser just leaves. The frame that
//!   completes an operation therefore completes it on the thread that
//!   delivered it, reductions included: one fold is at most one segment
//!   (`seg_size`), about the copy the receive plane already made of it.
//! * **Who may block.** Nobody. An application thread inside
//!   `iallreduce` and an event loop inside a sink run the same step, and
//!   no path through it waits — not for a link, not for the lock. (Only
//!   `close()` waits for the lock, so that it can promise the closing step
//!   has run: for as long as a step in progress takes.)
//! * **What the outbox bounds.** A link under back-pressure admits a
//!   prefix of what it is offered; the refused frames are copied into a
//!   per-link *outbox* of pooled buffers, and every later frame for that
//!   link queues behind them, so link order holds. While any outbox holds
//!   frames the machine is not asked for more (nor the inbox drained),
//!   until the operation at its head is overdue or the group closes. That
//!   bounds the outbox by what the machine can emit *without receiving*,
//!   not by one plan step: one poll runs the head operation's sends until
//!   a step must wait and then starts the operations queued behind it, so
//!   the bound is the payloads submitted and not yet sent × their fan-out
//!   — memory the callers already handed over. The outbox is offered again
//!   on every drive and, with nothing else happening, when a link it
//!   holds frames for has room again: a link that cut a send short calls
//!   its room waker ([`NcsConnection::set_room_waker`]) once its send
//!   queue drops below the bound, which flags the room and wakes the
//!   group task. Nothing retries on a timer.
//! * **What `Ok` means for a sender.** A machine's `Send` step is done
//!   once its frames are *accepted* — by the link or by the outbox — so
//!   the root of a large broadcast can see its handle resolve with
//!   megabytes still owed. They are delivered all the same: a group that
//!   is closed (or dropped) while it owes frames keeps itself alive, and
//!   its links' room wakes coming, until every outbox is empty or its link
//!   has died.
//! * **Who keeps time.** One reactor task per group
//!   ([`Reactor::spawn_task`](ncs_core::Reactor::spawn_task)) holds the
//!   machine's next deadline (an operation's timeout, the grace after a
//!   link died), under the reactor's timer rule: a
//!   deadline stays armed while the group is busy and is replaced only by
//!   an earlier one, so a stream of short operations with long timeouts
//!   costs one timer per timeout period, not one per operation. The task
//!   holds the group weakly and ends with it: a closed group that owes
//!   nothing is freed the moment its last handle is dropped, whatever
//!   deadline was armed. A reactor that shuts down drops it too, without
//!   waiting for the group.
//! * **What a node's shutdown does.** The group is closed from the moment
//!   its node's shutdown begins ([`NcsNode::is_shut_down`]). The node
//!   then closes the group's links, and each link's sink reports its death
//!   — the step that report brings fails the operation in flight and every
//!   queued one `Closed`, as `close()` does, and every later call fails
//!   the same way. Nothing polls for it.
//!
//! The event loops run on the node's configured
//! [`ncs_threads::ThreadPackage`], so the same engine runs over the
//! kernel-level and the user-level (green-thread) package.
//!
//! # Ordering contract
//!
//! Like MPI, collective calls must be issued **in the same order on every
//! member**. Within one member, submissions from concurrent threads are
//! serialised by the group (the submission order is the execution order).
//! Operations pipeline: a member may have many collectives outstanding;
//! its machine executes them strictly in submission order while
//! early-arriving frames for later operations are stashed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use ncs_core::{BufPool, Clock, NcsConnection, NcsNode, PooledBuf, SendError, TaskRef};
use ncs_threads::sync::Mailbox;
use parking_lot::Mutex;

use crate::datatype::{to_bytes, ReduceOp, Scalar};
use crate::frame::{Encoder, UNMATCHED};
use crate::handle::{CollectiveError, CollectiveHandle, CollectiveResult, OpCompletion};
use crate::machine::{Machine, Op, Output, Spec};
use crate::topology::{OpClass, Topology, TopologyPolicy};

/// How late the group task may run for a deadline: one already armed
/// within this of a new one covers it. Deadlines are recomputed from two
/// clocks on every drive and jitter by nanoseconds; without the slack
/// every other frame would find its operation's (unchanged) deadline
/// "earlier" than the armed one and wake the task for nothing.
const TIMER_SLACK: Duration = Duration::from_micros(100);

/// Tuning knobs of a [`CollectiveGroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Pipeline segment size in bytes: payloads larger than this are cut
    /// into segments that flow through trees and rings store-and-forward
    /// style. Must not exceed the largest message the group's connections
    /// accept.
    pub seg_size: usize,
    /// The per-operation topology selection policy.
    pub policy: TopologyPolicy,
    /// How long any one operation may take, from reaching the head of the
    /// member's queue, before
    /// failing it with [`CollectiveError::Timeout`] (covers members that
    /// never issue the matching call).
    pub op_timeout: Duration,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            seg_size: 32 * 1024,
            policy: TopologyPolicy::default(),
            op_timeout: Duration::from_secs(30),
        }
    }
}

/// Counters of a group's collective engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// Operations completed (successfully or not).
    pub ops_completed: u64,
    /// Collective frames transmitted (including tree forwards).
    pub frames_sent: u64,
    /// Collective frames received and routed.
    pub frames_received: u64,
    /// Payload bytes transmitted.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

#[derive(Debug, Default)]
struct StatCounters {
    ops_completed: ncs_obs::Counter,
    frames_sent: ncs_obs::Counter,
    frames_received: ncs_obs::Counter,
    bytes_sent: ncs_obs::Counter,
    bytes_received: ncs_obs::Counter,
}

impl StatCounters {
    /// Counters registered with the node's telemetry registry under the
    /// group's `group` label, so collective traffic shows up in
    /// [`NcsNode::metrics_snapshot`](ncs_core::NcsNode::metrics_snapshot)
    /// beside the per-connection series.
    fn registered(registry: &ncs_obs::Registry, group: u32) -> Self {
        let id = group.to_string();
        let labels: &[(&str, &str)] = &[("group", &id)];
        let c = |name: &str, help: &str| registry.counter(name, help, labels);
        StatCounters {
            ops_completed: c(
                "ncs_coll_ops_completed_total",
                "Collective operations completed (successfully or not)",
            ),
            frames_sent: c(
                "ncs_coll_frames_sent_total",
                "Collective frames transmitted (including tree forwards)",
            ),
            frames_received: c(
                "ncs_coll_frames_received_total",
                "Collective frames received and routed",
            ),
            bytes_sent: c("ncs_coll_bytes_sent_total", "Collective payload bytes sent"),
            bytes_received: c(
                "ncs_coll_bytes_received_total",
                "Collective payload bytes received",
            ),
        }
    }
}

/// Everything that reaches the machine arrives here, in one FIFO: inbox
/// order is execution order, whoever ends up stepping.
enum Event {
    /// A submitted operation: what to run, its payload, its timeout and
    /// the caller's completion slot.
    Op(Spec, Vec<u8>, Duration, Arc<OpCompletion>),
    /// A multicast of this payload to originate, outside the operation
    /// sequence.
    Multicast(Vec<u8>, Topology, Arc<OpCompletion>),
    /// A frame a link's sink reassembled.
    Frame(usize, Vec<u8>),
    /// A link's sink reported its transport dead — after the link's final
    /// frames, which is what keeps a dying peer's last words from being
    /// masked by its death.
    LinkDown(usize, SendError),
    /// `close()` / `abort_view_changed()` flipped a flag the step reads.
    Wake,
}

/// What the shell still owes for outputs of the machine.
#[derive(Default)]
struct Owed {
    /// Completion slots of the operations inside the machine, oldest
    /// first: the machine finishes them in submission order.
    handles: VecDeque<Arc<OpCompletion>>,
    /// The outbox: frames the links refused, per peer in link order. A
    /// peer with nothing owed has no entry.
    frames: HashMap<usize, VecDeque<PooledBuf>>,
}

/// The machine and what the shell keeps beside it, behind one lock that
/// only `close()` ever waits for.
struct Progress {
    machine: Machine,
    next_coll: u32,
    owed: Owed,
    /// The group itself, from a `close()` that found frames owed until a
    /// step finds none: frames of operations that already resolved `Ok`
    /// still go out after the application has let go of the group.
    flushing: Option<Arc<Inner>>,
}

struct Inner {
    id: u32,
    rank: usize,
    size: usize,
    cfg: CollectiveConfig,
    links: HashMap<usize, NcsConnection>,
    /// Where outbox copies come from (the node's pool, as the encoder's).
    pool: Arc<BufPool>,
    /// Nobody parks here: a queue, not a mailbox.
    inbox: Mutex<VecDeque<Event>>,
    progress: Mutex<Progress>,
    /// The group's reactor task: runs [`Inner::advance`] when woken and at
    /// the deadline it last returned. Holds the group weakly, and is
    /// retired by being dropped with it.
    task: TaskRef,
    /// Set by a link's room waker before it wakes the task, cleared by a
    /// step before it offers the outbox: a wake whose task found the
    /// machine busy is seen by that step, or by its stepper's look after
    /// unlocking.
    room: AtomicBool,
    /// Multicasts delivered to this member: `(origin, payload)`.
    delivered: Mailbox<(usize, Vec<u8>)>,
    closed: AtomicBool,
    /// Nonzero once the world's membership view changed under this group
    /// (the epoch that invalidated it): the group's topology no longer
    /// matches reality, so every in-flight and future operation fails
    /// fast with [`CollectiveError::ViewChanged`] instead of idling out
    /// its timeout against a member that will never answer. Set through
    /// [`ViewAbortHandle`] by the membership layer.
    view_changed: AtomicU64,
    /// The first link failure this member saw (a sink's error or a send
    /// the link refused), for callers that must not go on as if the group
    /// were whole.
    fault: Mutex<Option<SendError>>,
    /// The member's time source (the node's clock): every deadline the
    /// machine is given is read from it, so a simulated member times out
    /// on virtual time, never the wall (see `ncs_core::clock`).
    clock: Arc<dyn Clock>,
    /// The member's node: once it shuts down, the group is closed (the
    /// closes of its links bring the step that learns it).
    node: NcsNode,
    stats: StatCounters,
}

impl Inner {
    fn check_closed(&self) -> Result<(), CollectiveError> {
        // View changes outrank plain closure: a group that was aborted by
        // a membership epoch (then perhaps closed during rebuild) should
        // tell its waiters *why* the topology died.
        let epoch = self.view_changed.load(Ordering::Acquire);
        if epoch != 0 {
            return Err(CollectiveError::ViewChanged { epoch });
        }
        match self.closed.load(Ordering::Acquire) || self.node.is_shut_down() {
            true => Err(CollectiveError::Closed),
            false => Ok(()),
        }
    }

    /// Marks the group dead under membership `epoch` (first abort wins)
    /// and drives, which fails the operation in flight and every queued
    /// one. Returns whether this call was the one that aborted the group.
    fn abort_view_changed(&self, epoch: u64) -> bool {
        let aborted = epoch != 0
            && self
                .view_changed
                .compare_exchange(0, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        if aborted {
            self.post(Event::Wake);
        }
        aborted
    }

    fn note_fault(&self, error: &SendError) {
        self.fault.lock().get_or_insert_with(|| error.clone());
    }

    /// Performs one machine output: the only place this shell touches a
    /// link, a handle or a counter on the machine's behalf. A send never
    /// waits: what the link does not admit now is copied to its outbox.
    fn perform(&self, owed: &mut Owed, out: Output<'_>) -> Result<(), SendError> {
        match out {
            Output::Send { to, frames } => {
                // Behind frames already owed the link is not even asked.
                let admitted = match owed.frames.contains_key(&to) {
                    true => 0,
                    false => self.links[&to]
                        .try_send_batch(frames)
                        .inspect_err(|e| self.note_fault(e))?,
                };
                if admitted < frames.len() {
                    let copy = |frame: &&[u8]| {
                        let mut buf = self.pool.get();
                        buf.vec_mut().extend_from_slice(frame);
                        buf
                    };
                    let outbox = owed.frames.entry(to).or_default();
                    outbox.extend(frames[admitted..].iter().map(copy));
                }
                self.stats.frames_sent.add(frames.len() as u64);
                let bytes: usize = frames.iter().map(|f| f.len()).sum();
                self.stats.bytes_sent.add(bytes as u64);
            }
            Output::Done { result, .. } => {
                self.stats.ops_completed.inc();
                let done = owed.handles.pop_front().expect("one slot per operation");
                done.complete(result);
            }
            Output::Delivered { origin, payload } => self.delivered.send((origin, payload)),
        }
        Ok(())
    }

    /// Offers every link the frames it is owed. A link that has died
    /// since is reported to the machine — the operation that emitted the
    /// frames may be long done — and its frames dropped.
    fn flush(&self, p: &mut Progress) {
        let Progress { machine, owed, .. } = p;
        owed.frames.retain(|&to, outbox| {
            let frames: Vec<&[u8]> = outbox.iter().map(|f| f.as_slice()).collect();
            match self.links[&to].try_send_batch(&frames) {
                Ok(admitted) => drop(outbox.drain(..admitted)),
                Err(e) => {
                    self.note_fault(&e);
                    machine.on_link_down(to, e);
                    outbox.clear();
                }
            }
            !outbox.is_empty()
        });
    }

    /// Feeds one inbox event to the machine.
    fn feed(&self, p: &mut Progress, event: Event) {
        let Progress {
            machine,
            next_coll,
            owed,
            ..
        } = p;
        match event {
            Event::Op(spec, payload, timeout, done) => match self.check_closed() {
                Err(e) => done.complete(Err(e)),
                Ok(()) => {
                    machine.submit(*next_coll, spec, payload, timeout);
                    *next_coll = (*next_coll + 1) % UNMATCHED;
                    owed.handles.push_back(done);
                }
            },
            Event::Multicast(payload, topo, done) => {
                let emit = &mut |out: Output<'_>| self.perform(owed, out);
                let sent = machine.multicast(&payload, topo, emit);
                done.complete(sent.map(|()| Vec::new()).map_err(CollectiveError::Send));
            }
            Event::Frame(from, bytes) => {
                if let Some(payload_len) = machine.on_frame(from, bytes) {
                    self.stats.frames_received.inc();
                    self.stats.bytes_received.add(payload_len as u64);
                }
            }
            Event::LinkDown(peer, error) => {
                self.note_fault(&error);
                machine.on_link_down(peer, error);
            }
            Event::Wake => {}
        }
    }

    // -- Progress: wherever the event is -----------------------------------

    /// Queues `event` and drives: the one way anything reaches the machine.
    fn post(&self, event: Event) {
        self.inbox.lock().push_back(event);
        if let Some(at) = self.advance() {
            // Read after the step, outside the lock: a task poll that
            // missed the step has either armed its deadline by now or is
            // still running and will find this wake.
            if !self.task.armed_by(at + TIMER_SLACK) {
                self.task.wake();
            }
        }
    }

    /// Steps the machine on the calling thread unless somebody else is
    /// stepping it — who then sees, on its last look at the inbox, whatever
    /// the caller queued before coming here. Never waits. Returns when the
    /// group task must next run, if this call was the one to learn it.
    fn advance(&self) -> Option<Instant> {
        let mut wake_at = None;
        loop {
            let Some(mut p) = self.progress.try_lock() else {
                return wake_at;
            };
            self.room.store(false, Ordering::SeqCst);
            let drained = self.step(&mut p, &mut wake_at);
            // Nothing left to deliver: a closed group lets go of itself
            // (once unlocked; the caller holds it through this call).
            let delivered = p.owed.frames.is_empty().then(|| p.flushing.take());
            drop(p);
            drop(delivered);
            // Room that came during the step steps again: its wake may
            // have found the lock taken. An inbox the step left alone
            // (frames still owed) is for the step that room brings, not a
            // reason to spin here.
            let room = self.room.load(Ordering::SeqCst);
            if !room && (!drained || self.inbox.lock().is_empty()) {
                return wake_at;
            }
        }
    }

    /// One step under the lock: offer the outbox again, feed the machine
    /// everything the inbox holds, let it advance. Sets `wake_at` to when
    /// the next step is due with nothing arriving; returns whether the
    /// inbox was drained.
    fn step(&self, p: &mut Progress, wake_at: &mut Option<Instant>) -> bool {
        self.flush(p);
        let now = self.clock.now();
        let overdue = p.machine.next_deadline().is_some_and(|at| at <= now);
        // While a link owes frames the machine is not asked for more:
        // that is what bounds the outbox.
        let drain = p.owed.frames.is_empty() || overdue || self.check_closed().is_err();
        if drain {
            // (The queue's lock is let go before each event is fed.)
            let next = || self.inbox.lock().pop_front();
            while let Some(event) = next() {
                self.feed(p, event);
            }
            let Progress { machine, owed, .. } = &mut *p;
            let emit = &mut |out: Output<'_>| self.perform(owed, out);
            // Read behind the inbox: a flag is flipped before its `Wake`
            // is queued, so the step that takes the `Wake` — this one,
            // perhaps, though it began before the flip — sees the flag.
            if let Err(e) = self.check_closed() {
                machine.abort(&e, emit);
            }
            machine.poll(now, emit);
        }
        let after = p.machine.next_deadline().map(|at| at.saturating_sub(now));
        // The wall clock is read after the node's, so the task runs on the
        // late side of the deadline and finds it passed.
        *wake_at = after.map(|after| Instant::now() + after);
        drain
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// One member's endpoint of a collective group.
///
/// Built over dedicated pairwise NCS connections (a full mesh); the group
/// owns their receive queues (through
/// [`NcsConnection::set_receive_sink`]), so do not share the connections
/// with point-to-point traffic.
///
/// The group holds **no threads**: link traffic flows in through receive
/// sinks driven by the node's readiness reactor, and the member's
/// collective [`Machine`] is stepped by whichever thread brings it
/// something — the event loop delivering a frame, the application thread
/// submitting an operation — never by a thread of its own (see the
/// [crate docs](crate)). Application threads *submit* operations and keep
/// computing; the [`CollectiveHandle`]s resolve where the last frame
/// arrives.
///
/// **Ordering contract** (as MPI): collective calls must be issued in the
/// same order on every member. Within one member, concurrent submissions
/// are serialised — submission order is execution order. Operations
/// pipeline: many may be outstanding, executed in submission order, with
/// early-arriving frames for later operations stashed by the machine.
/// See the [crate docs](crate) for a usage example.
pub struct CollectiveGroup {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CollectiveGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectiveGroup")
            .field("id", &self.inner.id)
            .field("rank", &self.inner.rank)
            .field("size", &self.inner.size)
            .finish()
    }
}

impl CollectiveGroup {
    /// Forms collective group `id` with this member at `rank`, over
    /// `links` mapping every other member's rank to an established
    /// connection, with the default [`CollectiveConfig`].
    ///
    /// # Errors
    ///
    /// [`CollectiveError::BadArg`] unless `links` covers exactly the ranks
    /// `0..size` minus `rank`.
    pub fn new(
        node: &NcsNode,
        id: u32,
        rank: usize,
        links: HashMap<usize, NcsConnection>,
    ) -> Result<Self, CollectiveError> {
        Self::with_config(node, id, rank, links, CollectiveConfig::default())
    }

    /// [`CollectiveGroup::new`] with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::new`].
    pub fn with_config(
        node: &NcsNode,
        id: u32,
        rank: usize,
        links: HashMap<usize, NcsConnection>,
        cfg: CollectiveConfig,
    ) -> Result<Self, CollectiveError> {
        let size = links.len() + 1;
        if links.contains_key(&rank) {
            return Err(CollectiveError::BadArg(format!(
                "links must not include own rank {rank}"
            )));
        }
        for r in 0..size {
            if r != rank && !links.contains_key(&r) {
                return Err(CollectiveError::BadArg(format!(
                    "missing link to rank {r} (size {size})"
                )));
            }
        }
        if cfg.seg_size == 0 {
            return Err(CollectiveError::BadArg("seg_size must be positive".into()));
        }
        let pool = node.buffer_pool();
        let enc = Encoder::new(Arc::clone(&pool), id, cfg.seg_size);
        let inner = Arc::new_cyclic(|group: &Weak<Inner>| {
            // Weak: the task must not keep a dropped group (its links,
            // its pool) alive until some far deadline.
            let group = group.clone();
            Inner {
                id,
                rank,
                size,
                cfg,
                links,
                pool,
                inbox: Mutex::default(),
                progress: Mutex::new(Progress {
                    machine: Machine::new(enc, rank, size),
                    next_coll: 0,
                    owed: Owed::default(),
                    flushing: None,
                }),
                task: node
                    .reactor()
                    .spawn_task(move |_| group.upgrade()?.advance()),
                room: AtomicBool::new(false),
                delivered: Mailbox::unbounded(),
                closed: AtomicBool::new(false),
                view_changed: AtomicU64::new(0),
                fault: Mutex::new(None),
                clock: node.clock(),
                node: node.clone(),
                stats: StatCounters::registered(&node.registry(), id),
            }
        });
        // Take ownership of every link's untagged receive stream: the
        // reactor task that reassembles a frame queues it for the machine
        // and steps the machine there and then (no pump thread parked on
        // recv, no runner to wake). A dying link reports itself behind its
        // final frames. A link with room again after cutting a send short
        // wakes the group task, which offers the outbox; weakly, as the
        // task holds the group.
        for (&peer, conn) in &inner.links {
            let i = Arc::clone(&inner);
            conn.set_receive_sink(Some(Arc::new(move |res| {
                i.post(match res {
                    Ok(view) => Event::Frame(peer, view.into_vec()),
                    Err(e) => Event::LinkDown(peer, e),
                })
            })));
            let group = Arc::downgrade(&inner);
            conn.set_room_waker(Some(Arc::new(move || {
                if let Some(i) = group.upgrade() {
                    i.room.store(true, Ordering::SeqCst);
                    i.task.wake();
                }
            })));
        }
        Ok(CollectiveGroup { inner })
    }

    /// This member's rank.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Group size (members).
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The group's configuration.
    pub fn config(&self) -> CollectiveConfig {
        self.inner.cfg
    }

    /// Engine counters.
    pub fn stats(&self) -> CollectiveStats {
        let s = &self.inner.stats;
        CollectiveStats {
            ops_completed: s.ops_completed.get(),
            frames_sent: s.frames_sent.get(),
            frames_received: s.frames_received.get(),
            bytes_sent: s.bytes_sent.get(),
            bytes_received: s.bytes_received.get(),
        }
    }

    /// Leaves the group: detaches the link sinks and fails the operation in
    /// flight and every queued one with [`CollectiveError::Closed`] —
    /// before it returns. Frames of operations that already resolved `Ok`
    /// and that a link under back-pressure has not yet admitted are still
    /// delivered: the group's reactor task keeps offering them — and the
    /// group outlives its last handle — until they are gone or their link
    /// is dead. The underlying connections remain open (owned by the
    /// caller's node). Idempotent.
    pub fn close(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Give the links their receive queues back (also breaks the
        // sink -> Inner reference cycle).
        for conn in self.inner.links.values() {
            conn.set_receive_sink(None);
        }
        // The one place that waits for the machine's lock — for as long
        // as a step in progress takes, and steps never wait — so that the
        // closing step has run, and seen what is still owed, on return.
        let mut p = self.inner.progress.lock();
        self.inner.step(&mut p, &mut None);
        p.flushing = (!p.owed.frames.is_empty()).then(|| Arc::clone(&self.inner));
        drop(p);
        // Whatever a sink queued meanwhile.
        self.inner.post(Event::Wake);
    }

    /// Marks the group invalidated by membership `epoch`: the operation in
    /// flight and every queued one fail at once with
    /// [`CollectiveError::ViewChanged`], and all future submissions are
    /// refused with the same error. First abort wins (later epochs don't
    /// overwrite the one that killed the group); returns whether this call
    /// did the aborting.
    ///
    /// The group stays closed to traffic afterwards — rebuild a fresh
    /// group over links matching the new view and retry there.
    pub fn abort_view_changed(&self, epoch: u64) -> bool {
        self.inner.abort_view_changed(epoch)
    }

    /// A weak handle through which a membership layer can abort this
    /// group on view change without keeping it alive (a dropped group
    /// makes the handle inert).
    pub fn view_abort_handle(&self) -> ViewAbortHandle {
        ViewAbortHandle(Arc::downgrade(&self.inner))
    }

    /// Queues `spec` with the group's operation timeout.
    fn submit<R: CollectiveResult>(
        &self,
        spec: Spec,
        payload: Vec<u8>,
    ) -> Result<CollectiveHandle<R>, CollectiveError> {
        self.submit_within(spec, payload, self.inner.cfg.op_timeout)
    }

    fn submit_within<R: CollectiveResult>(
        &self,
        spec: Spec,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> Result<CollectiveHandle<R>, CollectiveError> {
        self.inner.check_closed()?;
        if spec.root >= self.inner.size {
            return Err(CollectiveError::BadArg(format!(
                "root {} out of range for group of {}",
                spec.root, self.inner.size
            )));
        }
        self.enqueue(|done| Event::Op(spec, payload, timeout, done))
    }

    /// Posts an event that resolves a handle.
    fn enqueue<R: CollectiveResult>(
        &self,
        event: impl FnOnce(Arc<OpCompletion>) -> Event,
    ) -> Result<CollectiveHandle<R>, CollectiveError> {
        let done = OpCompletion::new();
        self.inner.post(event(Arc::clone(&done)));
        Ok(CollectiveHandle::new(done))
    }

    /// Topology the group's policy selects for `class` at `bytes`.
    fn select(&self, class: OpClass, bytes: usize) -> Topology {
        self.inner.cfg.policy.select(class, self.inner.size, bytes)
    }

    // -- broadcast ---------------------------------------------------------

    /// Nonblocking broadcast from `root`.
    ///
    /// In-out buffer semantics (as MPI's `MPI_Bcast`): **every member must
    /// pass a buffer of the same length** — the root's contents are
    /// distributed, the others' are replaced. The shared length is what
    /// lets every member select the same topology independently.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::BadArg`] / [`CollectiveError::Closed`] at
    /// submission; the operation's own errors surface on the handle.
    pub fn ibroadcast<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let topo = self.select(OpClass::Broadcast, buf.len() * T::DTYPE.elem_size());
        self.ibroadcast_with(root, buf, topo)
    }

    /// [`CollectiveGroup::ibroadcast`] over an explicit topology (every
    /// member must pass the same one).
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn ibroadcast_with<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
        topo: Topology,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let len = buf.len() * T::DTYPE.elem_size();
        let payload = if self.inner.rank == root {
            to_bytes(&buf)
        } else {
            Vec::new()
        };
        self.submit(spec(Op::Broadcast { len }, root, topo, topo), payload)
    }

    /// Blocking [`CollectiveGroup::ibroadcast`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn broadcast<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
    ) -> Result<Vec<T>, CollectiveError> {
        self.ibroadcast(root, buf)?.wait()
    }

    /// Blocking [`CollectiveGroup::ibroadcast_with`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn broadcast_with<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
        topo: Topology,
    ) -> Result<Vec<T>, CollectiveError> {
        self.ibroadcast_with(root, buf, topo)?.wait()
    }

    // -- reduce / allreduce ------------------------------------------------

    /// Nonblocking reduction to `root`: every member contributes an
    /// equal-length vector; the handle resolves to the elementwise
    /// reduction at the root and to an empty vector elsewhere.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn ireduce<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let topo = self.select(OpClass::Reduce, contrib.len() * T::DTYPE.elem_size());
        let op = Op::Reduce(T::DTYPE, op);
        self.submit(spec(op, root, topo, topo), to_bytes(&contrib))
    }

    /// Blocking [`CollectiveGroup::ireduce`]: `Some(result)` at the root,
    /// `None` elsewhere.
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn reduce<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>, CollectiveError> {
        let v = self.ireduce(root, contrib, op)?.wait()?;
        Ok((self.inner.rank == root).then_some(v))
    }

    /// Nonblocking allreduce (reduce to rank 0, then broadcast): the
    /// handle resolves to the full reduction on every member.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn iallreduce<T: Scalar>(
        &self,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let bytes = contrib.len() * T::DTYPE.elem_size();
        let topo = self.select(OpClass::Reduce, bytes);
        let topo2 = self.select(OpClass::Broadcast, bytes);
        let op = Op::Allreduce(T::DTYPE, op);
        self.submit(spec(op, 0, topo, topo2), to_bytes(&contrib))
    }

    /// Blocking [`CollectiveGroup::iallreduce`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn allreduce<T: Scalar>(
        &self,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<Vec<T>, CollectiveError> {
        self.iallreduce(contrib, op)?.wait()
    }

    // -- scatter / gather / allgather -------------------------------------

    /// Nonblocking scatter from `root`: the root's vector is cut into
    /// `size` equal chunks and chunk `r` is delivered to rank `r` (other
    /// members pass an empty vector). The handle resolves to this member's
    /// chunk.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`], plus
    /// [`CollectiveError::BadArg`] at the root when the vector does not
    /// divide evenly.
    pub fn iscatter<T: Scalar>(
        &self,
        root: usize,
        data: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        if self.inner.rank == root && !data.len().is_multiple_of(self.inner.size) {
            return Err(CollectiveError::BadArg(format!(
                "scatter of {} elements does not divide across {} members",
                data.len(),
                self.inner.size
            )));
        }
        let topo = self.select(OpClass::Scatter, 0);
        self.submit(spec(Op::Scatter, root, topo, topo), to_bytes(&data))
    }

    /// Blocking [`CollectiveGroup::iscatter`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn scatter<T: Scalar>(&self, root: usize, data: Vec<T>) -> Result<Vec<T>, CollectiveError> {
        self.iscatter(root, data)?.wait()
    }

    /// Nonblocking gather to `root`: every member contributes an
    /// equal-length vector; the handle resolves to the rank-ordered
    /// concatenation at the root and to an empty vector elsewhere.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn igather<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let topo = self.select(OpClass::Gather, 0);
        self.submit(spec(Op::Gather, root, topo, topo), to_bytes(&contrib))
    }

    /// Blocking [`CollectiveGroup::igather`]: `Some(concatenation)` at the
    /// root, `None` elsewhere.
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn gather<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
    ) -> Result<Option<Vec<T>>, CollectiveError> {
        let v = self.igather(root, contrib)?.wait()?;
        Ok((self.inner.rank == root).then_some(v))
    }

    /// Nonblocking allgather: every member contributes an equal-length
    /// vector and the handle resolves to the rank-ordered concatenation on
    /// every member.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn iallgather<T: Scalar>(
        &self,
        contrib: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let bytes = contrib.len() * T::DTYPE.elem_size();
        let topo = self.select(OpClass::Allgather, bytes);
        let topo2 = self.select(OpClass::Broadcast, bytes.saturating_mul(self.inner.size));
        self.submit(spec(Op::Allgather, 0, topo, topo2), to_bytes(&contrib))
    }

    /// Blocking [`CollectiveGroup::iallgather`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn allgather<T: Scalar>(&self, contrib: Vec<T>) -> Result<Vec<T>, CollectiveError> {
        self.iallgather(contrib)?.wait()
    }

    // -- barrier -----------------------------------------------------------

    /// Nonblocking barrier (dissemination schedule, `⌈log₂ n⌉` rounds):
    /// the handle resolves once every member has entered the barrier.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Closed`] at submission.
    pub fn ibarrier(&self) -> Result<CollectiveHandle<()>, CollectiveError> {
        self.ibarrier_within(self.inner.cfg.op_timeout)
    }

    /// [`CollectiveGroup::ibarrier`] with its own operation timeout.
    pub(crate) fn ibarrier_within(
        &self,
        timeout: Duration,
    ) -> Result<CollectiveHandle<()>, CollectiveError> {
        let barrier = spec(Op::Barrier, 0, Topology::Flat, Topology::Flat);
        self.submit_within(barrier, Vec::new(), timeout)
    }

    /// Blocking [`CollectiveGroup::ibarrier`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn barrier(&self) -> Result<(), CollectiveError> {
        self.ibarrier()?.wait()
    }
}

/// What [`NcsGroup`](crate::NcsGroup) needs beyond the typed operations.
impl CollectiveGroup {
    /// Originates a multicast of `data` over `topo`: an unmatched
    /// broadcast rooted here (see [`Machine::multicast`]). The handle
    /// resolves once every frame is queued on its link.
    pub(crate) fn imulticast(
        &self,
        data: &[u8],
        topo: Topology,
    ) -> Result<CollectiveHandle<()>, CollectiveError> {
        self.inner.check_closed()?;
        self.enqueue(|done| Event::Multicast(data.to_vec(), topo, done))
    }

    /// The next multicast delivered to this member: `(origin, payload)`.
    pub(crate) fn recv_multicast(&self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        self.inner.delivered.recv_timeout(timeout).ok()
    }

    /// The first link failure this member saw, if any.
    pub(crate) fn link_fault(&self) -> Option<SendError> {
        self.inner.fault.lock().clone()
    }

    /// Why the group takes no more operations, if it does not.
    pub(crate) fn check_closed(&self) -> Result<(), CollectiveError> {
        self.inner.check_closed()
    }
}

impl Drop for CollectiveGroup {
    fn drop(&mut self) {
        self.close();
    }
}

fn spec(op: Op, root: usize, topo: Topology, topo2: Topology) -> Spec {
    Spec {
        op,
        root,
        topo,
        topo2,
    }
}

/// A weak abort handle onto one [`CollectiveGroup`], held by a
/// membership layer (e.g. `ncs-runtime`'s `ClusterNode`): when the
/// world's view changes, [`ViewAbortHandle::abort`] fails the group fast
/// with [`CollectiveError::ViewChanged`] so no collective idles out its
/// timeout against a member that will never answer. Weak on purpose —
/// watching a group must not keep it alive, and aborting an
/// already-dropped group is a no-op.
pub struct ViewAbortHandle(Weak<Inner>);

impl std::fmt::Debug for ViewAbortHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewAbortHandle")
            .field("live", &self.is_live())
            .finish()
    }
}

impl ViewAbortHandle {
    /// Aborts the watched group under membership `epoch` (see
    /// [`CollectiveGroup::abort_view_changed`]). Returns `false` when the
    /// group is already gone or already aborted.
    pub fn abort(&self, epoch: u64) -> bool {
        self.0
            .upgrade()
            .is_some_and(|i| i.abort_view_changed(epoch))
    }

    /// Whether the watched group is still open: neither closed nor
    /// dropped (dropping a group closes it). A reference held for a while
    /// after that — the group task's own for the length of a step, or a
    /// closed group's hold on itself while it still owes frames — does not
    /// make it live.
    pub fn is_live(&self) -> bool {
        self.0
            .upgrade()
            .is_some_and(|i| !i.closed.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_is_validated() {
        let node = NcsNode::builder("solo").build();
        // A singleton group is valid.
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::new()).unwrap();
        assert_eq!(g.size(), 1);
        assert_eq!(g.rank(), 0);
        // Singleton collectives complete locally.
        assert_eq!(g.allreduce(vec![3u32], ReduceOp::Sum).unwrap(), vec![3]);
        assert_eq!(g.broadcast(0, vec![1u8, 2]).unwrap(), vec![1, 2]);
        assert_eq!(g.scatter(0, vec![9i64]).unwrap(), vec![9]);
        assert_eq!(g.gather(0, vec![4f32]).unwrap(), Some(vec![4.0]));
        assert_eq!(g.allgather(vec![5u64]).unwrap(), vec![5]);
        g.barrier().unwrap();
        assert!(g.stats().ops_completed >= 6);
        // Root out of range is rejected at submission.
        assert!(matches!(
            g.broadcast(3, vec![0u8]),
            Err(CollectiveError::BadArg(_))
        ));
        drop(g);
        node.shutdown();
    }

    #[test]
    fn zero_seg_size_rejected() {
        let node = NcsNode::builder("cfg").build();
        let cfg = CollectiveConfig {
            seg_size: 0,
            ..CollectiveConfig::default()
        };
        assert!(matches!(
            CollectiveGroup::with_config(&node, 1, 0, HashMap::new(), cfg),
            Err(CollectiveError::BadArg(_))
        ));
        node.shutdown();
    }

    #[test]
    fn closed_group_rejects_submissions() {
        let node = NcsNode::builder("closer").build();
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::new()).unwrap();
        g.close();
        assert!(matches!(g.barrier(), Err(CollectiveError::Closed)));
        drop(g);
        node.shutdown();
    }

    #[test]
    fn view_abort_fails_fast_and_sticks() {
        let node = NcsNode::builder("elastic").build();
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::new()).unwrap();
        let handle = g.view_abort_handle();
        assert!(handle.is_live());
        // First abort wins; the losing epoch reports false.
        assert!(handle.abort(7));
        assert!(!handle.abort(8));
        assert!(!g.abort_view_changed(9));
        // Submissions fail with the aborting epoch, not a generic close.
        assert!(matches!(
            g.barrier(),
            Err(CollectiveError::ViewChanged { epoch: 7 })
        ));
        // Even after close(), waiters learn *why* the topology died.
        g.close();
        assert!(matches!(
            g.allreduce(vec![1u32], ReduceOp::Sum),
            Err(CollectiveError::ViewChanged { epoch: 7 })
        ));
        drop(g);
        assert!(!handle.is_live());
        assert!(!handle.abort(10), "aborting a dropped group is a no-op");
        node.shutdown();
    }

    /// A dropped group is not live to its watchers, whoever still holds it
    /// for a moment: here a reference upgraded as the group task upgrades
    /// its own for a step, held across the drop.
    #[test]
    fn a_dropped_group_is_not_live_while_a_reference_is_held() {
        let node = NcsNode::builder("solo").build();
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::new()).unwrap();
        let handle = g.view_abort_handle();
        let held = handle.0.upgrade().expect("the group exists");
        assert!(handle.is_live());
        drop(g);
        assert!(!handle.is_live());
        drop(held);
        assert!(!handle.is_live());
        node.shutdown();
    }

    /// A survivor whose only peer never enters the collective, blocked in
    /// an unmatched barrier: the one way out is an event.
    fn blocked_barrier() -> (NcsNode, NcsNode, NcsConnection, CollectiveGroup) {
        let node = NcsNode::builder("survivor").build();
        let peer = NcsNode::builder("ghost").build();
        let (ln, lp) = ncs_core::link::HpiLinkPair::with_capacity(256);
        node.attach_peer("ghost", ln);
        peer.attach_peer("survivor", lp);
        let conn = node
            .connect("ghost", ncs_core::ConnectionConfig::unreliable())
            .unwrap();
        let peer_side = peer.accept_default().unwrap();
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::from([(1usize, conn)])).unwrap();
        (node, peer, peer_side, g)
    }

    /// Wake, not tick: the only timer is the operation's deadline (30 s
    /// here), so each of these resolves only because its cause drove the
    /// machine.
    #[test]
    fn a_blocked_operation_resolves_when_its_cause_arrives_not_a_tick_later() {
        type Cause = fn(&CollectiveGroup, &NcsConnection);
        type Expected = fn(&CollectiveError) -> bool;
        let causes: [(Cause, Expected); 3] = [
            (
                |g, _| assert!(g.abort_view_changed(3)),
                |e| *e == CollectiveError::ViewChanged { epoch: 3 },
            ),
            (|g, _| g.close(), |e| *e == CollectiveError::Closed),
            (
                |_, peer_side| peer_side.close(),
                |e| matches!(e, CollectiveError::Send(_)),
            ),
        ];
        for (cause, expected) in causes {
            let (node, peer, peer_side, g) = blocked_barrier();
            let h = g.ibarrier().unwrap();
            assert_eq!(
                h.wait_timeout(Duration::from_millis(20)),
                Err(CollectiveError::Timeout)
            );
            let t0 = std::time::Instant::now();
            cause(&g, &peer_side);
            let err = h.wait_timeout(Duration::from_secs(5)).unwrap_err();
            assert!(expected(&err), "{err:?}");
            assert!(
                t0.elapsed() < Duration::from_millis(50),
                "{:?}",
                t0.elapsed()
            );
            drop(g);
            node.shutdown();
            peer.shutdown();
        }
    }

    /// The timer twin of the test above: with no cause at all the one
    /// thing that ends the wait is the deadline, held by the group task as
    /// one armed timer — the event loop sleeps toward it and is not woken
    /// once before.
    #[test]
    fn an_unmatched_operation_times_out_on_one_timer_fire_at_its_deadline() {
        let op_timeout = Duration::from_millis(300);
        let (node, peer, _peer_side, g) = blocked_barrier();
        // (The node's other tasks are timer-free: a bypass connection has
        // no protocol deadlines, and accepting none.)
        let fires = || node.reactor().stats().timer_fires;
        let t0 = Instant::now();
        let h = g.ibarrier_within(op_timeout).unwrap();
        assert_eq!(
            h.wait_timeout(op_timeout - Duration::from_millis(50)),
            Err(CollectiveError::Timeout),
            "still waiting"
        );
        assert_eq!(fires(), 0, "woken before the deadline");
        assert_eq!(
            h.wait_timeout(Duration::from_secs(5)),
            Err(CollectiveError::Timeout)
        );
        let took = t0.elapsed();
        assert!(
            took >= op_timeout && took < op_timeout + Duration::from_millis(50),
            "{took:?}"
        );
        assert_eq!(fires(), 1);
        // The machine's verdict, not the waiter's patience.
        assert_eq!(g.stats().ops_completed, 1);
        drop(g);
        node.shutdown();
        peer.shutdown();
    }

    /// Nothing parked outlives a closed group that owes nothing: the
    /// sinks are detached and the group task holds the group weakly, so
    /// the group (its links, its pool) is freed with its last handle —
    /// not at the far deadline of its last operation — and its task,
    /// whose `TaskRef` it owned, with it. (That dropping the `TaskRef`
    /// drops the closure is `ncs-core`'s
    /// `a_closure_task_runs_on_wakes_and_deadlines_and_retires_with_its_ref`.)
    #[test]
    fn a_closed_group_leaves_no_task_and_no_strong_reference() {
        fn pair() -> (Vec<NcsNode>, Vec<CollectiveGroup>) {
            let nodes = vec![
                NcsNode::builder("left").build(),
                NcsNode::builder("right").build(),
            ];
            let (l, r) = ncs_core::link::HpiLinkPair::with_capacity(256);
            nodes[0].attach_peer("right", l);
            nodes[1].attach_peer("left", r);
            let cfg = ncs_core::ConnectionConfig::unreliable();
            let lr = nodes[0].connect("right", cfg).unwrap();
            let rl = nodes[1].accept_default().unwrap();
            let groups = vec![
                CollectiveGroup::new(&nodes[0], 1, 0, HashMap::from([(1, lr)])).unwrap(),
                CollectiveGroup::new(&nodes[1], 1, 1, HashMap::from([(0, rl)])).unwrap(),
            ];
            (nodes, groups)
        }
        let gone_within_100ms = |watch: &[ViewAbortHandle]| {
            let t0 = Instant::now();
            while watch.iter().any(|h| h.0.strong_count() > 0) {
                assert!(
                    t0.elapsed() < Duration::from_millis(100),
                    "group kept alive"
                );
                std::thread::yield_now();
            }
        };
        // After traffic: every operation armed or found armed the 30 s
        // deadline the task still holds.
        let (nodes, groups) = pair();
        for i in 0..100u64 {
            let handles: Vec<_> = groups
                .iter()
                .map(|g| g.iallreduce(vec![i], ReduceOp::Sum).unwrap())
                .collect();
            for h in handles {
                assert_eq!(h.wait().unwrap(), [2 * i]);
            }
        }
        let watch: Vec<_> = groups.iter().map(|g| g.view_abort_handle()).collect();
        groups.iter().for_each(CollectiveGroup::close);
        drop(groups);
        gone_within_100ms(&watch);
        nodes.iter().for_each(NcsNode::shutdown);
        // With an operation still blocked at `close()`: it resolves
        // `Closed`, and its 30 s deadline holds nothing.
        let (nodes, mut groups) = pair();
        let lonely = groups.remove(0);
        let h = lonely.ibarrier().unwrap();
        assert_eq!(
            h.wait_timeout(Duration::from_millis(20)),
            Err(CollectiveError::Timeout)
        );
        let watch = [lonely.view_abort_handle()];
        lonely.close();
        assert_eq!(h.wait_timeout(Duration::ZERO), Err(CollectiveError::Closed));
        drop(lonely);
        gone_within_100ms(&watch);
        drop(groups);
        nodes.iter().for_each(NcsNode::shutdown);
    }

    /// A flag flipped while other threads are mid-step. `close()` waits
    /// the step out and runs the closing one itself; a view abort queues a
    /// `Wake`, loses the `try_lock`, and the step that takes the `Wake` off
    /// the inbox began before the flag flipped. Either way every barrier
    /// admitted before the flip resolves with the cause, and none waits
    /// for a stepper that never comes.
    /// A link over PIPE whose channels refuse every nonblocking transmit
    /// once `stopped` is set, as a socket buffer whose drain has stopped.
    #[derive(Debug)]
    struct StoppableLink {
        pipe: Arc<ncs_core::link::PipeLink>,
        stopped: Arc<AtomicBool>,
    }

    #[derive(Debug)]
    struct Stoppable(Box<dyn ncs_transport::Connection>, Arc<AtomicBool>);

    impl StoppableLink {
        fn wrap(
            &self,
            c: Box<dyn ncs_transport::Connection>,
        ) -> Box<dyn ncs_transport::Connection> {
            Box::new(Stoppable(c, Arc::clone(&self.stopped)))
        }
    }

    impl ncs_core::link::PeerLink for StoppableLink {
        fn open_channel(
            &self,
        ) -> Result<Box<dyn ncs_transport::Connection>, ncs_transport::TransportError> {
            Ok(self.wrap(self.pipe.open_channel()?))
        }
        fn try_accept_channel(
            &self,
        ) -> Result<Option<Box<dyn ncs_transport::Connection>>, ncs_transport::TransportError>
        {
            Ok(self.pipe.try_accept_channel()?.map(|c| self.wrap(c)))
        }
        fn watch_accepts(&self, waker: Option<ncs_transport::Waker>) -> ncs_transport::Readiness {
            self.pipe.watch_accepts(waker)
        }
        fn interface(&self) -> &'static str {
            self.pipe.interface()
        }
    }

    impl ncs_transport::Connection for Stoppable {
        fn caps(&self) -> ncs_transport::Capabilities {
            self.0.caps()
        }
        fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, ncs_transport::TransportError> {
            self.0.send_batch(frames)
        }
        fn try_send_batch(&self, frames: &[&[u8]]) -> Result<usize, ncs_transport::TransportError> {
            match self.1.load(Ordering::Acquire) {
                true => Ok(0),
                false => self.0.try_send_batch(frames),
            }
        }
        fn recv_timeout(&self, t: Duration) -> Result<Vec<u8>, ncs_transport::TransportError> {
            self.0.recv_timeout(t)
        }
        fn try_recv(&self) -> Result<Option<Vec<u8>>, ncs_transport::TransportError> {
            self.0.try_recv()
        }
        fn recycle(&self, frame: Vec<u8>) {
            self.0.recycle(frame);
        }
        fn readiness(&self) -> ncs_transport::Readiness {
            self.0.readiness()
        }
        fn register_waker(&self, waker: Option<ncs_transport::Waker>) {
            self.0.register_waker(waker);
        }
        fn due(&self) -> Option<Instant> {
            self.0.due()
        }
        fn close(&self) {
            self.0.close();
        }
        fn peer_label(&self) -> String {
            self.0.peer_label()
        }
    }

    /// A closed group that still owes frames to a link whose transmit has
    /// stopped lets go of itself when that link closes: with no retry
    /// timer, it is the close that calls the link's room waker, and the
    /// step that brings meets the close, drops the frames and the group.
    #[test]
    fn a_closed_group_owing_frames_lets_go_when_their_link_closes() {
        let stopped = Arc::new(AtomicBool::new(false));
        let (pa, pb) = ncs_core::link::PipeLinkPair::create(
            ncs_transport::pipe::PipeConfig::default(),
            None,
            None,
        );
        let nodes = [
            NcsNode::builder("root").build(),
            NcsNode::builder("leaf").build(),
        ];
        for (node, peer, pipe) in [(&nodes[0], "leaf", pa), (&nodes[1], "root", pb)] {
            let stopped = Arc::clone(&stopped);
            node.attach_peer(peer, Arc::new(StoppableLink { pipe, stopped }));
        }
        let link = nodes[0]
            .connect("leaf", ncs_core::ConnectionConfig::unreliable())
            .unwrap();
        let _leaf = nodes[1].accept_default().unwrap();
        let root =
            CollectiveGroup::new(&nodes[0], 1, 0, HashMap::from([(1, link.clone())])).unwrap();
        stopped.store(true, Ordering::Release);
        // 1 MiB, 32 segments: twice what the link's send queue admits.
        let sent = root.broadcast(0, vec![7u64; 1 << 17]).expect("accepted");
        assert_eq!(sent.len(), 1 << 17);
        let watch = root.view_abort_handle();
        drop(root);
        std::thread::sleep(Duration::from_millis(20));
        assert!(watch.0.strong_count() > 0, "let go with frames owed");
        link.close();
        let t0 = Instant::now();
        while watch.0.strong_count() > 0 {
            assert!(t0.elapsed() < Duration::from_secs(1), "group kept alive");
            std::thread::yield_now();
        }
        nodes.iter().for_each(NcsNode::shutdown);
    }

    #[test]
    fn a_flag_flipped_under_a_step_in_progress_still_aborts_everything() {
        type Flip = fn(&CollectiveGroup);
        let flips: [(Flip, CollectiveError); 2] = [
            (CollectiveGroup::close, CollectiveError::Closed),
            (
                |g| assert!(g.abort_view_changed(3)),
                CollectiveError::ViewChanged { epoch: 3 },
            ),
        ];
        for round in 0..20 {
            let (flip, cause) = &flips[round % 2];
            let (node, peer, _peer_side, g) = blocked_barrier();
            let g = Arc::new(g);
            let submitters: Vec<_> = (0..3)
                .map(|_| {
                    let g = Arc::clone(&g);
                    std::thread::spawn(move || {
                        let mut admitted = Vec::new();
                        while let Ok(h) = g.ibarrier() {
                            admitted.push(h);
                        }
                        admitted
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_micros(300));
            flip(&g);
            for s in submitters {
                for h in s.join().expect("submitter panicked") {
                    assert_eq!(h.wait_timeout(Duration::from_secs(5)), Err(cause.clone()));
                }
            }
            drop(g);
            node.shutdown();
            peer.shutdown();
        }
    }

    #[test]
    fn view_abort_drains_queued_operations() {
        // The submitted ops can only hang on the peer's frames — until the
        // view abort fails them all (well before their op timeout).
        let (node, peer, _peer_side, g) = blocked_barrier();
        let first = g.iallreduce(vec![1.0f64], ReduceOp::Sum).unwrap();
        let queued = g.ibarrier().unwrap();
        assert!(g.abort_view_changed(3));
        for result in [first.wait().map(drop), queued.wait()] {
            assert_eq!(result, Err(CollectiveError::ViewChanged { epoch: 3 }));
        }
        drop(g);
        node.shutdown();
        peer.shutdown();
    }
}
