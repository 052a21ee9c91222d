//! The collective engine: the blocking shell of the collective
//! [`machine`](crate::machine) over a group's pairwise NCS connections,
//! and the typed operations applications call.
//!
//! # Architecture
//!
//! What a collective sends to whom, and in which order, is decided by
//! [`plan`](crate::machine::plan) and interpreted by a
//! [`Machine`] that never touches a connection or a clock. This module
//! gives one member's machine its I/O, and owns **no standing threads**:
//!
//! * each link's untagged receive stream is handed to the engine via
//!   [`NcsConnection::set_receive_sink`] — the node's readiness reactor
//!   pushes reassembled frames straight into the member's inbox; and
//! * a **progress runner** borrows a thread from the reactor's blocking
//!   lane only while operations are queued — the paper's overlap story
//!   made concrete for group communication. Application threads *submit*
//!   operations (an inbox send) and immediately continue computing; the
//!   runner feeds the machine what the inbox holds, performs the sends it
//!   asks for through [`NcsConnection::send_batch`], resolves the
//!   caller's [`CollectiveHandle`] when it reports an operation done,
//!   parks on the inbox until the machine's next deadline, and exits once
//!   the machine is idle. A quiescent group costs zero threads.
//!
//! Everything that can change the runner's mind is an inbox event —
//! submissions, frames, a link's death, `close()`, a view abort — so a
//! parked runner wakes when its cause arrives, never on a poll.
//!
//! The runner is spawned through the node's configured
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
use std::time::Duration;

use ncs_core::{Clock, NcsConnection, NcsNode, Reactor, SendError};
use ncs_threads::sync::Mailbox;
use parking_lot::Mutex;

use crate::datatype::{to_bytes, ReduceOp, Scalar};
use crate::frame::{is_unmatched, Encoder, UNMATCHED};
use crate::handle::{CollectiveError, CollectiveHandle, CollectiveResult, OpCompletion};
use crate::machine::{Machine, Op, Output, Spec};
use crate::topology::{OpClass, Topology, TopologyPolicy};

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
    /// How long the progress thread waits on any one operation before
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
    /// Operations completed (successfully or not) by the progress thread.
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

/// Everything that reaches the progress runner arrives here, in one FIFO:
/// pushing an event is what wakes a parked runner.
enum Event {
    /// A submitted operation (inbox order is execution order).
    Op {
        spec: Spec,
        payload: Vec<u8>,
        timeout: Duration,
        done: Arc<OpCompletion>,
    },
    /// A multicast to originate, outside the operation sequence.
    Multicast {
        payload: Vec<u8>,
        topo: Topology,
        done: Arc<OpCompletion>,
    },
    /// A frame a link's sink reassembled.
    Frame(usize, Vec<u8>),
    /// A link's sink reported its transport dead — after the link's final
    /// frames, which is what keeps a dying peer's last words from being
    /// masked by its death.
    LinkDown(usize, SendError),
    /// `close()` / `abort_view_changed()` flipped a flag the runner reads.
    Wake,
}

/// What the progress runner owns while it runs, and what survives between
/// its incarnations (the machine's stash of early frames).
struct Progress {
    machine: Machine,
    /// Completion slots of the operations inside the machine, oldest
    /// first: the machine finishes them in submission order.
    waiting: VecDeque<Arc<OpCompletion>>,
    next_coll: u32,
}

struct Inner {
    id: u32,
    rank: usize,
    size: usize,
    cfg: CollectiveConfig,
    links: HashMap<usize, NcsConnection>,
    /// The node's readiness reactor: feeds the inbox through the link
    /// sinks and lends the progress runner its blocking-lane thread.
    reactor: Arc<Reactor>,
    inbox: Mailbox<Event>,
    /// Whether a progress runner currently holds (or is acquiring) a
    /// blocking-lane thread; claimed with a swap so at most one exists.
    progress_active: AtomicBool,
    progress: Mutex<Progress>,
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
        if self.closed.load(Ordering::Acquire) {
            Err(CollectiveError::Closed)
        } else {
            Ok(())
        }
    }

    /// Marks the group dead under membership `epoch` (first abort wins)
    /// and wakes the runner, which fails the operation in flight and every
    /// queued one. Returns whether this call was the one that aborted the
    /// group.
    fn abort_view_changed(&self, epoch: u64) -> bool {
        let aborted = epoch != 0
            && self
                .view_changed
                .compare_exchange(0, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        if aborted {
            self.inbox.send(Event::Wake);
        }
        aborted
    }

    fn note_fault(&self, error: &SendError) {
        self.fault.lock().get_or_insert_with(|| error.clone());
    }

    /// Performs one machine output: the only place this shell touches a
    /// link, a handle or a counter on the machine's behalf.
    fn perform(
        &self,
        waiting: &mut VecDeque<Arc<OpCompletion>>,
        out: Output<'_>,
    ) -> Result<(), SendError> {
        match out {
            Output::Send { to, frames } => {
                self.links[&to]
                    .send_batch(frames)
                    .inspect_err(|e| self.note_fault(e))?;
                self.stats.frames_sent.add(frames.len() as u64);
                let bytes: usize = frames.iter().map(|f| f.len()).sum();
                self.stats.bytes_sent.add(bytes as u64);
            }
            Output::Done { result, .. } => {
                self.stats.ops_completed.inc();
                let done = waiting.pop_front().expect("one slot per operation");
                done.complete(result);
            }
            Output::Delivered { origin, payload } => self.delivered.send((origin, payload)),
        }
        Ok(())
    }

    /// Feeds one inbox event to the machine.
    fn feed(&self, p: &mut Progress, event: Event) {
        let Progress {
            machine,
            waiting,
            next_coll,
        } = p;
        match event {
            Event::Op {
                spec,
                payload,
                timeout,
                done,
            } => match self.check_closed() {
                Err(e) => done.complete(Err(e)),
                Ok(()) => {
                    machine.submit(*next_coll, spec, payload, timeout);
                    *next_coll = (*next_coll + 1) % UNMATCHED;
                    waiting.push_back(done);
                }
            },
            Event::Multicast {
                payload,
                topo,
                done,
            } => {
                let sent = machine.multicast(&payload, topo, &mut |out| self.perform(waiting, out));
                done.complete(sent.map(|()| Vec::new()).map_err(CollectiveError::Send));
            }
            Event::Frame(from, bytes) => {
                if let Some(payload_len) = machine.on_frame(from, bytes) {
                    self.stats.frames_received.inc();
                    self.stats.bytes_received.add(payload_len as u64);
                }
            }
            Event::LinkDown(peer, error) => machine.on_link_down(peer, error),
            Event::Wake => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Progress (on demand)
// ---------------------------------------------------------------------------

/// Ensures a progress runner is servicing the inbox, borrowing a
/// blocking-lane thread from the reactor if none is. The `progress_active`
/// swap makes the claim exclusive: exactly one runner exists while
/// operations are queued, zero once the machine is idle.
fn kick_progress(inner: &Arc<Inner>) {
    if inner.progress_active.swap(true, Ordering::AcqRel) {
        return;
    }
    let i = Arc::clone(inner);
    inner
        .reactor
        .spawn_blocking(Box::new(move || run_progress(&i)));
}

/// The progress runner, the machine's blocking shell: feed it everything
/// the inbox holds, let it advance, then park on the inbox until its next
/// deadline. Sends block legitimately (link back-pressure), which is why
/// this runs on the blocking lane and not a reactor event loop. Releases
/// its thread once the machine is idle.
fn run_progress(inner: &Arc<Inner>) {
    let mut p = inner.progress.lock();
    loop {
        while let Some(event) = inner.inbox.try_recv() {
            inner.feed(&mut p, event);
        }
        let Progress {
            machine, waiting, ..
        } = &mut *p;
        let emit = &mut |out: Output<'_>| inner.perform(waiting, out);
        if let Err(e) = inner.check_closed() {
            machine.abort(&e, emit);
        }
        let now = inner.clock.now();
        machine.poll(now, emit);
        let Some(deadline) = machine.next_deadline() else {
            // Idle: nothing queued, nothing in flight.
            inner.progress_active.store(false, Ordering::Release);
            // An event may have slipped in between the drain and the
            // release; reclaim the runner role unless its kick already
            // spawned a successor.
            if inner.inbox.is_empty() || inner.progress_active.swap(true, Ordering::AcqRel) {
                return;
            }
            continue;
        };
        if let Ok(event) = inner.inbox.recv_timeout(deadline.saturating_sub(now)) {
            inner.feed(&mut p, event);
        }
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
/// The group holds **no standing threads**: link traffic flows in through
/// receive sinks driven by the node's readiness reactor, and a progress
/// runner borrows a blocking-lane thread only while operations are
/// queued. Application threads *submit* operations and keep computing;
/// the runner drives the member's collective [`Machine`] and resolves
/// the [`CollectiveHandle`]s.
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
        let machine = Machine::new(
            Encoder::new(node.buffer_pool(), id, cfg.seg_size),
            rank,
            size,
        );
        let inner = Arc::new(Inner {
            id,
            rank,
            size,
            cfg,
            links,
            reactor: node.reactor(),
            inbox: Mailbox::unbounded(),
            progress_active: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                machine,
                waiting: VecDeque::new(),
                next_coll: 0,
            }),
            delivered: Mailbox::unbounded(),
            closed: AtomicBool::new(false),
            view_changed: AtomicU64::new(0),
            fault: Mutex::new(None),
            clock: node.clock(),
            stats: StatCounters::registered(&node.registry(), id),
        });
        // Take ownership of every link's untagged receive stream: the
        // reactor task that reassembles a frame pushes it straight into
        // the member's inbox (no pump thread parked on recv). A multicast
        // is the one frame nobody here asked for, so it alone must start a
        // runner; a dying link reports itself behind its final frames.
        for (&peer, conn) in &inner.links {
            let i = Arc::clone(&inner);
            conn.set_receive_sink(Some(Arc::new(move |res| match res {
                Ok(view) => {
                    let frame = view.into_vec();
                    let unasked = is_unmatched(&frame);
                    i.inbox.send(Event::Frame(peer, frame));
                    if unasked {
                        kick_progress(&i);
                    }
                }
                Err(e) => {
                    i.note_fault(&e);
                    i.inbox.send(Event::LinkDown(peer, e));
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

    /// Leaves the group: detaches the link sinks and wakes the runner,
    /// which fails the operation in flight and every queued one with
    /// [`CollectiveError::Closed`]. The underlying connections remain open
    /// (owned by the caller's node). Idempotent.
    pub fn close(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Give the links their receive queues back (also breaks the
        // sink -> Inner reference cycle).
        for conn in self.inner.links.values() {
            conn.set_receive_sink(None);
        }
        self.inner.inbox.send(Event::Wake);
    }

    /// Marks the group invalidated by membership `epoch`: the operation in
    /// flight and every queued one fail at once with
    /// [`CollectiveError::ViewChanged`] (the runner is woken for it), and
    /// all future submissions are refused with the same error. First abort wins (later epochs don't overwrite the one that
    /// killed the group); returns whether this call did the aborting.
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
        self.enqueue(|done| Event::Op {
            spec,
            payload,
            timeout,
            done,
        })
    }

    /// Hands the runner an event that resolves a handle.
    fn enqueue<R: CollectiveResult>(
        &self,
        event: impl FnOnce(Arc<OpCompletion>) -> Event,
    ) -> Result<CollectiveHandle<R>, CollectiveError> {
        let done = OpCompletion::new();
        self.inner.inbox.send(event(Arc::clone(&done)));
        kick_progress(&self.inner);
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
        let payload = data.to_vec();
        self.enqueue(|done| Event::Multicast {
            payload,
            topo,
            done,
        })
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
            .field("live", &(self.0.strong_count() > 0))
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

    /// Whether the watched group still exists.
    pub fn is_live(&self) -> bool {
        self.0.strong_count() > 0
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

    /// Wake, not tick: the runner parks until the operation's deadline (30
    /// s here), so each of these resolves only because its cause woke it.
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
