//! The readiness reactor: O(cores) event loops driving every connection's
//! protocol machinery as resumable tasks.
//!
//! The paper's Figure-4 architecture gives each connection dedicated
//! Send/Receive/FC/EC threads — faithful at 8 ranks, fatal at thousands of
//! connections. The reactor keeps the *strategy objects* of those threads
//! (flow control, error control) exactly as they are, but runs them as
//! non-blocking state machines multiplexed onto a small fixed pool of
//! worker loops (one `ReactorTask` per connection; see
//! `connection::ConnTask`). Figure 1's node-level Control Send/Receive
//! threads run the same way: one `control::CtrlTask` per attached peer.
//!
//! Three readiness sources feed the loops:
//!
//! * **Wakers** — in-process transports (HPI/PIPE/ACI mailboxes) invoke a
//!   registered callback on frame arrival ([`ncs_transport::Readiness::Waker`]);
//! * **File descriptors** — SCI sockets and listeners are watched through
//!   an `epoll(7)` set (`FdSet`, Linux ≥ 5.11 for `epoll_pwait2`), with
//!   oneshot arming under never-reused tokens, so a ready fd wakes its
//!   task exactly once until the task drains and re-arms — from its own
//!   thread, with one `epoll_ctl`. Under the kernel-level package each
//!   shard owns a set holding its own tasks' descriptors, and a shard that
//!   watches one parks in `epoll_pwait2` on it instead of on its inbox: a
//!   report reaches the task with no hand-off between threads. Its inbox
//!   bell is an edge-triggered `eventfd` in the set, never read, written
//!   only when the shard's `parked` flag says it sleeps there. A shard
//!   that watches nothing parks on its inbox (measured: parking every
//!   shard in epoll made the in-process HPI round trip 15–19 % slower,
//!   in every alternating pair); each registration posts the shard a
//!   no-op so it comes round to the set;
//! * **Timers** — retransmission deadlines, flow-control pacing and
//!   starvation probes. A task holds at most one *armed* deadline
//!   ([`TaskRef::armed_by`]); it is kept when the task goes `Idle` and
//!   replaced only by an earlier one, so timers fire early, never late —
//!   the task is polled, recomputes what it really waits for and says so
//!   again — and a stream of messages that are each acknowledged long
//!   before their timeout costs one timer operation per timeout period,
//!   not one per message. A shard sleeps toward the earliest armed
//!   deadline of a live task and nothing else: superseded heap entries are
//!   dropped when they surface, never slept toward, and a shard with no
//!   deadline sleeps for as long as it takes. Nothing wakes it but one of
//!   the three sources; there is no idle tick to look again on.
//!
//!   *Timer slack.* Because an armed deadline is kept until it fires, a
//!   busy loop spends the last stretch before every deadline parking
//!   toward it for less and less — and a timed park shorter than a kernel
//!   timer tick is dearer than a long one: on the 2-vCPU Firecracker host
//!   this was tuned on (HZ = 250), a condvar ping-pong round trip costs
//!   5.5–8 µs with a timeout of 5 ms or more, 9–13 µs with 2 ms, 14–20 µs
//!   with 1 ms. With retransmission deadlines some 10 ms out instead of
//!   200 ms that took the reliable 64 B round trip from 18 µs to 30–41 µs,
//!   same wake-ups, same context switches. So a deadline armed at least
//!   two ticks ahead (`2 × TIMER_SLACK`) is kept *lazily*: it fires when
//!   the loop is awake at or after it, the loop never parks toward it for
//!   less than `TIMER_SLACK`, and so it may fire up to `TIMER_SLACK` late.
//!   A deadline armed nearer than that (a transmit retry, rate pacing) is
//!   exact, as before.
//!
//! Workers are spawned on the node's [`ThreadPackage`], so the reactor
//! works under both the kernel-level and the user-level (green) package —
//! blocking waits go through `ncs_threads::sync`, which parks green
//! threads cooperatively. A green shard must never block in `epoll_wait`,
//! so under the user-level package one set per reactor holds every
//! descriptor, driven by one plain OS thread (`ncs-fd-poller`, started
//! with the first registration and stopped by the set's bell).
//!
//! Nothing else runs here: the loops are the node's one execution model,
//! and there is no pool for blocking work beside them. Code outside this
//! crate that needs a deadline held for it (a collective group's operation
//! timeout) registers a non-blocking closure as a task
//! ([`Reactor::spawn_task`]) under the same timer rule.
//!
//! **Shutdown** ([`Reactor::shutdown`]) is the last step of a node's
//! ordered retirement (`NcsNode::shutdown`): by then the node has closed
//! its connections and retired its control and accept tasks. Each shard
//! drops its closure tasks at once — they hold deadlines for their owners,
//! and nobody waits for those past a shutdown — and runs the rest until
//! they finish, which ends the shard. The only wait left is a closing
//! connection's drain toward a peer that takes nothing, bounded by its
//! `CLOSE_LINGER`; a task still there past that bound is dropped and
//! counted ([`ReactorStats::tasks_left_at_shutdown`]).

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ncs_threads::sync::Mailbox;
use ncs_threads::{PackageKind, SpawnOptions, ThreadPackage};
use ncs_transport::Connection as Transport;
use parking_lot::Mutex;

use crate::stats::ReactorStats;

/// One kernel timer tick where this runs (HZ = 250): how late a deadline
/// armed at least two of them ahead may fire, and the shortest park toward
/// it (see the module docs for the measurement).
pub(crate) const TIMER_SLACK: Duration = Duration::from_millis(4);

// The shortest retransmission deadline must reach the loop lazily.
const _: () = assert!(crate::plane::MIN_RTO.as_nanos() > 2 * TIMER_SLACK.as_nanos());

/// Consecutive `Again` returns after which a task counts as stalled.
const STALL_STREAK: u32 = 64;

/// What a task tells its shard after a poll.
pub(crate) enum TaskPoll {
    /// Nothing to do until a wakeup arrives. A deadline armed by an
    /// earlier poll stays armed: the task is polled once more when it
    /// passes.
    Idle,
    /// More work is pending; reschedule immediately (lets sibling tasks on
    /// the shard interleave with a busy task).
    Again,
    /// Idle until `at`, an earlier wakeup, or a deadline armed earlier
    /// that comes first (timers fire early, never late).
    Timer(Instant),
    /// The task is finished; remove it from the shard.
    Done,
}

/// A resumable, non-blocking unit of protocol work (one connection's
/// Send/Receive/FC/EC machinery, or one peer's control plane).
///
/// `poll` must never block: it drains whatever is ready, advances its
/// state machines, and returns. Spurious polls are normal.
pub(crate) trait ReactorTask: Send {
    fn poll(&mut self, now: Instant) -> TaskPoll;
}

// Wake-handle states. The transitions guarantee no lost wakeups: a wake
// that races a running poll lands in `DIRTY`, which reschedules the task
// as soon as the poll returns.
const ST_IDLE: u8 = 0;
const ST_SCHEDULED: u8 = 1;
const ST_RUNNING: u8 = 2;
const ST_DIRTY: u8 = 3;
const ST_DONE: u8 = 4;

/// What a task is: what [`ReactorStats`] counts it as, and what a
/// shutdown does with it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// A connection's pipeline ([`ReactorStats::endpoints`]).
    Connection,
    /// A node's control or accept task.
    Control,
    /// A [`Reactor::spawn_task`] closure: dropped, unpolled, at shutdown.
    Closure,
}

enum ShardMsg {
    Add(u64, Box<dyn ReactorTask>, Arc<TaskHandle>, TaskKind),
    Run(u64),
    /// Nothing to do: the shard looks again at how it parks.
    Repark,
    Shutdown,
}

/// The shard's inbox plus the counters wakers touch. Shared by the worker,
/// every task handle of the shard, and the reactor front-end.
struct ShardQueue {
    inbox: Mailbox<ShardMsg>,
    counters: Arc<ReactorCounters>,
    /// Zero of the shard's timer arithmetic.
    epoch: Instant,
    /// The shard's descriptors (kernel-level package), made with its
    /// first registration.
    fds: OnceLock<Arc<FdSet>>,
    /// Set while the worker waits in `fds`: a post then rings its bell.
    parked: AtomicBool,
}

impl ShardQueue {
    /// Queues `msg` for the worker. Pushes, then reads `parked`: with the
    /// worker's publish-then-look (`next_message`), one of the two sees
    /// the other, so no message waits for a sleeping worker (the tests'
    /// `bell` model checks every schedule). A shard without a set never
    /// parks in one.
    fn post(&self, msg: ShardMsg) {
        self.inbox.send(msg);
        if let Some(set) = self.fds.get() {
            fence(Ordering::SeqCst);
            if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::Relaxed) {
                set.ring();
            }
        }
    }

    /// `at` on the shard's timer scale (below [`UNARMED`]).
    fn nanos(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.epoch).as_nanos() as u64).min(UNARMED - 1)
    }

    /// The latest a deadline `at` armed at `now` fires, on the shard's
    /// timer scale, and how much of that is slack.
    fn fire_by(&self, at: Instant, now: Instant) -> (u64, u64) {
        let lazy = at.saturating_duration_since(now) >= 2 * TIMER_SLACK;
        let slack = if lazy {
            TIMER_SLACK.as_nanos() as u64
        } else {
            0
        };
        ((self.nanos(at) + slack).min(UNARMED - 1), slack)
    }
}

/// Wakes one task: the reactor-side analogue of the paper's mailbox
/// "activation". Cheap, lock-free, callable from anywhere (transport
/// wakers, other tasks, application threads, the task itself).
pub(crate) struct TaskHandle {
    id: u64,
    state: AtomicU8,
    /// The latest the task's armed deadline fires, in nanoseconds since
    /// the shard's epoch; [`UNARMED`] if none. Written by the shard's
    /// worker only.
    armed: AtomicU64,
    /// Set when the task's owner drops its [`TaskRef`]: the next run
    /// removes the task instead of polling it. (The owner's release pairs
    /// with the worker's acquire: what the owner did before letting go is
    /// done before the task's captures are dropped.)
    retired: AtomicBool,
    shard: Arc<ShardQueue>,
}

/// [`TaskHandle::armed`] when the task has no deadline pending.
const UNARMED: u64 = u64::MAX;

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.id)
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish()
    }
}

impl TaskHandle {
    /// Whether the shard will poll the task, with nobody waking it, no
    /// later than it would if `at` were armed now.
    pub(crate) fn armed_by(&self, at: Instant) -> bool {
        self.armed.load(Ordering::Acquire) <= self.shard.fire_by(at, Instant::now()).0
    }

    pub(crate) fn wake(&self) {
        loop {
            match self.state.load(Ordering::Acquire) {
                ST_IDLE => {
                    if self
                        .state
                        .compare_exchange(
                            ST_IDLE,
                            ST_SCHEDULED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        self.shard.counters.wakeups.fetch_add(1, Ordering::Relaxed);
                        self.shard.post(ShardMsg::Run(self.id));
                        return;
                    }
                }
                ST_RUNNING => {
                    if self
                        .state
                        .compare_exchange(ST_RUNNING, ST_DIRTY, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.shard.counters.wakeups.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                // Already scheduled, already dirty, or finished: coalesce.
                _ => return,
            }
        }
    }
}

/// Internal counters behind [`ReactorStats`].
#[derive(Debug, Default)]
pub(crate) struct ReactorCounters {
    /// Live connection tasks ([`ReactorStats::endpoints`]).
    endpoints: AtomicU64,
    /// Live tasks of every kind (connections plus per-peer control tasks).
    tasks: AtomicU64,
    polls: AtomicU64,
    wakeups: AtomicU64,
    task_runs: AtomicU64,
    timer_fires: AtomicU64,
    /// Entries in the shards' timer heaps, superseded ones included.
    timer_entries: AtomicU64,
    fd_events: AtomicU64,
    /// Waits in an [`FdSet`] that returned readiness reports.
    poller_wakes: AtomicU64,
    stalled_tasks: AtomicU64,
    short_parks: AtomicU64,
    tasks_left_at_shutdown: AtomicU64,
}

/// One worker-local task slot.
struct Slot {
    task: Box<dyn ReactorTask>,
    handle: Arc<TaskHandle>,
    kind: TaskKind,
    again_streak: u32,
    /// Nanoseconds of [`TIMER_SLACK`] in the armed deadline.
    slack: u64,
}

/// The per-core event-loop pool. One per [`crate::NcsNode`] by default;
/// share one across nodes (see [`crate::NcsNodeBuilder::reactor`]) to run
/// hundreds of links on a single O(cores) pool.
pub struct Reactor {
    shards: Vec<Arc<ShardQueue>>,
    next_shard: AtomicUsize,
    counters: Arc<ReactorCounters>,
    workers: Mutex<Vec<ncs_threads::JoinHandle>>,
    /// The user-level package's one set, driven by its own OS thread.
    poller: OnceLock<Arc<FdSet>>,
    pkg: Arc<dyn ThreadPackage>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("shards", &self.shards.len())
            .field(
                "endpoints",
                &self.counters.endpoints.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// Default shard count: O(cores), bounded — the whole point is a small
/// constant pool regardless of connection count.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, 4)
}

impl Reactor {
    /// Starts a reactor with `shards` event loops on `pkg`.
    pub fn new(pkg: Arc<dyn ThreadPackage>, shards: usize) -> Arc<Self> {
        let shards = shards.max(1);
        let counters = Arc::new(ReactorCounters::default());
        let queues: Vec<Arc<ShardQueue>> = (0..shards)
            .map(|_| {
                Arc::new(ShardQueue {
                    inbox: Mailbox::unbounded(),
                    counters: Arc::clone(&counters),
                    epoch: Instant::now(),
                    fds: OnceLock::new(),
                    parked: AtomicBool::new(false),
                })
            })
            .collect();
        let mut workers = Vec::with_capacity(shards);
        for (i, q) in queues.iter().enumerate() {
            let q = Arc::clone(q);
            let counters = Arc::clone(&counters);
            workers.push(pkg.spawn_with(
                SpawnOptions::new(format!("ncs-reactor-{i}")).daemon(true),
                Box::new(move || worker_loop(&q, &counters)),
            ));
        }
        Arc::new(Reactor {
            shards: queues,
            next_shard: AtomicUsize::new(0),
            counters,
            workers: Mutex::new(workers),
            poller: OnceLock::new(),
            pkg,
        })
    }

    /// [`Reactor::new`] with [`default_shards`].
    pub fn with_default_shards(pkg: Arc<dyn ThreadPackage>) -> Arc<Self> {
        Reactor::new(pkg, default_shards())
    }

    /// Number of event-loop workers.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The thread package the workers run on.
    pub fn package(&self) -> &Arc<dyn ThreadPackage> {
        &self.pkg
    }

    /// Registers a task on the least-recently-used shard and schedules its
    /// first poll. Returns the wake handle, which `make` is given first to
    /// build the task around (a task that subscribes itself to readiness
    /// sources it finds while running needs it).
    pub(crate) fn spawn(
        &self,
        kind: TaskKind,
        make: impl FnOnce(&Arc<TaskHandle>) -> Box<dyn ReactorTask>,
    ) -> Arc<TaskHandle> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let shard_ix = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = Arc::clone(&self.shards[shard_ix]);
        let handle = Arc::new(TaskHandle {
            id,
            state: AtomicU8::new(ST_SCHEDULED),
            armed: AtomicU64::new(UNARMED),
            retired: AtomicBool::new(false),
            shard: Arc::clone(&shard),
        });
        self.counters.tasks.fetch_add(1, Ordering::Relaxed);
        if kind == TaskKind::Connection {
            self.counters.endpoints.fetch_add(1, Ordering::Relaxed);
        }
        shard.post(ShardMsg::Add(id, make(&handle), Arc::clone(&handle), kind));
        handle
    }

    /// Live tasks of every kind — connections and control tasks.
    #[cfg(test)]
    pub(crate) fn live_tasks(&self) -> u64 {
        self.counters.tasks.load(Ordering::Relaxed)
    }

    /// Entries in the shards' timer heaps.
    #[cfg(test)]
    pub(crate) fn timer_entries(&self) -> u64 {
        self.counters.timer_entries.load(Ordering::Relaxed)
    }

    /// Subscribes `task` to `transport`'s readiness: it is woken whenever
    /// the transport may have become readable — through the transport's
    /// waker, and for an fd-backed transport (SCI) through an `epoll(7)`
    /// set as well.
    pub(crate) fn watch(&self, transport: &Arc<dyn Transport>, task: &Arc<TaskHandle>) -> Watch {
        let t = Arc::clone(task);
        transport.register_waker(Some(Arc::new(move || t.wake())));
        let fd = match transport.readiness() {
            ncs_transport::Readiness::Fd(fd) => Some(self.watch_fd(fd, task)),
            _ => None,
        };
        Watch {
            fd,
            transport: Arc::clone(transport),
        }
    }

    /// Wakes `task` whenever `fd` — an SCI socket, or an SCI listener with
    /// connections to accept — turns readable while armed, until the
    /// registration is dropped. Under the kernel-level package the
    /// descriptor joins the set of the shard that runs the task, and that
    /// shard reports it; under the user-level package, the reactor's
    /// poller thread does.
    pub(crate) fn watch_fd(
        &self,
        fd: std::os::fd::RawFd,
        task: &Arc<TaskHandle>,
    ) -> FdRegistration {
        let shard = &task.shard;
        let kernel = self.pkg.kind() == PackageKind::KernelLevel;
        let set = if kernel {
            shard.fds.get_or_init(FdSet::new)
        } else {
            self.poller
                .get_or_init(|| FdSet::drive(Arc::clone(&self.counters)))
        };
        let reg = set.register(fd, Arc::clone(task));
        // A shard asleep on its inbox comes round to park in its set.
        if kernel {
            shard.post(ShardMsg::Repark);
        }
        reg
    }

    /// Runs the non-blocking closure `poll` as a task on one of the event
    /// loops: once now, then whenever the returned [`TaskRef`] is woken or
    /// the deadline the closure last returned passes. The closure gets the
    /// time of the poll and returns the next instant it wants to run at
    /// with nobody waking it, under the reactor's timer rule — `None`
    /// keeps a deadline armed earlier, `Some` replaces it only when
    /// earlier still, so timers fire early, and a closure that
    /// returns deadlines far ahead costs one timer operation per deadline
    /// that is actually reached; a deadline 8 ms or more ahead may fire
    /// up to 4 ms late (the module docs say why). It must never block.
    /// Dropping the `TaskRef` ends the task: it drops the closure and
    /// everything it captured. So does the reactor's shutdown, which
    /// waits for no closure: the `TaskRef`'s wakes then do nothing.
    pub fn spawn_task(
        &self,
        poll: impl FnMut(Instant) -> Option<Instant> + Send + 'static,
    ) -> TaskRef {
        TaskRef(self.spawn(TaskKind::Closure, |_| Box::new(FnTask(poll))))
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ReactorStats {
        let c = &self.counters;
        ReactorStats {
            workers: self.shards.len(),
            endpoints: c.endpoints.load(Ordering::Relaxed),
            polls: c.polls.load(Ordering::Relaxed),
            wakeups: c.wakeups.load(Ordering::Relaxed),
            task_runs: c.task_runs.load(Ordering::Relaxed),
            timer_fires: c.timer_fires.load(Ordering::Relaxed),
            fd_events: c.fd_events.load(Ordering::Relaxed),
            poller_wakes: c.poller_wakes.load(Ordering::Relaxed),
            stalled_tasks: c.stalled_tasks.load(Ordering::Relaxed),
            short_parks: c.short_parks.load(Ordering::Relaxed),
            tasks_left_at_shutdown: c.tasks_left_at_shutdown.load(Ordering::Relaxed),
            blocking_spawned: 0,
        }
    }

    /// Stops the workers (and the poller thread), and returns once they
    /// have exited. Idempotent. Each shard drops its closure tasks
    /// ([`Reactor::spawn_task`]) at once and runs its connection and
    /// control tasks until they finish: closed connections complete their
    /// graceful drain (send flush, final-frame delivery), which
    /// `CLOSE_LINGER` bounds. A task still there when that bound has
    /// passed is dropped unpolled and counted in
    /// [`ReactorStats::tasks_left_at_shutdown`]; close connections and
    /// retire control tasks first (node shutdown does), or they are the
    /// ones left. The join's own limit only guards a reactor dropped on
    /// one of its own loops.
    pub fn shutdown(&self) {
        // A second call finds no worker to wait for.
        for shard in &self.shards {
            shard.post(ShardMsg::Shutdown);
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join_timeout(Duration::from_secs(2));
        }
        if let Some(poller) = self.poller.get() {
            poller.ring();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A closure as a task ([`Reactor::spawn_task`]).
struct FnTask<F>(F);

impl<F: FnMut(Instant) -> Option<Instant> + Send> ReactorTask for FnTask<F> {
    fn poll(&mut self, now: Instant) -> TaskPoll {
        (self.0)(now).map_or(TaskPoll::Idle, TaskPoll::Timer)
    }
}

/// The owner's end of a [`Reactor::spawn_task`] task. Dropping it retires
/// the task.
#[derive(Debug)]
pub struct TaskRef(pub(crate) Arc<TaskHandle>);

impl TaskRef {
    /// Schedules a poll of the task. Cheap, lock-free, callable from
    /// anywhere; wakes coalesce and none is lost.
    pub fn wake(&self) {
        self.0.wake();
    }

    /// Whether the task will be polled, with nobody waking it, no later
    /// than it would be if it returned `at` now: the caller's test for
    /// "is my deadline covered".
    pub fn armed_by(&self, at: Instant) -> bool {
        self.0.armed_by(at)
    }
}

impl Drop for TaskRef {
    /// Ends the task: its closure is dropped on the event loop, unpolled,
    /// as soon as the loop gets to it.
    fn drop(&mut self) {
        self.0.retired.store(true, Ordering::Release);
        self.0.wake();
    }
}

/// One task's subscription to one transport's readiness
/// ([`Reactor::watch`]). Dropping it unsubscribes.
pub(crate) struct Watch {
    // Before `transport`: the registration is keyed by descriptor number,
    // which the system may hand out again the moment the socket closes.
    fd: Option<FdRegistration>,
    transport: Arc<dyn Transport>,
}

impl Watch {
    pub(crate) fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Re-enables fd readiness once the task has drained the transport
    /// (registrations are oneshot; re-arming makes the kernel look again,
    /// so anything that arrived while disarmed is reported at once).
    pub(crate) fn rearm(&self) {
        if let Some(fd) = &self.fd {
            fd.rearm();
        }
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        self.transport.register_waker(None);
    }
}

/// Min-heap of (latest firing time in shard nanoseconds, task id). An
/// entry is live while it equals its task's [`TaskHandle::armed`]; the
/// others (task gone, deadline superseded by an earlier one) are dropped
/// when they reach the head.
type TimerHeap = BinaryHeap<std::cmp::Reverse<(u64, u64)>>;

/// One shard's event loop: timers, then the run queue.
///
/// A shutdown drops the shard's closure tasks at once, and every closure
/// task that comes after it. The connection and control tasks — closed or
/// retired by their node before it stopped the reactor — run until they
/// finish, and the shard exits with the last of them; or, at the latest,
/// when a closing connection's drain must have ended: its `CLOSE_LINGER`,
/// plus the lateness the timer rule allows that deadline. What is left
/// then is dropped unpolled, and counted.
fn worker_loop(shard: &Arc<ShardQueue>, counters: &Arc<ReactorCounters>) {
    let mut tasks: HashMap<u64, Slot> = HashMap::new();
    let mut timers = TimerHeap::new();
    let mut shutdown_bound: Option<Instant> = None;
    loop {
        // Fire due timers by waking their tasks through the normal path,
        // and clear dead entries off the head: what is left there is the
        // earliest deadline a live task waits for. With none, and no
        // shutdown, the shard parks for as long as it takes.
        let now = Instant::now();
        let now_ns = shard.nanos(now);
        let mut wait = shutdown_bound.map_or(Duration::MAX, |at| at.duration_since(now));
        while let Some(&std::cmp::Reverse((by, id))) = timers.peek() {
            let live = tasks
                .get(&id)
                .filter(|slot| slot.handle.armed.load(Ordering::Relaxed) == by);
            if let Some(slot) = live {
                // Due from `by - slack` on, and never parked toward for
                // less than the slack. Nothing behind the head is owed a
                // poll before `by`, and this park ends no later.
                let at = by - slot.slack;
                if at > now_ns {
                    wait = wait.min(Duration::from_nanos((at - now_ns).max(slot.slack)));
                    break;
                }
            }
            timers.pop();
            counters.timer_entries.fetch_sub(1, Ordering::Relaxed);
            if let Some(slot) = live {
                slot.handle.armed.store(UNARMED, Ordering::Release);
                counters.timer_fires.fetch_add(1, Ordering::Relaxed);
                slot.handle.wake();
            }
        }
        counters.polls.fetch_add(1, Ordering::Relaxed);
        if wait < TIMER_SLACK {
            counters.short_parks.fetch_add(1, Ordering::Relaxed);
        }
        match next_message(shard, wait) {
            None | Some(ShardMsg::Repark) => {}
            Some(ShardMsg::Shutdown) => {
                shutdown_bound
                    .get_or_insert(now + crate::connection::CLOSE_LINGER + 2 * TIMER_SLACK);
                tasks.retain(|_, slot| slot.kind != TaskKind::Closure);
            }
            // After the shutdown a closure is dropped as it comes.
            Some(ShardMsg::Add(_, _, _, TaskKind::Closure)) if shutdown_bound.is_some() => {}
            Some(ShardMsg::Add(id, task, handle, kind)) => {
                let slot = Slot {
                    task,
                    handle,
                    kind,
                    again_streak: 0,
                    slack: 0,
                };
                tasks.insert(id, slot);
                run_task(shard, counters, &mut tasks, &mut timers, id);
            }
            Some(ShardMsg::Run(id)) => run_task(shard, counters, &mut tasks, &mut timers, id),
        }
        // Judged after what was due has run: a drain that ended on time
        // is not cut short by a late wake.
        if shutdown_bound.is_some_and(|at| tasks.is_empty() || Instant::now() >= at) {
            break;
        }
    }
    let left = &counters.tasks_left_at_shutdown;
    left.fetch_add(tasks.len() as u64, Ordering::Relaxed);
}

/// The shard's next message, parked for up to `wait` (for as long as it
/// takes with `Duration::MAX`) while there is none: in the shard's set
/// while it watches a descriptor (whose reports it delivers on the way),
/// on the inbox otherwise.
fn next_message(shard: &ShardQueue, wait: Duration) -> Option<ShardMsg> {
    let Some(set) = shard
        .fds
        .get()
        .filter(|set| set.watched.load(Ordering::Acquire) > 0)
    else {
        return shard.inbox.recv_timeout(wait).ok();
    };
    if let Some(msg) = shard.inbox.try_recv() {
        return Some(msg);
    }
    // Publish, then look (`ShardQueue::post` pushes, then reads).
    shard.parked.store(true, Ordering::Relaxed);
    fence(Ordering::SeqCst);
    let unpark = || shard.parked.store(false, Ordering::Relaxed);
    match shard.inbox.try_recv() {
        Some(msg) => {
            unpark();
            Some(msg)
        }
        None => {
            let wait = (wait < Duration::MAX).then_some(wait);
            set.wait(wait, &shard.counters, unpark);
            shard.inbox.try_recv()
        }
    }
}

fn run_task(
    shard: &Arc<ShardQueue>,
    counters: &Arc<ReactorCounters>,
    tasks: &mut HashMap<u64, Slot>,
    timers: &mut TimerHeap,
    id: u64,
) {
    let Some(slot) = tasks.get_mut(&id) else {
        return; // finished while the Run message was in flight
    };
    slot.handle.state.store(ST_RUNNING, Ordering::Release);
    counters.task_runs.fetch_add(1, Ordering::Relaxed);
    let now = Instant::now();
    let poll = match slot.handle.retired.load(Ordering::Acquire) {
        true => TaskPoll::Done,
        false => slot.task.poll(now),
    };
    match poll {
        TaskPoll::Done => {
            slot.handle.state.store(ST_DONE, Ordering::Release);
            if slot.kind == TaskKind::Connection {
                counters.endpoints.fetch_sub(1, Ordering::Relaxed);
            }
            counters.tasks.fetch_sub(1, Ordering::Relaxed);
            tasks.remove(&id);
        }
        TaskPoll::Again => {
            slot.again_streak += 1;
            if slot.again_streak == STALL_STREAK {
                counters.stalled_tasks.fetch_add(1, Ordering::Relaxed);
            }
            slot.handle.state.store(ST_SCHEDULED, Ordering::Release);
            shard.post(ShardMsg::Run(id));
        }
        TaskPoll::Idle | TaskPoll::Timer(_) => {
            slot.again_streak = 0;
            // An armed deadline stays armed — through `Idle` too —
            // until it fires or an earlier one replaces it.
            if let TaskPoll::Timer(at) = poll {
                let (by, slack) = shard.fire_by(at, now);
                if by < slot.handle.armed.load(Ordering::Relaxed) {
                    slot.handle.armed.store(by, Ordering::Release);
                    slot.slack = slack;
                    timers.push(std::cmp::Reverse((by, id)));
                    counters.timer_entries.fetch_add(1, Ordering::Relaxed);
                }
            }
            if slot
                .handle
                .state
                .compare_exchange(ST_RUNNING, ST_IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // A wake raced the poll (DIRTY): reschedule so nothing
                // is lost.
                slot.handle.state.store(ST_SCHEDULED, Ordering::Release);
                shard.post(ShardMsg::Run(id));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fd sets (SCI sockets and listeners)
// ---------------------------------------------------------------------------

mod fdset {
    #[cfg(not(target_os = "linux"))]
    compile_error!("the reactor's fd sets are built on epoll(7), which only Linux has");

    use super::*;
    use std::ffi::c_long;
    use std::fs::File;
    use std::io::Write;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    /// `struct epoll_event`, which the kernel packs on x86_64.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLET: u32 = 1 << 31;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EPOLL_CLOEXEC: i32 = 0o2_000_000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EFD_CLOEXEC: i32 = 0o2_000_000;
    const EFD_NONBLOCK: i32 = 0o4_000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_pwait2(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout: *const [c_long; 2], // struct timespec
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    /// The bell's event token; registrations count up from 1.
    const BELL: u64 = 0;

    /// Whether the task of a registration is owed a report when its
    /// descriptor turns readable, and which task that is.
    struct FdEntry {
        handle: Arc<TaskHandle>,
        armed: AtomicBool,
    }

    /// One `epoll(7)` set of descriptors, each reported to its task.
    ///
    /// Registrations are oneshot (`EPOLLONESHOT`): the kernel disarms a
    /// descriptor as it reports it, so a readable socket cannot busy-spin
    /// the set's driver while its task catches up. The task re-arms
    /// through its [`FdRegistration`] once it has drained, on its own
    /// thread; the kernel then looks again, so bytes that arrived while
    /// disarmed are reported at once — no lost wakeups, and no wake of
    /// the driver. The set's bell, an edge-triggered `eventfd` that is
    /// written and never read, ends a wait for anything else: a post to a
    /// parked shard, or the stop of the poller thread.
    pub(crate) struct FdSet {
        epoll: OwnedFd,
        bell: File,
        /// Live registrations by token. A token is never reused, so a
        /// report for a registration that is gone wakes nobody, even when
        /// its descriptor number has been handed out again.
        entries: Mutex<HashMap<u64, Arc<FdEntry>>>,
        next_token: AtomicU64,
        /// Live registrations: a shard parks in the set while any exist.
        pub(super) watched: AtomicUsize,
    }

    /// A descriptor the call returned, or the panic saying which call
    /// failed.
    fn owned(fd: i32, call: &str) -> OwnedFd {
        assert!(fd >= 0, "{call}: {}", std::io::Error::last_os_error());
        // SAFETY: `fd` is a fresh descriptor that nothing else owns.
        unsafe { OwnedFd::from_raw_fd(fd) }
    }

    impl FdSet {
        pub(crate) fn new() -> Arc<Self> {
            // SAFETY: no pointer is passed; the results are checked.
            let epoll = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) }, "epoll_create1");
            let bell = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }, "eventfd");
            let set = FdSet {
                epoll,
                bell: File::from(bell),
                entries: Mutex::new(HashMap::new()),
                next_token: AtomicU64::new(BELL + 1),
                watched: AtomicUsize::new(0),
            };
            let added = set.ctl(EPOLL_CTL_ADD, set.bell.as_raw_fd(), EPOLLIN | EPOLLET, BELL);
            assert!(added, "watch the fd set's bell");
            Arc::new(set)
        }

        /// A set driven by its own plain OS thread until its bell rings:
        /// the user-level package's, as a blocking `epoll_pwait2` must
        /// never park that package's scheduler.
        pub(crate) fn drive(counters: Arc<ReactorCounters>) -> Arc<Self> {
            let set = FdSet::new();
            let s = Arc::clone(&set);
            std::thread::Builder::new()
                .name("ncs-fd-poller".to_owned())
                .spawn(move || while !s.wait(None, &counters, || ()) {})
                .expect("spawn fd poller");
            set
        }

        /// Registers `fd` for `handle`'s task, armed.
        pub(crate) fn register(
            self: &Arc<Self>,
            fd: RawFd,
            handle: Arc<TaskHandle>,
        ) -> FdRegistration {
            let token = self.next_token.fetch_add(1, Ordering::Relaxed);
            let entry = Arc::new(FdEntry {
                handle,
                armed: AtomicBool::new(true),
            });
            self.entries.lock().insert(token, Arc::clone(&entry));
            self.watched.fetch_add(1, Ordering::AcqRel);
            self.arm(EPOLL_CTL_ADD, fd, token, &entry);
            FdRegistration {
                fd,
                token,
                entry,
                set: Arc::clone(self),
            }
        }

        /// Arms `fd` for one report under `token`. A descriptor the kernel
        /// refuses to watch is reported ready at once instead, as
        /// `poll(2)` reports one it cannot poll: the task's next call on
        /// it meets the fault.
        fn arm(&self, op: i32, fd: RawFd, token: u64, entry: &FdEntry) {
            if !self.ctl(op, fd, EPOLLIN | EPOLLONESHOT, token) {
                entry.armed.store(false, Ordering::Release);
                entry.handle.wake();
            }
        }

        /// `epoll_ctl` on the set; says whether it succeeded.
        fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> bool {
            let mut event = EpollEvent { events, data };
            // SAFETY: `event` is one valid `epoll_event` for the call.
            unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) == 0 }
        }

        /// Ends the set's current or next wait.
        pub(crate) fn ring(&self) {
            let _ = (&self.bell).write(&1u64.to_ne_bytes());
        }

        /// Waits up to `timeout` (forever with `None`), runs `woke`, and
        /// wakes the task of every descriptor reported. Returns whether
        /// the bell rang.
        pub(crate) fn wait(
            &self,
            timeout: Option<Duration>,
            counters: &ReactorCounters,
            woke: impl FnOnce(),
        ) -> bool {
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            let timeout = timeout.map(|t| [t.as_secs() as c_long, t.subsec_nanos() as c_long]);
            // SAFETY: `events` is writable for its whole length, which is
            // what the call is told; `timeout` is null or one timespec.
            let n = unsafe {
                epoll_pwait2(
                    self.epoll.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout.as_ref().map_or(std::ptr::null(), |t| t),
                    std::ptr::null(),
                )
            };
            let n = reports(n, std::io::Error::last_os_error());
            woke();
            let events = &events[..n];
            let rang = events.iter().any(|e| e.data == BELL);
            if events.len() > usize::from(rang) {
                counters.poller_wakes.fetch_add(1, Ordering::Relaxed);
                // Tasks are woken under the lock a registration's drop
                // takes: once that drop returns, no report still in hand
                // here wakes its task.
                let entries = self.entries.lock();
                for event in events {
                    let token = event.data;
                    if let Some(e) = entries.get(&token) {
                        e.armed.store(false, Ordering::Release);
                        counters.fd_events.fetch_add(1, Ordering::Relaxed);
                        e.handle.wake();
                    }
                }
            }
            rang
        }
    }

    /// The reports in a wait that returned `n`, with `error` read right
    /// after: none if a signal cut it short. Any other failure would
    /// repeat on every wait, so it panics.
    pub(super) fn reports(n: i32, error: std::io::Error) -> usize {
        let ok = n >= 0 || error.kind() == std::io::ErrorKind::Interrupted;
        assert!(ok, "epoll_pwait2 (Linux ≥ 5.11): {error}");
        usize::try_from(n).unwrap_or(0)
    }

    /// A live fd registration. Dropping it deregisters the descriptor.
    pub(crate) struct FdRegistration {
        fd: RawFd,
        token: u64,
        entry: Arc<FdEntry>,
        set: Arc<FdSet>,
    }

    impl FdRegistration {
        /// Re-enables readiness reports after the owning task has drained
        /// the descriptor: one `epoll_ctl` if a report disarmed it, none
        /// if it is still armed.
        pub(crate) fn rearm(&self) {
            if !self.entry.armed.swap(true, Ordering::AcqRel) {
                self.set
                    .arm(EPOLL_CTL_MOD, self.fd, self.token, &self.entry);
            }
        }
    }

    impl Drop for FdRegistration {
        fn drop(&mut self) {
            self.set.entries.lock().remove(&self.token);
            // The descriptor is still open: its owner drops it after this.
            self.set.ctl(EPOLL_CTL_DEL, self.fd, 0, 0);
            self.set.watched.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

pub(crate) use fdset::{FdRegistration, FdSet};

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_threads::KernelPackage;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// How soon a report or a wake must reach its task: a lost one would
    /// wait for whatever comes next, and nothing else comes.
    const PROMPT: Duration = Duration::from_millis(50);

    fn pkg() -> Arc<dyn ThreadPackage> {
        Arc::new(KernelPackage::new())
    }

    struct CountTask {
        runs: Arc<AtomicU64>,
        done_after: u64,
    }

    impl ReactorTask for CountTask {
        fn poll(&mut self, _now: Instant) -> TaskPoll {
            let n = self.runs.fetch_add(1, Ordering::Relaxed) + 1;
            if n >= self.done_after {
                TaskPoll::Done
            } else {
                TaskPoll::Idle
            }
        }
    }

    #[test]
    fn wake_schedules_task() {
        let reactor = Reactor::new(pkg(), 2);
        let runs = Arc::new(AtomicU64::new(0));
        let task = CountTask {
            runs: Arc::clone(&runs),
            done_after: 3,
        };
        let handle = reactor.spawn(TaskKind::Connection, |_| Box::new(task));
        // First poll happens on registration.
        for _ in 0..100 {
            if runs.load(Ordering::Relaxed) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(runs.load(Ordering::Relaxed) >= 1);
        handle.wake();
        handle.wake(); // coalesces
        for _ in 0..100 {
            if runs.load(Ordering::Relaxed) >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(runs.load(Ordering::Relaxed) >= 2);
        reactor.shutdown();
    }

    struct TimerTask {
        fired: Arc<AtomicU64>,
        at: Option<Instant>,
        delay: Duration,
    }

    impl ReactorTask for TimerTask {
        fn poll(&mut self, now: Instant) -> TaskPoll {
            match self.at {
                None => {
                    self.at = Some(now + self.delay);
                    TaskPoll::Timer(now + self.delay)
                }
                Some(at) if now >= at => {
                    self.fired.fetch_add(1, Ordering::Relaxed);
                    TaskPoll::Done
                }
                Some(at) => TaskPoll::Timer(at),
            }
        }
    }

    #[test]
    fn timer_fires_without_external_wake() {
        let reactor = Reactor::new(pkg(), 1);
        let fired = Arc::new(AtomicU64::new(0));
        let task = TimerTask {
            fired: Arc::clone(&fired),
            at: None,
            delay: Duration::from_millis(30),
        };
        let _h = reactor.spawn(TaskKind::Connection, |_| Box::new(task));
        let start = Instant::now();
        while fired.load(Ordering::Relaxed) == 0 && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert!(start.elapsed() >= Duration::from_millis(25));
        reactor.shutdown();
    }

    /// Arms `now + 200 ms` on every other poll and goes `Idle` on the
    /// rest: a reliable connection whose every message is acknowledged
    /// long before its timeout.
    struct AckedStream {
        polls: Arc<AtomicU64>,
    }

    impl ReactorTask for AckedStream {
        fn poll(&mut self, now: Instant) -> TaskPoll {
            if self.polls.fetch_add(1, Ordering::Relaxed) & 1 == 0 {
                TaskPoll::Timer(now + Duration::from_millis(200))
            } else {
                TaskPoll::Idle
            }
        }
    }

    #[test]
    fn acknowledged_stream_leaves_one_timer_and_a_sleeping_shard() {
        let reactor = Reactor::new(pkg(), 1);
        let polls = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        let task = AckedStream {
            polls: Arc::clone(&polls),
        };
        let handle = reactor.spawn(TaskKind::Connection, |_| Box::new(task));
        // 10,000 message/acknowledgement pairs, each poll woken only once
        // the one before it has run.
        for n in 1..=20_000 {
            while polls.load(Ordering::Relaxed) < n {
                std::thread::yield_now();
            }
            handle.wake();
        }
        while polls.load(Ordering::Relaxed) <= 20_000 {
            std::thread::yield_now();
        }
        // One deadline per timeout period, not one per message.
        let periods = start.elapsed().as_millis() as u64 / 200 + 1;
        assert!(reactor.timer_entries() <= 1, "{}", reactor.timer_entries());
        assert!(reactor.stats().timer_fires <= periods);
        // And the shard sleeps toward that deadline,
        // not toward 10,000 deadlines nobody waits for any more.
        let before = reactor.stats();
        std::thread::sleep(Duration::from_millis(300));
        let after = reactor.stats();
        assert!(after.polls - before.polls < 16, "{before:?} -> {after:?}");
        assert!(after.timer_fires - before.timer_fires <= 2);
        reactor.shutdown();
    }

    /// Arms `start + delay` on its first poll, goes `Idle` on the rest —
    /// the deadline stays armed — and ends with the poll that finds it
    /// passed.
    struct ArmOnce {
        polls: Arc<AtomicU64>,
        delay: Duration,
        deadline: Option<Instant>,
        /// Nanoseconds from arming to firing; 0 until then.
        fired_after: Arc<AtomicU64>,
    }

    impl ReactorTask for ArmOnce {
        fn poll(&mut self, now: Instant) -> TaskPoll {
            self.polls.fetch_add(1, Ordering::Relaxed);
            match self.deadline {
                None => {
                    self.deadline = Some(now + self.delay);
                    TaskPoll::Timer(now + self.delay)
                }
                Some(at) if now >= at => {
                    let after = now - (at - self.delay);
                    self.fired_after
                        .store(after.as_nanos() as u64, Ordering::Relaxed);
                    TaskPoll::Done
                }
                Some(_) => TaskPoll::Idle,
            }
        }
    }

    /// Arms a deadline `delay` ahead on a fresh one-shard reactor; with
    /// `busy`, wakes the task back to back until it fires. Returns how
    /// long it took to fire, the reactor's counters then, and the wakes.
    fn fire(
        pkg: &Arc<dyn ThreadPackage>,
        delay: Duration,
        busy: bool,
    ) -> (Duration, ReactorStats, u64) {
        let reactor = Reactor::new(Arc::clone(pkg), 1);
        let (polls, fired_after) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let task = ArmOnce {
            polls: Arc::clone(&polls),
            delay,
            deadline: None,
            fired_after: Arc::clone(&fired_after),
        };
        let handle = reactor.spawn(TaskKind::Control, |_| Box::new(task));
        let mut wakes = 0;
        while fired_after.load(Ordering::Relaxed) == 0 {
            if busy && polls.load(Ordering::Relaxed) > wakes {
                wakes += 1;
                handle.wake();
            }
            pkg.yield_now();
        }
        let stats = reactor.stats();
        reactor.shutdown();
        let after = Duration::from_nanos(fired_after.load(Ordering::Relaxed));
        (after, stats, wakes)
    }

    /// The shortest of a few tries: scheduling noise only ever adds.
    fn soonest(pkg: &Arc<dyn ThreadPackage>, delay: Duration) -> Duration {
        (0..10)
            .map(|_| fire(pkg, delay, false).0)
            .min()
            .expect("ten tries")
    }

    fn timer_slack_rule(pkg: &Arc<dyn ThreadPackage>) {
        let ms = Duration::from_millis;
        // A deadline two ticks or more ahead is never parked toward for
        // less than a tick, however often the loop wakes on the way: here
        // 10,000 times at least (a host too busy for that in 100 ms gets
        // longer).
        let mut delay = ms(100);
        let (after, stats) = loop {
            let (after, stats, wakes) = fire(pkg, delay, true);
            if wakes >= 10_000 {
                break (after, stats);
            }
            delay *= 2;
        };
        assert_eq!(stats.short_parks, 0, "{stats}");
        assert!(after >= delay, "fired after {after:?}");
        // In exchange it may fire up to one tick late, no more.
        let lazy = soonest(pkg, ms(20));
        let latest = ms(20) + TIMER_SLACK + ms(1);
        assert!(lazy >= ms(20) && lazy < latest, "fired after {lazy:?}");
        // A deadline armed nearer than two ticks is exact, as it always
        // was.
        let near = soonest(pkg, ms(1));
        assert!(near >= ms(1) && near < ms(2), "fired after {near:?}");
    }

    #[test]
    fn timer_slack_rule_kernel_package() {
        timer_slack_rule(&pkg());
    }

    #[test]
    fn timer_slack_rule_user_package() {
        ncs_threads::UserRuntime::default().run(|pkg| timer_slack_rule(&(Arc::new(pkg) as _)));
    }

    /// The public task entry: polled on registration, on a wake and at the
    /// deadline it returned; retiring it — here by dropping the `TaskRef` —
    /// removes the task and drops what its closure captured.
    #[test]
    fn a_closure_task_runs_on_wakes_and_deadlines_and_retires_with_its_ref() {
        let reactor = Reactor::new(pkg(), 1);
        let runs = Arc::new(AtomicU64::new(0));
        let captured = Arc::clone(&runs);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(40);
        let task = reactor.spawn_task(move |now| {
            captured.fetch_add(1, Ordering::Relaxed);
            (now < deadline).then_some(deadline)
        });
        let wait_for = |n: u64| {
            while runs.load(Ordering::Relaxed) < n {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "run {n} never came"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_for(1);
        assert!(task.armed_by(deadline) && !task.armed_by(start));
        task.wake();
        wait_for(2);
        assert_eq!(reactor.stats().timer_fires, 0);
        wait_for(3);
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert_eq!(reactor.stats().timer_fires, 1);
        assert_eq!((reactor.live_tasks(), reactor.stats().endpoints), (1, 0));
        drop(task);
        while reactor.live_tasks() > 0 || Arc::strong_count(&runs) > 1 {
            assert!(start.elapsed() < Duration::from_secs(5), "task not retired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            runs.load(Ordering::Relaxed),
            3,
            "a retired task is not polled"
        );
        reactor.shutdown();
    }

    #[test]
    fn stats_count_endpoints() {
        let reactor = Reactor::new(pkg(), 2);
        assert_eq!(reactor.stats().endpoints, 0);
        let runs = Arc::new(AtomicU64::new(0));
        let task = CountTask {
            runs,
            done_after: u64::MAX,
        };
        let _h = reactor.spawn(TaskKind::Connection, |_| Box::new(task));
        let start = Instant::now();
        while reactor.stats().task_runs < 1 && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(reactor.stats().endpoints, 1);
        assert!(reactor.stats().task_runs >= 1);
        reactor.shutdown();
    }

    /// Runs `test` on the kernel package, then as a green thread of a
    /// user-level runtime.
    fn on_both_packages(test: fn(&Arc<dyn ThreadPackage>)) {
        test(&pkg());
        ncs_threads::UserRuntime::default().run(move |green| test(&(Arc::new(green) as _)));
    }

    /// Waits up to 5 s for `cond`, sleeping on `pkg` between looks.
    fn eventually(pkg: &Arc<dyn ThreadPackage>, what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(5), "{what}");
            pkg.sleep(Duration::from_millis(1));
        }
    }

    /// A task that counts its polls, once polled: the count and the task.
    fn counted(
        reactor: &Reactor,
        pkg: &Arc<dyn ThreadPackage>,
    ) -> (Arc<AtomicU64>, Arc<TaskHandle>) {
        let runs = Arc::new(AtomicU64::new(0));
        let task = CountTask {
            runs: Arc::clone(&runs),
            done_after: u64::MAX,
        };
        let handle = reactor.spawn(TaskKind::Control, |_| Box::new(task));
        eventually(pkg, "first poll", || runs.load(Ordering::Relaxed) == 1);
        (runs, handle)
    }

    /// A [`counted`] task watching the far end of a fresh socket pair.
    struct Watched {
        near: UnixStream,
        far: UnixStream,
        runs: Arc<AtomicU64>,
        handle: Arc<TaskHandle>,
        reg: FdRegistration,
    }

    fn watched_pair(reactor: &Reactor, pkg: &Arc<dyn ThreadPackage>) -> Watched {
        let (near, far) = UnixStream::pair().unwrap();
        let (runs, handle) = counted(reactor, pkg);
        let reg = reactor.watch_fd(far.as_raw_fd(), &handle);
        Watched {
            near,
            far,
            runs,
            handle,
            reg,
        }
    }

    /// A report disarms the registration: however much arrives after it,
    /// the task is not woken again until it re-arms — and then at once
    /// for the bytes that arrived meanwhile, so no wake-up is lost.
    fn disarm_and_rearm(pkg: &Arc<dyn ThreadPackage>) {
        let reactor = Reactor::new(Arc::clone(pkg), 1);
        let w = watched_pair(&reactor, pkg);
        let runs = || w.runs.load(Ordering::Relaxed);
        (&w.near).write_all(b"x").unwrap();
        eventually(pkg, "fd wake", || runs() == 2);
        for _ in 0..100 {
            (&w.near).write_all(b"more").unwrap();
        }
        pkg.sleep(Duration::from_millis(50));
        assert_eq!(runs(), 2, "woken while disarmed");
        assert_eq!(reactor.stats().fd_events, 1);
        // Nothing was read: the bytes are still there when it re-arms.
        w.reg.rearm();
        eventually(pkg, "wake after rearm", || runs() == 3);
        assert_eq!(reactor.stats().fd_events, 2);
        reactor.shutdown();
    }

    #[test]
    fn a_disarmed_registration_wakes_once_and_again_right_after_rearm() {
        on_both_packages(disarm_and_rearm);
    }

    /// A dropped registration wakes nothing, and a later one on the same
    /// descriptor number wakes only its own task.
    fn dropped_registration(pkg: &Arc<dyn ThreadPackage>) {
        let reactor = Reactor::new(Arc::clone(pkg), 1);
        let old = watched_pair(&reactor, pkg);
        drop(old.reg);
        let (runs, handle) = counted(&reactor, pkg);
        let _new = reactor.watch_fd(old.far.as_raw_fd(), &handle);
        (&old.near).write_all(b"x").unwrap();
        eventually(pkg, "new task woken", || runs.load(Ordering::Relaxed) == 2);
        pkg.sleep(Duration::from_millis(20));
        assert_eq!(old.runs.load(Ordering::Relaxed), 1, "old task woken");
        assert_eq!(reactor.stats().fd_events, 1);
        reactor.shutdown();
    }

    #[test]
    fn a_dropped_registration_wakes_nothing_and_its_fd_number_is_reused_cleanly() {
        on_both_packages(dropped_registration);
    }

    /// Echoes every byte it reads off its socket, then re-arms.
    struct Echo {
        sock: UnixStream,
        reg: Arc<Mutex<Option<FdRegistration>>>,
    }

    impl ReactorTask for Echo {
        fn poll(&mut self, _now: Instant) -> TaskPoll {
            let mut buf = [0u8; 64];
            while let Ok(n @ 1..) = self.sock.read(&mut buf) {
                self.sock.write_all(&buf[..n]).unwrap();
            }
            if let Some(reg) = &*self.reg.lock() {
                reg.rearm();
            }
            TaskPoll::Idle
        }
    }

    /// A set's driver — the shard itself, or the user-level package's
    /// poller thread — wakes for readiness only: a request/reply round
    /// trip costs it one wake (the request's arrival), not a second one
    /// for the task's re-arm.
    fn one_wake_per_round_trip(pkg: &Arc<dyn ThreadPackage>) {
        let reactor = Reactor::new(Arc::clone(pkg), 1);
        let (near, far) = UnixStream::pair().unwrap();
        near.set_nonblocking(true).unwrap();
        far.set_nonblocking(true).unwrap();
        let fd = far.as_raw_fd();
        let reg = Arc::new(Mutex::new(None));
        let task = Echo {
            sock: far,
            reg: Arc::clone(&reg),
        };
        let handle = reactor.spawn(TaskKind::Control, |_| Box::new(task));
        *reg.lock() = Some(reactor.watch_fd(fd, &handle));
        const N: u64 = 200;
        let before = reactor.stats().poller_wakes;
        let mut reply = [0u8; 1];
        for i in 0..N {
            (&near).write_all(&[i as u8]).unwrap();
            // Yielding, not blocking: a green shard shares this thread.
            while (&near).read(&mut reply).is_err() {
                pkg.yield_now();
            }
            assert_eq!(reply[0], i as u8);
        }
        // At most one per request: the task's first poll may echo the
        // first request before the driver collects its report, which the
        // kernel then drops.
        let wakes = reactor.stats().poller_wakes - before;
        assert!(wakes <= N + 2, "{wakes} wakes for {N} round trips");
        reg.lock().take();
        reactor.shutdown();
    }

    #[test]
    fn a_round_trip_wakes_the_set_driver_once() {
        on_both_packages(one_wake_per_round_trip);
    }

    /// A descriptor registered from another thread while its shard sleeps
    /// on its inbox is reported at once; the no-op that brings the shard
    /// round polls no task.
    #[test]
    fn a_registration_from_another_thread_reaches_a_shard_asleep_on_its_inbox() {
        let pkg = pkg();
        let reactor = Reactor::new(Arc::clone(&pkg), 1);
        let (runs, handle) = counted(&reactor, &pkg);
        std::thread::sleep(Duration::from_millis(20));
        let (near, far) = UnixStream::pair().unwrap();
        let _reg = reactor.watch_fd(far.as_raw_fd(), &handle);
        let start = Instant::now();
        (&near).write_all(b"x").unwrap();
        eventually(&pkg, "fd report", || runs.load(Ordering::Relaxed) == 2);
        let took = start.elapsed();
        assert!(took < PROMPT, "reported after {took:?}");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::Relaxed), 2, "a poll for the no-op");
        reactor.shutdown();
    }

    /// Every wake of a task whose shard parks in its set either finds the
    /// shard awake or rings its bell: none waits. The rings are not
    /// readiness, and the driver counts no wake for them.
    #[test]
    fn ten_thousand_foreign_wakes_of_a_shard_parked_in_its_set_each_poll() {
        let pkg = pkg();
        let reactor = Reactor::new(Arc::clone(&pkg), 1);
        let w = watched_pair(&reactor, &pkg);
        for n in 1..=10_000 {
            let start = Instant::now();
            w.handle.wake();
            while w.runs.load(Ordering::Relaxed) <= n {
                let took = start.elapsed();
                assert!(took < PROMPT, "wake {n} polled after {took:?}");
                std::thread::yield_now();
            }
        }
        let stats = reactor.stats();
        assert_eq!((stats.fd_events, stats.poller_wakes), (0, 0), "{stats}");
        reactor.shutdown();
    }

    /// A shard whose last registration goes while it sleeps in its set
    /// still wakes on posts: there, and then back on its inbox.
    #[test]
    fn a_shard_whose_last_registration_is_dropped_still_wakes_on_posts() {
        let pkg = pkg();
        let reactor = Reactor::new(Arc::clone(&pkg), 1);
        let w = watched_pair(&reactor, &pkg);
        let woken = |n: u64| {
            std::thread::sleep(Duration::from_millis(20));
            let start = Instant::now();
            w.handle.wake();
            eventually(&pkg, "woken", || w.runs.load(Ordering::Relaxed) == n);
            let took = start.elapsed();
            assert!(took < PROMPT, "woken after {took:?}");
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(w.reg);
        woken(2);
        woken(3);
        reactor.shutdown();
    }

    /// The bell's protocol, explored: every schedule of a worker's park
    /// against one or two posts. The worker publishes `parked`, looks at
    /// the inbox, and sleeps unless it found a message; a poster pushes,
    /// reads and clears `parked`, and rings if it was set. Each step is
    /// atomic and the steps are sequentially consistent, as the fences on
    /// both sides make them.
    mod bell {
        #[derive(Clone, Copy, Debug)]
        pub(super) enum Step {
            Publish,
            Look,
        }

        #[derive(Clone, Copy, Default)]
        struct World {
            queued: u8,
            parked: bool,
            rang: bool,
            /// Steps taken by the worker, and by each poster.
            worker: usize,
            posters: [usize; 2],
            /// What each poster read of `parked`.
            saw: [bool; 2],
            /// Whether the worker found a message when it looked.
            found: bool,
        }

        /// A schedule, by step, that leaves a message queued while the
        /// worker sleeps with no bell rung, if there is one.
        pub(super) fn lost_wake(worker: [Step; 2], posts: usize) -> Option<Vec<String>> {
            let mut trace = Vec::new();
            explore(World::default(), &worker, posts, &mut trace).then_some(trace)
        }

        fn explore(w: World, worker: &[Step; 2], posts: usize, trace: &mut Vec<String>) -> bool {
            let mut moves = Vec::new();
            if let Some(&step) = worker.get(w.worker) {
                let mut next = w;
                match step {
                    Step::Publish => next.parked = true,
                    Step::Look => next.found = w.queued > 0,
                }
                next.worker += 1;
                moves.push((format!("worker {step:?}"), next));
            }
            for i in 0..posts {
                let mut next = w;
                let step = match w.posters[i] {
                    0 => {
                        next.queued += 1;
                        "push"
                    }
                    1 => {
                        (next.saw[i], next.parked) = (w.parked, false);
                        "read parked"
                    }
                    2 => {
                        next.rang |= w.saw[i];
                        "ring if parked"
                    }
                    _ => continue,
                };
                next.posters[i] += 1;
                moves.push((format!("poster {i} {step}"), next));
            }
            if moves.is_empty() {
                return !w.found && !w.rang && w.queued > 0;
            }
            for (step, next) in moves {
                trace.push(step);
                if explore(next, worker, posts, trace) {
                    return true;
                }
                trace.pop();
            }
            false
        }
    }

    #[test]
    fn no_schedule_of_the_bell_leaves_a_post_with_a_sleeping_shard() {
        use bell::{lost_wake, Step};
        for posts in 1..=2 {
            let lost = lost_wake([Step::Publish, Step::Look], posts);
            assert_eq!(lost, None, "{posts} posts");
            // Looking before publishing loses the wake of a post that
            // lands between the two.
            let lost = lost_wake([Step::Look, Step::Publish], posts);
            assert!(lost.is_some(), "{posts} posts: the mutant passed");
        }
    }

    #[test]
    fn an_interrupted_wait_reports_nothing() {
        let eintr = || std::io::Error::from_raw_os_error(4);
        assert_eq!(fdset::reports(2, eintr()), 2);
        assert_eq!(fdset::reports(-1, eintr()), 0);
    }

    /// A kernel without `epoll_pwait2` (ENOSYS) fails every wait: say so
    /// rather than spin.
    #[test]
    #[should_panic(expected = "epoll_pwait2 (Linux ≥ 5.11)")]
    fn a_wait_that_cannot_succeed_panics() {
        fdset::reports(-1, std::io::Error::from_raw_os_error(38));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let reactor = Reactor::new(pkg(), 1);
        reactor.shutdown();
        reactor.shutdown();
    }
}
