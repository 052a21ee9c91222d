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
//! * **File descriptors** — SCI sockets are multiplexed by a single
//!   `epoll(7)` thread (`FdPoller`, Linux only), with oneshot arming so a
//!   ready fd wakes its task exactly once until the task drains and
//!   re-arms — from its own thread, with one `epoll_ctl` and no wake of
//!   the poller thread;
//! * **Timers** — retransmission deadlines, flow-control pacing and
//!   starvation probes. A task holds at most one *armed* deadline
//!   ([`TaskRef::armed_by`]); it is kept when the task goes `Idle` and
//!   replaced only by an earlier one, so timers fire early, never late —
//!   the task is polled, recomputes what it really waits for and says so
//!   again — and a stream of messages that are each acknowledged long
//!   before their timeout costs one timer operation per timeout period,
//!   not one per message. A shard
//!   sleeps toward the earliest armed deadline of a live task and nothing
//!   else: superseded heap entries are dropped when they surface, never
//!   slept toward.
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
//! threads cooperatively. The fd poller is always a plain OS thread: a
//! blocking `epoll_wait` must never stall the green scheduler.
//!
//! Nothing else runs here: the loops are the node's one execution model,
//! and there is no pool for blocking work beside them. Code outside this
//! crate that needs a deadline held for it (a collective group's operation
//! timeout) registers a non-blocking closure as a task
//! ([`Reactor::spawn_task`]) under the same timer rule.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_threads::sync::Mailbox;
use ncs_threads::{SpawnOptions, ThreadPackage};
use ncs_transport::Connection as Transport;
use parking_lot::Mutex;

use crate::stats::ReactorStats;

/// Worker idle tick: the longest a shard sleeps with no timer pending.
/// Purely a robustness backstop — every state change also wakes the shard
/// explicitly.
const IDLE_TICK: Duration = Duration::from_millis(100);

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

enum ShardMsg {
    Add(u64, Box<dyn ReactorTask>, Arc<TaskHandle>, bool),
    Run(u64),
    Shutdown,
}

/// The shard's inbox plus the counters wakers touch. Shared by the worker,
/// every task handle of the shard, and the reactor front-end.
struct ShardQueue {
    inbox: Mailbox<ShardMsg>,
    counters: Arc<ReactorCounters>,
    /// Zero of the shard's timer arithmetic.
    epoch: Instant,
}

impl ShardQueue {
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
                        self.shard.inbox.send(ShardMsg::Run(self.id));
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
    /// Returns of the fd poller thread from `epoll_wait`.
    poller_wakes: AtomicU64,
    stalled_tasks: AtomicU64,
    short_parks: AtomicU64,
}

/// One worker-local task slot.
struct Slot {
    task: Box<dyn ReactorTask>,
    handle: Arc<TaskHandle>,
    /// Whether the task counts towards [`ReactorStats::endpoints`].
    endpoint: bool,
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
    poller: Mutex<Option<Arc<FdPoller>>>,
    pkg: Arc<dyn ThreadPackage>,
    shutdown: Arc<AtomicBool>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let queues: Vec<Arc<ShardQueue>> = (0..shards)
            .map(|_| {
                Arc::new(ShardQueue {
                    inbox: Mailbox::unbounded(),
                    counters: Arc::clone(&counters),
                    epoch: Instant::now(),
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
            poller: Mutex::new(None),
            pkg,
            shutdown,
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
    /// sources it finds while running needs it). `endpoint` says whether
    /// the task is a connection — the only kind
    /// [`ReactorStats::endpoints`] counts.
    pub(crate) fn spawn(
        &self,
        endpoint: bool,
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
        if endpoint {
            self.counters.endpoints.fetch_add(1, Ordering::Relaxed);
        }
        shard.inbox.send(ShardMsg::Add(
            id,
            make(&handle),
            Arc::clone(&handle),
            endpoint,
        ));
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
    /// waker, and for an fd-backed transport (SCI) through the shared
    /// `epoll(7)` thread as well.
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

    /// Has the shared `epoll(7)` thread wake `task` whenever `fd` — an SCI
    /// socket, or an SCI listener with connections to accept — turns
    /// readable while armed, until the registration is dropped.
    pub(crate) fn watch_fd(
        &self,
        fd: std::os::fd::RawFd,
        task: &Arc<TaskHandle>,
    ) -> FdRegistration {
        let mut poller = self.poller.lock();
        let poller = poller.get_or_insert_with(|| {
            FdPoller::start(Arc::clone(&self.counters), Arc::clone(&self.shutdown))
        });
        poller.register(fd, Arc::clone(task))
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
    /// Dropping the `TaskRef` is the one way to end the task: it drops the
    /// closure and everything it captured.
    pub fn spawn_task(
        &self,
        poll: impl FnMut(Instant) -> Option<Instant> + Send + 'static,
    ) -> TaskRef {
        TaskRef(self.spawn(false, |_| Box::new(FnTask(poll))))
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
            blocking_spawned: 0,
            blocking_active: 0,
        }
    }

    /// Stops the workers (and the fd poller). Idempotent. Each shard
    /// keeps servicing its remaining tasks for a bounded grace period —
    /// closed connections finish their graceful drain (send flush /
    /// final-frame delivery) instead of losing it — then drops whatever
    /// is left without a final poll; connections should be closed first
    /// (node shutdown does).
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shards {
            shard.inbox.send(ShardMsg::Shutdown);
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join_timeout(Duration::from_secs(2));
        }
        if let Some(poller) = self.poller.lock().take() {
            poller.stop();
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

/// Grace period a shutting-down shard grants its remaining tasks: long
/// enough for every closing connection's bounded drain, well under the
/// reactor's worker join timeout.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Min-heap of (latest firing time in shard nanoseconds, task id). An
/// entry is live while it equals its task's [`TaskHandle::armed`]; the
/// others (task gone, deadline superseded by an earlier one) are dropped
/// when they reach the head.
type TimerHeap = BinaryHeap<std::cmp::Reverse<(u64, u64)>>;

/// One shard's event loop: timers, then the run queue.
fn worker_loop(shard: &Arc<ShardQueue>, counters: &Arc<ReactorCounters>) {
    let mut tasks: HashMap<u64, Slot> = HashMap::new();
    let mut timers = TimerHeap::new();
    // Armed by `ShardMsg::Shutdown`: the shard keeps servicing tasks until
    // they all finish (closed connections complete their graceful drain)
    // or the grace expires, rather than dropping mid-drain tasks.
    let mut draining_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if let Some(deadline) = draining_until {
            if tasks.is_empty() || now >= deadline {
                return;
            }
        }
        // Fire due timers by waking their tasks through the normal path,
        // and clear dead entries off the head: what is left there is the
        // earliest deadline a live task waits for.
        let now_ns = shard.nanos(now);
        let mut wait = IDLE_TICK;
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
        if let Some(deadline) = draining_until {
            wait = wait.min(deadline.saturating_duration_since(now));
        }
        counters.polls.fetch_add(1, Ordering::Relaxed);
        if wait < TIMER_SLACK {
            counters.short_parks.fetch_add(1, Ordering::Relaxed);
        }
        let msg = match shard.inbox.recv_timeout(wait) {
            Ok(m) => m,
            Err(_) => continue,
        };
        match msg {
            ShardMsg::Shutdown => {
                draining_until.get_or_insert(now + SHUTDOWN_GRACE);
            }
            ShardMsg::Add(id, task, handle, endpoint) => {
                tasks.insert(
                    id,
                    Slot {
                        task,
                        handle,
                        endpoint,
                        again_streak: 0,
                        slack: 0,
                    },
                );
                run_task(shard, counters, &mut tasks, &mut timers, id);
            }
            ShardMsg::Run(id) => run_task(shard, counters, &mut tasks, &mut timers, id),
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
            if slot.endpoint {
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
            shard.inbox.send(ShardMsg::Run(id));
        }
        TaskPoll::Idle | TaskPoll::Timer(_) => {
            slot.again_streak = 0;
            // An armed deadline stays armed — through `Idle` too — until
            // it fires or an earlier one replaces it.
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
                // A wake raced the poll (DIRTY): reschedule so nothing is
                // lost.
                slot.handle.state.store(ST_SCHEDULED, Ordering::Release);
                shard.inbox.send(ShardMsg::Run(id));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fd poller (SCI sockets)
// ---------------------------------------------------------------------------

mod fdpoll {
    #[cfg(not(target_os = "linux"))]
    compile_error!("the reactor's fd poller is built on epoll(7), which only Linux has");

    use super::*;
    use std::io::Write;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::unix::net::UnixStream;

    /// `struct epoll_event`, which the kernel packs on x86_64.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EPOLL_CLOEXEC: i32 = 0o2_000_000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// The stop signal's event token; registrations count up from 1.
    const STOP: u64 = 0;

    /// Whether the task of a registration is owed a report when its
    /// descriptor turns readable, and which task that is.
    struct FdEntry {
        handle: Arc<TaskHandle>,
        armed: AtomicBool,
    }

    /// One `epoll(7)` thread multiplexing every SCI socket of the reactor.
    ///
    /// Registrations are oneshot (`EPOLLONESHOT`): the kernel disarms a
    /// descriptor as it reports it, so a readable socket cannot busy-spin
    /// the poller while its task catches up. The task re-arms through its
    /// [`FdRegistration`] once it has drained, on its own thread; the
    /// kernel then looks again, so bytes that arrived while disarmed are
    /// reported at once — no lost wakeups, and no wake of the poller
    /// thread. That thread wakes only for readiness and for `stop`.
    pub(crate) struct FdPoller {
        epoll: OwnedFd,
        /// Live registrations by token. A token is never reused, so a
        /// report for a registration that is gone wakes nobody, even when
        /// its descriptor number has been handed out again.
        entries: Mutex<HashMap<u64, Arc<FdEntry>>>,
        next_token: AtomicU64,
        /// Written once, by `stop`.
        stop_tx: UnixStream,
        shutdown: Arc<AtomicBool>,
    }

    impl FdPoller {
        pub(crate) fn start(
            counters: Arc<ReactorCounters>,
            shutdown: Arc<AtomicBool>,
        ) -> Arc<Self> {
            // SAFETY: no pointer is passed; the result is checked below.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            assert!(
                epfd >= 0,
                "epoll_create1: {}",
                std::io::Error::last_os_error()
            );
            // SAFETY: `epfd` is a fresh descriptor that nothing else owns.
            let epoll = unsafe { OwnedFd::from_raw_fd(epfd) };
            let (stop_tx, stop_rx) = UnixStream::pair().expect("fd poller stop signal");
            let mut event = EpollEvent {
                events: EPOLLIN,
                data: STOP,
            };
            // SAFETY: `event` is one valid `epoll_event` for the call.
            let added = unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, stop_rx.as_raw_fd(), &mut event) };
            assert!(added == 0, "watch the fd poller's stop signal");
            let poller = Arc::new(FdPoller {
                epoll,
                entries: Mutex::new(HashMap::new()),
                next_token: AtomicU64::new(STOP + 1),
                stop_tx,
                shutdown,
            });
            let p = Arc::clone(&poller);
            // Always a plain OS thread: a blocking epoll_wait must never
            // park the user-level package's scheduler.
            std::thread::Builder::new()
                .name("ncs-fd-poller".to_owned())
                .spawn(move || p.run(&stop_rx, &counters))
                .expect("spawn fd poller");
            poller
        }

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
            self.arm(EPOLL_CTL_ADD, fd, token, &entry);
            FdRegistration {
                fd,
                token,
                entry,
                poller: Arc::clone(self),
            }
        }

        /// Arms `fd` for one report under `token`. A descriptor the kernel
        /// refuses to watch is reported ready at once instead, as
        /// `poll(2)` reports one it cannot poll: the task's next call on
        /// it meets the fault.
        fn arm(&self, op: i32, fd: RawFd, token: u64, entry: &FdEntry) {
            let mut event = EpollEvent {
                events: EPOLLIN | EPOLLONESHOT,
                data: token,
            };
            // SAFETY: `event` is one valid `epoll_event` for the call.
            if unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) } != 0 {
                entry.armed.store(false, Ordering::Release);
                entry.handle.wake();
            }
        }

        pub(crate) fn stop(&self) {
            let _ = (&self.stop_tx).write(&[1]);
        }

        fn run(&self, _stop_rx: &UnixStream, counters: &ReactorCounters) {
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            loop {
                // SAFETY: `events` is writable for its whole length, which
                // is what the call is told.
                let n = unsafe {
                    epoll_wait(
                        self.epoll.as_raw_fd(),
                        events.as_mut_ptr(),
                        events.len() as i32,
                        -1,
                    )
                };
                if self.shutdown.load(Ordering::Acquire) {
                    return;
                }
                counters.poller_wakes.fetch_add(1, Ordering::Relaxed);
                // Negative: interrupted, so wait again.
                let Ok(n) = usize::try_from(n) else {
                    continue;
                };
                // Tasks are woken under the lock a registration's drop
                // takes: once that drop returns, no report still in hand
                // here wakes its task.
                let entries = self.entries.lock();
                for event in &events[..n] {
                    let token = event.data;
                    if let Some(e) = entries.get(&token) {
                        e.armed.store(false, Ordering::Release);
                        counters.fd_events.fetch_add(1, Ordering::Relaxed);
                        e.handle.wake();
                    }
                }
            }
        }
    }

    /// A live fd registration. Dropping it deregisters the descriptor.
    pub(crate) struct FdRegistration {
        fd: RawFd,
        token: u64,
        entry: Arc<FdEntry>,
        poller: Arc<FdPoller>,
    }

    impl FdRegistration {
        /// Re-enables readiness reports after the owning task has drained
        /// the descriptor: one `epoll_ctl` if a report disarmed it, none
        /// if it is still armed.
        pub(crate) fn rearm(&self) {
            if !self.entry.armed.swap(true, Ordering::AcqRel) {
                self.poller
                    .arm(EPOLL_CTL_MOD, self.fd, self.token, &self.entry);
            }
        }
    }

    impl Drop for FdRegistration {
        fn drop(&mut self) {
            self.poller.entries.lock().remove(&self.token);
            // SAFETY: a null event is allowed for `EPOLL_CTL_DEL`. The
            // descriptor is still open: its owner drops it after this.
            unsafe {
                epoll_ctl(
                    self.poller.epoll.as_raw_fd(),
                    EPOLL_CTL_DEL,
                    self.fd,
                    std::ptr::null_mut(),
                )
            };
        }
    }
}

pub(crate) use fdpoll::{FdPoller, FdRegistration};

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_threads::KernelPackage;

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
        let handle = reactor.spawn(true, |_| Box::new(task));
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
        let _h = reactor.spawn(true, |_| Box::new(task));
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
        let handle = reactor.spawn(true, |_| Box::new(task));
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
        // And the shard sleeps toward that deadline (and its idle tick),
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
        let handle = reactor.spawn(false, |_| Box::new(task));
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
        let _h = reactor.spawn(true, |_| Box::new(task));
        let start = Instant::now();
        while reactor.stats().task_runs < 1 && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(reactor.stats().endpoints, 1);
        assert!(reactor.stats().task_runs >= 1);
        reactor.shutdown();
    }

    /// Waits up to 5 s for `cond`.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(5), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A task that counts its polls, watching the far end of a fresh
    /// socket pair: returns the near end, the far end, the count and the
    /// registration.
    fn watched_pair(
        reactor: &Reactor,
    ) -> (
        std::os::unix::net::UnixStream,
        std::os::unix::net::UnixStream,
        Arc<AtomicU64>,
        FdRegistration,
    ) {
        use std::os::fd::AsRawFd;
        let (near, far) = std::os::unix::net::UnixStream::pair().unwrap();
        let runs = Arc::new(AtomicU64::new(0));
        let task = CountTask {
            runs: Arc::clone(&runs),
            done_after: u64::MAX,
        };
        let handle = reactor.spawn(false, |_| Box::new(task));
        let reg = reactor.watch_fd(far.as_raw_fd(), &handle);
        eventually("first poll", || runs.load(Ordering::Relaxed) == 1);
        (near, far, runs, reg)
    }

    /// A report disarms the registration: however much arrives after it,
    /// the task is not woken again until it re-arms — and then at once
    /// for the bytes that arrived meanwhile, so no wake-up is lost.
    #[test]
    fn a_disarmed_registration_wakes_once_and_again_right_after_rearm() {
        use std::io::Write;
        let reactor = Reactor::new(pkg(), 1);
        let (mut near, _far, runs, reg) = watched_pair(&reactor);
        near.write_all(b"x").unwrap();
        eventually("fd wake", || runs.load(Ordering::Relaxed) == 2);
        for _ in 0..100 {
            near.write_all(b"more").unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(runs.load(Ordering::Relaxed), 2, "woken while disarmed");
        assert_eq!(reactor.stats().fd_events, 1);
        // Nothing was read: the bytes are still there when it re-arms.
        reg.rearm();
        eventually("wake after rearm", || runs.load(Ordering::Relaxed) == 3);
        assert_eq!(reactor.stats().fd_events, 2);
        reactor.shutdown();
    }

    /// A dropped registration wakes nothing, and a later one on the same
    /// descriptor number wakes only its own task.
    #[test]
    fn a_dropped_registration_wakes_nothing_and_its_fd_number_is_reused_cleanly() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let reactor = Reactor::new(pkg(), 1);
        let (mut near, far, old_runs, old) = watched_pair(&reactor);
        drop(old);
        let runs = Arc::new(AtomicU64::new(0));
        let task = CountTask {
            runs: Arc::clone(&runs),
            done_after: u64::MAX,
        };
        let handle = reactor.spawn(false, |_| Box::new(task));
        eventually("first poll", || runs.load(Ordering::Relaxed) == 1);
        let _new = reactor.watch_fd(far.as_raw_fd(), &handle);
        near.write_all(b"x").unwrap();
        eventually("new task woken", || runs.load(Ordering::Relaxed) == 2);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(old_runs.load(Ordering::Relaxed), 1, "old task woken");
        assert_eq!(reactor.stats().fd_events, 1);
        reactor.shutdown();
    }

    /// Echoes every byte it reads off its socket, then re-arms.
    struct Echo {
        sock: std::os::unix::net::UnixStream,
        reg: Arc<Mutex<Option<FdRegistration>>>,
    }

    impl ReactorTask for Echo {
        fn poll(&mut self, _now: Instant) -> TaskPoll {
            use std::io::{Read, Write};
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

    /// The poller thread wakes for readiness only: a request/reply round
    /// trip costs it one wake (the request's arrival), not a second one
    /// for the task's re-arm.
    #[test]
    fn a_round_trip_wakes_the_poller_thread_once() {
        use std::io::{Read, Write};
        use std::os::fd::AsRawFd;
        let reactor = Reactor::new(pkg(), 1);
        let (mut near, far) = std::os::unix::net::UnixStream::pair().unwrap();
        far.set_nonblocking(true).unwrap();
        let fd = far.as_raw_fd();
        let reg = Arc::new(Mutex::new(None));
        let task = Echo {
            sock: far,
            reg: Arc::clone(&reg),
        };
        let handle = reactor.spawn(false, |_| Box::new(task));
        *reg.lock() = Some(reactor.watch_fd(fd, &handle));
        const N: u64 = 200;
        let before = reactor.stats().poller_wakes;
        let mut reply = [0u8; 1];
        for i in 0..N {
            near.write_all(&[i as u8]).unwrap();
            near.read_exact(&mut reply).unwrap();
            assert_eq!(reply[0], i as u8);
        }
        // At most one per request: the task's first poll may echo the
        // first request before the poller thread collects its report,
        // which the kernel then drops.
        let wakes = reactor.stats().poller_wakes - before;
        assert!(wakes <= N + 2, "{wakes} wakes for {N} round trips");
        reg.lock().take();
        reactor.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let reactor = Reactor::new(pkg(), 1);
        reactor.shutdown();
        reactor.shutdown();
    }
}
