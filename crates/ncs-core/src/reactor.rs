//! The readiness reactor: O(cores) event loops driving every connection's
//! protocol machinery as resumable tasks.
//!
//! The paper's Figure-4 architecture gives each connection dedicated
//! Send/Receive/FC/EC threads — faithful at 8 ranks, fatal at thousands of
//! connections. The reactor keeps the *strategy objects* of those threads
//! (flow control, error control) exactly as they are, but runs them as
//! non-blocking state machines multiplexed onto a small fixed pool of
//! worker loops (one `ReactorTask` per connection; see
//! `connection::ConnTask`). Figure 1's Master Thread runs the same way, as
//! one accept task per node; its Control Send/Receive threads have no task
//! of their own, because feedback rides each connection's data channel.
//!
//! Three readiness sources feed the loops:
//!
//! * **Wakers** — in-process transports (HPI/PIPE/ACI mailboxes) invoke a
//!   registered callback on frame arrival ([`ncs_transport::Readiness::Waker`]);
//! * **File descriptors** — SCI sockets and listeners are watched through
//!   an `epoll(7)` set (`FdSet`, Linux ≥ 5.11 for `epoll_pwait2`), with
//!   oneshot arming under never-reused tokens, so a ready fd wakes its
//!   task exactly once until the task drains and re-arms — from its own
//!   thread, with one `epoll_ctl`. A task that owes a write the socket
//!   refused re-arms for output as well (`EPOLLIN | EPOLLOUT`), so the
//!   peer's draining is a report like any other: nothing retries a write
//!   on a timer. Each shard owns a set holding its own tasks'
//!   descriptors, and a shard that watches one parks on it instead of on
//!   its inbox: a report reaches the task with no hand-off between
//!   threads. A kernel-level shard parks in `epoll_pwait2`; a green shard
//!   parks in its scheduler through `ncs_threads::sync::wait_fd` on the
//!   set's own descriptor, which polls readable while a report waits, and
//!   then collects the reports without waiting. Its inbox bell is an
//!   edge-triggered `eventfd` in the set, never read, written only when
//!   the shard's `parked` flag says it sleeps there. A shard that watches
//!   nothing parks on its inbox (measured: parking every shard in epoll
//!   made the in-process HPI round trip 15–19 % slower, in every
//!   alternating pair); each registration posts the shard a no-op so it
//!   comes round to the set;
//! * **Timers** — retransmission deadlines, flow-control pacing,
//!   starvation probes and the closing drain's linger. A task holds at most one *armed* deadline
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
//!   A deadline armed nearer than that (rate pacing) is exact, as before.
//!
//! **Claims.** A task is run by its shard, or by a thread that waits on
//! its work: a thread blocked on a receive of a connection claims the
//! connection's task while it is idle
//! (`TaskHandle::claim`) and runs it
//! itself, so a frame for that thread crosses no other one (§4.2's thread
//! bypass). A wake-handle's states say who runs the task: idle,
//! scheduled or running on the shard (dirty when woken meanwhile), or
//! claimed — the claimant runs it, or sleeps on its bell (parked), or
//! was woken since it last ran it (woken). While the task is claimed
//! every wake reaches the claimant, whatever sent it: the transport's
//! waker, a submitter, a close, a deadline the
//! shard fires. None posts to the shard: the task never has two runners.
//! A claimant of a descriptor's task disarms the descriptor's
//! registration and polls the socket itself, beside an `eventfd` that a
//! wake rings; one of a waker transport's task sleeps on a semaphore the
//! wake releases. When it lets go it re-arms the registration, and hands
//! a task woken meanwhile straight back to the shard — scheduled, never
//! through idle, so nothing is lost and nobody else can claim it between.
//! The tests' `claim` explorer checks every schedule of that protocol.
//!
//! Workers are spawned on the node's [`ThreadPackage`], so the reactor
//! works under both the kernel-level and the user-level (green) package —
//! blocking waits go through `ncs_threads::sync`, which parks green
//! threads cooperatively, waits on descriptors included: a reactor starts
//! no thread beside its shards.
//!
//! Nothing else runs here: the loops are the node's one execution model,
//! and there is no pool for blocking work beside them. Code outside this
//! crate that needs a deadline held for it (a collective group's operation
//! timeout) registers a non-blocking closure as a task
//! ([`Reactor::spawn_task`]) under the same timer rule.
//!
//! **Shutdown** ([`Reactor::shutdown`]) is the last step of a node's
//! ordered retirement (`NcsNode::shutdown`): by then the node has closed
//! its connections and retired its accept task. Each shard
//! drops its closure tasks at once — they hold deadlines for their owners,
//! and nobody waits for those past a shutdown — and runs the rest until
//! they finish, which ends the shard. The only wait left is a closing
//! connection's drain toward a peer that takes nothing, bounded by its
//! `CLOSE_LINGER`; a task still there past that bound is dropped and
//! counted ([`ReactorStats::tasks_left_at_shutdown`]).

use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ncs_threads::sync::{wait_fds, Mailbox, Semaphore, POLLIN};
use ncs_threads::{PackageKind, SpawnOptions, ThreadPackage};
use ncs_transport::Connection as Transport;
use parking_lot::Mutex;

use crate::connection::IO_BATCH;
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
/// Send/Receive/FC/EC machinery, or a node's accepting).
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
// Claimed: a thread that waits on the task's work took it while it was
// idle and runs it itself ([`TaskHandle::claim`]). Every wake goes to that
// thread — `WOKEN` makes it run the task again before it sleeps, and rings
// its bell if it sleeps (`PARKED`) — and none to the shard, until the
// thread lets go: then a task woken meanwhile goes to the shard.
const ST_CLAIMED: u8 = 5;
const ST_PARKED: u8 = 6;
const ST_WOKEN: u8 = 7;

/// What a task is: what [`ReactorStats`] counts it as, and what a
/// shutdown does with it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// A connection's pipeline ([`ReactorStats::endpoints`]).
    Connection,
    /// A node's accept task.
    Accept,
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
    /// The shard's descriptors, made with its first registration.
    fds: OnceLock<Arc<FdSet>>,
    /// Whether the worker is a green thread: it parks in its set through
    /// its scheduler.
    green: bool,
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
    /// What a thread that claimed the task sleeps on: made at the first
    /// claim that sleeps.
    bell: OnceLock<Bell>,
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

    /// Wakes the task whenever `fd` — an SCI socket, or an SCI listener
    /// with connections to accept — turns readable (or, armed for it,
    /// writable) while armed, until the registration is dropped. The
    /// descriptor joins the set of the shard that runs the task, and that
    /// shard reports it.
    pub(crate) fn watch_fd(self: &Arc<Self>, fd: RawFd) -> FdRegistration {
        let reg = self
            .shard
            .fds
            .get_or_init(FdSet::new)
            .register(fd, Arc::clone(self));
        // A shard asleep on its inbox comes round to park in its set.
        self.shard.post(ShardMsg::Repark);
        reg
    }

    pub(crate) fn wake(&self) {
        loop {
            let from = self.state.load(Ordering::Acquire);
            let to = match from {
                ST_IDLE => ST_SCHEDULED,
                ST_RUNNING => ST_DIRTY,
                ST_CLAIMED | ST_PARKED => ST_WOKEN,
                // Already scheduled, already dirty or woken, or finished:
                // coalesce.
                _ => return,
            };
            if self.shift(from, to) {
                self.shard.counters.wakeups.fetch_add(1, Ordering::Relaxed);
                match from {
                    ST_IDLE => self.shard.post(ShardMsg::Run(self.id)),
                    ST_PARKED => self.bell.get().expect("a parked claimant's bell").ring(),
                    _ => {}
                }
                return;
            }
        }
    }

    /// Moves the task from state `from` to `to`; says whether it was in
    /// `from`.
    fn shift(&self, from: u8, to: u8) -> bool {
        let swapped = (self.state).compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire);
        swapped.is_ok()
    }

    /// Takes the idle task for the calling thread, which then runs it
    /// itself while it waits for the task's work: until the [`Claim`]
    /// goes, that thread is the task's only runner and every wake reaches
    /// it. `None` while the shard or another thread runs the task, or
    /// will.
    pub(crate) fn claim(self: &Arc<Self>) -> Option<Claim> {
        // Lazily: a claim that was never taken must not let go.
        self.shift(ST_IDLE, ST_CLAIMED).then(|| Claim {
            handle: Arc::clone(self),
            hand_back: true,
        })
    }
}

/// A thread's hold on a task it runs itself ([`TaskHandle::claim`]).
/// Dropping it lets go: the task goes back to its shard, to be run there
/// at once, if it was woken since the thread last ran it (or if the
/// thread unwinds); it goes idle otherwise.
pub(crate) struct Claim {
    handle: Arc<TaskHandle>,
    hand_back: bool,
}

impl Claim {
    /// Sleeps where the shard would: until the task is woken, `fd`
    /// reports the events given with it, or `timeout` passes — not at all
    /// if the task was woken since the last call. A claimant of a
    /// descriptor's task passes the descriptor, every time; the wake
    /// rings an `eventfd` polled beside it. The claimant runs the task
    /// after each, which counts as a poll, as the shard's runs do.
    pub(crate) fn park(&self, fd: Option<(RawFd, i16)>, timeout: Duration) {
        let handle = &self.handle;
        let counters = &handle.shard.counters;
        counters.polls.fetch_add(1, Ordering::Relaxed);
        counters.task_runs.fetch_add(1, Ordering::Relaxed);
        let bell = handle.bell.get_or_init(|| match fd {
            Some(_) => Bell::Fd(fdset::event_fd()),
            None => Bell::Permit(Semaphore::new(0)),
        });
        let parked = !timeout.is_zero() && handle.shift(ST_CLAIMED, ST_PARKED);
        let rung = parked && bell.wait(fd, timeout);
        // Woken while parked, the task owes this claim one ring — it may
        // be a few instructions behind the transition — and it is taken
        // now, so the bell holds none for a later sleep.
        if handle.state.swap(ST_CLAIMED, Ordering::AcqRel) == ST_WOKEN && parked && !rung {
            bell.take();
        }
    }

    /// Lets go of the task ([`Claim`]), whose last run said `poll`: to the
    /// shard at once also when that leaves work nothing else brings it
    /// back for — more to do, a retirement to finish, a deadline the
    /// shard does not hold.
    pub(crate) fn release(mut self, poll: &TaskPoll) {
        self.hand_back = match *poll {
            TaskPoll::Idle => false,
            TaskPoll::Timer(at) => !self.handle.armed_by(at),
            TaskPoll::Again | TaskPoll::Done => true,
        };
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        let handle = &self.handle;
        // Handed back, or woken while claimed: scheduled straight from the
        // claim, never through `IDLE` (where a wake or a claim could come
        // between), and posted once, as a wake would be.
        if self.hand_back || !handle.shift(ST_CLAIMED, ST_IDLE) {
            handle.state.store(ST_SCHEDULED, Ordering::Release);
            handle.shard.post(ShardMsg::Run(handle.id));
        }
    }
}

/// What a thread that claimed a task sleeps on, and a wake rings.
enum Bell {
    /// A waker transport's task: a semaphore.
    Permit(Semaphore),
    /// A descriptor's task: an `eventfd`, polled beside the descriptor.
    Fd(std::fs::File),
}

impl Bell {
    fn ring(&self) {
        match self {
            Bell::Permit(sem) => sem.release(),
            Bell::Fd(bell) => _ = (&*bell).write(&1u64.to_ne_bytes()),
        }
    }

    /// Sleeps until rung, `fd` reports, or `timeout` passes; returns
    /// whether it took a ring on the way.
    fn wait(&self, fd: Option<(RawFd, i16)>, timeout: Duration) -> bool {
        match self {
            Bell::Permit(sem) => sem.acquire_timeout(timeout),
            Bell::Fd(bell) => {
                let fds = [
                    fd.expect("a descriptor's claimant"),
                    (bell.as_raw_fd(), POLLIN),
                ];
                // A failed poll reports: the next run meets the fault.
                let _ = wait_fds(&fds, timeout);
                false
            }
        }
    }

    /// Takes the one ring owed, waiting for it if it has not come yet.
    fn take(&self) {
        match self {
            Bell::Permit(sem) => sem.acquire(),
            Bell::Fd(bell) => {
                while (&*bell).read(&mut [0; 8]).is_err() {
                    let _ = wait_fds(&[(bell.as_raw_fd(), POLLIN)], Duration::MAX);
                }
            }
        }
    }
}

/// Internal counters behind [`ReactorStats`].
#[derive(Debug, Default)]
pub(crate) struct ReactorCounters {
    /// Live connection tasks ([`ReactorStats::endpoints`]).
    endpoints: AtomicU64,
    /// Live tasks of every kind (connections plus accept tasks).
    tasks: AtomicU64,
    polls: AtomicU64,
    wakeups: AtomicU64,
    task_runs: AtomicU64,
    timer_fires: AtomicU64,
    /// Entries in the shards' timer heaps, superseded ones included.
    timer_entries: AtomicU64,
    fd_events: AtomicU64,
    /// Shard waits in their [`FdSet`] that returned readiness reports.
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
        let green = pkg.kind() == PackageKind::UserLevel;
        let queues: Vec<Arc<ShardQueue>> = (0..shards)
            .map(|_| {
                Arc::new(ShardQueue {
                    inbox: Mailbox::unbounded(),
                    counters: Arc::clone(&counters),
                    epoch: Instant::now(),
                    fds: OnceLock::new(),
                    green,
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
            bell: OnceLock::new(),
        });
        self.counters.tasks.fetch_add(1, Ordering::Relaxed);
        if kind == TaskKind::Connection {
            self.counters.endpoints.fetch_add(1, Ordering::Relaxed);
        }
        shard.post(ShardMsg::Add(id, make(&handle), Arc::clone(&handle), kind));
        handle
    }

    /// Live tasks of every kind — connections and accept tasks.
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
    /// the transport may have become readable, or writable after it
    /// refused a write — through the transport's waker, and for an
    /// fd-backed transport (SCI) through an `epoll(7)` set as well.
    pub(crate) fn watch(&self, transport: &Arc<dyn Transport>, task: &Arc<TaskHandle>) -> Watch {
        let t = Arc::clone(task);
        transport.register_waker(Some(Arc::new(move || t.wake())));
        let fd = match transport.readiness() {
            ncs_transport::Readiness::Fd(fd) => Some(task.watch_fd(fd)),
            _ => None,
        };
        Watch {
            fd,
            transport: Arc::clone(transport),
        }
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

    /// Stops the workers, and returns once they have exited. Idempotent.
    /// Each shard drops its closure tasks ([`Reactor::spawn_task`]) at
    /// once and runs its connection and accept tasks until they finish:
    /// closed connections complete their graceful drain (send flush,
    /// final-frame delivery), which `CLOSE_LINGER` bounds. A task still there when that bound has
    /// passed is dropped unpolled and counted in
    /// [`ReactorStats::tasks_left_at_shutdown`]; close connections and
    /// retire accept tasks first (node shutdown does), or they are the
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

    /// Wakes the task whenever `fd` turns readable — or writable, while
    /// re-armed for output — until the registration is dropped: the
    /// watch the node's own accept and connection tasks keep on their
    /// sockets. Reports are oneshot: the task re-arms through
    /// [`FdRegistration::rearm`] once it has drained the descriptor. Drop
    /// the registration before the descriptor closes.
    pub fn watch_fd(&self, fd: RawFd) -> FdRegistration {
        self.0.watch_fd(fd)
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
    /// so anything that arrived while disarmed is reported at once) — for
    /// output too while the task owes a write the transport refused.
    pub(crate) fn rearm(&self, owes_write: bool) {
        if let Some(fd) = &self.fd {
            fd.rearm(owes_write);
        }
    }

    /// Stops fd reports until the next [`Watch::rearm`], and returns the
    /// descriptor: the thread that claimed the task waits on it itself.
    pub(crate) fn disarm(&self) -> Option<RawFd> {
        self.fd.as_ref().map(|fd| fd.disarm())
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
/// task that comes after it. The connection and accept tasks — closed or
/// retired by their node before it stopped the reactor — run until they
/// finish, and the shard exits with the last of them; or, at the latest,
/// when a closing connection's drain must have ended: its `CLOSE_LINGER`,
/// plus the lateness the timer rule allows that deadline. What is left
/// then is dropped unpolled, and counted.
fn worker_loop(shard: &Arc<ShardQueue>, counters: &Arc<ReactorCounters>) {
    let mut tasks: HashMap<u64, Slot> = HashMap::new();
    let mut timers = TimerHeap::new();
    let mut shutdown_bound: Option<Instant> = None;
    let mut taken = 0;
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
        match next_message(shard, wait, &mut taken) {
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
/// on the inbox otherwise. `taken` counts the messages taken since the
/// set was last looked at: a busy inbox — a task that returns `Again` or
/// wakes itself is posted straight back — has the set's ready reports
/// collected, without waiting, once per [`IO_BATCH`] of them, or it would
/// keep every descriptor on the shard unreported.
fn next_message(shard: &ShardQueue, wait: Duration, taken: &mut usize) -> Option<ShardMsg> {
    let Some(set) = shard
        .fds
        .get()
        .filter(|set| set.watched.load(Ordering::Acquire) > 0)
    else {
        return shard.inbox.recv_timeout(wait).ok();
    };
    if let Some(msg) = shard.inbox.try_recv() {
        *taken += 1;
        if *taken >= IO_BATCH {
            *taken = 0;
            set.wait(Duration::ZERO, shard.green, &shard.counters, || {});
        }
        return Some(msg);
    }
    *taken = 0;
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
            set.wait(wait, shard.green, &shard.counters, unpark);
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
            if !slot.handle.shift(ST_RUNNING, ST_IDLE) {
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
    use ncs_threads::sync::{wait_fd, POLLIN};
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
    const EPOLLOUT: u32 = 0x004;
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

    /// What the kernel reports a registration's descriptor for — nothing
    /// (0) once a report disarmed it — and which task that wakes.
    struct FdEntry {
        handle: Arc<TaskHandle>,
        armed: AtomicU32,
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
    /// parked shard.
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

    /// A fresh non-blocking `eventfd`, at zero.
    pub(super) fn event_fd() -> File {
        // SAFETY: no pointer is passed; the result is checked.
        File::from(owned(
            unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) },
            "eventfd",
        ))
    }

    impl FdSet {
        pub(crate) fn new() -> Arc<Self> {
            // SAFETY: no pointer is passed; the results are checked.
            let epoll = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) }, "epoll_create1");
            let set = FdSet {
                epoll,
                bell: event_fd(),
                entries: Mutex::new(HashMap::new()),
                next_token: AtomicU64::new(BELL + 1),
                watched: AtomicUsize::new(0),
            };
            let added = set.ctl(EPOLL_CTL_ADD, set.bell.as_raw_fd(), EPOLLIN | EPOLLET, BELL);
            assert!(added, "watch the fd set's bell");
            Arc::new(set)
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
                armed: AtomicU32::new(EPOLLIN),
            });
            self.entries.lock().insert(token, Arc::clone(&entry));
            self.watched.fetch_add(1, Ordering::AcqRel);
            self.arm(EPOLL_CTL_ADD, fd, token, &entry, EPOLLIN);
            FdRegistration {
                fd,
                token,
                entry,
                set: Arc::clone(self),
            }
        }

        /// Arms `fd` for one report of `events` under `token`. A
        /// descriptor the kernel refuses to watch is reported ready at once
        /// instead, as `poll(2)` reports one it cannot poll: the task's
        /// next call on it meets the fault.
        fn arm(&self, op: i32, fd: RawFd, token: u64, entry: &FdEntry, events: u32) {
            if !self.ctl(op, fd, events | EPOLLONESHOT, token) {
                entry.armed.store(0, Ordering::Release);
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

        /// Waits up to `timeout` (forever with `Duration::MAX`), runs
        /// `woke`, and wakes the task of every descriptor reported. A
        /// `green` caller parks in its scheduler until the set's own
        /// descriptor polls readable — a report waits — and then collects
        /// the reports without waiting.
        pub(crate) fn wait(
            &self,
            mut timeout: Duration,
            green: bool,
            counters: &ReactorCounters,
            woke: impl FnOnce(),
        ) {
            if green {
                // Parked by the scheduler, whose poll does not fail.
                let _ = wait_fd(self.epoll.as_raw_fd(), POLLIN, timeout);
                timeout = Duration::ZERO;
            }
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            let timeout = (timeout < Duration::MAX).then(|| {
                [
                    timeout.as_secs() as c_long,
                    timeout.subsec_nanos() as c_long,
                ]
            });
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
                        e.armed.store(0, Ordering::Release);
                        counters.fd_events.fetch_add(1, Ordering::Relaxed);
                        e.handle.wake();
                    }
                }
            }
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

    /// A live fd registration ([`TaskRef::watch_fd`]). Dropping it
    /// deregisters the descriptor.
    pub struct FdRegistration {
        fd: RawFd,
        token: u64,
        entry: Arc<FdEntry>,
        set: Arc<FdSet>,
    }

    impl FdRegistration {
        /// Re-enables readiness reports after the owning task has drained
        /// the descriptor — for output as well while it owes a write the
        /// descriptor refused: one `epoll_ctl` if a report disarmed it or
        /// the events change, none if it is still armed for these.
        pub fn rearm(&self, owes_write: bool) {
            let events = EPOLLIN | if owes_write { EPOLLOUT } else { 0 };
            if self.entry.armed.swap(events, Ordering::AcqRel) != events {
                let (fd, token) = (self.fd, self.token);
                self.set.arm(EPOLL_CTL_MOD, fd, token, &self.entry, events);
            }
        }

        /// Stops readiness reports until the next [`FdRegistration::rearm`]
        /// — one `epoll_ctl` if the descriptor is armed, none if a report
        /// disarmed it — and returns the descriptor.
        pub fn disarm(&self) -> RawFd {
            if self.entry.armed.swap(0, Ordering::AcqRel) != 0 {
                self.set
                    .ctl(EPOLL_CTL_MOD, self.fd, EPOLLONESHOT, self.token);
            }
            self.fd
        }
    }

    impl std::fmt::Debug for FdRegistration {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("FdRegistration").finish_non_exhaustive()
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

pub use fdset::FdRegistration;
pub(crate) use fdset::FdSet;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ncs_threads::KernelPackage;

    /// Whether a thread holds `task` ([`TaskHandle::claim`]).
    pub(crate) fn claimed(task: &TaskHandle) -> bool {
        (ST_CLAIMED..=ST_WOKEN).contains(&task.state.load(Ordering::Acquire))
    }
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
        let handle = reactor.spawn(TaskKind::Accept, |_| Box::new(task));
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
        let handle = reactor.spawn(TaskKind::Accept, |_| Box::new(task));
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
        let reg = handle.watch_fd(far.as_raw_fd());
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
        w.reg.rearm(false);
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
        let _new = handle.watch_fd(old.far.as_raw_fd());
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
                reg.rearm(false);
            }
            TaskPoll::Idle
        }
    }

    /// A set's driver — the shard itself, parked in `epoll_pwait2` or in
    /// its green scheduler — wakes for readiness only: a request/reply
    /// round trip costs it one wake (the request's arrival), not a second
    /// one for the task's re-arm.
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
        let handle = reactor.spawn(TaskKind::Accept, |_| Box::new(task));
        *reg.lock() = Some(handle.watch_fd(fd));
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
        let _reg = handle.watch_fd(far.as_raw_fd());
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

    /// A task that is always ready again: every poll returns `Again`
    /// until `stop`.
    struct Spinner {
        runs: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
    }

    impl ReactorTask for Spinner {
        fn poll(&mut self, _now: Instant) -> TaskPoll {
            self.runs.fetch_add(1, Ordering::Relaxed);
            match self.stop.load(Ordering::Relaxed) {
                true => TaskPoll::Done,
                false => TaskPoll::Again,
            }
        }
    }

    /// A task that re-queues itself keeps its shard's inbox from ever
    /// running dry; a descriptor on the same shard is still reported
    /// within a bounded number of the spinner's runs (the set is looked at
    /// once per `IO_BATCH` messages taken), not never.
    #[test]
    fn a_task_that_is_always_ready_again_does_not_starve_the_shards_descriptors() {
        let pkg = pkg();
        let reactor = Reactor::new(Arc::clone(&pkg), 1);
        let w = watched_pair(&reactor, &pkg);
        let (spins, stop) = (
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        let spinner = Spinner {
            runs: Arc::clone(&spins),
            stop: Arc::clone(&stop),
        };
        let _spinning = reactor.spawn(TaskKind::Accept, |_| Box::new(spinner));
        eventually(&pkg, "spinning", || spins.load(Ordering::Relaxed) > 0);
        for report in 2..=4 {
            let before = spins.load(Ordering::Relaxed);
            (&w.near).write_all(b"x").unwrap();
            while w.runs.load(Ordering::Relaxed) < report {
                let spun = spins.load(Ordering::Relaxed) - before;
                assert!(
                    spun <= 4 * IO_BATCH as u64,
                    "report {report}: {spun} runs of the spinner and the socket's task not polled"
                );
                std::thread::yield_now();
            }
            let mut byte = [0];
            (&w.far).read_exact(&mut byte).unwrap();
            w.reg.rearm(false);
        }
        stop.store(true, Ordering::Relaxed);
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

    /// The claim's protocol, explored: every schedule of a waiter that
    /// claims the task, parks, runs it and lets go — or parks and runs it
    /// once more first — against
    /// two wakes (a transport's, a submitter's, a
    /// close's or a deadline's: all go through `TaskHandle::wake`) and the
    /// shard, which runs what is posted to it. A wake announces its work,
    /// then makes its transition, then posts or rings as the transition
    /// says. Each step is one atomic operation of the code; a parked
    /// waiter wakes only when rung (a receive with no deadline).
    mod claim {
        use std::collections::HashSet;

        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
        enum St {
            #[default]
            Idle,
            Scheduled,
            Running,
            Dirty,
            Claimed,
            Parked,
            Woken,
        }

        /// The code, or one of the two mutants it must tell from it.
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub(super) enum Code {
            Ours,
            /// The release goes idle without looking for a wake.
            ReleaseSkipsWoken,
            /// A wake of a claimed task posts it to the shard.
            WakePostsWhileClaimed,
        }

        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        struct World {
            st: St,
            /// `Run` messages in the shard's inbox.
            posted: u8,
            /// Work a wake announced that no run has seen yet.
            pending: bool,
            rung: bool,
            /// The waiter's next step, and whether it parked for it.
            waiter: u8,
            parked: bool,
            /// Whether the waiter holds the task (claim to release), and
            /// how many times it has run it.
            holds: bool,
            runs: u8,
            /// Each waker's next step, and what its transition owes.
            wakers: [u8; 2],
            owes: [Owe; 2],
            shard_runs: bool,
        }

        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
        enum Owe {
            #[default]
            Nothing,
            Post,
            Ring,
        }

        // The waiter's steps.
        const CLAIM: u8 = 0;
        const PARK: u8 = 1;
        const ASLEEP: u8 = 2;
        const UNPARK: u8 = 3;
        const RUN: u8 = 4;
        const RELEASE: u8 = 5;
        const GONE: u8 = 6;

        /// A schedule, by step, that leaves announced work with neither a
        /// runner nor a wake posted, or has two runners at once, if there
        /// is one — from an idle task, and from one the shard was about to
        /// run when the waiter came.
        pub(super) fn fault(code: Code) -> Option<Vec<String>> {
            let scheduled = World {
                st: St::Scheduled,
                posted: 1,
                ..World::default()
            };
            [World::default(), scheduled].into_iter().find_map(|start| {
                let mut trace = Vec::new();
                let fault = explore(start, code, &mut HashSet::new(), &mut trace);
                fault.then_some(trace)
            })
        }

        fn moves(w: World, code: Code) -> Vec<(String, World)> {
            let mut moves = Vec::new();
            let mut next = w;
            let step = match w.waiter {
                CLAIM if w.st == St::Idle => {
                    (next.st, next.holds, next.waiter) = (St::Claimed, true, PARK);
                    "claims"
                }
                CLAIM => {
                    next.waiter = GONE;
                    "finds the task taken"
                }
                PARK => {
                    next.parked = w.st == St::Claimed;
                    if next.parked {
                        (next.st, next.waiter) = (St::Parked, ASLEEP);
                    } else {
                        next.waiter = UNPARK;
                    }
                    "parks"
                }
                ASLEEP if w.rung => {
                    (next.rung, next.waiter) = (false, UNPARK);
                    "is rung"
                }
                UNPARK => {
                    next.st = St::Claimed;
                    if w.st == St::Woken && w.parked {
                        next.rung = false;
                    }
                    next.waiter = RUN;
                    "unparks"
                }
                RUN => {
                    (next.pending, next.runs) = (false, w.runs + 1);
                    next.waiter = if next.runs < 2 { PARK } else { RELEASE };
                    "runs"
                }
                RELEASE => {
                    if w.st == St::Claimed || code == Code::ReleaseSkipsWoken {
                        next.st = St::Idle;
                    } else {
                        (next.st, next.posted) = (St::Scheduled, w.posted + 1);
                    }
                    (next.holds, next.waiter) = (false, GONE);
                    "lets go"
                }
                _ => "",
            };
            if !step.is_empty() {
                moves.push((format!("waiter {step}"), next));
            }
            // A waiter whose request a run completed lets go instead.
            if w.waiter == PARK && w.runs > 0 {
                let done = World {
                    waiter: RELEASE,
                    ..w
                };
                moves.push(("waiter is done".to_owned(), done));
            }
            for i in 0..2 {
                let mut next = w;
                let step = match w.wakers[i] {
                    0 => {
                        next.pending = true;
                        "announces work"
                    }
                    1 => {
                        let claimed = matches!(w.st, St::Claimed | St::Parked);
                        (next.st, next.owes[i]) = match w.st {
                            St::Idle => (St::Scheduled, Owe::Post),
                            St::Running => (St::Dirty, Owe::Nothing),
                            _ if claimed && code == Code::WakePostsWhileClaimed => {
                                (St::Scheduled, Owe::Post)
                            }
                            St::Claimed => (St::Woken, Owe::Nothing),
                            St::Parked => (St::Woken, Owe::Ring),
                            st => (st, Owe::Nothing),
                        };
                        "wakes"
                    }
                    2 => {
                        match w.owes[i] {
                            Owe::Post => next.posted += 1,
                            Owe::Ring => next.rung = true,
                            Owe::Nothing => {}
                        }
                        "posts or rings"
                    }
                    _ => continue,
                };
                next.wakers[i] += 1;
                moves.push((format!("waker {i} {step}"), next));
            }
            let mut next = w;
            if w.shard_runs {
                next.shard_runs = false;
                if w.st == St::Running {
                    next.st = St::Idle;
                } else {
                    (next.st, next.posted) = (St::Scheduled, w.posted + 1);
                }
                moves.push(("shard ends its poll".to_owned(), next));
            } else if w.posted > 0 {
                (next.posted, next.st) = (w.posted - 1, St::Running);
                (next.shard_runs, next.pending) = (true, false);
                moves.push(("shard takes a run".to_owned(), next));
            }
            moves
        }

        fn explore(
            w: World,
            code: Code,
            seen: &mut HashSet<World>,
            trace: &mut Vec<String>,
        ) -> bool {
            if w.holds && w.shard_runs {
                return true; // two runners
            }
            if !seen.insert(w) {
                return false;
            }
            let moves = moves(w, code);
            if moves.is_empty() {
                return w.pending;
            }
            for (step, next) in moves {
                trace.push(step);
                if explore(next, code, seen, trace) {
                    return true;
                }
                trace.pop();
            }
            false
        }
    }

    #[test]
    fn no_schedule_of_the_claim_strands_a_wake_or_runs_the_task_twice() {
        use claim::{fault, Code};
        assert_eq!(fault(Code::Ours), None);
        for mutant in [Code::ReleaseSkipsWoken, Code::WakePostsWhileClaimed] {
            assert!(fault(mutant).is_some(), "{mutant:?} passed");
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
