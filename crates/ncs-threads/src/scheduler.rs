//! The cooperative green-thread scheduler (QuickThreads analogue).
//!
//! One OS thread runs the scheduler loop; green threads are multiplexed onto
//! it. Two switch mechanisms share all of this logic:
//!
//! * **Native** — hand-written x86_64 context switch; green threads run on
//!   their own stacks *on the scheduler's OS thread*. A blocking system call
//!   made by any green thread therefore stalls the whole process — the
//!   defining property of 1998 user-level packages that the paper's
//!   Figure 10 measures.
//! * **Portable** — each green thread is an OS thread, but a condvar
//!   handshake guarantees at most one is ever runnable, preserving
//!   cooperative semantics on targets without the assembly switch.
//!
//! All communication into a running scheduler (spawns, wakes, timers,
//! descriptor waits) goes through the [`Injector`]; the scheduler core
//! itself is single-threaded.
//!
//! A green thread that waits on a descriptor ([`green_wait`]) parks like
//! any other: its scheduler polls the descriptor for it — with a zero
//! timeout once per pass over the run queue while others run, and, once
//! nothing can run, in the `poll(2)` it parks in, beside the bell a push
//! rings. This is the package's answer to §4.1's blocking system call,
//! which would stall every green thread on the OS thread.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::context::{ncs_ctx_switch, prepare_stack, Context};
use crate::injector::{GreenWaker, Inject, Injector, WakeReason};
use crate::poll::{poll, PollFd};
use crate::stack::Stack;
use crate::stats::Counters;
use crate::tcb::{RunState, Tcb, TcbId};
use crate::timer::{TimerAction, TimerQueue};

/// Which switch mechanism a scheduler uses. Mirrors [`crate::SwitchMech`]
/// but lives here to keep module dependencies acyclic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MechKind {
    Native,
    Portable,
}

/// Per-OS-thread record of the currently-running green thread.
#[derive(Clone)]
pub(crate) struct GreenCtx {
    /// Pointer to the scheduler's own saved context (native mechanism only).
    sched_ctx: *mut Context,
    tcb: Arc<Tcb>,
    injector: Arc<Injector>,
    mech: MechKind,
    counters: Arc<Counters>,
}

thread_local! {
    static GREEN: RefCell<Option<GreenCtx>> = const { RefCell::new(None) };
}

fn set_green(ctx: Option<GreenCtx>) {
    GREEN.with(|g| *g.borrow_mut() = ctx);
}

fn with_green<R>(f: impl FnOnce(&GreenCtx) -> R) -> Option<R> {
    GREEN.with(|g| g.borrow().as_ref().map(f))
}

/// Whether the calling code is running inside a green thread.
pub(crate) fn in_green() -> bool {
    GREEN.with(|g| g.borrow().is_some())
}

/// A waker for the current green thread, or `None` on foreign threads.
pub(crate) fn current_green_waker() -> Option<GreenWaker> {
    with_green(|g| GreenWaker {
        injector: Arc::clone(&g.injector),
        tcb: g.tcb.id(),
    })
}

/// Blocks the current green thread until a wake is delivered through the
/// injector. Returns the reason carried by that wake.
///
/// # Panics
///
/// Panics if called from outside a green thread.
pub(crate) fn green_block() -> WakeReason {
    let ctx = with_green(GreenCtx::clone).expect("green_block outside green thread");
    ctx.counters
        .blocks
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    match ctx.mech {
        MechKind::Native => {
            {
                let mut sh = ctx.tcb.shared.lock();
                if let Some(r) = sh.wake_reason.take() {
                    return r; // wake raced ahead of the block
                }
                sh.state = RunState::Blocked;
            }
            unsafe { ncs_ctx_switch(ctx.tcb.ctx.get(), ctx.sched_ctx) };
            ctx.tcb.take_wake_reason()
        }
        MechKind::Portable => {
            let mut sh = ctx.tcb.shared.lock();
            if let Some(r) = sh.wake_reason.take() {
                return r;
            }
            sh.state = RunState::Blocked;
            ctx.tcb.cv.notify_all();
            while sh.state != RunState::Running {
                ctx.tcb.cv.wait(&mut sh);
            }
            sh.wake_reason.take().unwrap_or(WakeReason::Normal)
        }
    }
}

/// Yields the current green thread back to the scheduler, keeping it
/// runnable.
///
/// No-op outside a green thread.
pub(crate) fn green_yield() {
    let Some(ctx) = with_green(GreenCtx::clone) else {
        std::thread::yield_now();
        return;
    };
    ctx.counters
        .yields
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    match ctx.mech {
        MechKind::Native => {
            ctx.tcb.shared.lock().state = RunState::Ready;
            unsafe { ncs_ctx_switch(ctx.tcb.ctx.get(), ctx.sched_ctx) };
        }
        MechKind::Portable => {
            let mut sh = ctx.tcb.shared.lock();
            sh.state = RunState::Ready;
            ctx.tcb.cv.notify_all();
            while sh.state != RunState::Running {
                ctx.tcb.cv.wait(&mut sh);
            }
        }
    }
}

/// Parks the current green thread, without stalling the scheduler, until
/// one of `fds` — those that are not negative — reports one of its events
/// (or an error or hang-up), or until `deadline` passes; with neither, for
/// good. Returns whether a descriptor reported.
pub(crate) fn green_wait(fds: [PollFd; 2], deadline: Option<Instant>) -> bool {
    let waker = current_green_waker().expect("green_wait outside green thread");
    waker.injector.push(Inject::Wait(waker.tcb, fds, deadline));
    green_block() == WakeReason::Normal
}

/// Payload handed to a freshly activated native green thread via the r12
/// register slot.
pub(crate) struct EntryPayload {
    sched_ctx: *mut Context,
    tcb: Arc<Tcb>,
}

/// Rust-side entry point of native green threads; reached through the
/// `ncs_thread_entry` assembly shim. Never returns: finishing threads switch
/// back to the scheduler permanently.
pub(crate) extern "C" fn green_entry(raw: *mut EntryPayload) -> ! {
    let (sched_ctx, tcb) = {
        let payload = unsafe { Box::from_raw(raw) };
        (payload.sched_ctx, Arc::clone(&payload.tcb))
    };
    let body = tcb.body.lock().take();
    if let Some(body) = body {
        // The spawn wrapper records panics into the join handle; this outer
        // catch only guarantees no unwinding across the assembly boundary.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    }
    tcb.set_state(RunState::Finished);
    unsafe { ncs_ctx_switch(tcb.ctx.get(), sched_ctx) };
    unreachable!("finished green thread was resumed")
}

/// Configuration for a scheduler loop.
#[derive(Debug, Clone)]
pub(crate) struct SchedConfig {
    pub mech: MechKind,
    /// Panic after this long with no runnable thread, no pending timer and
    /// no injected work (deadlock detector). `None` disables.
    pub deadlock_timeout: Option<Duration>,
}

/// The scheduler core. Owned and driven by exactly one OS thread.
pub(crate) struct SchedulerCore {
    injector: Arc<Injector>,
    counters: Arc<Counters>,
    config: SchedConfig,
    run_q: VecDeque<TcbId>,
    tcbs: HashMap<TcbId, Arc<Tcb>>,
    timers: TimerQueue,
    sched_ctx: Context,
    /// Number of live non-daemon threads; the loop exits when it reaches 0.
    live_regular: usize,
    idle_since: Option<Instant>,
    /// The descriptors green threads wait on: `fd_waiters[i]` on
    /// `pollfds[i]`.
    pollfds: Vec<PollFd>,
    fd_waiters: Vec<TcbId>,
    /// Threads to resume before the next zero-timeout poll.
    pass_left: usize,
    /// The injector's other buffer: swapped with its queue to drain it,
    /// so a wake allocates nothing.
    spare: Vec<Inject>,
}

impl SchedulerCore {
    pub(crate) fn new(
        injector: Arc<Injector>,
        counters: Arc<Counters>,
        config: SchedConfig,
    ) -> Self {
        SchedulerCore {
            injector,
            counters,
            config,
            run_q: VecDeque::new(),
            tcbs: HashMap::new(),
            timers: TimerQueue::new(),
            sched_ctx: Context::empty(),
            live_regular: 0,
            idle_since: None,
            pollfds: Vec::new(),
            fd_waiters: Vec::new(),
            pass_left: 0,
            spare: Vec::new(),
        }
    }

    /// Runs green threads until every non-daemon thread has finished.
    ///
    /// # Panics
    ///
    /// Panics when invoked from inside a green thread (nested schedulers are
    /// not supported) or when the deadlock detector trips.
    pub(crate) fn run_loop(&mut self) {
        assert!(
            !in_green(),
            "cannot start a user-level scheduler inside a green thread"
        );
        loop {
            self.process_injections();
            // Exit as soon as every non-daemon thread has finished, even if
            // daemon threads are still runnable.
            if self.live_regular == 0 {
                break;
            }
            self.fire_due_timers();
            self.counters.timers.store(
                self.timers.len() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            if let Some(tid) = self.run_q.pop_front() {
                self.idle_since = None;
                // While green threads wait on descriptors, a zero-timeout
                // poll once per pass over the run queue: threads that
                // only yield cannot keep a ready descriptor's waiter
                // waiting.
                if self.pass_left == 0 && !self.fd_waiters.is_empty() {
                    self.poll_fds(Some(Instant::now()));
                    self.pass_left = self.run_q.len() + 1;
                }
                self.pass_left = self.pass_left.saturating_sub(1);
                self.resume(tid);
                continue;
            }
            self.idle_wait();
        }
        self.abandon_remaining();
    }

    fn process_injections(&mut self) {
        let mut injected = std::mem::take(&mut self.spare);
        self.injector.swap(&mut injected);
        for inject in injected.drain(..) {
            match inject {
                Inject::Spawn(tcb) => self.admit(tcb),
                Inject::Wake(id, reason) => {
                    // Whatever the thread waited for, it has: the timeout
                    // of that wait must not outlive it.
                    self.timers.withdraw(id);
                    self.wake_tcb(id, reason);
                }
                Inject::Timer(at, action) => self.timers.register(at, action),
                Inject::Wait(tcb, fds, deadline) => {
                    for fd in fds.into_iter().filter(|fd| fd.0 >= 0) {
                        self.pollfds.push(fd);
                        self.fd_waiters.push(tcb);
                    }
                    if let Some(at) = deadline {
                        self.timers.register(at, TimerAction::Wake(tcb));
                    }
                }
                Inject::Nudge => {}
            }
            self.idle_since = None;
        }
        self.spare = injected;
    }

    fn admit(&mut self, tcb: Arc<Tcb>) {
        if !tcb.is_daemon() {
            self.live_regular += 1;
        }
        tcb.set_state(RunState::Ready);
        if self.config.mech == MechKind::Portable {
            start_portable_thread(&tcb, &self.injector, &self.counters);
        }
        let id = tcb.id();
        self.tcbs.insert(id, tcb);
        self.run_q.push_back(id);
    }

    fn wake_tcb(&mut self, id: TcbId, reason: WakeReason) {
        let Some(tcb) = self.tcbs.get(&id) else {
            return; // thread already finished; stale timer wake
        };
        let mut sh = tcb.shared.lock();
        match sh.state {
            RunState::Blocked => {
                sh.state = RunState::Ready;
                sh.wake_reason = Some(reason);
                tcb.cv.notify_all();
                drop(sh);
                self.run_q.push_back(id);
            }
            RunState::Finished | RunState::Abandoned => {}
            // The wake raced ahead of the corresponding block (portable
            // mechanism): record it; `green_block` will consume it.
            _ => sh.wake_reason = Some(reason),
        }
    }

    fn fire_due_timers(&mut self) {
        for action in self.timers.pop_due(Instant::now()) {
            match action {
                TimerAction::Wake(tcb) => {
                    self.forget_fds(tcb);
                    self.wake_tcb(tcb, WakeReason::Timeout);
                }
                TimerAction::SemTimeout { sem, token, .. } => {
                    if let Some(sem) = sem.upgrade() {
                        if let Some(waker) = sem.cancel_waiter(token) {
                            self.wake_tcb(waker.tcb, WakeReason::Timeout);
                        }
                    }
                }
            }
        }
    }

    fn idle_wait(&mut self) {
        let now = Instant::now();
        let since = *self.idle_since.get_or_insert(now);
        // A timer or a descriptor will wake somebody: that is no deadlock.
        let pending = !self.timers.is_empty() || !self.fd_waiters.is_empty();
        let deadlock_deadline = match self.config.deadlock_timeout {
            Some(dt) if !pending => {
                if now.duration_since(since) >= dt {
                    panic!(
                        "ncs-threads deadlock: {} green thread(s) blocked with no \
                         runnable thread, pending timer or external wake for {:?}: {}",
                        self.tcbs.len(),
                        dt,
                        self.blocked_thread_names().join(", ")
                    );
                }
                Some(since + dt)
            }
            _ => None,
        };
        let deadline = self.timers.next_deadline().or(deadlock_deadline);
        if self.fd_waiters.is_empty() {
            self.injector.wait_until(deadline);
        } else if self.injector.set_polling(true) {
            self.poll_fds(deadline);
            self.injector.set_polling(false);
        }
    }

    /// Polls the descriptors green threads wait on, and the bell, until
    /// one reports or `deadline` passes; readies every thread whose
    /// descriptor reported. A poll that fails readies them all: each
    /// thread's next call on its descriptor meets the fault.
    fn poll_fds(&mut self, deadline: Option<Instant>) {
        let bell = self.injector.bell();
        self.pollfds.push(bell.pollfd());
        let polled = poll(&mut self.pollfds, deadline);
        if self.pollfds.pop().is_some_and(|b| b.2 != 0) {
            bell.drain();
        }
        if let Ok(0) = polled {
            return;
        }
        let mut i = 0;
        while i < self.fd_waiters.len() {
            if polled.is_err() || self.pollfds[i].2 != 0 {
                // Woken once, its other descriptor forgotten with this one.
                let id = self.fd_waiters[i];
                i -= self.fd_waiters[..i].iter().filter(|&&w| w == id).count();
                self.forget_fds(id);
                self.timers.withdraw(id);
                self.wake_tcb(id, WakeReason::Normal);
            } else {
                i += 1;
            }
        }
    }

    /// Stops polling for `tcb`: every descriptor it waits on.
    fn forget_fds(&mut self, tcb: TcbId) {
        let mut i = 0;
        while i < self.fd_waiters.len() {
            if self.fd_waiters[i] == tcb {
                self.fd_waiters.remove(i);
                self.pollfds.remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn blocked_thread_names(&self) -> Vec<String> {
        self.tcbs
            .values()
            .filter(|t| t.state() == RunState::Blocked)
            .map(|t| format!("{} ({})", t.name(), t.id()))
            .collect()
    }

    fn resume(&mut self, tid: TcbId) {
        let Some(tcb) = self.tcbs.get(&tid).cloned() else {
            return;
        };
        debug_assert!(
            matches!(tcb.state(), RunState::Ready),
            "resumed thread {tid} not Ready"
        );
        self.counters
            .ctx_switches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        tcb.set_state(RunState::Running);
        match self.config.mech {
            MechKind::Native => unsafe { self.resume_native(&tcb) },
            MechKind::Portable => {
                // Hand the baton to the green OS thread and wait for it to
                // yield, block or finish.
                let mut sh = tcb.shared.lock();
                tcb.cv.notify_all();
                while sh.state == RunState::Running {
                    tcb.cv.wait(&mut sh);
                }
            }
        }
        match tcb.state() {
            RunState::Ready => self.run_q.push_back(tid), // yielded
            RunState::Blocked => {}
            RunState::Finished => self.retire(&tcb),
            other => unreachable!("green thread {tid} returned control in state {other:?}"),
        }
    }

    /// # Safety
    ///
    /// Must run on the scheduler's own OS thread with no green thread active.
    unsafe fn resume_native(&mut self, tcb: &Arc<Tcb>) {
        let sched_ctx = std::ptr::addr_of_mut!(self.sched_ctx);
        let ctx_ptr = tcb.ctx.get();
        let stack_slot = &mut *tcb.stack.get();
        if stack_slot.is_none() {
            // First activation: materialise the stack and plant the entry
            // frame.
            let mut stack = Stack::new(tcb.stack_size);
            let payload = Box::into_raw(Box::new(EntryPayload {
                sched_ctx,
                tcb: Arc::clone(tcb),
            }));
            *ctx_ptr = prepare_stack(stack.top(), payload.cast());
            *stack_slot = Some(stack);
        }
        set_green(Some(GreenCtx {
            sched_ctx,
            tcb: Arc::clone(tcb),
            injector: Arc::clone(&self.injector),
            mech: MechKind::Native,
            counters: Arc::clone(&self.counters),
        }));
        ncs_ctx_switch(sched_ctx, ctx_ptr);
        set_green(None);
        if let Some(stack) = &*tcb.stack.get() {
            assert!(
                stack.canary_intact(),
                "stack overflow detected in green thread '{}' ({} byte stack)",
                tcb.name(),
                tcb.stack_size,
            );
        }
    }

    fn retire(&mut self, tcb: &Arc<Tcb>) {
        if !tcb.is_daemon() {
            self.live_regular -= 1;
        }
        self.tcbs.remove(&tcb.id());
    }

    /// Marks every thread that is still alive at shutdown as abandoned.
    /// Native daemon stacks are freed without unwinding (their heap values
    /// leak, by documented contract); portable daemon OS threads parked at
    /// startup exit cleanly, ones blocked mid-run stay parked until process
    /// exit.
    fn abandon_remaining(&mut self) {
        for (_, tcb) in self.tcbs.drain() {
            tcb.set_state(RunState::Abandoned);
        }
        self.run_q.clear();
    }
}

/// Spawns the backing OS thread for a portable-mechanism green thread.
fn start_portable_thread(tcb: &Arc<Tcb>, injector: &Arc<Injector>, counters: &Arc<Counters>) {
    let tcb = Arc::clone(tcb);
    let injector = Arc::clone(injector);
    let counters = Arc::clone(counters);
    std::thread::Builder::new()
        .name(format!("ncs-green-{}", tcb.name()))
        .spawn(move || {
            set_green(Some(GreenCtx {
                sched_ctx: std::ptr::null_mut(),
                tcb: Arc::clone(&tcb),
                injector: Arc::clone(&injector),
                mech: MechKind::Portable,
                counters,
            }));
            {
                let mut sh = tcb.shared.lock();
                while sh.state != RunState::Running {
                    if sh.state == RunState::Abandoned {
                        return;
                    }
                    tcb.cv.wait(&mut sh);
                }
            }
            let body = tcb.body.lock().take();
            if let Some(body) = body {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            }
            tcb.set_state(RunState::Finished);
            // Nudge the scheduler in case it is idle-waiting rather than in
            // the resume handshake (cannot happen today, but harmless).
            injector.push(Inject::Nudge);
        })
        .expect("failed to spawn portable green thread");
}
