//! The injector: the only channel through which code outside the scheduler
//! loop (green threads, foreign OS threads, timers) communicates with a
//! running scheduler.
//!
//! Everything funnels through one mutex-protected queue, which keeps the
//! scheduler core itself free of shared-state hazards. An idle scheduler
//! parks on a condvar, or — while its green threads wait on descriptors —
//! in `poll(2)` beside a bell that a push rings.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::poll::{Bell, PollFd};
use crate::tcb::TcbId;
use crate::timer::TimerAction;

/// Why a blocked green thread was woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// A peer handed us whatever we were waiting for (permit, event, ...).
    Normal,
    /// The wait's deadline expired first.
    Timeout,
}

/// A request injected into a running scheduler.
pub(crate) enum Inject {
    /// Register and start a new green thread.
    Spawn(Arc<crate::tcb::Tcb>),
    /// Wake a blocked green thread.
    Wake(TcbId, WakeReason),
    /// Register a timer.
    Timer(Instant, TimerAction),
    /// Park a green thread until one of its descriptors (those that are
    /// not negative) reports or the deadline, if any, passes.
    Wait(TcbId, [PollFd; 2], Option<Instant>),
    /// Ask the scheduler loop to re-evaluate its exit condition.
    Nudge,
}

impl std::fmt::Debug for Inject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inject::Spawn(tcb) => f.debug_tuple("Spawn").field(&tcb.id()).finish(),
            Inject::Wake(id, r) => f.debug_tuple("Wake").field(id).field(r).finish(),
            Inject::Timer(at, _) => f.debug_tuple("Timer").field(at).finish(),
            Inject::Wait(id, fds, _) => f.debug_tuple("Wait").field(id).field(fds).finish(),
            Inject::Nudge => f.write_str("Nudge"),
        }
    }
}

#[derive(Debug, Default)]
struct Queue {
    items: Vec<Inject>,
    /// Set while the scheduler waits in `poll(2)`: a push rings the bell.
    polling: bool,
}

/// Shared queue + wakeup condvar between a scheduler and the outside world.
#[derive(Debug, Default)]
pub(crate) struct Injector {
    queue: Mutex<Queue>,
    cv: Condvar,
    bell: OnceLock<Bell>,
}

impl Injector {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Enqueues a request and wakes the scheduler if it is idle: on its
    /// condvar, or by ringing its bell while it polls. The flag is read
    /// under the lock the scheduler sets it under, after looking at the
    /// queue, so one of the two sees the other.
    pub(crate) fn push(&self, inject: Inject) {
        let mut q = self.queue.lock();
        q.items.push(inject);
        let ring = std::mem::take(&mut q.polling);
        drop(q);
        match ring {
            true => self.bell().ring(),
            false => self.cv.notify_all(),
        }
    }

    /// Drains all pending requests into `spare`, which must be empty, and
    /// gives the queue `spare`'s storage for the next pushes: a caller that
    /// keeps the two buffers in turn allocates nothing once both have
    /// grown.
    pub(crate) fn swap(&self, spare: &mut Vec<Inject>) {
        debug_assert!(spare.is_empty());
        std::mem::swap(&mut self.queue.lock().items, spare);
    }

    /// The bell, made with the first descriptor wait.
    pub(crate) fn bell(&self) -> &Bell {
        self.bell.get_or_init(Bell::new)
    }

    /// Marks the scheduler as waiting in `poll(2)`, where the next push
    /// rings the bell — unless a request is already pending — or, with
    /// `on` false, as awake. Returns whether it may wait.
    pub(crate) fn set_polling(&self, on: bool) -> bool {
        let mut q = self.queue.lock();
        q.polling = on && q.items.is_empty();
        q.polling
    }

    /// Parks the caller until a request arrives or `deadline` passes.
    /// Returns immediately if requests are already pending.
    pub(crate) fn wait_until(&self, deadline: Option<Instant>) {
        let mut q = self.queue.lock();
        if !q.items.is_empty() {
            return;
        }
        match deadline {
            Some(d) => {
                self.cv.wait_until(&mut q, d);
            }
            None => self.cv.wait(&mut q),
        }
    }
}

/// A handle that can wake one specific blocked green thread, usable from any
/// OS thread.
#[derive(Debug, Clone)]
pub(crate) struct GreenWaker {
    pub injector: Arc<Injector>,
    pub tcb: TcbId,
}

impl GreenWaker {
    /// Delivers the wake. Exactly one wake must be delivered per block; the
    /// synchronisation primitives enforce this with claim tokens.
    pub(crate) fn wake(&self, reason: WakeReason) {
        self.injector.push(Inject::Wake(self.tcb, reason));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn push_then_drain_preserves_order() {
        let inj = Injector::new();
        inj.push(Inject::Nudge);
        inj.push(Inject::Wake(TcbId(7), WakeReason::Normal));
        let mut drained = Vec::new();
        inj.swap(&mut drained);
        assert_eq!(drained.len(), 2);
        assert!(matches!(drained[0], Inject::Nudge));
        assert!(matches!(
            drained[1],
            Inject::Wake(TcbId(7), WakeReason::Normal)
        ));
        let mut again = Vec::new();
        inj.swap(&mut again);
        assert!(again.is_empty());
    }

    /// After a swap the queue pushes into the spare's storage, at the
    /// spare's capacity: a wake allocates nothing.
    #[test]
    fn pushes_after_a_swap_reuse_the_spare_buffer() {
        let inj = Injector::new();
        inj.push(Inject::Nudge);
        let mut spare = Vec::with_capacity(8);
        let (storage, capacity) = (spare.as_ptr(), spare.capacity());
        inj.swap(&mut spare);
        assert_eq!(spare.len(), 1);
        inj.push(Inject::Nudge);
        inj.push(Inject::Wake(TcbId(7), WakeReason::Normal));
        let q = inj.queue.lock();
        assert_eq!(q.items.len(), 2);
        assert_eq!((q.items.as_ptr(), q.items.capacity()), (storage, capacity));
    }

    #[test]
    fn wait_until_returns_when_pushed_from_other_thread() {
        let inj = Injector::new();
        let inj2 = Arc::clone(&inj);
        let start = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            inj2.push(Inject::Nudge);
        });
        inj.wait_until(Some(Instant::now() + Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn wait_until_respects_deadline() {
        let inj = Injector::new();
        let start = Instant::now();
        inj.wait_until(Some(Instant::now() + Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wait_returns_immediately_if_pending() {
        let inj = Injector::new();
        inj.push(Inject::Nudge);
        // Must not block even with no deadline.
        inj.wait_until(None);
    }
}
