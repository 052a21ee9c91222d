//! Scheduler timer queue: deadline-ordered actions fired by the scheduler
//! loop. Used for green-thread `sleep` and for timed waits on the
//! synchronisation primitives (e.g. the error-control thread's ACK timeout).
//!
//! A blocked green thread waits for one thing, so it holds at most one
//! entry here, and the entry goes when the wait does: fired by
//! [`TimerQueue::pop_due`], or withdrawn ([`TimerQueue::withdraw`]) when a
//! `release` ends a timed wait first. The scheduler's idle sleep targets
//! [`TimerQueue::next_deadline`], so it never wakes for a wait that is
//! already over.

use std::collections::{BTreeMap, HashMap};
use std::sync::Weak;
use std::time::Instant;

use crate::sync::SemInner;
use crate::tcb::TcbId;

/// What to do when a timer fires.
pub(crate) enum TimerAction {
    /// End green thread `tcb`'s sleep, or its wait on a descriptor, with
    /// `WakeReason::Timeout`.
    Wake(TcbId),
    /// Time out green thread `tcb` waiting on a semaphore: claim its wait
    /// token and wake it with `WakeReason::Timeout` if a release has not
    /// already claimed it.
    SemTimeout {
        sem: Weak<SemInner>,
        token: u64,
        tcb: TcbId,
    },
}

impl TimerAction {
    /// The thread whose wait this timer bounds.
    fn thread(&self) -> TcbId {
        match self {
            TimerAction::Wake(tcb) => *tcb,
            TimerAction::SemTimeout { tcb, .. } => *tcb,
        }
    }
}

/// Deadline-ordered timer queue, owned by the scheduler loop.
#[derive(Default)]
pub(crate) struct TimerQueue {
    /// By (deadline, registration number): equal deadlines fire in
    /// registration order.
    entries: BTreeMap<(Instant, u64), TimerAction>,
    /// Each waiting thread's entry.
    by_thread: HashMap<TcbId, (Instant, u64)>,
    next_seq: u64,
}

impl TimerQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn register(&mut self, at: Instant, action: TimerAction) {
        let key = (at, self.next_seq);
        self.next_seq += 1;
        if let Some(stale) = self.by_thread.insert(action.thread(), key) {
            self.entries.remove(&stale);
        }
        self.entries.insert(key, action);
    }

    /// Drops `thread`'s entry, if it has one: its wait ended another way.
    pub(crate) fn withdraw(&mut self, thread: TcbId) {
        if let Some(key) = self.by_thread.remove(&thread) {
            self.entries.remove(&key);
        }
    }

    /// Earliest pending deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.entries.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Pops every timer due at or before `now`, in deadline order.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Vec<TimerAction> {
        let mut due = Vec::new();
        while let Some(first) = self.entries.first_entry() {
            if first.key().0 > now {
                break;
            }
            let action = first.remove();
            self.by_thread.remove(&action.thread());
            due.push(action);
        }
        due
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn thread(id: u64) -> TcbId {
        TcbId(id)
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut q = TimerQueue::new();
        let base = Instant::now();
        q.register(
            base + Duration::from_millis(30),
            TimerAction::Wake(thread(3)),
        );
        q.register(
            base + Duration::from_millis(10),
            TimerAction::Wake(thread(1)),
        );
        q.register(
            base + Duration::from_millis(20),
            TimerAction::Wake(thread(2)),
        );

        let due = q.pop_due(base + Duration::from_millis(25));
        let ids: Vec<u64> = due
            .iter()
            .map(|a| match a {
                TimerAction::Wake(w) => w.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(q.next_deadline(), Some(base + Duration::from_millis(30)));
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let mut q = TimerQueue::new();
        let at = Instant::now();
        q.register(at, TimerAction::Wake(thread(1)));
        q.register(at, TimerAction::Wake(thread(2)));
        let due = q.pop_due(at);
        let ids: Vec<u64> = due
            .iter()
            .map(|a| match a {
                TimerAction::Wake(w) => w.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_withdrawn_wait_is_never_slept_toward() {
        let mut q = TimerQueue::new();
        let base = Instant::now();
        let soon = base + Duration::from_millis(10);
        let later = base + Duration::from_millis(30);
        q.register(later, TimerAction::Wake(thread(2)));
        q.register(soon, TimerAction::Wake(thread(1)));
        q.withdraw(TcbId(1));
        q.withdraw(TcbId(1)); // nothing left to withdraw: no-op
        assert_eq!((q.len(), q.next_deadline()), (1, Some(later)));
        // A thread's new wait replaces whatever it still had queued.
        q.register(soon, TimerAction::Wake(thread(2)));
        assert_eq!((q.len(), q.next_deadline()), (1, Some(soon)));
        assert_eq!(q.pop_due(later).len(), 1);
        q.withdraw(TcbId(2)); // fired already
        assert!(q.is_empty());
    }

    #[test]
    fn nothing_due_before_deadline() {
        let mut q = TimerQueue::new();
        let base = Instant::now();
        q.register(base + Duration::from_secs(10), TimerAction::Wake(thread(1)));
        assert!(q.pop_due(base).is_empty());
        assert!(!q.is_empty());
    }
}
