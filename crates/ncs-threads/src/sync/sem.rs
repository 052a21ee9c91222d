//! Counting semaphore with green-thread-aware blocking.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::injector::{GreenWaker, Inject, WakeReason};
use crate::scheduler;
use crate::timer::TimerAction;

/// A green waiter parked on the semaphore. The `token` is the claim ticket:
/// whichever of {release, timeout timer} removes the entry first owns the
/// single wake that the waiter will receive.
struct GreenWaiter {
    token: u64,
    waker: GreenWaker,
}

struct SemState {
    permits: usize,
    green_waiters: VecDeque<GreenWaiter>,
    foreign_waiters: usize,
    next_token: u64,
}

/// Shared semaphore state; `pub(crate)` so the scheduler's timer machinery
/// can cancel timed waits.
pub(crate) struct SemInner {
    state: Mutex<SemState>,
    cv: Condvar,
}

impl SemInner {
    /// Removes and returns the waiter holding `token`, if a release has not
    /// already claimed it. Called by the scheduler when a wait times out.
    pub(crate) fn cancel_waiter(&self, token: u64) -> Option<GreenWaker> {
        let mut st = self.state.lock();
        let pos = st.green_waiters.iter().position(|w| w.token == token)?;
        st.green_waiters.remove(pos).map(|w| w.waker)
    }
}

/// A counting semaphore usable from green threads and OS threads alike.
///
/// Releases prefer green waiters (the permit is handed directly to the
/// longest-waiting green thread) over foreign waiters; within each class the
/// order is FIFO. This favours the cooperative scheduler's threads, matching
/// the paper's design where control threads are activated promptly.
///
/// # Example
///
/// ```
/// use ncs_threads::sync::Semaphore;
///
/// let sem = Semaphore::new(1);
/// sem.acquire();
/// assert!(!sem.try_acquire());
/// sem.release();
/// assert!(sem.try_acquire());
/// ```
pub struct Semaphore {
    inner: Arc<SemInner>,
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Semaphore")
            .field("permits", &st.permits)
            .field("green_waiters", &st.green_waiters.len())
            .field("foreign_waiters", &st.foreign_waiters)
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore holding `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Arc::new(SemInner {
                state: Mutex::new(SemState {
                    permits,
                    green_waiters: VecDeque::new(),
                    foreign_waiters: 0,
                    next_token: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Acquires one permit, blocking until one is available.
    pub fn acquire(&self) {
        let ok = self.acquire_inner(None);
        debug_assert!(ok, "untimed acquire cannot time out");
    }

    /// Acquires one permit if immediately available.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.inner.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Acquires one permit, giving up after `timeout` — never, for a
    /// timeout beyond what the clock can tell (`Duration::MAX`). Returns
    /// whether the permit was obtained.
    pub fn acquire_timeout(&self, timeout: Duration) -> bool {
        self.acquire_inner(Instant::now().checked_add(timeout))
    }

    fn acquire_inner(&self, deadline: Option<Instant>) -> bool {
        if let Some(waker) = scheduler::current_green_waker() {
            self.acquire_green(waker, deadline)
        } else {
            self.acquire_foreign(deadline)
        }
    }

    fn acquire_green(&self, waker: GreenWaker, deadline: Option<Instant>) -> bool {
        {
            let mut st = self.inner.state.lock();
            if st.permits > 0 {
                st.permits -= 1;
                return true;
            }
            if let Some(d) = deadline {
                if d <= Instant::now() {
                    return false;
                }
            }
            let token = st.next_token;
            st.next_token += 1;
            // The timeout is queued before the lock drops, so before any
            // release can claim the token: the scheduler reads that
            // release's wake after the timer, and withdraws it.
            if let Some(d) = deadline {
                let (sem, tcb) = (Arc::downgrade(&self.inner), waker.tcb);
                let timeout = TimerAction::SemTimeout { sem, token, tcb };
                waker.injector.push(Inject::Timer(d, timeout));
            }
            st.green_waiters.push_back(GreenWaiter { token, waker });
        }
        match scheduler::green_block() {
            // A release claimed our token and transferred its permit to us.
            WakeReason::Normal => true,
            // The timeout timer claimed the token first.
            WakeReason::Timeout => false,
        }
    }

    fn acquire_foreign(&self, deadline: Option<Instant>) -> bool {
        let mut st = self.inner.state.lock();
        loop {
            if st.permits > 0 {
                st.permits -= 1;
                return true;
            }
            st.foreign_waiters += 1;
            let timed_out = match deadline {
                Some(d) => self.inner.cv.wait_until(&mut st, d).timed_out(),
                None => {
                    self.inner.cv.wait(&mut st);
                    false
                }
            };
            st.foreign_waiters -= 1;
            if timed_out {
                // Final chance: a release may have arrived with the timeout.
                if st.permits > 0 {
                    st.permits -= 1;
                    return true;
                }
                return false;
            }
        }
    }

    /// Releases one permit, waking the longest-waiting thread if any.
    pub fn release(&self) {
        let green = {
            let mut st = self.inner.state.lock();
            if let Some(w) = st.green_waiters.pop_front() {
                Some(w)
            } else {
                st.permits += 1;
                if st.foreign_waiters > 0 {
                    self.inner.cv.notify_one();
                }
                None
            }
        };
        if let Some(w) = green {
            // Permit transferred directly: never incremented `permits`.
            w.waker.wake(WakeReason::Normal);
        }
    }

    /// Releases `n` permits.
    pub fn release_n(&self, n: usize) {
        for _ in 0..n {
            self.release();
        }
    }

    /// Current number of free permits (racy; intended for diagnostics).
    pub fn permits(&self) -> usize {
        self.inner.state.lock().permits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn permits_count_down_and_up() {
        let s = Semaphore::new(2);
        assert_eq!(s.permits(), 2);
        s.acquire();
        s.acquire();
        assert_eq!(s.permits(), 0);
        assert!(!s.try_acquire());
        s.release();
        assert_eq!(s.permits(), 1);
        assert!(s.try_acquire());
    }

    #[test]
    fn foreign_blocking_handoff() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || {
            s2.acquire();
            42
        });
        thread::sleep(Duration::from_millis(20));
        s.release();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn foreign_timeout_expires() {
        let s = Semaphore::new(0);
        let start = Instant::now();
        assert!(!s.acquire_timeout(Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn foreign_timeout_succeeds_if_released_in_time() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            s2.release();
        });
        assert!(s.acquire_timeout(Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn many_foreign_contenders_all_proceed() {
        let s = Arc::new(Semaphore::new(4));
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let s = Arc::clone(&s);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    s.acquire();
                    s.release();
                }
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 16);
        assert_eq!(s.permits(), 4);
    }

    #[test]
    fn release_n_adds_multiple() {
        let s = Semaphore::new(0);
        s.release_n(3);
        assert_eq!(s.permits(), 3);
    }

    #[test]
    fn debug_output_mentions_permits() {
        let s = Semaphore::new(7);
        assert!(format!("{s:?}").contains("permits"));
    }
}
