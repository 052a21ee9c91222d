//! One-shot broadcast event.

use std::sync::atomic::{AtomicBool, Ordering};

use super::Semaphore;

/// A one-shot event: starts unfired; [`Event::fire`] releases every current
/// and future waiter. Used for join handles and connection-established
/// signals.
///
/// Waiters are woken in a chain: the fire releases one permit and each woken
/// waiter re-releases it, so a broadcast costs one wake per waiter without a
/// waiter list of its own.
///
/// # Example
///
/// ```
/// use ncs_threads::sync::Event;
/// use std::sync::Arc;
///
/// let ev = Arc::new(Event::new());
/// let ev2 = Arc::clone(&ev);
/// let t = std::thread::spawn(move || {
///     ev2.wait();
///     "woken"
/// });
/// ev.fire();
/// assert_eq!(t.join().unwrap(), "woken");
/// ```
#[derive(Debug)]
pub struct Event {
    fired: AtomicBool,
    sem: Semaphore,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl Event {
    /// Creates an unfired event.
    pub fn new() -> Self {
        Event {
            fired: AtomicBool::new(false),
            sem: Semaphore::new(0),
        }
    }

    /// Fires the event, waking all current and future waiters. Idempotent.
    pub fn fire(&self) {
        if !self.fired.swap(true, Ordering::AcqRel) {
            self.sem.release();
        }
    }

    /// Returns a fired event to unfired, for another use. It takes
    /// `&mut self`: nobody can be waiting on the event, so the permit the
    /// fire left behind is all there is to take back.
    pub fn reset(&mut self) {
        *self.fired.get_mut() = false;
        while self.sem.try_acquire() {}
    }

    /// Whether the event has fired.
    pub fn is_fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Blocks until the event fires. Returns immediately if already fired.
    pub fn wait(&self) {
        if self.is_fired() {
            return;
        }
        self.sem.acquire();
        // Chain the wake to the next waiter.
        self.sem.release();
    }

    /// Blocks until the event fires or `timeout` elapses; returns whether the
    /// event had fired.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> bool {
        if self.is_fired() {
            return true;
        }
        if self.sem.acquire_timeout(timeout) {
            self.sem.release();
            true
        } else {
            self.is_fired()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn wait_after_fire_returns_immediately() {
        let ev = Event::new();
        ev.fire();
        let start = Instant::now();
        ev.wait();
        assert!(start.elapsed() < Duration::from_millis(50));
        assert!(ev.is_fired());
    }

    #[test]
    fn fire_is_idempotent() {
        let ev = Event::new();
        ev.fire();
        ev.fire();
        ev.wait();
        ev.wait(); // chain re-release must keep the event passable
    }

    #[test]
    fn broadcast_wakes_all_waiters() {
        let ev = Arc::new(Event::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ev = Arc::clone(&ev);
            handles.push(std::thread::spawn(move || ev.wait()));
        }
        std::thread::sleep(Duration::from_millis(20));
        ev.fire();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_reset_event_waits_again() {
        let mut ev = Event::new();
        ev.fire();
        ev.wait();
        ev.reset();
        assert!(!ev.is_fired());
        assert!(!ev.wait_timeout(Duration::from_millis(20)));
        ev.fire();
        assert!(ev.wait_timeout(Duration::from_secs(5)));
    }

    #[test]
    fn wait_timeout_expires_when_unfired() {
        let ev = Event::new();
        assert!(!ev.wait_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn wait_timeout_sees_fire() {
        let ev = Arc::new(Event::new());
        let ev2 = Arc::clone(&ev);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            ev2.fire();
        });
        assert!(ev.wait_timeout(Duration::from_secs(5)));
        t.join().unwrap();
    }
}
