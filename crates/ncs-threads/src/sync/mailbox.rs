//! FIFO mailboxes — the activation channels between NCS threads.
//!
//! The paper's threads "activate" one another by queueing requests (e.g. the
//! error-control thread activates the flow-control thread with segmented
//! packets). A [`Mailbox`] is that queue: MPMC, FIFO, optionally bounded,
//! blocking cooperatively on green threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use super::Semaphore;

/// A readiness callback installed with [`Mailbox::set_notify`]: invoked
/// after every successful send so an event loop can schedule the consumer
/// instead of parking a dedicated thread on [`Mailbox::recv`].
pub type NotifyFn = Arc<dyn Fn() + Send + Sync>;

/// Error returned by [`Mailbox::try_send`] on a full bounded mailbox,
/// handing the rejected message back (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrySendError<T>(pub T);

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mailbox full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySendError<T> {}

/// Error returned by [`Mailbox::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvTimeoutError;

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timed out waiting for a mailbox message")
    }
}

impl std::error::Error for RecvTimeoutError {}

/// A FIFO message queue between threads of either package.
///
/// # Example
///
/// ```
/// use ncs_threads::sync::Mailbox;
///
/// let mbox = Mailbox::bounded(2);
/// mbox.send("a");
/// mbox.send("b");
/// assert!(mbox.try_send("c").is_err()); // full
/// assert_eq!(mbox.recv(), "a");
/// ```
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    /// Counts queued messages; receivers block on it.
    items: Semaphore,
    /// Counts free slots for bounded mailboxes; senders block on it.
    slots: Option<Semaphore>,
    capacity: Option<usize>,
    /// Fast-path flag: true iff `notify` holds a callback.
    has_notify: AtomicBool,
    /// Optional readiness callback, fired after every send. Read-write
    /// locked, not mutexed: firing happens on every producer's send path
    /// (concurrent submitters clone the callback under a shared read
    /// lock); only installation/removal writes.
    notify: RwLock<Option<NotifyFn>>,
}

impl<T> std::fmt::Debug for Mailbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl<T> Mailbox<T> {
    /// Creates a mailbox with no capacity limit.
    pub fn unbounded() -> Self {
        Mailbox {
            queue: Mutex::new(VecDeque::new()),
            items: Semaphore::new(0),
            slots: None,
            capacity: None,
            has_notify: AtomicBool::new(false),
            notify: RwLock::new(None),
        }
    }

    /// Creates a mailbox holding at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (rendezvous channels are not supported).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be positive");
        Mailbox {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            items: Semaphore::new(0),
            slots: Some(Semaphore::new(capacity)),
            capacity: Some(capacity),
            has_notify: AtomicBool::new(false),
            notify: RwLock::new(None),
        }
    }

    /// Installs (or with `None`, removes) a callback fired after every
    /// successful send. Used by readiness-driven consumers (the NCS
    /// reactor) in place of a thread parked on [`Mailbox::recv`]. The
    /// callback must be cheap, non-blocking, and tolerant of spurious
    /// invocations.
    pub fn set_notify(&self, notify: Option<NotifyFn>) {
        let mut slot = self.notify.write();
        self.has_notify.store(notify.is_some(), Ordering::Release);
        *slot = notify;
    }

    /// Fires the installed notify callback, if any, without queueing a
    /// message. Producers call this for out-of-band state changes the
    /// consumer must observe (e.g. a transport's closed flag flipping).
    pub fn notify(&self) {
        if self.has_notify.load(Ordering::Acquire) {
            let cb = self.notify.read().clone();
            if let Some(cb) = cb {
                cb();
            }
        }
    }

    /// Queues a message, blocking if the mailbox is bounded and full.
    pub fn send(&self, value: T) {
        if let Some(slots) = &self.slots {
            slots.acquire();
        }
        self.queue.lock().push_back(value);
        self.items.release();
        self.notify();
    }

    /// Queues a message if space is available; otherwise returns it in
    /// [`TrySendError`].
    ///
    /// # Errors
    ///
    /// Fails only on a full bounded mailbox.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if let Some(slots) = &self.slots {
            if !slots.try_acquire() {
                return Err(TrySendError(value));
            }
        }
        self.queue.lock().push_back(value);
        self.items.release();
        self.notify();
        Ok(())
    }

    /// Dequeues the oldest message, blocking until one arrives.
    pub fn recv(&self) -> T {
        self.items.acquire();
        self.pop_after_acquire()
    }

    /// Dequeues the oldest message if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        if self.items.try_acquire() {
            Some(self.pop_after_acquire())
        } else {
            None
        }
    }

    /// Dequeues the oldest message, giving up after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError`] if nothing arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        if self.items.acquire_timeout(timeout) {
            Ok(self.pop_after_acquire())
        } else {
            Err(RecvTimeoutError)
        }
    }

    /// Queues a batch of messages under **one** queue-lock acquisition,
    /// taking as many as capacity allows; returns the messages that did not
    /// fit (always empty for unbounded mailboxes). Relative order of the
    /// accepted prefix is preserved; never blocks.
    ///
    /// This is the coalescing primitive behind the transports' batched
    /// send paths: a ring/buffer is acquired once per batch instead of once
    /// per frame. The messages are drawn from `items` under that lock and
    /// pushed as they come, so a batch that fits allocates nothing.
    pub fn try_send_many(&self, items: impl IntoIterator<Item = T>) -> Vec<T> {
        let mut items = items.into_iter();
        let mut rejected = Vec::new();
        let mut queue = self.queue.lock();
        let before = queue.len();
        for item in items.by_ref() {
            if self
                .slots
                .as_ref()
                .is_some_and(|slots| !slots.try_acquire())
            {
                rejected.push(item);
                break;
            }
            queue.push_back(item);
        }
        let n = queue.len() - before;
        drop(queue);
        rejected.extend(items);
        if n > 0 {
            for _ in 0..n {
                self.items.release();
            }
            self.notify();
        }
        rejected
    }

    fn pop_after_acquire(&self) -> T {
        let value = self
            .queue
            .lock()
            .pop_front()
            .expect("items semaphore guarantees a queued message");
        if let Some(slots) = &self.slots {
            slots.release();
        }
        value
    }

    /// Number of queued messages (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether the mailbox is currently empty.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// The capacity limit, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn fifo_order_preserved() {
        let m = Mailbox::unbounded();
        for i in 0..100 {
            m.send(i);
        }
        for i in 0..100 {
            assert_eq!(m.recv(), i);
        }
    }

    #[test]
    fn bounded_try_send_fails_when_full() {
        let m = Mailbox::bounded(1);
        assert!(m.try_send(1).is_ok());
        assert_eq!(m.try_send(2), Err(TrySendError(2)));
        assert_eq!(m.recv(), 1);
        assert!(m.try_send(3).is_ok());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Mailbox::<u8>::bounded(0);
    }

    #[test]
    fn bounded_send_blocks_until_recv() {
        let m = Arc::new(Mailbox::bounded(1));
        m.send(1);
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            m2.send(2); // blocks until main recvs
            "sent"
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(m.recv(), 1);
        assert_eq!(t.join().unwrap(), "sent");
        assert_eq!(m.recv(), 2);
    }

    #[test]
    fn recv_timeout_expires() {
        let m = Mailbox::<u8>::unbounded();
        let start = Instant::now();
        assert_eq!(
            m.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError)
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn recv_timeout_gets_late_message() {
        let m = Arc::new(Mailbox::unbounded());
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            m2.send(9);
        });
        assert_eq!(m.recv_timeout(Duration::from_secs(5)), Ok(9));
        t.join().unwrap();
    }

    #[test]
    fn try_recv_on_empty() {
        let m = Mailbox::<u8>::unbounded();
        assert_eq!(m.try_recv(), None);
        m.send(1);
        assert_eq!(m.try_recv(), Some(1));
    }

    #[test]
    fn mpmc_drains_everything_exactly_once() {
        let m = Arc::new(Mailbox::unbounded());
        for i in 0..1000u32 {
            m.send(i);
        }
        let collected = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            let collected = Arc::clone(&collected);
            handles.push(std::thread::spawn(move || {
                while let Some(v) = m.try_recv() {
                    collected.lock().push(v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all = collected.lock().clone();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn try_send_many_fills_to_capacity_and_returns_rest() {
        let m = Mailbox::bounded(3);
        m.send(0);
        let rejected = m.try_send_many(vec![1, 2, 3, 4]);
        assert_eq!(rejected, vec![3, 4]);
        for i in 0..3 {
            assert_eq!(m.recv(), i);
        }
        assert_eq!(m.try_recv(), None);
        // Unbounded mailboxes accept everything.
        let u = Mailbox::unbounded();
        assert!(u.try_send_many(vec![1, 2, 3]).is_empty());
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn len_and_capacity_reporting() {
        let m = Mailbox::bounded(3);
        assert!(m.is_empty());
        assert_eq!(m.capacity(), Some(3));
        m.send(());
        assert_eq!(m.len(), 1);
        let u = Mailbox::<()>::unbounded();
        assert_eq!(u.capacity(), None);
    }
}
