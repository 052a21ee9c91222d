//! The kernel-level thread package: a thin veneer over [`std::thread`]
//! (the paper's "Pthread over Solaris" configuration).

use std::sync::Arc;

use crate::pkg::{panic_message, JoinError, JoinHandle, PackageKind, SpawnOptions, ThreadPackage};
use crate::stats::{Counters, PackageStats};

/// Kernel-level thread package. Threads are OS threads: context switches are
/// dearer than the user package's, but a thread blocked in a system call
/// (e.g. a socket `write` with a full buffer) does not stop its siblings —
/// the overlap the paper exploits for large messages (§4.1, Figure 10).
///
/// # Example
///
/// ```
/// use ncs_threads::{KernelPackage, ThreadPackage, ThreadPackageExt};
///
/// let pkg = KernelPackage::new();
/// let h = pkg.spawn_typed("worker", || 2 + 2);
/// assert_eq!(h.join().unwrap(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct KernelPackage {
    counters: Arc<Counters>,
}

impl Default for KernelPackage {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelPackage {
    /// Creates a kernel-level package.
    pub fn new() -> Self {
        KernelPackage {
            counters: Counters::new(),
        }
    }

    /// A shared handle as a trait object, the form NCS nodes store.
    pub fn shared() -> Arc<dyn ThreadPackage> {
        Arc::new(Self::new())
    }
}

impl ThreadPackage for KernelPackage {
    fn kind(&self) -> PackageKind {
        PackageKind::KernelLevel
    }

    fn spawn_with(&self, opts: SpawnOptions, f: Box<dyn FnOnce() + Send>) -> JoinHandle {
        self.counters
            .spawns
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (handle, completer) = JoinHandle::pair();
        let mut builder = std::thread::Builder::new().name(opts.name().to_owned());
        if let Some(bytes) = opts.stack_size_bytes() {
            builder = builder.stack_size(bytes);
        }
        builder
            .spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                match result {
                    Ok(()) => completer.complete(None),
                    Err(payload) => {
                        completer
                            .complete(Some(JoinError::Panicked(panic_message(payload.as_ref()))));
                    }
                }
            })
            .expect("failed to spawn kernel thread");
        handle
    }

    fn yield_now(&self) {
        self.counters
            .yields
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::thread::yield_now();
    }

    fn stats(&self) -> PackageStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkg::ThreadPackageExt;
    use crate::sync::Mailbox;

    #[test]
    fn spawn_and_join() {
        let pkg = KernelPackage::new();
        let h = pkg.spawn_typed("t", || 21 * 2);
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn panic_propagates_as_join_error() {
        let pkg = KernelPackage::new();
        let h = pkg.spawn("boomer", Box::new(|| panic!("kaboom")));
        match h.join() {
            Err(JoinError::Panicked(msg)) => assert!(msg.contains("kaboom")),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn threads_communicate_via_mailbox() {
        let pkg = KernelPackage::new();
        let mbox = Arc::new(Mailbox::unbounded());
        let tx = Arc::clone(&mbox);
        let producer = pkg.spawn_typed("producer", move || {
            for i in 0..100 {
                tx.send(i);
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += mbox.recv();
        }
        producer.join().unwrap();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn stats_count_spawns_and_yields() {
        let pkg = KernelPackage::new();
        pkg.spawn("a", Box::new(|| {})).join().unwrap();
        pkg.yield_now();
        let s = pkg.stats();
        assert_eq!(s.spawns, 1);
        assert_eq!(s.yields, 1);
    }

    #[test]
    fn kind_is_kernel_level() {
        assert_eq!(KernelPackage::new().kind(), PackageKind::KernelLevel);
    }
}
