//! The user-level thread package: public API over the green-thread
//! scheduler (the paper's "QuickThreads over Solaris" configuration).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::context::NATIVE_SWITCH_AVAILABLE;
use crate::injector::{Inject, Injector};
use crate::pkg::{
    panic_message, JoinError, JoinHandle, PackageKind, SpawnOptions, ThreadPackage,
    ThreadPackageExt, TypedJoinHandle,
};
use crate::scheduler::{self, MechKind, SchedConfig, SchedulerCore};
use crate::stats::{Counters, PackageStats};
use crate::tcb::{Tcb, TcbId};

/// How green threads are switched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchMech {
    /// Pick [`SwitchMech::Native`] when the target supports it, otherwise
    /// [`SwitchMech::Portable`].
    #[default]
    Auto,
    /// Hand-written assembly context switch (x86_64 only): the honest
    /// QuickThreads analogue, with user-space switch cost.
    Native,
    /// Condvar-handoff over OS threads: identical cooperative semantics on
    /// any target, with kernel-assisted (slower) switches.
    Portable,
}

/// Configuration for a [`UserRuntime`].
#[derive(Debug, Clone)]
pub struct UserConfig {
    /// Switch mechanism selection.
    pub mech: SwitchMech,
    /// Default green stack size in bytes (native mechanism).
    pub stack_size: usize,
    /// Panic if no thread can make progress for this long (deadlock
    /// detector). `None` disables; useful when external OS threads wake
    /// green threads at arbitrary times.
    pub deadlock_timeout: Option<Duration>,
}

impl Default for UserConfig {
    fn default() -> Self {
        UserConfig {
            mech: SwitchMech::Auto,
            stack_size: 256 * 1024,
            deadlock_timeout: None,
        }
    }
}

/// A user-level (green) thread runtime. [`UserRuntime::run`] turns the
/// calling OS thread into the scheduler and executes the closure as the
/// primary green thread.
///
/// All green threads of one runtime share that single OS thread (native
/// mechanism), so a blocking system call made by any of them stalls the
/// whole runtime — the defining user-level-package property from the
/// paper's §4.1. Blocking through [`crate::sync`] primitives, by contrast,
/// suspends only the calling green thread.
#[derive(Debug, Default)]
pub struct UserRuntime {
    config: UserConfig,
}

impl UserRuntime {
    /// A runtime with the given configuration.
    pub fn new(config: UserConfig) -> Self {
        UserRuntime { config }
    }

    /// A runtime forced onto the portable switch mechanism.
    pub fn portable() -> Self {
        UserRuntime::new(UserConfig {
            mech: SwitchMech::Portable,
            ..UserConfig::default()
        })
    }

    /// Runs `f` as the primary green thread, returning its result once every
    /// non-daemon green thread has finished.
    ///
    /// # Panics
    ///
    /// Panics if called from inside another green thread, if the primary
    /// thread panicked (the panic is propagated), or if the deadlock
    /// detector trips.
    pub fn run<R, F>(self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(UserPackage) -> R + Send + 'static,
    {
        let mech = match self.config.mech {
            SwitchMech::Auto => {
                if NATIVE_SWITCH_AVAILABLE {
                    MechKind::Native
                } else {
                    MechKind::Portable
                }
            }
            SwitchMech::Native => {
                if !NATIVE_SWITCH_AVAILABLE {
                    panic!(
                        "native context switching is unavailable on this target; \
                         use SwitchMech::Portable"
                    );
                }
                MechKind::Native
            }
            SwitchMech::Portable => MechKind::Portable,
        };
        let inner = Arc::new(PkgInner {
            injector: Injector::new(),
            counters: Counters::new(),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            stack_size: self.config.stack_size,
            mech,
        });
        let pkg = UserPackage {
            inner: Arc::clone(&inner),
        };
        let pkg_for_primary = pkg.clone();
        let primary: TypedJoinHandle<R> = pkg.spawn_typed("primary", move || f(pkg_for_primary));
        let mut core = SchedulerCore::new(
            Arc::clone(&inner.injector),
            Arc::clone(&inner.counters),
            SchedConfig {
                mech,
                deadlock_timeout: self.config.deadlock_timeout,
            },
        );
        core.run_loop();
        inner.shutdown.store(true, Ordering::Release);
        match primary.join() {
            Ok(r) => r,
            Err(JoinError::Panicked(msg)) => {
                panic!("primary green thread panicked: {msg}")
            }
            Err(JoinError::RuntimeShutdown) => {
                unreachable!("primary thread always runs before shutdown")
            }
        }
    }
}

#[derive(Debug)]
struct PkgInner {
    injector: Arc<Injector>,
    counters: Arc<Counters>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    stack_size: usize,
    mech: MechKind,
}

/// Handle to a running user-level runtime; implements [`ThreadPackage`].
/// Cloneable and usable from green threads and foreign OS threads alike.
#[derive(Debug, Clone)]
pub struct UserPackage {
    inner: Arc<PkgInner>,
}

impl UserPackage {
    /// The switch mechanism actually in use.
    pub fn mech(&self) -> SwitchMech {
        match self.inner.mech {
            MechKind::Native => SwitchMech::Native,
            MechKind::Portable => SwitchMech::Portable,
        }
    }
}

impl ThreadPackage for UserPackage {
    fn kind(&self) -> PackageKind {
        PackageKind::UserLevel
    }

    fn spawn_with(&self, opts: SpawnOptions, f: Box<dyn FnOnce() + Send>) -> JoinHandle {
        let (handle, completer) = JoinHandle::pair();
        if self.inner.shutdown.load(Ordering::Acquire) {
            completer.complete(Some(JoinError::RuntimeShutdown));
            return handle;
        }
        self.inner.counters.spawns.fetch_add(1, Ordering::Relaxed);
        let id = TcbId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let stack = opts.stack_size_bytes().unwrap_or(self.inner.stack_size);
        let body: Box<dyn FnOnce() + Send> = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            match result {
                Ok(()) => completer.complete(None),
                Err(payload) => {
                    completer.complete(Some(JoinError::Panicked(panic_message(payload.as_ref()))))
                }
            }
        });
        let tcb = Tcb::new(id, opts.name().to_owned(), opts.is_daemon(), stack, body);
        self.inner.injector.push(Inject::Spawn(tcb));
        handle
    }

    fn yield_now(&self) {
        scheduler::green_yield();
    }

    fn stats(&self) -> PackageStats {
        self.inner.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Semaphore;
    use crate::ThreadPackageExt;
    use std::time::Instant;

    fn timers(pkg: &UserPackage) -> u64 {
        pkg.inner.counters.timers.load(Ordering::Relaxed)
    }

    /// 1,000 timed waits, each ended by a `release` long before its
    /// deadline: no timeout outlives its wait, so the scheduler never
    /// sleeps toward one.
    #[test]
    fn released_timed_waits_leave_no_timers() {
        for mech in [SwitchMech::Auto, SwitchMech::Portable] {
            UserRuntime::new(UserConfig {
                mech,
                ..UserConfig::default()
            })
            .run(|pkg| {
                let (ping, pong) = (Arc::new(Semaphore::new(0)), Arc::new(Semaphore::new(0)));
                let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
                let releaser = pkg.spawn_typed("releaser", move || {
                    for _ in 0..1000 {
                        ping2.acquire();
                        pong2.release();
                    }
                });
                let mut most = 0;
                for _ in 0..1000 {
                    ping.release();
                    assert!(pong.acquire_timeout(Duration::from_millis(100)));
                    // Blocked threads right now: none (this one runs).
                    most = most.max(timers(&pkg));
                }
                releaser.join().expect("releaser");
                assert!(most <= 1, "{most} timers queued at once");
                pkg.yield_now(); // one scheduler pass to publish the gauge
                assert_eq!(timers(&pkg), 0);
            });
        }
    }

    /// A wait nobody ends still times out, on time; sleeps still fire in
    /// deadline order.
    #[test]
    fn unreleased_timed_wait_and_sleeps_keep_their_deadlines() {
        UserRuntime::default().run(|pkg| {
            let sem = Semaphore::new(0);
            let start = Instant::now();
            assert!(!sem.acquire_timeout(Duration::from_millis(40)));
            let waited = start.elapsed();
            assert!(
                waited >= Duration::from_millis(40) && waited < Duration::from_millis(50),
                "{waited:?}"
            );
            let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sleepers: Vec<_> = [30u64, 10, 20]
                .into_iter()
                .map(|ms| {
                    let (pkg2, order) = (pkg.clone(), Arc::clone(&order));
                    pkg.spawn_typed("sleeper", move || {
                        pkg2.sleep(Duration::from_millis(ms));
                        order.lock().push(ms);
                    })
                })
                .collect();
            for s in sleepers {
                s.join().expect("sleeper");
            }
            assert_eq!(*order.lock(), [10, 20, 30]);
        });
    }
}
