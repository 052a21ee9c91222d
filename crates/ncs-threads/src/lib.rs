//! Thread-package substrate for the NCS message-passing system.
//!
//! The NCS paper (Park, Lee, Hariri 1998) evaluates its runtime over two
//! thread-package architectures:
//!
//! * a **user-level** package (QuickThreads over Solaris) — threads are
//!   multiplexed onto one OS thread by a cooperative scheduler, so context
//!   switches and synchronisation are cheap, but a blocking system call
//!   stalls the whole process; and
//! * a **kernel-level** package (Pthreads over Solaris) — the OS schedules
//!   threads, so switches are slower but a blocked thread does not prevent
//!   others from running (computation/communication overlap).
//!
//! This crate reproduces both behind one [`ThreadPackage`] trait:
//!
//! * [`UserPackage`] / [`UserRuntime`] — an M:1 green-thread scheduler with
//!   a hand-written x86_64 context switch (the QuickThreads analogue), plus
//!   a portable condvar-handoff mechanism with identical semantics; and
//! * [`KernelPackage`] — a thin veneer over [`std::thread`].
//!
//! The [`sync`] module provides package-aware primitives ([`sync::Semaphore`],
//! [`sync::Event`], [`sync::NcsMutex`], [`sync::Mailbox`]): when called from a
//! green thread they cooperate with the scheduler; from any other thread they
//! fall back to OS blocking. All higher NCS layers block **only** through
//! these primitives — waits on sockets too ([`sync::wait_fd`]) — which is
//! what lets the same protocol code run unchanged over either package —
//! exactly the property the paper measures in Figures 10 and 11.
//!
//! # Example
//!
//! ```
//! use ncs_threads::{UserRuntime, ThreadPackageExt};
//! use ncs_threads::sync::Mailbox;
//! use std::sync::Arc;
//!
//! let sum = UserRuntime::default().run(|pkg| {
//!     let mbox = Arc::new(Mailbox::unbounded());
//!     let tx = Arc::clone(&mbox);
//!     let producer = pkg.spawn_typed("producer", move || {
//!         for i in 0..10u64 {
//!             tx.send(i);
//!         }
//!     });
//!     let mut sum = 0;
//!     for _ in 0..10 {
//!         sum += mbox.recv();
//!     }
//!     producer.join().expect("producer panicked");
//!     sum
//! });
//! assert_eq!(sum, 45);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod context;
mod injector;
mod kernel;
mod pkg;
mod poll;
mod scheduler;
mod stack;
mod stats;
pub mod sync;
mod tcb;
mod timer;
mod user;

pub use kernel::KernelPackage;
pub use pkg::{
    JoinError, JoinHandle, PackageKind, SpawnOptions, ThreadPackage, ThreadPackageExt,
    TypedJoinHandle,
};
pub use stats::PackageStats;
pub use user::{SwitchMech, UserConfig, UserPackage, UserRuntime};
