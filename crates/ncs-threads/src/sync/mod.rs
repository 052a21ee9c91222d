//! Package-aware synchronisation primitives.
//!
//! Every primitive here has two blocking paths chosen automatically at run
//! time:
//!
//! * **green path** — the caller is a green thread of a [`crate::UserPackage`]
//!   scheduler: blocking suspends only that green thread and hands control
//!   back to the scheduler (cooperative, cheap);
//! * **foreign path** — any other OS thread (including all threads of a
//!   [`crate::KernelPackage`]): blocking parks the OS thread on a condvar.
//!
//! NCS protocol code blocks *only* through these primitives, which is what
//! lets the identical code run over either thread package — the property the
//! paper's Figures 10/11 measure. Waits on a descriptor (socket I/O) go
//! through [`wait_fd`], which parks a green thread in its scheduler: the
//! scheduler polls the descriptor, where the paper's §4.1 user-level
//! package polls it with non-blocking calls and `thread_yield()`.

mod event;
mod mailbox;
mod mutex;
mod sem;
mod wait;

pub use crate::poll::{POLLIN, POLLOUT};
pub use event::Event;
pub use mailbox::{Mailbox, NotifyFn, RecvTimeoutError, TrySendError};
pub use mutex::{NcsMutex, NcsMutexGuard};
pub use sem::Semaphore;
pub use wait::{sleep, wait_fd, wait_fds};

pub(crate) use sem::SemInner;
