//! The [`ThreadPackage`] abstraction: NCS protocol code is written against
//! this trait so the identical runtime can execute over the user-level or
//! the kernel-level package (the comparison of the paper's Figures 10/11).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::stats::PackageStats;
use crate::sync::Event;

/// The architecture of a thread package, per the paper's §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackageKind {
    /// Threads multiplexed in user space (QuickThreads analogue): cheap
    /// switches, but a blocking system call stalls the process.
    UserLevel,
    /// OS-scheduled threads (Pthreads analogue): dearer switches, blocked
    /// threads overlap with running ones.
    KernelLevel,
}

impl std::fmt::Display for PackageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackageKind::UserLevel => write!(f, "user-level"),
            PackageKind::KernelLevel => write!(f, "kernel-level"),
        }
    }
}

/// Options for spawning a thread (C-BUILDER).
#[derive(Debug, Clone)]
pub struct SpawnOptions {
    name: String,
    stack_size: Option<usize>,
    daemon: bool,
}

impl SpawnOptions {
    /// Options for a thread called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SpawnOptions {
            name: name.into(),
            stack_size: None,
            daemon: false,
        }
    }

    /// Overrides the default stack size (user-level package only; the kernel
    /// package forwards it to [`std::thread::Builder::stack_size`]).
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Marks the thread as a daemon: a user-level scheduler will not wait
    /// for it before shutting down. Kernel threads are always daemon-like.
    pub fn daemon(mut self, daemon: bool) -> Self {
        self.daemon = daemon;
        self
    }

    /// The thread name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The requested stack size, if overridden.
    pub fn stack_size_bytes(&self) -> Option<usize> {
        self.stack_size
    }

    /// Whether the thread is a daemon.
    pub fn is_daemon(&self) -> bool {
        self.daemon
    }
}

/// Why joining a thread failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The thread's body panicked; carries the panic message.
    Panicked(String),
    /// The owning runtime shut down before the thread could run.
    RuntimeShutdown,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(msg) => write!(f, "thread panicked: {msg}"),
            JoinError::RuntimeShutdown => write!(f, "runtime shut down before the thread ran"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Completion handle for a spawned thread. Waiting works from green threads
/// and OS threads alike (it blocks through [`Event`]).
#[derive(Debug, Clone)]
pub struct JoinHandle {
    pub(crate) finished: Arc<Event>,
    pub(crate) error: Arc<Mutex<Option<JoinError>>>,
}

impl JoinHandle {
    pub(crate) fn pair() -> (JoinHandle, JoinHandle) {
        let h = JoinHandle {
            finished: Arc::new(Event::new()),
            error: Arc::new(Mutex::new(None)),
        };
        (h.clone(), h)
    }

    pub(crate) fn complete(&self, error: Option<JoinError>) {
        *self.error.lock() = error;
        self.finished.fire();
    }

    /// Waits for the thread to finish.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Panicked`] if the thread panicked, or
    /// [`JoinError::RuntimeShutdown`] if it never ran.
    pub fn join(&self) -> Result<(), JoinError> {
        self.finished.wait();
        match self.error.lock().clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Waits up to `timeout`; `None` means the thread is still running.
    pub fn join_timeout(&self, timeout: Duration) -> Option<Result<(), JoinError>> {
        if !self.finished.wait_timeout(timeout) {
            return None;
        }
        Some(match self.error.lock().clone() {
            Some(e) => Err(e),
            None => Ok(()),
        })
    }

    /// Whether the thread has finished (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.finished.is_fired()
    }
}

/// Typed completion handle produced by [`ThreadPackageExt::spawn_typed`].
#[derive(Debug)]
pub struct TypedJoinHandle<R> {
    pub(crate) handle: JoinHandle,
    pub(crate) slot: Arc<Mutex<Option<R>>>,
}

impl<R> TypedJoinHandle<R> {
    /// Waits for the thread and returns its result.
    ///
    /// # Errors
    ///
    /// Returns the [`JoinError`] if the thread panicked or never ran.
    pub fn join(self) -> Result<R, JoinError> {
        self.handle.join()?;
        Ok(self
            .slot
            .lock()
            .take()
            .expect("thread finished without storing its result"))
    }

    /// Whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// The untyped handle (cloneable, shareable).
    pub fn handle(&self) -> &JoinHandle {
        &self.handle
    }
}

/// A thread package: spawning, yielding and sleeping, per the paper's two
/// architectures. Implemented by [`crate::UserPackage`] and
/// [`crate::KernelPackage`].
pub trait ThreadPackage: Send + Sync + std::fmt::Debug {
    /// Which architecture this package implements.
    fn kind(&self) -> PackageKind;

    /// Spawns a thread with explicit options.
    fn spawn_with(&self, opts: SpawnOptions, f: Box<dyn FnOnce() + Send>) -> JoinHandle;

    /// Cooperatively yields the current thread.
    fn yield_now(&self);

    /// Sleeps without stalling sibling threads of this package (green sleep
    /// on the user package, OS sleep on the kernel package):
    /// [`crate::sync::sleep`].
    fn sleep(&self, dur: Duration) {
        crate::sync::sleep(dur);
    }

    /// Activity counters.
    fn stats(&self) -> PackageStats;

    /// Spawns a named thread with default options.
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> JoinHandle {
        self.spawn_with(SpawnOptions::new(name), f)
    }
}

/// Generic conveniences over any [`ThreadPackage`] (object-safe trait +
/// blanket extension, so `Arc<dyn ThreadPackage>` keeps full ergonomics).
pub trait ThreadPackageExt: ThreadPackage {
    /// Spawns a thread returning `R`; the result is retrieved via
    /// [`TypedJoinHandle::join`].
    fn spawn_typed<R, F>(&self, name: &str, f: F) -> TypedJoinHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.spawn_typed_with(SpawnOptions::new(name), f)
    }

    /// [`ThreadPackageExt::spawn_typed`] with explicit options.
    fn spawn_typed_with<R, F>(&self, opts: SpawnOptions, f: F) -> TypedJoinHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let handle = self.spawn_with(
            opts,
            Box::new(move || {
                let r = f();
                *slot2.lock() = Some(r);
            }),
        );
        TypedJoinHandle { handle, slot }
    }
}

impl<T: ThreadPackage + ?Sized> ThreadPackageExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_kind_display() {
        assert_eq!(PackageKind::UserLevel.to_string(), "user-level");
        assert_eq!(PackageKind::KernelLevel.to_string(), "kernel-level");
    }

    #[test]
    fn spawn_options_builder() {
        let o = SpawnOptions::new("x").stack_size(1024).daemon(true);
        assert_eq!(o.name(), "x");
        assert_eq!(o.stack_size_bytes(), Some(1024));
        assert!(o.is_daemon());
    }

    #[test]
    fn join_handle_completion_flow() {
        let (a, b) = JoinHandle::pair();
        assert!(!a.is_finished());
        assert!(a.join_timeout(Duration::from_millis(10)).is_none());
        b.complete(None);
        assert!(a.is_finished());
        assert_eq!(a.join(), Ok(()));
    }

    #[test]
    fn join_handle_reports_panic() {
        let (a, b) = JoinHandle::pair();
        b.complete(Some(JoinError::Panicked("boom".into())));
        assert_eq!(a.join(), Err(JoinError::Panicked("boom".into())));
    }

    #[test]
    fn panic_message_extracts_strings() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(payload.as_ref()), "static str");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(payload.as_ref()), "owned");
        let payload: Box<dyn std::any::Any + Send> = Box::new(77u8);
        assert_eq!(
            panic_message(payload.as_ref()),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn join_error_display() {
        assert!(JoinError::Panicked("x".into()).to_string().contains('x'));
        assert!(!JoinError::RuntimeShutdown.to_string().is_empty());
    }
}
