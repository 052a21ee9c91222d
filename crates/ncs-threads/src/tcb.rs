//! Thread control blocks for green threads.

use std::cell::UnsafeCell;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::context::Context;
use crate::injector::WakeReason;
use crate::stack::Stack;

/// Identifier of a green thread, unique within its [`crate::UserPackage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TcbId(pub u64);

impl std::fmt::Display for TcbId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "green-{}", self.0)
    }
}

/// Lifecycle state of a green thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunState {
    /// Created, waiting for its first activation.
    New,
    /// On the run queue.
    Ready,
    /// Currently executing.
    Running,
    /// Waiting for a wake delivered through the injector.
    Blocked,
    /// Body returned (or panicked); resources may be reclaimed.
    Finished,
    /// Scheduler shut down before the thread finished; it will never run
    /// again (daemon threads only).
    Abandoned,
}

/// Mutable, lock-protected part of a TCB.
#[derive(Debug)]
pub(crate) struct TcbShared {
    pub state: RunState,
    /// Reason delivered by the wake that moved us Blocked -> Ready.
    pub wake_reason: Option<WakeReason>,
}

/// A green thread's control block.
///
/// The `ctx`/`stack` fields are only touched by the scheduler's OS thread
/// (native switch mechanism) and are never accessed concurrently; the
/// portable mechanism never touches them at all. The `shared` part is
/// lock-protected and drives the portable condvar handshake.
pub(crate) struct Tcb {
    id: TcbId,
    name: String,
    daemon: bool,
    pub(crate) shared: Mutex<TcbShared>,
    /// Condvar for the portable handoff (scheduler <-> green OS thread) —
    /// notified on every state transition.
    pub(crate) cv: Condvar,
    /// Machine context (native mechanism only).
    pub(crate) ctx: UnsafeCell<Context>,
    /// Stack (native mechanism only).
    pub(crate) stack: UnsafeCell<Option<Stack>>,
    /// Thread body, taken exactly once at first activation.
    pub(crate) body: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    /// Requested stack size (native) — kept for diagnostics.
    pub(crate) stack_size: usize,
}

// SAFETY: `ctx` and `stack` are UnsafeCell-wrapped but are only accessed by
// the scheduler OS thread under the native mechanism (green code runs *on*
// that same OS thread, so there is no concurrency), and never under the
// portable mechanism. Everything else is lock-protected.
unsafe impl Send for Tcb {}
unsafe impl Sync for Tcb {}

impl Tcb {
    pub(crate) fn new(
        id: TcbId,
        name: String,
        daemon: bool,
        stack_size: usize,
        body: Box<dyn FnOnce() + Send>,
    ) -> Arc<Self> {
        Arc::new(Tcb {
            id,
            name,
            daemon,
            shared: Mutex::new(TcbShared {
                state: RunState::New,
                wake_reason: None,
            }),
            cv: Condvar::new(),
            ctx: UnsafeCell::new(Context::empty()),
            stack: UnsafeCell::new(None),
            body: Mutex::new(Some(body)),
            stack_size,
        })
    }

    pub(crate) fn id(&self) -> TcbId {
        self.id
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn is_daemon(&self) -> bool {
        self.daemon
    }

    pub(crate) fn state(&self) -> RunState {
        self.shared.lock().state
    }

    pub(crate) fn set_state(&self, state: RunState) {
        let mut sh = self.shared.lock();
        sh.state = state;
        self.cv.notify_all();
    }

    /// Takes the wake reason recorded by the most recent wake, defaulting to
    /// `Normal` for wakes that predate reason recording.
    pub(crate) fn take_wake_reason(&self) -> WakeReason {
        self.shared
            .lock()
            .wake_reason
            .take()
            .unwrap_or(WakeReason::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tcb_starts_in_new_state() {
        let tcb = Tcb::new(TcbId(1), "t".into(), false, 0, Box::new(|| {}));
        assert_eq!(tcb.state(), RunState::New);
        assert_eq!(tcb.id(), TcbId(1));
        assert_eq!(tcb.name(), "t");
        assert!(!tcb.is_daemon());
    }

    #[test]
    fn wake_reason_defaults_to_normal() {
        let tcb = Tcb::new(TcbId(2), "t".into(), true, 0, Box::new(|| {}));
        assert_eq!(tcb.take_wake_reason(), WakeReason::Normal);
        tcb.shared.lock().wake_reason = Some(WakeReason::Timeout);
        assert_eq!(tcb.take_wake_reason(), WakeReason::Timeout);
        assert_eq!(tcb.take_wake_reason(), WakeReason::Normal);
    }

    #[test]
    fn display_of_id() {
        assert_eq!(TcbId(9).to_string(), "green-9");
    }
}
