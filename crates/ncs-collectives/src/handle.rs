//! Nonblocking completion handles and collective errors.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use ncs_core::{Completion, SendError};
use ncs_threads::sync::Event;
use parking_lot::Mutex;

use crate::datatype::{from_bytes, Scalar};

/// Errors from collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// The group (or an underlying connection) was closed.
    Closed,
    /// The world's membership view changed (a member died, left, or
    /// joined) while this operation was in flight. The group's topology
    /// no longer matches reality: close this group and build a fresh one
    /// against the new view (see `ncs-runtime`'s membership module),
    /// then retry the operation there.
    ViewChanged {
        /// The membership epoch that invalidated the group.
        epoch: u64,
    },
    /// The operation did not complete in time — usually a member that
    /// never issued the matching call.
    Timeout,
    /// A group link failed.
    Send(SendError),
    /// Invalid argument (root out of range, non-divisible scatter payload).
    BadArg(String),
    /// Members disagreed about the operation (mismatched contribution
    /// sizes, malformed frames) or a result was consumed twice.
    Protocol(String),
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::Closed => write!(f, "collective group closed"),
            CollectiveError::ViewChanged { epoch } => {
                write!(f, "group view changed (epoch {epoch}); rebuild the group")
            }
            CollectiveError::Timeout => write!(f, "collective operation timed out"),
            CollectiveError::Send(e) => write!(f, "group link failure: {e}"),
            CollectiveError::BadArg(why) => write!(f, "bad collective argument: {why}"),
            CollectiveError::Protocol(why) => write!(f, "collective protocol violation: {why}"),
        }
    }
}

impl std::error::Error for CollectiveError {}

impl From<SendError> for CollectiveError {
    fn from(e: SendError) -> Self {
        match e {
            SendError::Closed => CollectiveError::Closed,
            SendError::Timeout => CollectiveError::Timeout,
            other => CollectiveError::Send(other),
        }
    }
}

/// The engine's completion slot for one submitted operation.
pub(crate) struct OpCompletion {
    result: Mutex<Option<Result<Vec<u8>, CollectiveError>>>,
    done: Event,
    /// Wait-set subscribers ([`Completion::subscribe`]), drained on
    /// completion.
    notify: Mutex<Vec<ncs_core::CompletionNotify>>,
}

impl std::fmt::Debug for OpCompletion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpCompletion")
            .field("complete", &self.done.is_fired())
            .finish()
    }
}

impl OpCompletion {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(OpCompletion {
            result: Mutex::new(None),
            done: Event::new(),
            notify: Mutex::new(Vec::new()),
        })
    }

    pub(crate) fn complete(&self, r: Result<Vec<u8>, CollectiveError>) {
        *self.result.lock() = Some(r);
        self.done.fire();
        for n in self.notify.lock().drain(..) {
            n();
        }
    }

    fn subscribe(&self, notify: ncs_core::CompletionNotify) {
        {
            let mut list = self.notify.lock();
            if !self.done.is_fired() {
                list.push(notify);
                return;
            }
        }
        notify();
    }
}

/// A value a collective can resolve to (the byte payload the engine
/// produced, decoded for the caller).
pub trait CollectiveResult: Sized {
    /// Decodes the engine's result payload.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Protocol`] when the payload does not decode.
    fn from_payload(bytes: Vec<u8>) -> Result<Self, CollectiveError>;
}

impl CollectiveResult for () {
    fn from_payload(_bytes: Vec<u8>) -> Result<Self, CollectiveError> {
        Ok(())
    }
}

impl<T: Scalar> CollectiveResult for Vec<T> {
    fn from_payload(bytes: Vec<u8>) -> Result<Self, CollectiveError> {
        from_bytes(&bytes)
    }
}

/// Handle to an in-flight nonblocking collective.
///
/// The operation advances on the node's event loops, where its frames
/// arrive; the issuing thread is free to compute until it calls
/// [`CollectiveHandle::wait`].
/// [`CollectiveHandle::test`] polls without blocking. The result can be
/// taken exactly once; a second `wait` reports
/// [`CollectiveError::Protocol`].
#[derive(Debug)]
pub struct CollectiveHandle<R: CollectiveResult> {
    completion: Arc<OpCompletion>,
    _result: PhantomData<fn() -> R>,
}

impl<R: CollectiveResult> CollectiveHandle<R> {
    pub(crate) fn new(completion: Arc<OpCompletion>) -> Self {
        CollectiveHandle {
            completion,
            _result: PhantomData,
        }
    }

    /// Whether the operation has completed (successfully or not). Never
    /// blocks.
    pub fn test(&self) -> bool {
        self.completion.done.is_fired()
    }

    /// Blocks until the operation completes and takes its result.
    ///
    /// # Errors
    ///
    /// The operation's error, or [`CollectiveError::Protocol`] if the
    /// result was already taken.
    pub fn wait(&self) -> Result<R, CollectiveError> {
        self.completion.done.wait();
        self.take_result()
    }

    /// [`CollectiveHandle::wait`] with a deadline. On
    /// [`CollectiveError::Timeout`] the handle remains usable — the
    /// operation keeps progressing and a later wait can still take the
    /// result.
    ///
    /// # Errors
    ///
    /// As [`CollectiveHandle::wait`], plus [`CollectiveError::Timeout`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<R, CollectiveError> {
        if !self.completion.done.wait_timeout(timeout) {
            return Err(CollectiveError::Timeout);
        }
        self.take_result()
    }

    fn take_result(&self) -> Result<R, CollectiveError> {
        let bytes = self
            .completion
            .result
            .lock()
            .take()
            .ok_or_else(|| CollectiveError::Protocol("result already taken".to_owned()))??;
        R::from_payload(bytes)
    }
}

/// Collective handles share the point-to-point [`Completion`] model, so a
/// heterogeneous [`ncs_core::wait_any`] / [`ncs_core::wait_all`] set can
/// mix an `iallreduce` with `isend`/`irecv` requests and drive both from
/// one application loop.
impl<R: CollectiveResult> Completion for CollectiveHandle<R> {
    fn is_complete(&self) -> bool {
        self.completion.done.is_fired()
    }

    fn wait_complete(&self, timeout: Duration) -> bool {
        self.completion.done.wait_timeout(timeout)
    }

    fn subscribe(&self, notify: ncs_core::CompletionNotify) {
        self.completion.subscribe(notify);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_resolves_once() {
        let c = OpCompletion::new();
        let h: CollectiveHandle<Vec<u32>> = CollectiveHandle::new(Arc::clone(&c));
        assert!(!h.test());
        assert_eq!(
            h.wait_timeout(Duration::from_millis(10)),
            Err(CollectiveError::Timeout)
        );
        c.complete(Ok(crate::datatype::to_bytes(&[5u32])));
        assert!(h.test());
        assert_eq!(h.wait().unwrap(), vec![5]);
        assert!(matches!(h.wait(), Err(CollectiveError::Protocol(_))));
    }

    #[test]
    fn handle_surfaces_errors() {
        let c = OpCompletion::new();
        let h: CollectiveHandle<()> = CollectiveHandle::new(Arc::clone(&c));
        c.complete(Err(CollectiveError::Closed));
        assert_eq!(h.wait(), Err(CollectiveError::Closed));
    }

    #[test]
    fn handle_joins_heterogeneous_wait_sets() {
        let c = OpCompletion::new();
        let h: CollectiveHandle<()> = CollectiveHandle::new(Arc::clone(&c));
        let set: [&dyn Completion; 1] = [&h];
        assert!(!ncs_core::test_all(&set));
        assert_eq!(ncs_core::wait_any(&set, Duration::from_millis(5)), None);
        c.complete(Ok(Vec::new()));
        assert_eq!(ncs_core::wait_any(&set, Duration::from_secs(1)), Some(0));
        assert!(ncs_core::wait_all(&set, Duration::from_secs(1)));
    }

    #[test]
    fn error_conversions_and_display() {
        assert_eq!(
            CollectiveError::from(SendError::Closed),
            CollectiveError::Closed
        );
        assert_eq!(
            CollectiveError::from(SendError::Timeout),
            CollectiveError::Timeout
        );
        assert!(matches!(
            CollectiveError::from(SendError::Empty),
            CollectiveError::Send(_)
        ));
        assert!(!CollectiveError::Timeout.to_string().is_empty());
    }
}
