//! The nonblocking request/completion model.
//!
//! The paper's thesis is that multithreading lets applications overlap
//! computation with communication — but the original point-to-point
//! surface was blocking `send`/`recv` while collectives exposed
//! nonblocking handles: two incompatible completion models, no way to
//! wait on a mixed set. This module unifies them:
//!
//! * [`Request`] — the handle returned by
//!   [`NcsConnection::isend`](crate::NcsConnection::isend) /
//!   [`NcsConnection::irecv`](crate::NcsConnection::irecv) (and their
//!   tag-matched variants). `Request<()>` completes when a send is
//!   delivered (or transmitted, on bypass configurations);
//!   `Request<MsgView>` completes with a received message.
//! * [`MsgView`] — a pooled, zero-copy view of a received message:
//!   dereferences to `&[u8]`, returns its buffer to the node's
//!   [`BufPool`](crate::BufPool) on drop, and offers
//!   [`MsgView::into_vec`] as the owning escape hatch.
//! * [`Completion`] — the completion-model trait `Request` shares with
//!   `ncs_collectives::CollectiveHandle`, so one application loop can
//!   drive point-to-point traffic and collectives together.
//! * [`wait_any`] / [`wait_all`] / [`test_all`] — free functions over
//!   heterogeneous `&[&dyn Completion]` sets.
//!
//! The blocking primitives (`recv`, `recv_timeout`, `Channel::send`, …)
//! are thin waits on requests, and a blocking send is
//! `isend(..)?.wait()`: there is one completion path through the runtime.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::thread::LocalKey;
use std::time::{Duration, Instant};

use ncs_threads::sync::Event;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::connection::{ConnShared, SendError};
use crate::pool::PooledBuf;

// ---------------------------------------------------------------------------
// Completion trait + heterogeneous wait sets
// ---------------------------------------------------------------------------

/// Callback registered through [`Completion::subscribe`], invoked (once)
/// when the operation completes.
pub type CompletionNotify = Arc<dyn Fn() + Send + Sync>;

/// The unified completion model: anything an application can test or wait
/// on — point-to-point [`Request`]s and collective handles alike.
///
/// Implementations block *cooperatively* (package-aware events), so the
/// same waiting loop runs under both the kernel-level and the user-level
/// thread package.
pub trait Completion {
    /// Whether the operation has completed (successfully or not). Never
    /// blocks.
    fn is_complete(&self) -> bool;

    /// Blocks up to `timeout` for completion; returns whether the
    /// operation is complete on return.
    fn wait_complete(&self, timeout: Duration) -> bool;

    /// Registers `notify` to run when the operation completes — or
    /// immediately, if it already has.
    ///
    /// This is what lets a heterogeneous [`wait_any`] set park on one
    /// shared event instead of sweeping the set on a poll timer.
    fn subscribe(&self, notify: CompletionNotify);
}

/// Polls a heterogeneous completion set without blocking: `true` when
/// *every* member has completed.
pub fn test_all(set: &[&dyn Completion]) -> bool {
    set.iter().all(|c| c.is_complete())
}

/// Blocks until *any* member of the set completes, returning its index
/// (the first complete member on ties), or `None` if `timeout` elapses
/// first. An empty set returns `None` immediately.
///
/// This is the overlap primitive: an application thread can park on one
/// `wait_any` over an `irecv`, an `iallreduce` and an `isend` and react
/// to whichever finishes first.
///
/// Every member [`subscribe`](Completion::subscribe)s the call to one
/// shared event, so the waiting thread truly parks — zero CPU until a
/// completion fires — rather than sweeping the set on a poll timer.
///
/// A member stays "complete" once it fires, so a loop that calls
/// `wait_any` repeatedly must drop already-collected members from the
/// set (or switch to [`wait_all`] for the stragglers) — otherwise the
/// same index wins every call.
pub fn wait_any(set: &[&dyn Completion], timeout: Duration) -> Option<usize> {
    if set.is_empty() {
        return None;
    }
    // Sweep first: subscription is pointless when something already fired.
    for (i, c) in set.iter().enumerate() {
        if c.is_complete() {
            return Some(i);
        }
    }
    let deadline = Instant::now().checked_add(timeout);
    // One shared event; every member pings it on completion. The event is
    // one-shot, but wait_any returns on the first completion, so one shot
    // is all it takes.
    let fired = Arc::new(Event::new());
    for c in set {
        let ev = Arc::clone(&fired);
        c.subscribe(Arc::new(move || ev.fire()));
    }
    loop {
        for (i, c) in set.iter().enumerate() {
            if c.is_complete() {
                return Some(i);
            }
        }
        let left = time_left(deadline);
        if left.is_zero() {
            return None;
        }
        fired.wait_timeout(left);
    }
}

/// Blocks until *every* member of the set completes, or `timeout`
/// elapses; returns whether all completed. An empty set is trivially
/// complete.
pub fn wait_all(set: &[&dyn Completion], timeout: Duration) -> bool {
    let deadline = Instant::now().checked_add(timeout);
    for c in set {
        loop {
            if c.is_complete() {
                break;
            }
            let left = time_left(deadline);
            if left.is_zero() {
                return false;
            }
            c.wait_complete(left);
        }
    }
    true
}

/// What is left until `deadline`; no deadline (a timeout beyond what the
/// clock can tell, such as [`Duration::MAX`]) leaves all the time there is.
pub(crate) fn time_left(deadline: Option<Instant>) -> Duration {
    deadline.map_or(Duration::MAX, |d| {
        d.saturating_duration_since(Instant::now())
    })
}

// ---------------------------------------------------------------------------
// MsgView
// ---------------------------------------------------------------------------

/// Where a received message's bytes are.
#[derive(Debug)]
pub(crate) enum MsgBody {
    /// A buffer of its own.
    Own(PooledBuf),
    /// A record of a train: its range of the train's body, which the
    /// records share, and which returns to the pool with the last of them.
    Record(Arc<PooledBuf>, std::ops::Range<usize>),
}

impl MsgBody {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            MsgBody::Own(buf) => buf.as_slice(),
            MsgBody::Record(train, range) => &train.as_slice()[range.clone()],
        }
    }
}

/// A received message, viewed in place.
///
/// Receive completion hands back a `MsgView` instead of a `Vec<u8>`: the
/// bytes live in a buffer checked out of the node's
/// [`BufPool`](crate::BufPool) wherever the receive path could assemble
/// there — the message's own, or the body of the train it rode in — and
/// dropping the view recycles that buffer. Dereference for zero-copy
/// reads; [`MsgView::into_vec`] copies the bytes out to an owning `Vec`
/// when they must outlive the view.
#[derive(Debug)]
pub struct MsgView {
    body: MsgBody,
    /// Payload start within `body` (skips the tag envelope on tag-matched
    /// messages).
    start: usize,
    /// The tag this message was routed on, if it was tag-matched (the
    /// delivery-shard routing key — see [`MsgView::tag`]).
    tag: Option<u32>,
}

impl MsgView {
    pub(crate) fn new(body: MsgBody, start: usize, tag: Option<u32>) -> Self {
        MsgView { body, start, tag }
    }

    /// The message payload.
    pub fn as_slice(&self) -> &[u8] {
        &self.body.bytes()[self.start..]
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.body.bytes().len() - self.start
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tag this message was matched on ([`None`] for untagged
    /// traffic).
    ///
    /// The tag is the delivery queue's routing key: the reactor task that
    /// runs the connection's receive plane strips the 4-byte tag envelope
    /// during reassembly and routes the message to the tag's **delivery
    /// shard** — one of [`DELIVERY_SHARDS`] independent lock + waiter-list
    /// domains — where it matches the oldest parked `irecv_tagged` in
    /// per-tag FIFO order. Tags with the top bit set
    /// (`0x8000_0000..=0xFFFF_FFFF`) are the tag-class reserved for
    /// [`Channel`](crate::Channel) handles; plain `isend_tagged` /
    /// `irecv_tagged` callers should stay below it.
    pub fn tag(&self) -> Option<u32> {
        self.tag
    }

    /// Copies the payload out to an owning `Vec<u8>`, of the payload's
    /// length, and returns the buffer to the pool: a pooled buffer handed
    /// over instead would leave the pool one to replace, of its full
    /// capacity, for a payload of any size.
    pub fn into_vec(self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for MsgView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for MsgView {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq<[u8]> for MsgView {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for MsgView {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

// ---------------------------------------------------------------------------
// Request core + public handle
// ---------------------------------------------------------------------------

/// Shared completion slot behind a [`Request`]: the runtime side calls
/// [`RequestCore::complete`] exactly once; the application side tests,
/// waits and takes the result.
pub(crate) struct RequestCore<T> {
    done: Event,
    result: Mutex<Option<Result<T, SendError>>>,
    /// Wait-set subscribers ([`Completion::subscribe`]), drained on
    /// completion.
    notify: Mutex<Vec<CompletionNotify>>,
}

impl<T> std::fmt::Debug for RequestCore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestCore")
            .field("complete", &self.done.is_fired())
            .finish()
    }
}

impl<T> RequestCore<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RequestCore {
            done: Event::new(),
            result: Mutex::new(None),
            notify: Mutex::new(Vec::new()),
        })
    }

    /// Makes the core as new: unfired, with no result and no subscribers
    /// (their list keeps its storage). `&mut`: nobody else holds it.
    fn reset(&mut self) {
        self.done.reset();
        *self.result.get_mut() = None;
        self.notify.get_mut().clear();
    }

    /// Resolves the request. The first call wins; later calls are ignored
    /// (a request can race between e.g. a delivery and a teardown). Both
    /// guards matter: `slot.is_some()` rejects a racing completer that
    /// stored its result but has not fired yet, and `done.is_fired()`
    /// rejects completion after the result was already taken.
    pub(crate) fn complete(&self, r: Result<T, SendError>) {
        let mut slot = self.result.lock();
        if slot.is_some() || self.done.is_fired() {
            return;
        }
        *slot = Some(r);
        drop(slot);
        self.done.fire();
        // Drain after the fire: a subscriber that checked `is_fired`
        // first (and skipped the list) saw completion; one that enqueued
        // under the lock is seen here. Either way nothing is lost.
        for n in self.notify.lock().drain(..) {
            n();
        }
    }

    /// Registers a wait-set notifier (runs now if already complete).
    pub(crate) fn subscribe(&self, notify: CompletionNotify) {
        {
            let mut list = self.notify.lock();
            if !self.done.is_fired() {
                list.push(notify);
                return;
            }
        }
        notify();
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.done.is_fired()
    }

    /// Takes the result out (None when already taken).
    pub(crate) fn take(&self) -> Option<Result<T, SendError>> {
        self.result.lock().take()
    }

    /// Puts an unconsumed successful result back (cancellation recovery).
    pub(crate) fn take_value(&self) -> Option<T> {
        match self.result.lock().take() {
            Some(Ok(v)) => Some(v),
            Some(Err(_)) | None => None,
        }
    }
}

/// Cancellation hook a request runs when dropped, with its connection and
/// tag (receive requests unregister from their connection's delivery
/// queue; abandoned-but-completed messages requeue).
type CancelFn<T> = fn(&ConnShared, Option<u32>, &Arc<RequestCore<T>>);

/// Cores a thread's requests let go of, for its next request of the type.
type FreeCores<T> = RefCell<Vec<Arc<RequestCore<T>>>>;

/// The most cores a thread keeps per request type.
const FREE_CORES: usize = 256;

thread_local! {
    pub(crate) static FREE_SENDS: FreeCores<()> = const { RefCell::new(Vec::new()) };
    pub(crate) static FREE_RECEIVES: FreeCores<MsgView> = const { RefCell::new(Vec::new()) };
}

/// A nonblocking operation in flight.
///
/// Returned by [`NcsConnection::isend`](crate::NcsConnection::isend),
/// [`NcsConnection::irecv`](crate::NcsConnection::irecv) and their
/// tag-matched variants. The issuing thread is free to compute;
/// [`Request::test`] polls, [`Request::wait`] blocks (cooperatively under
/// either thread package), and the result can be taken exactly once — a
/// second `wait` reports [`SendError::ResultTaken`].
///
/// `Request` implements [`Completion`], so it can enter heterogeneous
/// [`wait_any`] / [`wait_all`] sets next to collective handles.
///
/// Dropping an unconsumed receive request cancels it: a message that had
/// already matched the request is requeued for the next receiver, and a
/// parked request simply unregisters.
///
/// # Example
///
/// ```
/// use ncs_core::{ConnectionConfig, NcsNode};
/// use ncs_core::link::HpiLinkPair;
///
/// let alice = NcsNode::builder("alice").build();
/// let bob = NcsNode::builder("bob").build();
/// let (la, lb) = HpiLinkPair::create();
/// alice.attach_peer("bob", la);
/// bob.attach_peer("alice", lb);
/// let conn_a = alice.connect("bob", ConnectionConfig::reliable()).unwrap();
/// let conn_b = bob.accept_default().unwrap();
///
/// let want = conn_b.irecv(); // post the receive first
/// let sent = conn_a.isend(b"overlap").unwrap();
/// // ... compute here while the runtime's threads move the bytes ...
/// assert_eq!(sent.wait(), Ok(()));
/// assert_eq!(&*want.wait().unwrap(), b"overlap");
/// # alice.shutdown(); bob.shutdown();
/// ```
pub struct Request<T: 'static> {
    pub(crate) core: Arc<RequestCore<T>>,
    /// Run when the request is dropped unconsumed: a receive unregisters.
    pub(crate) cancel: Option<CancelFn<T>>,
    /// The connection that issued the request, whose task a waiting
    /// thread runs itself when it is idle ([`ConnShared::drive`]), and a
    /// receive's tag.
    pub(crate) conn: Option<Arc<ConnShared>>,
    pub(crate) tag: Option<u32>,
    /// The free list the core goes to when this request lets go of it
    /// last.
    free: Option<&'static LocalKey<FreeCores<T>>>,
}

impl<T> std::fmt::Debug for Request<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("complete", &self.core.is_complete())
            .finish()
    }
}

impl<T> Request<T> {
    pub(crate) fn new(core: Arc<RequestCore<T>>) -> Self {
        Request {
            core,
            cancel: None,
            conn: None,
            tag: None,
            free: None,
        }
    }

    /// Whether the operation has completed (successfully or not). Never
    /// blocks.
    pub fn test(&self) -> bool {
        self.core.is_complete()
    }

    /// Blocks until the operation completes and takes its result.
    ///
    /// # Errors
    ///
    /// The operation's error, or [`SendError::ResultTaken`] if the result
    /// was already taken.
    pub fn wait(&self) -> Result<T, SendError> {
        if let Some(conn) = &self.conn {
            conn.drive(|| self.core.is_complete(), None);
        }
        self.core.done.wait();
        self.take_result()
    }

    /// [`Request::wait`] with a deadline. On [`SendError::Timeout`] the
    /// request stays usable — the operation keeps progressing and a later
    /// wait can still take the result.
    ///
    /// # Errors
    ///
    /// As [`Request::wait`], plus [`SendError::Timeout`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<T, SendError> {
        if !self.wait_complete(timeout) {
            return Err(SendError::Timeout);
        }
        self.take_result()
    }

    fn take_result(&self) -> Result<T, SendError> {
        self.core.take().unwrap_or(Err(SendError::ResultTaken))
    }
}

/// A request on a core from this thread's `free` list, or a new one; the
/// core returns there when the request is dropped, if nobody else holds it
/// then.
pub(crate) fn issue<T>(free: &'static LocalKey<FreeCores<T>>) -> Request<T> {
    let core = free.try_with(|cores| cores.borrow_mut().pop());
    let mut request = Request::new(core.ok().flatten().unwrap_or_else(RequestCore::new));
    request.free = Some(free);
    request
}

impl<T> Completion for Request<T> {
    fn is_complete(&self) -> bool {
        self.core.is_complete()
    }

    fn wait_complete(&self, timeout: Duration) -> bool {
        // A waiter runs its connection's task until the request completes
        // or its time is up, if the task is idle.
        let Some(conn) = self.conn.as_ref().filter(|_| !self.core.is_complete()) else {
            return self.core.done.wait_timeout(timeout);
        };
        let deadline = Instant::now().checked_add(timeout);
        conn.drive(|| self.core.is_complete(), deadline);
        self.core.done.wait_timeout(time_left(deadline))
    }

    fn subscribe(&self, notify: CompletionNotify) {
        self.core.subscribe(notify);
    }
}

impl<T> Drop for Request<T> {
    /// Cancels, then recycles the core if this was its last holder: a core
    /// that a delivery queue or the send pipeline still holds is never
    /// issued again.
    fn drop(&mut self) {
        if let (Some(cancel), Some(conn)) = (self.cancel, &self.conn) {
            cancel(conn, self.tag, &self.core);
        }
        let (Some(free), Some(core)) = (self.free, Arc::get_mut(&mut self.core)) else {
            return;
        };
        core.reset();
        let core = Arc::clone(&self.core);
        let _ = free.try_with(|cores| {
            let mut cores = cores.borrow_mut();
            (cores.len() < FREE_CORES).then(|| cores.push(core))
        });
    }
}

// ---------------------------------------------------------------------------
// DeliveryQueue — sharded reassembled-message routing (tags, waiters,
// fail-fast)
// ---------------------------------------------------------------------------

/// Number of tagged delivery shards per connection (a power of two).
///
/// A tag's messages, parked receivers and lock all live in the shard
/// `tag % DELIVERY_SHARDS`, so concurrent receivers on tags of different
/// classes never contend on one mutex. [`Channel`](crate::Channel)
/// assigns its reserved tags so that channel ids `0..8` map to eight
/// *distinct* shards; ids congruent modulo 8 share one.
pub const DELIVERY_SHARDS: usize = 8;

/// The shard (lock domain) a tag routes to.
fn shard_index(tag: u32) -> usize {
    tag as usize & (DELIVERY_SHARDS - 1)
}

/// One logical receive channel: messages ready to be taken, and receive
/// requests parked for the next arrival. An invariant the owning shard's
/// lock protects: `ready` and `waiters` are never both non-empty.
#[derive(Debug, Default)]
struct Chan {
    ready: VecDeque<MsgView>,
    waiters: VecDeque<Arc<RequestCore<MsgView>>>,
}

impl Chan {
    /// Hands `msg` to the oldest parked request, or queues it as ready.
    fn deliver(&mut self, msg: MsgView) {
        match self.waiters.pop_front() {
            Some(w) => w.complete(Ok(msg)),
            None => self.ready.push_back(msg),
        }
    }

    /// Registers a receive request: completes it immediately from the
    /// ready queue (or with the shard's recorded error), or parks it.
    fn register(&mut self, error: &Option<SendError>, core: &Arc<RequestCore<MsgView>>) {
        if let Some(msg) = self.ready.pop_front() {
            core.complete(Ok(msg));
        } else if let Some(e) = error {
            core.complete(Err(e.clone()));
        } else {
            self.waiters.push_back(Arc::clone(core));
        }
    }

    /// Unregisters a dropped/abandoned receive request (see
    /// [`DeliveryQueue::cancel`]).
    fn cancel(&mut self, core: &Arc<RequestCore<MsgView>>) {
        if let Some(pos) = self.waiters.iter().position(|w| Arc::ptr_eq(w, core)) {
            self.waiters.remove(pos);
            return;
        }
        // Not parked: the request may have raced to completion with an
        // unconsumed message — reclaim it (still under the shard lock, so
        // no delivery or take can interleave).
        if let Some(msg) = core.take_value() {
            match self.waiters.pop_front() {
                Some(w) => w.complete(Ok(msg)),
                None => self.ready.push_front(msg),
            }
        }
    }

    fn is_drained(&self) -> bool {
        self.ready.is_empty() && self.waiters.is_empty()
    }
}

/// Callback owning a connection's untagged receive stream (see
/// [`NcsConnection::set_receive_sink`](crate::NcsConnection::set_receive_sink)):
/// `Ok` per message, one final `Err` when the connection fails or closes.
pub type ReceiveSink = Arc<dyn Fn(Result<MsgView, SendError>) + Send + Sync>;

/// The untagged delivery shard: one channel plus the optional receive
/// sink that owns the untagged stream.
#[derive(Default)]
struct UntaggedShard {
    chan: Chan,
    /// Set once the connection fails or closes; parked and future
    /// receives resolve to this immediately (already-delivered messages
    /// remain takeable).
    error: Option<SendError>,
    /// When installed, untagged deliveries bypass the queue entirely.
    sink: Option<ReceiveSink>,
    /// Whether the sink has been handed its terminal error.
    sink_failed: bool,
}

impl std::fmt::Debug for UntaggedShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UntaggedShard")
            .field("error", &self.error)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

/// One tagged delivery shard: the channels of every tag in its class,
/// under one lock.
#[derive(Debug, Default)]
struct TagShard {
    chans: HashMap<u32, Chan>,
    /// Per-shard copy of the connection's terminal error (`fail_all`
    /// stamps every shard, so each shard is self-contained under its own
    /// lock).
    error: Option<SendError>,
    /// The last channel pruned, drained, with its queues' storage: the
    /// next channel made is this one.
    spare: Chan,
}

impl TagShard {
    /// `tag`'s channel, made (from the spare) if it has none.
    fn chan(&mut self, tag: u32) -> &mut Chan {
        let (chans, spare) = (&mut self.chans, &mut self.spare);
        chans.entry(tag).or_insert_with(|| std::mem::take(spare))
    }

    /// Drops `tag`'s channel entry once it is fully drained, so a
    /// connection cycling through many distinct tags (correlation-id
    /// style) does not grow the map for its lifetime. The channel becomes
    /// the spare.
    fn prune(&mut self, tag: u32) {
        if self.chans.get(&tag).is_some_and(Chan::is_drained) {
            self.spare = self.chans.remove(&tag).expect("just looked");
        }
    }
}

/// The connection's delivery stage: reassembled messages are routed here
/// by the receive plane (by tag, when tag-matched) and matched against
/// parked receive requests in FIFO order.
///
/// The queue is **sharded by tag-class**: untagged traffic has its own
/// lock, and tagged traffic hashes to one of [`DELIVERY_SHARDS`]
/// independent lock + waiter-list domains, so concurrent receivers on
/// different [`Channel`](crate::Channel)s (different tag-classes) never
/// contend — one thread blocked in `irecv_tagged` on channel A costs
/// channel B nothing, not even a lock handoff.
///
/// Close/link-down fail-fast lives here: `fail_all` stamps every shard
/// with the error and resolves every parked request *immediately* — a
/// parked `irecv` never waits out a tick loop to learn its connection
/// died.
#[derive(Debug, Default)]
pub(crate) struct DeliveryQueue {
    untagged: Mutex<UntaggedShard>,
    tagged: [Mutex<TagShard>; DELIVERY_SHARDS],
    /// Delivery-point observability: the connection's `messages_received`
    /// counter and flight recorder, installed once at construction.
    /// Counting *here* — the single point every transport's reassembled
    /// messages funnel through, sink and queue alike — is what keeps
    /// `messages_received` exact under the bypass/zero-copy `MsgView`
    /// paths as well as the FC/EC pipeline.
    obs: std::sync::OnceLock<(ncs_obs::Counter, ncs_obs::FlightRecorder)>,
}

impl DeliveryQueue {
    pub(crate) fn new() -> Self {
        DeliveryQueue::default()
    }

    /// Installs the delivery-point counter and flight recorder (first
    /// call wins; later calls are no-ops).
    pub(crate) fn set_obs(&self, counter: ncs_obs::Counter, recorder: ncs_obs::FlightRecorder) {
        let _ = self.obs.set((counter, recorder));
    }

    /// Routes one reassembled message: hands it to the installed sink
    /// (untagged traffic only), the oldest parked request on its channel,
    /// or queues it as ready. Only the target shard's lock is taken.
    pub(crate) fn deliver(&self, msg: MsgView) {
        if let Some((received, flight)) = self.obs.get() {
            received.inc();
            flight.record(
                ncs_obs::EventKind::Deliver,
                msg.tag().unwrap_or(0),
                0,
                msg.len(),
            );
        }
        match msg.tag() {
            None => {
                let mut shard = self.untagged.lock();
                if let Some(sink) = shard.sink.clone() {
                    drop(shard);
                    sink(Ok(msg));
                    return;
                }
                shard.chan.deliver(msg);
            }
            Some(tag) => {
                let mut shard = self.tagged[shard_index(tag)].lock();
                shard.chan(tag).deliver(msg);
                shard.prune(tag);
            }
        }
    }

    /// Installs (or removes) a sink that takes ownership of the untagged
    /// receive stream: every untagged message — including any already
    /// queued ready — goes to the sink instead of the queue, and the
    /// connection's terminal error is handed over exactly once. Built for
    /// engines that pump a connection's traffic into their own machinery
    /// (the collectives engine) without a thread parked on `recv`.
    ///
    /// Tagged shards are unaffected. Installing a sink while untagged
    /// receive requests are parked is a contract violation (the paths
    /// would race for messages); such waiters keep waiting.
    pub(crate) fn set_sink(&self, sink: Option<ReceiveSink>) {
        let (sink, drained, error) = {
            let mut shard = self.untagged.lock();
            shard.sink = sink;
            let Some(sink) = shard.sink.clone() else {
                return;
            };
            let drained: Vec<MsgView> = shard.chan.ready.drain(..).collect();
            let error = if shard.error.is_some() && !shard.sink_failed {
                shard.sink_failed = true;
                shard.error.clone()
            } else {
                None
            };
            (sink, drained, error)
        };
        for msg in drained {
            sink(Ok(msg));
        }
        if let Some(e) = error {
            sink(Err(e));
        }
    }

    /// Registers a receive request on `tag`'s channel: completes it
    /// immediately from the ready queue (or with the recorded error), or
    /// parks it.
    pub(crate) fn register(&self, tag: Option<u32>, core: &Arc<RequestCore<MsgView>>) {
        match tag {
            None => {
                let mut shard = self.untagged.lock();
                let error = shard.error.clone();
                shard.chan.register(&error, core);
            }
            Some(t) => {
                let mut shard = self.tagged[shard_index(t)].lock();
                let error = shard.error.clone();
                shard.chan(t).register(&error, core);
                shard.prune(t);
            }
        }
    }

    /// Takes a ready message off `tag`'s channel without blocking.
    ///
    /// # Errors
    ///
    /// The recorded connection error, once the channel is drained.
    pub(crate) fn try_take(&self, tag: Option<u32>) -> Result<Option<MsgView>, SendError> {
        let (taken, error) = match tag {
            None => {
                let mut shard = self.untagged.lock();
                (shard.chan.ready.pop_front(), shard.error.clone())
            }
            Some(t) => {
                let mut shard = self.tagged[shard_index(t)].lock();
                let taken = shard.chans.get_mut(&t).and_then(|c| c.ready.pop_front());
                shard.prune(t);
                (taken, shard.error.clone())
            }
        };
        match taken {
            Some(msg) => Ok(Some(msg)),
            None => match error {
                Some(e) => Err(e),
                None => Ok(None),
            },
        }
    }

    /// Unregisters a dropped/abandoned receive request. If a message had
    /// already matched it, the message goes to the channel's oldest
    /// parked waiter (it is the oldest undelivered message — waiters can
    /// only be parked while `ready` is empty), or back to the *front* of
    /// the ready queue, so per-channel FIFO order holds for the next
    /// receiver either way.
    pub(crate) fn cancel(&self, tag: Option<u32>, core: &Arc<RequestCore<MsgView>>) {
        match tag {
            None => self.untagged.lock().chan.cancel(core),
            Some(t) => {
                let mut shard = self.tagged[shard_index(t)].lock();
                shard.chan(t).cancel(core);
                shard.prune(t);
            }
        }
    }

    /// Records a terminal error and resolves every parked request with it
    /// (ready messages stay takeable — close-then-drain still works). The
    /// installed sink, if any, is handed the error exactly once.
    /// Idempotent; the first error wins. Shards are stamped one at a
    /// time, each under its own lock, so a registration racing this call
    /// either parks first (and is drained here) or observes the error.
    pub(crate) fn fail_all(&self, error: SendError) {
        let (err, sink) = {
            let mut shard = self.untagged.lock();
            if shard.error.is_none() {
                shard.error = Some(error.clone());
            }
            let err = shard.error.clone().expect("just set");
            for w in shard.chan.waiters.drain(..) {
                w.complete(Err(err.clone()));
            }
            let sink = if shard.sink.is_some() && !shard.sink_failed {
                shard.sink_failed = true;
                shard.sink.clone()
            } else {
                None
            };
            (err, sink)
        };
        for slot in &self.tagged {
            let mut shard = slot.lock();
            if shard.error.is_none() {
                shard.error = Some(err.clone());
            }
            let shard_err = shard.error.clone().expect("just set");
            for chan in shard.chans.values_mut() {
                for w in chan.waiters.drain(..) {
                    w.complete(Err(shard_err.clone()));
                }
            }
            shard.chans.retain(|_, c| !c.is_drained());
        }
        if let Some(sink) = sink {
            sink(Err(err));
        }
    }

    /// Number of live tagged channels across all shards (tests assert the
    /// maps are pruned).
    #[cfg(test)]
    fn tagged_channels(&self) -> usize {
        self.tagged.iter().map(|s| s.lock().chans.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufPool;

    fn msg(bytes: &[u8], tag: Option<u32>) -> MsgView {
        MsgView::new(MsgBody::Own(PooledBuf::detached(bytes.to_vec())), 0, tag)
    }

    #[test]
    fn request_resolves_once() {
        let core = RequestCore::new();
        let r: Request<()> = Request::new(Arc::clone(&core));
        assert!(!r.test());
        assert_eq!(
            r.wait_timeout(Duration::from_millis(5)),
            Err(SendError::Timeout)
        );
        core.complete(Ok(()));
        assert!(r.test());
        assert_eq!(r.wait(), Ok(()));
        assert_eq!(r.wait(), Err(SendError::ResultTaken));
    }

    #[test]
    fn first_completion_wins() {
        let core: Arc<RequestCore<()>> = RequestCore::new();
        core.complete(Err(SendError::Closed));
        core.complete(Ok(()));
        let r = Request::new(core);
        assert_eq!(r.wait(), Err(SendError::Closed));
    }

    #[test]
    fn msg_view_pooled_round_trip() {
        let pool = BufPool::with_config(1, 4, 64);
        let mut buf = pool.get();
        buf.vec_mut().extend_from_slice(&[0, 0, 0, 7, 1, 2, 3]);
        let view = MsgView::new(MsgBody::Own(buf), 4, Some(7));
        assert_eq!(view.as_slice(), &[1, 2, 3]);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.tag(), Some(7));
        assert_eq!(view.into_vec(), vec![1, 2, 3]);
        // Copied out by into_vec: the buffer returns to the pool,
        assert_eq!(pool.stats().returns, 1);
        // as it does when a view is dropped.
        let mut buf = pool.get();
        buf.vec_mut().extend_from_slice(b"xyz");
        drop(MsgView::new(MsgBody::Own(buf), 0, None));
        assert_eq!(pool.stats().returns, 2);
    }

    #[test]
    fn delivery_routes_by_tag_fifo() {
        let q = DeliveryQueue::new();
        q.deliver(msg(b"u1", None));
        q.deliver(msg(b"a1", Some(5)));
        q.deliver(msg(b"u2", None));
        q.deliver(msg(b"a2", Some(5)));
        assert_eq!(q.try_take(Some(5)).unwrap().unwrap().as_slice(), b"a1");
        assert_eq!(q.try_take(None).unwrap().unwrap().as_slice(), b"u1");
        assert_eq!(q.try_take(None).unwrap().unwrap().as_slice(), b"u2");
        assert_eq!(q.try_take(Some(5)).unwrap().unwrap().as_slice(), b"a2");
        assert!(q.try_take(None).unwrap().is_none());
    }

    #[test]
    fn parked_waiter_gets_next_delivery() {
        let q = DeliveryQueue::new();
        let core = RequestCore::new();
        q.register(None, &core);
        assert!(!core.is_complete());
        q.deliver(msg(b"hello", None));
        assert!(core.is_complete());
        assert_eq!(core.take().unwrap().unwrap().as_slice(), b"hello");
    }

    #[test]
    fn fail_all_resolves_parked_but_keeps_ready() {
        let q = DeliveryQueue::new();
        q.deliver(msg(b"early", None));
        let parked = RequestCore::new();
        q.register(Some(3), &parked);
        q.fail_all(SendError::Closed);
        assert!(parked.is_complete());
        assert!(matches!(parked.take(), Some(Err(SendError::Closed))));
        // The ready message survives the failure and drains first.
        assert_eq!(q.try_take(None).unwrap().unwrap().as_slice(), b"early");
        assert!(matches!(q.try_take(None), Err(SendError::Closed)));
        // New registrations resolve immediately with the error.
        let late = RequestCore::new();
        q.register(None, &late);
        assert!(matches!(late.take(), Some(Err(SendError::Closed))));
    }

    #[test]
    fn drained_tagged_channels_are_pruned() {
        let q = DeliveryQueue::new();
        // Correlation-id style: every operation uses a fresh tag.
        for t in 0..100u32 {
            q.deliver(msg(b"x", Some(t)));
            assert_eq!(q.try_take(Some(t)).unwrap().unwrap().as_slice(), b"x");
        }
        assert_eq!(q.tagged_channels(), 0, "drained channels must not leak");
        // A probe on a never-used tag must not leave an entry behind.
        assert!(q.try_take(Some(999)).unwrap().is_none());
        assert_eq!(q.tagged_channels(), 0);
        // Parked waiters keep their channel alive; cancellation prunes it.
        let w = RequestCore::new();
        q.register(Some(7), &w);
        assert_eq!(q.tagged_channels(), 1);
        q.cancel(Some(7), &w);
        assert_eq!(q.tagged_channels(), 0);
        // fail_all prunes the channels it drains.
        let w = RequestCore::new();
        q.register(Some(8), &w);
        q.fail_all(SendError::Closed);
        assert_eq!(q.tagged_channels(), 0);
    }

    #[test]
    fn shard_colliding_tags_stay_separate_channels() {
        let q = DeliveryQueue::new();
        // These hash to the same shard but must remain distinct channels.
        let t1 = 1u32;
        let t2 = 1 + DELIVERY_SHARDS as u32;
        assert_eq!(shard_index(t1), shard_index(t2));
        q.deliver(msg(b"a", Some(t1)));
        q.deliver(msg(b"b", Some(t2)));
        assert_eq!(q.try_take(Some(t2)).unwrap().unwrap().as_slice(), b"b");
        assert_eq!(q.try_take(Some(t1)).unwrap().unwrap().as_slice(), b"a");
        assert_eq!(q.tagged_channels(), 0);
    }

    #[test]
    fn fail_all_stamps_every_shard() {
        let q = DeliveryQueue::new();
        // Park one waiter in every shard (and two in some).
        let parked: Vec<_> = (0..2 * DELIVERY_SHARDS as u32)
            .map(|t| {
                let w = RequestCore::new();
                q.register(Some(t), &w);
                w
            })
            .collect();
        q.fail_all(SendError::Closed);
        for w in &parked {
            assert!(matches!(w.take(), Some(Err(SendError::Closed))));
        }
        // Every shard must report the error to late arrivals too.
        for t in 0..2 * DELIVERY_SHARDS as u32 {
            assert!(matches!(q.try_take(Some(t)), Err(SendError::Closed)));
        }
        assert_eq!(q.tagged_channels(), 0);
    }

    #[test]
    fn cancel_hands_reclaimed_message_to_parked_waiter() {
        let q = DeliveryQueue::new();
        // A claims M1; B parks behind it; A is dropped unconsumed.
        let a = RequestCore::new();
        q.deliver(msg(b"m1", None));
        q.register(None, &a);
        assert!(a.is_complete());
        let b = RequestCore::new();
        q.register(None, &b);
        assert!(!b.is_complete());
        q.cancel(None, &a);
        // B must receive the reclaimed M1, not starve behind it.
        assert!(b.is_complete(), "parked waiter starved by cancellation");
        assert_eq!(b.take().unwrap().unwrap().as_slice(), b"m1");
    }

    #[test]
    fn cancel_unparks_or_requeues() {
        let q = DeliveryQueue::new();
        let parked = RequestCore::new();
        q.register(None, &parked);
        q.cancel(None, &parked);
        // Unparked: a later delivery goes to ready, not the dead waiter.
        q.deliver(msg(b"m1", None));
        assert!(!parked.is_complete());
        // Completed-but-unconsumed: the message returns to the front.
        let claimed = RequestCore::new();
        q.register(None, &claimed); // takes m1 immediately
        assert!(claimed.is_complete());
        q.deliver(msg(b"m2", None));
        q.cancel(None, &claimed);
        assert_eq!(q.try_take(None).unwrap().unwrap().as_slice(), b"m1");
        assert_eq!(q.try_take(None).unwrap().unwrap().as_slice(), b"m2");
    }

    #[test]
    fn wait_sets_over_plain_requests() {
        let a = RequestCore::new();
        let b = RequestCore::new();
        let ra: Request<()> = Request::new(Arc::clone(&a));
        let rb: Request<()> = Request::new(Arc::clone(&b));
        let set: [&dyn Completion; 2] = [&ra, &rb];
        assert!(!test_all(&set));
        assert_eq!(wait_any(&set, Duration::from_millis(5)), None);
        b.complete(Ok(()));
        assert_eq!(wait_any(&set, Duration::from_secs(1)), Some(1));
        assert!(!wait_all(&set, Duration::from_millis(5)));
        a.complete(Ok(()));
        assert!(wait_all(&set, Duration::from_secs(1)));
        assert!(test_all(&set));
        // Degenerate sets.
        assert!(test_all(&[]));
        assert!(wait_all(&[], Duration::ZERO));
        assert_eq!(wait_any(&[], Duration::from_secs(1)), None);
    }

    /// A request's core, dropped by its last holder, is the next request's
    /// on the thread: unfired, with no result, and no subscriber of its
    /// last use — a wait set that subscribed to it is never woken by the
    /// next request's completion.
    #[test]
    fn a_recycled_core_starts_unfired_with_no_result_and_no_subscribers() {
        let sent: Request<()> = issue(&FREE_SENDS);
        let core = Arc::as_ptr(&sent.core);
        sent.core.complete(Ok(())); // fired; the result is never taken
        drop(sent);
        let next: Request<()> = issue(&FREE_SENDS);
        assert_eq!(Arc::as_ptr(&next.core), core, "the core came back");
        assert!(!next.test());
        assert_eq!(
            next.wait_timeout(Duration::from_millis(5)),
            Err(SendError::Timeout)
        );
        // A wait set and a subscriber are left on it, never notified.
        let woken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&woken);
        next.subscribe(Arc::new(move || {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        assert_eq!(wait_any(&[&next], Duration::from_millis(1)), None);
        drop(next);
        let last: Request<()> = issue(&FREE_SENDS);
        assert_eq!(Arc::as_ptr(&last.core), core);
        last.core.complete(Ok(()));
        assert_eq!(woken.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(last.wait(), Ok(()));
    }

    /// A core somebody else still holds when its request is dropped is
    /// never issued again: a receive parked in a delivery queue, a send
    /// the pipeline has yet to resolve. A cancelled receive whose message
    /// was requeued holds nothing: its core comes back clean, and the
    /// message goes to the next receive whole.
    #[test]
    fn a_core_another_holder_references_is_never_issued_again() {
        let q = DeliveryQueue::new();
        let parked: Request<MsgView> = issue(&FREE_RECEIVES);
        q.register(None, &parked.core);
        let held = Arc::as_ptr(&parked.core);
        drop(parked); // as a request without its cancel hook: still parked
        let next: Request<MsgView> = issue(&FREE_RECEIVES);
        assert_ne!(Arc::as_ptr(&next.core), held);
        q.deliver(msg(b"m0", None));
        assert!(!next.test(), "the parked core took the message");

        let sent: Request<()> = issue(&FREE_SENDS);
        let pipeline = Arc::clone(&sent.core);
        drop(sent);
        let next_send: Request<()> = issue(&FREE_SENDS);
        assert!(!Arc::ptr_eq(&next_send.core, &pipeline));
        pipeline.complete(Ok(()));
        assert!(!next_send.test());

        q.deliver(msg(b"m1", None));
        q.register(None, &next.core); // takes m1
        assert!(next.test());
        let claimed = Arc::as_ptr(&next.core);
        q.cancel(None, &next.core); // what its hook runs: m1 goes back
        drop(next);
        let again: Request<MsgView> = issue(&FREE_RECEIVES);
        assert_eq!(Arc::as_ptr(&again.core), claimed, "nobody held it");
        assert!(!again.test());
        q.register(None, &again.core);
        assert_eq!(again.wait().unwrap().as_slice(), b"m1");
    }

    #[test]
    fn wait_any_wakes_from_another_thread() {
        let core = RequestCore::new();
        let r: Request<()> = Request::new(Arc::clone(&core));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            core.complete(Ok(()));
        });
        let set: [&dyn Completion; 1] = [&r];
        let t0 = Instant::now();
        assert_eq!(wait_any(&set, Duration::from_secs(5)), Some(0));
        assert!(t0.elapsed() < Duration::from_secs(2));
        t.join().unwrap();
    }
}
