//! The [`Connection`] trait implemented by every NCS communication
//! interface.
//!
//! # Modelled wires
//!
//! PIPE, SIM and ACI model a wire in time, and own no thread to move it: a
//! wire is a function of time that whoever touches it — a send, a
//! receive, a readiness check ([`Connection::due`]), a connect, an accept
//! — brings up to now. The invariant that keeps this live: **no thread in
//! the process waits on a modelled wire by itself; every thread waiting on
//! one holds a deadline at or before the wire's next event** (the next
//! one anybody could observe: the ATM network's cells in mid-frame do not
//! count). A waiter
//! takes that deadline from `due` (an event loop folds it into its timer,
//! a blocking receive into its wait), and a waker endpoint rings its waker
//! when something is put in flight toward it, so a waiter that held no
//! deadline takes one. PIPE and SIM keep each direction's frames in one
//! [`Schedule`], fixed at the send.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_threads::sync::Mailbox;
use parking_lot::Mutex;

/// A readiness callback installed by an event loop via
/// [`Connection::register_waker`]. The transport invokes it whenever the
/// endpoint *may* have become readable (a frame arrived or was put in
/// flight toward it, the peer closed, a virtual circuit was released) or
/// writable (room appeared after a
/// refused [`Connection::try_send_batch`]). Wakers must be cheap,
/// non-blocking and tolerant of spurious invocations — the reactor
/// coalesces them.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// How an event loop should learn that a [`Connection`] has inbound data.
///
/// Returned by [`Connection::readiness`]; drives the registration strategy
/// of `ncs-core`'s reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// The endpoint calls a registered [`Waker`] when frames arrive
    /// (in-process mailbox transports: HPI, PIPE, ACI, SIM).
    Waker,
    /// The endpoint is backed by an OS file descriptor (SCI sockets):
    /// `ncs-core`'s reactor watches it with `epoll(7)`, oneshot — for
    /// output too while a write it refused is owed — and the task that
    /// drained it re-arms it.
    #[cfg(unix)]
    Fd(std::os::fd::RawFd),
}

/// Static properties of a communication interface, consulted by NCS when
/// configuring a connection (e.g. HPI loses frames only by overrun, so a
/// credit window that cannot overrun it leaves error control nothing to
/// do).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Interface family name ("SCI", "ACI", "HPI", "PIPE", "SIM").
    pub interface: &'static str,
    /// `Some(n)`: a frame is lost only when `n` frames already wait unread
    /// at the receiver — a bounded ring (HPI) — so a credit window that
    /// cannot fill it rules loss out, and NCS runs such a connection
    /// without error control. `None`: no such bound, whether frames are
    /// lost at any time (ACI's cells, SIM's policies) or never (SCI, PIPE).
    pub overrun_ring: Option<usize>,
    /// Frames arrive in transmission order (all but SIM, whose reorder
    /// policy lets frames overtake; kept explicit because NCS's go-back-N
    /// assumes it).
    pub ordered: bool,
    /// Largest frame [`Connection::send_batch`] accepts.
    pub max_frame: usize,
}

/// Errors surfaced by transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed the connection (or it was closed locally).
    Closed,
    /// A timed receive expired.
    Timeout,
    /// Frame exceeds [`Capabilities::max_frame`].
    TooLarge {
        /// Offered frame length.
        len: usize,
        /// Interface maximum.
        max: usize,
    },
    /// Empty frames cannot be sent.
    Empty,
    /// Underlying I/O failure (SCI only).
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds interface maximum {max}")
            }
            TransportError::Empty => write!(f, "empty frames cannot be sent"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                TransportError::Timeout
            }
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionAborted => TransportError::Closed,
            _ => TransportError::Io(e.to_string()),
        }
    }
}

/// The largest buffer an interface keeps of the frames handed back to it
/// ([`Connection::recycle`]): a frame of the largest SDU `ncs-core`
/// configures, 64 KiB, and its header — the bound the node's buffer pool
/// keeps to as well. A larger one is dropped rather than held for the
/// endpoint's lifetime.
pub const RETAIN_CAPACITY: usize = 64 * 1024 + 64;

/// How many leading frames of a batch an interface whose largest frame is
/// `max` bytes may send: the batch is cut at the first invalid frame
/// (empty, or too large), whose error is the result only when it is the
/// very first — the valid prefix goes out, and the error resurfaces on the
/// retry.
pub(crate) fn valid_prefix(frames: &[&[u8]], max: usize) -> Result<usize, TransportError> {
    match frames.iter().position(|f| f.is_empty() || f.len() > max) {
        Some(0) if frames[0].is_empty() => Err(TransportError::Empty),
        Some(0) => Err(TransportError::TooLarge {
            len: frames[0].len(),
            max,
        }),
        Some(valid) => Ok(valid),
        None => Ok(frames.len()),
    }
}

/// [`Connection::send_batch`] for an interface that takes frames one at a
/// time: `send_one(frame, first)` sends one frame, and answers `false`
/// when a frame after the first cannot be taken without blocking. The
/// batch is cut there, at its first invalid frame ([`valid_prefix`]) and
/// at the first frame that fails, whose error is the result only when it
/// is the very first.
pub(crate) fn send_each(
    frames: &[&[u8]],
    max: usize,
    mut send_one: impl FnMut(&[u8], bool) -> Result<bool, TransportError>,
) -> Result<usize, TransportError> {
    let valid = valid_prefix(frames, max)?;
    for (i, frame) in frames[..valid].iter().enumerate() {
        match send_one(frame, i == 0) {
            Ok(true) => {}
            Err(e) if i == 0 => return Err(e),
            Ok(false) | Err(_) => return Ok(i),
        }
    }
    Ok(valid)
}

/// Waits up to `timeout` (`Duration::MAX`: for as long as it takes) for
/// `take` to succeed, driving a modelled wire meanwhile: `advance` brings
/// the wire up to now and says when its next event falls due, and
/// `take(wait)` looks, then waits up to `wait` for a wake. So the caller
/// sleeps until its deadline, the wire's next event or a wake, whichever
/// comes first.
pub(crate) fn wait_on_wire<T>(
    timeout: Duration,
    advance: impl Fn() -> Option<Instant>,
    mut take: impl FnMut(Duration) -> Option<T>,
) -> Option<T> {
    let deadline = Instant::now().checked_add(timeout);
    loop {
        let until = advance().into_iter().chain(deadline).min();
        let wait = until.map_or(Duration::MAX, |at| at - Instant::now());
        if let Some(got) = take(wait) {
            return Some(got);
        }
        if deadline.is_some_and(|at| Instant::now() >= at) {
            return None;
        }
    }
}

/// The receive half the mailbox-backed interfaces (HPI, PIPE, ACI, SIM)
/// share: the frames that arrived and are not yet taken, and whether the
/// stream has ended. Once it has, a receive that finds the queue empty
/// reads [`TransportError::Closed`].
#[derive(Debug)]
pub(crate) struct Inbox {
    pub(crate) queue: Mailbox<Vec<u8>>,
    ended: AtomicBool,
    /// The buffers of frames the consumer handed back, for the producer to
    /// fill next: as many as a bounded queue holds, at most (HPI's ring).
    pub(crate) spares: Mutex<Vec<Vec<u8>>>,
}

impl Inbox {
    pub(crate) fn new(queue: Mailbox<Vec<u8>>) -> Self {
        Inbox {
            spares: Mutex::default(),
            queue,
            ended: AtomicBool::new(false),
        }
    }

    /// Ends the stream, and wakes its consumer to see it.
    pub(crate) fn end(&self) {
        self.ended.store(true, Ordering::Release);
        self.ring();
        self.queue.notify();
    }

    /// Wakes the consumer to look again: one driven by readiness through
    /// the notify, one blocked in a receive through an empty frame, which
    /// no send makes. (A queue too full to take it wakes that receiver
    /// with a frame.)
    pub(crate) fn ring(&self) {
        let _ = self.queue.try_send(Vec::new());
    }

    pub(crate) fn has_ended(&self) -> bool {
        self.ended.load(Ordering::Acquire)
    }

    /// A receive with a deadline, from a wire that `advance` moves
    /// ([`wait_on_wire`]); an ended stream is not waited on.
    pub(crate) fn recv_timeout(
        &self,
        timeout: Duration,
        advance: impl Fn() -> Option<Instant>,
    ) -> Result<Vec<u8>, TransportError> {
        // An empty frame is a wake: something put in flight, or the end.
        let wake = |wait| self.queue.recv_timeout(wait).ok().filter(|f| !f.is_empty());
        wait_on_wire(timeout, advance, |wait| {
            self.try_recv().transpose().or_else(|| wake(wait).map(Ok))
        })
        .unwrap_or(Err(TransportError::Timeout))
    }

    pub(crate) fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        // The flag first: every frame queued before the end is then in
        // the queue, so an empty queue means a drained stream.
        let ended = self.has_ended();
        loop {
            match self.queue.try_recv() {
                // The end's wake-up, not a frame.
                Some(frame) if frame.is_empty() => {}
                Some(frame) => return Ok(Some(frame)),
                None if ended => return Err(TransportError::Closed),
                None => return Ok(None),
            }
        }
    }
}

/// A frame in flight on a modelled wire: when it leaves the sender's
/// buffer (PIPE's drain; a SIM frame leaves at its send), and when it
/// arrives.
#[derive(Debug)]
pub(crate) struct Flight {
    pub(crate) departs: Instant,
    pub(crate) arrives: Instant,
    pub(crate) frame: Vec<u8>,
}

/// One direction of a modelled wire (PIPE, SIM): the frames in flight, in
/// arrival order, and the end of the stream behind the last of them, all
/// delivered into the receiver's [`Inbox`] whenever someone brings the
/// direction up to now.
#[derive(Debug, Default)]
pub(crate) struct Schedule {
    /// Frames sent and not yet delivered, in arrival order.
    pub(crate) flight: VecDeque<Flight>,
    /// Either end closed: the direction takes no more frames.
    pub(crate) closed: bool,
    /// When the end of the stream arrives; `None` again once it has.
    end: Option<Instant>,
}

impl Schedule {
    /// Brings the direction up to `now`: the frames that arrived — behind
    /// them the end of the stream — are delivered into `inbox`. Returns
    /// when the next one arrives.
    pub(crate) fn advance(&mut self, inbox: &Inbox, now: Instant) -> Option<Instant> {
        while let Some(f) = self.flight.pop_front_if(|f| f.arrives <= now) {
            inbox.queue.send(f.frame);
        }
        if self.flight.is_empty() && self.end.is_some_and(|at| at <= now) {
            self.end = None;
            inbox.end();
        }
        self.flight.front().map(|f| f.arrives).or(self.end)
    }

    /// Puts `flight` in flight behind every frame that arrives no later,
    /// and brings the direction up to `now`: a frame already due is
    /// delivered at once, and one that is now the next to arrive rings the
    /// receiver, whose wait then ends at its arrival.
    pub(crate) fn put(&mut self, inbox: &Inbox, flight: Flight, now: Instant) {
        let at = self.flight.partition_point(|f| f.arrives <= flight.arrives);
        self.flight.insert(at, flight);
        if self.advance(inbox, now).is_some() && at == 0 {
            inbox.ring();
        }
    }

    /// Takes no more frames and puts the end of the stream in flight
    /// behind the last frame. Returns whether this closed the direction.
    pub(crate) fn close(&mut self, inbox: &Inbox, now: Instant) -> bool {
        if std::mem::replace(&mut self.closed, true) {
            return false;
        }
        self.end = Some(self.flight.back().map_or(now, |f| f.arrives.max(now)));
        if self.advance(inbox, now).is_some() {
            inbox.ring();
        }
        true
    }
}

/// A frame-oriented, bidirectional transport endpoint.
///
/// Implementations differ in reliability and cost (see [`Capabilities`]);
/// NCS runs its flow and error control on top accordingly.
///
/// An interface implements three data operations: the batch send
/// [`Connection::send_batch`], the timed receive
/// [`Connection::recv_timeout`] and the polled receive
/// [`Connection::try_recv`]. [`Connection::send`], [`Connection::recv`]
/// and [`Connection::recv_many`] are provided over them, and
/// [`Connection::try_send_batch`] defaults to the batch send.
///
/// # Batching contract
///
/// * **Ordering is preserved.** Frames of a batch are transmitted, and
///   delivered to the peer, in slice order; frames returned by `recv_many`
///   are in arrival order. Interleaving batched and single-frame calls
///   never reorders.
/// * **Partial batches on backpressure.** `send_batch` may accept only a
///   prefix of the batch: when the transport would block (full kernel
///   buffer) after at least one frame went out, it returns the count sent
///   instead of blocking; the caller retries the remainder. It blocks only
///   when the *first* frame cannot be accepted. Likewise `recv_many`
///   returns as soon as the receive queue empties — between 1 and `max`
///   frames — rather than waiting to fill `max`.
/// * **Per-frame semantics.** A batch behaves like the same frames sent
///   one by one: per-frame validation, loss behaviour (e.g. HPI overruns)
///   and close handling are the same.
pub trait Connection: Send + Sync + std::fmt::Debug {
    /// The interface's static properties.
    fn caps(&self) -> Capabilities;

    /// Transmits a batch of frames in order, returning how many were
    /// accepted (see the trait-level batching contract). May block when
    /// the first frame cannot be taken (PIPE with a full kernel buffer —
    /// which, under the user-level thread package, stalls the whole
    /// process, the effect measured in Figure 10).
    ///
    /// # Errors
    ///
    /// Errors only when **no** frame of the batch was accepted:
    /// [`TransportError::TooLarge`]/[`TransportError::Empty`] for an
    /// invalid first frame, [`TransportError::Closed`] after either side
    /// closed. After a partial batch the failure resurfaces on the next
    /// call.
    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError>;

    /// Receives with a deadline: `Duration::MAX` waits for as long as it
    /// takes. A close of either end ends the wait.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if nothing arrived in time;
    /// [`TransportError::Closed`] once the connection closed and every
    /// frame that arrived before was taken.
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError>;

    /// Non-blocking receive; `Ok(None)` when no frame is queued.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] as for [`Connection::recv_timeout`].
    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Hands back a frame this endpoint received, once the caller is done
    /// with its bytes, so that a later frame can be received into its
    /// buffer instead of a new one. The buffer is the interface's from
    /// then on: it may keep it — cleared before it carries another frame,
    /// so nothing of this one shows in any later frame, and never handed
    /// out while it carries one — or drop it. HPI keeps as many as its
    /// ring holds, and SCI one; neither keeps a buffer larger than
    /// [`RETAIN_CAPACITY`]. The default drops the frame.
    fn recycle(&self, _frame: Vec<u8>) {}

    /// Transmits one frame: [`Connection::send_batch`] of one.
    ///
    /// # Errors
    ///
    /// As [`Connection::send_batch`].
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_batch(&[frame]).map(drop)
    }

    /// Receives the next frame, blocking until one arrives: one
    /// [`Connection::recv_timeout`] without a limit, which a close ends.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] once the connection closed and every
    /// frame that arrived before was taken.
    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.recv_timeout(Duration::MAX)
    }

    /// Receives up to `max` frames: blocks until at least one arrives (or
    /// `timeout` expires), then takes whatever else is already queued —
    /// [`Connection::recv_timeout`], then [`Connection::try_recv`]s.
    ///
    /// # Errors
    ///
    /// As [`Connection::recv_timeout`] when no frame arrived at all; a
    /// non-empty partial batch is returned even if the connection fails
    /// mid-drain (the failure resurfaces on the next call).
    fn recv_many(&self, max: usize, timeout: Duration) -> Result<Vec<Vec<u8>>, TransportError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let first = self.recv_timeout(timeout)?;
        let mut out = vec![first];
        while out.len() < max {
            match self.try_recv() {
                Ok(Some(frame)) => out.push(frame),
                Ok(None) | Err(_) => break,
            }
        }
        Ok(out)
    }

    /// Non-blocking batch transmit: accepts as many frames as the
    /// transport can take *right now* and returns the count, `Ok(0)` when
    /// the first frame would block. Never blocks the caller. The default
    /// delegates to [`Connection::send_batch`], which is correct for
    /// transports whose "blocking" resolves without help from another
    /// thread (HPI rings never block; a full PIPE buffer makes room at its
    /// next departure, on the clock alone). SCI, whose sends can block on
    /// the *peer* making progress, overrides this so a shared event loop
    /// is never wedged.
    ///
    /// Only an fd-backed endpoint ([`Readiness::Fd`]) ever refuses a
    /// valid batch on an open connection, and its descriptor polls
    /// writable once the peer has drained: an event loop that was refused
    /// waits for that, not for a timer. An endpoint that reports
    /// [`Readiness::Waker`] takes at least the first frame or fails; one
    /// that refused would owe its waker a call when room appears.
    ///
    /// # Errors
    ///
    /// As [`Connection::send_batch`]; a would-block first frame is `Ok(0)`,
    /// not an error.
    fn try_send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        self.send_batch(frames)
    }

    /// Whether bytes of frames already counted as sent still wait to be
    /// written: a frame [`Connection::try_send_batch`] took only part of
    /// (SCI's full socket) leaves its tail behind, and nothing delivers it
    /// but a later call. A non-blocking caller that has nothing more to
    /// send makes that call itself — an empty `try_send_batch` writes what
    /// is owed — and again each time the endpoint turns writable, while
    /// this holds. The default, for transports that take a frame whole or
    /// not at all, is `false`.
    fn owes_bytes(&self) -> bool {
        false
    }

    /// How an event loop should wait for inbound frames on this endpoint,
    /// and for room after a refused send.
    fn readiness(&self) -> Readiness;

    /// Installs (or with `None`, removes) a readiness [`Waker`]. Endpoints
    /// reporting [`Readiness::Waker`] invoke it on every frame arrival, on
    /// close, and on a modelled wire ([`Connection::due`]) when a frame or
    /// a close is put in flight toward them (they never refuse a send, so
    /// they owe no call for room);
    /// [`Readiness::Fd`] endpoints invoke it on close only (frame arrival,
    /// and room after a refused send, show on the descriptor). The default
    /// ignores the
    /// waker, for endpoints that never become readable on their own.
    fn register_waker(&self, _waker: Option<Waker>) {}

    /// The earliest instant at which a frame or event of this endpoint's
    /// modelled wire falls due, while something is in flight toward it —
    /// the deadline a waiter on it holds (see the module docs). Touching
    /// the wire, it brings it up to now first. The default, for wires that
    /// move without help (HPI, SCI), is `None`.
    fn due(&self) -> Option<Instant> {
        None
    }

    /// Closes the connection. Idempotent. Subsequent sends on either side
    /// fail with [`TransportError::Closed`]. The peer reads `Closed` only
    /// after every frame sent before the close (on every interface but
    /// ACI, whose circuit release can overtake frames in flight).
    fn close(&self);

    /// Diagnostic label of the remote endpoint.
    fn peer_label(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_mapping() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            TransportError::from(Error::new(ErrorKind::TimedOut, "t")),
            TransportError::Timeout
        );
        assert_eq!(
            TransportError::from(Error::new(ErrorKind::BrokenPipe, "b")),
            TransportError::Closed
        );
        assert!(matches!(
            TransportError::from(Error::other("x")),
            TransportError::Io(_)
        ));
    }

    #[test]
    fn display_messages() {
        assert!(TransportError::TooLarge { len: 10, max: 5 }
            .to_string()
            .contains("10"));
        assert!(!TransportError::Closed.to_string().is_empty());
    }
}
