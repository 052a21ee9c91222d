//! SCI — the Socket Communication Interface: real TCP with length-prefix
//! framing.
//!
//! TCP provides flow and error control in the kernel, so NCS configures SCI
//! connections without its own flow-/error-control threads (paper §3.1:
//! "the `NCS_send()` and `NCS_recv()` primitives bypass the Flow Control
//! Thread and Error Control Thread"). SCI is the portability interface: it
//! runs on anything with sockets.
//!
//! For the user-level thread package the paper implements receives with
//! non-blocking system calls plus `thread_yield()`; [`SciConnection::set_yield_hook`]
//! enables exactly that mode.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::iface::{
    valid_prefix, Capabilities, Connection, Readiness, TransportError, Waker, YieldHook,
};

/// Largest frame SCI accepts (sanity bound; TCP itself is a stream).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Most bytes a batched send coalesces into one write. Bounds the scratch
/// buffer; anything beyond comes back as a partial batch for the caller
/// to retry (the trait's backpressure contract).
const COALESCE_BYTES: usize = 256 * 1024;

/// Inbound reassembly state: raw bytes accumulate here until at least one
/// complete length-prefixed frame is available.
#[derive(Debug, Default)]
struct ReadBuf {
    buf: Vec<u8>,
}

impl ReadBuf {
    /// Pops one complete frame if buffered. A length prefix above
    /// [`MAX_FRAME`] is refused as soon as it is read — nothing that long
    /// is sent by a peer speaking this framing — and stays at the front
    /// of the buffer, so every later look refuses it too.
    fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(TransportError::TooLarge {
                len,
                max: MAX_FRAME,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

/// A TCP-backed NCS connection.
pub struct SciConnection {
    writer: Mutex<TcpStream>,
    /// Outbound bytes accepted by [`Connection::try_send_batch`] but not
    /// yet written (the tail of at most one partially-written frame).
    /// Locked after `writer`, never before.
    write_backlog: Mutex<Vec<u8>>,
    reader: Mutex<(TcpStream, ReadBuf)>,
    /// Held while the socket is in non-blocking mode. `writer` and the
    /// reader's stream are one open file description, so the mode is
    /// theirs jointly: without this a `try_send_batch` on one thread and a
    /// `try_recv` on another switch it back under each other's feet, and
    /// one of them blocks. Locked after `writer` / `reader`.
    nonblocking: Mutex<()>,
    /// Raw fd of the (cloned) socket, for `poll(2)`-based readiness.
    fd: RawFd,
    closed: AtomicBool,
    peer: SocketAddr,
    yield_hook: Mutex<Option<YieldHook>>,
    /// Readiness callback, fired on close (frame arrival is visible to the
    /// event loop through the fd itself).
    waker: Mutex<Option<Waker>>,
}

impl std::fmt::Debug for SciConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SciConnection")
            .field("peer", &self.peer)
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl SciConnection {
    fn from_stream(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let reader = stream.try_clone()?;
        let fd = reader.as_raw_fd();
        Ok(SciConnection {
            writer: Mutex::new(stream),
            write_backlog: Mutex::new(Vec::new()),
            reader: Mutex::new((reader, ReadBuf::default())),
            nonblocking: Mutex::new(()),
            fd,
            closed: AtomicBool::new(false),
            peer,
            yield_hook: Mutex::new(None),
            waker: Mutex::new(None),
        })
    }

    /// One read of whatever the kernel has buffered, never blocking: the
    /// outer error is the mode switch's, the inner one the read's.
    fn read_nonblocking(
        &self,
        stream: &mut TcpStream,
        chunk: &mut [u8],
    ) -> std::io::Result<std::io::Result<usize>> {
        let _mode = self.nonblocking.lock();
        stream.set_nonblocking(true)?;
        let read = stream.read(chunk);
        stream.set_nonblocking(false)?;
        Ok(read)
    }

    /// Flushes any `try_send_batch` backlog, blocking. Caller holds the
    /// writer lock; keeps mixed blocking/non-blocking send paths ordered.
    fn flush_backlog_blocking(&self, w: &mut TcpStream) -> Result<(), TransportError> {
        let mut backlog = self.write_backlog.lock();
        if !backlog.is_empty() {
            w.write_all(&backlog)?;
            backlog.clear();
        }
        Ok(())
    }

    /// Non-blocking write of as many valid frames as the kernel takes.
    /// Caller holds the writer lock with the stream in non-blocking mode.
    /// A frame whose bytes are only partially accepted counts as sent; its
    /// tail goes to `write_backlog` and is flushed ahead of later sends.
    fn try_send_locked(
        &self,
        w: &mut TcpStream,
        frames: &[&[u8]],
    ) -> Result<usize, TransportError> {
        let mut backlog = self.write_backlog.lock();
        while !backlog.is_empty() {
            match w.write(&backlog) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    backlog.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) => return Err(e.into()),
            }
        }
        let mut accepted = 0;
        for frame in frames {
            let header = (frame.len() as u32).to_be_bytes();
            let mut off = 0;
            while off < header.len() {
                match w.write(&header[off..]) {
                    Ok(0) => return Err(TransportError::Closed),
                    Ok(n) => off += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if off == 0 {
                            // Nothing of this frame is committed to the
                            // stream yet: hand it back whole.
                            return Ok(accepted);
                        }
                        backlog.extend_from_slice(&header[off..]);
                        backlog.extend_from_slice(frame);
                        return Ok(accepted + 1);
                    }
                    Err(e) => {
                        return if accepted > 0 {
                            Ok(accepted)
                        } else {
                            Err(e.into())
                        }
                    }
                }
            }
            let mut boff = 0;
            while boff < frame.len() {
                match w.write(&frame[boff..]) {
                    Ok(0) => return Err(TransportError::Closed),
                    Ok(n) => boff += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        backlog.extend_from_slice(&frame[boff..]);
                        return Ok(accepted + 1);
                    }
                    Err(e) => {
                        return if accepted > 0 {
                            Ok(accepted)
                        } else {
                            Err(e.into())
                        }
                    }
                }
            }
            accepted += 1;
        }
        Ok(accepted)
    }

    /// [`ReadBuf::pop_frame`], closing the connection on a refused length
    /// prefix: the bytes behind it cannot be framed.
    fn pop_frame(&self, rb: &mut ReadBuf) -> Result<Option<Vec<u8>>, TransportError> {
        rb.pop_frame().inspect_err(|_| self.close())
    }

    /// Switches receives to non-blocking polling, invoking `hook` between
    /// polls — the paper's user-level-package receive discipline
    /// (`NCS_thread_yield()` while no data is pending).
    pub fn set_yield_hook(&self, hook: Option<YieldHook>) {
        *self.yield_hook.lock() = hook;
    }

    /// One wait for more inbound bytes, appended to `rb`: a read that
    /// blocks in the kernel until `deadline` — or, with a yield hook, one
    /// non-blocking look and, if it found nothing, a cooperative yield.
    fn read_more(
        &self,
        (stream, rb): (&mut TcpStream, &mut ReadBuf),
        chunk: &mut [u8],
        hook: Option<&YieldHook>,
        deadline: Option<Instant>,
    ) -> Result<(), TransportError> {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let timed_out = left.is_some_and(|left| left.is_zero());
        let read = if hook.is_some() {
            self.read_nonblocking(stream, chunk)?
        } else if timed_out {
            return Err(TransportError::Timeout);
        } else {
            stream.set_read_timeout(left)?;
            stream.read(chunk)
        };
        match (read, hook) {
            (Ok(0), _) => return Err(TransportError::Closed),
            (Ok(n), _) => rb.buf.extend_from_slice(&chunk[..n]),
            (Err(e), Some(hook)) if e.kind() == WouldBlock && !timed_out => hook(),
            (Err(e), _) if matches!(e.kind(), WouldBlock | TimedOut) => {
                return Err(TransportError::Timeout)
            }
            (Err(e), _) => return Err(e.into()),
        }
        Ok(())
    }

    fn recv_deadline(&self, deadline: Option<Instant>) -> Result<Vec<u8>, TransportError> {
        let hook = self.yield_hook.lock().clone();
        let mut guard = self.reader.lock();
        let (stream, rb) = &mut *guard;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.pop_frame(rb)? {
                return Ok(frame);
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            self.read_more((stream, rb), &mut chunk, hook.as_ref(), deadline)?;
        }
    }
}

impl Connection for SciConnection {
    fn caps(&self) -> Capabilities {
        Capabilities {
            interface: "SCI",
            reliable: true,
            ordered: true,
            max_frame: MAX_FRAME,
        }
    }

    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        valid_prefix(&[frame], MAX_FRAME)?;
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let mut w = self.writer.lock();
        self.flush_backlog_blocking(&mut w)?;
        w.write_all(&(frame.len() as u32).to_be_bytes())?;
        w.write_all(frame)?;
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.recv_deadline(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.recv_deadline(Some(Instant::now() + timeout))
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut guard = self.reader.lock();
        let (stream, rb) = &mut *guard;
        if let Some(frame) = self.pop_frame(rb)? {
            return Ok(Some(frame));
        }
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        // Drain whatever the kernel has buffered, without blocking.
        let mut chunk = [0u8; 64 * 1024];
        let mode = self.nonblocking.lock();
        stream.set_nonblocking(true)?;
        let outcome = loop {
            match stream.read(&mut chunk) {
                Ok(0) => break Err(TransportError::Closed),
                Ok(n) => rb.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) => break Err(e.into()),
            }
        };
        stream.set_nonblocking(false)?;
        drop(mode);
        match outcome {
            Ok(()) => self.pop_frame(rb),
            Err(TransportError::Closed) => match self.pop_frame(rb)? {
                Some(f) => Ok(Some(f)),
                None => Err(TransportError::Closed),
            },
            Err(e) => Err(e),
        }
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let valid = valid_prefix(frames, MAX_FRAME)?;
        if valid == 0 {
            return Ok(0);
        }
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        // Coalesce length-prefixed frames into one scratch buffer and push
        // it with a single write — the writev analogue: one writer-lock
        // acquisition and (kernel buffer permitting) one syscall for the
        // whole batch, instead of two writes per frame.
        let mut end = 0;
        let mut bytes = 0;
        while end < valid {
            let need = 4 + frames[end].len();
            if end > 0 && bytes + need > COALESCE_BYTES {
                break;
            }
            bytes += need;
            end += 1;
        }
        let mut scratch = Vec::with_capacity(bytes);
        for frame in &frames[..end] {
            scratch.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            scratch.extend_from_slice(frame);
        }
        let mut w = self.writer.lock();
        self.flush_backlog_blocking(&mut w)?;
        w.write_all(&scratch)?;
        Ok(end)
    }

    fn try_send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let valid = valid_prefix(frames, MAX_FRAME)?;
        if valid == 0 {
            return Ok(0);
        }
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let mut w = self.writer.lock();
        let mode = self.nonblocking.lock();
        w.set_nonblocking(true)?;
        let result = self.try_send_locked(&mut w, &frames[..valid]);
        let restore = w.set_nonblocking(false);
        drop(mode);
        let accepted = result?;
        restore?;
        Ok(accepted)
    }

    fn recv_many(&self, max: usize, timeout: Duration) -> Result<Vec<Vec<u8>>, TransportError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let deadline = Instant::now() + timeout;
        let hook = self.yield_hook.lock().clone();
        // One reader-lock acquisition for the entire batch.
        let mut guard = self.reader.lock();
        let (stream, rb) = &mut *guard;
        let mut out = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            while out.len() < max {
                match self.pop_frame(rb) {
                    Ok(Some(f)) => out.push(f),
                    Ok(None) => break,
                    // The frames before a refused prefix are still good;
                    // the refusal is repeated by the next call.
                    Err(_) if !out.is_empty() => return Ok(out),
                    Err(e) => return Err(e),
                }
            }
            if out.len() >= max {
                return Ok(out);
            }
            if !out.is_empty() {
                // We have frames: only scoop whatever the kernel already
                // buffered, never block (errors resurface on the next
                // call; the partial batch is returned now).
                let r = self.read_nonblocking(stream, &mut chunk)?;
                match r {
                    Ok(n) if n > 0 => rb.buf.extend_from_slice(&chunk[..n]),
                    _ => return Ok(out),
                }
                continue;
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            // Nothing yet: wait for the first frame, cooperatively when a
            // yield hook is installed (the §4.1 user-level discipline).
            self.read_more((stream, rb), &mut chunk, hook.as_ref(), Some(deadline))?;
        }
    }

    fn readiness(&self) -> Readiness {
        Readiness::Fd(self.fd)
    }

    fn register_waker(&self, waker: Option<Waker>) {
        *self.waker.lock() = waker;
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
            // The socket shutdown makes the fd poll readable (HUP), but an
            // event loop parked on mailbox wakeups still needs the nudge.
            let waker = self.waker.lock().clone();
            if let Some(w) = waker {
                w();
            }
        }
    }

    fn peer_label(&self) -> String {
        format!("sci:{}", self.peer)
    }
}

impl Drop for SciConnection {
    fn drop(&mut self) {
        self.close();
    }
}

/// A TCP listener producing [`SciConnection`]s. The socket is put in
/// non-blocking mode once, at [`SciListener::bind`]: it is one open file
/// description however many threads and event loops accept on it, so a
/// mode flipped per call is flipped under everybody else's feet.
#[derive(Debug)]
pub struct SciListener {
    listener: TcpListener,
}

/// Pause between looks of a blocking accept.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

impl SciListener {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(SciListener { listener })
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        Ok(self.listener.local_addr()?)
    }

    /// How an event loop learns that a connection may be waiting: the
    /// listening socket polls readable.
    pub fn readiness(&self) -> Readiness {
        Readiness::Fd(self.listener.as_raw_fd())
    }

    /// Accepts one inbound connection if one is waiting. Never blocks.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn try_accept(&self) -> Result<Option<SciConnection>, TransportError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return SciConnection::from_stream(stream).map(Some);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                // A peer that gave up while queued: the next one, if any.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Accepts one inbound connection (blocking).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn accept(&self) -> Result<SciConnection, TransportError> {
        self.accept_timeout(Duration::MAX)
    }

    /// Accepts one inbound connection, looking with
    /// [`SciListener::try_accept`] until `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when nothing arrived in time; otherwise
    /// propagates socket errors.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<SciConnection, TransportError> {
        // No deadline at all for a timeout beyond what the clock can tell.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(conn) = self.try_accept()? {
                return Ok(conn);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(TransportError::Timeout);
            }
            std::thread::sleep(ACCEPT_TICK);
        }
    }
}

/// Connects to a listening SCI endpoint.
///
/// # Errors
///
/// Propagates socket errors.
pub fn connect(addr: SocketAddr) -> Result<SciConnection, TransportError> {
    let stream = TcpStream::connect(addr)?;
    SciConnection::from_stream(stream)
}

/// Default overall budget for [`connect_retry`], used by the node layer's
/// SCI links.
pub const CONNECT_RETRY_TIMEOUT: Duration = Duration::from_secs(5);

/// Initial pause after a refused connect; doubles per attempt up to
/// [`CONNECT_BACKOFF_MAX`].
const CONNECT_BACKOFF_MIN: Duration = Duration::from_millis(5);
const CONNECT_BACKOFF_MAX: Duration = Duration::from_millis(200);

/// Whether a connect failure is worth retrying: the peer's listener may
/// simply not exist *yet* (cluster ranks race each other through startup).
fn connect_retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::AddrNotAvailable
            | std::io::ErrorKind::TimedOut
    )
}

/// [`connect`] with bounded retry and exponential backoff, for dialing a
/// peer that may not be listening yet. Ranks of a cluster start
/// concurrently; without this, the faster rank's connect races the slower
/// rank's `bind` and dies with `ConnectionRefused` even though the peer is
/// milliseconds away from accepting.
///
/// Retries only failures that can heal by waiting (refused / reset /
/// not-yet-routable); anything else propagates immediately. Gives up with
/// the last error once `timeout` is spent. Each attempt is itself bounded
/// by the remaining budget (`TcpStream::connect_timeout`), so a
/// blackholed address — packets dropped, not refused — cannot park the
/// caller on the kernel's multi-minute SYN timeout.
///
/// # Errors
///
/// The final socket error after the retry budget, or the first
/// non-retryable error.
pub fn connect_retry(addr: SocketAddr, timeout: Duration) -> Result<SciConnection, TransportError> {
    let deadline = Instant::now() + timeout;
    let mut backoff = CONNECT_BACKOFF_MIN;
    loop {
        // Never pass a zero budget: connect_timeout rejects it. The floor
        // also gives a `timeout == 0` caller one real (if brisk) attempt.
        let attempt = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(10));
        match TcpStream::connect_timeout(&addr, attempt) {
            Ok(stream) => return SciConnection::from_stream(stream),
            Err(e) if connect_retryable(&e) && Instant::now() < deadline => {
                let now = Instant::now();
                let left = deadline.saturating_duration_since(now);
                std::thread::sleep(backoff.min(left));
                backoff = (backoff * 2).min(CONNECT_BACKOFF_MAX);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Creates a connected SCI pair over loopback (convenience for tests and
/// single-machine experiments).
///
/// # Errors
///
/// Propagates socket errors.
pub fn loopback_pair() -> Result<(SciConnection, SciConnection), TransportError> {
    let listener = SciListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let t = std::thread::spawn(move || connect(addr));
    let server = listener.accept()?;
    let client = t
        .join()
        .map_err(|_| TransportError::Io("connect thread panicked".to_owned()))??;
    Ok((client, server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn loopback_round_trip() {
        let (a, b) = loopback_pair().unwrap();
        a.send(b"over tcp").unwrap();
        assert_eq!(b.recv().unwrap(), b"over tcp");
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
    }

    #[test]
    fn large_frames_and_batching() {
        let (a, b) = loopback_pair().unwrap();
        let big: Vec<u8> = (0..200_000).map(|i| (i % 255) as u8).collect();
        let big2 = big.clone();
        let t = std::thread::spawn(move || {
            a.send(&big2).unwrap();
            a.send(b"tail").unwrap();
            a
        });
        assert_eq!(b.recv().unwrap(), big);
        assert_eq!(b.recv().unwrap(), b"tail");
        t.join().unwrap();
    }

    #[test]
    fn many_small_frames_keep_boundaries() {
        let (a, b) = loopback_pair().unwrap();
        for i in 0..100u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(b.recv().unwrap(), i.to_be_bytes());
        }
    }

    #[test]
    fn recv_timeout_expires() {
        let (_a, b) = loopback_pair().unwrap();
        let start = Instant::now();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn try_recv_polls() {
        let (a, b) = loopback_pair().unwrap();
        assert_eq!(b.try_recv().unwrap(), None);
        a.send(b"x").unwrap();
        // Loopback delivery is fast but not instantaneous.
        let mut got = None;
        for _ in 0..100 {
            if let Some(f) = b.try_recv().unwrap() {
                got = Some(f);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(got.unwrap(), b"x");
    }

    #[test]
    fn close_surfaces_to_peer() {
        let (a, b) = loopback_pair().unwrap();
        a.close();
        assert_eq!(b.recv(), Err(TransportError::Closed));
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
    }

    #[test]
    fn yield_hook_mode_receives_frames() {
        let (a, b) = loopback_pair().unwrap();
        let yields = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let y2 = Arc::clone(&yields);
        b.set_yield_hook(Some(Arc::new(move || {
            y2.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        })));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            a.send(b"late frame").unwrap();
            a
        });
        assert_eq!(b.recv().unwrap(), b"late frame");
        assert!(yields.load(Ordering::Relaxed) > 0, "hook must have yielded");
        t.join().unwrap();
    }

    #[test]
    fn empty_frame_rejected() {
        let (a, _b) = loopback_pair().unwrap();
        assert_eq!(a.send(b""), Err(TransportError::Empty));
    }

    #[test]
    fn send_batch_coalesces_and_keeps_order() {
        let (a, b) = loopback_pair().unwrap();
        let frames: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 100]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let mut sent = 0;
        while sent < refs.len() {
            sent += a.send_batch(&refs[sent..]).unwrap();
        }
        for f in &frames {
            assert_eq!(&b.recv().unwrap(), f);
        }
    }

    #[test]
    fn send_batch_cuts_at_invalid_frame() {
        let (a, b) = loopback_pair().unwrap();
        let ok: &[u8] = b"fine";
        let empty: &[u8] = b"";
        assert_eq!(a.send_batch(&[ok, ok, empty, ok]), Ok(2));
        assert_eq!(a.send_batch(&[empty]), Err(TransportError::Empty));
        assert_eq!(b.recv().unwrap(), b"fine");
        assert_eq!(b.recv().unwrap(), b"fine");
        a.close();
        assert_eq!(a.send_batch(&[ok]), Err(TransportError::Closed));
    }

    #[test]
    fn send_batch_returns_partial_past_coalesce_budget() {
        let (a, b) = loopback_pair().unwrap();
        // Three frames of 200 KB exceed the 256 KB coalesce budget: the
        // first call must make progress and hand the rest back.
        let big = vec![7u8; 200 * 1024];
        let refs: Vec<&[u8]> = vec![&big, &big, &big];
        let reader = std::thread::spawn(move || {
            for _ in 0..3 {
                assert_eq!(b.recv().unwrap().len(), 200 * 1024);
            }
        });
        let mut sent = 0;
        let mut calls = 0;
        while sent < refs.len() {
            let n = a.send_batch(&refs[sent..]).unwrap();
            assert!(n >= 1);
            sent += n;
            calls += 1;
        }
        assert!(calls >= 2, "coalesce budget must bound one call");
        reader.join().unwrap();
    }

    #[test]
    fn recv_many_drains_in_one_acquisition() {
        let (a, b) = loopback_pair().unwrap();
        for i in 0..10u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 10 {
            got.extend(b.recv_many(16, Duration::from_secs(2)).unwrap());
        }
        let want: Vec<Vec<u8>> = (0..10u32).map(|i| i.to_be_bytes().to_vec()).collect();
        assert_eq!(got, want);
        assert_eq!(
            b.recv_many(4, Duration::from_millis(30)),
            Err(TransportError::Timeout)
        );
        a.close();
        assert_eq!(
            b.recv_many(4, Duration::from_millis(200)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn recv_many_respects_max_and_yield_hook() {
        let (a, b) = loopback_pair().unwrap();
        let yields = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let y2 = Arc::clone(&yields);
        b.set_yield_hook(Some(Arc::new(move || {
            y2.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        })));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let frames: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i]).collect();
            let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
            let mut sent = 0;
            while sent < refs.len() {
                sent += a.send_batch(&refs[sent..]).unwrap();
            }
            a
        });
        let mut got = Vec::new();
        while got.len() < 6 {
            got.extend(b.recv_many(2, Duration::from_secs(2)).unwrap());
            assert!(got.len() <= 6);
        }
        assert_eq!(got.len(), 6);
        assert!(yields.load(Ordering::Relaxed) > 0, "hook must have yielded");
        t.join().unwrap();
        assert_eq!(
            b.recv_many(0, Duration::from_millis(1)).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    #[test]
    fn peer_label_mentions_sci() {
        let (a, _b) = loopback_pair().unwrap();
        assert!(a.peer_label().starts_with("sci:"));
    }

    #[test]
    fn connect_retry_survives_a_not_yet_listening_peer() {
        // Reserve a port, release it, and only start listening on it after
        // the connector has already begun dialing: the first attempts hit
        // ConnectionRefused and must be retried, not surfaced.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let listener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let l = SciListener::bind(&addr.to_string()).expect("late bind");
            let server = l.accept().expect("accept");
            assert_eq!(server.recv().unwrap(), b"after the wait");
            server.send(b"ack").unwrap();
        });
        let client = connect_retry(addr, Duration::from_secs(5)).expect("retry until listening");
        client.send(b"after the wait").unwrap();
        assert_eq!(client.recv().unwrap(), b"ack");
        listener.join().unwrap();
    }

    /// Regression: every `accept_timeout` used to switch the listener to
    /// non-blocking mode and back — on a file description all its callers
    /// share — so of two overlapping calls the one that lost the race sat
    /// in a blocking `accept(2)` until a connection arrived.
    #[test]
    fn overlapping_accept_timeouts_on_one_listener_both_time_out() {
        let listener = Arc::new(SciListener::bind("127.0.0.1:0").unwrap());
        let timed = |l: Arc<SciListener>| {
            let start = Instant::now();
            let outcome = l.accept_timeout(Duration::from_millis(200));
            (outcome.err(), start.elapsed())
        };
        let l = Arc::clone(&listener);
        let first = std::thread::spawn(move || timed(l));
        std::thread::sleep(Duration::from_millis(100));
        let second = timed(Arc::clone(&listener));
        for (err, took) in [first.join().unwrap(), second] {
            assert_eq!(err, Some(TransportError::Timeout));
            assert!(
                took < Duration::from_millis(300),
                "timed out after {took:?}"
            );
        }
        // And the listener still accepts.
        let addr = listener.local_addr().unwrap();
        let client = connect(addr).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        client.send(b"still listening").unwrap();
        assert_eq!(server.recv().unwrap(), b"still listening");
        assert_eq!(listener.try_accept().map(|c| c.is_some()), Ok(false));
    }

    /// A peer whose first bytes claim a frame of 4 GiB is refused at
    /// once, not buffered for: the receive reports `TooLarge` and the
    /// connection closes.
    #[test]
    fn an_oversized_length_prefix_is_refused_and_closes_the_connection() {
        let listener = SciListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        // The writer keeps its end open: a reader that waited for the
        // 4 GiB would time out, not see the stream end.
        let writer = std::thread::spawn(move || {
            let _ = raw.write_all(&[0xff; 4]);
            // The refusal may reset the stream under this write.
            let _ = raw.write_all(&vec![0u8; 1 << 20]);
            raw
        });
        assert_eq!(
            conn.recv_timeout(Duration::from_secs(5)),
            Err(TransportError::TooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME
            })
        );
        assert_eq!(conn.send(b"x"), Err(TransportError::Closed));
        drop(conn);
        writer.join().unwrap();
    }

    #[test]
    fn connect_retry_gives_up_after_its_budget() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let start = Instant::now();
        let r = connect_retry(addr, Duration::from_millis(120));
        assert!(r.is_err(), "nobody ever listened");
        assert!(start.elapsed() >= Duration::from_millis(100));
    }
}
