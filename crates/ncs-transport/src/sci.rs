//! SCI — the Socket Communication Interface: real TCP with length-prefix
//! framing.
//!
//! TCP provides flow and error control in the kernel, so NCS configures SCI
//! connections without its own flow and error control (paper §3.1:
//! "the `NCS_send()` and `NCS_recv()` primitives bypass the Flow Control
//! Thread and Error Control Thread"). SCI is the portability interface: it
//! runs on anything with sockets.
//!
//! The socket is non-blocking for its whole life, so each call costs the
//! system calls its frames need and no mode switches: a batch of frames
//! leaves in one gathered write (`writev`), and a receive reads into the
//! connection's own buffer until it holds one whole frame — a frame already
//! buffered is returned without a system call. Calls that wait (`send`,
//! `send_batch`, the blocking receives) wait in `poll(2)` on the socket, so
//! a [`Connection::close`] from another thread ends their wait.
//!
//! For the user-level thread package the paper implements receives with
//! non-blocking system calls plus `thread_yield()`; [`SciConnection::set_yield_hook`]
//! enables exactly that mode.

use std::io::{ErrorKind, IoSlice, Read, Write};
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

/// Most frames one gathered write carries: at least the 32 `ncs-core`
/// hands over per call, so each of its batches leaves in one `writev`.
/// Frames beyond come back as a partial batch for the caller to retry (the
/// trait's backpressure contract).
const BATCH_FRAMES: usize = 32;

/// Receive storage a connection starts with, on its first read. It grows
/// to fit the frame at its front, and no further.
const READ_BUF_START: usize = 4 * 1024;

/// Inbound reassembly: the socket is read straight into `buf`, whose bytes
/// `start..end` are received and not yet framed. All of `buf` is
/// initialised; only storage it grows by is zeroed.
#[derive(Debug, Default)]
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// The length prefix at the front, once all four of its bytes are in.
    fn front_len(&self) -> Option<usize> {
        let prefix = self.buf[self.start..self.end].first_chunk::<4>()?;
        Some(u32::from_be_bytes(*prefix) as usize)
    }

    /// Pops one complete frame if buffered. A length prefix above
    /// [`MAX_FRAME`] is refused as soon as it is read — nothing that long
    /// is sent by a peer speaking this framing — and stays at the front
    /// of the buffer, so every later look refuses it too.
    fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let Some(len) = self.front_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(TransportError::TooLarge {
                len,
                max: MAX_FRAME,
            });
        }
        let body = self.start + 4;
        if self.end < body + len {
            return Ok(None);
        }
        let frame = self.buf[body..body + len].to_vec();
        self.start = body + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(frame))
    }

    /// One read from `stream` behind the buffered bytes; `Ok(false)` when
    /// the socket has nothing for now. Called only when no complete frame
    /// is buffered. It first makes room for the whole frame at the front
    /// (moving it to the start of the storage, growing the storage if that
    /// is too small), and reads no more than the storage holds.
    fn read_from(&mut self, mut stream: &TcpStream) -> Result<bool, TransportError> {
        let want = self
            .front_len()
            .map_or(0, |len| 4 + len.min(MAX_FRAME))
            .max(READ_BUF_START);
        if self.start + want > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
        }
        match stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => {
                self.end += n;
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e.into()),
        }
    }
}

/// `poll(2)`'s descriptor record and the two events SCI waits for.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

/// Waits in `poll(2)` until `fd` reports `events` (or an error or
/// hang-up, which the next read, write or accept meets) or `deadline`
/// passes; [`TransportError::Timeout`] if it already has.
fn wait(fd: &impl AsRawFd, events: i16, deadline: Option<Instant>) -> Result<(), TransportError> {
    let timeout_ms = match deadline {
        None => -1,
        Some(deadline) => {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TransportError::Timeout);
            }
            // Rounded up, so the wait never ends before the deadline.
            i32::try_from(left.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
        }
    };
    let mut fd = PollFd {
        fd: fd.as_raw_fd(),
        events,
        revents: 0,
    };
    // SAFETY: `fd` is one valid `pollfd`, alive for the whole call.
    if unsafe { poll(&mut fd, 1, timeout_ms) } < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e.into());
        }
    }
    Ok(())
}

/// A TCP-backed NCS connection.
pub struct SciConnection {
    /// Non-blocking from [`SciConnection::from_stream`] on, and shared by
    /// readers, writers and `close` (`&TcpStream` reads and writes): the
    /// locks below guard buffers, not the socket.
    stream: TcpStream,
    /// Outbound bytes of the one frame the socket took only part of,
    /// written ahead of anything else. Held through a whole send, so the
    /// frames of concurrent senders never interleave.
    write_backlog: Mutex<Vec<u8>>,
    /// Whether `write_backlog` holds anything: [`Connection::owes_bytes`]
    /// without the lock or a system call. Stored (`Release`) under the
    /// backlog's lock after every write, read (`Acquire`) without it; it
    /// publishes nothing else — a flush takes the lock.
    owes: AtomicBool,
    reader: Mutex<ReadBuf>,
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
        stream.set_nonblocking(true)?;
        let peer = stream.peer_addr()?;
        Ok(SciConnection {
            stream,
            write_backlog: Mutex::new(Vec::new()),
            owes: AtomicBool::new(false),
            reader: Mutex::new(ReadBuf::default()),
            closed: AtomicBool::new(false),
            peer,
            yield_hook: Mutex::new(None),
            waker: Mutex::new(None),
        })
    }

    /// Switches receives to non-blocking polling, invoking `hook` between
    /// polls — the paper's user-level-package receive discipline
    /// (`NCS_thread_yield()` while no data is pending).
    pub fn set_yield_hook(&self, hook: Option<YieldHook>) {
        *self.yield_hook.lock() = hook;
    }

    /// [`ReadBuf::pop_frame`], closing the connection on a refused length
    /// prefix: the bytes behind it cannot be framed.
    fn pop_frame(&self, rb: &mut ReadBuf) -> Result<Option<Vec<u8>>, TransportError> {
        rb.pop_frame().inspect_err(|_| self.close())
    }

    /// The next frame: one already buffered, or one the socket completes
    /// without waiting. `None` once the socket has no more bytes for now;
    /// never a read after the frame it returns is complete.
    fn next_frame(&self, rb: &mut ReadBuf) -> Result<Option<Vec<u8>>, TransportError> {
        loop {
            if let Some(frame) = self.pop_frame(rb)? {
                return Ok(Some(frame));
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            if !rb.read_from(&self.stream)? {
                return Ok(None);
            }
        }
    }

    /// One gathered write (`writev`): the backlog, then a length prefix
    /// and a body for each of up to [`BATCH_FRAMES`] of `frames`. Returns
    /// how many frames the socket took; one it took part of counts, and
    /// the rest of it becomes the backlog. A backlog the write does not
    /// finish takes no frame with it.
    fn write_gathered(&self, backlog: &mut Vec<u8>, frames: &[&[u8]]) -> std::io::Result<usize> {
        let taken = self.write_frames(backlog, frames);
        self.owes.store(!backlog.is_empty(), Ordering::Release);
        taken
    }

    fn write_frames(&self, backlog: &mut Vec<u8>, frames: &[&[u8]]) -> std::io::Result<usize> {
        let frames = &frames[..frames.len().min(BATCH_FRAMES)];
        let mut prefixes = [[0u8; 4]; BATCH_FRAMES];
        for (prefix, frame) in prefixes.iter_mut().zip(frames) {
            *prefix = (frame.len() as u32).to_be_bytes();
        }
        let mut iov = [IoSlice::new(&[]); 1 + 2 * BATCH_FRAMES];
        iov[0] = IoSlice::new(backlog);
        for (i, (prefix, frame)) in prefixes.iter().zip(frames).enumerate() {
            iov[1 + 2 * i] = IoSlice::new(prefix);
            iov[2 + 2 * i] = IoSlice::new(frame);
        }
        let mut written = (&self.stream).write_vectored(&iov[..1 + 2 * frames.len()])?;
        let flushed = written.min(backlog.len());
        backlog.drain(..flushed);
        written -= flushed;
        if !backlog.is_empty() {
            return Ok(0);
        }
        let mut taken = 0;
        for (prefix, frame) in prefixes.iter().zip(frames) {
            if written == 0 {
                break;
            }
            taken += 1;
            if written < 4 + frame.len() {
                backlog.extend_from_slice(&prefix[written.min(4)..]);
                backlog.extend_from_slice(&frame[written.saturating_sub(4)..]);
                break;
            }
            written -= 4 + frame.len();
        }
        Ok(taken)
    }

    /// Writes up to [`BATCH_FRAMES`] of `frames`, and the backlog ahead of
    /// them, in full, waiting in `poll(2)` while the socket is full.
    /// Returns how many frames that was.
    fn send_all(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let frames = &frames[..frames.len().min(BATCH_FRAMES)];
        if frames.is_empty() {
            return Ok(0);
        }
        let mut backlog = self.write_backlog.lock();
        let mut sent = 0;
        while sent < frames.len() || !backlog.is_empty() {
            if self.closed.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            match self.write_gathered(&mut backlog, &frames[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait(&self.stream, POLLOUT, None)?,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(sent)
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

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        // No deadline at all for a timeout beyond what the clock can tell.
        let deadline = Instant::now().checked_add(timeout);
        let hook = self.yield_hook.lock().clone();
        let mut rb = self.reader.lock();
        loop {
            if let Some(frame) = self.next_frame(&mut rb)? {
                return Ok(frame);
            }
            // Nothing yet: yield with a yield hook (the §4.1 user-level
            // discipline), wait in `poll(2)` without one.
            match &hook {
                None => wait(&self.stream, POLLIN, deadline)?,
                Some(hook) if deadline.is_none_or(|d| Instant::now() < d) => hook(),
                Some(_) => return Err(TransportError::Timeout),
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.next_frame(&mut self.reader.lock())
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let valid = valid_prefix(frames, MAX_FRAME)?;
        self.send_all(&frames[..valid])
    }

    fn try_send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let valid = valid_prefix(frames, MAX_FRAME)?;
        if valid == 0 && !self.owes_bytes() {
            return Ok(0);
        }
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        match self.write_gathered(&mut self.write_backlog.lock(), &frames[..valid]) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(0),
            taken => Ok(taken?),
        }
    }

    fn owes_bytes(&self) -> bool {
        // A closed connection owes nothing it could still deliver.
        self.owes.load(Ordering::Acquire) && !self.closed.load(Ordering::Acquire)
    }

    fn readiness(&self) -> Readiness {
        Readiness::Fd(self.stream.as_raw_fd())
    }

    fn register_waker(&self, waker: Option<Waker>) {
        *self.waker.lock() = waker;
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            // No lock taken: a sender waiting for room holds the backlog's,
            // and this shutdown is what ends its wait.
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
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
                Ok((stream, _)) => return SciConnection::from_stream(stream).map(Some),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                // A peer that gave up while queued: the next one, if any.
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
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

    /// Accepts one inbound connection, waiting in `poll(2)` on the
    /// listener until one is waiting or `timeout` has passed.
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
            wait(&self.listener, POLLIN, deadline)?;
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

    /// Receive storage starts at a few KiB and grows to fit the frame at
    /// its front, no further: small frames never take it past its first
    /// size, and a large one takes it to exactly its own.
    #[test]
    fn receive_storage_grows_to_fit_the_frame_it_holds() {
        let (a, b) = loopback_pair().unwrap();
        for i in 0..100u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(b.recv().unwrap(), i.to_be_bytes());
        }
        assert_eq!(b.reader.lock().buf.len(), READ_BUF_START);
        let big = vec![5u8; 200 * 1024];
        let sent = big.clone();
        let t = std::thread::spawn(move || a.send(&sent).map(|()| a));
        assert_eq!(b.recv().unwrap(), big);
        assert_eq!(b.reader.lock().buf.len(), 4 + big.len());
        t.join().unwrap().unwrap();
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

    /// One call carries at most one gathered write's worth of frames, and
    /// the rest comes back for the caller to retry: here 40 frames go in
    /// two calls, of 32 and 8, with the same in the kernel's way.
    #[test]
    fn send_batch_returns_partial_past_one_gathered_write() {
        let (a, b) = loopback_pair().unwrap();
        let frames: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 1 + i as usize]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        assert_eq!(a.send_batch(&refs), Ok(BATCH_FRAMES));
        assert_eq!(a.send_batch(&refs[BATCH_FRAMES..]), Ok(40 - BATCH_FRAMES));
        for f in &frames {
            assert_eq!(&b.recv().unwrap(), f);
        }
        // A blocking batch of large frames still goes out whole.
        let big = vec![7u8; 200 * 1024];
        let reader = std::thread::spawn(move || {
            for _ in 0..3 {
                assert_eq!(b.recv().unwrap().len(), 200 * 1024);
            }
        });
        assert_eq!(a.send_batch(&[&big, &big, &big]), Ok(3));
        reader.join().unwrap();
    }

    /// A sender waiting for room in a socket its peer never drains holds
    /// the send lock; `close` takes no lock, so it returns at once, and
    /// its shutdown ends the sender's wait with `Closed`.
    #[test]
    fn close_returns_while_a_sender_waits_for_room() {
        let (a, _b) = loopback_pair().unwrap();
        let a = Arc::new(a);
        let sender = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let mib = vec![0u8; 1 << 20];
                (0..64).try_for_each(|_| a.send(&mib))
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let closer = std::thread::spawn(move || {
            a.close();
            let _ = closed_tx.send(());
        });
        assert!(
            closed_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "close waited for the blocked sender"
        );
        closer.join().unwrap();
        assert_eq!(sender.join().unwrap(), Err(TransportError::Closed));
    }

    /// A frame the socket takes only part of counts as sent, and the rest
    /// of it is owed: an empty batch writes it, and once the peer has
    /// drained enough of the stream the frame arrives whole.
    #[test]
    fn an_empty_batch_writes_what_a_partial_frame_still_owes() {
        let (a, b) = loopback_pair().unwrap();
        assert!(!a.owes_bytes());
        let big = vec![3u8; 4 << 20];
        assert_eq!(a.try_send_batch(&[&big]), Ok(1));
        assert!(a.owes_bytes(), "no socket buffer holds 4 MiB");
        let reader = std::thread::spawn(move || b.recv().map(|frame| frame.len()));
        while a.owes_bytes() {
            assert_eq!(a.try_send_batch(&[]), Ok(0));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reader.join().unwrap(), Ok(big.len()));
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
