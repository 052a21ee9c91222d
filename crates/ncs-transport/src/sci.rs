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
//! `send_batch`, the blocking receives, `accept_timeout`) wait for the
//! socket through [`ncs_threads::sync::wait_fd`], so a
//! [`Connection::close`] from another thread ends their wait, and so does
//! [`connect_retry`]'s backoff through [`ncs_threads::sync::sleep`].
//!
//! *Deviation.* For the user-level thread package the paper's §4.1
//! implements receives with non-blocking system calls plus
//! `thread_yield()`: the receiver polls, and yields between polls. Here a
//! green thread that waits parks in its scheduler, which polls the socket
//! for it beside the descriptors of its other green threads, once per
//! pass over its run queue while they run and in its own idle wait once
//! they do not. The waiter costs nothing until its socket is ready, and
//! the same code waits on an OS thread in `poll(2)`.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ncs_threads::sync::{wait_fd, POLLIN, POLLOUT};
use parking_lot::Mutex;

use crate::iface::{
    valid_prefix, Capabilities, Connection, Readiness, TransportError, Waker, RETAIN_CAPACITY,
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
/// initialised; only storage it grows by is zeroed. A frame is copied out
/// into `spare`, the buffer of the last frame handed back
/// ([`Connection::recycle`]), if there is one.
#[derive(Debug, Default)]
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    spare: Vec<u8>,
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
        let mut frame = std::mem::take(&mut self.spare);
        frame.clear();
        frame.extend_from_slice(&self.buf[body..body + len]);
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

/// Waits until `fd` reports `events` (or an error or hang-up, which the
/// next read, write or accept meets) or `deadline` passes;
/// [`TransportError::Timeout`] if it already has.
fn wait(fd: &impl AsRawFd, events: i16, deadline: Option<Instant>) -> Result<(), TransportError> {
    let left = deadline.map_or(Duration::MAX, |d| {
        d.saturating_duration_since(Instant::now())
    });
    if left.is_zero() {
        return Err(TransportError::Timeout);
    }
    wait_fd(fd.as_raw_fd(), events, left)?;
    Ok(())
}

/// A TCP-backed NCS connection.
pub struct SciConnection {
    /// Non-blocking from [`SciConnection::from_stream`] on, and shared by
    /// readers, writers and `close` (`&TcpStream` reads and writes): the
    /// locks below guard buffers, not the socket.
    stream: TcpStream,
    /// Outbound bytes of the one frame the socket took only part of,
    /// written ahead of anything else, so the bytes of concurrent
    /// senders' frames never interleave. Neither this lock nor the
    /// reader's is held while a call waits on the socket: a green thread
    /// that contended for it would block its whole scheduler.
    write_backlog: Mutex<Vec<u8>>,
    /// Whether `write_backlog` holds anything: [`Connection::owes_bytes`]
    /// without the lock or a system call. Stored (`Release`) under the
    /// backlog's lock after every write, read (`Acquire`) without it; it
    /// publishes nothing else — a flush takes the lock.
    owes: AtomicBool,
    reader: Mutex<ReadBuf>,
    closed: AtomicBool,
    peer: SocketAddr,
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
    fn from_stream(stream: TcpStream, peer: SocketAddr) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(SciConnection {
            stream,
            write_backlog: Mutex::new(Vec::new()),
            owes: AtomicBool::new(false),
            reader: Mutex::new(ReadBuf::default()),
            closed: AtomicBool::new(false),
            peer,
            waker: Mutex::new(None),
        })
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
    /// them, in full, waiting for room while the socket is full.
    /// Returns how many frames that was.
    fn send_all(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let frames = &frames[..frames.len().min(BATCH_FRAMES)];
        if frames.is_empty() {
            return Ok(0);
        }
        let mut sent = 0;
        loop {
            let mut backlog = self.write_backlog.lock();
            if sent == frames.len() && backlog.is_empty() {
                return Ok(sent);
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            match self.write_gathered(&mut backlog, &frames[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    drop(backlog);
                    wait(&self.stream, POLLOUT, None)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Connection for SciConnection {
    fn caps(&self) -> Capabilities {
        Capabilities {
            interface: "SCI",
            overrun_ring: None,
            ordered: true,
            max_frame: MAX_FRAME,
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        // No deadline at all for a timeout beyond what the clock can tell.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(frame) = self.next_frame(&mut self.reader.lock())? {
                return Ok(frame);
            }
            wait(&self.stream, POLLIN, deadline)?;
        }
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.next_frame(&mut self.reader.lock())
    }

    fn recycle(&self, frame: Vec<u8>) {
        if frame.capacity() <= RETAIN_CAPACITY {
            self.reader.lock().spare = frame;
        }
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
            // No lock taken: this shutdown is what ends a sender's wait
            // for room.
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
                Ok((stream, peer)) => return SciConnection::from_stream(stream, peer).map(Some),
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

    /// Accepts one inbound connection, waiting on the listener until one
    /// is waiting or `timeout` has passed.
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
    SciConnection::from_stream(stream, addr)
}

/// Connects to a listening SCI endpoint without waiting for the connect,
/// for an event loop that must not wait on the network. Until the connect
/// completes, the connection behaves as one whose socket is full: it has
/// nothing to read, a write is refused (and owed), and its descriptor
/// reports writable once it can take one. A connect that fails shows as
/// the error of the next read or write.
///
/// # Errors
///
/// A connect refused at once, or another socket error.
pub fn dial(addr: SocketAddr) -> Result<SciConnection, TransportError> {
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    }
    const SOCK_STREAM_NONBLOCK_CLOEXEC: i32 = 1 | 0o4_000 | 0o2_000_000;
    const EINPROGRESS: i32 = 115;
    // A `sockaddr_in` (family 2) or `sockaddr_in6` (family 10), by hand.
    let mut raw = [0u8; 28];
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            raw[4..8].copy_from_slice(&a.ip().octets());
            (2u16, 16)
        }
        SocketAddr::V6(a) => {
            raw[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            raw[8..24].copy_from_slice(&a.ip().octets());
            raw[24..].copy_from_slice(&a.scope_id().to_ne_bytes());
            (10, 28)
        }
    };
    raw[..2].copy_from_slice(&family.to_ne_bytes());
    raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
    // SAFETY: socket(2) takes three integers; a negative result opens nothing.
    let fd = unsafe { socket(i32::from(family), SOCK_STREAM_NONBLOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    // SAFETY: `fd` is the socket just opened, owned by nothing else.
    let stream = unsafe { <TcpStream as std::os::fd::FromRawFd>::from_raw_fd(fd) };
    // SAFETY: `raw` holds a socket address of `len` bytes.
    if unsafe { connect(fd, raw.as_ptr(), len) } < 0 {
        let e = std::io::Error::last_os_error();
        if e.raw_os_error() != Some(EINPROGRESS) {
            return Err(e.into());
        }
    }
    SciConnection::from_stream(stream, addr)
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
/// caller on the kernel's multi-minute SYN timeout. The backoff sleeps
/// through [`ncs_threads::sync::sleep`]: a green dialer's siblings run
/// meanwhile.
///
/// # Errors
///
/// The final socket error after the retry budget, or the first
/// non-retryable error.
pub fn connect_retry(addr: SocketAddr, timeout: Duration) -> Result<SciConnection, TransportError> {
    // No deadline at all for a timeout beyond what the clock can tell.
    let deadline = Instant::now().checked_add(timeout);
    let left = || {
        deadline.map_or(Duration::MAX, |d| {
            d.saturating_duration_since(Instant::now())
        })
    };
    let mut backoff = CONNECT_BACKOFF_MIN;
    loop {
        // Never pass a zero budget: connect_timeout rejects it. The floor
        // also gives a `timeout == 0` caller one real (if brisk) attempt.
        let attempt = left().max(Duration::from_millis(10));
        match TcpStream::connect_timeout(&addr, attempt) {
            Ok(stream) => return SciConnection::from_stream(stream, addr),
            Err(e) if connect_retryable(&e) && !left().is_zero() => {
                ncs_threads::sync::sleep(backoff.min(left()));
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
    // The connect completes in the listener's backlog, before the accept.
    let client = connect(listener.local_addr()?)?;
    Ok((client, listener.accept()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_threads::{ThreadPackage, ThreadPackageExt, UserRuntime};
    use std::sync::Arc;

    /// A dial returns before its connect completes: until then it reads
    /// nothing and owes what it is given, and what it owes leaves once
    /// the peer takes the connection. A dial nobody answers fails at the
    /// dial or at the next read.
    #[test]
    fn a_dial_behaves_as_a_full_socket_until_connected() {
        let listener = SciListener::bind("127.0.0.1:0").unwrap();
        let client = dial(listener.local_addr().unwrap()).unwrap();
        assert_eq!(client.try_recv().unwrap(), None);
        while client.try_send_batch(&[b"early"]).unwrap() == 0 {
            wait(&client.stream, POLLOUT, None).unwrap();
        }
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"early"
        );

        let port = listener.local_addr().unwrap().port();
        drop((listener, server));
        let refused = dial(SocketAddr::from(([127, 0, 0, 1], port))).and_then(|c| {
            wait(&c.stream, POLLIN, None)?;
            c.try_recv()
        });
        assert!(refused.is_err(), "{refused:?}");
    }

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

    /// Closes `conn` two seconds on, unless the returned sender is dropped
    /// first: a wait that stalls its whole green scheduler ends there, in
    /// a failed test rather than a hung one.
    fn watchdog(conn: Arc<SciConnection>) -> std::sync::mpsc::Sender<()> {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            let late = std::sync::mpsc::RecvTimeoutError::Timeout;
            if rx.recv_timeout(Duration::from_secs(2)) == Err(late) {
                conn.close();
            }
        });
        tx
    }

    /// A green thread waiting to receive parks in its scheduler: the
    /// sibling that sends what it waits for runs meanwhile.
    #[test]
    fn a_green_receive_lets_a_sibling_send_what_it_waits_for() {
        let (a, b) = loopback_pair().unwrap();
        let b = Arc::new(b);
        let _watchdog = watchdog(Arc::clone(&b));
        UserRuntime::default().run(move |pkg| {
            let sender = pkg.spawn_typed("sender", move || a.send(b"from a sibling"));
            let frame = b.recv_timeout(Duration::from_secs(10));
            assert_eq!(frame.as_deref(), Ok(&b"from a sibling"[..]));
            assert_eq!(sender.join().unwrap(), Ok(()));
        });
    }

    /// A green thread waiting for room in a full socket parks in its
    /// scheduler: the sibling that drains the peer runs meanwhile.
    #[test]
    fn a_green_send_into_a_full_socket_lets_a_sibling_drain_it() {
        let (a, b) = loopback_pair().unwrap();
        let a = Arc::new(a);
        let _watchdog = watchdog(Arc::clone(&a));
        UserRuntime::default().run(move |pkg| {
            let reader = pkg.spawn_typed("reader", move || {
                (0..16)
                    .map(|_| b.recv().map(|frame| frame.len()))
                    .collect::<Result<Vec<_>, _>>()
            });
            let mib = vec![7u8; 1 << 20];
            assert_eq!(
                a.send_batch(&[&mib[..]; 16]),
                Ok(16),
                "16 MiB fit no socket"
            );
            assert_eq!(reader.join().unwrap(), Ok(vec![1 << 20; 16]));
        });
    }

    /// Green threads waiting to receive and for room hold no lock of the
    /// connection while they wait: siblings' calls on the same
    /// connection return at once.
    #[test]
    fn green_waiters_leave_the_connection_to_their_siblings() {
        let ((a1, b1), (a2, b2)) = (loopback_pair().unwrap(), loopback_pair().unwrap());
        let (b1, a2) = (Arc::new(b1), Arc::new(a2));
        let _watchdogs = (watchdog(Arc::clone(&b1)), watchdog(Arc::clone(&a2)));
        UserRuntime::default().run(move |pkg| {
            let (b1_, a2_) = (Arc::clone(&b1), Arc::clone(&a2));
            let receiver = pkg.spawn_typed("receiver", move || b1_.recv());
            let sender = pkg.spawn_typed("sender", move || {
                let mib = vec![7u8; 1 << 20];
                a2_.send_batch(&[&mib[..]; 16])
            });
            pkg.sleep(Duration::from_millis(50)); // both park
            let start = Instant::now();
            assert_eq!(b1.try_recv(), Ok(None));
            // None fits, or one if room opened since the sender parked.
            let x = a2.try_send_batch(&[b"x"]).unwrap();
            let took = start.elapsed();
            assert!(took < Duration::from_millis(500), "{took:?}");
            a1.send(b"for the receiver").unwrap();
            assert_eq!(
                receiver.join().unwrap().as_deref(),
                Ok(&b"for the receiver"[..])
            );
            let lens: Vec<usize> = (0..16 + x).map(|_| b2.recv().unwrap().len()).collect();
            assert_eq!(lens.iter().filter(|&&len| len == 1 << 20).count(), 16);
            assert_eq!(sender.join().unwrap(), Ok(16));
        });
    }

    /// A green thread waiting to accept parks in its scheduler: the
    /// sibling that dials runs meanwhile.
    #[test]
    fn a_green_accept_lets_a_sibling_dial() {
        let listener = SciListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        UserRuntime::default().run(move |pkg| {
            let dialer = pkg.spawn_typed("dialer", move || connect(addr)?.send(b"dialed"));
            let server = listener.accept_timeout(Duration::from_secs(2));
            let frame = server
                .expect("the sibling dialed")
                .recv_timeout(Duration::from_secs(5));
            assert_eq!(frame.as_deref(), Ok(&b"dialed"[..]));
            assert_eq!(dialer.join().unwrap(), Ok(()));
        });
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

    /// A sender waits for room in a socket its peer never drains; `close`
    /// takes no lock, so it returns at once, and its shutdown ends the
    /// sender's wait with `Closed`.
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
    fn recv_many_respects_max() {
        let (a, b) = loopback_pair().unwrap();
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
            let frames = b.recv_many(2, Duration::from_secs(2)).unwrap();
            assert!(frames.len() <= 2, "{} frames", frames.len());
            got.extend(frames);
        }
        assert_eq!(got.len(), 6);
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

    /// A green dialer backs off in its scheduler: the sibling that starts
    /// listening runs meanwhile.
    #[test]
    fn a_green_dial_backs_off_while_a_sibling_starts_listening() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        UserRuntime::default().run(move |pkg| {
            let (pkg2, started) = (pkg.clone(), Instant::now());
            let listener = pkg.spawn_typed("listener", move || {
                pkg2.sleep(Duration::from_millis(50));
                let l = SciListener::bind(&addr.to_string())?;
                l.accept_timeout(Duration::from_secs(2))?.recv()
            });
            let client = connect_retry(addr, Duration::from_secs(1)).expect("dialed in time");
            assert!(started.elapsed() >= Duration::from_millis(50));
            client.send(b"after the backoff").unwrap();
            let frame = listener.join().unwrap();
            assert_eq!(frame.as_deref(), Ok(&b"after the backoff"[..]));
        });
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

    /// `Duration::MAX` is no deadline, not an overflow.
    #[test]
    fn connect_retry_takes_duration_max_as_no_deadline() {
        let listener = SciListener::bind("127.0.0.1:0").unwrap();
        let client = connect_retry(listener.local_addr().unwrap(), Duration::MAX).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        client.send(b"no deadline").unwrap();
        assert_eq!(server.recv().unwrap(), b"no deadline");
    }
}
