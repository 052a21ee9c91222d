//! PIPE — a modelled 1998 kernel socket pair.
//!
//! Reproduces the two socket behaviours the paper's experiments depend on:
//!
//! * a **bounded kernel send buffer** (32 KB in the paper's §4.1 test):
//!   `send` blocks *at OS level* when the buffer is full. Under the
//!   user-level thread package this stalls the whole process — exactly the
//!   effect Figure 10 measures — while kernel-level threads overlap the
//!   blocked send with computation;
//! * a **drain rate** modelling how fast the kernel + wire move data out of
//!   the buffer, and optional per-endpoint platform stack costs
//!   ([`netmodel::PlatformProfile`]) charged on each operation.
//!
//! The pipe is reliable and ordered, like the TCP it stands in for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ncs_threads::sync::Mailbox;
use netmodel::{Pacer, PlatformProfile};
use parking_lot::{Condvar, Mutex};

use crate::iface::{send_each, Capabilities, Connection, Inbox, Readiness, TransportError, Waker};

/// Largest frame the pipe accepts.
pub const MAX_FRAME: usize = 1024 * 1024;

/// Configuration for a modelled socket pair.
#[derive(Debug, Clone)]
pub struct PipeConfig {
    /// Kernel send-buffer size in bytes (32 KB in the paper).
    pub buffer_bytes: usize,
    /// Rate at which the kernel drains the send buffer onto the wire, in
    /// bytes of *model* time per second. `None` drains instantly.
    pub drain_bytes_per_sec: Option<u64>,
    /// One-way delivery latency (model time) applied after draining.
    pub latency: Duration,
    /// Wall seconds per model second for the drain/latency process.
    pub time_scale: f64,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            buffer_bytes: 32 * 1024,
            drain_bytes_per_sec: None,
            latency: Duration::ZERO,
            time_scale: 1.0,
        }
    }
}

/// Per-endpoint platform cost model.
#[derive(Debug, Clone)]
pub struct EndpointModel {
    /// The modelled platform.
    pub profile: Arc<PlatformProfile>,
    /// Pacer charging that platform's costs.
    pub pacer: Arc<Pacer>,
}

/// One direction of the pipe.
#[derive(Debug)]
struct PipeDir {
    /// Bytes currently occupying the kernel buffer.
    used: Mutex<usize>,
    space: Condvar,
    capacity: usize,
    /// Drain rate and scale, duplicated from the pair's config for the
    /// partial-write blocking model.
    drain_bytes_per_sec: Option<u64>,
    time_scale: f64,
    /// Frames waiting for the drain thread, and behind the last of them,
    /// once either end closed, an empty frame: the end of the stream.
    inflight: Mailbox<Vec<u8>>,
    /// Frames delivered to the receiver; it ends when the drain reaches
    /// the end marker, or when the receiver closes.
    delivered: Inbox,
    /// Either end closed: the direction takes no more frames.
    closed: AtomicBool,
}

impl PipeDir {
    fn new(config: &PipeConfig) -> Arc<Self> {
        Arc::new(PipeDir {
            used: Mutex::new(0),
            space: Condvar::new(),
            capacity: config.buffer_bytes,
            drain_bytes_per_sec: config.drain_bytes_per_sec,
            time_scale: config.time_scale,
            inflight: Mailbox::unbounded(),
            delivered: Inbox::new(Mailbox::unbounded()),
            closed: AtomicBool::new(false),
        })
    }

    /// Takes no more frames, wakes a sender waiting for room, and queues
    /// the end marker behind every frame taken before: the drain ends the
    /// receiver's stream there, and stops. Whichever end closes first.
    fn close(&self) {
        let _admission = self.used.lock();
        if !self.closed.swap(true, Ordering::AcqRel) {
            self.space.notify_all();
            self.inflight.send(Vec::new());
        }
    }

    /// Whether a write of `len` bytes waits for room while `used` bytes
    /// are buffered: an empty buffer takes any frame (a larger one as a
    /// partial write), a non-empty one only a frame that fits.
    fn must_wait(&self, used: usize, len: usize) -> bool {
        used > 0 && used + len > self.capacity
    }
}

/// Drain thread: moves frames from the kernel buffer onto the "wire" at the
/// configured rate, then delivers them after the configured latency, and
/// ends the receiver's stream at the sender's end marker.
fn run_drain(dir: Arc<PipeDir>, config: PipeConfig) {
    loop {
        let frame = dir.inflight.recv();
        if frame.is_empty() {
            return dir.delivered.end();
        }
        // Serialisation onto the wire at the drain rate.
        if let Some(rate) = config.drain_bytes_per_sec {
            let model = Duration::from_nanos(frame.len() as u64 * 1_000_000_000 / rate.max(1));
            let wall = model.mul_f64(config.time_scale);
            if !wall.is_zero() {
                netmodel::precise_wait(wall);
            }
        }
        // Bytes leave the kernel buffer: senders may proceed.
        {
            let mut used = dir.used.lock();
            *used = used.saturating_sub(frame.len());
            dir.space.notify_all();
        }
        // Propagation to the peer.
        let wall_latency = config.latency.mul_f64(config.time_scale);
        if !wall_latency.is_zero() {
            netmodel::precise_wait(wall_latency);
        }
        dir.delivered.queue.send(frame);
    }
}

/// One endpoint of a modelled socket pair. Create with [`pair`] or
/// [`pair_with_models`].
#[derive(Debug)]
pub struct PipeConnection {
    tx: Arc<PipeDir>,
    rx: Arc<PipeDir>,
    model: Option<EndpointModel>,
    label: String,
}

/// Creates a connected modelled socket pair.
pub fn pair(config: PipeConfig) -> (PipeConnection, PipeConnection) {
    pair_with_models(config, None, None)
}

/// [`pair`] with per-endpoint platform cost models (endpoint `a` first).
pub fn pair_with_models(
    config: PipeConfig,
    model_a: Option<EndpointModel>,
    model_b: Option<EndpointModel>,
) -> (PipeConnection, PipeConnection) {
    assert!(config.buffer_bytes > 0, "buffer must be positive");
    let ab = PipeDir::new(&config);
    let ba = PipeDir::new(&config);
    for dir in [&ab, &ba] {
        let dir = Arc::clone(dir);
        let config = config.clone();
        std::thread::Builder::new()
            .name("pipe-drain".to_owned())
            .spawn(move || run_drain(dir, config))
            .expect("failed to spawn pipe drain thread");
    }
    (
        PipeConnection {
            tx: Arc::clone(&ab),
            rx: Arc::clone(&ba),
            model: model_a,
            label: "pipe-peer-b".to_owned(),
        },
        PipeConnection {
            tx: ba,
            rx: ab,
            model: model_b,
            label: "pipe-peer-a".to_owned(),
        },
    )
}

impl PipeConnection {
    /// Writes one frame into the kernel buffer — `first` of its batch, or
    /// `false` and nothing done when a later frame would block. Charges
    /// the sender's stack cost outside the buffer lock, so it overlaps the
    /// concurrent drain as in the 1998 timing model.
    fn write(&self, frame: &[u8], first: bool) -> Result<bool, TransportError> {
        let dir = &self.tx;
        if dir.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        if !first && (frame.len() > dir.capacity || dir.must_wait(*dir.used.lock(), frame.len())) {
            return Ok(false);
        }
        if let Some(m) = &self.model {
            m.pacer.charge(m.profile.send_cost(frame.len()));
        }
        let frame_len = frame.len();
        let frame = frame.to_vec();
        // Kernel buffer admission: blocks AT OS LEVEL when full — under the
        // user-level thread package this stalls every green thread, which is
        // precisely the §4.1 behaviour. The frame queues under the lock, so
        // it is either ahead of a close's end marker or refused.
        let mut used = dir.used.lock();
        loop {
            if dir.closed.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            if !dir.must_wait(*used, frame_len) {
                break;
            }
            dir.space.wait(&mut used);
        }
        *used += frame_len;
        dir.inflight.send(frame);
        drop(used);
        // Partial-write model: a frame larger than the kernel buffer keeps
        // `write` blocked while the excess drains onto the wire (the drain
        // runs concurrently; the writer is released once all but the last
        // buffer-full has left). This is the §4.1 blocking that stalls the
        // whole process under a user-level thread package.
        if frame_len > dir.capacity {
            if let Some(rate) = dir.drain_bytes_per_sec {
                let excess = (frame_len - dir.capacity) as u64;
                let model = Duration::from_nanos(excess * 1_000_000_000 / rate.max(1));
                netmodel::precise_wait(model.mul_f64(dir.time_scale));
            }
        }
        Ok(true)
    }

    /// Charges the receiver's stack cost for `frame`.
    fn received(&self, frame: Vec<u8>) -> Vec<u8> {
        if let Some(m) = &self.model {
            m.pacer.charge(m.profile.recv_cost(frame.len()));
        }
        frame
    }
}

impl Connection for PipeConnection {
    fn caps(&self) -> Capabilities {
        Capabilities {
            interface: "PIPE",
            reliable: true,
            ordered: true,
            max_frame: MAX_FRAME,
        }
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        send_each(frames, MAX_FRAME, |frame, first| self.write(frame, first))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let frame = self.rx.delivered.recv_timeout(timeout)?;
        Ok(self.received(frame))
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        let frame = self.rx.delivered.try_recv()?;
        Ok(frame.map(|f| self.received(f)))
    }

    fn readiness(&self) -> Readiness {
        Readiness::Waker
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.rx.delivered.queue.set_notify(waker);
    }

    fn close(&self) {
        // Our receives end now and the peer's sends fail. Our own sends
        // fail too, but the peer's stream ends only where the drain meets
        // the end marker, behind every frame we sent before — TCP's order.
        self.rx.close();
        self.rx.delivered.end();
        self.tx.close();
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn frames_round_trip() {
        let (a, b) = pair(PipeConfig::default());
        a.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        b.send(b"world").unwrap();
        assert_eq!(a.recv().unwrap(), b"world");
    }

    #[test]
    fn order_preserved_under_load() {
        let (a, b) = pair(PipeConfig::default());
        let t = std::thread::spawn(move || {
            for i in 0..500u32 {
                a.send(&i.to_be_bytes()).unwrap();
            }
        });
        for i in 0..500u32 {
            assert_eq!(b.recv().unwrap(), i.to_be_bytes());
        }
        t.join().unwrap();
    }

    #[test]
    fn small_sends_do_not_block_with_empty_buffer() {
        let (a, _b) = pair(PipeConfig {
            drain_bytes_per_sec: Some(1_000_000),
            ..PipeConfig::default()
        });
        let start = Instant::now();
        a.send(&vec![0u8; 1024]).unwrap();
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn full_buffer_blocks_sender_until_drained() {
        // 32 KB buffer, 1 MB/s drain: the second 32 KB send must wait
        // ~32 ms for the first to drain.
        let (a, b) = pair(PipeConfig {
            buffer_bytes: 32 * 1024,
            drain_bytes_per_sec: Some(1_000_000),
            ..PipeConfig::default()
        });
        a.send(&vec![1u8; 32 * 1024]).unwrap(); // fills the buffer
        let start = Instant::now();
        a.send(&vec![2u8; 32 * 1024]).unwrap(); // must block for the drain
        let blocked = start.elapsed();
        assert!(blocked >= Duration::from_millis(20), "blocked {blocked:?}");
        assert_eq!(b.recv().unwrap()[0], 1);
        assert_eq!(b.recv().unwrap()[0], 2);
    }

    #[test]
    fn oversized_frame_larger_than_buffer_still_passes_alone() {
        // Frames bigger than the buffer are admitted when the buffer is
        // empty (matching stream sockets, which accept partial writes).
        let (a, b) = pair(PipeConfig {
            buffer_bytes: 4 * 1024,
            ..PipeConfig::default()
        });
        a.send(&vec![7u8; 16 * 1024]).unwrap();
        assert_eq!(b.recv().unwrap().len(), 16 * 1024);
    }

    #[test]
    fn latency_is_applied() {
        let (a, b) = pair(PipeConfig {
            latency: Duration::from_millis(30),
            ..PipeConfig::default()
        });
        let start = Instant::now();
        a.send(b"delayed").unwrap();
        assert_eq!(b.recv().unwrap(), b"delayed");
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn time_scale_compresses_latency() {
        let (a, b) = pair(PipeConfig {
            latency: Duration::from_millis(100),
            time_scale: 0.1, // 10x faster than real time
            ..PipeConfig::default()
        });
        let start = Instant::now();
        a.send(b"fast").unwrap();
        assert_eq!(b.recv().unwrap(), b"fast");
        let wall = start.elapsed();
        assert!(wall >= Duration::from_millis(8), "wall {wall:?}");
        assert!(wall < Duration::from_millis(80), "wall {wall:?}");
    }

    #[test]
    fn platform_model_charges_costs() {
        let model = EndpointModel {
            profile: Arc::new(PlatformProfile::sun4()),
            pacer: Arc::new(Pacer::new(1.0)),
        };
        let (a, b) = pair_with_models(PipeConfig::default(), Some(model), None);
        let start = Instant::now();
        // SUN-4 send cost for 32 KB ~ 450 us + 32768 * 110 ns ~ 4.1 ms.
        a.send(&vec![0u8; 32 * 1024]).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(3), "elapsed {elapsed:?}");
        assert_eq!(b.recv().unwrap().len(), 32 * 1024);
    }

    #[test]
    fn send_batch_delivers_in_order() {
        let (a, b) = pair(PipeConfig::default());
        let frames: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 16]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        assert_eq!(a.send_batch(&refs).unwrap(), 20);
        for i in 0..20u8 {
            assert_eq!(b.recv().unwrap(), vec![i; 16]);
        }
    }

    #[test]
    fn send_batch_returns_partial_on_backpressure() {
        // 1 KB buffer, slow drain: the batch fills the buffer after a few
        // frames and must come back partial instead of blocking.
        let (a, b) = pair(PipeConfig {
            buffer_bytes: 1024,
            drain_bytes_per_sec: Some(10_000),
            ..PipeConfig::default()
        });
        let frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 512]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let start = Instant::now();
        let sent = a.send_batch(&refs).unwrap();
        assert!(
            (1..8).contains(&sent),
            "expected a partial batch, got {sent}"
        );
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "partial batch must not block"
        );
        // The remainder still goes through on retry (blocking as needed).
        let mut done = sent;
        while done < 8 {
            done += a.send_batch(&refs[done..]).unwrap();
        }
        for i in 0..8u8 {
            assert_eq!(b.recv().unwrap(), vec![i; 512]);
        }
    }

    #[test]
    fn recv_many_coalesces_delivered_frames() {
        let (a, b) = pair(PipeConfig::default());
        for i in 0..5u8 {
            a.send(&[i]).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 5 {
            got.extend(b.recv_many(8, Duration::from_secs(1)).unwrap());
        }
        assert_eq!(got, (0..5u8).map(|i| vec![i]).collect::<Vec<_>>());
    }

    #[test]
    fn close_semantics() {
        let (a, b) = pair(PipeConfig::default());
        a.send(b"final").unwrap();
        a.close();
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        assert_eq!(b.send(b"y"), Err(TransportError::Closed));
        assert_eq!(b.recv().unwrap(), b"final");
        assert_eq!(b.recv(), Err(TransportError::Closed));
    }

    /// A close right behind a send: the peer, polling, reads the frame
    /// before `Closed`, every time — the drain thread still carries the
    /// frame when the close happens, and the stream ends behind it.
    #[test]
    fn a_polling_peer_reads_every_frame_sent_before_the_close() {
        let lost = (0..200)
            .filter(|_| {
                let (a, b) = pair(PipeConfig::default());
                a.send(b"final").unwrap();
                a.close();
                loop {
                    match b.try_recv() {
                        Ok(None) => std::thread::yield_now(),
                        Ok(Some(frame)) => break frame != b"final",
                        Err(_) => break true,
                    }
                }
            })
            .count();
        assert_eq!(lost, 0, "{lost} of 200 frames lost to the close");
    }

    #[test]
    fn recv_timeout_works() {
        let (_a, b) = pair(PipeConfig::default());
        assert_eq!(
            b.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn caps_reliable_ordered() {
        let (a, _b) = pair(PipeConfig::default());
        let c = a.caps();
        assert!(c.reliable && c.ordered);
        assert_eq!(c.interface, "PIPE");
    }
}
