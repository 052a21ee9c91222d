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
//!   the buffer, a propagation latency, and optional per-endpoint platform
//!   stack costs ([`netmodel::PlatformProfile`]) charged on each operation.
//!
//! The pipe is reliable and ordered, like the TCP it stands in for. It owns
//! no thread: each direction is a schedule fixed at the send — a frame
//! leaves the buffer at max(sent, previous departure) + len / rate, and
//! arrives a latency later — that whoever touches the pipe brings up to
//! now (the `iface` module's "Modelled wires"). A frame put in flight rings
//! the receiver's waker, and [`Connection::due`] says when it arrives.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_threads::sync::Mailbox;
use netmodel::{Pacer, PlatformProfile};
use parking_lot::{Condvar, Mutex};

use crate::iface::{
    send_each, Capabilities, Connection, Flight, Inbox, Readiness, Schedule, TransportError, Waker,
};

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
    /// Wall seconds per model second for the drain and the latency.
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
    schedule: Mutex<Schedule>,
    /// Where a sender waits for a departure, or a close.
    room: Condvar,
    config: PipeConfig,
    /// Frames delivered to the receiver; it ends when the end of the
    /// stream arrives, or when the receiver closes.
    delivered: Inbox,
}

impl PipeDir {
    fn new(config: &PipeConfig) -> Arc<Self> {
        Arc::new(PipeDir {
            schedule: Mutex::new(Schedule::default()),
            room: Condvar::new(),
            config: config.clone(),
            delivered: Inbox::new(Mailbox::unbounded()),
        })
    }

    /// Wall time `bytes` take to drain onto the wire.
    fn drain_time(&self, bytes: usize) -> Duration {
        let rate = self.config.drain_bytes_per_sec;
        let model = rate.map_or(Duration::ZERO, |rate| {
            Duration::from_nanos(bytes as u64 * 1_000_000_000 / rate.max(1))
        });
        model.mul_f64(self.config.time_scale)
    }

    fn advance_now(&self) -> Option<Instant> {
        self.schedule
            .lock()
            .advance(&self.delivered, Instant::now())
    }

    /// When a write of `len` bytes at `now` may look for room again:
    /// `None` when it need not wait — an empty buffer takes any frame (a
    /// larger one as a partial write), a non-empty one only a frame that
    /// fits — else at the next departure.
    fn room_at(&self, s: &Schedule, now: Instant, len: usize) -> Option<Instant> {
        // The frames still in the buffer: a suffix, as they depart in order.
        let buffered = s.flight.iter().rev().take_while(|f| f.departs > now);
        let (used, next) = buffered.fold((0, None), |(used, _), f| {
            (used + f.frame.len(), Some(f.departs))
        });
        next.filter(|_| used + len > self.config.buffer_bytes)
    }

    /// Takes no more frames, wakes a sender waiting for room, and puts the
    /// end of the stream in flight behind the last frame. Whichever end
    /// closes first.
    fn close(&self) {
        if self.schedule.lock().close(&self.delivered, Instant::now()) {
            self.room.notify_all();
        }
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
    /// drain as in the 1998 timing model.
    fn write(&self, frame: &[u8], first: bool) -> Result<bool, TransportError> {
        let (dir, len) = (&self.tx, frame.len());
        {
            let (mut s, now) = (dir.schedule.lock(), Instant::now());
            if s.closed {
                return Err(TransportError::Closed);
            }
            s.advance(&dir.delivered, now);
            if !first && (len > dir.config.buffer_bytes || dir.room_at(&s, now, len).is_some()) {
                return Ok(false);
            }
        }
        if let Some(m) = &self.model {
            m.pacer.charge(m.profile.send_cost(len));
        }
        let frame = frame.to_vec();
        // Kernel buffer admission: blocks AT OS LEVEL, departure by
        // departure until there is room — under the user-level thread
        // package this stalls every green thread, which is precisely the
        // §4.1 behaviour.
        let mut s = dir.schedule.lock();
        let now = loop {
            let now = Instant::now();
            if s.closed {
                return Err(TransportError::Closed);
            }
            s.advance(&dir.delivered, now);
            let Some(departs) = dir.room_at(&s, now, len) else {
                break now;
            };
            dir.room.wait_until(&mut s, departs);
        };
        let departs = s.flight.back().map_or(now, |f| f.departs.max(now)) + dir.drain_time(len);
        let arrives = departs + dir.config.latency.mul_f64(dir.config.time_scale);
        let flight = Flight {
            departs,
            arrives,
            frame,
        };
        s.put(&dir.delivered, flight, now);
        drop(s);
        // Partial-write model: a frame larger than the kernel buffer keeps
        // `write` blocked while the excess drains onto the wire (the writer
        // is released once all but the last buffer-full has left). This is
        // the §4.1 blocking that stalls the whole process under a
        // user-level thread package.
        if len > dir.config.buffer_bytes {
            netmodel::precise_wait(dir.drain_time(len - dir.config.buffer_bytes));
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
            overrun_ring: None,
            ordered: true,
            max_frame: MAX_FRAME,
        }
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        send_each(frames, MAX_FRAME, |frame, first| self.write(frame, first))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let frame = self.rx.delivered.recv_timeout(timeout, || self.due())?;
        Ok(self.received(frame))
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.rx.advance_now();
        let frame = self.rx.delivered.try_recv()?;
        Ok(frame.map(|f| self.received(f)))
    }

    fn due(&self) -> Option<Instant> {
        self.rx.advance_now()
    }

    fn readiness(&self) -> Readiness {
        Readiness::Waker
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.rx.delivered.queue.set_notify(waker);
    }

    fn close(&self) {
        // Our receives end now and the peer's sends fail. Our own sends
        // fail too, but the peer's stream ends only when the end of the
        // stream arrives, behind every frame we sent before — TCP's order.
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
    /// before `Closed`, every time — the end of the stream arrives behind
    /// the frame.
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

    /// A burst of 32 × 1 KiB frames sent back to back over
    /// `ncs_bench::atm_wire`'s shape (64 KiB buffer, 16.875 MB/s, 100 µs):
    /// frame k is due when the drain has moved k + 1 frames, plus one
    /// latency — propagation is pipelined, not waited out frame by frame
    /// (that took 32 × (60.7 + 100) µs = 5.1 ms, against 2.0 ms) — as
    /// `due` reports it, and it is never receivable before. The burst's
    /// wall time is at least its model time, polled and blocked alike; the
    /// ratio is printed (`--nocapture`).
    #[test]
    fn a_burst_moves_at_the_drain_rate() {
        const LEN: usize = 1024;
        const FRAMES: u32 = 32;
        let config = PipeConfig {
            buffer_bytes: 64 * 1024,
            drain_bytes_per_sec: Some(135_000_000 / 8),
            latency: Duration::from_micros(100),
            time_scale: 1.0,
        };
        let per_frame = Duration::from_nanos(LEN as u64 * 1_000_000_000 / 16_875_000);
        let model = |k: u32| per_frame * (k + 1) + config.latency;
        // Nanosecond rounding of the scaled drain time, frame by frame.
        let rounding = Duration::from_micros(1);
        for blocking in [false, true] {
            let (a, b) = pair(config.clone());
            let before = Instant::now();
            for k in 0..FRAMES {
                a.send(&[k as u8; LEN]).unwrap();
            }
            let sent = Instant::now();
            for k in 0..FRAMES {
                // The next frame in flight is one not yet received, due on
                // its schedule; the first send was between `before` and
                // `sent`.
                if let Some(due) = b.due() {
                    let on_schedule = |j| {
                        due + rounding >= before + model(j) && due <= sent + model(j) + rounding
                    };
                    assert!((k..FRAMES).any(on_schedule), "{due:?} is off the schedule");
                }
                let frame = match blocking {
                    true => b.recv().unwrap(),
                    false => loop {
                        if let Some(frame) = b.try_recv().unwrap() {
                            break frame;
                        }
                    },
                };
                let early = Instant::now() + rounding < before + model(k);
                assert!(!early, "frame {k} received before its due");
                assert_eq!(frame, [k as u8; LEN]);
            }
            let burst = before.elapsed();
            assert!(burst >= model(FRAMES - 1), "burst took {burst:?}");
            let ratio = burst.as_secs_f64() / model(FRAMES - 1).as_secs_f64();
            println!("blocking {blocking}: burst {burst:?}, {ratio:.3} x the drain rate's");
            assert_eq!(b.due(), None, "nothing is in flight");
        }
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
        assert!(c.overrun_ring.is_none() && c.ordered);
        assert_eq!(c.interface, "PIPE");
    }
}
