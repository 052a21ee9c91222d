//! SIM — the simulated network interface.
//!
//! A [`SimNet`] is an in-process network fabric whose links are shaped by
//! a per-direction [`LinkPolicy`] — propagation latency, seeded jitter,
//! serialisation at a configured bandwidth (frames queue behind one
//! another exactly as on a real wire), probabilistic loss (the
//! [`atm_sim::FaultSpec`] machinery) and probabilistic reordering. A
//! direction's [`Direction`] draws each frame's fate at the fabric's time
//! (the wall time since [`SimNet::new`]), and the frame waits in the
//! direction's schedule for its arrival. Like PIPE, SIM owns no thread: a
//! direction is brought up to now by whoever touches it (the `iface`
//! module's "Modelled wires"), a frame put in flight rings the receiver,
//! and [`Connection::due`] says when the next one arrives.
//!
//! The fabric is the simulation backend's data plane: `ncs-runtime`'s
//! `SimSession` meshes ordinary NCS nodes over SIM channels. Chaos drives
//! the same knobs mid-flight through a direction's [`Outbound`] handle:
//! [`Outbound::set_up`] black-holes it (partition, flapping peer),
//! [`Outbound::set_policy`] degrades it (slow link).
//!
//! Everything random is seeded. A direction's draws are a function of its
//! seed and of the frames sent through it: two fabrics built with the same
//! seed, whose directions see the same sends, draw the same drops and
//! jitter, and each direction keeps the same order of its frames — the
//! determinism `ncs-runtime`'s `SimWorld` builds on, with [`Direction`]
//! under its own virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atm_sim::SimTime;
use ncs_threads::sync::Mailbox;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::iface::{
    send_each, Capabilities, Connection, Flight, Inbox, Readiness, Schedule, TransportError, Waker,
};

/// Largest frame SIM accepts (matches HPI: an NCS packet with a 64 KB SDU).
pub const MAX_FRAME: usize = 128 * 1024;

/// Shaping and fault model for one link **direction**.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPolicy {
    /// Propagation delay added to every frame.
    pub latency: Duration,
    /// Jitter bound: each frame gets a seeded uniform draw from
    /// `[0, jitter]` on top of `latency`.
    pub jitter: Duration,
    /// Wire rate in bits per second; `0` means infinite (no serialisation
    /// delay, no queueing). Frames serialise one after another, so a burst
    /// queues behind the link's `busy_until` horizon.
    pub bandwidth_bps: u64,
    /// Probability that a frame is silently dropped.
    pub loss: f64,
    /// Probability that a frame is held back by one extra `latency`,
    /// letting later frames overtake it.
    pub reorder: f64,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        Self::ideal()
    }
}

impl LinkPolicy {
    /// A perfect link: zero latency, infinite bandwidth, no faults.
    pub fn ideal() -> Self {
        LinkPolicy {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bps: 0,
            loss: 0.0,
            reorder: 0.0,
        }
    }

    /// A campus LAN: 50 µs latency, 1 Gb/s, no faults.
    pub fn lan() -> Self {
        LinkPolicy {
            latency: Duration::from_micros(50),
            jitter: Duration::from_micros(5),
            bandwidth_bps: 1_000_000_000,
            loss: 0.0,
            reorder: 0.0,
        }
    }

    /// A lossy WAN hop: 10 ms latency, 2 ms jitter, 100 Mb/s.
    pub fn wan() -> Self {
        LinkPolicy {
            latency: Duration::from_millis(10),
            jitter: Duration::from_millis(2),
            bandwidth_bps: 100_000_000,
            loss: 0.0,
            reorder: 0.0,
        }
    }

    /// This policy with frame loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.loss = p;
        self
    }

    /// Whether this policy can randomise anything (needs an RNG draw).
    fn is_random(&self) -> bool {
        self.loss > 0.0 || self.reorder > 0.0 || self.jitter > Duration::ZERO
    }
}

/// The fate of the frames sent one way along a link: its policy, whether
/// it is up, and the seeded draws and wire horizon that decide when each
/// frame arrives, if at all. A [`SimNet`] pair keeps one per direction;
/// the `ncs-runtime` `SimWorld` engine keeps one per directed rank pair.
#[derive(Debug)]
pub struct Direction {
    /// Shaping and fault model (replaceable mid-flight: the RNG keeps its
    /// stream).
    pub policy: LinkPolicy,
    /// `false` black-holes every frame sent.
    pub up: bool,
    rng: StdRng,
    /// Virtual time until which the wire is serialising earlier frames.
    busy_until: SimTime,
    /// Arrival time of the last in-order frame: jitter stretches gaps but
    /// never reorders — only the explicit `reorder` policy overtakes.
    last_due: SimTime,
}

impl Direction {
    /// A live direction under `policy` whose draws come from `seed` (see
    /// [`mix_seed`]).
    pub fn new(policy: LinkPolicy, seed: u64) -> Self {
        Direction {
            policy,
            up: true,
            rng: StdRng::seed_from_u64(seed),
            busy_until: SimTime::ZERO,
            last_due: SimTime::ZERO,
        }
    }

    /// The arrival time of a `len`-byte frame sent at `now`, or `None` if
    /// it is lost: the direction is down, or the loss draw took it. Draws
    /// happen in call order, so the stream a direction consumes is a
    /// function of its frame sequence alone.
    pub fn fate(&mut self, now: SimTime, len: usize) -> Option<SimTime> {
        if !self.up {
            return None;
        }
        let p = &self.policy;
        let (lost, jitter, reordered) = if p.is_random() {
            let lost = p.loss > 0.0 && self.rng.gen_bool(p.loss);
            let jitter = if p.jitter > Duration::ZERO {
                let bound = p.jitter.as_nanos() as u64;
                Duration::from_nanos(self.rng.gen_range(0..bound + 1))
            } else {
                Duration::ZERO
            };
            let reordered = p.reorder > 0.0 && self.rng.gen_bool(p.reorder);
            (lost, jitter, reordered)
        } else {
            (false, Duration::ZERO, false)
        };
        if lost {
            return None;
        }
        // Serialisation: the frame occupies the wire after every earlier
        // frame of this direction has left it.
        let start = self.busy_until.max(now);
        let wire = if p.bandwidth_bps > 0 {
            atm_sim::time::tx_time(len, p.bandwidth_bps)
        } else {
            Duration::ZERO
        };
        self.busy_until = start + wire;
        let due = start + wire + p.latency + jitter;
        if reordered {
            // Held back past its successors; `last_due` stays put so they
            // may overtake it.
            return Some(due.max(self.last_due) + p.latency.max(Duration::from_micros(1)));
        }
        // Jitter stretches inter-frame gaps but never flips delivery order
        // on one direction (a single-path wire is FIFO).
        self.last_due = due.max(self.last_due);
        Some(self.last_due)
    }
}

/// SplitMix64 over `(seed, stream)`: derives one direction's RNG seed, so
/// that adding a direction never perturbs the draws of existing ones.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulated fabric: the seed its directions draw from, the clock
/// their fates are drawn on, and what it delivered and dropped.
#[derive(Debug)]
pub struct SimNet {
    seed: u64,
    /// The fabric's time zero.
    epoch: Instant,
    /// Pairs made so far: the next pair's place in the seed stream.
    pairs: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

impl SimNet {
    /// A fabric whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(SimNet {
            seed,
            epoch: Instant::now(),
            pairs: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Creates a connected endpoint pair with per-direction policies
    /// (`policy_ab` shapes frames from the first returned endpoint to the
    /// second).
    pub fn pair(
        self: &Arc<Self>,
        policy_ab: LinkPolicy,
        policy_ba: LinkPolicy,
    ) -> (SimConnection, SimConnection) {
        let link = self.pairs.fetch_add(1, Ordering::Relaxed);
        let dir = |d: u64, policy| {
            Arc::new(SimDir {
                net: Arc::clone(self),
                wire: Mutex::new(Wire {
                    schedule: Schedule::default(),
                    fate: Direction::new(policy, mix_seed(self.seed, link << 1 | d)),
                }),
                inbox: Inbox::new(Mailbox::unbounded()),
            })
        };
        let (ab, ba) = (dir(0, policy_ab), dir(1, policy_ba));
        let label = |d| format!("sim-link-{link}-dir-{d}");
        (
            SimConnection {
                tx: Arc::clone(&ab),
                rx: Arc::clone(&ba),
                label: label(0),
            },
            SimConnection {
                tx: ba,
                rx: ab,
                label: label(1),
            },
        )
    }

    /// Frames taken off the fabric by the endpoints they were sent to.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Frames dropped so far (loss draws plus downed directions).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A direction's sender side: its schedule, and the fate of its next frame.
#[derive(Debug)]
struct Wire {
    schedule: Schedule,
    fate: Direction,
}

/// One direction of a [`SimNet`] pair.
#[derive(Debug)]
struct SimDir {
    net: Arc<SimNet>,
    wire: Mutex<Wire>,
    /// Frames delivered to the receiver; it ends when the end of the
    /// stream arrives, or when the receiver closes.
    inbox: Inbox,
}

impl SimDir {
    /// Draws the frame's fate at the fabric's time, under the direction's
    /// lock so the draws happen in send order, and puts it in flight.
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        let mut w = self.wire.lock();
        if w.schedule.closed {
            return Err(TransportError::Closed);
        }
        let now = Instant::now();
        let at = SimTime::from_nanos((now - self.net.epoch).as_nanos() as u64);
        let Some(due) = w.fate.fate(at, frame.len()) else {
            self.net.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        };
        let flight = Flight {
            departs: now,
            arrives: self.net.epoch + due.as_duration(),
            frame: frame.to_vec(),
        };
        w.schedule.put(&self.inbox, flight, now);
        Ok(())
    }

    /// Brings the direction up to now; returns when its next event is due.
    fn advance_now(&self) -> Option<Instant> {
        self.wire
            .lock()
            .schedule
            .advance(&self.inbox, Instant::now())
    }

    fn close(&self) {
        self.wire.lock().schedule.close(&self.inbox, Instant::now());
    }

    /// Counts a frame taken off the direction.
    fn taken(&self, frame: Vec<u8>) -> Vec<u8> {
        self.net.delivered.fetch_add(1, Ordering::Relaxed);
        frame
    }
}

/// One direction of a [`SimNet`] pair, held for chaos: it answers for the
/// frames sent after each call.
#[derive(Debug, Clone)]
pub struct Outbound(Arc<SimDir>);

impl Outbound {
    /// Raises or black-holes the direction. A downed direction silently
    /// drops every frame sent through it — the partition / flapping-peer
    /// chaos primitive. Frames already in flight still arrive (they left
    /// the interface before the cut).
    pub fn set_up(&self, up: bool) {
        self.0.wire.lock().fate.up = up;
    }

    /// Replaces the direction's shaping policy mid-flight (the slow-link
    /// chaos primitive). Its fault RNG keeps its stream.
    pub fn set_policy(&self, policy: LinkPolicy) {
        self.0.wire.lock().fate.policy = policy;
    }
}

/// One endpoint of a [`SimNet`] pair.
#[derive(Debug)]
pub struct SimConnection {
    tx: Arc<SimDir>,
    rx: Arc<SimDir>,
    label: String,
}

impl SimConnection {
    /// The direction this endpoint sends on, for chaos calls.
    pub fn outbound(&self) -> Outbound {
        Outbound(Arc::clone(&self.tx))
    }
}

impl Connection for SimConnection {
    fn caps(&self) -> Capabilities {
        Capabilities {
            interface: "SIM",
            overrun_ring: None, // loss and partitions drop frames silently
            ordered: false,     // reorder policies overtake
            max_frame: MAX_FRAME,
        }
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        send_each(frames, MAX_FRAME, |frame, _| {
            self.tx.send(frame).map(|()| true)
        })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let frame = self.rx.inbox.recv_timeout(timeout, || self.due())?;
        Ok(self.rx.taken(frame))
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.rx.advance_now();
        Ok(self.rx.inbox.try_recv()?.map(|f| self.rx.taken(f)))
    }

    fn due(&self) -> Option<Instant> {
        self.rx.advance_now()
    }

    fn readiness(&self) -> Readiness {
        Readiness::Waker
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.rx.inbox.queue.set_notify(waker);
    }

    fn close(&self) {
        // Our receives end now and the peer's sends fail; the peer's
        // stream ends when the end of the stream arrives, behind every
        // frame we sent before.
        self.rx.close();
        self.rx.inbox.end();
        self.tx.close();
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fates of `lens` sent back to back at time zero.
    fn fates(policy: LinkPolicy, seed: u64, lens: &[usize]) -> Vec<Option<SimTime>> {
        let mut dir = Direction::new(policy, seed);
        lens.iter()
            .map(|&len| dir.fate(SimTime::ZERO, len))
            .collect()
    }

    #[test]
    fn latency_controls_arrival_time() {
        let policy = LinkPolicy {
            latency: Duration::from_micros(100),
            ..LinkPolicy::ideal()
        };
        let mut dir = Direction::new(policy, 1);
        assert_eq!(dir.fate(SimTime::ZERO, 1), Some(SimTime::from_micros(100)));
        let later = SimTime::from_millis(3);
        assert_eq!(dir.fate(later, 1), Some(later + Duration::from_micros(100)));
    }

    #[test]
    fn bandwidth_serialises_bursts() {
        // 8 Mb/s → 1 µs per byte: a 1000-byte frame occupies the wire 1 ms.
        let policy = LinkPolicy {
            bandwidth_bps: 8_000_000,
            ..LinkPolicy::ideal()
        };
        assert_eq!(
            fates(policy, 1, &[1000, 1000]),
            [Some(SimTime::from_millis(1)), Some(SimTime::from_millis(2))]
        );
    }

    #[test]
    fn jitter_never_reorders_one_direction() {
        // Jitter varies per-frame delay, but a single-path wire is FIFO:
        // only the explicit `reorder` policy may overtake.
        let policy = LinkPolicy {
            latency: Duration::from_micros(50),
            jitter: Duration::from_micros(40),
            ..LinkPolicy::ideal()
        };
        for seed in 0..16 {
            let dues: Vec<SimTime> = fates(policy.clone(), seed, &[1; 32])
                .into_iter()
                .map(|due| due.expect("no loss"))
                .collect();
            assert!(dues.is_sorted(), "seed {seed}: {dues:?}");
            assert!(
                dues.windows(2).any(|w| w[0] != w[1]),
                "seed {seed}: no jitter"
            );
        }
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let latency = Duration::from_micros(10);
        let mut dir = Direction::new(
            LinkPolicy {
                latency,
                reorder: 1.0, // every frame held back once
                ..LinkPolicy::ideal()
            },
            7,
        );
        let first = dir.fate(SimTime::ZERO, 1).unwrap();
        dir.policy.reorder = 0.0;
        let second = dir.fate(SimTime::ZERO, 1).unwrap();
        assert_eq!(second, SimTime::ZERO + latency);
        assert_eq!(first, second + latency, "held back one latency");
    }

    #[test]
    fn same_seed_same_fates() {
        let policy = LinkPolicy {
            jitter: Duration::from_micros(20),
            ..LinkPolicy::ideal().with_loss(0.3)
        };
        let lens = [64; 200];
        let run = fates(policy.clone(), 42, &lens);
        assert_eq!(run, fates(policy.clone(), 42, &lens));
        assert!(run.iter().any(Option::is_none) && run.iter().any(Option::is_some));
        // Different seeds draw different losses and jitter (overwhelmingly).
        assert_ne!(run, fates(policy, 43, &lens));
    }

    /// A frame put in flight rings the receiver's waker at once, before
    /// it arrives; its arrival, brought up by the receiver, rings it again.
    #[test]
    fn waker_fires_on_delivery() {
        let net = SimNet::new(1);
        let (a, b) = net.pair(LinkPolicy::wan(), LinkPolicy::wan());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.register_waker(Some(Arc::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        })));
        a.send(b"wake").unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(b.try_recv(), Ok(None), "a WAN frame takes 10 ms");
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Ok(b"wake".to_vec()));
        assert!(hits.load(Ordering::Relaxed) >= 2);
        assert_eq!(net.delivered(), 1);
    }

    /// Nothing arrives before its time: `due` says when the next frame
    /// arrives, and it is not receivable before.
    #[test]
    fn nothing_arrives_until_time_advances() {
        let latency = Duration::from_millis(20);
        let net = SimNet::new(1);
        let policy = LinkPolicy {
            latency,
            ..LinkPolicy::ideal()
        };
        let (a, b) = net.pair(policy, LinkPolicy::ideal());
        assert_eq!(b.due(), None, "nothing is in flight");
        let sent = Instant::now();
        a.send(b"x").unwrap();
        let due = b.due().expect("in flight");
        assert!(due >= sent + latency - Duration::from_micros(1), "{due:?}");
        assert!(due <= Instant::now() + latency, "{due:?}");
        assert_eq!(b.try_recv(), Ok(None));
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        assert_eq!(b.try_recv(), Ok(Some(b"x".to_vec())));
        assert_eq!(b.due(), None);
    }

    #[test]
    fn downed_direction_black_holes_then_heals() {
        let net = SimNet::new(1);
        let (a, b) = net.pair(LinkPolicy::ideal(), LinkPolicy::ideal());
        a.outbound().set_up(false);
        a.send(b"lost").unwrap();
        assert_eq!(net.dropped(), 1);
        assert_eq!((b.try_recv(), b.due()), (Ok(None), None));
        // The reverse direction is unaffected.
        b.send(b"back").unwrap();
        assert_eq!(a.try_recv(), Ok(Some(b"back".to_vec())));
        a.outbound().set_up(true);
        a.send(b"healed").unwrap();
        assert_eq!(b.try_recv(), Ok(Some(b"healed".to_vec())));
    }

    /// The end of the stream arrives behind every frame sent before the
    /// close, a held-back one included; sends on either side fail.
    #[test]
    fn close_stops_sends_and_unblocks_receivers() {
        let net = SimNet::new(1);
        let policy = LinkPolicy {
            latency: Duration::from_millis(5),
            reorder: 0.5,
            ..LinkPolicy::ideal()
        };
        let (a, b) = net.pair(policy, LinkPolicy::ideal());
        for i in 0..8u8 {
            a.send(&[i]).unwrap();
        }
        a.close();
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        assert_eq!(b.send(b"y"), Err(TransportError::Closed));
        let mut got = Vec::new();
        loop {
            match b.recv_timeout(Duration::from_secs(1)) {
                Ok(frame) => got.extend(frame),
                Err(e) => break assert_eq!(e, TransportError::Closed),
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<u8>>());
    }
}
