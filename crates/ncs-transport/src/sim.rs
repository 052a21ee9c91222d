//! SIM — the simulated network interface.
//!
//! A [`SimNet`] is an in-process network fabric under **virtual time**:
//! frames sent through a [`SimConnection`] do not appear at the peer until
//! a driver advances the fabric clock past their computed arrival time.
//! Arrival times come from a per-direction [`LinkPolicy`] — propagation
//! latency, seeded jitter, serialisation at a configured bandwidth (frames
//! queue behind one another exactly as on a real wire), probabilistic loss
//! (the [`atm_sim::FaultSpec`] machinery) and probabilistic reordering.
//!
//! The fabric is the simulation backend's data plane: `ncs-runtime`'s
//! `SimSession` meshes ordinary NCS nodes over SIM channels and runs a
//! pump thread that advances the fabric and the nodes' shared
//! `VirtualClock` in lockstep. Chaos scenarios drive the same knobs
//! mid-flight: [`SimNet::set_link_up`] black-holes a direction (partition,
//! flapping peer), [`SimNet::set_policy`] degrades it (slow link).
//!
//! Everything random is seeded. Two fabrics built with the same seed and
//! the same sequence of sends observe frame for frame the same drops,
//! jitter draws and arrival order — the determinism contract that makes
//! chaos scenarios reproducible from a CI seed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atm_sim::SimTime;
use ncs_threads::sync::Mailbox;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::iface::{send_each, Capabilities, Connection, Inbox, Readiness, TransportError, Waker};

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

    /// This policy with reorder probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_reorder(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.reorder = p;
        self
    }

    /// Whether this policy can randomise anything (needs an RNG draw).
    fn is_random(&self) -> bool {
        self.loss > 0.0 || self.reorder > 0.0 || self.jitter > Duration::ZERO
    }
}

/// Identifies one [`SimNet`] link (a [`SimNet::pair`] call). Direction 0 is
/// first-endpoint → second, direction 1 the reverse.
pub type LinkId = u64;

/// A frame in flight: ordered by `(due, seq)` so ties break in send order —
/// the heap pop order is a pure function of the send sequence and the
/// seeded draws.
#[derive(Debug, PartialEq, Eq)]
struct InFlight {
    due: SimTime,
    seq: u64,
    link: LinkId,
    dir: usize,
    frame: Vec<u8>,
    /// A close marker: delivery shuts the destination inbox instead of
    /// handing over a frame. Rides the wire like data so it arrives
    /// *after* everything sent before it (FIN after data, never before).
    close: bool,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The fate of the frames sent one way along a link: its policy, whether
/// it is up, and the seeded draws and wire horizon that decide when each
/// frame arrives, if at all. [`SimNet`] keeps one per link direction; the
/// `ncs-runtime` `SimWorld` engine keeps one per directed rank pair.
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

    /// The arrival time of a close marker sent at `now`: after every frame
    /// sent before it, whatever the loss policy or the direction's state.
    fn close_due(&mut self, now: SimTime) -> SimTime {
        self.last_due = (self.busy_until.max(now) + self.policy.latency).max(self.last_due);
        self.last_due
    }
}

/// One direction of one link: its fate and the receive queue of the
/// destination endpoint.
#[derive(Debug)]
struct DirState {
    wire: Direction,
    /// Destination endpoint's receive queue (shared with the endpoint).
    inbox: Arc<Inbox>,
}

#[derive(Debug)]
struct NetInner {
    now: SimTime,
    next_seq: u64,
    next_link: LinkId,
    queue: BinaryHeap<Reverse<InFlight>>,
    /// `links[id] = [a→b state, b→a state]`.
    links: HashMap<LinkId, [DirState; 2]>,
}

/// The simulated fabric: a virtual-time event queue shared by every
/// [`SimConnection`] pair created through it.
#[derive(Debug)]
pub struct SimNet {
    seed: u64,
    inner: Mutex<NetInner>,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

/// SplitMix64 over `(seed, stream)`: derives one direction's RNG seed, so
/// that adding a direction never perturbs the draws of existing ones.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimNet {
    /// A fabric whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(SimNet {
            seed,
            inner: Mutex::new(NetInner {
                now: SimTime::ZERO,
                next_seq: 0,
                next_link: 0,
                queue: BinaryHeap::new(),
                links: HashMap::new(),
            }),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Creates a connected endpoint pair with per-direction policies
    /// (`policy_ab` shapes frames from the first returned endpoint to the
    /// second). The pair's [`LinkId`] addresses later chaos calls.
    pub fn pair(
        self: &Arc<Self>,
        policy_ab: LinkPolicy,
        policy_ba: LinkPolicy,
    ) -> (SimConnection, SimConnection) {
        let a_inbox = Arc::new(Inbox::new(Mailbox::unbounded()));
        let b_inbox = Arc::new(Inbox::new(Mailbox::unbounded()));
        let mut inner = self.inner.lock();
        let link = inner.next_link;
        inner.next_link += 1;
        let dir = |d: u64, policy, inbox| DirState {
            wire: Direction::new(policy, mix_seed(self.seed, link << 1 | d)),
            inbox,
        };
        let dirs = [
            dir(0, policy_ab, Arc::clone(&b_inbox)),
            dir(1, policy_ba, Arc::clone(&a_inbox)),
        ];
        inner.links.insert(link, dirs);
        drop(inner);
        (
            SimConnection {
                net: Arc::clone(self),
                link,
                dir_out: 0,
                rx: Arc::clone(&a_inbox),
                tx: Arc::clone(&b_inbox),
            },
            SimConnection {
                net: Arc::clone(self),
                link,
                dir_out: 1,
                rx: b_inbox,
                tx: a_inbox,
            },
        )
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.lock().now
    }

    /// Arrival time of the earliest in-flight frame, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.inner.lock().queue.peek().map(|Reverse(f)| f.due)
    }

    /// Advances virtual time to `t` (monotonic: earlier targets are a
    /// no-op), delivering every frame due on the way, in `(due, seq)`
    /// order. Returns the number of frames delivered.
    pub fn advance_to(&self, t: SimTime) -> usize {
        let mut delivered = 0;
        let mut inner = self.inner.lock();
        if t > inner.now {
            inner.now = t;
        }
        while inner
            .queue
            .peek()
            .is_some_and(|Reverse(f)| f.due <= inner.now)
        {
            let Reverse(f) = inner.queue.pop().expect("peeked");
            if let Some(dirs) = inner.links.get(&f.link) {
                let inbox = &dirs[f.dir].inbox;
                if f.close {
                    inbox.end();
                } else if !inbox.has_ended() {
                    inbox.queue.send(f.frame);
                    delivered += 1;
                }
            }
        }
        drop(inner);
        self.delivered
            .fetch_add(delivered as u64, Ordering::Relaxed);
        delivered
    }

    /// Advances to the next in-flight arrival and delivers it (plus any
    /// ties). Returns the new virtual time, or `None` if nothing is in
    /// flight.
    pub fn step(&self) -> Option<SimTime> {
        let due = self.next_due()?;
        self.advance_to(due);
        Some(due)
    }

    /// Raises or black-holes one direction of `link`. A downed direction
    /// silently drops every frame sent through it — the partition /
    /// flapping-peer chaos primitive. Frames already in flight still
    /// arrive (they left the interface before the cut).
    pub fn set_link_up(&self, link: LinkId, dir: usize, up: bool) {
        if let Some(dirs) = self.inner.lock().links.get_mut(&link) {
            dirs[dir].wire.up = up;
        }
    }

    /// Replaces the shaping policy of one direction of `link` mid-flight
    /// (the slow-link chaos primitive). The direction's fault RNG keeps
    /// its stream — determinism is unaffected.
    pub fn set_policy(&self, link: LinkId, dir: usize, policy: LinkPolicy) {
        if let Some(dirs) = self.inner.lock().links.get_mut(&link) {
            dirs[dir].wire.policy = policy;
        }
    }

    /// Frames delivered to endpoints so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Frames dropped so far (loss draws plus downed directions).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inner.lock().queue.len()
    }

    fn transmit(&self, link: LinkId, dir: usize, frame: &[u8]) {
        let mut inner = self.inner.lock();
        let now = inner.now;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let Some(dirs) = inner.links.get_mut(&link) else {
            return;
        };
        // Seeded draws happen in send order under the fabric lock.
        let Some(due) = dirs[dir].wire.fate(now, frame.len()) else {
            drop(inner);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        inner.queue.push(Reverse(InFlight {
            due,
            seq,
            link,
            dir,
            frame: frame.to_vec(),
            close: false,
        }));
    }

    /// Schedules a close marker on `(link, dir)`: the destination inbox
    /// shuts when the marker arrives, after every frame sent before it
    /// (graceful FIFO close). Markers ignore loss and downed directions —
    /// teardown must not wedge a world — but still pay the link latency.
    fn transmit_close(&self, link: LinkId, dir: usize) {
        let mut inner = self.inner.lock();
        let now = inner.now;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let Some(dirs) = inner.links.get_mut(&link) else {
            return;
        };
        let due = dirs[dir].wire.close_due(now);
        inner.queue.push(Reverse(InFlight {
            due,
            seq,
            link,
            dir,
            frame: Vec::new(),
            close: true,
        }));
    }
}

/// One endpoint of a [`SimNet`] link.
#[derive(Debug)]
pub struct SimConnection {
    net: Arc<SimNet>,
    link: LinkId,
    dir_out: usize,
    rx: Arc<Inbox>,
    tx: Arc<Inbox>,
}

impl SimConnection {
    /// The link this endpoint belongs to (for chaos calls).
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// This endpoint's outbound direction index on the link.
    pub fn dir_out(&self) -> usize {
        self.dir_out
    }

    /// The fabric this endpoint transmits through.
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
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
            if self.rx.has_ended() || self.tx.has_ended() {
                return Err(TransportError::Closed);
            }
            self.net.transmit(self.link, self.dir_out, frame);
            Ok(true)
        })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.rx.recv_timeout(timeout, || None)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.rx.try_recv()
    }

    fn readiness(&self) -> Readiness {
        Readiness::Waker
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.rx.queue.set_notify(waker);
    }

    fn close(&self) {
        // Shut our own inbox at once (local sends and receives fail fast),
        // but tell the peer through the wire: the close marker queues
        // behind every frame already sent, so the peer drains our final
        // frames before seeing `Closed` — never the other way round.
        self.rx.end();
        self.net.transmit_close(self.link, self.dir_out);
    }

    fn peer_label(&self) -> String {
        format!("sim-link-{}-dir-{}", self.link, self.dir_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_arrives_until_time_advances() {
        let net = SimNet::new(1);
        let (a, b) = net.pair(LinkPolicy::lan(), LinkPolicy::lan());
        a.send(b"hello").unwrap();
        assert_eq!(b.try_recv(), Ok(None));
        assert_eq!(net.in_flight(), 1);
        net.advance_to(SimTime::from_millis(1));
        assert_eq!(b.try_recv(), Ok(Some(b"hello".to_vec())));
    }

    #[test]
    fn latency_controls_arrival_time() {
        let net = SimNet::new(1);
        let policy = LinkPolicy {
            latency: Duration::from_micros(100),
            ..LinkPolicy::ideal()
        };
        let (a, b) = net.pair(policy, LinkPolicy::ideal());
        a.send(b"x").unwrap();
        assert_eq!(net.next_due(), Some(SimTime::from_micros(100)));
        net.advance_to(SimTime::from_micros(99));
        assert_eq!(b.try_recv(), Ok(None));
        net.advance_to(SimTime::from_micros(100));
        assert_eq!(b.try_recv(), Ok(Some(b"x".to_vec())));
    }

    #[test]
    fn bandwidth_serialises_bursts() {
        let net = SimNet::new(1);
        // 8 Mb/s → 1 µs per byte: a 1000-byte frame occupies the wire 1 ms.
        let policy = LinkPolicy {
            bandwidth_bps: 8_000_000,
            ..LinkPolicy::ideal()
        };
        let (a, _b) = net.pair(policy, LinkPolicy::ideal());
        a.send(&[0u8; 1000]).unwrap();
        a.send(&[1u8; 1000]).unwrap();
        assert_eq!(net.next_due(), Some(SimTime::from_millis(1)));
        net.step();
        assert_eq!(net.next_due(), Some(SimTime::from_millis(2)));
    }

    #[test]
    fn jitter_never_reorders_one_direction() {
        // Jitter varies per-frame delay, but a single-path wire is FIFO:
        // only the explicit `reorder` policy may overtake. (The NCS
        // control-channel bootstrap depends on this — a hello must not
        // arrive after the control traffic queued behind it.)
        let policy = LinkPolicy {
            latency: Duration::from_micros(50),
            jitter: Duration::from_micros(40),
            ..LinkPolicy::ideal()
        };
        for seed in 0..16 {
            let net = SimNet::new(seed);
            let (a, b) = net.pair(policy.clone(), LinkPolicy::ideal());
            for i in 0..32u8 {
                a.send(&[i]).unwrap();
            }
            net.advance_to(SimTime::from_millis(10));
            for i in 0..32u8 {
                assert_eq!(b.try_recv(), Ok(Some(vec![i])), "seed {seed} frame {i}");
            }
        }
    }

    #[test]
    fn downed_direction_black_holes_then_heals() {
        let net = SimNet::new(1);
        let (a, b) = net.pair(LinkPolicy::ideal(), LinkPolicy::ideal());
        net.set_link_up(a.link(), 0, false);
        a.send(b"lost").unwrap();
        assert_eq!(net.dropped(), 1);
        assert_eq!(net.in_flight(), 0);
        // Reverse direction unaffected.
        b.send(b"back").unwrap();
        net.step();
        assert_eq!(a.try_recv(), Ok(Some(b"back".to_vec())));
        net.set_link_up(a.link(), 0, true);
        a.send(b"healed").unwrap();
        net.step();
        assert_eq!(b.try_recv(), Ok(Some(b"healed".to_vec())));
    }

    #[test]
    fn same_seed_same_fates() {
        let run = |seed: u64| -> (u64, u64) {
            let net = SimNet::new(seed);
            let (a, _b) = net.pair(LinkPolicy::ideal().with_loss(0.3), LinkPolicy::ideal());
            for i in 0..200u32 {
                a.send(&i.to_be_bytes()).unwrap();
            }
            net.advance_to(SimTime::from_secs(1));
            (net.delivered(), net.dropped())
        };
        assert_eq!(run(42), run(42));
        let (d1, _) = run(42);
        let (d2, _) = run(43);
        // Different seeds draw different loss patterns (overwhelmingly).
        assert!(d1 != d2 || d1 != 200);
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let net = SimNet::new(7);
        let policy = LinkPolicy {
            latency: Duration::from_micros(10),
            reorder: 1.0, // every frame held back once
            ..LinkPolicy::ideal()
        };
        let (a, b) = net.pair(policy, LinkPolicy::ideal());
        a.send(b"first").unwrap();
        // Remove the reorder penalty for the second frame only.
        net.set_policy(
            a.link(),
            0,
            LinkPolicy {
                latency: Duration::from_micros(10),
                ..LinkPolicy::ideal()
            },
        );
        a.send(b"second").unwrap();
        net.advance_to(SimTime::from_millis(1));
        assert_eq!(b.try_recv(), Ok(Some(b"second".to_vec())));
        assert_eq!(b.try_recv(), Ok(Some(b"first".to_vec())));
    }

    #[test]
    fn close_stops_sends_and_unblocks_receivers() {
        let net = SimNet::new(1);
        let (a, b) = net.pair(LinkPolicy::ideal(), LinkPolicy::ideal());
        a.send(b"in-flight").unwrap();
        a.close();
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        // Graceful FIFO close: the frame sent before the close is still
        // delivered; only then does the peer see `Closed`.
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(b.try_recv(), Ok(Some(b"in-flight".to_vec())));
        assert_eq!(b.try_recv(), Err(TransportError::Closed));
    }

    #[test]
    fn waker_fires_on_delivery() {
        let net = SimNet::new(1);
        let (a, b) = net.pair(LinkPolicy::lan(), LinkPolicy::lan());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.register_waker(Some(Arc::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        })));
        a.send(b"wake").unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        net.advance_to(SimTime::from_secs(1));
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }
}
