//! The simulation backend: thousand-rank NCS worlds under deterministic
//! virtual time.
//!
//! The paper evaluated NCS on a handful of real SPARCstations; ROADMAP
//! item 3 asks for the opposite extreme — thousands of ranks, adversarial
//! networks, reproducible failures. This module provides both halves:
//!
//! * [`SimWorld`] — a pure discrete-event engine, and the third shell of
//!   the collective [`Machine`]: every alive rank runs the shipped
//!   schedules on a machine of its own, and the machines' frames travel
//!   through a central virtual-time queue; each directed pair is one
//!   [`Direction`] — the SIM transport's own link model, under a
//!   [`LinkPolicy`] — which decides each message's fate with seeded
//!   draws, and lost messages retransmit on an RTO clock exactly as NCS
//!   error control would. What a thousand simulated ranks exercise is therefore the
//!   algorithm [`CollectiveGroup`] ships, not a look-alike. Runs 1,000–10,000
//!   ranks in milliseconds of wall time and is **bit-deterministic**:
//!   the same [`Scenario`] (same seed) produces a byte-identical event
//!   trace and equal telemetry counters, every run.
//! * [`SimSession`] — the third [`Session`] implementation next to
//!   [`crate::ClusterNode`] and [`crate::LocalWorld`]: real [`NcsNode`]s
//!   on the default clock and their reactor, meshed over the SIM
//!   interface ([`ncs_transport::sim::SimNet`]), whose wires move in wall
//!   time when touched — no thread of its own. Use it to put the *real*
//!   protocol stack under simulated network conditions at small scale;
//!   use [`SimWorld`] for four-digit rank counts.
//!
//! Chaos — partitions, flapping peers, lossy or slow links, rank kill —
//! is scripted on the virtual-time axis via [`ChaosEvent`]s, either built
//! in code or parsed from the scenario script format described in
//! `docs/SIMULATION.md`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use atm_sim::SimTime;
use ncs_core::link::SimLinkPair;
use ncs_core::{NcsConnection, NcsNode};
use ncs_obs::{Counter, Registry};
use ncs_transport::sim::{mix_seed, Direction, LinkPolicy, SimNet};

use crate::cluster::rank_name;
use crate::session::{LocalSession, Session, SessionError};
use ncs_collectives::machine::{Machine, Op, Output, Spec};
use ncs_collectives::{
    CollectiveGroup, DType, Encoder, OpClass, ReduceOp, Topology, TopologyPolicy,
};
use ncs_core::{BufPool, ConnectionConfig};

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// A chaos action applied to the world at one point in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosKind {
    /// Black-hole the directed link `from → to`.
    CutLink {
        /// Sending rank.
        from: u32,
        /// Receiving rank.
        to: u32,
    },
    /// Restore the directed link `from → to`.
    HealLink {
        /// Sending rank.
        from: u32,
        /// Receiving rank.
        to: u32,
    },
    /// Set the loss probability of the directed link `from → to`.
    SetLoss {
        /// Sending rank.
        from: u32,
        /// Receiving rank.
        to: u32,
        /// New frame-loss probability.
        loss: f64,
    },
    /// Set the latency of the directed link `from → to` (slow link).
    SlowLink {
        /// Sending rank.
        from: u32,
        /// Receiving rank.
        to: u32,
        /// New propagation latency.
        latency: Duration,
    },
    /// Black-hole every link touching `rank` (both directions) — the
    /// flapping-peer primitive when paired with [`ChaosKind::ReconnectRank`].
    IsolateRank {
        /// The rank to isolate.
        rank: u32,
    },
    /// Undo [`ChaosKind::IsolateRank`].
    ReconnectRank {
        /// The rank to reconnect.
        rank: u32,
    },
    /// Stop `rank` processing messages (process death).
    KillRank {
        /// The rank to kill.
        rank: u32,
    },
    /// Revive `rank` for ops started after this point.
    ReviveRank {
        /// The rank to revive.
        rank: u32,
    },
}

/// One scheduled chaos action.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// Virtual time at which the action fires.
    pub at: Duration,
    /// The action.
    pub kind: ChaosKind,
}

/// One step of a scenario's program. Ops run sequentially, SPMD-style:
/// every alive rank participates in op *k* before op *k + 1* starts.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOp {
    /// Broadcast from `root`, failing ranks that miss `timeout` (virtual
    /// time).
    Broadcast {
        /// Root rank.
        root: u32,
        /// Per-op virtual-time deadline.
        timeout: Duration,
    },
    /// Reduce (sum of rank ids) to `root`.
    Reduce {
        /// Root rank.
        root: u32,
        /// Per-op virtual-time deadline.
        timeout: Duration,
    },
    /// Reduce to rank 0 then broadcast of the result.
    Allreduce {
        /// Per-op virtual-time deadline.
        timeout: Duration,
    },
    /// Dissemination barrier (⌈log₂ n⌉ rounds).
    Barrier {
        /// Per-op virtual-time deadline.
        timeout: Duration,
    },
    /// Let virtual time pass (chaos events due in the window fire).
    Advance {
        /// How much virtual time passes.
        by: Duration,
    },
}

/// A complete simulation script: world shape, link policies, chaos
/// schedule and op program. Build one in code or parse the script format
/// of `docs/SIMULATION.md` with [`Scenario::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (labels traces, CI artifacts, perf sections).
    pub name: String,
    /// Master seed: every random draw in the run derives from it.
    pub seed: u64,
    /// World size.
    pub ranks: u32,
    /// Default policy for directed links `from < to`.
    pub policy: LinkPolicy,
    /// Default policy for directed links `from > to` (asymmetric worlds);
    /// `None` mirrors [`Scenario::policy`].
    pub policy_back: Option<LinkPolicy>,
    /// Retransmission timeout for lost messages; `None` derives
    /// `max(4 × latency, 1 ms)`.
    pub rto: Option<Duration>,
    /// Chaos schedule (virtual-time ordered; order of equal times is
    /// preserved).
    pub events: Vec<ChaosEvent>,
    /// The op program.
    pub ops: Vec<SimOp>,
    /// Indices into [`Scenario::ops`] that are *expected* to fail fast
    /// (deadline-bounded failure is the scenario's point — e.g. the
    /// degraded collective of `kill-heal`). [`SimReport::passed`] demands
    /// these ops fail and every other op complete.
    pub expect_failed: Vec<usize>,
}

/// Default per-op deadline used by the preset scenarios.
pub const PRESET_OP_TIMEOUT: Duration = Duration::from_secs(30);

impl Scenario {
    /// A bare scenario: `ranks` ranks on clean LAN links, empty program.
    pub fn new(name: &str, ranks: u32, seed: u64) -> Self {
        Scenario {
            name: name.to_owned(),
            seed,
            ranks,
            policy: LinkPolicy::lan(),
            policy_back: None,
            rto: None,
            events: Vec::new(),
            ops: Vec::new(),
            expect_failed: Vec::new(),
        }
    }

    /// Preset: clean 1,000-rank-class world running allreduce + barrier.
    pub fn clean_allreduce(ranks: u32, seed: u64) -> Self {
        let mut s = Scenario::new("clean-allreduce", ranks, seed);
        s.ops = vec![
            SimOp::Allreduce {
                timeout: PRESET_OP_TIMEOUT,
            },
            SimOp::Barrier {
                timeout: PRESET_OP_TIMEOUT,
            },
        ];
        s
    }

    /// Preset: both directions between ranks 1 and 2 are cut early in the
    /// op and heal mid-flight; retransmission carries the collective
    /// across the partition.
    pub fn partition_heal(ranks: u32, seed: u64) -> Self {
        let mut s = Scenario::new("partition-heal", ranks, seed);
        let (a, b) = (1, 2 % ranks);
        s.events = vec![
            ChaosEvent {
                at: Duration::from_micros(500),
                kind: ChaosKind::CutLink { from: a, to: b },
            },
            ChaosEvent {
                at: Duration::from_micros(500),
                kind: ChaosKind::CutLink { from: b, to: a },
            },
            ChaosEvent {
                at: Duration::from_millis(100),
                kind: ChaosKind::HealLink { from: a, to: b },
            },
            ChaosEvent {
                at: Duration::from_millis(100),
                kind: ChaosKind::HealLink { from: b, to: a },
            },
        ];
        s.ops = vec![
            SimOp::Advance {
                by: Duration::from_millis(1),
            },
            SimOp::Allreduce {
                timeout: PRESET_OP_TIMEOUT,
            },
            SimOp::Barrier {
                timeout: PRESET_OP_TIMEOUT,
            },
        ];
        s
    }

    /// Preset: 10 % loss on every `from < to` direction, clean reverse —
    /// the asymmetric-loss torture of MPWide's WAN experiments.
    pub fn asymmetric_loss(ranks: u32, seed: u64) -> Self {
        let mut s = Scenario::new("asymmetric-loss", ranks, seed);
        s.policy = LinkPolicy::lan().with_loss(0.10);
        s.policy_back = Some(LinkPolicy::lan());
        s.ops = vec![
            SimOp::Allreduce {
                timeout: PRESET_OP_TIMEOUT,
            },
            SimOp::Barrier {
                timeout: PRESET_OP_TIMEOUT,
            },
        ];
        s
    }

    /// Preset: rank 1 flaps — isolated for 250 µs every 500 µs, a cadence
    /// chosen to overlap the microsecond-scale LAN collectives. A
    /// trailing [`SimOp::Advance`] drains flap cycles the collectives
    /// outran, so every scheduled chaos event applies.
    pub fn flapping_peer(ranks: u32, seed: u64) -> Self {
        let mut s = Scenario::new("flapping-peer", ranks, seed);
        s.rto = Some(Duration::from_micros(200));
        for cycle in 0..5u64 {
            let base = Duration::from_micros(50 + 500 * cycle);
            s.events.push(ChaosEvent {
                at: base,
                kind: ChaosKind::IsolateRank { rank: 1 % ranks },
            });
            s.events.push(ChaosEvent {
                at: base + Duration::from_micros(250),
                kind: ChaosKind::ReconnectRank { rank: 1 % ranks },
            });
        }
        s.ops = vec![
            SimOp::Allreduce {
                timeout: PRESET_OP_TIMEOUT,
            },
            SimOp::Barrier {
                timeout: PRESET_OP_TIMEOUT,
            },
            SimOp::Advance {
                by: Duration::from_millis(5),
            },
        ];
        s
    }

    /// Preset: the SimWorld half of the elastic-membership story, for
    /// worlds of three ranks or more. Rank 2 is killed just before the
    /// first allreduce, which must *fail fast* at its tight deadline
    /// rather than hang (the op is listed in
    /// [`Scenario::expect_failed`]); the rank then revives — the
    /// respawned replacement — and the next allreduce and barrier
    /// complete over the healed world.
    pub fn kill_heal(ranks: u32, seed: u64) -> Self {
        let mut s = Scenario::new("kill-heal", ranks, seed);
        let victim = 2 % ranks;
        s.events = vec![
            ChaosEvent {
                at: Duration::from_micros(1),
                kind: ChaosKind::KillRank { rank: victim },
            },
            ChaosEvent {
                at: Duration::from_millis(15),
                kind: ChaosKind::ReviveRank { rank: victim },
            },
        ];
        s.ops = vec![
            SimOp::Advance {
                by: Duration::from_millis(1),
            },
            SimOp::Allreduce {
                timeout: Duration::from_millis(10),
            },
            SimOp::Advance {
                by: Duration::from_millis(10),
            },
            SimOp::Allreduce {
                timeout: PRESET_OP_TIMEOUT,
            },
            SimOp::Barrier {
                timeout: PRESET_OP_TIMEOUT,
            },
        ];
        s.expect_failed = vec![1];
        s
    }

    /// The scenario registered under `name` (the CI matrix entries):
    /// `clean-allreduce`, `partition-heal`, `asymmetric-loss`,
    /// `flapping-peer`, `kill-heal`.
    pub fn preset(name: &str, ranks: u32, seed: u64) -> Option<Self> {
        match name {
            "clean-allreduce" => Some(Self::clean_allreduce(ranks, seed)),
            "partition-heal" => Some(Self::partition_heal(ranks, seed)),
            "asymmetric-loss" => Some(Self::asymmetric_loss(ranks, seed)),
            "flapping-peer" => Some(Self::flapping_peer(ranks, seed)),
            "kill-heal" => Some(Self::kill_heal(ranks, seed)),
            _ => None,
        }
    }

    /// The effective retransmission timeout.
    pub fn effective_rto(&self) -> Duration {
        self.rto
            .unwrap_or_else(|| (self.policy.latency * 4).max(Duration::from_millis(1)))
    }

    /// Parses the scenario script format (see `docs/SIMULATION.md`):
    /// one directive per line, `#` comments.
    ///
    /// ```text
    /// scenario partition-heal
    /// ranks 64
    /// seed 42
    /// policy latency=50us jitter=5us loss=0
    /// at 500us cut 1 2
    /// at 100ms heal 1 2
    /// op advance 1ms
    /// op allreduce 30s
    /// op barrier 30s
    /// ```
    ///
    /// A deadline op may carry a trailing `expect-fail` token: the
    /// scenario then *requires* that op to miss its deadline (the
    /// fail-fast contract of kill scenarios) — see
    /// [`Scenario::expect_failed`].
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending line.
    pub fn parse(script: &str) -> Result<Scenario, String> {
        let mut s = Scenario::new("unnamed", 0, 0);
        for (ln, raw) in script.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: `{raw}`", ln + 1);
            let mut words = line.split_whitespace();
            match words.next().unwrap() {
                "scenario" => {
                    s.name = words.next().ok_or_else(|| err("missing name"))?.to_owned();
                }
                "seed" => {
                    s.seed = parse_u64(words.next().ok_or_else(|| err("missing seed"))?)
                        .ok_or_else(|| err("bad seed"))?;
                }
                "ranks" => {
                    s.ranks = parse_u64(words.next().ok_or_else(|| err("missing ranks"))?)
                        .ok_or_else(|| err("bad ranks"))? as u32;
                }
                "rto" => {
                    s.rto = Some(
                        parse_duration(words.next().ok_or_else(|| err("missing rto"))?)
                            .ok_or_else(|| err("bad rto"))?,
                    );
                }
                dir @ ("policy" | "policy-back") => {
                    let mut p = LinkPolicy::lan();
                    for kv in words {
                        let (k, v) = kv.split_once('=').ok_or_else(|| err("want key=value"))?;
                        match k {
                            "latency" => {
                                p.latency = parse_duration(v).ok_or_else(|| err("bad latency"))?;
                            }
                            "jitter" => {
                                p.jitter = parse_duration(v).ok_or_else(|| err("bad jitter"))?;
                            }
                            "loss" => {
                                p.loss = v.parse().map_err(|_| err("bad loss"))?;
                            }
                            "reorder" => {
                                p.reorder = v.parse().map_err(|_| err("bad reorder"))?;
                            }
                            "bandwidth" => {
                                p.bandwidth_bps =
                                    parse_u64(v).ok_or_else(|| err("bad bandwidth"))?;
                            }
                            _ => return Err(err("unknown policy key")),
                        }
                    }
                    if dir == "policy" {
                        s.policy = p;
                    } else {
                        s.policy_back = Some(p);
                    }
                }
                "at" => {
                    let at = parse_duration(words.next().ok_or_else(|| err("missing time"))?)
                        .ok_or_else(|| err("bad time"))?;
                    let verb = words.next().ok_or_else(|| err("missing action"))?;
                    let mut rank_arg = || -> Result<u32, String> {
                        parse_u64(words.next().ok_or_else(|| err("missing rank"))?)
                            .map(|v| v as u32)
                            .ok_or_else(|| err("bad rank"))
                    };
                    let kind = match verb {
                        "cut" => ChaosKind::CutLink {
                            from: rank_arg()?,
                            to: rank_arg()?,
                        },
                        "heal" => ChaosKind::HealLink {
                            from: rank_arg()?,
                            to: rank_arg()?,
                        },
                        "isolate" => ChaosKind::IsolateRank { rank: rank_arg()? },
                        "reconnect" => ChaosKind::ReconnectRank { rank: rank_arg()? },
                        "kill" => ChaosKind::KillRank { rank: rank_arg()? },
                        "revive" => ChaosKind::ReviveRank { rank: rank_arg()? },
                        "loss" => {
                            let (from, to) = (rank_arg()?, rank_arg()?);
                            let loss = words
                                .next()
                                .and_then(|v| v.parse().ok())
                                .ok_or_else(|| err("bad loss"))?;
                            ChaosKind::SetLoss { from, to, loss }
                        }
                        "slow" => {
                            let (from, to) = (rank_arg()?, rank_arg()?);
                            let latency = words
                                .next()
                                .and_then(parse_duration)
                                .ok_or_else(|| err("bad latency"))?;
                            ChaosKind::SlowLink { from, to, latency }
                        }
                        _ => return Err(err("unknown chaos action")),
                    };
                    s.events.push(ChaosEvent { at, kind });
                }
                "op" => {
                    let verb = words.next().ok_or_else(|| err("missing op"))?;
                    let op = match verb {
                        "advance" => SimOp::Advance {
                            by: words
                                .next()
                                .and_then(parse_duration)
                                .ok_or_else(|| err("bad duration"))?,
                        },
                        "allreduce" | "barrier" => {
                            let timeout = words
                                .next()
                                .and_then(parse_duration)
                                .ok_or_else(|| err("bad timeout"))?;
                            if verb == "allreduce" {
                                SimOp::Allreduce { timeout }
                            } else {
                                SimOp::Barrier { timeout }
                            }
                        }
                        "broadcast" | "reduce" => {
                            let root = words
                                .next()
                                .and_then(parse_u64)
                                .ok_or_else(|| err("bad root"))?
                                as u32;
                            let timeout = words
                                .next()
                                .and_then(parse_duration)
                                .ok_or_else(|| err("bad timeout"))?;
                            if verb == "broadcast" {
                                SimOp::Broadcast { root, timeout }
                            } else {
                                SimOp::Reduce { root, timeout }
                            }
                        }
                        _ => return Err(err("unknown op")),
                    };
                    match words.next() {
                        None => {}
                        Some("expect-fail") => {
                            if matches!(op, SimOp::Advance { .. }) {
                                return Err(err("advance cannot expect-fail"));
                            }
                            s.expect_failed.push(s.ops.len());
                        }
                        Some(_) => return Err(err("trailing words after op")),
                    }
                    s.ops.push(op);
                }
                _ => return Err(err("unknown directive")),
            }
        }
        if s.ranks == 0 {
            return Err("scenario must declare `ranks`".into());
        }
        Ok(s)
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    // Allow 1_000 and suffixes k/m/g for bandwidth-style magnitudes.
    let cleaned: String = s.chars().filter(|c| *c != '_').collect();
    if let Some(n) = cleaned.strip_suffix(['k', 'K']) {
        return n.parse::<u64>().ok().map(|v| v * 1_000);
    }
    if let Some(n) = cleaned.strip_suffix(['m', 'M']) {
        return n.parse::<u64>().ok().map(|v| v * 1_000_000);
    }
    if let Some(n) = cleaned.strip_suffix(['g', 'G']) {
        return n.parse::<u64>().ok().map(|v| v * 1_000_000_000);
    }
    cleaned.parse().ok()
}

fn parse_duration(s: &str) -> Option<Duration> {
    let (num, unit) = s.split_at(s.find(|c: char| c.is_alphabetic())?);
    let v: u64 = num.parse().ok()?;
    match unit {
        "ns" => Some(Duration::from_nanos(v)),
        "us" => Some(Duration::from_micros(v)),
        "ms" => Some(Duration::from_millis(v)),
        "s" => Some(Duration::from_secs(v)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// SimWorld: the discrete-event engine
// ---------------------------------------------------------------------------

/// Outcome of one [`SimOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// The op, rendered (`"allreduce"`, `"broadcast(0)"`, …).
    pub op: String,
    /// Whether every participating rank completed before the deadline.
    pub completed: bool,
    /// Ranks that had not completed when the deadline fired.
    pub failed_ranks: Vec<u32>,
    /// Virtual time the op consumed.
    pub elapsed: Duration,
    /// The op's value where one exists (reduce/allreduce sum, broadcast
    /// payload), if all completing ranks agreed on it.
    pub result: Option<u64>,
}

/// The full result of a [`SimWorld`] run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// The seed the run derives from.
    pub seed: u64,
    /// World size.
    pub ranks: u32,
    /// Per-op outcomes, in program order.
    pub ops: Vec<OpOutcome>,
    /// Total virtual time elapsed.
    pub virtual_elapsed: Duration,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// The event trace: one line per engine decision, byte-identical for
    /// equal seeds.
    pub trace: String,
    /// Telemetry snapshot (ncs-obs JSON) of the run's counters.
    pub telemetry_json: String,
    /// Op indices the scenario expected to fail (copied from
    /// [`Scenario::expect_failed`]).
    pub expect_failed: Vec<usize>,
}

impl SimReport {
    /// Whether every op in the program completed.
    pub fn all_completed(&self) -> bool {
        self.ops.iter().all(|o| o.completed)
    }

    /// The scenario's verdict: every op matched its expected outcome —
    /// ops in [`SimReport::expect_failed`] missed their deadline (the
    /// fail-fast contract), every other op completed. With no
    /// expectations declared this is [`SimReport::all_completed`].
    pub fn passed(&self) -> bool {
        self.ops
            .iter()
            .enumerate()
            .all(|(i, o)| o.completed != self.expect_failed.contains(&i))
    }
}

/// One logical message: a frame of rank `from`'s collective machine.
#[derive(Debug)]
struct Msg {
    gen: u64,
    from: u32,
    bytes: Vec<u8>,
}

#[derive(Debug)]
enum EvKind {
    Arrive { to: u32, msg: Msg },
    Retry { to: u32, msg: Msg, attempt: u32 },
    Deadline { gen: u64 },
    Chaos { idx: usize },
}

#[derive(Debug)]
struct Ev {
    at: SimTime,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Ev {}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The deterministic thousand-rank engine. See the module docs.
#[derive(Debug)]
pub struct SimWorld {
    scenario: Scenario,
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Reverse<Ev>>,
    /// Per-direction link state, created lazily (a 10,000-rank world has
    /// 10⁸ directed pairs; only the pairs a collective actually uses exist).
    links: HashMap<(u32, u32), Direction>,
    alive: Vec<bool>,
    isolated: Vec<bool>,
    /// Each rank's collective machine for the running op; `None` once it
    /// reported (or for a rank dead when the op started).
    machines: Vec<Option<Machine>>,
    frames: Encoder,
    /// The 8-byte results of the running op, by rank.
    values: Vec<Option<u64>>,
    failed: Vec<u32>,
    remaining: usize,
    gen: u64,
    rto: Duration,
    trace: String,
    events_processed: u64,
    registry: Registry,
    counters: Counters,
}

/// The per-message counters, looked up once.
#[derive(Debug)]
struct Counters {
    sent: Counter,
    retransmitted: Counter,
    dropped: Counter,
    delivered: Counter,
    chaos: Counter,
}

impl SimWorld {
    /// Builds the world described by `scenario` and schedules its chaos
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if the scenario declares zero ranks.
    pub fn new(scenario: Scenario) -> Self {
        assert!(scenario.ranks > 0, "scenario must have ranks");
        let n = scenario.ranks as usize;
        let rto = scenario.effective_rto();
        let registry = Registry::new();
        let counter = |name, help| registry.counter(name, help, &[]);
        let mut world = SimWorld {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            // Sized for the pairs the shipped schedules use — about
            // n·log₂n, the barrier's rounds — so the map does not rehash
            // its entries while they appear.
            links: HashMap::with_capacity(n * (n.ilog2() as usize + 2)),
            alive: vec![true; n],
            isolated: vec![false; n],
            machines: Vec::new(),
            frames: Encoder::new(BufPool::new(), 0, usize::MAX),
            values: Vec::new(),
            failed: Vec::new(),
            remaining: 0,
            gen: 0,
            rto,
            trace: String::new(),
            events_processed: 0,
            counters: Counters {
                sent: counter("sim_messages_sent_total", "messages sent"),
                retransmitted: counter("sim_retransmissions_total", "retransmission attempts"),
                dropped: counter("sim_messages_dropped_total", "messages dropped"),
                delivered: counter("sim_messages_delivered_total", "messages delivered"),
                chaos: counter("sim_chaos_events_total", "chaos events applied"),
            },
            registry,
            scenario,
        };
        for idx in 0..world.scenario.events.len() {
            let at = SimTime::ZERO + world.scenario.events[idx].at;
            world.push_ev(at, EvKind::Chaos { idx });
        }
        world
    }

    /// Runs the scenario's program to completion and reports.
    pub fn run(&mut self) -> SimReport {
        let ops = self.scenario.ops.clone();
        let mut outcomes = Vec::with_capacity(ops.len());
        for op in ops {
            outcomes.push(self.run_op(&op));
        }
        let completed = outcomes.iter().filter(|o| o.completed).count() as u64;
        self.registry
            .counter("sim_ops_completed_total", "ops completed", &[])
            .add(completed);
        self.registry
            .counter("sim_ops_failed_total", "ops failed", &[])
            .add(outcomes.len() as u64 - completed);
        SimReport {
            scenario: self.scenario.name.clone(),
            seed: self.scenario.seed,
            ranks: self.scenario.ranks,
            ops: outcomes,
            virtual_elapsed: self.now.as_duration(),
            events_processed: self.events_processed,
            trace: self.trace.clone(),
            telemetry_json: self.registry.snapshot().render_json(),
            expect_failed: self.scenario.expect_failed.clone(),
        }
    }

    /// The engine's telemetry registry (counters accumulate across ops).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn push_ev(&mut self, at: SimTime, kind: EvKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Ev { at, seq, kind }));
    }

    /// Appends one line to the event trace.
    fn log(&mut self, line: std::fmt::Arguments<'_>) {
        if !self.trace.is_empty() {
            self.trace.push('\n');
        }
        let _ = self.trace.write_fmt(line);
    }

    fn link(&mut self, from: u32, to: u32) -> &mut Direction {
        let (policy, back) = (&self.scenario.policy, &self.scenario.policy_back);
        let seed = self.scenario.seed;
        self.links.entry((from, to)).or_insert_with(|| {
            let p = if from <= to {
                policy
            } else {
                back.as_ref().unwrap_or(policy)
            };
            // The stream depends only on the seed and the pair, not on
            // creation order.
            Direction::new(
                p.clone(),
                mix_seed(seed, u64::from(from) << 32 | u64::from(to)),
            )
        })
    }

    /// One logical message transmission attempt from `msg.from` to `to`.
    /// A lost attempt re-arms on the RTO clock — the engine-level stand-in
    /// for NCS selective-repeat.
    fn send(&mut self, to: u32, msg: Msg, attempt: u32) {
        if !self.alive[msg.from as usize] {
            return;
        }
        if attempt == 0 {
            self.counters.sent.inc();
        } else {
            self.counters.retransmitted.inc();
        }
        let now = self.now;
        let rto = self.rto;
        let isolated = self.isolated[msg.from as usize] || self.isolated[to as usize];
        let link = self.link(msg.from, to);
        let blocked = !link.up || isolated;
        let due = (!isolated).then(|| link.fate(now, msg.bytes.len()));
        let Some(due) = due.flatten() else {
            self.counters.dropped.inc();
            self.log(format_args!(
                "{now} drop {}->{to} attempt {attempt}{}",
                msg.from,
                if blocked { " (link down)" } else { "" },
            ));
            self.push_ev(now + rto, EvKind::Retry { to, msg, attempt });
            return;
        };
        self.log(format_args!(
            "{now} send {}->{to} attempt {attempt} due {due}",
            msg.from
        ));
        self.push_ev(due, EvKind::Arrive { to, msg });
    }

    fn apply_chaos(&mut self, idx: usize) {
        let ev = self.scenario.events[idx].clone();
        self.counters.chaos.inc();
        let now = self.now;
        self.log(format_args!("{now} chaos {:?}", ev.kind));
        match ev.kind {
            ChaosKind::CutLink { from, to } => self.link(from, to).up = false,
            ChaosKind::HealLink { from, to } => self.link(from, to).up = true,
            ChaosKind::SetLoss { from, to, loss } => self.link(from, to).policy.loss = loss,
            ChaosKind::SlowLink { from, to, latency } => {
                self.link(from, to).policy.latency = latency;
            }
            ChaosKind::IsolateRank { rank } => self.isolated[rank as usize] = true,
            ChaosKind::ReconnectRank { rank } => self.isolated[rank as usize] = false,
            ChaosKind::KillRank { rank } => self.alive[rank as usize] = false,
            ChaosKind::ReviveRank { rank } => self.alive[rank as usize] = true,
        }
    }

    /// Gives every alive rank a machine with `op` submitted — the shipped
    /// schedule under the default topology policy, on a one-`u64` payload
    /// (single-segment, so a retry can never split a transfer) — and lets
    /// each fire its initial sends.
    fn start_op(&mut self, op: &SimOp, timeout: Duration) {
        let n = self.scenario.ranks as usize;
        let select = |class| TopologyPolicy::default().select(class, n, 8);
        let sum = |op: fn(DType, ReduceOp) -> Op| op(DType::U64, ReduceOp::Sum);
        let (op, root, topo, topo2) = match *op {
            SimOp::Broadcast { root, .. } => {
                let topo = select(OpClass::Broadcast);
                (Op::Broadcast { len: 8 }, root, topo, topo)
            }
            SimOp::Reduce { root, .. } => {
                let topo = select(OpClass::Reduce);
                (sum(Op::Reduce), root, topo, topo)
            }
            SimOp::Allreduce { .. } => (
                sum(Op::Allreduce),
                0,
                select(OpClass::Reduce),
                select(OpClass::Broadcast),
            ),
            SimOp::Barrier { .. } => (Op::Barrier, 0, Topology::Flat, Topology::Flat),
            SimOp::Advance { .. } => unreachable!("advance is not a collective"),
        };
        let spec = Spec {
            op,
            root: root as usize,
            topo,
            topo2,
        };
        self.gen += 1;
        self.values = vec![None; n];
        self.failed.clear();
        self.machines = (0..n)
            .map(|r| {
                let payload = match op {
                    Op::Broadcast { .. } if r == spec.root => {
                        (100 + r as u64).to_le_bytes().to_vec()
                    }
                    Op::Broadcast { .. } | Op::Barrier => Vec::new(),
                    _ => (r as u64).to_le_bytes().to_vec(),
                };
                self.alive[r].then(|| {
                    let mut m = Machine::new(self.frames.clone(), r, n);
                    m.submit(0, spec, payload, timeout);
                    m
                })
            })
            .collect();
        self.remaining = self.machines.iter().flatten().count();
        for r in 0..n as u32 {
            self.step(r);
        }
    }

    /// Polls `rank`'s machine at the current time: its frames go on the
    /// wire, its verdict into the op's outcome.
    fn step(&mut self, rank: u32) {
        let Some(machine) = self.machines[rank as usize].as_mut() else {
            return;
        };
        let (mut sends, mut done) = (Vec::new(), None);
        machine.poll(self.now.as_duration(), &mut |out| {
            match out {
                Output::Send { to, frames } => {
                    sends.extend(frames.iter().map(|f| (to as u32, f.to_vec())));
                }
                Output::Done { result, .. } => done = Some(result),
                Output::Delivered { .. } => {}
            }
            Ok(())
        });
        let (gen, from) = (self.gen, rank);
        for (to, bytes) in sends {
            self.send(to, Msg { gen, from, bytes }, 0);
        }
        if let Some(result) = done {
            self.machines[rank as usize] = None;
            self.remaining -= 1;
            match result {
                Ok(v) => self.values[rank as usize] = v.try_into().ok().map(u64::from_le_bytes),
                Err(_) => self.failed.push(rank),
            }
        }
    }

    /// Feeds an arrived message to `to`'s machine.
    fn deliver(&mut self, to: u32, msg: Msg) {
        let now = self.now;
        if !self.alive[to as usize] {
            self.log(format_args!("{now} dead-drop {}->{to}", msg.from));
            return;
        }
        self.counters.delivered.inc();
        self.log(format_args!("{now} deliver {}->{to}", msg.from));
        if let Some(machine) = &mut self.machines[to as usize] {
            machine.on_frame(msg.from as usize, msg.bytes);
            self.step(to);
        }
    }

    fn run_op(&mut self, op: &SimOp) -> OpOutcome {
        let started = self.now;
        let name = match op {
            SimOp::Broadcast { root, .. } => format!("broadcast({root})"),
            SimOp::Reduce { root, .. } => format!("reduce({root})"),
            SimOp::Allreduce { .. } => "allreduce".to_owned(),
            SimOp::Barrier { .. } => "barrier".to_owned(),
            SimOp::Advance { by } => format!("advance({by:?})"),
        };
        self.log(format_args!("{started} op {name} start"));
        let timeout = match *op {
            SimOp::Broadcast { timeout, .. }
            | SimOp::Reduce { timeout, .. }
            | SimOp::Allreduce { timeout }
            | SimOp::Barrier { timeout } => timeout,
            SimOp::Advance { by } => {
                // Pure time passage: chaos events in the window fire, stale
                // messages drain.
                let target = self.now + by;
                while self.queue.peek().is_some_and(|Reverse(ev)| ev.at <= target) {
                    let Reverse(ev) = self.queue.pop().expect("peeked");
                    self.now = ev.at;
                    self.events_processed += 1;
                    if let EvKind::Chaos { idx } = ev.kind {
                        self.apply_chaos(idx);
                    }
                }
                self.now = target;
                return OpOutcome {
                    op: name,
                    completed: true,
                    failed_ranks: Vec::new(),
                    elapsed: by,
                    result: None,
                };
            }
        };
        self.start_op(op, timeout);
        let gen = self.gen;
        self.push_ev(self.now + timeout, EvKind::Deadline { gen });
        while self.remaining > 0 {
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            debug_assert!(ev.at >= self.now, "virtual time went backwards");
            self.now = ev.at;
            self.events_processed += 1;
            match ev.kind {
                EvKind::Chaos { idx } => self.apply_chaos(idx),
                // Every machine still waiting times out on this poll.
                EvKind::Deadline { gen: g } if g == gen => {
                    (0..self.scenario.ranks).for_each(|r| self.step(r));
                }
                EvKind::Arrive { to, msg } if msg.gen == gen => self.deliver(to, msg),
                EvKind::Retry { to, msg, attempt } if msg.gen == gen => {
                    self.send(to, msg, attempt + 1);
                }
                _ => {}
            }
        }
        let failed_ranks = std::mem::take(&mut self.failed);
        let completed = failed_ranks.is_empty() && self.remaining == 0;
        // Agreement check: every rank that holds a value holds the same.
        let mut values = self.values.iter().flatten();
        let result = values
            .next()
            .filter(|first| completed && values.all(|v| v == *first))
            .copied();
        let now = self.now;
        self.log(format_args!(
            "{now} op {name} {} ({} failed)",
            if completed { "complete" } else { "TIMEOUT" },
            failed_ranks.len()
        ));
        OpOutcome {
            op: name,
            completed,
            failed_ranks,
            elapsed: now - started,
            result,
        }
    }
}

// ---------------------------------------------------------------------------
// SimSession: the real-stack Session backend
// ---------------------------------------------------------------------------

/// Builds simulated in-process worlds (the [`Session`] factory for the
/// SIM interface), and hosts the discrete-event engine for four-digit
/// rank counts — see the module docs for which half fits which scale.
#[derive(Debug)]
pub struct SimWorldBuilder {
    ranks: u32,
    seed: u64,
    policy: LinkPolicy,
}

impl SimWorldBuilder {
    /// A world of `ranks` members over ideal links, seeded with `seed`.
    pub fn new(ranks: u32, seed: u64) -> Self {
        SimWorldBuilder {
            ranks,
            seed,
            policy: LinkPolicy::ideal(),
        }
    }

    /// Shapes every link with `policy` (both directions).
    pub fn policy(mut self, policy: LinkPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Meshes `ranks` real NCS nodes over the SIM interface. Mirrors
    /// [`crate::LocalWorld::create`]'s wiring: full mesh, one bootstrap
    /// connection per pair, dial-up/accept-down.
    ///
    /// # Errors
    ///
    /// [`SessionError`] when the mesh cannot be established.
    pub fn build(self) -> Result<Vec<SimSession>, SessionError> {
        let n = self.ranks;
        if n == 0 {
            return Err(SessionError::Connect("world size must be positive".into()));
        }
        let net = SimNet::new(self.seed);
        let pkg: Arc<dyn ncs_threads::ThreadPackage> = Arc::new(ncs_threads::KernelPackage::new());
        let reactor = ncs_core::Reactor::with_default_shards(pkg);
        let nodes: Vec<NcsNode> = (0..n)
            .map(|r| {
                NcsNode::builder(&rank_name(r))
                    .rank(r)
                    .reactor(Arc::clone(&reactor))
                    .build()
            })
            .collect();
        let mut peer_links: Vec<HashMap<u32, Arc<ncs_core::link::SimLink>>> =
            (0..n).map(|_| HashMap::new()).collect();
        let world = crate::session::mesh(nodes, |i, j| {
            let (li, lj) = SimLinkPair::create(&net, self.policy.clone(), self.policy.clone());
            peer_links[i as usize].insert(j, Arc::clone(&li));
            peer_links[j as usize].insert(i, Arc::clone(&lj));
            (li, lj)
        })?;
        Ok(world
            .into_iter()
            .zip(peer_links)
            .map(|(local, peers)| SimSession {
                local,
                peers,
                net: Arc::clone(&net),
            })
            .collect())
    }
}

/// One member of a simulated world: the third [`Session`] backend — a
/// [`LocalSession`] whose links ride the simulated fabric, plus the chaos
/// handles. Real node, real reactor tasks, real clock — only the network
/// is simulated.
#[derive(Debug)]
pub struct SimSession {
    local: LocalSession,
    peers: HashMap<u32, Arc<ncs_core::link::SimLink>>,
    net: Arc<SimNet>,
}

impl SimSession {
    /// The bootstrap connection to `rank`, if it is another member.
    pub fn connection(&self, rank: u32) -> Option<&NcsConnection> {
        self.local.connection(rank)
    }

    /// The fabric this world rides (delivery/drop counters, manual
    /// chaos).
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// Raises or cuts this member's outbound traffic towards `peer` on
    /// every channel between them (partition chaos; cut both sides for a
    /// full partition).
    pub fn set_peer_up(&self, peer: u32, up: bool) {
        if let Some(link) = self.peers.get(&peer) {
            link.set_outbound_up(up);
        }
    }

    /// Reshapes this member's outbound traffic towards `peer` (slow-link
    /// chaos).
    pub fn set_peer_policy(&self, peer: u32, policy: LinkPolicy) {
        if let Some(link) = self.peers.get(&peer) {
            link.set_outbound_policy(policy);
        }
    }
}

impl Session for SimSession {
    fn rank(&self) -> u32 {
        self.local.rank()
    }

    fn world_size(&self) -> u32 {
        self.local.world_size()
    }

    fn node(&self) -> &NcsNode {
        self.local.node()
    }

    fn connect(&self, peer: u32, cfg: ConnectionConfig) -> Result<NcsConnection, SessionError> {
        self.local.connect(peer, cfg)
    }

    fn accept(&self, timeout: Duration) -> Result<NcsConnection, SessionError> {
        self.local.accept(timeout)
    }

    fn collective_group(&self, id: u32) -> Result<CollectiveGroup, SessionError> {
        self.local.collective_group(id)
    }

    fn shutdown(&self) {
        self.local.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree a simulated broadcast forwards along is the shipped one:
    /// recursive halving with contiguous subtrees (rank 4 roots 4..8).
    #[test]
    fn binomial_tree_shape() {
        let mut s = Scenario::new("t", 8, 1);
        s.ops = vec![SimOp::Broadcast {
            root: 0,
            timeout: Duration::from_secs(5),
        }];
        let report = SimWorld::new(s).run();
        let lines = report.trace.lines().filter(|l| l.contains(" send "));
        let mut sends: Vec<&str> = lines.filter_map(|l| l.split(' ').nth(2)).collect();
        sends.sort_unstable();
        assert_eq!(
            sends,
            ["0->1", "0->2", "0->4", "2->3", "4->5", "4->6", "6->7"]
        );
    }

    #[test]
    fn clean_broadcast_reaches_everyone() {
        let mut s = Scenario::new("t", 16, 1);
        s.ops = vec![SimOp::Broadcast {
            root: 3,
            timeout: Duration::from_secs(5),
        }];
        let report = SimWorld::new(s).run();
        assert!(report.all_completed(), "{:?}", report.ops);
        assert_eq!(report.ops[0].result, Some(103));
    }

    #[test]
    fn reduce_sums_rank_ids() {
        let mut s = Scenario::new("t", 9, 1);
        s.ops = vec![SimOp::Reduce {
            root: 2,
            timeout: Duration::from_secs(5),
        }];
        let report = SimWorld::new(s).run();
        assert!(report.all_completed(), "{:?}", report.ops);
        assert_eq!(report.ops[0].result, Some((0..9).sum()));
    }

    #[test]
    fn allreduce_agrees_on_the_sum() {
        for n in [2u32, 3, 7, 8, 33] {
            let mut s = Scenario::new("t", n, 5);
            s.ops = vec![SimOp::Allreduce {
                timeout: Duration::from_secs(5),
            }];
            let report = SimWorld::new(s).run();
            assert!(report.all_completed(), "n={n} {:?}", report.ops);
            assert_eq!(
                report.ops[0].result,
                Some(u64::from(n) * u64::from(n - 1) / 2)
            );
        }
    }

    #[test]
    fn barrier_completes_in_log_rounds_of_latency() {
        let mut s = Scenario::new("t", 64, 1);
        // No jitter, and no serialisation: a frame's hop is its latency.
        s.policy = LinkPolicy {
            jitter: Duration::ZERO,
            bandwidth_bps: 0,
            ..LinkPolicy::lan()
        };
        s.ops = vec![SimOp::Barrier {
            timeout: Duration::from_secs(5),
        }];
        let report = SimWorld::new(s).run();
        assert!(report.all_completed());
        // 6 dissemination rounds at 50 µs per hop.
        assert_eq!(report.ops[0].elapsed, Duration::from_micros(300));
    }

    #[test]
    fn killed_rank_fails_fast_at_the_deadline() {
        let mut s = Scenario::new("t", 8, 1);
        s.events = vec![ChaosEvent {
            at: Duration::from_micros(1),
            kind: ChaosKind::KillRank { rank: 5 },
        }];
        s.ops = vec![
            SimOp::Advance {
                by: Duration::from_millis(1),
            },
            SimOp::Barrier {
                timeout: Duration::from_millis(50),
            },
        ];
        let report = SimWorld::new(s).run();
        assert!(!report.ops[1].completed);
        assert!(!report.ops[1].failed_ranks.is_empty());
        // The deadline bounded the op: fail-fast, not hang.
        assert_eq!(report.ops[1].elapsed, Duration::from_millis(50));
    }

    #[test]
    fn lossy_world_retransmits_to_completion() {
        let s = Scenario::asymmetric_loss(32, 7);
        let report = SimWorld::new(s).run();
        assert!(report.all_completed(), "{:?}", report.ops);
        assert!(report.telemetry_json.contains("sim_retransmissions_total"));
    }

    #[test]
    fn same_seed_byte_identical_trace() {
        let a = SimWorld::new(Scenario::asymmetric_loss(64, 99)).run();
        let b = SimWorld::new(Scenario::asymmetric_loss(64, 99)).run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.telemetry_json, b.telemetry_json);
        let c = SimWorld::new(Scenario::asymmetric_loss(64, 100)).run();
        assert_ne!(a.trace, c.trace, "different seeds should diverge");
    }

    #[test]
    fn scenario_script_round_trips_the_documented_example() {
        let script = r"
# partition between 1 and 2, healed at 100ms
scenario partition-heal
ranks 64
seed 42
policy latency=50us jitter=5us loss=0
at 500us cut 1 2
at 500us cut 2 1
at 100ms heal 1 2
at 100ms heal 2 1
op advance 1ms
op allreduce 30s
op barrier 30s
";
        let parsed = Scenario::parse(script).expect("parse");
        assert_eq!(parsed.name, "partition-heal");
        assert_eq!(parsed.ranks, 64);
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed, Scenario::partition_heal(64, 42));
        let report = SimWorld::new(parsed).run();
        assert!(report.all_completed(), "{:?}", report.ops);
    }

    #[test]
    fn scenario_parse_rejects_garbage() {
        assert!(Scenario::parse("bogus directive").is_err());
        assert!(Scenario::parse("ranks 0").is_err());
        assert!(Scenario::parse("ranks 4\nat nonsense cut 0 1").is_err());
        assert!(Scenario::parse("ranks 4\nop allreduce").is_err());
        assert!(Scenario::parse("ranks 4\nop allreduce 5s bogus").is_err());
        assert!(Scenario::parse("ranks 4\nop advance 1ms expect-fail").is_err());
    }

    #[test]
    fn expect_fail_script_token_demands_the_deadline_miss() {
        let script = r"
scenario scripted-kill
ranks 8
seed 3
at 1us kill 2
at 15ms revive 2
op advance 1ms
op allreduce 10ms expect-fail
op advance 10ms
op allreduce 30s
";
        let s = Scenario::parse(script).expect("parse");
        assert_eq!(s.expect_failed, vec![1]);
        let report = SimWorld::new(s).run();
        assert!(!report.all_completed());
        assert!(report.passed(), "{:?}", report.ops);
    }

    #[test]
    fn kill_heal_preset_fails_fast_then_completes() {
        let report = SimWorld::new(Scenario::kill_heal(16, 4)).run();
        assert!(report.passed(), "{:?}", report.ops);
        // The degraded allreduce fail-fasts exactly at its deadline (no
        // hang) with the root among the failed ranks …
        assert!(!report.ops[1].completed);
        assert!(report.ops[1].failed_ranks.contains(&0));
        assert_eq!(report.ops[1].elapsed, Duration::from_millis(10));
        // … and the healed world completes the full-sum allreduce.
        assert!(report.ops[3].completed);
        assert_eq!(report.ops[3].result, Some(16 * 15 / 2));
    }

    #[test]
    fn duration_and_magnitude_parsers() {
        assert_eq!(parse_duration("50us"), Some(Duration::from_micros(50)));
        assert_eq!(parse_duration("10ms"), Some(Duration::from_millis(10)));
        assert_eq!(parse_duration("5s"), Some(Duration::from_secs(5)));
        assert_eq!(parse_duration("oops"), None);
        assert_eq!(parse_u64("1g"), Some(1_000_000_000));
        assert_eq!(parse_u64("155_520_000"), Some(155_520_000));
    }
}
