//! Dynamic membership: epoch views, heartbeat failure detection, and the
//! client/server machinery that turns `ncsd` from a one-shot rendezvous
//! into a membership service.
//!
//! # The model
//!
//! A world keeps its size (`world` rank *slots*) for life, but the
//! *occupants* of the slots change: ranks join at bootstrap, leave
//! gracefully ([`crate::wire::RvMsg::Leave`]), die (missed heartbeats),
//! and are replaced (a new process re-adopts the dead slot via
//! [`crate::wire::RvMsg::Rejoin`] with a bumped incarnation). Every
//! membership change produces a new [`View`]:
//!
//! * a **monotonic epoch** ([`View::id`]) — subscribers apply views in
//!   epoch order and discard stale ones;
//! * the full **member list** (rank, listener address, incarnation) —
//!   enough for any subscriber to re-mesh without further questions;
//! * the **deltas** ([`View::joined`] / [`View::left`] / [`View::dead`])
//!   — what changed relative to the previous epoch, so subscribers can
//!   react precisely (drop one link, abort one group) instead of diffing.
//!
//! # The failure detector
//!
//! Pure heartbeat with two thresholds, driven entirely by an injectable
//! [`Clock`] (so the SIM backend runs it on virtual time): a tracked
//! member whose last pulse is older than
//! [`MembershipConfig::suspect_after`] becomes *suspect* (reported in
//! heartbeat acks, no view change — suspicion is cheap and reversible);
//! older than [`MembershipConfig::dead_after`] it is declared *dead*,
//! removed from the member list, and a new view goes out. A dead member
//! cannot heartbeat itself back — its slot returns only through a
//! [`Rejoin`](crate::wire::RvMsg::Rejoin) with a higher incarnation.
//!
//! # The pieces
//!
//! * `MembershipService` — everything `ncsd` decides, sans I/O: roster
//!   assembly, the [`MembershipTable`] (member list + failure detector),
//!   the subscriber set and the telemetry stash. One method per verb; each
//!   returns the frames to send and who gets them;
//! * its two shells: `ncsd` ([`crate::rendezvous::RendezvousServer`]),
//!   which steps it on the thread that read each request and writes the
//!   answers to sockets, and [`MembershipHub`], which steps it from
//!   explicit calls and hands views to in-process sinks (SIM and test
//!   worlds run the code `ncsd` runs);
//! * [`MemberAgent`] — one rank's client: a background thread that
//!   subscribes, pulses heartbeats, observes acks (RTT histogram) and
//!   delivers views to the rank's callback;
//! * [`MembershipMetrics`] — the observability contract (view epoch
//!   gauge, heartbeat RTT histogram, suspect/dead counters).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::Clock;
use ncs_obs::{Counter, Gauge, Histogram, Registry};
use ncs_transport::sci;
use ncs_transport::{Connection as _, TransportError};

use crate::cluster::ClusterError;
use crate::wire::{RvMsg, PROTOCOL_VERSION};

/// Failure-detector and heartbeat tuning knobs.
///
/// The defaults balance detection latency against false positives on a
/// loaded CI runner: a member is declared dead by the first detector
/// sweep after `dead_after` of silence, within 3× the heartbeat interval
/// (detection latency ≈ `dead_after` + one sweep + delivery; held on
/// virtual time by the `membership_props` test
/// `a_silent_member_dies_at_the_first_sweep_past_dead_after`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipConfig {
    /// How often each member pulses a heartbeat.
    pub heartbeat_interval: Duration,
    /// Silence after which a member becomes *suspect* (reversible — a
    /// late pulse revives it; no view change).
    pub suspect_after: Duration,
    /// Silence after which a suspect is declared *dead* (irreversible —
    /// the slot returns only through a rejoin; publishes a view).
    pub dead_after: Duration,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            heartbeat_interval: Duration::from_millis(200),
            suspect_after: Duration::from_millis(350),
            dead_after: Duration::from_millis(450),
        }
    }
}

/// Environment knobs read by [`MembershipConfig::from_env`].
pub mod env {
    /// Heartbeat interval in milliseconds.
    pub const HEARTBEAT_MS: &str = "NCS_HEARTBEAT_MS";
    /// Suspicion threshold in milliseconds.
    pub const SUSPECT_MS: &str = "NCS_SUSPECT_MS";
    /// Death threshold in milliseconds.
    pub const DEAD_MS: &str = "NCS_DEAD_MS";
}

impl MembershipConfig {
    /// The defaults overridden by the `NCS_HEARTBEAT_MS` /
    /// `NCS_SUSPECT_MS` / `NCS_DEAD_MS` environment (unparseable values
    /// fall back silently — tuning must never stop a world from forming).
    pub fn from_env() -> Self {
        fn ms(name: &str, default: Duration) -> Duration {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map_or(default, Duration::from_millis)
        }
        let d = MembershipConfig::default();
        MembershipConfig {
            heartbeat_interval: ms(env::HEARTBEAT_MS, d.heartbeat_interval),
            suspect_after: ms(env::SUSPECT_MS, d.suspect_after),
            dead_after: ms(env::DEAD_MS, d.dead_after),
        }
    }

    /// An aggressive profile for tests and benches (25 ms pulses, death
    /// at 80 ms).
    pub fn fast() -> Self {
        MembershipConfig {
            heartbeat_interval: Duration::from_millis(25),
            suspect_after: Duration::from_millis(55),
            dead_after: Duration::from_millis(80),
        }
    }

    /// Checks the thresholds are ordered sensibly.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] when an interval is zero or the
    /// thresholds are not `heartbeat < suspect < dead`.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.heartbeat_interval.is_zero() {
            return Err(ClusterError::Config(
                "heartbeat interval must be positive".into(),
            ));
        }
        if self.suspect_after <= self.heartbeat_interval || self.dead_after <= self.suspect_after {
            return Err(ClusterError::Config(format!(
                "membership thresholds must order heartbeat < suspect < dead (got {:?} / {:?} / {:?})",
                self.heartbeat_interval, self.suspect_after, self.dead_after
            )));
        }
        Ok(())
    }
}

/// One member of a view: who occupies a rank slot and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// The rank slot.
    pub rank: u32,
    /// The occupant's SCI listener address, as `ip:port`.
    pub addr: String,
    /// The occupant's incarnation (0 at first launch; each replacement
    /// bumps it).
    pub incarnation: u32,
}

/// An epoch-numbered group view: the member list plus what changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Monotonic epoch; subscribers apply views in `id` order.
    pub id: u64,
    /// The world's slot count (fixed for the world's lifetime).
    pub world: u32,
    /// Current members, sorted by rank. May be fewer than `world` while
    /// slots are vacant (dead, not yet replaced).
    pub members: Vec<Member>,
    /// Ranks that joined (or rejoined) in this epoch.
    pub joined: Vec<u32>,
    /// Ranks that left gracefully in this epoch.
    pub left: Vec<u32>,
    /// Ranks declared dead in this epoch.
    pub dead: Vec<u32>,
}

impl View {
    /// The member occupying `rank`, if any.
    pub fn member(&self, rank: u32) -> Option<&Member> {
        self.members.iter().find(|m| m.rank == rank)
    }

    /// The listener address of `rank`, parsed.
    pub fn addr_of(&self, rank: u32) -> Option<SocketAddr> {
        self.member(rank).and_then(|m| m.addr.parse().ok())
    }

    /// Whether every slot of the world is occupied.
    pub fn is_full(&self) -> bool {
        self.members.len() == self.world as usize
    }
}

/// A tracked member's failure-detector state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Pulsing within [`MembershipConfig::suspect_after`].
    Alive,
    /// Silent past the suspicion threshold; revivable by a late pulse.
    Suspect,
    /// Silent past the death threshold; the slot needs a rejoin.
    Dead,
}

#[derive(Debug)]
struct Tracked {
    last_pulse: Duration,
    health: Health,
}

/// The membership state machine: member list, failure detector, view
/// production. Pure — no I/O, no threads; time comes from the injected
/// [`Clock`] (real inside `ncsd`, virtual inside simulations), which is
/// what makes SIM membership runs deterministic.
#[derive(Debug)]
pub struct MembershipTable {
    cfg: MembershipConfig,
    clock: Arc<dyn Clock>,
    world: u32,
    view: View,
    /// Failure-detector state per *tracked* rank. A member is tracked
    /// from its first subscribe/heartbeat — bootstrap-only worlds that
    /// never pulse are never declared dead.
    tracked: HashMap<u32, Tracked>,
    suspect_events: u64,
}

impl MembershipTable {
    /// An empty table for a world of `world` slots.
    pub fn new(world: u32, cfg: MembershipConfig, clock: Arc<dyn Clock>) -> Self {
        MembershipTable {
            cfg,
            clock,
            world,
            view: View {
                id: 0,
                world,
                members: Vec::new(),
                joined: Vec::new(),
                left: Vec::new(),
                dead: Vec::new(),
            },
            tracked: HashMap::new(),
            suspect_events: 0,
        }
    }

    /// Installs the bootstrap roster as epoch 1 (every rank a joiner,
    /// incarnation 0). Members are not yet tracked — the detector arms
    /// per member on its first [`MembershipTable::track`] or heartbeat.
    pub fn seed(&mut self, members: &[(u32, String)]) -> &View {
        let mut ms: Vec<Member> = members
            .iter()
            .map(|(rank, addr)| Member {
                rank: *rank,
                addr: addr.clone(),
                incarnation: 0,
            })
            .collect();
        ms.sort_by_key(|m| m.rank);
        self.view = View {
            id: 1,
            world: self.world,
            joined: ms.iter().map(|m| m.rank).collect(),
            left: Vec::new(),
            dead: Vec::new(),
            members: ms,
        };
        &self.view
    }

    /// The current view.
    pub fn current(&self) -> &View {
        &self.view
    }

    /// Ranks currently under suspicion.
    pub fn suspects(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self
            .tracked
            .iter()
            .filter(|(_, t)| t.health == Health::Suspect)
            .map(|(&r, _)| r)
            .collect();
        s.sort_unstable();
        s
    }

    /// Total alive→suspect transitions so far.
    pub fn suspect_events(&self) -> u64 {
        self.suspect_events
    }

    /// A member's detector state (`None` when untracked).
    pub fn health(&self, rank: u32) -> Option<Health> {
        self.tracked.get(&rank).map(|t| t.health)
    }

    /// Arms the failure detector for `rank` (idempotent; called when the
    /// rank subscribes): a [`MembershipTable::heartbeat`] that answers
    /// nothing.
    pub fn track(&mut self, rank: u32) {
        self.heartbeat(rank);
    }

    /// Records a pulse from `rank`, arming the detector on a member's
    /// first: the deadline clock restarts now, and a suspect revives. Only
    /// members are armed — so no sweep ever convicts a stranger — and a
    /// non-member's pulse, a dead member's included, is ignored (its slot
    /// must be re-adopted via [`MembershipTable::join`]).
    pub fn heartbeat(&mut self, rank: u32) -> Health {
        // A member is never dead: death removes it from the view.
        if self.view.member(rank).is_none() {
            return Health::Dead;
        }
        let last_pulse = self.clock.now();
        let health = Health::Alive;
        self.tracked.insert(rank, Tracked { last_pulse, health });
        health
    }

    /// Adopts (or re-adopts) slot `rank` for the occupant at `addr` with
    /// `incarnation`. Produces the join view, or `None` when nothing
    /// changed (the same occupant is already a live member).
    pub fn join(&mut self, rank: u32, addr: &str, incarnation: u32) -> Option<View> {
        if rank >= self.world {
            return None;
        }
        let unchanged = self
            .view
            .member(rank)
            .is_some_and(|m| m.addr == addr && m.incarnation == incarnation)
            && self
                .tracked
                .get(&rank)
                .is_none_or(|t| t.health != Health::Dead);
        if unchanged {
            return None;
        }
        self.view.members.retain(|m| m.rank != rank);
        self.view.members.push(Member {
            rank,
            addr: addr.to_owned(),
            incarnation,
        });
        self.view.members.sort_by_key(|m| m.rank);
        self.tracked.insert(
            rank,
            Tracked {
                last_pulse: self.clock.now(),
                health: Health::Alive,
            },
        );
        self.bump(vec![rank], Vec::new(), Vec::new());
        Some(self.view.clone())
    }

    /// Removes `rank` gracefully. Produces the leave view, or `None`
    /// when it was not a member.
    pub fn leave(&mut self, rank: u32) -> Option<View> {
        self.view.member(rank)?;
        self.view.members.retain(|m| m.rank != rank);
        self.tracked.remove(&rank);
        self.bump(Vec::new(), vec![rank], Vec::new());
        Some(self.view.clone())
    }

    /// Sweeps the failure detector: transitions silent members to
    /// suspect, declares over-silent suspects dead. Produces the death
    /// view when anyone died in this sweep.
    pub fn tick(&mut self) -> Option<View> {
        let now = self.clock.now();
        let mut died: Vec<u32> = Vec::new();
        for (&rank, t) in &mut self.tracked {
            if t.health == Health::Dead {
                continue;
            }
            let silence = now.saturating_sub(t.last_pulse);
            if silence >= self.cfg.dead_after {
                t.health = Health::Dead;
                died.push(rank);
            } else if silence >= self.cfg.suspect_after {
                if t.health == Health::Alive {
                    t.health = Health::Suspect;
                    self.suspect_events += 1;
                }
            } else {
                t.health = Health::Alive;
            }
        }
        if died.is_empty() {
            return None;
        }
        died.sort_unstable();
        self.view.members.retain(|m| !died.contains(&m.rank));
        self.bump(Vec::new(), Vec::new(), died);
        Some(self.view.clone())
    }

    fn bump(&mut self, joined: Vec<u32>, left: Vec<u32>, dead: Vec<u32>) {
        self.view.id += 1;
        self.view.joined = joined;
        self.view.left = left;
        self.view.dead = dead;
    }
}

/// Whom a `MembershipService` answers: the connection a request came in
/// on, or a hub observer. The shell picks the numbers; the service only
/// hands them back as addresses.
pub(crate) type ConnId = u64;

/// One frame a `MembershipService` step wants sent, and who gets it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Outgoing {
    /// The recipients, in order.
    pub(crate) to: Vec<ConnId>,
    /// The frame.
    pub(crate) msg: RvMsg,
}

/// Everything the membership authority decides, with no socket, thread
/// or wall clock in it: the roster being assembled (then sealed, and kept
/// current across rejoins), the [`MembershipTable`], the subscriber set
/// and the telemetry stash.
///
/// Each verb is one method that validates the request and returns, in
/// order, the frames to send and who gets each one. A shell serialises
/// the calls and delivers the answers in that order before the next call
/// — `ncsd` writes them to sockets, [`MembershipHub`] hands views to
/// in-process sinks — so every subscriber sees strictly increasing
/// epochs.
#[derive(Debug)]
pub(crate) struct MembershipService {
    world: u32,
    table: MembershipTable,
    /// Registrations waiting for the world to assemble: rank, listener
    /// address, and the connection the roster goes back on.
    pending: Vec<(u32, String, ConnId)>,
    /// The sealed roster (`None` until every rank registered), pointing at
    /// each slot's live occupant so a `Register` re-fetch gets live
    /// addresses.
    roster: Option<Vec<(u32, String)>>,
    /// Subscribers in subscription order. A rank's subscription carries
    /// its rank and ends when the rank leaves or dies; an observer's
    /// (`None`) lasts for the service's life.
    subs: Vec<(ConnId, Option<u32>)>,
    /// Telemetry snapshots pushed by ranks, latest per rank.
    telemetry: HashMap<u32, String>,
}

/// A one-frame answer to `to`.
fn reply(to: ConnId, msg: RvMsg) -> Vec<Outgoing> {
    vec![Outgoing { to: vec![to], msg }]
}

impl MembershipService {
    /// A service for a world of `world` slots, its detector on `clock`.
    pub(crate) fn new(world: u32, cfg: MembershipConfig, clock: Arc<dyn Clock>) -> Self {
        MembershipService {
            world,
            table: MembershipTable::new(world, cfg, clock),
            pending: Vec::new(),
            roster: None,
            subs: Vec::new(),
            telemetry: HashMap::new(),
        }
    }

    /// Steps the service with one decoded request that arrived on `from`
    /// (frames only the service sends are ignored).
    pub(crate) fn handle(&mut self, from: ConnId, msg: RvMsg) -> Vec<Outgoing> {
        match msg {
            RvMsg::Register {
                version,
                world,
                rank,
                addr,
            } => self.register(from, version, world, rank, &addr),
            RvMsg::Rejoin {
                version,
                world,
                rank,
                addr,
                incarnation,
            } => self.rejoin(from, version, world, rank, &addr, incarnation),
            RvMsg::Subscribe { rank, .. } => self.subscribe(from, Some(rank)),
            RvMsg::Heartbeat { rank, seq, nanos } => self.heartbeat(from, rank, seq, nanos),
            RvMsg::Leave { rank } => self.leave(rank),
            RvMsg::Telemetry { rank, json } => self.telemetry(from, rank, json),
            _ => Vec::new(),
        }
    }

    /// Why an identity is refused, if it is.
    fn refusal(&self, version: u32, world: u32, rank: u32) -> Option<String> {
        if version != PROTOCOL_VERSION {
            Some(format!(
                "protocol version {version} (server speaks {PROTOCOL_VERSION})"
            ))
        } else if world != self.world {
            Some(format!(
                "world size {world} (server expects {})",
                self.world
            ))
        } else if rank >= self.world {
            Some(format!("rank {rank} out of range (world {})", self.world))
        } else {
            None
        }
    }

    /// `Register`: holds the registration until the `world`-th arrives,
    /// then seals — the roster goes to every registrant and, as the seed
    /// view (epoch 1), to every subscriber; ranks that subscribed early
    /// are armed now. After the seal a valid identity gets the roster at
    /// once (a restarted rank or a late diagnostic client re-fetching).
    pub(crate) fn register(
        &mut self,
        from: ConnId,
        version: u32,
        world: u32,
        rank: u32,
        addr: &str,
    ) -> Vec<Outgoing> {
        if let Some(reason) = self.refusal(version, world, rank) {
            return reply(from, RvMsg::Reject { reason });
        }
        if let Some(members) = &self.roster {
            let msg = RvMsg::Roster {
                world: self.world,
                members: members.clone(),
            };
            return reply(from, msg);
        }
        if self.pending.iter().any(|&(r, ..)| r == rank) {
            let reason = format!("duplicate rank {rank}");
            return reply(from, RvMsg::Reject { reason });
        }
        self.pending.push((rank, addr.to_owned(), from));
        if self.pending.len() < self.world as usize {
            return Vec::new();
        }
        self.pending.sort_by_key(|&(r, ..)| r);
        let (members, to): (Vec<_>, Vec<_>) =
            self.pending.drain(..).map(|(r, a, c)| ((r, a), c)).unzip();
        let seed = self.table.seed(&members).clone();
        for rank in self.subs.iter().filter_map(|&(_, r)| r) {
            self.table.track(rank);
        }
        let roster = RvMsg::Roster {
            world: self.world,
            members: members.clone(),
        };
        self.roster = Some(members);
        vec![Outgoing { to, msg: roster }, self.publish(seed)]
    }

    /// `Subscribe` from rank `rank`, or (`None`) an observer: answers with
    /// the current view at once (epoch 0 before the seal). A rank's new
    /// subscription replaces its old one and arms its detector if it is a
    /// member.
    pub(crate) fn subscribe(&mut self, from: ConnId, rank: Option<u32>) -> Vec<Outgoing> {
        if let Some(r) = rank {
            if r >= self.world {
                return Vec::new();
            }
            self.subs.retain(|&(_, s)| s != rank);
            self.table.track(r);
        }
        self.subs.push((from, rank));
        let view = self.table.current().clone();
        reply(from, RvMsg::View { view })
    }

    /// `Heartbeat`: records the pulse and acks it with the current epoch
    /// and suspect count, echoing `seq` and `nanos`.
    pub(crate) fn heartbeat(
        &mut self,
        from: ConnId,
        rank: u32,
        seq: u64,
        nanos: u64,
    ) -> Vec<Outgoing> {
        self.table.heartbeat(rank);
        let ack = RvMsg::HeartbeatAck {
            seq,
            nanos,
            view: self.table.current().id,
            suspects: self.table.suspects().len() as u32,
        };
        reply(from, ack)
    }

    /// `Leave`: ends the rank's subscription and publishes the leave view
    /// if it was a member. Nothing answers the leaver.
    pub(crate) fn leave(&mut self, rank: u32) -> Vec<Outgoing> {
        self.subs.retain(|&(_, s)| s != Some(rank));
        self.table
            .leave(rank)
            .map(|view| self.publish(view))
            .into_iter()
            .collect()
    }

    /// `Rejoin`: needs a sealed roster. Adopts the slot, points the roster
    /// at the newcomer and publishes the join view, then answers with the
    /// state replay. A repeated identical rejoin changes nothing and gets
    /// the same replay.
    pub(crate) fn rejoin(
        &mut self,
        from: ConnId,
        version: u32,
        world: u32,
        rank: u32,
        addr: &str,
        incarnation: u32,
    ) -> Vec<Outgoing> {
        let refusal = self.refusal(version, world, rank).or_else(|| {
            self.roster
                .is_none()
                .then(|| "world not yet assembled — rejoin needs a sealed roster".to_owned())
        });
        if let Some(reason) = refusal {
            return reply(from, RvMsg::Reject { reason });
        }
        let mut out = Vec::new();
        if let Some(view) = self.table.join(rank, addr, incarnation) {
            if let Some(slot) = self.roster.iter_mut().flatten().find(|(r, _)| *r == rank) {
                slot.1 = addr.to_owned();
            }
            out.push(self.publish(view));
        }
        let view = self.table.current().clone();
        out.push(Outgoing {
            to: vec![from],
            msg: RvMsg::Replay { view },
        });
        out
    }

    /// `Telemetry`: stashes the rank's snapshot (latest wins) and acks.
    pub(crate) fn telemetry(&mut self, from: ConnId, rank: u32, json: String) -> Vec<Outgoing> {
        self.telemetry.insert(rank, json);
        reply(from, RvMsg::TelemetryAck)
    }

    /// The failure-detector sweep: publishes the death view when members
    /// died, and ends the dead ranks' subscriptions.
    pub(crate) fn tick(&mut self) -> Vec<Outgoing> {
        let Some(view) = self.table.tick() else {
            return Vec::new();
        };
        self.subs
            .retain(|&(_, s)| !s.is_some_and(|r| view.dead.contains(&r)));
        vec![self.publish(view)]
    }

    fn publish(&self, view: View) -> Outgoing {
        Outgoing {
            to: self.subs.iter().map(|&(c, _)| c).collect(),
            msg: RvMsg::View { view },
        }
    }

    /// The current view (epoch 0, empty, before the seal).
    pub(crate) fn current(&self) -> &View {
        self.table.current()
    }

    /// Whether the roster has been sealed.
    pub(crate) fn roster_sealed(&self) -> bool {
        self.roster.is_some()
    }

    /// A member's failure-detector state (`None` when untracked).
    pub(crate) fn health(&self, rank: u32) -> Option<Health> {
        self.table.health(rank)
    }

    /// The telemetry snapshots pushed so far, keyed by rank.
    pub(crate) fn telemetry_snapshots(&self) -> &HashMap<u32, String> {
        &self.telemetry
    }
}

/// A view subscriber callback. A [`MembershipHub`] runs its sinks under
/// the hub's lock, on whichever thread called the hub — keep them quick,
/// and never call back into the hub from one.
pub type ViewSink = Arc<dyn Fn(&View) + Send + Sync>;

/// The in-process shell of the `MembershipService` — the service `ncsd`
/// runs — for worlds that share an address space (SIM backends, tests):
/// requests are explicit calls, subscribers are [`ViewSink`]s.
pub struct MembershipHub {
    world: u32,
    inner: parking_lot::Mutex<(MembershipService, Vec<ViewSink>)>,
}

/// The connection the hub's own requests come from: no sink's. Answers
/// addressed to it (acks, replays) go nowhere.
const HUB: ConnId = ConnId::MAX;

impl std::fmt::Debug for MembershipHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipHub")
            .field("view", self.inner.lock().0.current())
            .finish()
    }
}

impl MembershipHub {
    /// A hub for a world of `world` slots on `clock`.
    pub fn new(world: u32, cfg: MembershipConfig, clock: Arc<dyn Clock>) -> Self {
        MembershipHub {
            world,
            inner: parking_lot::Mutex::new((MembershipService::new(world, cfg, clock), Vec::new())),
        }
    }

    /// Registers every `(rank, addr)` of the bootstrap roster; once all
    /// `world` ranks are in, the roster seals and the seed view (epoch 1)
    /// is published.
    pub fn seed(&self, members: &[(u32, String)]) {
        for (rank, addr) in members {
            self.step(|s| s.register(HUB, PROTOCOL_VERSION, self.world, *rank, addr));
        }
    }

    /// Registers `sink` and immediately hands it the current view.
    pub fn subscribe(&self, sink: ViewSink) {
        let mut inner = self.inner.lock();
        let id = inner.1.len() as ConnId;
        inner.1.push(sink);
        let out = inner.0.subscribe(id, None);
        deliver(&inner.1, &out);
    }

    /// The current view.
    pub fn current(&self) -> View {
        self.inner.lock().0.current().clone()
    }

    /// Records a pulse (see [`MembershipTable::heartbeat`]).
    pub fn heartbeat(&self, rank: u32) -> Health {
        let mut inner = self.inner.lock();
        inner.0.heartbeat(HUB, rank, 0, 0);
        inner.0.health(rank).unwrap_or(Health::Dead)
    }

    /// Re-adopts a slot of the sealed roster (a `Rejoin`); publishes and
    /// returns the join view if membership changed.
    pub fn join(&self, rank: u32, addr: &str, incarnation: u32) -> Option<View> {
        self.step(|s| s.rejoin(HUB, PROTOCOL_VERSION, self.world, rank, addr, incarnation))
    }

    /// Graceful leave; publishes and returns the leave view on change.
    pub fn leave(&self, rank: u32) -> Option<View> {
        self.step(|s| s.leave(rank))
    }

    /// Failure-detector sweep; publishes and returns the death view when
    /// anyone died.
    pub fn tick(&self) -> Option<View> {
        self.step(MembershipService::tick)
    }

    /// Steps the service once and delivers what it published; returns the
    /// new view if the step changed the epoch.
    fn step(&self, f: impl FnOnce(&mut MembershipService) -> Vec<Outgoing>) -> Option<View> {
        let mut inner = self.inner.lock();
        let before = inner.0.current().id;
        let out = f(&mut inner.0);
        deliver(&inner.1, &out);
        let now = inner.0.current();
        (now.id != before).then(|| now.clone())
    }
}

/// Hands every view in `out` to the sinks it is addressed to.
fn deliver(sinks: &[ViewSink], out: &[Outgoing]) {
    for o in out {
        if let RvMsg::View { view } = &o.msg {
            for sink in o.to.iter().filter_map(|&id| sinks.get(id as usize)) {
                sink(view);
            }
        }
    }
}

/// The membership observability contract, registered per node so every
/// rank's telemetry dump carries its membership history.
#[derive(Debug, Clone)]
pub struct MembershipMetrics {
    /// `ncs_membership_view_epoch`: the latest view epoch applied.
    pub view_epoch: Gauge,
    /// `ncs_membership_heartbeat_rtt_us`: heartbeat round-trip times.
    pub heartbeat_rtt: Histogram,
    /// `ncs_membership_suspect_peers`: members currently suspected (as
    /// reported by the latest heartbeat ack).
    pub suspect_peers: Gauge,
    /// `ncs_membership_suspect_total`: suspicion onsets observed.
    pub suspect_total: Counter,
    /// `ncs_membership_dead_total`: members seen declared dead.
    pub dead_total: Counter,
}

impl MembershipMetrics {
    /// Registers the membership family on `registry`.
    pub fn register(registry: &Registry) -> Self {
        MembershipMetrics {
            view_epoch: registry.gauge(
                "ncs_membership_view_epoch",
                "latest membership view epoch applied by this rank",
                &[],
            ),
            heartbeat_rtt: registry.histogram(
                "ncs_membership_heartbeat_rtt_us",
                "membership heartbeat round-trip time (microseconds)",
                &[],
            ),
            suspect_peers: registry.gauge(
                "ncs_membership_suspect_peers",
                "members currently suspected by the failure detector",
                &[],
            ),
            suspect_total: registry.counter(
                "ncs_membership_suspect_total",
                "suspicion onsets reported by heartbeat acks",
                &[],
            ),
            dead_total: registry.counter(
                "ncs_membership_dead_total",
                "members this rank has seen declared dead",
                &[],
            ),
        }
    }

    /// Unregistered handles (benches, tests without a node).
    pub fn detached() -> Self {
        MembershipMetrics {
            view_epoch: Gauge::new(),
            heartbeat_rtt: Histogram::new(),
            suspect_peers: Gauge::new(),
            suspect_total: Counter::new(),
            dead_total: Counter::new(),
        }
    }

    /// Applies a received view to the gauges/counters.
    pub fn observe_view(&self, view: &View) {
        self.view_epoch.set(view.id as i64);
        self.dead_total.add(view.dead.len() as u64);
    }
}

/// How long a [`MemberAgent`] spends (re)dialling the service before
/// backing off for one heartbeat interval.
const AGENT_DIAL_BUDGET: Duration = Duration::from_secs(5);

/// One rank's membership client: a background OS thread that opens the
/// long-lived channel ([`RvMsg::Subscribe`]), pulses heartbeats every
/// [`MembershipConfig::heartbeat_interval`], feeds acks into the RTT
/// histogram, and delivers every received [`View`] — in epoch order — to
/// the rank's sink. Reconnects (and re-subscribes) if the channel drops.
pub struct MemberAgent {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MemberAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberAgent")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

impl MemberAgent {
    /// Starts the agent for `rank` (at `incarnation`) against the
    /// membership service at `ncsd`. Views arrive on `sink`, oldest
    /// first; metrics land in `metrics`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Transport`] when the initial dial fails outright.
    pub fn start(
        ncsd: SocketAddr,
        rank: u32,
        incarnation: u32,
        cfg: MembershipConfig,
        metrics: MembershipMetrics,
        sink: ViewSink,
    ) -> Result<MemberAgent, ClusterError> {
        cfg.validate()?;
        let conn = sci::connect_retry(ncsd, AGENT_DIAL_BUDGET)?;
        conn.send(&RvMsg::Subscribe { rank, incarnation }.encode())?;
        let stop = Arc::new(AtomicBool::new(false));
        let st = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("ncs-member-{rank}"))
            .spawn(move || {
                agent_loop(conn, ncsd, rank, incarnation, &cfg, &metrics, &sink, &st);
            })
            .expect("spawn member agent");
        Ok(MemberAgent {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the agent (joins its thread). Idempotent; called by `Drop`.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MemberAgent {
    fn drop(&mut self) {
        self.stop();
    }
}

#[allow(clippy::too_many_arguments)]
fn agent_loop(
    mut conn: sci::SciConnection,
    ncsd: SocketAddr,
    rank: u32,
    incarnation: u32,
    cfg: &MembershipConfig,
    metrics: &MembershipMetrics,
    sink: &ViewSink,
    stop: &AtomicBool,
) {
    let epoch = Instant::now();
    let mut seq: u64 = 0;
    let mut last_view: u64 = 0;
    let mut prev_suspects: u32 = 0;
    'session: loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        seq += 1;
        let pulse = RvMsg::Heartbeat {
            rank,
            seq,
            nanos: epoch.elapsed().as_nanos() as u64,
        };
        if conn.send(&pulse.encode()).is_err() {
            if reconnect(&mut conn, ncsd, rank, incarnation, cfg, stop) {
                continue 'session;
            }
            return;
        }
        // Drain acks and views until the next pulse is due.
        let next_pulse = Instant::now() + cfg.heartbeat_interval;
        loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            let Some(left) = next_pulse.checked_duration_since(Instant::now()) else {
                break;
            };
            match conn.recv_timeout(left) {
                Ok(frame) => {
                    let Ok(msg) = RvMsg::decode(&frame) else {
                        continue;
                    };
                    match msg {
                        RvMsg::HeartbeatAck {
                            nanos, suspects, ..
                        } => {
                            let rtt = epoch.elapsed().as_nanos() as u64 - nanos;
                            metrics.heartbeat_rtt.record(rtt / 1_000);
                            metrics.suspect_peers.set(i64::from(suspects));
                            if suspects > prev_suspects {
                                metrics
                                    .suspect_total
                                    .add(u64::from(suspects - prev_suspects));
                            }
                            prev_suspects = suspects;
                        }
                        RvMsg::View { view } if view.id > last_view => {
                            last_view = view.id;
                            metrics.observe_view(&view);
                            sink(&view);
                        }
                        _ => {}
                    }
                }
                Err(TransportError::Timeout) => break,
                Err(_) => {
                    if reconnect(&mut conn, ncsd, rank, incarnation, cfg, stop) {
                        continue 'session;
                    }
                    return;
                }
            }
        }
    }
}

/// Re-dials and re-subscribes after a dropped channel. Returns whether a
/// fresh session is up (false when stopping or the service is gone).
fn reconnect(
    conn: &mut sci::SciConnection,
    ncsd: SocketAddr,
    rank: u32,
    incarnation: u32,
    cfg: &MembershipConfig,
    stop: &AtomicBool,
) -> bool {
    if stop.load(Ordering::Acquire) {
        return false;
    }
    std::thread::sleep(cfg.heartbeat_interval);
    if stop.load(Ordering::Acquire) {
        return false;
    }
    let Ok(fresh) = sci::connect_retry(ncsd, AGENT_DIAL_BUDGET) else {
        return false;
    };
    if fresh
        .send(&RvMsg::Subscribe { rank, incarnation }.encode())
        .is_err()
    {
        return false;
    }
    *conn = fresh;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_core::VirtualClock;

    fn table(world: u32) -> (MembershipTable, Arc<VirtualClock>) {
        let clock = VirtualClock::shared();
        let t = MembershipTable::new(
            world,
            MembershipConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (t, clock)
    }

    fn seeded(world: u32) -> (MembershipTable, Arc<VirtualClock>) {
        let (mut t, c) = table(world);
        let members: Vec<(u32, String)> = (0..world)
            .map(|r| (r, format!("127.0.0.1:{}", 100 + r)))
            .collect();
        t.seed(&members);
        (t, c)
    }

    #[test]
    fn seed_produces_epoch_one_with_everyone_joined() {
        let (t, _) = seeded(4);
        let v = t.current();
        assert_eq!(v.id, 1);
        assert!(v.is_full());
        assert_eq!(v.joined, vec![0, 1, 2, 3]);
        assert_eq!(v.addr_of(2), Some("127.0.0.1:102".parse().unwrap()));
    }

    #[test]
    fn silence_progresses_alive_suspect_dead() {
        let (mut t, clock) = seeded(3);
        for r in 0..3 {
            t.track(r);
        }
        assert!(t.tick().is_none());
        // Ranks 0 and 1 keep pulsing; rank 2 goes silent.
        clock.advance(Duration::from_millis(300));
        t.heartbeat(0);
        t.heartbeat(1);
        clock.advance(Duration::from_millis(100));
        assert!(t.tick().is_none(), "suspicion must not bump the view");
        assert_eq!(t.health(2), Some(Health::Suspect));
        assert_eq!(t.suspects(), vec![2]);
        assert_eq!(t.suspect_events(), 1);
        clock.advance(Duration::from_millis(100));
        let v = t.tick().expect("death view");
        assert_eq!(v.id, 2);
        assert_eq!(v.dead, vec![2]);
        assert!(v.member(2).is_none());
        assert_eq!(t.health(2), Some(Health::Dead));
        // A dead member's late pulse is ignored.
        assert_eq!(t.heartbeat(2), Health::Dead);
        assert!(t.tick().is_none());
    }

    #[test]
    fn suspect_revives_on_late_pulse() {
        let (mut t, clock) = seeded(2);
        t.track(0);
        t.track(1);
        clock.advance(Duration::from_millis(400));
        t.heartbeat(0);
        assert!(t.tick().is_none());
        assert_eq!(t.health(1), Some(Health::Suspect));
        t.heartbeat(1);
        assert_eq!(t.health(1), Some(Health::Alive));
        assert!(t.suspects().is_empty());
    }

    #[test]
    fn rejoin_restores_the_slot_with_a_new_incarnation() {
        let (mut t, clock) = seeded(3);
        for r in 0..3 {
            t.track(r);
        }
        clock.advance(Duration::from_millis(500));
        t.heartbeat(0);
        t.heartbeat(1);
        let dead = t.tick().expect("death view");
        assert_eq!(dead.dead, vec![2]);
        // Same occupant re-offering itself is a change (it was dead).
        let joined = t.join(2, "127.0.0.1:999", 1).expect("join view");
        assert_eq!(joined.id, dead.id + 1);
        assert_eq!(joined.joined, vec![2]);
        assert!(joined.is_full());
        assert_eq!(joined.member(2).unwrap().incarnation, 1);
        assert_eq!(t.health(2), Some(Health::Alive));
        // Re-joining identically is a no-op.
        assert!(t.join(2, "127.0.0.1:999", 1).is_none());
        // Out-of-range slots are refused.
        assert!(t.join(7, "127.0.0.1:1", 0).is_none());
    }

    #[test]
    fn leave_removes_and_join_readds() {
        let (mut t, _) = seeded(2);
        let v = t.leave(1).expect("leave view");
        assert_eq!(v.left, vec![1]);
        assert_eq!(v.members.len(), 1);
        assert!(t.leave(1).is_none());
        let v = t.join(1, "127.0.0.1:200", 3).expect("join view");
        assert!(v.is_full());
    }

    #[test]
    fn hub_delivers_views_in_order_to_every_subscriber() {
        let clock = VirtualClock::shared();
        let hub = MembershipHub::new(
            2,
            MembershipConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        hub.seed(&[(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())]);
        let seen: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        hub.subscribe(Arc::new(move |v| s.lock().push(v.id)));
        hub.leave(1);
        hub.join(1, "127.0.0.1:3", 1);
        assert_eq!(*seen.lock(), vec![1, 2, 3]);
        // A late subscriber starts from the current epoch.
        let late: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l = Arc::clone(&late);
        hub.subscribe(Arc::new(move |v| l.lock().push(v.id)));
        assert_eq!(*late.lock(), vec![3]);
    }

    // -- the service, by hand: no sockets, no sleeps, virtual time --------

    fn service(world: u32) -> (MembershipService, Arc<VirtualClock>) {
        let clock = VirtualClock::shared();
        let s = MembershipService::new(
            world,
            MembershipConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (s, clock)
    }

    fn addr(rank: u32) -> String {
        format!("127.0.0.1:{}", 100 + rank)
    }

    /// A valid registration of `rank` arriving on connection `rank`.
    fn register(s: &mut MembershipService, rank: u32) -> Vec<Outgoing> {
        s.register(
            ConnId::from(rank),
            PROTOCOL_VERSION,
            s.world,
            rank,
            &addr(rank),
        )
    }

    fn sealed(world: u32) -> (MembershipService, Arc<VirtualClock>) {
        let (mut s, clock) = service(world);
        for r in 0..world {
            register(&mut s, r);
        }
        assert!(s.roster_sealed());
        (s, clock)
    }

    /// The one frame of `out`, which must go to `to` alone.
    fn answer(out: &[Outgoing], to: ConnId) -> RvMsg {
        match out {
            [o] if o.to == [to] => o.msg.clone(),
            other => panic!("expected one answer to {to}, got {other:?}"),
        }
    }

    fn reason(out: &[Outgoing], to: ConnId) -> String {
        match answer(out, to) {
            RvMsg::Reject { reason } => reason,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    /// The views `out` sends to `to`.
    fn views_to(out: &[Outgoing], to: ConnId) -> Vec<View> {
        out.iter()
            .filter(|o| o.to.contains(&to))
            .filter_map(|o| match &o.msg {
                RvMsg::View { view } => Some(view.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn service_refuses_bad_identities_with_their_reason() {
        let (mut s, _) = service(2);
        let v = PROTOCOL_VERSION;
        let a = addr(0);
        let refused = |s: &MembershipService, out: Vec<Outgoing>, why: &str| {
            assert!(reason(&out, 9).contains(why), "{out:?}");
            assert!(!s.roster_sealed());
        };
        let out = s.register(9, v + 1, 2, 0, &a);
        refused(&s, out, "protocol version");
        let out = s.register(9, v, 3, 0, &a);
        refused(&s, out, "world size 3");
        let out = s.register(9, v, 2, 2, &a);
        refused(&s, out, "rank 2 out of range");
        assert!(register(&mut s, 0).is_empty(), "held until the world is in");
        let out = s.register(9, v, 2, 0, &a);
        refused(&s, out, "duplicate rank 0");
        let out = s.rejoin(9, v, 2, 1, &a, 1);
        refused(&s, out, "not yet assembled");
        // The same checks guard a rejoin after the seal.
        register(&mut s, 1);
        assert!(reason(&s.rejoin(9, v + 1, 2, 1, &a, 1), 9).contains("protocol version"));
        assert!(reason(&s.rejoin(9, v, 3, 1, &a, 1), 9).contains("world size"));
        assert!(reason(&s.rejoin(9, v, 2, 7, &a, 1), 9).contains("out of range"));
    }

    #[test]
    fn the_seal_sends_the_roster_to_every_registrant_and_later_ones_at_once() {
        let (mut s, _) = service(2);
        assert!(register(&mut s, 1).is_empty());
        let out = register(&mut s, 0);
        let roster = RvMsg::Roster {
            world: 2,
            members: vec![(0, addr(0)), (1, addr(1))],
        };
        assert_eq!(out[0].to, vec![0, 1]);
        assert_eq!(out[0].msg, roster);
        // A re-registration after the seal (a restarted rank) is answered
        // with the roster, not held and not refused as a duplicate.
        assert_eq!(answer(&register(&mut s, 1), 1), roster);
    }

    #[test]
    fn a_rejoin_updates_the_roster_a_later_register_fetches() {
        let (mut s, _) = sealed(3);
        let fresh = "127.0.0.1:999";
        s.leave(2);
        let out = s.rejoin(7, PROTOCOL_VERSION, 3, 2, fresh, 1);
        let RvMsg::Replay { view } = answer(&out[out.len() - 1..], 7) else {
            panic!("{out:?}");
        };
        assert_eq!((view.id, view.joined.clone()), (3, vec![2]));
        assert!(view.is_full());
        match answer(&register(&mut s, 0), 0) {
            RvMsg::Roster { members, .. } => assert_eq!(members[2], (2, fresh.to_owned())),
            other => panic!("{other:?}"),
        }
        // The same rejoin again changes nothing and replays the same view.
        let again = s.rejoin(8, PROTOCOL_VERSION, 3, 2, fresh, 1);
        assert_eq!(answer(&again, 8), RvMsg::Replay { view });
        assert_eq!(s.current().id, 3);
    }

    #[test]
    fn an_early_subscriber_gets_the_seed_view_and_is_never_convicted_before_it() {
        let (mut s, clock) = service(2);
        // Rank 0 subscribes before the seal and then says nothing.
        let greeting = s.subscribe(50, Some(0));
        assert_eq!(views_to(&greeting, 50)[0].id, 0);
        s.subscribe(51, None);
        clock.advance(Duration::from_secs(3));
        assert!(s.tick().is_empty(), "a non-member died");
        assert_eq!(s.current().id, 0);
        register(&mut s, 0);
        let out = register(&mut s, 1);
        let seed = views_to(&out, 50);
        assert_eq!(seed.len(), 1);
        assert_eq!((seed[0].id, seed[0].joined.clone()), (1, vec![0, 1]));
        assert!(seed[0].is_full());
        // The seal armed rank 0: from now on its silence counts.
        assert_eq!(s.health(0), Some(Health::Alive));
        assert_eq!(s.health(1), None);
        clock.advance(Duration::from_millis(500));
        let out = s.tick();
        assert_eq!(out[0].to, vec![51], "the dead rank's subscription ended");
        assert_eq!(views_to(&out, 51)[0].dead, vec![0]);
    }

    #[test]
    fn leaves_and_deaths_end_the_rank_subscriptions_not_the_observers() {
        let (mut s, clock) = sealed(3);
        for (conn, rank) in [(10, Some(0)), (11, Some(1)), (12, Some(2)), (13, None)] {
            s.subscribe(conn, rank);
        }
        let out = s.leave(1);
        assert_eq!(out[0].to, vec![10, 12, 13], "the leaver is not told");
        assert_eq!(views_to(&out, 13)[0].left, vec![1]);
        // Rank 0 pulses; rank 2 stays silent and dies.
        clock.advance(Duration::from_millis(300));
        s.heartbeat(10, 0, 1, 0);
        clock.advance(Duration::from_millis(200));
        let out = s.tick();
        assert_eq!(out[0].to, vec![10, 13]);
        assert_eq!(views_to(&out, 10)[0].dead, vec![2]);
        let out = s.rejoin(20, PROTOCOL_VERSION, 3, 2, "127.0.0.1:7", 1);
        assert_eq!(
            out[0].to,
            vec![10, 13],
            "only live subscriptions hear the join"
        );
        // A rank subscribing again replaces its old subscription.
        s.subscribe(30, Some(0));
        assert_eq!(s.leave(2)[0].to, vec![13, 30]);
    }

    #[test]
    fn a_heartbeat_ack_carries_the_epoch_and_the_suspect_count() {
        let (mut s, clock) = sealed(3);
        for r in 0..3 {
            s.subscribe(u64::from(r), Some(r));
        }
        clock.advance(Duration::from_millis(400));
        s.tick();
        let ack = answer(&s.heartbeat(0, 0, 7, 1234), 0);
        assert_eq!(
            ack,
            RvMsg::HeartbeatAck {
                seq: 7,
                nanos: 1234,
                view: 1,
                suspects: 2,
            }
        );
    }

    #[test]
    fn telemetry_is_stashed_and_acknowledged() {
        let (mut s, _) = service(1);
        let out = s.handle(
            4,
            RvMsg::Telemetry {
                rank: 0,
                json: "{}".into(),
            },
        );
        assert_eq!(answer(&out, 4), RvMsg::TelemetryAck);
        assert_eq!(s.telemetry_snapshots()[&0], "{}");
        // Frames only the service sends are not requests.
        assert!(s.handle(4, RvMsg::TelemetryAck).is_empty());
    }

    #[test]
    fn config_validation_and_env_defaults() {
        assert!(MembershipConfig::default().validate().is_ok());
        assert!(MembershipConfig::fast().validate().is_ok());
        let bad = MembershipConfig {
            heartbeat_interval: Duration::from_millis(100),
            suspect_after: Duration::from_millis(50),
            dead_after: Duration::from_millis(60),
        };
        assert!(bad.validate().is_err());
    }
}
