//! Property tests for the membership plane: overlapping join / leave /
//! death events — applied concurrently from several driver threads —
//! must leave **every** subscriber holding the same final view, under
//! both thread packages. A second property pins sequential determinism:
//! the same event list replayed on a fresh hub reproduces the identical
//! view sequence. A plain test pins the detector's timing on virtual
//! time: when a silent member is declared dead; a third property holds
//! the deadline `ncsd` sweeps at, [`MembershipTable::next_due`].
//!
//! The drivers deliberately race: each one owns an interleaved slice of
//! the event list, detector time lives on a shared [`VirtualClock`] any
//! driver may advance, and a fourth subscriber registers *mid-run*. The
//! hub publishes every view to every registered sink, so whatever the
//! interleaving, the highest-epoch view each sink saw must be the hub's
//! final view — subscribers may disagree about the journey, never about
//! the destination.

use std::sync::Arc;
use std::time::Duration;

use ncs_core::{Clock, VirtualClock};
use ncs_runtime::{Health, MembershipConfig, MembershipHub, MembershipTable, View};
use ncs_threads::{
    KernelPackage, SwitchMech, ThreadPackage, ThreadPackageExt, UserConfig, UserRuntime,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One membership event. Target ranks are drawn from a fixed domain and
/// folded into the drawn world size with `rank % world` at apply time
/// (the vendored proptest has no `prop_flat_map` for dependent draws).
/// `Kill` silences a rank and sweeps the detector after advancing
/// virtual time past `dead_after` — with the other drivers not pulsing,
/// a sweep may convict bystanders too, which only adds to the overlap
/// the property is about.
#[derive(Clone, Copy, Debug)]
enum Ev {
    Join(u32, u32),
    Leave(u32),
    Kill(u32),
    Pulse,
}

/// Upper bound of the rank domain events draw from (>= the largest
/// world size, so `rank % world` stays close to uniform).
const RANK_DOMAIN: u32 = 6;

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0..RANK_DOMAIN, 1u32..8).prop_map(|(r, i)| Ev::Join(r, i)),
        (0..RANK_DOMAIN).prop_map(Ev::Leave),
        (0..RANK_DOMAIN).prop_map(Ev::Kill),
        Just(Ev::Pulse),
    ]
}

fn render(v: &View) -> String {
    format!(
        "id={} members={:?} joined={:?} left={:?} dead={:?}",
        v.id,
        v.members
            .iter()
            .map(|m| (m.rank, m.addr.clone(), m.incarnation))
            .collect::<Vec<_>>(),
        v.joined,
        v.left,
        v.dead
    )
}

fn apply(hub: &MembershipHub, clock: &VirtualClock, cfg: &MembershipConfig, world: u32, ev: Ev) {
    match ev {
        Ev::Join(r, inc) => {
            let r = r % world;
            hub.join(r, &format!("prop:{r}.{inc}"), inc);
        }
        Ev::Leave(r) => {
            hub.leave(r % world);
        }
        Ev::Kill(r) => {
            hub.heartbeat(r % world);
            clock.advance(cfg.dead_after + cfg.heartbeat_interval);
            hub.tick();
        }
        Ev::Pulse => {
            for r in 0..world {
                hub.heartbeat(r);
            }
            clock.advance(Duration::from_nanos(
                u64::try_from(cfg.heartbeat_interval.as_nanos() / 2).unwrap_or(1),
            ));
            hub.tick();
        }
    }
}

type Seen = Arc<parking_lot::Mutex<Vec<View>>>;

fn watch(hub: &MembershipHub, seen: &Seen) {
    let seen = Arc::clone(seen);
    hub.subscribe(Arc::new(move |v: &View| seen.lock().push(v.clone())));
}

/// The concurrent-convergence property for one thread package.
fn check_convergence(
    pkg: &Arc<dyn ThreadPackage>,
    world: u32,
    events: &[Ev],
) -> Result<(), TestCaseError> {
    const DRIVERS: usize = 3;
    let cfg = MembershipConfig::fast();
    let clock = Arc::new(VirtualClock::new());
    let hub = Arc::new(MembershipHub::new(
        world,
        cfg.clone(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));

    let subs: Vec<Seen> = (0..3).map(|_| Seen::default()).collect();
    for s in &subs {
        watch(&hub, s);
    }
    let roster: Vec<(u32, String)> = (0..world).map(|r| (r, format!("prop:{r}.0"))).collect();
    hub.seed(&roster);
    for r in 0..world {
        hub.heartbeat(r);
    }

    // Driver d applies events d, d+3, d+6, ... — overlap comes from the
    // threads, not from any per-driver partitioning of meaning. Driver 0
    // also registers the mid-run subscriber after its first event.
    let late: Seen = Seen::default();
    let handles: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let evs: Vec<Ev> = events.iter().copied().skip(d).step_by(DRIVERS).collect();
            let hub = Arc::clone(&hub);
            let clock = Arc::clone(&clock);
            let cfg = cfg.clone();
            let late = Arc::clone(&late);
            pkg.spawn_typed(&format!("driver-{d}"), move || {
                for (i, ev) in evs.into_iter().enumerate() {
                    if d == 0 && i == 1 {
                        watch(&hub, &late);
                    }
                    apply(&hub, &clock, &cfg, world, ev);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("driver thread");
    }

    // Settling event: a membership change no earlier event can have
    // produced, so its view is published to every sink registered at any
    // point of the run — including the mid-run one.
    hub.join(0, "prop:settle", u32::MAX)
        .expect("settling join must change membership");
    let fin = render(&hub.current());

    let mut id_sets: Vec<Vec<u64>> = Vec::new();
    for s in &subs {
        let seen = s.lock().clone();
        let last = seen
            .iter()
            .max_by_key(|v| v.id)
            .expect("subscriber saw no views");
        prop_assert_eq!(
            render(last),
            fin.clone(),
            "an up-front subscriber's highest-epoch view is not the final view"
        );
        let mut ids: Vec<u64> = seen.iter().map(|v| v.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(
            ids.len(),
            seen.len(),
            "a subscriber saw the same view epoch twice"
        );
        id_sets.push(ids);
    }
    for pair in id_sets.windows(2) {
        prop_assert_eq!(
            &pair[0],
            &pair[1],
            "up-front subscribers disagree on which views were published"
        );
    }
    let late_seen = late.lock().clone();
    if let Some(last) = late_seen.iter().max_by_key(|v| v.id) {
        prop_assert_eq!(
            render(last),
            fin,
            "the mid-run subscriber's highest-epoch view is not the final view"
        );
    }
    Ok(())
}

fn kernel_pkg() -> Arc<dyn ThreadPackage> {
    Arc::new(KernelPackage::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlapping join/leave/death events from racing drivers converge
    /// to the same final view on every subscriber — kernel and
    /// user-level thread packages alike.
    #[test]
    fn overlapping_events_converge_on_every_subscriber(
        world in 2u32..6,
        events in proptest::collection::vec(ev_strategy(), 1..30)
    ) {
        check_convergence(&kernel_pkg(), world, &events)?;
        let evs = events.clone();
        UserRuntime::new(UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        })
        .run(move |pkg| {
            let pkg: Arc<dyn ThreadPackage> = Arc::new(pkg);
            check_convergence(&pkg, world, &evs)
        })?;
    }

    /// The hub is a deterministic state machine: the same event list on
    /// a fresh hub replays the identical view sequence, and view epochs
    /// at a subscriber are strictly increasing.
    #[test]
    fn sequential_replay_is_deterministic(
        world in 2u32..6,
        events in proptest::collection::vec(ev_strategy(), 1..30)
    ) {
        let run = |events: &[Ev]| {
            let cfg = MembershipConfig::fast();
            let clock = Arc::new(VirtualClock::new());
            let hub = MembershipHub::new(world, cfg.clone(), Arc::clone(&clock) as Arc<dyn Clock>);
            let seen: Seen = Seen::default();
            watch(&hub, &seen);
            let roster: Vec<(u32, String)> =
                (0..world).map(|r| (r, format!("prop:{r}.0"))).collect();
            hub.seed(&roster);
            for r in 0..world {
                hub.heartbeat(r);
            }
            for ev in events {
                apply(&hub, &clock, &cfg, world, *ev);
            }
            let log = seen.lock().clone();
            log.iter().map(render).collect::<Vec<String>>()
        };
        let a = run(&events);
        let b = run(&events);
        prop_assert_eq!(&a, &b, "same events, different view sequence");
        // Epochs strictly increase at the sink (the subscribe-time view
        // is id 0; the seed view is 1; every change bumps by one).
        for pair in a.windows(2) {
            let id = |s: &str| -> u64 {
                s.strip_prefix("id=").unwrap().split(' ').next().unwrap().parse().unwrap()
            };
            prop_assert!(id(&pair[0]) < id(&pair[1]), "epoch went backwards: {} then {}", pair[0], pair[1]);
        }
    }
}

/// The failure detector on virtual time, swept at a fixed pace (every
/// quarter heartbeat interval, between 5 and 100 ms: how `ncsd` swept
/// before it swept at `next_due`) while ranks 0 and 1
/// pulse once an interval and rank 2 stays silent from t = 0. Rank 2 is
/// declared dead by the first sweep at or past `dead_after`, never
/// before, and that sweep lands within three heartbeat intervals under
/// the default tuning and a 100 ms one.
#[test]
fn a_silent_member_dies_at_the_first_sweep_past_dead_after() {
    let tunings = [
        MembershipConfig::default(),
        MembershipConfig {
            heartbeat_interval: Duration::from_millis(100),
            suspect_after: Duration::from_millis(150),
            dead_after: Duration::from_millis(200),
        },
    ];
    for cfg in tunings {
        let clock = Arc::new(VirtualClock::new());
        let hub = MembershipHub::new(3, cfg.clone(), Arc::clone(&clock) as Arc<dyn Clock>);
        let seen = Seen::default();
        watch(&hub, &seen);
        hub.seed(&(0..3).map(|r| (r, format!("det:{r}"))).collect::<Vec<_>>());
        for r in 0..3 {
            hub.heartbeat(r);
        }
        let sweep = (cfg.heartbeat_interval / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(100));
        let mut next_pulse = cfg.heartbeat_interval;
        let died_at = loop {
            let now = clock.advance(sweep);
            if now >= next_pulse {
                hub.heartbeat(0);
                hub.heartbeat(1);
                next_pulse += cfg.heartbeat_interval;
            }
            if let Some(view) = hub.tick() {
                assert_eq!(view.dead, vec![2], "{}", render(&view));
                break now;
            }
        };
        assert!(
            died_at >= cfg.dead_after && died_at < cfg.dead_after + sweep,
            "{cfg:?}: declared dead after {died_at:?} of silence"
        );
        assert!(
            died_at <= 3 * cfg.heartbeat_interval,
            "{cfg:?}: detection took {died_at:?}"
        );
        let last = seen.lock().last().cloned().expect("views");
        assert_eq!(last.dead, vec![2], "the sink missed the death view");
    }
}

/// One detector on virtual time, swept only at [`MembershipTable::next_due`]
/// (and at `probes`, each before it) while rank `r` pulses every
/// heartbeat interval until `stops[r]` milliseconds, then falls silent.
fn check_next_due(
    cfg: &MembershipConfig,
    world: u32,
    stops: &[u64],
    probes: &[u64],
) -> Result<(), TestCaseError> {
    let clock = Arc::new(VirtualClock::new());
    let mut table = MembershipTable::new(world, cfg.clone(), Arc::clone(&clock) as Arc<dyn Clock>);
    table.seed(
        &(0..world)
            .map(|r| (r, format!("due:{r}")))
            .collect::<Vec<_>>(),
    );
    (0..world).for_each(|r| table.track(r));
    let health = |t: &MembershipTable| (0..world).map(|r| t.health(r)).collect::<Vec<_>>();
    let mut last_pulse = vec![Duration::ZERO; world as usize];
    let mut pulses: Vec<(Duration, u32)> = (0..world)
        .flat_map(|r| {
            let stop = Duration::from_millis(stops[r as usize]);
            (1..)
                .map(move |k| (cfg.heartbeat_interval * k, r))
                .take_while(move |&(at, _)| at < stop)
        })
        .collect();
    pulses.sort_unstable();
    let mut pulses = pulses.into_iter().peekable();
    let mut probes: Vec<Duration> = probes.iter().map(|&ms| Duration::from_millis(ms)).collect();
    probes.sort_unstable();
    let mut probes = probes.into_iter().peekable();
    loop {
        let due = table.next_due();
        let next_pulse = pulses.peek().map(|&(at, _)| at);
        let before = |at: Duration| due.is_none_or(|due| at < due);
        if let Some(at) = probes.next_if(|&at| before(at) && next_pulse.is_none_or(|p| at <= p)) {
            // A sweep before the deadline changes nothing.
            clock.advance_to(at);
            let was = health(&table);
            prop_assert!(
                table.tick().is_none(),
                "a sweep at {:?} before {:?} convicted",
                at,
                due
            );
            prop_assert_eq!(health(&table), was, "a sweep at {:?} before {:?}", at, due);
        } else if let Some((at, rank)) = pulses.next_if(|&(at, _)| before(at)) {
            clock.advance_to(at);
            if table.heartbeat(rank) == Health::Alive {
                last_pulse[rank as usize] = at;
            }
        } else if let Some(due) = due {
            // The sweep at the deadline moves someone, each on its
            // threshold to the instant.
            clock.advance_to(due);
            let was = health(&table);
            table.tick();
            let now = health(&table);
            prop_assert_ne!(&now, &was, "the sweep at {:?} changed nothing", due);
            for r in 0..world as usize {
                let silence = due - last_pulse[r];
                match (was[r], now[r]) {
                    (a, b) if a == b => {}
                    (Some(Health::Alive), Some(Health::Suspect)) => {
                        prop_assert_eq!(silence, cfg.suspect_after, "rank {} suspected", r);
                    }
                    (Some(Health::Suspect), Some(Health::Dead)) => {
                        prop_assert_eq!(silence, cfg.dead_after, "rank {} convicted", r);
                    }
                    (a, b) => prop_assert!(false, "rank {}: {:?} -> {:?} at {:?}", r, a, b, due),
                }
            }
        } else {
            break;
        }
    }
    // Every rank fell silent, so every rank was convicted.
    prop_assert!(health(&table).iter().all(|h| *h == Some(Health::Dead)));
    prop_assert!(table.current().members.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A detector swept only at `next_due` suspects a member at exactly
    /// `suspect_after` of silence and convicts it at exactly `dead_after`,
    /// every sweep there moves somebody, and no sweep before it changes
    /// any member's health — whatever the thresholds and whenever each
    /// rank falls silent.
    #[test]
    fn a_detector_swept_at_next_due_moves_each_member_on_its_thresholds(
        world in 1u32..=RANK_DOMAIN,
        heartbeat_ms in 5u64..200,
        suspect_ms in 1u64..200,
        dead_ms in 1u64..200,
        stops in proptest::collection::vec(0u64..2_000, RANK_DOMAIN as usize),
        probes in proptest::collection::vec(0u64..3_000, 0..24)
    ) {
        let heartbeat_interval = Duration::from_millis(heartbeat_ms);
        let suspect_after = heartbeat_interval + Duration::from_millis(suspect_ms);
        let cfg = MembershipConfig {
            heartbeat_interval,
            suspect_after,
            dead_after: suspect_after + Duration::from_millis(dead_ms),
        };
        check_next_due(&cfg, world, &stops, &probes)?;
    }
}
