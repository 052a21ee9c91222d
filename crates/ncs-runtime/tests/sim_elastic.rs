//! Deterministic kill-and-heal over the `SimSession` backend: the real
//! protocol stack (nodes, collectives engine, SIM fabric) joined with a
//! [`MembershipHub`] failure detector driven on a [`VirtualClock`] of its
//! own. Because every membership transition is an explicit call and
//! detector time is virtual, the *entire* view sequence and
//! every collective result replay identically run after run — the
//! determinism check the elastic-membership acceptance demands.
//!
//! The timeline mirrors `tests/elastic.rs`'s socket-world test: rank 2
//! goes silent mid-allreduce, the survivors' in-flight op fails fast
//! with [`CollectiveError::ViewChanged`] (never a hang), a replacement
//! with a bumped incarnation joins the slot, and the healed world's
//! next allreduce completes.

use std::sync::Arc;
use std::time::Duration;

use ncs_collectives::{CollectiveError, ReduceOp, ViewAbortHandle};
use ncs_core::{Clock, VirtualClock};
use ncs_runtime::{MembershipConfig, MembershipHub, Session, SimWorldBuilder, View};

type Log = Arc<parking_lot::Mutex<Vec<String>>>;
type Watched = Arc<parking_lot::Mutex<Vec<ViewAbortHandle>>>;

fn render(v: &View) -> String {
    format!(
        "id={} members={:?} joined={:?} left={:?} dead={:?}",
        v.id,
        v.members
            .iter()
            .map(|m| (m.rank, m.incarnation))
            .collect::<Vec<_>>(),
        v.joined,
        v.left,
        v.dead
    )
}

/// One full kill-and-heal pass; returns (view log, event/result log) for
/// the determinism comparison.
fn run_once(seed: u64) -> (Vec<String>, Vec<String>) {
    let world = 3u32;
    let cfg = MembershipConfig::fast();
    let sessions = SimWorldBuilder::new(world, seed)
        .build()
        .expect("sim world");
    let clock = VirtualClock::shared();
    let hub = MembershipHub::new(world, cfg.clone(), Arc::clone(&clock) as Arc<dyn Clock>);

    let views: Log = Log::default();
    // Groups watched for view-change fail-fast: the hub's sink plays the
    // role `ClusterNode::watch_group` plays in the socket world.
    let watched: Watched = Watched::default();
    {
        let views = Arc::clone(&views);
        let watched = Arc::clone(&watched);
        hub.subscribe(Arc::new(move |v: &View| {
            views.lock().push(render(v));
            for h in watched.lock().iter() {
                h.abort(v.id);
            }
        }));
    }
    hub.seed(&[
        (0, "sim:0".to_owned()),
        (1, "sim:1".to_owned()),
        (2, "sim:2".to_owned()),
    ]);
    for r in 0..world {
        assert_eq!(hub.heartbeat(r), ncs_runtime::Health::Alive);
    }
    assert!(hub.tick().is_none(), "everyone just pulsed");

    let mut results = Vec::new();

    // Round 1: the full world sums its ranks.
    let mut sums = std::thread::scope(|scope| {
        let hs: Vec<_> = sessions
            .iter()
            .map(|s| {
                scope.spawn(move || {
                    let g = s.collective_group(1).expect("group 1");
                    let sum = g
                        .allreduce(vec![f64::from(s.rank())], ReduceOp::Sum)
                        .expect("round 1");
                    g.close();
                    sum[0]
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect::<Vec<f64>>()
    });
    results.push(format!("round1 {sums:?}"));

    // Round 2: rank 2 is dead — it never enters the op and never pulses
    // again. The survivors' allreduce stalls on its contribution until
    // the death view aborts the watched groups.
    std::thread::scope(|scope| {
        let hs: Vec<_> = sessions[..2]
            .iter()
            .map(|s| {
                let watched = Arc::clone(&watched);
                scope.spawn(move || {
                    let g = s.collective_group(2).expect("group 2");
                    watched.lock().push(g.view_abort_handle());
                    let res = g.allreduce(vec![f64::from(s.rank())], ReduceOp::Sum);
                    g.close();
                    res
                })
            })
            .collect();

        // Wait for both survivors to be watching, give their op a moment
        // to be genuinely in flight (real-time pacing; affects nothing
        // the determinism check compares), then fast-forward virtual
        // time past the detector's death threshold.
        while watched.lock().len() < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        clock.advance_to(clock.now() + cfg.dead_after + cfg.heartbeat_interval);
        hub.heartbeat(0);
        hub.heartbeat(1);
        let dead = hub.tick().expect("death view");
        assert_eq!(dead.dead, vec![2], "{dead:?}");
        assert!(dead.member(2).is_none());

        for (rank, h) in hs.into_iter().enumerate() {
            match h.join().expect("survivor thread") {
                Err(CollectiveError::ViewChanged { epoch }) => {
                    results.push(format!("round2 rank{rank} ViewChanged epoch={epoch}"));
                }
                other => panic!("rank {rank}: expected ViewChanged, got {other:?}"),
            }
        }
    });
    watched.lock().clear();

    // Heal: a replacement adopts slot 2 with a bumped incarnation.
    let joined = hub.join(2, "sim:2", 1).expect("rejoin view");
    assert!(joined.is_full(), "{joined:?}");
    assert_eq!(joined.member(2).unwrap().incarnation, 1);

    // Round 3: the healed world completes the next allreduce; stale
    // group-2 frames parked at rank 2's node are dropped by the group-id
    // filter, not mistaken for group-3 traffic.
    sums = std::thread::scope(|scope| {
        let hs: Vec<_> = sessions
            .iter()
            .map(|s| {
                scope.spawn(move || {
                    let g = s.collective_group(3).expect("group 3");
                    let sum = g
                        .allreduce(vec![f64::from(s.rank())], ReduceOp::Sum)
                        .expect("recovery round");
                    g.close();
                    sum[0]
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect::<Vec<f64>>()
    });
    results.push(format!("round3 {sums:?}"));

    for s in &sessions {
        s.shutdown();
    }
    let seen = views.lock().clone();
    (seen, results)
}

#[test]
fn sim_session_kill_and_heal_is_deterministic() {
    let (views_a, results_a) = run_once(0xE1A5);

    // The world's story, in epoch order: seed, death, rejoin.
    assert_eq!(results_a[0], "round1 [3.0, 3.0, 3.0]");
    assert_eq!(results_a[1], "round2 rank0 ViewChanged epoch=2");
    assert_eq!(results_a[2], "round2 rank1 ViewChanged epoch=2");
    assert_eq!(results_a[3], "round3 [3.0, 3.0, 3.0]");
    assert!(
        views_a.iter().any(|v| v.contains("dead=[2]")),
        "{views_a:?}"
    );
    assert!(
        views_a.iter().any(|v| v.contains("joined=[2]")),
        "{views_a:?}"
    );
    assert_eq!(
        views_a.last().unwrap(),
        "id=3 members=[(0, 0), (1, 0), (2, 1)] joined=[2] left=[] dead=[]"
    );

    // Determinism: the same seed replays the identical view sequence and
    // the identical results, byte for byte.
    let (views_b, results_b) = run_once(0xE1A5);
    assert_eq!(views_a, views_b, "view sequences diverged across runs");
    assert_eq!(results_a, results_b, "results diverged across runs");
}
