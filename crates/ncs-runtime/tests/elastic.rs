//! Elastic-world end-to-end (the membership acceptance path): a 4-rank
//! world with membership enabled survives losing a rank mid-allreduce.
//! The survivors' in-flight collective fails fast with
//! [`CollectiveError::ViewChanged`] (no hang), a replacement process
//! rejoins the vacated slot with a bumped incarnation via state replay,
//! every survivor re-meshes to it, and the next allreduce completes over
//! the healed world.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ncs_collectives::{CollectiveError, ReduceOp};
use ncs_runtime::{
    ClusterConfig, ClusterNode, MemberAgent, MembershipConfig, MembershipMetrics, RendezvousServer,
};

/// Soft-realtime-friendly thresholds: quick enough that detection keeps
/// the test fast, lax enough that a stalled CI runner doesn't declare a
/// healthy rank dead.
fn cfg() -> MembershipConfig {
    MembershipConfig {
        heartbeat_interval: Duration::from_millis(50),
        suspect_after: Duration::from_millis(300),
        dead_after: Duration::from_millis(700),
    }
}

#[test]
fn world_heals_after_a_rank_dies_mid_allreduce() {
    let world = 4u32;
    let server = RendezvousServer::start_with("127.0.0.1:0", world, cfg()).expect("ncsd");
    let ncsd = server.addr();

    // Phase barriers: `alive` gates "round 1 done, everyone watching";
    // `healed` gates "replacement meshed, run the recovery round";
    // `done` (3 survivors + replacement + the main thread) holds the
    // healed world alive until main has inspected ncsd's view — ranks
    // that shut down stop heartbeating and would get themselves declared
    // dead before the assertion runs.
    let alive = Arc::new(Barrier::new(world as usize));
    let healed = Arc::new(Barrier::new(world as usize));
    let done = Arc::new(Barrier::new(world as usize + 1));
    // The dying rank parks its ClusterNode here so its sockets stay open
    // (a *silent* member, not a closed one — the failure detector, not a
    // connection error, must be what convicts it).
    let (morgue_tx, morgue_rx) = mpsc::channel::<ClusterNode>();

    let mut threads = Vec::new();
    for rank in 0..world {
        let alive = Arc::clone(&alive);
        let healed = Arc::clone(&healed);
        let done = Arc::clone(&done);
        let morgue_tx = morgue_tx.clone();
        threads.push(std::thread::spawn(move || {
            let node =
                ClusterNode::bootstrap(ClusterConfig::new(rank, world, ncsd)).expect("bootstrap");
            // Rank 2 heartbeats through a bare agent the test can silence
            // without touching the node; the survivors run the full
            // elastic machinery.
            let mut doomed_agent = None;
            if rank == 2 {
                doomed_agent = Some(
                    MemberAgent::start(
                        &node.reactor(),
                        ncsd,
                        rank,
                        0,
                        cfg(),
                        MembershipMetrics::detached(),
                        Arc::new(|_: &ncs_runtime::View| {}),
                    )
                    .expect("agent"),
                );
            } else {
                node.enable_membership_with(cfg()).expect("membership");
            }

            let g = node.collective_group(1).expect("group");
            if rank != 2 {
                node.watch_group(&g);
            }
            let sum = g
                .allreduce(vec![rank as f64], ReduceOp::Sum)
                .expect("round 1");
            assert_eq!(sum, vec![6.0]);
            alive.wait();

            if rank == 2 {
                // Go silent mid-world: heartbeats stop, sockets stay up.
                doomed_agent.take().unwrap().stop();
                g.close();
                morgue_tx.send(node).unwrap();
                return;
            }

            // Round 2 hangs on the silent rank until the death view lands
            // and aborts the watched group — typed, not a timeout.
            match g.allreduce(vec![rank as f64], ReduceOp::Sum) {
                Err(CollectiveError::ViewChanged { epoch }) => assert!(epoch >= 2, "{epoch}"),
                other => panic!("rank {rank} expected ViewChanged, got {other:?}"),
            }
            g.close();

            // Recovery: wait until the replacement (incarnation 1) has
            // joined and this rank's links have been re-meshed to it.
            let view = node
                .wait_view(
                    |v| v.is_full() && v.member(2).is_some_and(|m| m.incarnation == 1),
                    Duration::from_secs(20),
                )
                .expect("healed view");
            assert!(view.id >= 2, "{view:?}");
            assert!(node.connection(2).is_some(), "re-meshed link to slot 2");

            let g2 = node.collective_group(2).expect("recovery group");
            node.watch_group(&g2);
            healed.wait();
            let sum = g2
                .allreduce(vec![rank as f64], ReduceOp::Sum)
                .expect("recovery round");
            assert_eq!(sum, vec![6.0]);
            done.wait();
            done.wait();
            g2.close();
            node.shutdown();
        }));
    }
    drop(morgue_tx);

    // The replacement process: same slot, bumped incarnation, rejoin via
    // state replay instead of bootstrap.
    let replacement = {
        let healed = Arc::clone(&healed);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let corpse = morgue_rx.recv().expect("dead rank parked");
            let mut rc = ClusterConfig::new(2, world, ncsd);
            rc.incarnation = 1;
            let node = ClusterNode::rejoin(rc).expect("rejoin");
            assert_eq!(node.incarnation(), 1);
            let replayed = node.current_view().expect("replayed view");
            assert!(replayed.is_full(), "{replayed:?}");
            node.enable_membership_with(cfg()).expect("membership");

            let g2 = node.collective_group(2).expect("recovery group");
            healed.wait();
            let sum = g2
                .allreduce(vec![2.0f64], ReduceOp::Sum)
                .expect("recovery round");
            assert_eq!(sum, vec![6.0]);
            done.wait();
            done.wait();
            g2.close();
            node.shutdown();
            corpse.shutdown();
        })
    };

    // With the healed world still heartbeating, ncsd's view is full and
    // carries the replacement's incarnation.
    done.wait();
    let final_view = server.current_view().expect("server view");
    assert!(final_view.is_full(), "{final_view:?}");
    assert_eq!(final_view.member(2).unwrap().incarnation, 1);
    done.wait();

    for t in threads {
        t.join().expect("rank thread");
    }
    replacement.join().expect("replacement thread");
}
