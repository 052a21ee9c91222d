//! cluster_elastic — the elastic-world resilience demo (and CI's
//! `cluster-smoke` resilience test): a 4-rank multi-process world with
//! membership enabled survives losing a rank mid-allreduce.
//!
//! The script, across real OS processes:
//!
//! 1. All four ranks bootstrap through `ncsd`, enable membership, and
//!    complete a first allreduce.
//! 2. Rank 2 goes *silent* — its heartbeat agent stops while its sockets
//!    stay open — so the failure detector, not a connection error, is
//!    what convicts it. It then exits nonzero (the "crash").
//! 3. The survivors' in-flight round-2 allreduce fails fast with the
//!    typed [`CollectiveError::ViewChanged`] when the death view lands —
//!    no hang, no world error.
//! 4. The launcher (`--respawn-dead`, or this binary's self-launch mode)
//!    respawns the slot with a bumped `NCS_INCARNATION`; the replacement
//!    [`ClusterNode::rejoin`]s via `ncsd` state replay, every survivor
//!    re-meshes to it, and the healed world completes a recovery
//!    allreduce + barrier over a freshly built topology.
//!
//! Ways to run it:
//!
//! * under the launcher (what CI's `cluster-smoke` job does):
//!   `./target/release/ncs-launch --np 4 --respawn-dead -- \
//!        ./target/release/examples/cluster_elastic`
//! * directly: `cargo run --release --example cluster_elastic` (with no
//!   `NCS_RANK` in the environment the process becomes its own launcher,
//!   re-executing itself as 4 ranks with the respawn policy on).

use std::sync::Arc;
use std::time::Duration;

use ncs::collectives::{CollectiveError, ReduceOp};
use ncs::runtime::membership;
use ncs::runtime::{
    launch, ClusterConfig, ClusterNode, LaunchSpec, MemberAgent, MembershipConfig,
    MembershipMetrics, View,
};

const WORLD: u32 = 4;
/// The rank that dies mid-run (and rejoins as incarnation 1).
const DOOMED: u32 = 2;

/// Detector thresholds for the run: quick enough that the kill-and-heal
/// story fits in seconds, lax enough that a stalled CI runner doesn't
/// convict a healthy rank. Exported to the children (and the embedded
/// `ncsd`) by the self-launch path when the environment doesn't already
/// pin them — `MembershipConfig::from_env` picks them up everywhere.
const DETECTOR_ENV: [(&str, &str); 3] = [
    (membership::env::HEARTBEAT_MS, "100"),
    (membership::env::SUSPECT_MS, "600"),
    (membership::env::DEAD_MS, "1200"),
];

fn expected_sum() -> Vec<f64> {
    vec![(0..WORLD).map(f64::from).sum()]
}

/// A survivor's life: watch the group, ride out the death as a typed
/// `ViewChanged`, re-mesh, and finish the job over the healed world.
fn run_survivor(cfg: ClusterConfig) -> Result<(), Box<dyn std::error::Error>> {
    let rank = cfg.rank;
    let node = ClusterNode::bootstrap(cfg)?;
    node.enable_membership()?;
    println!("rank {rank}: up, membership enabled");

    let g1 = node.collective_group(1)?;
    node.watch_group(&g1);
    let sum = g1.allreduce(vec![f64::from(rank)], ReduceOp::Sum)?;
    assert_eq!(sum, expected_sum(), "round 1 disagreed");
    println!("rank {rank}: round 1 allreduce ok ({sum:?})");

    // Round 2 stalls on the silent rank until ncsd's death view aborts
    // the watched group — the typed fail-fast the membership plane owes
    // every in-flight collective.
    match g1.allreduce(vec![f64::from(rank)], ReduceOp::Sum) {
        Err(CollectiveError::ViewChanged { epoch }) => {
            println!("rank {rank}: round 2 aborted by view change (epoch {epoch})");
            assert!(epoch >= 2, "death view must bump the epoch: {epoch}");
        }
        other => return Err(format!("rank {rank}: expected ViewChanged, got {other:?}").into()),
    }
    g1.close();

    // Recovery: wait until the replacement incarnation has rejoined and
    // this rank has been re-meshed to it.
    let view = node.wait_view(
        |v| v.is_full() && v.member(DOOMED).is_some_and(|m| m.incarnation >= 1),
        Duration::from_secs(90),
    )?;
    println!(
        "rank {rank}: healed view {} ({} members)",
        view.id,
        view.members.len()
    );
    assert!(
        node.connection(DOOMED).is_some(),
        "rank {rank}: no re-meshed link to slot {DOOMED}"
    );

    let g2 = node.collective_group(2)?;
    node.watch_group(&g2);
    let sum = g2.allreduce(vec![f64::from(rank)], ReduceOp::Sum)?;
    assert_eq!(sum, expected_sum(), "recovery round disagreed");
    g2.barrier()?;
    println!("rank {rank}: recovery allreduce + barrier ok ({sum:?})");
    g2.close();
    node.shutdown();
    Ok(())
}

/// The doomed rank's first life: join round 1, then go silent (heartbeats
/// stop, sockets stay open) so the failure detector convicts it, and
/// finally crash out so the launcher's respawn policy revives the slot.
fn run_doomed(cfg: ClusterConfig) -> Result<(), Box<dyn std::error::Error>> {
    let mcfg = MembershipConfig::from_env();
    let ncsd = cfg.ncsd;
    let node = ClusterNode::bootstrap(cfg)?;
    // Heartbeat through a bare agent this process can silence without
    // tearing the node down: the sockets must outlive the heartbeats.
    let mut agent = MemberAgent::start(
        &node.reactor(),
        ncsd,
        DOOMED,
        0,
        mcfg.clone(),
        MembershipMetrics::detached(),
        Arc::new(|_: &View| {}),
    )?;

    let g1 = node.collective_group(1)?;
    let sum = g1.allreduce(vec![f64::from(DOOMED)], ReduceOp::Sum)?;
    assert_eq!(sum, expected_sum(), "round 1 disagreed");
    println!("rank {DOOMED}: round 1 allreduce ok — going silent");
    g1.close();
    agent.stop();

    // Stay resident (sockets open) until the detector has declared this
    // rank dead and the survivors have seen the view: the margin is
    // generous because nothing downstream races it — survivors sit in
    // `wait_view` until the replacement arrives.
    std::thread::sleep(mcfg.dead_after + 10 * mcfg.heartbeat_interval + Duration::from_secs(1));
    println!("rank {DOOMED}: crashing (exit 3)");
    std::process::exit(3);
}

/// The replacement's life: rejoin the vacated slot via state replay and
/// run the recovery round with the survivors.
fn run_replacement(cfg: ClusterConfig) -> Result<(), Box<dyn std::error::Error>> {
    let incarnation = cfg.incarnation;
    let node = ClusterNode::rejoin(cfg)?;
    let replayed = node.current_view().ok_or("no replayed view")?;
    assert!(replayed.is_full(), "replayed view not full: {replayed:?}");
    node.enable_membership()?;
    println!(
        "rank {DOOMED}: rejoined as incarnation {incarnation} (replayed view {})",
        replayed.id
    );

    let g2 = node.collective_group(2)?;
    let sum = g2.allreduce(vec![f64::from(DOOMED)], ReduceOp::Sum)?;
    assert_eq!(sum, expected_sum(), "recovery round disagreed");
    g2.barrier()?;
    println!("rank {DOOMED}: recovery allreduce + barrier ok ({sum:?})");
    g2.close();
    node.shutdown();
    Ok(())
}

fn run_rank() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ClusterConfig::from_env()?;
    if cfg.rank != DOOMED {
        run_survivor(cfg)
    } else if cfg.incarnation == 0 {
        run_doomed(cfg)
    } else {
        run_replacement(cfg)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::var("NCS_RANK").is_ok() {
        return run_rank();
    }
    // No rank identity: act as the launcher (exactly what `ncs-launch
    // --np 4 --respawn-dead -- <this binary>` does), pinning the
    // detector thresholds for the whole world unless the caller already
    // chose their own.
    for (key, value) in DETECTOR_ENV {
        if std::env::var_os(key).is_none() {
            std::env::set_var(key, value);
        }
    }
    let me = std::env::current_exe()?;
    println!(
        "launching {WORLD} ranks of {} (respawn-dead on)",
        me.display()
    );
    let report = launch(&LaunchSpec {
        respawn_dead: true,
        ..LaunchSpec::new(WORLD, vec![me.to_string_lossy().into_owned()])
    })?;
    for e in &report.exits {
        println!("rank {} -> {:?}", e.rank, e.code);
    }
    if !report.success() {
        return Err(format!("elastic cluster run failed: {report:?}").into());
    }
    println!("world healed: all {WORLD} ranks completed");
    Ok(())
}
