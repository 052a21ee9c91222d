//! End-to-end tests of the simulation backend: the determinism contract,
//! the chaos-scenario matrix, the thousand-rank wall-time bound, and the
//! real-stack `SimSession` backend.

use std::time::{Duration, Instant};

use ncs_collectives::ReduceOp;
use ncs_obs::json::{self, Json};
use ncs_runtime::sim::{ChaosEvent, ChaosKind, Scenario, SimOp, SimWorldBuilder};
use ncs_runtime::{Session, SimWorld};
use ncs_transport::sim::LinkPolicy;

/// The core determinism contract: the same seeded scenario, run twice,
/// produces a byte-identical event trace and equal telemetry counters.
#[test]
fn same_seed_identical_trace_and_telemetry() {
    for preset in [
        "clean-allreduce",
        "partition-heal",
        "asymmetric-loss",
        "flapping-peer",
        "kill-heal",
    ] {
        let a = SimWorld::new(Scenario::preset(preset, 96, 0xDECAF).unwrap()).run();
        let b = SimWorld::new(Scenario::preset(preset, 96, 0xDECAF).unwrap()).run();
        assert_eq!(a.trace, b.trace, "{preset}: trace diverged across runs");
        assert_eq!(
            a.telemetry_json, b.telemetry_json,
            "{preset}: telemetry diverged across runs"
        );
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.virtual_elapsed, b.virtual_elapsed);
    }
}

/// Poor man's proptest: sweep seeds over a small world; every seed must
/// be self-consistent (run twice → identical) and the lossy collectives
/// must still converge.
#[test]
fn determinism_holds_across_a_seed_sweep() {
    for seed in 0..24u64 {
        let a = SimWorld::new(Scenario::asymmetric_loss(17, seed)).run();
        let b = SimWorld::new(Scenario::asymmetric_loss(17, seed)).run();
        assert_eq!(a.trace, b.trace, "seed {seed} not deterministic");
        assert!(a.all_completed(), "seed {seed}: {:?}", a.ops);
        assert_eq!(a.ops[0].result, Some(17 * 16 / 2), "seed {seed}");
    }
}

/// The partition heals mid-op and retransmission carries the allreduce
/// across: completion, correct sum, drops and retries both non-zero.
#[test]
fn partition_and_heal_completes_with_retransmissions() {
    let report = SimWorld::new(Scenario::partition_heal(64, 7)).run();
    assert!(report.all_completed(), "{:?}", report.ops);
    assert_eq!(report.ops[1].result, Some(64 * 63 / 2));
    let registry = counter(&report.telemetry_json, "sim_messages_dropped_total");
    assert!(registry > 0, "partition should have dropped frames");
}

/// 10 % one-directional loss: the world completes and the retransmission
/// counter shows the ARQ earned its keep.
#[test]
fn asymmetric_loss_retransmits_to_completion() {
    let report = SimWorld::new(Scenario::asymmetric_loss(128, 3)).run();
    assert!(report.all_completed(), "{:?}", report.ops);
    assert!(
        counter(&report.telemetry_json, "sim_retransmissions_total") > 0,
        "10% loss over 127 links must retransmit at least once"
    );
}

/// A flapping peer (rank 1 isolated/reconnected on a 10 ms cadence)
/// delays but does not defeat the collective.
#[test]
fn flapping_peer_delays_but_completes() {
    let report = SimWorld::new(Scenario::flapping_peer(32, 11)).run();
    assert!(report.all_completed(), "{:?}", report.ops);
    assert!(
        counter(&report.telemetry_json, "sim_chaos_events_total") == 10,
        "all 5 flap cycles should have fired"
    );
}

/// The kill-heal preset end to end: the degraded allreduce fail-fasts
/// at its (expected) deadline, the victim revives, and the healed world
/// completes the full sum — the SimWorld half of the elastic-membership
/// acceptance story.
#[test]
fn kill_heal_preset_recovers_the_world() {
    let report = SimWorld::new(Scenario::kill_heal(64, 9)).run();
    assert!(report.passed(), "{:?}", report.ops);
    assert!(
        !report.all_completed(),
        "op 1 must fail while rank 2 is dead"
    );
    assert!(!report.ops[1].completed);
    assert!(report.ops[1].failed_ranks.contains(&0), "root never summed");
    assert!(report.ops[3].completed, "healed allreduce must complete");
    assert_eq!(report.ops[3].result, Some(64 * 63 / 2));
    assert!(report.ops[4].completed, "healed barrier must complete");
}

/// A killed rank fails the barrier at its virtual-time deadline —
/// fail-fast with the failed ranks named, not a hang.
#[test]
fn killed_rank_fails_fast() {
    let mut s = Scenario::new("kill", 16, 1);
    s.events = vec![ChaosEvent {
        at: Duration::from_micros(1),
        kind: ChaosKind::KillRank { rank: 3 },
    }];
    s.ops = vec![
        SimOp::Advance {
            by: Duration::from_millis(1),
        },
        SimOp::Allreduce {
            timeout: Duration::from_millis(100),
        },
    ];
    let report = SimWorld::new(s).run();
    assert!(!report.ops[1].completed);
    assert!(report.ops[1].failed_ranks.contains(&0), "root never summed");
    assert_eq!(report.ops[1].elapsed, Duration::from_millis(100));
}

/// The ISSUE acceptance bound: a 1,000-rank world completes allreduce +
/// barrier under virtual time in well under 60 s of wall time.
#[test]
fn thousand_rank_allreduce_and_barrier_within_wall_bound() {
    let started = Instant::now();
    let report = SimWorld::new(Scenario::clean_allreduce(1000, 2026)).run();
    let wall = started.elapsed();
    assert!(report.all_completed(), "{:?}", report.ops);
    assert_eq!(report.ops[0].result, Some(1000 * 999 / 2));
    assert!(
        wall < Duration::from_secs(60),
        "1000-rank scenario took {wall:?}"
    );
    // Virtual time tells the physical story: microsecond links, so the
    // whole thing is milliseconds of virtual time.
    assert!(report.virtual_elapsed < Duration::from_secs(1));
}

/// Ten-thousand ranks is the stretch goal: still bounded, still summed.
#[test]
fn ten_thousand_rank_broadcast_is_tractable() {
    let mut s = Scenario::new("10k", 10_000, 1);
    s.ops = vec![SimOp::Broadcast {
        root: 0,
        timeout: Duration::from_secs(30),
    }];
    let started = Instant::now();
    let report = SimWorld::new(s).run();
    assert!(report.all_completed(), "{:?}", report.ops);
    assert!(started.elapsed() < Duration::from_secs(60));
}

/// `SimSession` is a real `Session`: real nodes, real collectives
/// engine, SIM fabric. The fabric keeps no thread: while the world runs,
/// the process holds no thread of its making beside the reactor's shards
/// and the four ranks.
#[test]
fn sim_session_runs_real_collectives_over_the_sim_fabric() {
    let sessions = SimWorldBuilder::new(4, 77)
        .policy(LinkPolicy::ideal())
        .build()
        .expect("build sim world");
    assert_eq!(sessions.len(), 4);
    let me = std::fs::read_to_string("/proc/thread-self/comm").ok();
    let handles: Vec<_> = sessions
        .into_iter()
        .map(|s| {
            let me = me.clone();
            let name = format!("sim-rank-{}", s.rank());
            let rank = move || {
                assert_eq!(s.world_size(), 4);
                let group = s.collective_group(9).expect("group");
                let sum = group
                    .allreduce(vec![f64::from(s.rank())], ReduceOp::Sum)
                    .expect("allreduce");
                group.barrier().expect("barrier");
                if let (0, Some(me)) = (s.rank(), me) {
                    let beside = threads_of_this_world(me.trim_end());
                    assert!(beside.is_empty(), "threads beside the shards: {beside:?}");
                }
                assert!(s.net().delivered() > 0);
                group.barrier().expect("barrier");
                s.shutdown();
                sum[0]
            };
            std::thread::Builder::new()
                .name(name)
                .spawn(rank)
                .expect("spawn")
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("rank thread"), 6.0);
    }
}

/// The threads of this process, by name, that a world built on the test
/// thread named `me` started beside its reactor's shards and its four
/// `sim-rank-*` threads. A thread takes its starter's name unless it is
/// given one, so a thread that test or those ranks started shows as a
/// second `me` or a fifth rank; the test harness's threads (the main
/// thread, and those named after the tests of this file) are left out.
fn threads_of_this_world(me: &str) -> Vec<String> {
    let main = std::process::id().to_string();
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| t.ok().filter(|t| t.file_name() != *main))
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|name| !name.starts_with("ncs-reactor-"))
        .collect();
    let rank = |n: &str| n.starts_with("sim-rank-");
    let harness = |n: &str| include_str!("sim_world.rs").contains(&format!("fn {n}"));
    let mut beside: Vec<String> = names
        .iter()
        .filter(|n| *n != me && !rank(n) && !harness(n))
        .cloned()
        .collect();
    let mine = names.iter().filter(|n| *n == me).count();
    let ranks = names.iter().filter(|n| rank(n)).count();
    if (mine, ranks) != (1, 4) {
        beside.push(format!("{mine} named {me} and {ranks} sim-rank-*"));
    }
    beside
}

/// Point-to-point over `SimSession`: connect/accept beyond the bootstrap
/// mesh, with payload crossing the simulated wire.
#[test]
fn sim_session_connect_accept_and_send() {
    let mut sessions = SimWorldBuilder::new(2, 5).build().expect("build");
    let b = sessions.pop().unwrap();
    let a = sessions.pop().unwrap();
    let t = std::thread::spawn(move || {
        let conn = b.accept(Duration::from_secs(10)).expect("accept");
        let got = conn.recv_timeout(Duration::from_secs(10)).expect("recv");
        b.shutdown();
        got
    });
    let conn = a
        .connect(1, ncs_core::ConnectionConfig::unreliable())
        .expect("connect");
    conn.send(b"over the sim fabric").expect("send");
    let got = t.join().expect("peer thread");
    assert_eq!(got, b"over the sim fabric");
    a.shutdown();
}

/// Reads a counter family's (single, unlabelled) value out of the
/// rendered telemetry JSON.
fn counter(telemetry_json: &str, name: &str) -> u64 {
    let families = json::parse(telemetry_json).expect("telemetry parses");
    families
        .as_arr()
        .expect("an array of families")
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|f| f.get("series")?.as_arr()?.first()?.get("value")?.as_num())
        .unwrap_or_else(|| panic!("{name} missing from telemetry")) as u64
}
