//! The simulation backend, both halves (see `docs/SIMULATION.md`):
//!
//! 1. **`SimWorld`** — the deterministic discrete-event engine runs a
//!    256-rank partition-and-heal scenario: a bidirectional link cut
//!    strands the allreduce mid-tree, ARQ retransmissions carry it over
//!    the heal, and a second run of the same seed reproduces the event
//!    trace byte-for-byte.
//! 2. **`SimSession`** — the real stack (full `NcsNode`s, the actual
//!    collectives engine) meshed over the simulated SIM fabric on a
//!    shared virtual clock: a live allreduce + barrier over simulated
//!    LAN latency, then a per-peer link cut that eats a message until
//!    the link heals.
//!
//! Run with: `cargo run --release --example sim_chaos`

use std::time::Duration;

use ncs::collectives::ReduceOp;
use ncs::transport::sim::LinkPolicy;
use ncs::{Scenario, Session, SimWorld, SimWorldBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- part 1: the discrete-event engine at scale -------------------
    let scenario = Scenario::partition_heal(256, 42);
    println!(
        "SimWorld: scenario '{}', {} ranks, seed {}",
        scenario.name, scenario.ranks, scenario.seed
    );
    let report = SimWorld::new(scenario.clone()).run();
    for op in &report.ops {
        println!(
            "  {:<14} {} in {:?} (virtual){}",
            op.op,
            if op.completed { "completed" } else { "FAILED" },
            op.elapsed,
            op.result
                .map(|v| format!(", value {v}"))
                .unwrap_or_default(),
        );
    }
    println!(
        "  {} events, {:?} virtual time total",
        report.events_processed, report.virtual_elapsed
    );
    assert!(report.all_completed(), "partition-heal should recover");

    // Same seed, second run: the determinism contract says byte-identical.
    let replay = SimWorld::new(scenario).run();
    assert_eq!(report.trace, replay.trace, "trace diverged across replays");
    assert_eq!(
        report.telemetry_json, replay.telemetry_json,
        "telemetry diverged across replays"
    );
    println!("  replay of seed 42 is byte-identical: determinism holds");

    // --- part 2: the real stack over the simulated fabric -------------
    let sessions = SimWorldBuilder::new(4, 7)
        .policy(LinkPolicy::lan())
        .build()?;
    println!("\nSimSession: 4 real nodes over a simulated LAN fabric");
    let net = sessions[0].net().clone();

    let workers: Vec<_> = sessions
        .into_iter()
        .map(|session| {
            std::thread::spawn(move || -> Result<(), String> {
                let rank = session.rank();
                // Dedicated channel for the chaos demo, established before
                // the collectives engine takes over the bootstrap links.
                let p2p = match rank {
                    0 => Some(
                        session
                            .connect(1, ncs::core::ConnectionConfig::unreliable())
                            .map_err(|e| e.to_string())?,
                    ),
                    1 => Some(
                        session
                            .accept(Duration::from_secs(30))
                            .map_err(|e| e.to_string())?,
                    ),
                    _ => None,
                };
                let group = session.collective_group(1).map_err(|e| e.to_string())?;
                let sum = group
                    .allreduce(vec![rank as f64], ReduceOp::Sum)
                    .map_err(|e| e.to_string())?;
                assert_eq!(sum, vec![6.0], "allreduce disagreed");
                group.barrier().map_err(|e| e.to_string())?;
                if rank == 0 {
                    println!("  allreduce sum {sum:?}, barrier done");
                }

                // Per-peer chaos: rank 0 cuts its link to rank 1, sends
                // into the void, heals, sends again. Rank 1 only ever
                // sees the post-heal message.
                match (rank, &p2p) {
                    (0, Some(conn)) => {
                        let drops = session.net().dropped();
                        session.set_peer_up(1, false);
                        conn.send(b"lost to the cut").map_err(|e| e.to_string())?;
                        // The reactor flushes asynchronously: wait for the
                        // fabric to actually eat the frame before healing.
                        while session.net().dropped() == drops {
                            std::thread::yield_now();
                        }
                        session.set_peer_up(1, true);
                        conn.send(b"after the heal").map_err(|e| e.to_string())?;
                    }
                    (1, Some(conn)) => {
                        let msg = conn
                            .recv_timeout(Duration::from_secs(30))
                            .map_err(|e| e.to_string())?;
                        assert_eq!(&*msg, b"after the heal", "cut frame leaked through");
                        println!("  rank 1 after the cut-and-heal: \"after the heal\" arrived");
                    }
                    _ => {}
                }
                // Everyone regroups before teardown so the post-heal
                // frame lands before rank 0 closes its side.
                group.barrier().map_err(|e| e.to_string())?;
                session.shutdown();
                Ok(())
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked")?;
    }
    println!(
        "  fabric: {} frames delivered, {} dropped by the cut",
        net.delivered(),
        net.dropped()
    );
    Ok(())
}
