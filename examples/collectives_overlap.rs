//! Compute/communication overlap with nonblocking collectives.
//!
//! Four NCS nodes form a collective group over HPI. Every member kicks
//! off a large `iallreduce` and immediately turns to local computation:
//! the node's event loops move and combine the data — the collective
//! advances on the thread that delivers each frame — while the
//! application thread crunches numbers, exactly the paper's
//! overlap thesis applied to group communication.
//!
//! Two things are reported per member:
//!
//! * **overlap proof** — how many compute chunks finished while the
//!   collective was still in flight ([`CollectiveHandle::test`] not yet
//!   true). Any non-zero count is computation that a blocking collective
//!   would have serialised behind the communication.
//! * **wall-clock comparison** — the same workload run blocking
//!   (communicate, then compute) and overlapped (submit, compute, wait).
//!   On a multi-core host the overlapped form approaches
//!   `max(compute, communicate)` per round instead of the sum; on a
//!   single hardware thread the two time-share and the chunk counter is
//!   the meaningful signal.
//!
//! Run with: `cargo run --release --example collectives_overlap`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs::collectives::{CollectiveGroup, ReduceOp};
use ncs::core::link::HpiLinkPair;
use ncs::core::{ConnectionConfig, NcsConnection, NcsNode};

const MEMBERS: usize = 4;
const ELEMS: usize = 256 * 1024; // 2 MiB of f64 per member
const ROUNDS: usize = 4;

/// Builds `n` nodes in a full HPI mesh and one collective group member per
/// node.
fn build_members(n: usize) -> Vec<(NcsNode, Arc<CollectiveGroup>)> {
    let nodes: Vec<NcsNode> = (0..n)
        .map(|i| NcsNode::builder(&format!("m{i}")).build())
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let (li, lj) = HpiLinkPair::with_capacity(4096);
            nodes[i].attach_peer(&format!("m{j}"), li);
            nodes[j].attach_peer(&format!("m{i}"), lj);
        }
    }
    let mut conns: Vec<HashMap<usize, NcsConnection>> = (0..n).map(|_| HashMap::new()).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let cij = nodes[i]
                .connect(&format!("m{j}"), ConnectionConfig::unreliable())
                .expect("connect");
            let cji = nodes[j].accept_default().expect("accept");
            conns[i].insert(j, cij);
            conns[j].insert(i, cji);
        }
    }
    nodes
        .into_iter()
        .zip(conns)
        .enumerate()
        .map(|(rank, (node, links))| {
            let group = Arc::new(CollectiveGroup::new(&node, 1, rank, links).expect("group"));
            (node, group)
        })
        .collect()
}

/// One compute chunk, sized around a millisecond.
fn compute_chunk(seed: f64) -> f64 {
    let mut acc = seed;
    for i in 0..40_000u64 {
        acc = (acc * 1.000000119).rem_euclid(10.0) + (i % 7) as f64 * 1e-9;
    }
    acc
}

/// The full per-round computation: `CHUNKS_PER_ROUND` chunks.
const CHUNKS_PER_ROUND: usize = 40;

struct MemberReport {
    rank: usize,
    blocking: Duration,
    overlapped: Duration,
    chunks_during_flight: usize,
}

fn main() {
    let members = build_members(MEMBERS);
    let contrib: Vec<f64> = (0..ELEMS).map(|i| (i % 100) as f64).collect();
    println!(
        "{MEMBERS} members, allreduce of {ELEMS} f64 ({} MiB) x {ROUNDS} rounds, \
         {CHUNKS_PER_ROUND} compute chunks per round",
        ELEMS * 8 / (1024 * 1024)
    );

    // Every member runs the same schedule on its own OS thread.
    let mut handles = Vec::new();
    for (rank, (_, group)) in members.iter().enumerate() {
        let group = Arc::clone(group);
        let contrib = contrib.clone();
        handles.push(std::thread::spawn(move || {
            let mut sink = 0.0;
            // -- Blocking: communicate, then compute. ---------------------
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                let sum = group
                    .allreduce(contrib.clone(), ReduceOp::Sum)
                    .expect("allreduce");
                assert_eq!(sum[0], 0.0);
                for _ in 0..CHUNKS_PER_ROUND {
                    sink += compute_chunk(sum[1]);
                }
            }
            let blocking = t0.elapsed();

            // -- Overlapped: submit, compute, then wait. ------------------
            let mut chunks_during_flight = 0;
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                let handle = group
                    .iallreduce(contrib.clone(), ReduceOp::Sum)
                    .expect("iallreduce");
                // The node's event loops are moving and combining vectors
                // right now; every chunk that completes before the handle
                // resolves is work a blocking call would have delayed.
                for _ in 0..CHUNKS_PER_ROUND {
                    if !handle.test() {
                        chunks_during_flight += 1;
                    }
                    sink += compute_chunk(1.0);
                }
                let sum = handle.wait().expect("wait");
                assert_eq!(sum[0], 0.0);
            }
            let overlapped = t0.elapsed();
            std::hint::black_box(sink);
            MemberReport {
                rank,
                blocking,
                overlapped,
                chunks_during_flight,
            }
        }));
    }

    let mut reports: Vec<MemberReport> = handles
        .into_iter()
        .map(|h| h.join().expect("member panicked"))
        .collect();
    reports.sort_by_key(|r| r.rank);
    for r in &reports {
        println!(
            "rank {}: blocking {:>7.1} ms   overlapped {:>7.1} ms   \
             {} chunks computed while collectives were in flight",
            r.rank,
            r.blocking.as_secs_f64() * 1e3,
            r.overlapped.as_secs_f64() * 1e3,
            r.chunks_during_flight,
        );
    }
    let total_overlapped: usize = reports.iter().map(|r| r.chunks_during_flight).sum();
    assert!(
        total_overlapped > 0,
        "no computation overlapped the collectives — the overlap machinery is broken"
    );
    println!(
        "\n{total_overlapped} compute chunks ran while allreduces were in flight — \
         work a blocking collective would have serialised behind the wire"
    );

    let (_, g0) = &members[0];
    println!("rank 0 engine: {:?}", g0.stats());
    for (node, group) in members {
        drop(group);
        node.shutdown();
    }
}
