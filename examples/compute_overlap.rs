//! Computation/communication overlap — the paper's central motivation for
//! the thread-based programming paradigm (§2), plus group communication:
//! a 4-member group multicasts partial results along a spanning tree and
//! synchronises with a tree barrier while every member keeps computing.
//!
//! Run with: `cargo run --example compute_overlap`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs::collectives::{MulticastAlgo, NcsGroup};
use ncs::core::link::HpiLinkPair;
use ncs::core::{ConnectionConfig, NcsNode};

const MEMBERS: usize = 4;
const ROUNDS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Full mesh of HPI links between four nodes.
    let nodes: Vec<NcsNode> = (0..MEMBERS)
        .map(|i| NcsNode::builder(&format!("rank{i}")).build())
        .collect();
    for i in 0..MEMBERS {
        for j in (i + 1)..MEMBERS {
            let (li, lj) = HpiLinkPair::create();
            nodes[i].attach_peer(&format!("rank{j}"), li);
            nodes[j].attach_peer(&format!("rank{i}"), lj);
        }
    }
    // Pairwise group connections (lower rank initiates).
    let mut conns: Vec<HashMap<usize, ncs::core::NcsConnection>> =
        (0..MEMBERS).map(|_| HashMap::new()).collect();
    for i in 0..MEMBERS {
        for j in (i + 1)..MEMBERS {
            let cij = nodes[i].connect(&format!("rank{j}"), ConnectionConfig::reliable())?;
            let cji = nodes[j].accept_default()?;
            conns[i].insert(j, cij);
            conns[j].insert(i, cji);
        }
    }
    let groups: Vec<Arc<NcsGroup>> = nodes
        .iter()
        .zip(conns)
        .enumerate()
        .map(|(rank, (node, links))| {
            Arc::new(
                NcsGroup::new(node, 7, rank, links, MulticastAlgo::SpanningTree).expect("group"),
            )
        })
        .collect();

    // Each member: per round, multicast its partial result (communication
    // handled by NCS threads) while immediately continuing to compute the
    // next partial — overlap in action — then barrier.
    let mut handles = Vec::new();
    for (rank, group) in groups.iter().enumerate() {
        let group = Arc::clone(group);
        handles.push(std::thread::spawn(move || {
            let mut total = 0u64;
            let mut compute_time = Duration::ZERO;
            let start = Instant::now();
            for round in 0..ROUNDS {
                // "Compute" a partial result.
                let t = Instant::now();
                let mut partial: u64 = 0;
                for x in 0..std::hint::black_box(200_000u64) {
                    partial =
                        std::hint::black_box(partial.wrapping_add(
                            x.wrapping_mul(rank as u64 + 1).wrapping_add(round as u64),
                        ));
                }
                compute_time += t.elapsed();
                // Multicast it (the runtime's threads take it from here)...
                group.multicast(&partial.to_be_bytes()).expect("multicast");
                total = total.wrapping_add(partial);
                // ...and immediately compute MORE while peers' results are
                // still in flight (the overlap the paper is about).
                let t = Instant::now();
                let mut extra: u64 = 0;
                for x in 0..std::hint::black_box(400_000u64) {
                    extra = std::hint::black_box(extra.wrapping_add(x));
                }
                std::hint::black_box(extra);
                compute_time += t.elapsed();
                // Collect the other members' partials for this round.
                for _ in 0..MEMBERS - 1 {
                    let (_, bytes) = group
                        .recv_timeout(Duration::from_secs(10))
                        .expect("partial");
                    total = total
                        .wrapping_add(u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")));
                }
                // Round barrier.
                group.barrier(Duration::from_secs(10)).expect("barrier");
            }
            (rank, total, compute_time, start.elapsed())
        }));
    }

    let mut totals = Vec::new();
    for h in handles {
        let (rank, total, compute, wall) = h.join().expect("member");
        println!(
            "rank{rank}: total {total:#018x}, computed {:.1?} of {:.1?} wall \
             ({:.0}% overlap-utilised)",
            compute,
            wall,
            100.0 * compute.as_secs_f64() / wall.as_secs_f64()
        );
        totals.push(total);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "all members must agree on the reduced total"
    );
    println!("\nall {MEMBERS} members agree after {ROUNDS} multicast+barrier rounds");

    for g in &groups {
        g.leave();
    }
    drop(groups);
    for n in &nodes {
        n.shutdown();
    }
    Ok(())
}
