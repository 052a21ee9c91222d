//! One machine, three shells: the same operation must put the same frames
//! on the wire whether the collective machine runs bare (one thread, frames
//! handed over in a loop), under `CollectiveGroup`'s runner on a
//! `LocalWorld` or a `SimSession` world, or inside `SimWorld`'s event loop.
//! A second implementation of any schedule would show here as a count that
//! differs.

use std::collections::VecDeque;
use std::time::Duration;

use ncs_collectives::machine::{Machine, Op, Output, Spec};
use ncs_collectives::{
    CollectiveGroup, CollectiveStats, DType, Encoder, OpClass, ReduceOp, Topology, TopologyPolicy,
};
use ncs_core::BufPool;
use ncs_runtime::sim::SimOp;
use ncs_runtime::{LocalWorld, Scenario, Session, SimWorld, SimWorldBuilder};

const GROUP: u32 = 7;
const TIMEOUT: Duration = Duration::from_secs(30);

/// The operations compared, for a world of `n`.
fn cases(n: usize) -> Vec<SimOp> {
    let timeout = TIMEOUT;
    let broadcasts = (0..n as u32).map(|root| SimOp::Broadcast { root, timeout });
    broadcasts
        .chain([
            SimOp::Reduce { root: 0, timeout },
            SimOp::Allreduce { timeout },
            SimOp::Barrier { timeout },
        ])
        .collect()
}

/// `(frames, bytes)` every rank sends when `n` bare machines run `case` on
/// one-`u64` payloads under the default policy.
fn bare(case: &SimOp, n: usize) -> Vec<(u64, u64)> {
    let select = |class| TopologyPolicy::default().select(class, n, 8);
    let (op, root, topo, topo2) = match *case {
        SimOp::Broadcast { root, .. } => {
            let topo = select(OpClass::Broadcast);
            (Op::Broadcast { len: 8 }, root as usize, topo, topo)
        }
        SimOp::Reduce { root, .. } => {
            let topo = select(OpClass::Reduce);
            (
                Op::Reduce(DType::U64, ReduceOp::Sum),
                root as usize,
                topo,
                topo,
            )
        }
        SimOp::Allreduce { .. } => (
            Op::Allreduce(DType::U64, ReduceOp::Sum),
            0,
            select(OpClass::Reduce),
            select(OpClass::Broadcast),
        ),
        _ => (Op::Barrier, 0, Topology::Flat, Topology::Flat),
    };
    let spec = Spec {
        op,
        root,
        topo,
        topo2,
    };
    let enc = Encoder::new(BufPool::new(), GROUP, 32 * 1024);
    let mut machines: Vec<Machine> = (0..n).map(|r| Machine::new(enc.clone(), r, n)).collect();
    let mut sent = vec![(0, 0); n];
    let mut wire = VecDeque::new();
    let mut done = 0;
    let mut poll = |machines: &mut [Machine], wire: &mut VecDeque<_>, r: usize| {
        machines[r].poll(Duration::ZERO, &mut |out| {
            match out {
                Output::Send { to, frames } => {
                    sent[r].0 += frames.len() as u64;
                    sent[r].1 += frames.iter().map(|f| f.len() as u64).sum::<u64>();
                    wire.extend(frames.iter().map(|f| (r, to, f.to_vec())));
                }
                Output::Done { result, .. } => {
                    result.expect("bare machine completes");
                    done += 1;
                }
                Output::Delivered { .. } => unreachable!("no multicast here"),
            }
            Ok(())
        });
    };
    for (r, m) in machines.iter_mut().enumerate() {
        let payload = match op {
            Op::Broadcast { .. } if r != root => Vec::new(),
            Op::Barrier => Vec::new(),
            _ => (r as u64).to_le_bytes().to_vec(),
        };
        m.submit(0, spec, payload, TIMEOUT);
    }
    (0..n).for_each(|r| poll(&mut machines, &mut wire, r));
    while let Some((from, to, frame)) = wire.pop_front() {
        machines[to].on_frame(from, frame);
        poll(&mut machines, &mut wire, to);
    }
    assert_eq!(done, n, "{case:?} on {n}");
    sent
}

/// `(frames, bytes)` this member's engine sent while running `case`.
fn through_engine(group: &CollectiveGroup, rank: u64, case: &SimOp) -> (u64, u64) {
    let before: CollectiveStats = group.stats();
    match *case {
        SimOp::Broadcast { root, .. } => {
            group
                .broadcast(root as usize, vec![rank])
                .expect("broadcast");
        }
        SimOp::Reduce { root, .. } => {
            group
                .reduce(root as usize, vec![rank], ReduceOp::Sum)
                .expect("reduce");
        }
        SimOp::Allreduce { .. } => {
            group
                .allreduce(vec![rank], ReduceOp::Sum)
                .expect("allreduce");
        }
        _ => group.barrier().expect("barrier"),
    }
    let after = group.stats();
    (
        after.frames_sent - before.frames_sent,
        after.bytes_sent - before.bytes_sent,
    )
}

/// Runs every case on a live world, one thread per member: per case, the
/// per-rank `(frames, bytes)`.
fn on_world<S: Session + Send + 'static>(world: Vec<S>) -> Vec<Vec<(u64, u64)>> {
    let n = world.len();
    let members: Vec<_> = world
        .into_iter()
        .map(|s| {
            std::thread::spawn(move || {
                let group = s.collective_group(GROUP).expect("group");
                let sent: Vec<(u64, u64)> = cases(n)
                    .iter()
                    .map(|case| through_engine(&group, u64::from(s.rank()), case))
                    .collect();
                // Nobody tears its links down under a slower member.
                group.barrier().expect("closing barrier");
                drop(group);
                s.shutdown();
                sent
            })
        })
        .collect();
    let per_rank: Vec<Vec<(u64, u64)>> = members
        .into_iter()
        .map(|m| m.join().expect("member"))
        .collect();
    (0..cases(n).len())
        .map(|case| per_rank.iter().map(|sent| sent[case]).collect())
        .collect()
}

#[test]
fn all_three_shells_put_the_same_frames_on_the_wire() {
    for n in [2usize, 3, 4, 5, 8] {
        let local = on_world(LocalWorld::create(n as u32).expect("local world"));
        let sim = on_world(
            SimWorldBuilder::new(n as u32, 11)
                .build()
                .expect("sim session world"),
        );
        for (i, case) in cases(n).iter().enumerate() {
            let bare = bare(case, n);
            assert_eq!(local[i], bare, "LocalWorld, {case:?} on {n}");
            assert_eq!(sim[i], bare, "SimSession, {case:?} on {n}");
            let mut scenario = Scenario::new("differential", n as u32, 3);
            scenario.ops = vec![case.clone()];
            let mut world = SimWorld::new(scenario);
            assert!(world.run().all_completed(), "SimWorld, {case:?} on {n}");
            let counted = world.registry().counter("sim_messages_sent_total", "", &[]);
            let frames: u64 = bare.iter().map(|sent| sent.0).sum();
            assert_eq!(counted.get(), frames, "SimWorld, {case:?} on {n}");
        }
    }
}
