//! The paper-named group services ([`NcsGroup`]): multicast by repetitive
//! send and along a spanning tree, the barrier, what the façade owes its
//! callers when a link under it dies, and what a node's shutdown does to
//! a group still held.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_collectives::{
    CollectiveError, CollectiveGroup, GroupError, MulticastAlgo, NcsGroup, ReduceOp,
};
use ncs_core::link::HpiLinkPair;
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode};

/// `n` nodes in a full mesh over HPI, with one group connection per pair.
fn mesh(n: usize) -> (Vec<NcsNode>, Vec<HashMap<usize, NcsConnection>>) {
    let nodes: Vec<NcsNode> = (0..n)
        .map(|i| NcsNode::builder(&format!("n{i}")).build())
        .collect();
    // Full mesh of links.
    for i in 0..n {
        for j in (i + 1)..n {
            let (li, lj) = HpiLinkPair::with_capacity(1024);
            nodes[i].attach_peer(&format!("n{j}"), li);
            nodes[j].attach_peer(&format!("n{i}"), lj);
        }
    }
    // Pairwise group connections: lower rank initiates.
    let mut conns: Vec<HashMap<usize, NcsConnection>> = (0..n).map(|_| HashMap::new()).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let cij = nodes[i]
                .connect(&format!("n{j}"), ConnectionConfig::reliable())
                .unwrap();
            let cji = nodes[j].accept_default().unwrap();
            conns[i].insert(j, cij);
            conns[j].insert(i, cji);
        }
    }
    (nodes, conns)
}

/// Builds `n` meshed nodes and one group per node.
fn build_group(n: usize, algo: MulticastAlgo) -> Vec<(NcsNode, Arc<NcsGroup>)> {
    let (nodes, conns) = mesh(n);
    nodes
        .into_iter()
        .zip(conns)
        .enumerate()
        .map(|(rank, (node, links))| {
            let group = Arc::new(NcsGroup::new(&node, 1, rank, links, algo).unwrap());
            (node, group)
        })
        .collect()
}

#[test]
fn repetitive_multicast_reaches_all() {
    let members = build_group(4, MulticastAlgo::Repetitive);
    members[0].1.multicast(b"to everyone").unwrap();
    for (rank, (_, g)) in members.iter().enumerate().skip(1) {
        let (origin, data) = g.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(origin, 0, "rank {rank}");
        assert_eq!(data, b"to everyone");
    }
    for (n, g) in &members {
        g.leave();
        n.shutdown();
    }
}

#[test]
fn spanning_tree_multicast_reaches_all_from_any_origin() {
    let members = build_group(5, MulticastAlgo::SpanningTree);
    for origin in 0..members.len() {
        let body = format!("from {origin}");
        members[origin].1.multicast(body.as_bytes()).unwrap();
        for (rank, (_, g)) in members.iter().enumerate() {
            if rank == origin {
                continue;
            }
            let (o, data) = g.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(o, origin, "receiver {rank}");
            assert_eq!(data, body.as_bytes());
        }
    }
    for (n, g) in &members {
        g.leave();
        n.shutdown();
    }
}

#[test]
fn barrier_synchronises_members() {
    let members = build_group(4, MulticastAlgo::SpanningTree);
    let flag = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let mut handles = Vec::new();
    for (i, (_, g)) in members.iter().enumerate() {
        let g = Arc::clone(g);
        let flag = Arc::clone(&flag);
        handles.push(std::thread::spawn(move || {
            // Stagger arrivals.
            std::thread::sleep(Duration::from_millis(10 * i as u64));
            flag.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            g.barrier(Duration::from_secs(10)).unwrap();
            // After the barrier everyone must have arrived.
            assert_eq!(flag.load(std::sync::atomic::Ordering::SeqCst), 4);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for (n, g) in &members {
        g.leave();
        n.shutdown();
    }
}

#[test]
fn repeated_barriers() {
    let members = build_group(3, MulticastAlgo::SpanningTree);
    for _round in 0..5 {
        let mut handles = Vec::new();
        for (_, g) in &members {
            let g = Arc::clone(g);
            handles.push(std::thread::spawn(move || {
                g.barrier(Duration::from_secs(10)).unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
    for (n, g) in &members {
        g.leave();
        n.shutdown();
    }
}

#[test]
fn overlapping_barrier_epochs_from_concurrent_threads() {
    // Two threads per member run interleaved barrier rounds on the SAME
    // group. Every member enters six barriers in all; the group serialises
    // them, and whichever thread's call is k-th on one member pairs with
    // the k-th call on the others.
    let members = build_group(3, MulticastAlgo::SpanningTree);
    let mut handles = Vec::new();
    for (_, g) in &members {
        for t in 0..2 {
            let g = Arc::clone(g);
            handles.push(std::thread::spawn(move || {
                for round in 0..3 {
                    g.barrier(Duration::from_secs(20))
                        .unwrap_or_else(|e| panic!("thread {t} round {round}: {e}"));
                }
            }));
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    for (n, g) in &members {
        g.leave();
        n.shutdown();
    }
}

#[test]
fn group_membership_validation() {
    let node = NcsNode::builder("x").build();
    let err = NcsGroup::new(&node, 1, 0, HashMap::new(), MulticastAlgo::Repetitive);
    // A singleton group is valid (size 1, no links needed).
    assert!(err.is_ok());
    node.shutdown();
}

/// Regression: the old listener discarded a failed forward, so the child's
/// whole subtree never heard the multicast and nobody was told. In the
/// tree rooted at rank 0 of five, rank 3 relays to rank 4.
#[test]
fn relay_that_cannot_forward_tells_its_member() {
    let (nodes, conns) = mesh(5);
    let cut = conns[3][&4].clone();
    let members: Vec<(NcsNode, NcsGroup)> = nodes
        .into_iter()
        .zip(conns)
        .enumerate()
        .map(|(rank, (node, links))| {
            let group = NcsGroup::new(&node, 1, rank, links, MulticastAlgo::SpanningTree).unwrap();
            (node, group)
        })
        .collect();
    cut.close();
    members[0].1.multicast(b"who hears this").unwrap();
    for rank in [1, 2] {
        let (origin, data) = members[rank]
            .1
            .recv_timeout(Duration::from_secs(10))
            .unwrap();
        assert_eq!((origin, &data[..]), (0, &b"who hears this"[..]));
    }
    // Rank 3 could not serve its subtree: it is told instead of handed
    // the payload as if all were well, and every further call says so.
    let inner = &members[3].1;
    let first = inner.recv_timeout(Duration::from_secs(10)).map(drop);
    assert!(matches!(first, Err(GroupError::Send(_))), "{first:?}");
    for result in [
        inner.multicast(b"more"),
        inner.recv_timeout(Duration::from_millis(10)).map(drop),
        inner.barrier(Duration::from_millis(10)),
    ] {
        assert!(matches!(result, Err(GroupError::Send(_))), "{result:?}");
    }
    for (n, g) in &members {
        g.leave();
        n.shutdown();
    }
}

/// The group's protocol work is reactor work: no thread of its own, where
/// each member used to park `size - 1` listeners.
#[test]
#[cfg(target_os = "linux")]
fn connected_group_owns_no_threads() {
    let members = build_group(4, MulticastAlgo::SpanningTree);
    members[1].1.multicast(b"warm").unwrap();
    for rank in [0, 2, 3] {
        members[rank]
            .1
            .recv_timeout(Duration::from_secs(10))
            .unwrap();
    }
    let named: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.contains("ncs-group"))
        .collect();
    assert!(named.is_empty(), "{named:?}");
    for (n, g) in &members {
        g.leave();
        n.shutdown();
    }
}

/// Shuts `node` down and asserts that it returned at once, with no task
/// left behind by its event loops.
fn prompt_shutdown(node: &NcsNode) {
    let start = Instant::now();
    node.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "{}: shutdown took {took:?}",
        node.name()
    );
    let left = node.reactor().stats().tasks_left_at_shutdown;
    assert_eq!(left, 0, "{}: tasks left at shutdown", node.name());
}

/// A group the application still holds is one of the things its node's
/// shutdown retires: the shutdown does not wait for it, and every later
/// call on it fails `Closed`, as after `leave`.
#[test]
fn shutdown_retires_a_held_group_and_its_later_calls_fail_closed() {
    let members = build_group(3, MulticastAlgo::SpanningTree);
    for (node, group) in &members {
        prompt_shutdown(node);
        for result in [
            group.multicast(b"after"),
            group.barrier(Duration::from_secs(10)),
            group.recv_timeout(Duration::from_secs(10)).map(drop),
        ] {
            assert_eq!(result, Err(GroupError::Closed), "{}", node.name());
        }
    }
}

/// So is a collective in flight, and one queued behind it: both fail
/// `Closed` by the time the shutdown returns, not at their timeout — the
/// closes of the group's links bring the step that fails them.
#[test]
fn shutdown_fails_the_collectives_in_flight_closed_at_once() {
    let (nodes, conns) = mesh(2);
    let groups: Vec<CollectiveGroup> = nodes
        .iter()
        .zip(conns)
        .enumerate()
        .map(|(rank, (node, links))| CollectiveGroup::new(node, 1, rank, links).unwrap())
        .collect();
    // Rank 1 enters nothing: rank 0's barrier waits, its allreduce queues.
    let barrier = groups[0].ibarrier().unwrap();
    let queued = groups[0].iallreduce(vec![1.0f64], ReduceOp::Sum).unwrap();
    assert!(!barrier.test() && !queued.test());
    prompt_shutdown(&nodes[0]);
    let resolved = Duration::from_millis(50);
    assert_eq!(barrier.wait_timeout(resolved), Err(CollectiveError::Closed));
    assert_eq!(queued.wait_timeout(resolved), Err(CollectiveError::Closed));
    assert_eq!(groups[0].barrier(), Err(CollectiveError::Closed));
    prompt_shutdown(&nodes[1]);
    assert_eq!(groups[1].barrier(), Err(CollectiveError::Closed));
}
