//! How many threads membership costs an elastic rank: none beyond its
//! node's event loops. ONE test on purpose: it counts the threads of the
//! whole *process* (see `service_threads.rs`).

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use ncs_runtime::{ClusterConfig, ClusterNode, MembershipConfig, RendezvousServer};

/// The names of the process's threads.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .map(|task| {
            let comm = task.expect("task").path().join("comm");
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_owned()
        })
        .collect()
}

/// Three elastic ranks heartbeat, and apply their seed views, on the
/// event loops their nodes already run: enabling membership starts no
/// thread (two per rank while a rank ran a heartbeat thread and a view
/// applier).
#[test]
fn an_elastic_rank_owns_no_thread_beyond_its_event_loops() {
    const WORLD: u32 = 3;
    let server = RendezvousServer::start_with("127.0.0.1:0", WORLD, MembershipConfig::default())
        .expect("ncsd");
    let ncsd = server.addr();
    let ranks: Vec<_> = (0..WORLD)
        .map(|rank| {
            std::thread::spawn(move || {
                ClusterNode::bootstrap(ClusterConfig::new(rank, WORLD, ncsd)).expect("bootstrap")
            })
        })
        .collect();
    let nodes: Vec<Arc<ClusterNode>> = ranks
        .into_iter()
        .map(|h| Arc::new(h.join().expect("bootstrap thread")))
        .collect();
    // The bootstrap threads have been joined; let the system finish
    // tearing them down before counting.
    std::thread::sleep(Duration::from_millis(50));
    let before = threads();

    for node in &nodes {
        node.enable_membership().expect("membership");
    }
    for node in &nodes {
        node.wait_view(|v| v.id == 1 && v.is_full(), Duration::from_secs(10))
            .expect("seed view");
    }
    let after = threads();
    assert!(
        !after
            .iter()
            .any(|n| n.starts_with("ncs-member-") || n.starts_with("ncs-view-")),
        "{after:?}"
    );
    assert_eq!(
        after.len(),
        before.len(),
        "membership on {WORLD} ranks started threads: before {before:?}, after {after:?}"
    );
    for node in &nodes {
        node.shutdown();
    }
}
