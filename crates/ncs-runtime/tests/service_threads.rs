//! What a whole in-process world costs in OS threads. ONE test on purpose:
//! it counts the threads of the *process* (see the twin in
//! `ncs-core/tests/service_threads.rs`).

#![cfg(target_os = "linux")]

use ncs_collectives::ReduceOp;
use ncs_runtime::{LocalWorld, Session};

#[test]
fn a_four_rank_world_owns_no_service_thread() {
    let world = LocalWorld::create(4).expect("world");
    // Put the 12 meshed links and the control plane to work first.
    let members: Vec<_> = world
        .into_iter()
        .map(|s| {
            std::thread::spawn(move || {
                let group = s.collective_group(1).expect("group");
                let sum = group
                    .allreduce(vec![f64::from(s.rank())], ReduceOp::Sum)
                    .expect("allreduce");
                assert_eq!(sum, [6.0]);
                s
            })
        })
        .collect();
    let world: Vec<_> = members.into_iter().map(|h| h.join().unwrap()).collect();

    // Node service threads: everything NCS names, minus the reactor's own
    // (its shards) — host-independent. The collectives that just
    // ran borrowed no thread: there is no blocking lane to borrow from.
    // Nor did connecting the mesh: accepting is one reactor task per rank.
    let service: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|n| n.starts_with("ncs-"))
        .filter(|n| !n.starts_with("ncs-reactor-"))
        .collect();
    assert!(
        !service.iter().any(|n| n.starts_with("ncs-blocking-la")),
        "a blocking-lane thread exists: {service:?}"
    );
    assert!(
        service.is_empty(),
        "4 ranks x 3 peers, and not one service thread: found {service:?}"
    );
    for s in &world {
        s.shutdown();
    }
}
