//! What a whole in-process world costs in OS threads. ONE test on purpose:
//! it counts the threads of the *process* (see the twin in
//! `ncs-core/tests/service_threads.rs`).

#![cfg(target_os = "linux")]

use ncs_collectives::ReduceOp;
use ncs_runtime::{LocalWorld, Session};

#[test]
fn a_four_rank_world_owns_twelve_acceptors_and_nothing_else() {
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
    // (shards, fd poller) — host-independent. The collectives that just
    // ran borrowed no thread: there is no blocking lane to borrow from.
    let service: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|n| n.starts_with("ncs-"))
        .filter(|n| !n.starts_with("ncs-reactor-") && n != "ncs-fd-poller")
        .collect();
    assert!(
        !service.iter().any(|n| n.starts_with("ncs-blocking-la")),
        "a blocking-lane thread exists: {service:?}"
    );
    assert!(
        service.len() <= 12 && service.iter().all(|n| n.starts_with("ncs-accept-")),
        "4 ranks x 3 peers = 12 acceptors at most, found {}: {service:?}",
        service.len()
    );
    for s in &world {
        s.shutdown();
    }
}
