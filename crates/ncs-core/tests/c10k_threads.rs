//! 1,024 connections, a bounded number of threads. Two nodes share one
//! readiness reactor, so every connection's task runs on its O(cores)
//! event loops: opening connections adds no thread (the Figure-4 design
//! spent five per connection, over 5,000 here). This file holds ONE test
//! on purpose: it reads the threads of the whole process.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use ncs_core::link::HpiLinkPair;
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode, Reactor};
use ncs_threads::{KernelPackage, ThreadPackage};

/// Connections held open at once (2 x this many endpoints on the reactor).
const CONNECTIONS: usize = 1024;

/// HPI ring capacity per channel, in frames: small, since 2 x 1,024
/// channels exist at once and each has one frame in flight.
const RING: usize = 32;

/// The ceiling on the process's OS threads while every connection is
/// open: event loops, the accept tasks and the test harness
/// fit under it many times over; a thread per connection does not.
const MAX_THREADS: usize = 128;

/// OS threads in this process.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_thousand_connections_on_one_reactor_keep_the_thread_count_bounded() {
    let pkg: Arc<dyn ThreadPackage> = Arc::new(KernelPackage::new());
    let reactor = Reactor::with_default_shards(Arc::clone(&pkg));
    let node = |name: &str| {
        NcsNode::builder(name)
            .thread_package(Arc::clone(&pkg))
            .reactor(Arc::clone(&reactor))
            .build()
    };
    let (a, b) = (node("c10k-a"), node("c10k-b"));
    let (la, lb) = HpiLinkPair::with_capacity(RING);
    a.attach_peer("c10k-b", la);
    b.attach_peer("c10k-a", lb);

    // Accepts queue on the peer without a waiting caller, so one thread
    // opens every connection, then takes them in the order they arrived.
    let dialled: Vec<NcsConnection> = (0..CONNECTIONS)
        .map(|_| {
            a.connect("c10k-b", ConnectionConfig::unreliable())
                .expect("connect")
        })
        .collect();
    let pairs: Vec<(NcsConnection, NcsConnection)> = dialled
        .into_iter()
        .map(|ca| (ca, b.accept_default().expect("accept")))
        .collect();
    for (ca, cb) in &pairs {
        ca.send(b"ping").expect("send");
        let m = cb.recv_timeout(Duration::from_secs(10)).expect("recv");
        cb.send(&m).expect("echo");
        assert_eq!(
            ca.recv_timeout(Duration::from_secs(10)).expect("return"),
            b"ping"
        );
    }
    let threads = os_threads();
    assert_eq!(reactor.stats().endpoints, 2 * CONNECTIONS as u64);
    assert!(
        threads <= MAX_THREADS,
        "{threads} OS threads with {CONNECTIONS} connections open"
    );

    for (ca, cb) in &pairs {
        ca.close();
        cb.close();
    }
    a.shutdown();
    b.shutdown();
    reactor.shutdown();
}
