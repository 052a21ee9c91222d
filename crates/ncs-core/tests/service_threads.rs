//! One execution model: which OS threads a node owns, and how a node lets
//! go of them.
//!
//! The reactor runs a node's protocol code (a sender of one SDU may run
//! its own message's send pipeline, on its own thread); the paper's
//! Master, Control Send and Control Receive threads are gone, the
//! per-peer acceptors that outlived them are too, and a node has no
//! service thread at all. This file holds ONE test on purpose: it counts
//! the threads of the *process*, and a sibling test's nodes would be
//! counted with them.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use ncs_core::link::{HpiLinkPair, PeerLink};
use ncs_core::packet::Hello;
use ncs_core::{AcceptError, ConnectionConfig, NcsNode, Reactor, SendError};
use ncs_threads::KernelPackage;

/// The `comm` of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

/// Node service threads: everything NCS names, minus the reactor's own
/// (its shards) — a count that does not depend on how many cores
/// the host has.
fn service_threads() -> Vec<String> {
    thread_names()
        .into_iter()
        .filter(|n| n.starts_with("ncs-"))
        .filter(|n| !n.starts_with("ncs-reactor-"))
        .collect()
}

fn linked(a: &NcsNode, b: &NcsNode) {
    let (la, lb) = HpiLinkPair::create();
    a.attach_peer(b.name(), la);
    b.attach_peer(a.name(), lb);
}

/// Shuts `node` down and returns how long that took.
fn timed_shutdown(node: &NcsNode) -> Duration {
    let start = Instant::now();
    node.shutdown();
    start.elapsed()
}

#[test]
fn a_node_owns_no_service_thread_and_shuts_down_on_a_wake() {
    // -- A connected two-node pair, flow control on: credits cross each
    // connection's channel against its data (over HPI's default ring the
    // ring rule leaves error control out, so no acknowledgement goes with
    // them).
    let a = NcsNode::builder("ann").build();
    let b = NcsNode::builder("ben").build();
    linked(&a, &b);
    let conn_a = a
        .connect("ben", ConnectionConfig::reliable())
        .expect("connect");
    let conn_b = b.accept_default().expect("accept");
    conn_a.isend(b"over").and_then(|r| r.wait()).expect("send");
    assert_eq!(conn_b.recv().expect("recv"), b"over");
    conn_b.isend(b"back").and_then(|r| r.wait()).expect("send");
    assert_eq!(conn_a.recv().expect("recv"), b"back");

    let names = thread_names();
    for old in [
        "ncs-cs-",
        "ncs-cr-",
        "ncs-master-",
        "ncs-blocking-la",
        "ncs-accept-",
    ] {
        assert!(
            !names.iter().any(|n| n.starts_with(old)),
            "a {old}* thread exists: {names:?}"
        );
    }
    let service = service_threads();
    assert!(
        service.is_empty(),
        "a connected pair owns no service thread, found {service:?}"
    );

    // -- Shutdown is a wake, not a wait for poll ticks: an idle, connected
    // node is down well inside one old 100 ms tick.
    let (late_a, late) = HpiLinkPair::create();
    a.attach_peer("late", late_a);
    let took = timed_shutdown(&a);
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");

    // -- ...and final: the accept task went with the node, so the channel
    // opened now over a link attached before is never taken off it, and
    // nothing is built on it.
    let channel = late.open_channel().expect("open");
    let hello = Hello {
        node: "late".to_owned(),
        initiator_conn: 0,
        config: ConnectionConfig::unreliable(),
    };
    channel.send(&hello.encode()).expect("hello");
    assert_eq!(
        a.accept(Duration::from_millis(400)).err(),
        Some(AcceptError::Shutdown)
    );
    assert_eq!(a.connection_count(), 0);
    assert!(matches!(
        a.connect("ben", ConnectionConfig::reliable()),
        Err(ncs_core::ConnectError::Shutdown)
    ));
    // The peer heard the CloseConn the connection wrote on its way out.
    assert_eq!(
        conn_b.recv_timeout(Duration::from_secs(5)).err(),
        Some(SendError::Closed)
    );

    // -- The same on a reactor shared with a node that keeps running.
    let shared = Reactor::new(std::sync::Arc::new(KernelPackage::new()), 2);
    let c = NcsNode::builder("cat")
        .reactor(std::sync::Arc::clone(&shared))
        .build();
    let d = NcsNode::builder("dan")
        .reactor(std::sync::Arc::clone(&shared))
        .build();
    linked(&c, &d);
    linked(&d, &b);
    let conn_c = c
        .connect("dan", ConnectionConfig::reliable())
        .expect("connect");
    let conn_d = d.accept_default().expect("accept");
    conn_c
        .isend(b"shared")
        .and_then(|r| r.wait())
        .expect("send");
    assert_eq!(conn_d.recv().expect("recv"), b"shared");
    let took = timed_shutdown(&c);
    assert!(
        took < Duration::from_millis(100),
        "shutdown on a shared reactor took {took:?}"
    );
    assert_eq!(
        conn_d.recv_timeout(Duration::from_secs(5)).err(),
        Some(SendError::Closed)
    );
    // `dan` is untouched: its tasks still run on the shared loops.
    let conn_d = d
        .connect("ben", ConnectionConfig::reliable())
        .expect("connect");
    let conn_b = b.accept_default().expect("accept");
    conn_d
        .isend(b"still here")
        .and_then(|r| r.wait())
        .expect("send");
    assert_eq!(conn_b.recv().expect("recv"), b"still here");

    b.shutdown();
    d.shutdown();
    shared.shutdown();
}
