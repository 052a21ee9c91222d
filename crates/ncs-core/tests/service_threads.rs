//! One execution model: which OS threads a node owns, and how a node lets
//! go of them.
//!
//! The reactor runs a node's protocol code (a sender of one SDU may run
//! its own message's send pipeline, on its own thread); the paper's
//! Master, Control Send and Control Receive threads are gone, the
//! per-peer acceptors that outlived them are too, and a node has no
//! service thread at all. Nor does a modelled wire: a PIPE pair, a SIM
//! fabric and an ATM fabric move when touched. This file holds ONE test on purpose: it
//! counts the threads of the *process*, and a sibling test's nodes would
//! be counted with them.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use atm_sim::{LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs_core::link::{AciLink, HpiLinkPair, PeerLink, PipeLinkPair, SimLinkPair};
use ncs_core::packet::Hello;
use ncs_core::{AcceptError, ConnectionConfig, NcsNode, Reactor, SendError};
use ncs_threads::KernelPackage;
use ncs_transport::aci::AciFabric;
use ncs_transport::pipe::PipeConfig;
use ncs_transport::sim::{LinkPolicy, SimNet};

/// The `comm` of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

/// The ids of every thread of this process.
fn thread_ids() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| t.ok()?.file_name().into_string().ok())
        .collect()
}

/// Every thread of this process that is neither one of `before` nor a
/// reactor's shard, by name.
fn threads_beside_the_reactors(before: &[String]) -> Vec<String> {
    let comm = |tid: &str| std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok();
    thread_ids()
        .iter()
        .filter(|tid| !before.contains(tid))
        .filter_map(|tid| comm(tid))
        .map(|comm| comm.trim_end().to_owned())
        .filter(|name| !name.starts_with("ncs-reactor-"))
        .collect()
}

/// Two fresh nodes over `links`, a message each way on a reliable
/// connection and on one without flow and error control: no protocol
/// timer wakes anyone there, so the wire's own deadline must. The nodes
/// stay up.
fn moving_traffic(
    names: [&str; 2],
    links: (std::sync::Arc<dyn PeerLink>, std::sync::Arc<dyn PeerLink>),
) -> [NcsNode; 2] {
    let a = NcsNode::builder(names[0]).build();
    let b = NcsNode::builder(names[1]).build();
    a.attach_peer(names[1], links.0);
    b.attach_peer(names[0], links.1);
    for config in [ConnectionConfig::reliable(), ConnectionConfig::unreliable()] {
        // The first hello sets the connection up, read by the accept task
        // at its arrival: a repeat would come only after 100 ms.
        let start = Instant::now();
        let conn_a = a.connect(names[1], config).expect("connect");
        let conn_b = b.accept_default().expect("accept");
        let took = start.elapsed();
        assert!(took < Duration::from_millis(100), "set-up took {took:?}");
        let arrived = |conn: &ncs_core::NcsConnection| conn.recv_timeout(Duration::from_secs(5));
        conn_a.isend(b"there").and_then(|r| r.wait()).expect("send");
        assert_eq!(arrived(&conn_b).expect("recv"), b"there");
        conn_b.isend(b"back").and_then(|r| r.wait()).expect("send");
        assert_eq!(arrived(&conn_a).expect("recv"), b"back");
    }
    [a, b]
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
    let before = thread_ids();
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

    // -- Nor does a modelled wire, with time in it: a PIPE pair with a
    // drain rate and a latency (its channels started two drain threads
    // each), SIM LAN links (which moved only under a pump thread) and an
    // ATM fabric (which started a pump thread).
    let wire = PipeConfig {
        buffer_bytes: 64 * 1024,
        drain_bytes_per_sec: Some(16_875_000),
        latency: Duration::from_micros(100),
        time_scale: 1.0,
    };
    let (pa, pb) = PipeLinkPair::create(wire, None, None);
    let piped = moving_traffic(["pia", "pib"], (pa, pb));
    let (sa, sb) = SimLinkPair::create(&SimNet::new(7), LinkPolicy::lan(), LinkPolicy::lan());
    let simulated = moving_traffic(["sia", "sib"], (sa, sb));
    let net = NetworkBuilder::new()
        .host("ada")
        .host("abe")
        .switch("sw")
        .link("ada", "sw", LinkSpec::oc3())
        .link("abe", "sw", LinkSpec::oc3())
        .build()
        .expect("network");
    let fabric = AciFabric::start(net, PumpConfig::speedup(8.0));
    let device = |host| std::sync::Arc::new(fabric.device(host).expect("device"));
    let qos = QosParams::unspecified;
    let aci = (
        AciLink::new(device("ada"), "abe", qos()),
        AciLink::new(device("abe"), "ada", qos()),
    );
    let atm = moving_traffic(["ada", "abe"], (aci.0, aci.1));
    let beside = threads_beside_the_reactors(&before);
    assert!(
        beside.is_empty(),
        "threads beside the reactors' with HPI, PIPE, SIM and ATM traffic: {beside:?}"
    );
    piped
        .iter()
        .chain(&simulated)
        .chain(&atm)
        .for_each(NcsNode::shutdown);

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
