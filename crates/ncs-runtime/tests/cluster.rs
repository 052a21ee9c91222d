//! Cluster runtime integration: rendezvous + bootstrap + collectives,
//! with every rank a real [`ClusterNode`] over real loopback sockets
//! (in one test process, so `cargo test` needs no pre-built binaries; the
//! CI `cluster-smoke` job runs the genuinely multi-process version via
//! `ncs-launch`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_collectives::ReduceOp;
use ncs_core::ConnectionConfig;
use ncs_obs::json::{self, Json};
use ncs_runtime::{
    rendezvous, ClusterConfig, ClusterNode, MembershipConfig, RendezvousServer, RvMsg,
    PROTOCOL_VERSION,
};
use ncs_transport::{sci, Connection as _};

/// Bootstraps a world of `n` ClusterNodes concurrently (one thread per
/// rank) against an embedded rendezvous server.
fn bootstrap_world(n: u32) -> (RendezvousServer, Vec<Arc<ClusterNode>>) {
    let server = RendezvousServer::start("127.0.0.1:0", n).expect("ncsd");
    let ncsd = server.addr();
    let handles: Vec<_> = (0..n)
        .map(|rank| {
            std::thread::spawn(move || {
                ClusterNode::bootstrap(ClusterConfig::new(rank, n, ncsd)).expect("bootstrap")
            })
        })
        .collect();
    let mut world: Vec<Arc<ClusterNode>> = handles
        .into_iter()
        .map(|h| Arc::new(h.join().expect("bootstrap thread")))
        .collect();
    world.sort_by_key(|c| c.rank());
    (server, world)
}

#[test]
fn four_ranks_bootstrap_allreduce_and_barrier() {
    let (_server, world) = bootstrap_world(4);
    for (i, c) in world.iter().enumerate() {
        assert_eq!(c.rank(), i as u32);
        assert_eq!(c.size(), 4);
        assert_eq!(c.node().rank(), Some(i as u32));
        // Every other rank is connected and identified.
        for p in 0..4u32 {
            if p != c.rank() {
                let conn = c.connection(p).expect("world link");
                assert_eq!(conn.peer_name(), format!("rank{p}"));
            }
        }
    }
    // The collectives engine runs unmodified across the world links.
    let members: Vec<_> = world
        .iter()
        .map(|c| {
            let c = Arc::clone(c);
            std::thread::spawn(move || {
                let g = c.collective_group(1).expect("group");
                let sum = g
                    .allreduce(vec![c.rank() as f64, 1.0], ReduceOp::Sum)
                    .expect("allreduce");
                g.barrier().expect("barrier");
                sum
            })
        })
        .collect();
    for h in members {
        assert_eq!(h.join().unwrap(), vec![6.0, 4.0]);
    }
    for c in &world {
        c.shutdown();
    }
}

/// `Duration::MAX` is no deadline, not an overflow, at the rendezvous
/// server's and a rank's waits: each returns on its event.
#[test]
fn a_wait_of_duration_max_has_no_deadline() {
    let (server, world) = bootstrap_world(2);
    assert!(server.wait_complete(Duration::MAX));
    world[0]
        .enable_membership_with(MembershipConfig::fast())
        .expect("membership");
    let view = world[0]
        .wait_view(|v| v.is_full(), Duration::MAX)
        .expect("the seed view");
    assert_eq!(view.members.len(), 2);
    for c in &world {
        c.shutdown();
    }
}

#[test]
fn point_to_point_beyond_the_bootstrap_links() {
    let (_server, world) = bootstrap_world(2);
    let zero = Arc::clone(&world[0]);
    let one = Arc::clone(&world[1]);
    let t = std::thread::spawn(move || {
        let conn = one
            .accept_connection(Duration::from_secs(10))
            .expect("accept extra");
        let m = conn.recv_timeout(Duration::from_secs(10)).expect("recv");
        conn.send(&m).expect("echo");
    });
    let conn = zero
        .open_connection(1, ConnectionConfig::unreliable())
        .expect("open extra");
    conn.send(b"across processes in spirit").expect("send");
    assert_eq!(
        conn.recv_timeout(Duration::from_secs(10)).expect("echo"),
        b"across processes in spirit"
    );
    t.join().unwrap();
    // Invalid targets are refused.
    assert!(zero
        .open_connection(0, ConnectionConfig::unreliable())
        .is_err());
    assert!(zero
        .open_connection(7, ConnectionConfig::unreliable())
        .is_err());
    for c in &world {
        c.shutdown();
    }
}

/// A connection a peer opens is the application's, whoever accepts it.
/// Rank 0 leaves and a replacement rejoins; rank 2 accepts the
/// replacement's world link while it waits in `wait_view`, and rank 1's
/// `open_connection` arrived first. That re-mesh must hand rank 1's
/// connection on to `accept_connection`, not drop it.
#[test]
fn a_connection_a_remesh_takes_from_another_peer_reaches_accept_connection() {
    let (server, world) = bootstrap_world(3);
    let ncsd = server.addr();
    for node in &world {
        node.enable_membership().expect("membership");
    }
    rendezvous::leave(ncsd, 0, Duration::from_secs(5)).expect("leave");
    world[0].shutdown();
    for node in &world[1..] {
        node.wait_view(|v| v.member(0).is_none(), Duration::from_secs(10))
            .expect("the leave view");
    }
    let extra = world[1]
        .open_connection(2, ConnectionConfig::unreliable())
        .expect("open extra");

    let replacement = std::thread::spawn(move || {
        let mut cfg = ClusterConfig::new(0, 3, ncsd);
        cfg.incarnation = 1;
        ClusterNode::rejoin(cfg).expect("rejoin")
    });
    let waiters: Vec<_> = world[1..]
        .iter()
        .map(|node| {
            let node = Arc::clone(node);
            std::thread::spawn(move || {
                node.wait_view(|v| v.is_full(), Duration::from_secs(20))
                    .expect("the join view")
            })
        })
        .collect();
    for w in waiters {
        w.join().expect("waiter");
    }
    let replacement = replacement.join().expect("replacement");
    assert!(world[2].connection(0).is_some(), "re-meshed with rank 0");

    let accepted = world[2]
        .accept_connection(Duration::from_secs(2))
        .expect("rank 1's connection");
    assert_eq!(accepted.peer_name(), "rank1");
    extra.send(b"not a world link").expect("send");
    assert_eq!(
        accepted
            .recv_timeout(Duration::from_secs(10))
            .expect("recv"),
        b"not a world link"
    );
    replacement.shutdown();
    for node in &world[1..] {
        node.shutdown();
    }
}

#[test]
fn rendezvous_rejects_mismatched_clients() {
    let server = RendezvousServer::start("127.0.0.1:0", 2).expect("ncsd");
    let my_addr = "127.0.0.1:9999".parse().unwrap();

    // Wrong world size.
    let err = rendezvous::register(server.addr(), 0, 3, my_addr, Duration::from_secs(5))
        .expect_err("world mismatch must be rejected");
    assert!(err.to_string().contains("world size"), "{err}");

    // Rank out of range.
    let err = rendezvous::register(server.addr(), 5, 2, my_addr, Duration::from_secs(5))
        .expect_err("rank out of range must be rejected");
    assert!(err.to_string().contains("out of range"), "{err}");

    // Wrong protocol version, sent raw.
    let conn = sci::connect_retry(server.addr(), Duration::from_secs(5)).expect("dial");
    conn.send(
        &RvMsg::Register {
            version: PROTOCOL_VERSION + 1,
            world: 2,
            rank: 0,
            addr: "127.0.0.1:9999".into(),
        }
        .encode(),
    )
    .expect("send");
    let answer =
        RvMsg::decode(&conn.recv_timeout(Duration::from_secs(5)).expect("answer")).expect("decode");
    assert!(
        matches!(answer, RvMsg::Reject { ref reason } if reason.contains("version")),
        "{answer:?}"
    );

    // Duplicate rank while the world is assembling. Which of two rank-0
    // registrations on two sockets the server serves first is up to the
    // order its event loop reads them in, so the held one travels on a
    // subscriber channel —
    // whose frames the server handles in order — with a heartbeat behind
    // it: the heartbeat's ack says the registration has been recorded.
    let hold = sci::connect_retry(server.addr(), Duration::from_secs(5)).expect("dial");
    let held = [
        RvMsg::Subscribe {
            rank: 0,
            incarnation: 0,
        },
        RvMsg::Register {
            version: PROTOCOL_VERSION,
            world: 2,
            rank: 0,
            addr: "127.0.0.1:9001".into(),
        },
        RvMsg::Heartbeat {
            rank: 0,
            seq: 1,
            nanos: 0,
        },
    ];
    for msg in &held {
        hold.send(&msg.encode()).expect("send");
    }
    loop {
        let frame = hold.recv_timeout(Duration::from_secs(5)).expect("answer");
        match RvMsg::decode(&frame).expect("decode") {
            RvMsg::View { .. } => {} // the subscription's greeting
            RvMsg::HeartbeatAck { seq: 1, .. } => break,
            other => panic!("unexpected answer on the held channel: {other:?}"),
        }
    }
    let err = rendezvous::register(server.addr(), 0, 2, my_addr, Duration::from_secs(5))
        .expect_err("duplicate rank must be rejected");
    assert!(err.to_string().contains("duplicate"), "{err}");
}

#[test]
fn late_rank_keeps_the_world_waiting_but_not_forever() {
    // Rank 1 registers 300 ms late: rank 0's bootstrap must ride it out
    // (the roster only forms when the world is complete).
    let server = RendezvousServer::start("127.0.0.1:0", 2).expect("ncsd");
    let ncsd = server.addr();
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        ClusterNode::bootstrap(ClusterConfig::new(1, 2, ncsd)).expect("late bootstrap")
    });
    let t0 = Instant::now();
    let zero = ClusterNode::bootstrap(ClusterConfig::new(0, 2, ncsd)).expect("bootstrap");
    assert!(t0.elapsed() >= Duration::from_millis(250));
    let one = late.join().unwrap();
    assert!(server.roster_complete());
    zero.shutdown();
    one.shutdown();
}

#[test]
fn missing_world_times_out_with_a_helpful_error() {
    let server = RendezvousServer::start("127.0.0.1:0", 2).expect("ncsd");
    let mut cfg = ClusterConfig::new(0, 2, server.addr());
    cfg.boot_timeout = Duration::from_millis(400);
    let err = ClusterNode::bootstrap(cfg).expect_err("nobody else ever arrives");
    assert!(err.to_string().contains("roster"), "{err}");
}

#[test]
fn telemetry_dumps_aggregate_at_the_rendezvous_service() {
    let (server, world) = bootstrap_world(2);
    // Move a little traffic so the dumps carry real counters.
    let fwd = world[0].connection(1).expect("link");
    let back = world[1].connection(0).expect("link");
    fwd.send(b"count me").expect("send");
    assert_eq!(
        back.recv_timeout(Duration::from_secs(10)).expect("recv"),
        b"count me"
    );
    /// Whether a rank's parsed dump carries a metric family whose name
    /// starts with `prefix`.
    fn has_family(dump: &Json, prefix: &str) -> bool {
        let families = dump.get("metrics").and_then(Json::as_arr).expect("metrics");
        families.iter().any(|f| {
            f.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with(prefix))
        })
    }
    for c in &world {
        let dump = c.telemetry();
        let parsed = json::parse(&dump).expect("rank dump parses");
        assert_eq!(
            parsed.get("rank").and_then(Json::as_num),
            Some(f64::from(c.rank()))
        );
        assert!(
            has_family(&parsed, "ncs_conn_messages_sent_total"),
            "{dump}"
        );
        assert!(
            parsed.get("flights").and_then(Json::as_arr).is_some(),
            "{dump}"
        );
        rendezvous::push_telemetry(server.addr(), c.rank(), &dump, Duration::from_secs(5))
            .expect("push");
    }
    let snapshots = server.telemetry_snapshots();
    assert_eq!(snapshots.len(), 2);
    let pushed = |rank: u32| json::parse(&snapshots[&rank]).expect("pushed dump parses");
    assert_eq!(pushed(0).get("rank").and_then(Json::as_num), Some(0.0));
    assert!(has_family(&pushed(1), "ncs_reactor"), "{}", snapshots[&1]);
    for c in &world {
        c.shutdown();
    }
}
