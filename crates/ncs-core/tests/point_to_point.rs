//! End-to-end tests of NCS point-to-point communication over the HPI
//! interface: every flow-control x error-control combination, the §3.1
//! bypass, the §4.2 direct mode, and loss recovery.

use std::time::Duration;

use ncs_core::link::HpiLinkPair;
use ncs_core::{ConnectionConfig, ErrorControlAlg, FlowControlAlg, NcsNode, SendError};

/// Builds two linked nodes over HPI.
fn linked_nodes(ring: usize) -> (NcsNode, NcsNode) {
    let a = NcsNode::builder("alice").build();
    let b = NcsNode::builder("bob").build();
    let (la, lb) = HpiLinkPair::with_capacity(ring);
    a.attach_peer("bob", la);
    b.attach_peer("alice", lb);
    (a, b)
}

fn connect_pair(
    a: &NcsNode,
    b: &NcsNode,
    config: ConnectionConfig,
) -> (ncs_core::NcsConnection, ncs_core::NcsConnection) {
    let conn_a = a.connect("bob", config).expect("connect");
    let conn_b = b.accept_default().expect("accept");
    (conn_a, conn_b)
}

#[test]
fn reliable_default_round_trip() {
    let (a, b) = linked_nodes(256);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    ca.send_sync(b"hello ncs").unwrap();
    assert_eq!(
        cb.recv_timeout(Duration::from_secs(5)).unwrap(),
        b"hello ncs"
    );
    cb.send_sync(b"hello back").unwrap();
    assert_eq!(
        ca.recv_timeout(Duration::from_secs(5)).unwrap(),
        b"hello back"
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn multi_sdu_message_reassembles() {
    let (a, b) = linked_nodes(256);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    // 4 KB SDU; send 100 KB -> 25 SDUs.
    let msg: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
    ca.send_sync(&msg).unwrap();
    assert_eq!(cb.recv_timeout(Duration::from_secs(10)).unwrap(), msg);
    let stats = ca.stats();
    assert!(stats.packets_sent >= 25, "{stats}");
    a.shutdown();
    b.shutdown();
}

#[test]
fn many_messages_in_order() {
    let (a, b) = linked_nodes(1024);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    for i in 0..50u32 {
        ca.send(&i.to_be_bytes()).unwrap();
    }
    for i in 0..50u32 {
        assert_eq!(
            cb.recv_timeout(Duration::from_secs(10)).unwrap(),
            i.to_be_bytes()
        );
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn bypass_mode_skips_control_threads() {
    let (a, b) = linked_nodes(1024);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    ca.send(b"no fc no ec").unwrap();
    assert_eq!(
        cb.recv_timeout(Duration::from_secs(5)).unwrap(),
        b"no fc no ec"
    );
    // No acks or credits should flow in bypass mode.
    std::thread::sleep(Duration::from_millis(100));
    let s = ca.stats();
    assert_eq!(s.acks_received, 0, "{s}");
    assert_eq!(s.credits_received, 0, "{s}");
    a.shutdown();
    b.shutdown();
}

#[test]
fn every_fc_ec_combination_delivers() {
    let fcs = [
        FlowControlAlg::None,
        FlowControlAlg::CreditBased {
            initial_credits: 2,
            dynamic: true,
        },
        FlowControlAlg::SlidingWindow { window: 4 },
        FlowControlAlg::RateBased {
            packets_per_sec: 20_000,
            burst: 8,
        },
    ];
    let ecs = [
        ErrorControlAlg::None,
        ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(150),
            max_retries: 5,
        },
        ErrorControlAlg::GoBackN {
            window: 4,
            timeout: Duration::from_millis(150),
            max_retries: 5,
        },
    ];
    for fc in &fcs {
        for ec in &ecs {
            let (a, b) = linked_nodes(1024);
            let config = ConnectionConfig::builder()
                .sdu_size(1024)
                .flow_control(fc.clone())
                .error_control(ec.clone())
                .build();
            let (ca, cb) = connect_pair(&a, &b, config);
            let msg: Vec<u8> = (0..10_000u32).map(|i| (i % 199) as u8).collect();
            ca.send_sync_timeout(&msg, Duration::from_secs(15))
                .unwrap_or_else(|e| panic!("send failed for {fc:?}/{ec:?}: {e}"));
            let got = cb
                .recv_timeout(Duration::from_secs(15))
                .unwrap_or_else(|e| panic!("recv failed for {fc:?}/{ec:?}: {e}"));
            assert_eq!(got, msg, "payload mismatch for {fc:?}/{ec:?}");
            a.shutdown();
            b.shutdown();
        }
    }
}

#[test]
fn selective_repeat_recovers_from_ring_overruns() {
    // A tiny HPI ring (4 frames) guarantees receiver overruns when 32
    // SDUs are pushed; selective repeat + credit flow control must still
    // deliver everything intact.
    let (a, b) = linked_nodes(4);
    let config = ConnectionConfig::builder()
        .sdu_size(1024)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 2,
            dynamic: true,
        })
        .error_control(ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(100),
            max_retries: 20,
        })
        .build();
    let (ca, cb) = connect_pair(&a, &b, config);
    let msg: Vec<u8> = (0..32 * 1024u32).map(|i| (i % 251) as u8).collect();
    ca.send_sync_timeout(&msg, Duration::from_secs(30)).unwrap();
    assert_eq!(cb.recv_timeout(Duration::from_secs(30)).unwrap(), msg);
    a.shutdown();
    b.shutdown();
}

#[test]
fn go_back_n_recovers_from_ring_overruns() {
    let (a, b) = linked_nodes(4);
    let config = ConnectionConfig::builder()
        .sdu_size(1024)
        .flow_control(FlowControlAlg::SlidingWindow { window: 3 })
        .error_control(ErrorControlAlg::GoBackN {
            window: 3,
            timeout: Duration::from_millis(100),
            max_retries: 30,
        })
        .build();
    let (ca, cb) = connect_pair(&a, &b, config);
    let msg: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 239) as u8).collect();
    ca.send_sync_timeout(&msg, Duration::from_secs(30)).unwrap();
    assert_eq!(cb.recv_timeout(Duration::from_secs(30)).unwrap(), msg);
    let s = ca.stats();
    assert!(s.packets_sent >= 16, "{s}");
    a.shutdown();
    b.shutdown();
}

#[test]
fn flow_control_prevents_overrun_without_error_control() {
    // With credit-based FC sized to the ring, no overruns occur even
    // without EC: every packet arrives.
    let (a, b) = linked_nodes(8);
    let config = ConnectionConfig::builder()
        .sdu_size(1024)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        })
        .error_control(ErrorControlAlg::None)
        .build();
    let (ca, cb) = connect_pair(&a, &b, config);
    // 16 messages of 1 SDU each.
    for i in 0..16u32 {
        ca.send(&vec![i as u8; 512]).unwrap();
    }
    for i in 0..16u32 {
        let got = cb.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got, vec![i as u8; 512]);
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn send_errors_for_bad_messages() {
    let (a, b) = linked_nodes(64);
    let (ca, _cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    assert_eq!(ca.send(b""), Err(SendError::Empty));
    assert!(matches!(ca.send_direct(b"x"), Err(SendError::WrongMode(_))));
    a.shutdown();
    b.shutdown();
}

#[test]
fn close_propagates_to_peer() {
    let (a, b) = linked_nodes(64);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    ca.close();
    assert_eq!(ca.send(b"x"), Err(SendError::Closed));
    // Peer sees the close (via control connection) shortly.
    let mut closed = false;
    for _ in 0..100 {
        match cb.recv_timeout(Duration::from_millis(50)) {
            Err(SendError::Closed) => {
                closed = true;
                break;
            }
            Err(SendError::Timeout) => continue,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(closed, "peer never observed the close");
    a.shutdown();
    b.shutdown();
}

#[test]
fn direct_mode_round_trip() {
    let (a, b) = linked_nodes(256);
    let ca = a.connect("bob", ConnectionConfig::direct()).unwrap();
    let cb = b.accept_default().unwrap();
    ca.send_direct(b"procedures not threads").unwrap();
    assert_eq!(
        cb.recv_direct(Duration::from_secs(5)).unwrap(),
        b"procedures not threads"
    );
    // Threaded API is rejected on direct connections.
    assert!(matches!(ca.send(b"x"), Err(SendError::WrongMode(_))));
    a.shutdown();
    b.shutdown();
}

#[test]
fn direct_mode_with_reliability() {
    let (a, b) = linked_nodes(8);
    let config = ConnectionConfig::builder()
        .direct(true)
        .sdu_size(1024)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        })
        .error_control(ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(100),
            max_retries: 10,
        })
        .build();
    let ca = a.connect("bob", config).unwrap();
    let cb = b.accept_default().unwrap();
    let msg: Vec<u8> = (0..8_000u32).map(|i| (i % 97) as u8).collect();
    // The receiver must be actively pulling for direct acks to flow.
    let msg2 = msg.clone();
    let receiver = std::thread::spawn(move || {
        let got = cb.recv_direct(Duration::from_secs(20)).unwrap();
        assert_eq!(got, msg2);
    });
    ca.send_direct(&msg).unwrap();
    receiver.join().unwrap();
    a.shutdown();
    b.shutdown();
}

#[test]
fn connection_metadata_accessors() {
    let (a, b) = linked_nodes(64);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    assert_eq!(ca.peer_name(), "bob");
    assert_eq!(cb.peer_name(), "alice");
    assert_eq!(ca.interface(), "HPI");
    assert!(ca.is_open());
    assert_eq!(ca.config().sdu_size, ConnectionConfig::DEFAULT_SDU);
    assert_eq!(a.name(), "alice");
    assert!(a.connection_count() >= 1);
    a.shutdown();
    b.shutdown();
}

#[test]
fn concurrent_connections_are_independent() {
    let (a, b) = linked_nodes(1024);
    let mut pairs = Vec::new();
    for _ in 0..4 {
        pairs.push(connect_pair(&a, &b, ConnectionConfig::reliable()));
    }
    let mut handles = Vec::new();
    for (i, (ca, cb)) in pairs.into_iter().enumerate() {
        handles.push(std::thread::spawn(move || {
            let msg = vec![i as u8; 20_000];
            ca.send_sync_timeout(&msg, Duration::from_secs(20)).unwrap();
            assert_eq!(cb.recv_timeout(Duration::from_secs(20)).unwrap(), msg);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn unknown_peer_rejected() {
    let a = NcsNode::builder("solo").build();
    assert!(matches!(
        a.connect("ghost", ConnectionConfig::reliable()),
        Err(ncs_core::ConnectError::UnknownPeer(_))
    ));
    a.shutdown();
}

#[test]
fn accept_timeout() {
    let (a, b) = linked_nodes(64);
    assert!(matches!(
        b.accept(Duration::from_millis(100)),
        Err(ncs_core::AcceptError::Timeout)
    ));
    a.shutdown();
    b.shutdown();
}
