//! End-to-end tests of the nonblocking Request API: isend/irecv over
//! bypass and reliable configurations, tag matching (including a
//! proptest that tag-matched delivery never crosses tags), zero-copy
//! `MsgView` recycling, request cancellation, the non-blocking receive
//! (`recv_view(Duration::ZERO)`), `Duration::MAX` as no deadline, and the
//! fail-fast contract — a parked `irecv` surfaces an error the moment
//! its connection closes or its link dies, never a hang.

use std::time::{Duration, Instant};

use ncs_core::link::HpiLinkPair;
use ncs_core::{
    test_all, wait_all, wait_any, Completion, ConnectionConfig, NcsConnection, NcsNode, SendError,
};
use proptest::prelude::*;

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
) -> (NcsConnection, NcsConnection) {
    let conn_a = a.connect("bob", config).expect("connect");
    let conn_b = b.accept_default().expect("accept");
    (conn_a, conn_b)
}

#[test]
fn isend_irecv_round_trip_bypass_and_reliable() {
    for config in [ConnectionConfig::unreliable(), ConnectionConfig::reliable()] {
        let (a, b) = linked_nodes(256);
        let (ca, cb) = connect_pair(&a, &b, config);
        // Post the receive before the send exists: it parks.
        let want = cb.irecv();
        assert!(!want.test());
        let sent = ca.isend(b"overlap!").expect("isend");
        assert_eq!(sent.wait_timeout(Duration::from_secs(10)), Ok(()));
        let msg = want.wait_timeout(Duration::from_secs(10)).expect("irecv");
        assert_eq!(&*msg, b"overlap!");
        assert_eq!(msg.tag(), None);
        // The result is taken exactly once.
        assert_eq!(
            want.wait().expect_err("second wait"),
            SendError::ResultTaken
        );
        a.shutdown();
        b.shutdown();
    }
}

#[test]
fn multi_sdu_request_reassembles() {
    let (a, b) = linked_nodes(1024);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    let msg: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    let sent = ca.isend(&msg).expect("isend");
    let got = cb.irecv().wait_timeout(Duration::from_secs(20)).unwrap();
    assert_eq!(got.as_slice(), msg.as_slice());
    assert_eq!(sent.wait_timeout(Duration::from_secs(10)), Ok(()));
    a.shutdown();
    b.shutdown();
}

#[test]
fn tagged_channels_do_not_cross() {
    let (a, b) = linked_nodes(512);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    // Interleave three logical channels plus untagged traffic on one
    // connection.
    for i in 0..10u32 {
        ca.isend_tagged(1, format!("one-{i}").as_bytes()).unwrap();
        ca.isend_tagged(2, format!("two-{i}").as_bytes()).unwrap();
        ca.send(format!("plain-{i}").as_bytes()).unwrap();
        ca.isend_tagged(3, format!("three-{i}").as_bytes()).unwrap();
    }
    // Per-tag FIFO, regardless of consumption order.
    for i in 0..10u32 {
        let m3 = cb
            .irecv_tagged(3)
            .wait_timeout(Duration::from_secs(10))
            .unwrap();
        assert_eq!(&*m3, format!("three-{i}").as_bytes());
        assert_eq!(m3.tag(), Some(3));
    }
    for i in 0..10u32 {
        let m1 = cb
            .irecv_tagged(1)
            .wait_timeout(Duration::from_secs(10))
            .unwrap();
        assert_eq!(&*m1, format!("one-{i}").as_bytes());
        let m2 = cb
            .irecv_tagged(2)
            .wait_timeout(Duration::from_secs(10))
            .unwrap();
        assert_eq!(&*m2, format!("two-{i}").as_bytes());
        let plain = cb.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(plain, format!("plain-{i}").into_bytes());
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn tagged_messages_survive_error_control() {
    // Tag envelopes ride inside the message body, so the EC reassembly
    // path must hand them through intact — over a 32-frame ring, where
    // `reliable()` keeps its error control (the default window widens to
    // 32 SDUs), and over a wide one, where it runs without it and pooled
    // reassembly hands them through.
    for ring in [32, 512] {
        let (a, b) = linked_nodes(ring);
        let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 239) as u8).collect();
        ca.isend_tagged(42, &payload).unwrap();
        ca.isend_tagged(7, b"small").unwrap();
        let small = cb
            .irecv_tagged(7)
            .wait_timeout(Duration::from_secs(10))
            .unwrap();
        assert_eq!(&*small, b"small");
        let big = cb
            .irecv_tagged(42)
            .wait_timeout(Duration::from_secs(20))
            .unwrap();
        assert_eq!(big.as_slice(), payload.as_slice());
        let acks = cb.stats().acks_sent;
        assert_eq!(acks > 0, ring == 32, "ring {ring}: {acks} acknowledgements");
        a.shutdown();
        b.shutdown();
    }
}

#[test]
fn msg_view_recycles_through_the_pool() {
    let (a, b) = linked_nodes(512);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    // Warm up: the first exchanges charge the receive node's free lists.
    for _ in 0..20 {
        ca.send(&[7u8; 512]).unwrap();
        drop(cb.recv_view(Duration::from_secs(10)).unwrap());
    }
    let before = b.pool_stats();
    for _ in 0..100 {
        ca.send(&[7u8; 512]).unwrap();
        let view = cb.recv_view(Duration::from_secs(10)).unwrap();
        assert_eq!(view.len(), 512);
        drop(view); // buffer returns to bob's pool
    }
    let delta = b.pool_stats().since(&before);
    assert!(
        delta.misses <= delta.checkouts / 2,
        "zero-copy receive path failed to recycle: {delta}"
    );
    a.shutdown();
    b.shutdown();
}

/// `Duration::MAX` is no deadline, not an overflow, at the completion-set
/// waits and at a blocking receive: each returns on its event.
#[test]
fn a_wait_of_duration_max_has_no_deadline() {
    let (a, b) = linked_nodes(256);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    let (first, second) = (cb.irecv(), cb.irecv());
    let sender = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        ca.send(b"one")
            .and_then(|()| ca.send(b"two"))
            .expect("send");
        ca
    });
    assert_eq!(wait_any(&[&first], Duration::MAX), Some(0));
    assert!(wait_all(&[&first, &second], Duration::MAX));
    let ca = sender.join().expect("sender");
    let sender = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        ca.isend(b"three")?.wait().map(|()| ca)
    });
    assert_eq!(cb.recv_timeout(Duration::MAX).expect("recv"), b"three");
    drop(sender.join().expect("sender").expect("isend"));
    a.shutdown();
    b.shutdown();
}

#[test]
fn dropped_irecv_releases_its_claim() {
    let (a, b) = linked_nodes(256);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    // A parked request dropped before any message arrives just unparks.
    drop(cb.irecv());
    ca.send(b"first").unwrap();
    ca.send(b"second").unwrap();
    // A request that already claimed a message requeues it on drop.
    let claimed = cb.irecv();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !claimed.test() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(claimed.test(), "first message never arrived");
    drop(claimed);
    // FIFO holds: the requeued message drains before the second one.
    assert_eq!(cb.recv_timeout(Duration::from_secs(10)).unwrap(), b"first");
    assert_eq!(cb.recv_timeout(Duration::from_secs(10)).unwrap(), b"second");
    a.shutdown();
    b.shutdown();
}

/// `recv_view(Duration::ZERO)` is the non-blocking receive: `Timeout`
/// while nothing has arrived, the message once it has, and the terminal
/// error once the peer closed and the queue is drained.
#[test]
fn a_zero_timeout_receive_surfaces_connection_errors() {
    let (a, b) = linked_nodes(256);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    assert_eq!(cb.recv_view(Duration::ZERO).err(), Some(SendError::Timeout));
    ca.send(b"payload").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match cb.recv_view(Duration::ZERO) {
            Ok(m) => {
                assert_eq!(&*m, b"payload");
                break;
            }
            Err(SendError::Timeout) => {
                assert!(Instant::now() < deadline, "message never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    // After the peer closes and the queue drains, the error is visible,
    // not a silent "nothing yet".
    ca.close();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match cb.recv_view(Duration::ZERO) {
            Err(SendError::Closed) => break,
            Ok(_) | Err(SendError::Timeout) => {
                assert!(Instant::now() < deadline, "close never surfaced");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    a.shutdown();
    b.shutdown();
}

/// The regression test for the fail-fast satellite: kill the peer while
/// an `irecv` is parked and require the error within one control tick
/// (the collectives fail-fast contract from the cluster runtime, applied
/// to point-to-point requests).
#[test]
fn parked_irecv_fails_fast_when_peer_dies() {
    let (a, b) = linked_nodes(256);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    let parked = cb.irecv();
    assert!(!parked.test());
    // Kill the peer node mid-irecv (closes every connection it owns and
    // tears down its end of the link).
    let t0 = Instant::now();
    ca.close();
    a.shutdown();
    let err = parked
        .wait_timeout(Duration::from_secs(5))
        .expect_err("parked irecv must fail, not deliver");
    let elapsed = t0.elapsed();
    assert_eq!(err, SendError::Closed);
    assert!(
        elapsed < Duration::from_millis(500),
        "irecv took {elapsed:?} to observe the death — fail-fast is broken"
    );
    b.shutdown();
}

#[test]
fn queued_isends_resolve_when_reliable_connection_closes() {
    // Reliable configurations drive sends one at a time through error
    // control (over a 32-frame ring, which the default window could
    // overrun) or one window's worth at a time under the window alone
    // (over a wide ring); sends queued behind the ones in flight must
    // resolve (not dangle) when the connection dies mid-stream.
    for ring in [32, 1024] {
        let (a, b) = linked_nodes(ring);
        let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
        let payload = vec![0x5Au8; 30_000]; // multi-SDU: keeps the sender busy
        let requests: Vec<_> = (0..8).map(|_| ca.isend(&payload).expect("isend")).collect();
        ca.close();
        for (i, r) in requests.iter().enumerate() {
            // Ok (delivered before the close won the race) or an error —
            // but never a hang.
            let _ = r.wait_timeout(Duration::from_secs(10)).map_err(|e| {
                assert_ne!(
                    e,
                    SendError::Timeout,
                    "ring {ring}: isend #{i} dangled: {e}"
                )
            });
        }
        drop(cb);
        a.shutdown();
        b.shutdown();
    }
}

#[test]
fn local_close_fails_parked_irecv_immediately() {
    let (a, b) = linked_nodes(256);
    let (_ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    let parked = cb.irecv();
    let t0 = Instant::now();
    cb.close();
    let err = parked
        .wait_timeout(Duration::from_secs(5))
        .expect_err("must fail");
    assert_eq!(err, SendError::Closed);
    assert!(t0.elapsed() < Duration::from_millis(200));
    a.shutdown();
    b.shutdown();
}

#[test]
fn close_then_drain_still_delivers_arrived_messages() {
    let (a, b) = linked_nodes(256);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    ca.send(b"in flight").unwrap();
    // Wait until delivered on the receive side, then close.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match cb.recv_view(Duration::ZERO) {
            Ok(m) => {
                // Already taken: put the scenario together differently —
                // send another and close after it lands.
                assert_eq!(&*m, b"in flight");
                break;
            }
            Err(SendError::Timeout) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    ca.send(b"late").unwrap();
    let view = cb.recv_view(Duration::from_secs(10)).unwrap();
    assert_eq!(&*view, b"late");
    a.shutdown();
    b.shutdown();
}

#[test]
fn wait_sets_span_directions() {
    let (a, b) = linked_nodes(512);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    let want = cb.irecv();
    let sent = ca.isend(&[3u8; 9000]).expect("isend");
    {
        let set: [&dyn Completion; 2] = [&want, &sent];
        assert!(
            wait_all(&set, Duration::from_secs(20)),
            "wait_all timed out"
        );
        assert!(test_all(&set));
        assert!(wait_any(&set, Duration::from_secs(1)).is_some());
    }
    assert_eq!(sent.wait(), Ok(()));
    assert_eq!(want.wait().unwrap().len(), 9000);
    a.shutdown();
    b.shutdown();
}

#[test]
fn isend_validation_errors_are_immediate() {
    let (a, b) = linked_nodes(256);
    let (ca, _cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    assert_eq!(ca.isend(b"").expect_err("empty"), SendError::Empty);
    let huge = vec![0u8; 64 * 1024 * 1024];
    assert!(matches!(
        ca.isend(&huge).expect_err("too large"),
        SendError::TooLarge { .. }
    ));
    ca.close();
    assert_eq!(ca.isend(b"x").expect_err("closed"), SendError::Closed);
    a.shutdown();
    b.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tag-matched delivery never crosses tags: any interleaving of sends
    /// across a handful of channels arrives per-channel, in per-channel
    /// order, with exactly the sent bytes.
    #[test]
    fn tagged_delivery_never_crosses_tags(
        // (channel, payload-seed) per message; 3 channels, <= 24 messages.
        plan in proptest::collection::vec((0u32..3, 0u8..=255), 1..24),
    ) {
        let (a, b) = linked_nodes(1024);
        let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
        let mut expected: std::collections::HashMap<u32, Vec<Vec<u8>>> = Default::default();
        for (i, &(chan, seed)) in plan.iter().enumerate() {
            let tag = 100 + chan;
            let body = vec![seed; (i % 7) + 1];
            ca.isend_tagged(tag, &body).expect("isend_tagged");
            expected.entry(tag).or_default().push(body);
        }
        for (tag, msgs) in expected {
            for want in msgs {
                let got = cb
                    .irecv_tagged(tag)
                    .wait_timeout(Duration::from_secs(10))
                    .expect("tagged receive");
                prop_assert_eq!(got.as_slice(), want.as_slice());
                prop_assert_eq!(got.tag(), Some(tag));
            }
        }
        a.shutdown();
        b.shutdown();
    }
}
