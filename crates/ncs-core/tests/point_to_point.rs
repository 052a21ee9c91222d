//! End-to-end tests of NCS point-to-point communication over the HPI
//! interface: every flow-control x error-control combination, the §3.1
//! bypass, the §4.2 aliases, loss recovery, and the §4.1 hand-off
//! (`send_handoff`) over a PIPE link whose transmit stops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::link::{HpiLinkPair, PeerLink, PipeLink, PipeLinkPair};
use ncs_core::{ConnectionConfig, ErrorControlAlg, FlowControlAlg, NcsNode, SendError};
use ncs_transport::pipe::PipeConfig;
use ncs_transport::{Capabilities, Connection, Readiness, TransportError, Waker};

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
    ca.isend(b"hello ncs").and_then(|r| r.wait()).unwrap();
    assert_eq!(
        cb.recv_timeout(Duration::from_secs(5)).unwrap(),
        b"hello ncs"
    );
    cb.isend(b"hello back").and_then(|r| r.wait()).unwrap();
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
    ca.isend(&msg).and_then(|r| r.wait()).unwrap();
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
fn bypass_mode_sends_no_feedback() {
    let (a, b) = linked_nodes(1024);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    ca.send(b"no fc no ec").unwrap();
    assert_eq!(
        cb.recv_timeout(Duration::from_secs(5)).unwrap(),
        b"no fc no ec"
    );
    // The null strategies advertise nothing and acknowledge nothing.
    std::thread::sleep(Duration::from_millis(100));
    for s in [ca.stats(), cb.stats()] {
        assert_eq!(
            (s.feedback_sent, s.acks_sent, s.credits_granted),
            (0, 0, 0),
            "{s}"
        );
        assert_eq!((s.acks_received, s.credits_received), (0, 0), "{s}");
    }
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
        FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        },
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
            ca.isend(&msg)
                .and_then(|r| r.wait_timeout(Duration::from_secs(15)))
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
    ca.isend(&msg)
        .and_then(|r| r.wait_timeout(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(cb.recv_timeout(Duration::from_secs(30)).unwrap(), msg);
    a.shutdown();
    b.shutdown();
}

/// The default reliable configuration over a ring narrower than its
/// window grows (32 SDUs, plus a starvation probe's one) keeps its
/// selective repeat: once the window has widened past the 16-frame ring,
/// a message of 32 SDUs overruns it, and every lost frame is repaired.
#[test]
fn the_default_window_over_a_narrow_ring_keeps_selective_repeat_and_repairs_overruns() {
    let (a, b) = linked_nodes(16);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    let start = Instant::now();
    let mut i = 0u32;
    // The window widens with sustained traffic, one 20 ms activity
    // window at a time.
    while ca.stats().retransmissions == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "never overran: {}",
            ca.stats()
        );
        let msg: Vec<u8> = (0..128 * 1024u32)
            .map(|j| (i * 7 + j % 253) as u8)
            .collect();
        let sent = ca.isend(&msg).expect("isend");
        assert_eq!(cb.recv_timeout(Duration::from_secs(30)).unwrap(), msg);
        sent.wait_timeout(Duration::from_secs(30))
            .expect("acknowledged");
        i += 1;
    }
    let (s, r) = (ca.stats(), cb.stats());
    assert!(s.acks_received >= u64::from(i), "{s}");
    assert!(r.acks_sent >= u64::from(i), "{r}");
    a.shutdown();
    b.shutdown();
}

#[test]
fn go_back_n_recovers_from_ring_overruns() {
    let (a, b) = linked_nodes(4);
    let config = ConnectionConfig::builder()
        .sdu_size(1024)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 3,
            dynamic: false,
        })
        .error_control(ErrorControlAlg::GoBackN {
            window: 3,
            timeout: Duration::from_millis(100),
            max_retries: 30,
        })
        .build();
    let (ca, cb) = connect_pair(&a, &b, config);
    let msg: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 239) as u8).collect();
    ca.isend(&msg)
        .and_then(|r| r.wait_timeout(Duration::from_secs(30)))
        .unwrap();
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
    a.shutdown();
    b.shutdown();
}

#[test]
fn close_propagates_to_peer() {
    let (a, b) = linked_nodes(64);
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    ca.close();
    assert_eq!(ca.send(b"x"), Err(SendError::Closed));
    // Peer sees the close (the channel's last frame) shortly.
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

/// `send_direct` and `recv_direct`, the §4.2 procedures, are aliases of
/// the default path's `isend(..)?.wait()` and `recv_timeout`.
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
    a.shutdown();
    b.shutdown();
}

/// The aliases over flow and error control: a window of 4 credits into a
/// ring of 8, which the window can overrun, so error control stays.
#[test]
fn direct_mode_with_reliability() {
    let (a, b) = linked_nodes(8);
    let config = ConnectionConfig::builder()
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
            ca.isend(&msg)
                .and_then(|r| r.wait_timeout(Duration::from_secs(20)))
                .unwrap();
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

/// A PIPE link whose transmit can be stopped: while `stopped` is set,
/// every channel it carries refuses frames offered without blocking
/// (`try_send_batch` answers `Ok(0)`), as a full socket buffer whose
/// drain has stopped refuses a nonblocking write. Everything else is the
/// PIPE channel's own.
#[derive(Debug)]
struct StoppableLink {
    pipe: Arc<PipeLink>,
    stopped: Arc<AtomicBool>,
}

#[derive(Debug)]
struct StoppableChannel {
    pipe: Box<dyn Connection>,
    stopped: Arc<AtomicBool>,
}

impl StoppableLink {
    fn wrap(&self, pipe: Box<dyn Connection>) -> Box<dyn Connection> {
        let stopped = Arc::clone(&self.stopped);
        Box::new(StoppableChannel { pipe, stopped })
    }
}

impl PeerLink for StoppableLink {
    fn open_channel(&self) -> Result<Box<dyn Connection>, TransportError> {
        Ok(self.wrap(self.pipe.open_channel()?))
    }

    fn try_accept_channel(&self) -> Result<Option<Box<dyn Connection>>, TransportError> {
        Ok(self.pipe.try_accept_channel()?.map(|c| self.wrap(c)))
    }

    fn watch_accepts(&self, waker: Option<Waker>) -> Readiness {
        self.pipe.watch_accepts(waker)
    }

    fn interface(&self) -> &'static str {
        self.pipe.interface()
    }
}

impl Connection for StoppableChannel {
    fn caps(&self) -> Capabilities {
        self.pipe.caps()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.pipe.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.pipe.try_recv()
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        self.pipe.send_batch(frames)
    }

    fn try_send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        if self.stopped.load(Ordering::Acquire) {
            return Ok(0);
        }
        self.pipe.try_send_batch(frames)
    }

    fn readiness(&self) -> Readiness {
        self.pipe.readiness()
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.pipe.register_waker(waker);
    }

    fn close(&self) {
        self.pipe.close();
    }

    fn peer_label(&self) -> String {
        self.pipe.peer_label()
    }
}

/// Two nodes over a [`StoppableLink`], and its switch.
fn stoppable_nodes() -> (NcsNode, NcsNode, Arc<AtomicBool>) {
    let stopped = Arc::new(AtomicBool::new(false));
    let (pa, pb) = PipeLinkPair::create(PipeConfig::default(), None, None);
    let link = |pipe| {
        let stopped = Arc::clone(&stopped);
        Arc::new(StoppableLink { pipe, stopped })
    };
    let a = NcsNode::builder("alice").build();
    let b = NcsNode::builder("bob").build();
    a.attach_peer("bob", link(pa));
    b.attach_peer("alice", link(pb));
    (a, b, stopped)
}

/// `send_handoff` returns once the Send plane has taken the message, not
/// once it is transmitted: with the transmit refused its request stays
/// open, and the close resolves it.
#[test]
fn send_handoff_returns_before_a_refused_transmit_and_close_resolves_it() {
    let (a, b, stopped) = stoppable_nodes();
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    let through = ca.send_handoff(b"through").expect("hand-off");
    assert_eq!(through.wait_timeout(Duration::from_secs(5)), Ok(()));
    assert_eq!(cb.recv_timeout(Duration::from_secs(5)).unwrap(), b"through");

    stopped.store(true, Ordering::Release);
    let stuck = ca.send_handoff(b"stuck").expect("hand-off");
    assert_eq!(
        stuck.wait_timeout(Duration::from_millis(50)),
        Err(SendError::Timeout),
        "a refused transmit completed"
    );
    assert!(!stuck.test());
    ca.close();
    assert_eq!(
        stuck.wait_timeout(Duration::from_secs(5)),
        Err(SendError::Closed)
    );
    a.shutdown();
    b.shutdown();
}

/// Without error control nothing acknowledges a message, so its `isend`
/// completes when its last frame is written, with or without flow control
/// (which releases the frame before that): with the transmit refused its
/// request stays open, and the close resolves it.
#[test]
fn isend_without_error_control_completes_on_the_write_and_close_resolves_it() {
    let credit = ConnectionConfig::builder()
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        })
        .error_control(ErrorControlAlg::None)
        .build();
    for config in [ConnectionConfig::unreliable(), credit] {
        let (a, b, stopped) = stoppable_nodes();
        let (ca, cb) = connect_pair(&a, &b, config.clone());
        let through = ca.isend(b"through").expect("isend");
        assert_eq!(through.wait_timeout(Duration::from_secs(5)), Ok(()));
        assert_eq!(cb.recv_timeout(Duration::from_secs(5)).unwrap(), b"through");

        stopped.store(true, Ordering::Release);
        let stuck = ca.isend(b"stuck").expect("isend");
        assert_eq!(
            stuck.wait_timeout(Duration::from_millis(50)),
            Err(SendError::Timeout),
            "a refused transmit completed: {config:?}"
        );
        ca.close();
        assert_eq!(
            stuck.wait_timeout(Duration::from_secs(5)),
            Err(SendError::Closed),
            "{config:?}"
        );
        a.shutdown();
        b.shutdown();
    }
}

/// The hand-off is the §3.1 bypass's Send Thread: a connection whose
/// messages go through FC/EC refuses it.
#[test]
fn send_handoff_refuses_reliable_connections() {
    let (a, b) = linked_nodes(64);
    let (reliable, _rb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    assert!(matches!(
        reliable.send_handoff(b"x"),
        Err(SendError::WrongMode(_))
    ));
    a.shutdown();
    b.shutdown();
}

/// A connection is one of the things a node's shutdown retires: here one
/// whose reliable messages a silent peer never acknowledges, as it never
/// gets them (the transmit is refused, as by a socket buffer nobody
/// drains). Their requests fail `Closed`, and the shutdown returns once
/// the closing connection has lingered for its frames, no later, leaving
/// no task behind.
#[test]
fn shutdown_retires_a_connection_whose_frames_a_silent_peer_never_acknowledged() {
    // ncs-core's bound on a closing connection's drain.
    const CLOSE_LINGER: Duration = Duration::from_millis(250);
    let (a, b, stopped) = stoppable_nodes();
    let (ca, _cb) = connect_pair(&a, &b, ConnectionConfig::reliable());
    stopped.store(true, Ordering::Release);
    let sent: Vec<_> = (0..4u8)
        .map(|i| ca.isend(&[i; 64]).expect("isend"))
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        sent.iter().all(|r| !r.test()),
        "acknowledged through a stopped link"
    );
    let start = Instant::now();
    a.shutdown();
    let took = start.elapsed();
    assert!(
        took < CLOSE_LINGER + Duration::from_millis(100),
        "shutdown took {took:?}"
    );
    assert_eq!(a.reactor().stats().tasks_left_at_shutdown, 0);
    for request in sent {
        assert_eq!(request.wait_timeout(Duration::ZERO), Err(SendError::Closed));
    }
    b.shutdown();
}
