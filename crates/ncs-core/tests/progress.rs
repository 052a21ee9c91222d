//! Who drives a connection's progress, and what it costs when nothing is
//! wrong.
//!
//! A message of one SDU is run through the send pipeline by the thread
//! that submits it whenever the pipeline is free; the connection's reactor
//! task does everything else. The send contract must not depend on which
//! of the two it was: order, completeness, retransmission after a loss
//! and request resolution across a close are checked here under both
//! thread packages. Nor may it depend on what a message shared its frame
//! with: small messages queued behind a session in flight ride in one SDU
//! as a train, and each still arrives once, in its stream's order, and
//! resolves its own request — after a lost frame, and when the train's
//! session fails. And an event loop sleeps only toward deadlines
//! somebody still waits for: after a burst of acknowledged traffic,
//! silence costs nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::link::{AciLink, HpiLinkPair, SimLinkPair};
use ncs_core::{ConnectionConfig, EventKind, NcsConnection, NcsNode, SendError};
use ncs_threads::{KernelPackage, ThreadPackage, ThreadPackageExt, UserRuntime};
use ncs_transport::aci::AciFabric;
use ncs_transport::sim::{LinkPolicy, SimNet};

type Pkg = Arc<dyn ThreadPackage>;

/// Runs `test` on the kernel package, then as the primary green thread of
/// a user-level runtime.
fn on_both_packages(test: fn(&Pkg)) {
    test(&(Arc::new(KernelPackage::new()) as Pkg));
    UserRuntime::default().run(move |pkg| test(&(Arc::new(pkg) as Pkg)));
}

struct Pair {
    a: NcsNode,
    b: NcsNode,
    tx: NcsConnection,
    rx: NcsConnection,
}

/// A ring that keeps `reliable()`'s error control (the default window
/// widens to 32 SDUs and a probe needs one more) and one that does not.
const RINGS: [usize; 2] = [32, 1024];

impl Pair {
    /// Two nodes on `pkg` joined by an HPI ring, one reliable connection.
    fn hpi(pkg: &Pkg) -> Pair {
        Pair::hpi_ring(pkg, 1024)
    }

    /// [`Pair::hpi`] over a ring of `ring` frames: one narrower than the
    /// window's widest reach plus one (33) keeps error control.
    fn hpi_ring(pkg: &Pkg, ring: usize) -> Pair {
        let a = NcsNode::builder("alice")
            .thread_package(Arc::clone(pkg))
            .build();
        let b = NcsNode::builder("bob")
            .thread_package(Arc::clone(pkg))
            .build();
        let (la, lb) = HpiLinkPair::with_capacity(ring);
        a.attach_peer("bob", la);
        b.attach_peer("alice", lb);
        let tx = a
            .connect("bob", ConnectionConfig::reliable())
            .expect("connect");
        let rx = b.accept_default().expect("accept");
        Pair { a, b, tx, rx }
    }

    fn shutdown(self) {
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// Alice and Bob over the ATM model, Alice's uplink dropping the
/// best-effort cells whose indices `dropped` lists.
struct AtmPair {
    a: NcsNode,
    b: NcsNode,
    fabric: Arc<AciFabric>,
}

impl AtmPair {
    fn new(pkg: &Pkg, dropped: Vec<u64>) -> AtmPair {
        use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
        let net = NetworkBuilder::new()
            .switch("sw")
            .host("alice")
            .host("bob")
            .link(
                "alice",
                "sw",
                LinkSpec::oc3().with_fault(FaultSpec::drop_plan(dropped)),
            )
            .link("bob", "sw", LinkSpec::oc3())
            .build()
            .expect("atm network");
        let fabric = AciFabric::start(net, PumpConfig::speedup(4.0));
        let a = NcsNode::builder("alice")
            .thread_package(Arc::clone(pkg))
            .build();
        let b = NcsNode::builder("bob")
            .thread_package(Arc::clone(pkg))
            .build();
        let dev = |host| Arc::new(fabric.device(host).expect("device"));
        let qos = QosParams::unspecified();
        a.attach_peer("bob", AciLink::new(dev("alice"), "bob", qos));
        b.attach_peer("alice", AciLink::new(dev("bob"), "alice", qos));
        AtmPair { a, b, fabric }
    }

    /// A connection under selective repeat alone: no credits share the
    /// uplink's cell count.
    fn connect(&self, timeout: Duration, max_retries: u32) -> (NcsConnection, NcsConnection) {
        let config = ConnectionConfig::builder()
            .flow_control(ncs_core::FlowControlAlg::None)
            .error_control(ncs_core::ErrorControlAlg::SelectiveRepeat {
                timeout,
                max_retries,
            })
            .build();
        let tx = self.a.connect("bob", config).expect("connect");
        (tx, self.b.accept_default().expect("accept"))
    }

    fn shutdown(self) {
        self.a.shutdown();
        self.b.shutdown();
        self.fabric.shutdown();
    }
}

const WAIT: Duration = Duration::from_secs(30);

/// Message `i` of a stream: its index, padded to `len` bytes.
fn numbered(i: u32, len: usize) -> Vec<u8> {
    let mut m = vec![i as u8; len];
    m[..4].copy_from_slice(&i.to_be_bytes());
    m
}

fn index_of(msg: &[u8]) -> u32 {
    u32::from_be_bytes(msg[..4].try_into().expect("4 bytes"))
}

/// One thread alternating one-SDU messages (which it may transmit itself)
/// with three-SDU ones (which it hands to the task): received in
/// submission order, with error control and without ([`RINGS`]).
#[test]
fn one_threads_short_and_long_messages_stay_in_order() {
    on_both_packages(|pkg| {
        for ring in RINGS {
            let pair = Pair::hpi_ring(pkg, ring);
            let sdu = pair.tx.config().sdu_size;
            let len = |i: u32| [64, 3 * sdu - 100][i as usize % 2];
            for i in 0..200 {
                pair.tx.send(&numbered(i, len(i))).expect("send");
            }
            for i in 0..200 {
                let got = pair.rx.recv_timeout(WAIT).expect("recv");
                assert_eq!((index_of(&got), got.len()), (i, len(i)));
            }
            pair.shutdown();
        }
    });
}

/// Four threads, each streaming on its own channel of one connection,
/// while a fifth keeps the connection's task busy with long messages: the
/// submitters find the pipeline now free, now taken. Per-channel FIFO,
/// nothing lost, with error control and without ([`RINGS`]).
#[test]
fn concurrent_channels_keep_fifo_while_the_task_is_busy() {
    const PER_CHANNEL: u32 = 2_000;
    const LONG: u32 = 300;
    on_both_packages(|pkg| {
        for ring in RINGS {
            let pair = Pair::hpi_ring(pkg, ring);
            let sdu = pair.tx.config().sdu_size;
            let mut threads = Vec::new();
            for id in 0..4u16 {
                let (tx, rx) = (pair.tx.channel(id), pair.rx.channel(id));
                threads.push(pkg.spawn_typed("sender", move || {
                    let sent: Vec<_> = (0..PER_CHANNEL)
                        .map(|i| tx.isend(&numbered(i, 64)).expect("isend"))
                        .collect();
                    for req in sent {
                        req.wait_timeout(WAIT).expect("delivered");
                    }
                }));
                threads.push(pkg.spawn_typed("receiver", move || {
                    for i in 0..PER_CHANNEL {
                        let got = rx.recv_view(WAIT).expect("recv");
                        assert_eq!(index_of(&got), i, "channel {id}");
                    }
                }));
            }
            let (tx, rx) = (pair.tx.clone(), pair.rx.clone());
            threads.push(pkg.spawn_typed("long sender", move || {
                for i in 0..LONG {
                    tx.send(&numbered(i, 3 * sdu)).expect("send");
                }
            }));
            threads.push(pkg.spawn_typed("long receiver", move || {
                for i in 0..LONG {
                    assert_eq!(index_of(&rx.recv_timeout(WAIT).expect("recv")), i);
                }
            }));
            for t in threads {
                t.join().expect("worker");
            }
            let (sent, received) = (pair.tx.stats(), pair.rx.stats());
            let total = u64::from(4 * PER_CHANNEL + LONG);
            assert_eq!(
                (sent.messages_sent, received.messages_received),
                (total, total)
            );
            pair.shutdown();
        }
    });
}

/// A message that its submitter transmits after a silence longer than the
/// acknowledgement timeout finds no timer armed. It must arm one: the
/// message loses a cell on the wire and is repaired by exactly one
/// retransmission.
#[test]
fn a_message_sent_inline_after_silence_is_retransmitted_when_lost() {
    use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
    const WARM: u32 = 10;
    on_both_packages(|pkg| {
        // Alice's uplink drops its 41st best-effort cell. The handshake
        // and the one-cell warm-up messages stay below that; the message
        // after the silence is some 85 cells long and takes it.
        let net = NetworkBuilder::new()
            .switch("sw")
            .host("alice")
            .host("bob")
            .link(
                "alice",
                "sw",
                LinkSpec::oc3().with_fault(FaultSpec::drop_plan(vec![40])),
            )
            .link("bob", "sw", LinkSpec::oc3())
            .build()
            .expect("atm network");
        let fabric = AciFabric::start(net, PumpConfig::speedup(4.0));
        let a = NcsNode::builder("alice")
            .thread_package(Arc::clone(pkg))
            .build();
        let b = NcsNode::builder("bob")
            .thread_package(Arc::clone(pkg))
            .build();
        let dev = |host| Arc::new(fabric.device(host).expect("device"));
        let qos = QosParams::unspecified();
        a.attach_peer("bob", AciLink::new(dev("alice"), "bob", qos));
        b.attach_peer("alice", AciLink::new(dev("bob"), "alice", qos));
        // Selective repeat alone: no credits share the uplink's cell count.
        let timeout = Duration::from_millis(150);
        let config = ConnectionConfig::builder()
            .flow_control(ncs_core::FlowControlAlg::None)
            .error_control(ncs_core::ErrorControlAlg::SelectiveRepeat {
                timeout,
                max_retries: 30,
            })
            .build();
        let tx = a.connect("bob", config).expect("connect");
        let rx = b.accept_default().expect("accept");
        for i in 0..WARM {
            tx.isend(&numbered(i, 8))
                .and_then(|r| r.wait())
                .expect("warm-up");
            assert_eq!(index_of(&rx.recv_timeout(WAIT).expect("recv")), i);
        }
        assert_eq!(tx.stats().retransmissions, 0, "the drop hit the warm-up");
        pkg.sleep(2 * timeout);
        let message = numbered(WARM, 4_000);
        let sent = tx.isend(&message).expect("isend");
        assert_eq!(rx.recv_timeout(WAIT).expect("repaired"), message);
        sent.wait_timeout(WAIT).expect("acknowledged");
        assert_eq!(tx.stats().retransmissions, 1);
        assert_eq!(fabric.stats().cells_lost, 1);
        a.shutdown();
        b.shutdown();
        fabric.shutdown();
    });
}

/// Four channels and the untagged stream, 2,000 small messages each,
/// issued round-robin by one thread: whatever is queued when a session
/// ends rides in the next one, so a train mixes all five streams. Each
/// stream arrives complete and in its own order, and the frames are far
/// fewer than the messages.
#[test]
fn small_messages_sharing_frames_keep_every_streams_order() {
    const PER_STREAM: u32 = 2_000;
    const CHANNELS: u16 = 4;
    on_both_packages(|pkg| {
        let pair = Pair::hpi(pkg);
        let (tx, rx) = (pair.tx.clone(), pair.rx.clone());
        let sender = pkg.spawn_typed("sender", move || {
            let mut sent = Vec::new();
            for i in 0..PER_STREAM {
                for id in 0..CHANNELS {
                    sent.push(tx.channel(id).isend(&numbered(i, 8)).expect("isend"));
                }
                sent.push(tx.isend(&numbered(i, 16)).expect("isend"));
            }
            for req in sent {
                req.wait_timeout(WAIT).expect("delivered");
            }
        });
        for i in 0..PER_STREAM {
            for id in 0..CHANNELS {
                let got = rx.channel(id).recv_view(WAIT).expect("recv");
                assert_eq!((index_of(&got), got.len()), (i, 8), "channel {id}");
            }
            let got = rx.recv_timeout(WAIT).expect("recv");
            assert_eq!((index_of(&got), got.len()), (i, 16), "untagged");
        }
        sender.join().expect("sender");
        let (sent, received) = (pair.tx.stats(), pair.rx.stats());
        let total = u64::from(PER_STREAM) * (u64::from(CHANNELS) + 1);
        assert_eq!(
            (sent.messages_sent, received.messages_received),
            (total, total)
        );
        assert!(sent.packets_sent < sent.messages_sent / 4, "{sent}");
        assert_eq!(received.frames_rejected, 0);
        pair.shutdown();
    });
}

/// A message loses its end SDU — the one loss only a timer can notice:
/// the receiver has nothing to answer. The timer has learned the link
/// from the warm-up (a fraction of a millisecond; the configured timeout
/// is 200 ms), fires at its floor, and asks with one frame: the end SDU
/// again, which here is also the repair.
#[test]
fn a_lost_end_sdu_is_repaired_at_the_links_pace_by_one_frame() {
    const WARM: u32 = 10;
    on_both_packages(|pkg| {
        // One cell of handshake and ten of warm-up; then 86 cells of the
        // message's first SDU and 84 of its second. Cell 150 is in the
        // second wherever in 0..40 the message starts.
        let pair = AtmPair::new(pkg, vec![150]);
        let (tx, rx) = pair.connect(Duration::from_millis(200), 10);
        for i in 0..WARM {
            tx.isend(&numbered(i, 8))
                .and_then(|r| r.wait())
                .expect("warm-up");
            assert_eq!(index_of(&rx.recv_timeout(WAIT).expect("recv")), i);
        }
        let warm = tx.stats();
        assert_eq!((warm.retransmissions, warm.ack_timeouts), (0, 0));
        assert_eq!(warm.ack_rtt_samples, u64::from(WARM));
        assert!(warm.srtt_us < 5_000 && warm.rto_us < 50_000, "{warm:?}");

        let message = numbered(WARM, 4_096 + 4_000);
        let start = Instant::now();
        let sent = tx.isend(&message).expect("isend");
        assert_eq!(rx.recv_timeout(WAIT).expect("repaired"), message);
        sent.wait_timeout(WAIT).expect("acknowledged");
        let took = start.elapsed();
        assert!(took < Duration::from_millis(50), "repaired in {took:?}");
        let stats = tx.stats();
        assert_eq!((stats.retransmissions, stats.ack_timeouts), (1, 1));
        assert_eq!(stats.ack_rtt_samples, warm.ack_rtt_samples, "Karn");
        assert_eq!(pair.fabric.stats().cells_lost, 1);
        let repairs: Vec<_> = tx
            .flight()
            .dump()
            .into_iter()
            .filter(|e| e.kind == EventKind::Retransmit)
            .map(|e| (e.seq, e.len))
            .collect();
        assert_eq!(repairs, [(1, 1)], "one frame: the end SDU");
        pair.shutdown();
    });
}

/// A frame that carries a train loses a cell: the one retransmission of
/// that frame repairs every message in it, each delivered once, in order.
#[test]
fn a_lost_train_is_retransmitted_whole_and_delivered_once() {
    const WARM: u32 = 10;
    const BATCH: u32 = 300;
    on_both_packages(|pkg| {
        // As above, the 41st cell of Alice's uplink comes after the
        // handshake and the warm-up. The batch is queued before the
        // pipeline is activated, so it leaves as one train — 300 records
        // of 12 bytes, some 76 cells — which takes the drop (or as two, if
        // the task was still up from the last acknowledgement).
        let pair = AtmPair::new(pkg, vec![40]);
        let (tx, rx) = pair.connect(Duration::from_millis(150), 30);
        for i in 0..WARM {
            tx.isend(&numbered(i, 8))
                .and_then(|r| r.wait())
                .expect("warm-up");
            assert_eq!(index_of(&rx.recv_timeout(WAIT).expect("recv")), i);
        }
        let before = tx.stats();
        assert_eq!(before.retransmissions, 0, "the drop hit the warm-up");
        let batch: Vec<Vec<u8>> = (WARM..WARM + BATCH).map(|i| numbered(i, 8)).collect();
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.try_send_batch(&refs), Ok(refs.len()));
        for want in &batch {
            assert_eq!(&rx.recv_timeout(WAIT).expect("repaired"), want);
        }
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(300)),
            Err(SendError::Timeout),
            "the retransmitted train was delivered a second time"
        );
        let after = tx.stats();
        assert_eq!(after.messages_sent - before.messages_sent, u64::from(BATCH));
        let frames = after.packets_sent - before.packets_sent;
        assert!(
            frames <= 4,
            "{frames} frames: the batch did not share frames"
        );
        assert_eq!(after.retransmissions, 1);
        assert_eq!(pair.fabric.stats().cells_lost, 1);
        assert_eq!(rx.stats().messages_received, u64::from(WARM + BATCH));
        pair.shutdown();
    });
}

/// The messages of a train share its session's fate: when error control
/// gives the session up, every one of their requests resolves
/// `DeliveryFailed`, none is left waiting and none is reported delivered.
#[test]
fn a_train_whose_session_fails_fails_every_request_in_it() {
    const SENDS: u64 = 200;
    on_both_packages(|pkg| {
        // From its 41st cell on, Alice's uplink delivers nothing: the
        // handshake gets through, and so do one-cell messages until one
        // does not.
        let pair = AtmPair::new(pkg, (40..20_000).collect());
        let (tx, rx) = pair.connect(Duration::from_millis(20), 2);
        let mut delivered = 0;
        while tx
            .isend(&numbered(delivered, 8))
            .and_then(|r| r.wait())
            .is_ok()
        {
            assert_eq!(index_of(&rx.recv_timeout(WAIT).expect("recv")), delivered);
            delivered += 1;
        }
        let before = tx.stats();
        assert_eq!(before.send_failures, 1);
        let requests: Vec<_> = (0..SENDS)
            .map(|i| tx.isend(&numbered(i as u32, 8)).expect("isend"))
            .collect();
        for req in requests {
            match req.wait_timeout(WAIT) {
                Err(SendError::DeliveryFailed(_)) => {}
                other => panic!("a request of a failed train resolved {other:?}"),
            }
        }
        let after = tx.stats();
        assert_eq!(after.send_failures, 1 + SENDS, "counted per message");
        assert_eq!(after.messages_sent - before.messages_sent, SENDS);
        // Three transmissions per session; 200 sessions of one message
        // would be 600 frames.
        let frames = after.packets_sent - before.packets_sent;
        assert!(frames < SENDS, "{frames} frames: no message shared one");
        assert_eq!(rx.stats().messages_received, u64::from(delivered));
        pair.shutdown();
    });
}

/// `close()` lands among 10,000 `isend`s that run the pipeline themselves:
/// every request issued resolves, whichever side of the close it fell on,
/// with error control and without ([`RINGS`]).
#[test]
fn close_racing_inline_sends_leaves_no_request_dangling() {
    const SENDS: usize = 10_000;
    on_both_packages(|pkg| {
        for ring in RINGS {
            let pair = Pair::hpi_ring(pkg, ring);
            let issued = Arc::new(AtomicUsize::new(0));
            let (conn, count, p) = (pair.tx.clone(), Arc::clone(&issued), Arc::clone(pkg));
            let sender = pkg.spawn_typed("sender", move || {
                let mut requests = Vec::new();
                for i in 0..SENDS {
                    match conn.isend(&numbered(i as u32, 64)) {
                        Ok(req) => requests.push(req),
                        Err(e) => assert_eq!(e, SendError::Closed),
                    }
                    if count.fetch_add(1, Ordering::Relaxed) % 64 == 0 {
                        p.yield_now(); // green threads: let the closer look
                    }
                }
                requests
            });
            while issued.load(Ordering::Relaxed) < SENDS / 3 {
                pkg.yield_now();
            }
            pair.tx.close();
            let requests = sender.join().expect("sender");
            assert!(!requests.is_empty());
            for req in requests {
                match req.wait_timeout(WAIT) {
                    Ok(()) | Err(SendError::Closed | SendError::DeliveryFailed(_)) => {}
                    Err(e) => panic!("request left dangling: {e}"),
                }
            }
            pair.shutdown();
        }
    });
}

/// 2,000 reliable round trips — then 300 ms of nothing. Over a ring
/// narrow enough to keep error control each message is acknowledged some
/// tens of microseconds after it armed a 200 ms retransmission timeout;
/// over a wide one a message that waited for the credit of the one before
/// armed the 500 ms end of that wait. Either way the event loops wake for
/// the one deadline each connection still has armed, not for 2,000
/// deadlines nobody waits for.
#[test]
fn silence_after_acknowledged_traffic_is_free() {
    on_both_packages(|pkg| {
        for ring in RINGS {
            silence_after_round_trips_is_free(Pair::hpi_ring(pkg, ring), pkg);
        }
    });
}

fn silence_after_round_trips_is_free(pair: Pair, pkg: &Pkg) {
    let echo_conn = pair.rx.clone();
    let echo = pkg.spawn_typed("echo", move || {
        for _ in 0..2_000 {
            let msg = echo_conn.recv_timeout(WAIT).expect("ping");
            echo_conn.send(&msg).expect("echo");
        }
    });
    for i in 0..2_000 {
        pair.tx.send(&numbered(i, 64)).expect("ping");
        assert_eq!(index_of(&pair.tx.recv_timeout(WAIT).expect("echo")), i);
    }
    echo.join().expect("echo thread");
    let before = [pair.a.reactor().stats(), pair.b.reactor().stats()];
    pkg.sleep(Duration::from_millis(300));
    let after = [pair.a.reactor().stats(), pair.b.reactor().stats()];
    for (before, after) in before.iter().zip(&after) {
        let woke = after.polls - before.polls;
        assert!(woke < 16, "{woke} loop iterations in silence: {after}");
    }
    pair.shutdown();
}

/// Shutting a node down waits for no acknowledgement of what it sent —
/// and nothing waits as if one could come. Here the data frame cannot
/// even arrive: the link is cut once the connection is up. The message in
/// flight fails `Closed` and the node is down at once, not a close linger
/// (250 ms) later.
#[test]
fn a_node_shut_down_with_unacknowledged_data_does_not_linger() {
    on_both_packages(|pkg| {
        let net = SimNet::new(7);
        let (la, lb) = SimLinkPair::create(&net, LinkPolicy::lan(), LinkPolicy::lan());
        let a = NcsNode::builder("alice")
            .thread_package(Arc::clone(pkg))
            .build();
        let b = NcsNode::builder("bob")
            .thread_package(Arc::clone(pkg))
            .build();
        a.attach_peer("bob", Arc::clone(&la) as _);
        b.attach_peer("alice", lb);
        let tx = a
            .connect("bob", ConnectionConfig::reliable())
            .expect("connect");
        let _rx = b.accept_default().expect("accept");
        la.set_outbound_up(false);
        let req = tx.isend(b"never acknowledged").expect("isend");
        let start = Instant::now();
        a.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
        assert_eq!(req.wait_timeout(WAIT).err(), Some(SendError::Closed));
        b.shutdown();
    });
}
