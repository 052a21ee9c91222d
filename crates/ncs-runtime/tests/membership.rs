//! Membership-service integration: a real `RendezvousServer` with real
//! `MemberAgent` subscribers over loopback sockets — heartbeats, failure
//! detection, graceful leave, and rejoin-with-state-replay, end to end.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::Reactor;
use ncs_runtime::rendezvous;
use ncs_runtime::{
    ClusterConfig, ClusterNode, MemberAgent, MembershipConfig, MembershipMetrics, RendezvousServer,
    RvMsg, View,
};
use ncs_transport::sci::{self, SciConnection, SciListener};
use ncs_transport::Connection as _;

type ViewLog = Arc<parking_lot::Mutex<Vec<View>>>;

/// An event loop for member agents to run on.
fn event_loop() -> Arc<Reactor> {
    Reactor::new(Arc::new(ncs_threads::KernelPackage::new()), 1)
}

fn sink(log: &ViewLog) -> Arc<dyn Fn(&View) + Send + Sync> {
    let log = Arc::clone(log);
    Arc::new(move |v: &View| log.lock().push(v.clone()))
}

/// Spins until `pred` holds over the log, or panics after `timeout`.
fn wait_for(log: &ViewLog, timeout: Duration, what: &str, pred: impl Fn(&[View]) -> bool) {
    let deadline = Instant::now() + timeout;
    loop {
        if pred(&log.lock()) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; saw {:?}",
            log.lock()
                .iter()
                .map(|v| (v.id, v.joined.clone(), v.left.clone(), v.dead.clone()))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Registers `world` dummy ranks so the roster seals (membership epoch 1).
fn seal_world(server: &RendezvousServer, world: u32) -> Vec<SocketAddr> {
    let ncsd = server.addr();
    let addrs: Vec<SocketAddr> = (0..world)
        .map(|r| format!("127.0.0.1:{}", 42_000 + r).parse().unwrap())
        .collect();
    let handles: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(r, &a)| {
            std::thread::spawn(move || {
                rendezvous::register(ncsd, r as u32, world, a, Duration::from_secs(10))
                    .expect("register")
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(server.roster_complete());
    addrs
}

#[test]
fn subscribers_see_seed_death_and_rejoin_views() {
    let cfg = MembershipConfig::fast();
    let server = RendezvousServer::start_with("127.0.0.1:0", 3, cfg.clone()).expect("ncsd");
    let reactor = event_loop();
    seal_world(&server, 3);

    // Ranks 0 and 1 run agents; rank 2 subscribes, then goes silent.
    let logs: Vec<ViewLog> = (0..3).map(|_| ViewLog::default()).collect();
    let mut agents: Vec<MemberAgent> = (0..3)
        .map(|r| {
            MemberAgent::start(
                &reactor,
                server.addr(),
                r,
                0,
                cfg.clone(),
                MembershipMetrics::detached(),
                sink(&logs[r as usize]),
            )
            .expect("agent")
        })
        .collect();

    // Everyone receives the sealed roster as epoch 1, full world.
    for (r, log) in logs.iter().enumerate() {
        wait_for(
            log,
            Duration::from_secs(5),
            &format!("rank {r} seed view"),
            |vs| vs.iter().any(|v| v.id == 1 && v.is_full()),
        );
    }

    // Kill rank 2's heartbeats: the detector must declare it dead and the
    // survivors must see the death view.
    agents.pop().unwrap().stop();
    let detect_start = Instant::now();
    wait_for(&logs[0], Duration::from_secs(5), "death view", |vs| {
        vs.iter().any(|v| v.dead == vec![2])
    });
    // Silence → survivor's sink, end to end over sockets: a generous
    // bound (CI runners stall). The tight one, death at the first sweep
    // past `dead_after` and within 3 heartbeat intervals, is held on
    // virtual time by `membership_props.rs`'s
    // `a_silent_member_dies_at_the_first_sweep_past_dead_after`.
    assert!(
        detect_start.elapsed() < cfg.dead_after + Duration::from_secs(2),
        "detection took {:?}",
        detect_start.elapsed()
    );
    let dead_view = logs[0]
        .lock()
        .iter()
        .find(|v| v.dead == vec![2])
        .cloned()
        .unwrap();
    assert!(dead_view.member(2).is_none());
    assert_eq!(dead_view.members.len(), 2);

    // The server's own latest-view accessor agrees.
    assert_eq!(server.current_view().unwrap().id, dead_view.id);

    // A replacement process re-adopts slot 2 with a bumped incarnation
    // and gets the full state replay back.
    let new_addr: SocketAddr = "127.0.0.1:42999".parse().unwrap();
    let replay = rendezvous::rejoin(server.addr(), 2, 3, new_addr, 1, Duration::from_secs(5))
        .expect("rejoin");
    assert!(replay.is_full(), "{replay:?}");
    assert_eq!(replay.joined, vec![2]);
    assert_eq!(replay.member(2).unwrap().incarnation, 1);
    assert_eq!(replay.member(2).unwrap().addr, new_addr.to_string());

    // Survivors observe the rejoin view too.
    for log in &logs[..2] {
        wait_for(log, Duration::from_secs(5), "rejoin view", |vs| {
            vs.iter().any(|v| v.joined == vec![2] && v.is_full())
        });
    }

    // Views arrived in strictly increasing epoch order at every sink.
    for log in &logs[..2] {
        let ids: Vec<u64> = log.lock().iter().map(|v| v.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    // A rejoin retry with the same identity is idempotent, not an error.
    let again = rendezvous::rejoin(server.addr(), 2, 3, new_addr, 1, Duration::from_secs(5))
        .expect("idempotent rejoin");
    assert_eq!(again.id, replay.id);

    for mut a in agents {
        a.stop();
    }
}

#[test]
fn graceful_leave_publishes_a_left_view() {
    let cfg = MembershipConfig::fast();
    let server = RendezvousServer::start_with("127.0.0.1:0", 2, cfg.clone()).expect("ncsd");
    let reactor = event_loop();
    seal_world(&server, 2);

    let log = ViewLog::default();
    let mut agent = MemberAgent::start(
        &reactor,
        server.addr(),
        0,
        0,
        cfg.clone(),
        MembershipMetrics::detached(),
        sink(&log),
    )
    .expect("agent");
    wait_for(&log, Duration::from_secs(5), "seed view", |vs| {
        vs.iter().any(|v| v.id == 1)
    });

    rendezvous::leave(server.addr(), 1, Duration::from_secs(5)).expect("leave");
    wait_for(&log, Duration::from_secs(5), "left view", |vs| {
        vs.iter().any(|v| v.left == vec![1])
    });
    let left = log
        .lock()
        .iter()
        .find(|v| v.left == vec![1])
        .cloned()
        .unwrap();
    assert!(left.member(1).is_none());
    assert!(!left.is_full());
    agent.stop();
}

#[test]
fn rejoin_requires_a_sealed_roster_and_valid_identity() {
    let cfg = MembershipConfig::fast();
    let server = RendezvousServer::start_with("127.0.0.1:0", 2, cfg).expect("ncsd");
    let addr: SocketAddr = "127.0.0.1:42123".parse().unwrap();

    // Before the roster seals there is no state to replay.
    let err = rendezvous::rejoin(server.addr(), 0, 2, addr, 1, Duration::from_secs(5))
        .expect_err("rejoin before seal must be refused");
    assert!(err.to_string().contains("not yet assembled"), "{err}");

    seal_world(&server, 2);

    // Out-of-range slots are refused even after the seal.
    let err = rendezvous::rejoin(server.addr(), 9, 2, addr, 1, Duration::from_secs(5))
        .expect_err("rank out of range must be refused");
    assert!(err.to_string().contains("out of range"), "{err}");

    // Wrong world size likewise.
    let err = rendezvous::rejoin(server.addr(), 0, 3, addr, 1, Duration::from_secs(5))
        .expect_err("world mismatch must be refused");
    assert!(err.to_string().contains("world size"), "{err}");
}

#[test]
fn heartbeat_metrics_populate_at_the_agent() {
    let cfg = MembershipConfig::fast();
    let server = RendezvousServer::start_with("127.0.0.1:0", 2, cfg.clone()).expect("ncsd");
    let reactor = event_loop();
    seal_world(&server, 2);

    let metrics = MembershipMetrics::detached();
    let log = ViewLog::default();
    let mut agent = MemberAgent::start(
        &reactor,
        server.addr(),
        0,
        0,
        cfg.clone(),
        metrics.clone(),
        sink(&log),
    )
    .expect("agent");
    wait_for(&log, Duration::from_secs(5), "seed view", |vs| {
        vs.iter().any(|v| v.id == 1)
    });
    // A few heartbeat round-trips must have landed in the histogram and
    // the epoch gauge must reflect the applied view.
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.heartbeat_rtt.count() < 2 {
        assert!(Instant::now() < deadline, "no heartbeat acks recorded");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.view_epoch.get(), 1);
    agent.stop();
}

/// The next frame `ncsd` sends on `conn`.
fn next_frame(conn: &SciConnection) -> RvMsg {
    let frame = conn.recv_timeout(Duration::from_secs(5)).expect("frame");
    RvMsg::decode(&frame).expect("decode")
}

/// A raw subscription for `rank`, and the view it was greeted with.
fn subscribe_raw(server: &RendezvousServer, rank: u32) -> (SciConnection, View) {
    let conn = sci::connect_retry(server.addr(), Duration::from_secs(5)).expect("dial");
    let subscribe = RvMsg::Subscribe {
        rank,
        incarnation: 0,
    };
    conn.send(&subscribe.encode()).expect("subscribe");
    match next_frame(&conn) {
        RvMsg::View { view } => (conn, view),
        other => panic!("subscription greeted with {other:?}"),
    }
}

/// A service at the default thresholds, whose failure-detector sweeps
/// are hundreds of milliseconds apart: a request that waited for one
/// would show.
fn default_server(world: u32) -> RendezvousServer {
    RendezvousServer::start_with("127.0.0.1:0", world, MembershipConfig::default()).expect("ncsd")
}

#[test]
fn heartbeats_are_answered_when_they_arrive() {
    let server = default_server(2);
    seal_world(&server, 2);
    let (conn, _) = subscribe_raw(&server, 0);
    let t0 = Instant::now();
    for seq in 1..=20 {
        let pulse = RvMsg::Heartbeat {
            rank: 0,
            seq,
            nanos: 0,
        };
        conn.send(&pulse.encode()).expect("pulse");
        match next_frame(&conn) {
            RvMsg::HeartbeatAck {
                seq: s, view: 1, ..
            } if s == seq => {}
            other => panic!("pulse {seq} answered with {other:?}"),
        }
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "20 heartbeat round trips took {took:?}"
    );
}

#[test]
fn the_roster_goes_out_when_the_last_rank_registers() {
    let server = default_server(2);
    let t0 = Instant::now();
    seal_world(&server, 2);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(20),
        "a 2-rank registration took {took:?}"
    );
}

#[test]
fn a_leave_reaches_the_other_subscribers_when_it_arrives() {
    let server = default_server(2);
    seal_world(&server, 2);
    let (watcher, _) = subscribe_raw(&server, 0);
    let t0 = Instant::now();
    rendezvous::leave(server.addr(), 1, Duration::from_secs(5)).expect("leave");
    match next_frame(&watcher) {
        RvMsg::View { view } => assert_eq!(view.left, vec![1], "{view:?}"),
        other => panic!("expected the leave view, got {other:?}"),
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(20),
        "the leave took {took:?} to reach a subscriber"
    );
}

#[test]
fn a_rank_that_goes_quiet_before_the_seal_does_not_empty_the_world() {
    let cfg = MembershipConfig {
        heartbeat_interval: Duration::from_millis(25),
        suspect_after: Duration::from_millis(100),
        dead_after: Duration::from_millis(200),
    };
    let server = RendezvousServer::start_with("127.0.0.1:0", 2, cfg.clone()).expect("ncsd");
    let reactor = event_loop();
    // Rank 0 subscribes before anyone registered, then falls silent for
    // three death thresholds — while it is not yet a member of anything.
    let mut early = MemberAgent::start(
        &reactor,
        server.addr(),
        0,
        0,
        cfg.clone(),
        MembershipMetrics::detached(),
        Arc::new(|_: &View| {}),
    )
    .expect("agent");
    early.stop();
    std::thread::sleep(cfg.dead_after * 3);

    seal_world(&server, 2);
    let view = server.current_view().expect("sealed view");
    assert!(view.id == 1 && view.is_full(), "{view:?}");
    let (_late, greeting) = subscribe_raw(&server, 1);
    assert!(greeting.id == 1 && greeting.is_full(), "{greeting:?}");
}

/// A raw subscriber that pulses heartbeats from a thread of its own, as
/// fast as its socket takes them, and never reads an answer. The thread
/// ends when a send fails: when ncsd hangs up, or when the flooder is
/// dropped, which closes its socket (and so ends a send blocked on it).
struct Flooder {
    conn: Arc<SciConnection>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Flooder {
    fn start(server: &RendezvousServer, rank: u32) -> Flooder {
        let conn = Arc::new(subscribe_raw(server, rank).0);
        let sender = Arc::clone(&conn);
        let thread = std::thread::spawn(move || {
            let pulse = |seq| RvMsg::Heartbeat {
                rank,
                seq,
                nanos: 0,
            };
            let mut seq = 0;
            while sender.send(&pulse(seq).encode()).is_ok() {
                seq += 1;
            }
        });
        Flooder {
            conn,
            thread: Some(thread),
        }
    }

    /// Whether ncsd has hung up on the flooder.
    fn hung_up(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| t.is_finished())
    }
}

impl Drop for Flooder {
    fn drop(&mut self) {
        self.conn.close();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A subscriber that stops reading costs the others nothing. While one
/// floods ncsd with heartbeats and reads none of the acks, another's
/// every heartbeat is acked within a second; ncsd hangs up on the
/// flooder once it owes it more than its outbox bound; and `stop()`
/// returns. Where answers were written under the service lock, the
/// flooder's full socket held that lock: the other's ack never came, the
/// detector stopped sweeping and `stop()` did not return. The limits are
/// liveness bounds — each one is missed by a stall, not by a slow run.
#[test]
fn a_subscriber_that_stops_reading_is_dropped_and_delays_no_other() {
    const ACK_WITHIN: Duration = Duration::from_secs(1);
    let mut server = default_server(2);
    seal_world(&server, 2);
    let (conn, _) = subscribe_raw(&server, 0);
    let flooder = Flooder::start(&server, 1);
    let t0 = Instant::now();
    // Pulse until a few acks have come back since the hang-up.
    let mut acks_since_hang_up = 0;
    for seq in 1.. {
        if acks_since_hang_up == 5 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "ncsd still served the flooder after 30 s"
        );
        let hung_up = flooder.hung_up();
        let pulse = RvMsg::Heartbeat {
            rank: 0,
            seq,
            nanos: 0,
        };
        conn.send(&pulse.encode()).expect("pulse");
        let deadline = Instant::now() + ACK_WITHIN;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let frame = conn.recv_timeout(left).unwrap_or_else(|e| {
                panic!("pulse {seq}: no ack within {ACK_WITHIN:?} ({e}) beside a flooder")
            });
            // Anything else is a view: the flooder's rank declared dead.
            if let RvMsg::HeartbeatAck { seq: s, .. } = RvMsg::decode(&frame).expect("decode") {
                if s == seq {
                    break;
                }
            }
        }
        acks_since_hang_up += u32::from(hung_up);
        std::thread::sleep(Duration::from_millis(5));
    }
    let (stopped, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = stopped.send(());
    });
    returned
        .recv_timeout(Duration::from_secs(5))
        .expect("stop() had not returned after 5 s");
    drop(flooder);
}

/// The names of the process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .map(|task| {
            let comm = task.expect("task").path().join("comm");
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_owned()
        })
        .collect()
}

/// Stopping a member waits for no service. With `ncsd` gone, the agent
/// redials; `MemberAgent::stop()` and an elastic rank's
/// `ClusterNode::shutdown()` must each still return within 1 s. That is a
/// liveness bound, not a timing: a thread that redialled for its 5 s
/// budget before it looked at its stop flag took 4.8 s here.
#[test]
fn a_member_stops_at_once_when_ncsd_is_gone() {
    const PROMPT: Duration = Duration::from_secs(1);
    let cfg = MembershipConfig {
        heartbeat_interval: Duration::from_millis(100),
        suspect_after: Duration::from_millis(600),
        dead_after: Duration::from_millis(1200),
    };
    let mut server = RendezvousServer::start_with("127.0.0.1:0", 2, cfg.clone()).expect("ncsd");
    let ncsd = server.addr();
    let ranks: Vec<_> = (0..2)
        .map(|rank| {
            std::thread::spawn(move || {
                ClusterNode::bootstrap(ClusterConfig::new(rank, 2, ncsd)).expect("bootstrap")
            })
        })
        .collect();
    let nodes: Vec<ClusterNode> = ranks.into_iter().map(|h| h.join().unwrap()).collect();
    nodes[0]
        .enable_membership_with(cfg.clone())
        .expect("membership");
    let log = ViewLog::default();
    let mut agent = MemberAgent::start(
        &nodes[1].reactor(),
        ncsd,
        1,
        0,
        cfg.clone(),
        MembershipMetrics::detached(),
        sink(&log),
    )
    .expect("agent");
    wait_for(&log, Duration::from_secs(5), "seed view", |vs| {
        !vs.is_empty()
    });
    nodes[0]
        .wait_view(|v| v.id == 1, Duration::from_secs(5))
        .expect("seed view");

    server.stop();
    // Some heartbeats on: both channels have dropped and are redialled.
    std::thread::sleep(3 * cfg.heartbeat_interval);
    let t0 = Instant::now();
    agent.stop();
    assert!(t0.elapsed() < PROMPT, "stop() took {:?}", t0.elapsed());
    let t0 = Instant::now();
    nodes[0].shutdown();
    assert!(t0.elapsed() < PROMPT, "shutdown() took {:?}", t0.elapsed());
    nodes[1].shutdown();
}

/// A member whose channel drops dials the service again and subscribes
/// anew, under the same rank and incarnation, then heartbeats on — and no
/// thread of its own does any of it. A bare listener plays `ncsd`.
#[test]
fn a_dropped_channel_is_dialled_again_and_subscribed_anew() {
    let listener = SciListener::bind("127.0.0.1:0").expect("listener");
    let reactor = event_loop();
    let mut agent = MemberAgent::start(
        &reactor,
        listener.local_addr().expect("addr"),
        3,
        7,
        MembershipConfig::fast(),
        MembershipMetrics::detached(),
        Arc::new(|_: &View| {}),
    )
    .expect("agent");
    let subscribe = RvMsg::Subscribe {
        rank: 3,
        incarnation: 7,
    };
    let first = listener
        .accept_timeout(Duration::from_secs(5))
        .expect("first");
    assert_eq!(next_frame(&first), subscribe);
    drop(first);
    let second = listener
        .accept_timeout(Duration::from_secs(5))
        .expect("a second dial");
    assert_eq!(next_frame(&second), subscribe);
    for _ in 0..3 {
        match next_frame(&second) {
            RvMsg::Heartbeat { rank: 3, .. } => {}
            other => panic!("expected a heartbeat, got {other:?}"),
        }
    }
    let names = thread_names();
    assert!(
        !names.iter().any(|n| n.starts_with("ncs-member-")),
        "{names:?}"
    );
    agent.stop();
}
