//! Accepting is reactor work: one accept task per node takes the channels
//! peers open, and each pending channel waits for exactly one thing — its
//! hello or its peer's `attach_peer` — without making any other channel
//! wait with it. A connection is that one channel: the acceptor's
//! `AcceptConn` is its first frame back, and its feedback and its close
//! follow on it. The dialing node is played by hand where the order of
//! events matters: raw channels, hello frames written by the test. Every
//! test runs on the kernel package and as a green thread of the user-level
//! one. Last, what a node's shutdown does to the accepting it was doing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::link::{AciLink, HpiLinkPair, PeerLink, SciLink};
use ncs_core::packet::{CtrlMsg, DataHeader, Hello};
use ncs_core::{AcceptError, ConnectionConfig, NcsNode};
use ncs_threads::{KernelPackage, SwitchMech, ThreadPackage, UserConfig, UserRuntime};
use ncs_transport::aci::AciFabric;
use ncs_transport::sci::{self, SciListener};
use ncs_transport::{Connection, TransportError};

type Pkg = Arc<dyn ThreadPackage>;

/// Runs `test` on the kernel package and, at the same time, as the primary
/// green thread of a user-level runtime (native context switches).
fn on_both_packages(test: fn(&Pkg)) {
    let green = std::thread::spawn(move || {
        let config = UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        };
        UserRuntime::new(config).run(move |pkg| test(&(Arc::new(pkg) as Pkg)));
    });
    test(&(Arc::new(KernelPackage::new()) as Pkg));
    green.join().expect("under the user-level package");
}

fn node(name: &str, pkg: &Pkg) -> NcsNode {
    NcsNode::builder(name)
        .thread_package(Arc::clone(pkg))
        .build()
}

/// A listener of its own for a node, and the address peers dial.
fn listener() -> (Arc<SciListener>, std::net::SocketAddr) {
    let l = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind"));
    let addr = l.local_addr().expect("addr");
    (l, addr)
}

/// Two hosts, "alice" and "bob", on one ATM switch.
fn atm_fabric() -> Arc<AciFabric> {
    use atm_sim::{LinkSpec, NetworkBuilder, PumpConfig};
    let net = NetworkBuilder::new()
        .switch("sw")
        .host("alice")
        .host("bob")
        .link("alice", "sw", LinkSpec::oc3())
        .link("bob", "sw", LinkSpec::oc3())
        .build()
        .expect("atm network");
    AciFabric::start(net, PumpConfig::speedup(4.0))
}

/// The next frame on a raw channel, polled so that a green thread waiting
/// here lets its package's event loops run.
fn next_frame(
    pkg: &Pkg,
    channel: &dyn Connection,
    within: Duration,
) -> Result<Vec<u8>, TransportError> {
    let deadline = Instant::now() + within;
    loop {
        match channel.try_recv() {
            Ok(Some(frame)) => return Ok(frame),
            Ok(None) | Err(TransportError::Timeout) if Instant::now() < deadline => {
                pkg.sleep(Duration::from_millis(1));
            }
            Ok(None) => return Err(TransportError::Timeout),
            Err(e) => return Err(e),
        }
    }
}

fn data_hello(node: &str, initiator_conn: u32) -> Vec<u8> {
    Hello {
        node: node.to_owned(),
        initiator_conn,
        config: ConnectionConfig::reliable(),
    }
    .encode()
}

// -- (a) A silent channel --------------------------------------------------

fn silent_channel_delays_nobody(pkg: &Pkg) {
    let (la, addr_a) = listener();
    let (lb, addr_b) = listener();
    let (hpi_a, hpi_b) = HpiLinkPair::create();
    let wirings: [(Arc<dyn PeerLink>, Arc<dyn PeerLink>); 2] = [
        (hpi_a, hpi_b),
        (SciLink::new(addr_b, la), SciLink::new(addr_a, lb)),
    ];
    let mut nodes = Vec::new();
    let mut silent = Vec::new();
    for (i, (link_a, link_b)) in wirings.into_iter().enumerate() {
        let a = node(&format!("ann{i}"), pkg);
        let b = node(&format!("ben{i}"), pkg);
        a.attach_peer(b.name(), Arc::clone(&link_a));
        b.attach_peer(a.name(), link_b);
        // Ahead of everything `connect` opens: a channel that says nothing.
        silent.push((link_a.open_channel().expect("open"), Instant::now()));
        let start = Instant::now();
        let conn_a = a
            .connect(b.name(), ConnectionConfig::reliable())
            .expect("connect");
        let conn_b = b.accept_default().expect("accept");
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "connecting behind a silent {} channel took {took:?}",
            link_a.interface()
        );
        conn_a
            .isend(b"through")
            .and_then(|r| r.wait())
            .expect("send");
        assert_eq!(conn_b.recv().expect("recv"), b"through");
        nodes.extend([a, b]);
    }
    // The silent channels are hung up at their hello deadline (5 s).
    for (channel, opened) in &silent {
        let end = next_frame(pkg, channel.as_ref(), Duration::from_secs(10));
        assert_eq!(end.err(), Some(TransportError::Closed));
        let after = opened.elapsed();
        assert!(
            after >= Duration::from_millis(4_500),
            "closed after {after:?}"
        );
    }
    nodes.iter().for_each(NcsNode::shutdown);
}

#[test]
fn a_channel_that_never_says_hello_delays_nobody() {
    on_both_packages(silent_channel_delays_nobody);
}

// -- (b) A dial ahead of the attach ---------------------------------------

/// `a` dials `b` 300 ms before `b` attaches it, over `to_b` / `to_a`. `b`
/// is already accepting — for a peer called "anchor", over `anchor`, which
/// shares its accept source with `to_a` where the interface shares one.
fn dial_then_attach(
    pkg: &Pkg,
    to_b: Arc<dyn PeerLink>,
    to_a: Arc<dyn PeerLink>,
    anchor: Arc<dyn PeerLink>,
) {
    let interface = to_b.interface();
    let a = node("alice", pkg);
    let b = node("bob", pkg);
    a.attach_peer("bob", to_b);
    b.attach_peer("anchor", anchor);
    let attaching = {
        let b = b.clone();
        pkg.spawn(
            "late-attach",
            Box::new(move || {
                b.thread_package().sleep(Duration::from_millis(300));
                b.attach_peer("alice", to_a);
            }),
        )
    };
    let start = Instant::now();
    let conn_a = a
        .connect("bob", ConnectionConfig::reliable())
        .unwrap_or_else(|e| panic!("{interface}: a dial ahead of the attach: {e}"));
    let took = start.elapsed();
    assert!(
        took >= Duration::from_millis(250) && took < Duration::from_secs(3),
        "{interface}: accepted {took:?} after the dial, the attach came at 300 ms"
    );
    let conn_b = b.accept_default().expect("accept");
    assert_eq!(conn_b.peer_name(), "alice");
    conn_a
        .isend(b"early bird")
        .and_then(|r| r.wait())
        .expect("send");
    assert_eq!(conn_b.recv().expect("recv"), b"early bird");
    conn_b
        .isend(b"and back")
        .and_then(|r| r.wait())
        .expect("send");
    assert_eq!(conn_a.recv().expect("recv"), b"and back");
    attaching.join().expect("attach thread");
    a.shutdown();
    b.shutdown();
}

fn dial_ahead_of_the_attach(pkg: &Pkg) {
    // A link of its own per peer.
    let (to_b, to_a) = HpiLinkPair::create();
    let (anchor, _far_end) = HpiLinkPair::create();
    dial_then_attach(pkg, to_b, to_a, anchor);

    // One listener for all of bob's peers.
    let (la, addr_a) = listener();
    let (lb, addr_b) = listener();
    dial_then_attach(
        pkg,
        SciLink::new(addr_b, la),
        SciLink::new(addr_a, Arc::clone(&lb)),
        SciLink::new(addr_a, lb),
    );

    // One ATM adapter for all of bob's peers.
    use atm_sim::QosParams;
    let fabric = atm_fabric();
    let dev_a = Arc::new(fabric.device("alice").expect("device"));
    let dev_b = Arc::new(fabric.device("bob").expect("device"));
    let qos = QosParams::unspecified();
    dial_then_attach(
        pkg,
        AciLink::new(dev_a, "bob", qos),
        AciLink::new(Arc::clone(&dev_b), "alice", qos),
        AciLink::new(dev_b, "alice", qos),
    );
    fabric.shutdown();
}

#[test]
fn a_dial_that_beats_the_peers_attach_is_accepted_once_the_peer_attaches() {
    on_both_packages(dial_ahead_of_the_attach);
}

// -- A peer that forgot this node and attached it anew -------------------------

fn redial_after_reattach(pkg: &Pkg) {
    let (la, addr_a) = listener();
    let (lb, addr_b) = listener();
    let (hpi_a, hpi_b) = HpiLinkPair::create();
    let wirings: [(Arc<dyn PeerLink>, Arc<dyn PeerLink>); 2] = [
        (hpi_a, hpi_b),
        (SciLink::new(addr_b, la), SciLink::new(addr_a, lb)),
    ];
    for (link_a, link_b) in wirings {
        let (a, b) = (node("ann", pkg), node("ben", pkg));
        a.attach_peer("ben", link_a);
        b.attach_peer("ann", Arc::clone(&link_b));
        let exchange = |a: &NcsNode, b: &NcsNode| {
            let conn_a = a
                .connect("ben", ConnectionConfig::reliable())
                .expect("connect");
            let conn_b = b.accept_default().expect("accept");
            // Feedback crosses each connection's channel against its data.
            conn_a.isend(b"over").and_then(|r| r.wait()).expect("send");
            assert_eq!(conn_b.recv().expect("recv"), b"over");
            conn_b.isend(b"back").and_then(|r| r.wait()).expect("send");
            assert_eq!(conn_a.recv().expect("recv"), b"back");
        };
        exchange(&a, &b);
        // Ben lets go of Ann and attaches her anew: the connection she
        // opened ends under her. Her next dial owes nothing to it, and
        // goes through at once.
        b.forget_peer("ann");
        b.attach_peer("ann", link_b);
        let start = Instant::now();
        exchange(&a, &b);
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "the second dial took {took:?}"
        );
        a.shutdown();
        b.shutdown();
    }
}

#[test]
fn a_peer_that_attached_this_node_anew_is_dialed_again() {
    on_both_packages(redial_after_reattach);
}

// -- (c) Every arrival order -------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    DataHello(usize),
    Attach,
}

/// All orders of the three steps.
fn orders() -> Vec<[Step; 3]> {
    let steps = [Step::DataHello(0), Step::DataHello(1), Step::Attach];
    let mut all = Vec::new();
    for a in 0..3 {
        for b in (0..3).filter(|&b| b != a) {
            let c = 3 - a - b;
            all.push([steps[a], steps[b], steps[c]]);
        }
    }
    all
}

/// One hand-played dialer called `name` against `acceptor`, its steps in
/// the given order: whichever it is, two connections are accepted, and
/// each channel's first frame back is its `AcceptConn`. A repeat of a
/// hello — what a dialer whose `AcceptConn` was lost sends — is answered
/// with the `AcceptConn` again and opens no third connection.
fn dial_by_hand(
    pkg: &Pkg,
    acceptor: &NcsNode,
    name: &str,
    order: [Step; 3],
    open: &dyn Fn() -> Box<dyn Connection>,
    link: Arc<dyn PeerLink>,
) {
    const INITIATOR: [u32; 2] = [40, 41];
    let what = format!("{} {order:?}", link.interface());
    // The channels exist first, in the order a dialer opens them; what
    // varies is when each says what it is, and when the acceptor attaches.
    let data = [open(), open()];
    let mut link = Some(link);
    for step in order {
        match step {
            Step::DataHello(i) => data[i]
                .send(&data_hello(name, INITIATOR[i]))
                .expect("hello"),
            Step::Attach => acceptor.attach_peer(name, link.take().expect("one attach")),
        }
    }
    let next_ctrl = |i: usize| {
        let frame = next_frame(pkg, data[i].as_ref(), Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{what}: channel {i} went quiet: {e}"));
        CtrlMsg::decode(&frame).expect("a control message")
    };
    // Exactly two connections, each announced first on its own channel.
    let mut acceptor_conn = [u32::MAX; 2];
    for (i, id) in acceptor_conn.iter_mut().enumerate() {
        match next_ctrl(i) {
            CtrlMsg::AcceptConn {
                initiator_conn,
                acceptor_conn,
            } if initiator_conn == INITIATOR[i] => *id = acceptor_conn,
            other => panic!("{what}: {other:?} first on channel {i}"),
        }
    }
    assert_ne!(acceptor_conn[0], acceptor_conn[1], "{what}");
    let accepted: Vec<_> = (0..2)
        .map(|_| acceptor.accept(Duration::from_secs(5)).expect("accept"))
        .collect();
    assert!(accepted.iter().all(|c| c.peer_name() == name), "{what}");
    // The dialer of the first did not hear its AcceptConn, and says its
    // hello again.
    data[0]
        .send(&data_hello(name, INITIATOR[0]))
        .expect("hello");
    let again = CtrlMsg::AcceptConn {
        initiator_conn: INITIATOR[0],
        acceptor_conn: acceptor_conn[0],
    };
    assert_eq!(next_ctrl(0), again, "{what}");
    assert_eq!(
        acceptor.accept(Duration::from_millis(10)).err(),
        Some(AcceptError::Timeout),
        "{what}: a third connection"
    );
    // Traffic: one message each way of the channel's control loop — the
    // feedback comes back on the channel, behind the AcceptConn: over SCI
    // the acknowledgement, with the credit edge in it; over HPI, whose
    // ring no schedule can overrun, the edge alone.
    let feedback = if what.starts_with("HPI") {
        "credit"
    } else {
        "ack"
    };
    for i in 0..2 {
        let header = DataHeader {
            conn: acceptor_conn[i],
            src_conn: INITIATOR[i],
            session: 0,
            seq: 0,
            end: true,
            tagged: false,
        };
        let mut frame = Vec::new();
        header.encode_frame_into(&[i as u8; 8], &mut frame);
        data[i].send(&frame).expect("data");
        let conn = accepted
            .iter()
            .find(|c| c.id() == acceptor_conn[i])
            .expect("the accepted connection");
        assert_eq!(conn.recv().expect("recv"), [i as u8; 8], "{what}");
        let answer = match next_ctrl(i) {
            CtrlMsg::Ack {
                conn,
                edge: Some(_),
                ..
            } => (conn, "ack"),
            CtrlMsg::Credit { conn, .. } => (conn, "credit"),
            other => panic!("{what}: unexpected {other:?}"),
        };
        assert_eq!(answer, (INITIATOR[i], feedback), "{what}");
    }
    // Forgetting the dialer closes both: each channel's last frame is its
    // CloseConn, then the channel ends.
    acceptor.forget_peer(name);
    for i in 0..2 {
        let close = CtrlMsg::CloseConn { conn: INITIATOR[i] };
        assert_eq!(next_ctrl(i), close, "{what}");
        let end = next_frame(pkg, data[i].as_ref(), Duration::from_secs(5));
        assert_eq!(end.err(), Some(TransportError::Closed), "{what}");
    }
}

fn every_arrival_order(pkg: &Pkg) {
    let acceptor = node("acceptor", pkg);
    // Over a link of its own per dialer...
    for (i, order) in orders().into_iter().enumerate() {
        let (ours, theirs) = HpiLinkPair::create();
        let open = move || ours.open_channel().expect("open");
        dial_by_hand(pkg, &acceptor, &format!("hpi-{i}"), order, &open, theirs);
    }
    // ...and over one listener shared by all of them, on which the
    // acceptor already listens when the first dials.
    let (listener, addr) = listener();
    acceptor.attach_peer("anchor", SciLink::new(addr, Arc::clone(&listener)));
    for (i, order) in orders().into_iter().enumerate() {
        let open = move || Box::new(sci::connect(addr).expect("dial")) as Box<dyn Connection>;
        // The hand-played dialer has no listener: the link is never dialed.
        let link = SciLink::new(addr, Arc::clone(&listener));
        dial_by_hand(pkg, &acceptor, &format!("sci-{i}"), order, &open, link);
    }
    assert_eq!(acceptor.connection_count(), 0);
    acceptor.shutdown();
}

#[test]
fn every_arrival_order_of_hellos_and_attach_yields_two_connections() {
    on_both_packages(every_arrival_order);
}

/// Established TCP sockets of this process's network namespace with an
/// end on one of `ports`, as the `(local, remote)` addresses of their
/// `/proc/net/tcp` rows (a connection over loopback shows once per end).
#[cfg(target_os = "linux")]
fn sockets_on(ports: [u16; 2]) -> std::collections::HashSet<(String, String)> {
    let table = std::fs::read_to_string("/proc/net/tcp").expect("/proc/net/tcp");
    let ports = ports.map(|port| format!(":{port:04X}"));
    let on = |end: &str| ports.iter().any(|port| end.ends_with(port));
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            // local, remote, state ("01": established).
            (fields.len() > 3 && fields[3] == "01" && (on(fields[1]) || on(fields[2])))
                .then(|| (fields[1].to_owned(), fields[2].to_owned()))
        })
        .collect()
}

/// A connected SCI pair holds one socket per connection at each end, and
/// nothing beside them: no control channel per peer.
#[cfg(target_os = "linux")]
fn one_socket_per_connection(pkg: &Pkg) {
    let (la, addr_a) = listener();
    let (lb, addr_b) = listener();
    let (a, b) = (node("ann", pkg), node("ben", pkg));
    a.attach_peer("ben", SciLink::new(addr_b, la));
    b.attach_peer("ann", SciLink::new(addr_a, lb));
    // (A port the system handed out again may still carry a connection
    // another test left open, which may close meanwhile: only the sockets
    // these connections add count.)
    let ends = || sockets_on([addr_a.port(), addr_b.port()]);
    let before = ends();
    let mut conns = Vec::new();
    for n in 1..=3 {
        // Dialed from either side in turn.
        let (from, to, peer) = if n % 2 == 1 {
            (&a, &b, "ben")
        } else {
            (&b, &a, "ann")
        };
        let dialed = from
            .connect(peer, ConnectionConfig::reliable())
            .expect("connect");
        let accepted = to.accept_default().expect("accept");
        dialed.isend(b"x").and_then(|r| r.wait()).expect("send");
        assert_eq!(accepted.recv().expect("recv"), b"x");
        conns.push((dialed, accepted));
        assert_eq!(ends().difference(&before).count(), 2 * n, "{n} connections");
    }
    a.shutdown();
    b.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn a_connected_sci_pair_holds_one_socket_per_connection() {
    on_both_packages(one_socket_per_connection);
}

// -- (d) The bounds ------------------------------------------------------------

fn bounds_hold(pkg: &Pkg) {
    let acceptor = node("acceptor", pkg);
    let (listener, addr) = listener();
    acceptor.attach_peer("anchor", SciLink::new(addr, Arc::clone(&listener)));
    let dial = || sci::connect(addr).expect("dial");

    // Not NCS's: hung up as soon as it has spoken.
    let garbage = dial();
    garbage.send(&[0xFF, 0xFF, 0xFF]).expect("send");
    let end = next_frame(pkg, &garbage, Duration::from_secs(5));
    assert_eq!(end.err(), Some(TransportError::Closed));

    // Channels of nodes nobody has attached wait — 64 of them. The 65th
    // makes the oldest give way, and only the oldest.
    let ghosts: Vec<_> = (0..65)
        .map(|i| {
            let channel = dial();
            channel
                .send(&data_hello(&format!("ghost-{i}"), i))
                .expect("hello");
            channel
        })
        .collect();
    let end = next_frame(pkg, &ghosts[0], Duration::from_secs(5));
    assert_eq!(end.err(), Some(TransportError::Closed));
    for ghost in &ghosts[1..] {
        assert_eq!(ghost.try_recv(), Ok(None));
    }
    // One of them is attached after all: its channel is in use at once.
    acceptor.attach_peer("ghost-64", SciLink::new(addr, Arc::clone(&listener)));
    let accept = next_frame(pkg, &ghosts[64], Duration::from_secs(5)).expect("AcceptConn");
    assert!(matches!(
        CtrlMsg::decode(&accept),
        Ok(CtrlMsg::AcceptConn {
            initiator_conn: 64,
            ..
        })
    ));
    let conn = acceptor.accept_default().expect("accept");
    assert_eq!(conn.peer_name(), "ghost-64");

    // A dialer that gave up while its channel waited for the attach:
    // nothing is built on what it left behind.
    let quitter = dial();
    quitter.send(&data_hello("quitter", 3)).expect("hello");
    pkg.sleep(Duration::from_millis(50));
    drop(quitter);
    pkg.sleep(Duration::from_millis(50));
    acceptor.attach_peer("quitter", SciLink::new(addr, Arc::clone(&listener)));
    assert_eq!(
        acceptor.accept(Duration::from_millis(300)).err(),
        Some(AcceptError::Timeout)
    );

    // Shutdown hangs up everything still waiting (and the channel in use,
    // behind the connection's CloseConn).
    acceptor.shutdown();
    for ghost in &ghosts[1..] {
        let end = loop {
            if let Err(end) = next_frame(pkg, ghost, Duration::from_secs(5)) {
                break end;
            }
        };
        assert_eq!(end, TransportError::Closed);
    }
}

#[test]
fn a_garbage_hello_is_hung_up_on_and_unattached_channels_are_bounded() {
    on_both_packages(bounds_hold);
}

// -- (e) Shutdown -----------------------------------------------------------

/// The accept task is one of the things a node's shutdown retires. With a
/// channel still owing its hello (its 5 s deadline armed) and a caller
/// waiting in `accept`, the shutdown returns at once, leaves no task
/// behind, tells the caller, and hangs the channel up.
fn shutdown_retires_accepting(pkg: &Pkg) {
    let (link_a, link_b) = HpiLinkPair::create();
    let a = node("ann", pkg);
    a.attach_peer("ben", link_a);
    let silent = link_b.open_channel().expect("open");
    let waiting = {
        let a = a.clone();
        std::thread::spawn(move || a.accept(Duration::from_secs(30)).map(drop))
    };
    pkg.sleep(Duration::from_millis(20));
    let start = Instant::now();
    a.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
    assert_eq!(a.reactor().stats().tasks_left_at_shutdown, 0);
    let end = next_frame(pkg, silent.as_ref(), Duration::from_millis(50));
    assert_eq!(end.err(), Some(TransportError::Closed));
    assert_eq!(waiting.join().expect("accept"), Err(AcceptError::Shutdown));
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "accept told after {took:?}"
    );
}

#[test]
fn shutdown_retires_the_accept_task_and_tells_a_waiting_accept() {
    on_both_packages(shutdown_retires_accepting);
}
