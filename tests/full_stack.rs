//! Workspace-level integration tests: NCS end-to-end across every
//! substrate crate at once — green threads under the runtime, the ATM
//! simulator as the wire, the transports in between, the baselines beside
//! them.

use std::sync::Arc;
use std::time::Duration;

use ncs::atm::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs::core::link::{AciLink, HpiLinkPair, SciLink};
use ncs::core::{ConnectionConfig, ErrorControlAlg, FlowControlAlg, NcsNode};
use ncs::transport::aci::AciFabric;
use ncs::transport::sci::SciListener;

/// NCS over the full ATM stack: AAL5 VCs, signaling, switch, loss — with
/// selective repeat keeping the data intact.
#[test]
fn ncs_over_atm_with_loss_recovers() {
    let net = NetworkBuilder::new()
        .host("tx")
        .host("rx")
        .switch("sw")
        .link(
            "tx",
            "sw",
            LinkSpec::oc3().with_fault(FaultSpec::cell_loss(0.002, 99)),
        )
        .link("rx", "sw", LinkSpec::oc3())
        .build()
        .expect("topology");
    let fabric = AciFabric::start(net, PumpConfig::speedup(16.0));
    let tx_node = NcsNode::builder("tx").build();
    let rx_node = NcsNode::builder("rx").build();
    let dev_tx = Arc::new(fabric.device("tx").unwrap());
    let dev_rx = Arc::new(fabric.device("rx").unwrap());
    tx_node.attach_peer("rx", AciLink::new(dev_tx, "rx", QosParams::unspecified()));
    rx_node.attach_peer("tx", AciLink::new(dev_rx, "tx", QosParams::unspecified()));

    let config = ConnectionConfig::builder()
        .sdu_size(4096)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: true,
        })
        .error_control(ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(150),
            max_retries: 40,
        })
        .build();
    let conn_tx = tx_node.connect("rx", config).expect("connect over ATM");
    let conn_rx = rx_node.accept_default().expect("accept");

    let message: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    conn_tx
        .isend(&message)
        .and_then(|r| r.wait_timeout(Duration::from_secs(60)))
        .expect("reliable delivery over lossy ATM");
    let got = conn_rx.recv_timeout(Duration::from_secs(60)).expect("recv");
    assert_eq!(got, message);
    assert!(
        conn_tx.stats().retransmissions > 0,
        "cell loss must force retransmissions: {}",
        conn_tx.stats()
    );
    tx_node.shutdown();
    rx_node.shutdown();
    fabric.shutdown();
}

/// NCS over real TCP sockets (the SCI interface).
#[test]
fn ncs_over_sci_tcp() {
    let la = Arc::new(SciListener::bind("127.0.0.1:0").unwrap());
    let lb = Arc::new(SciListener::bind("127.0.0.1:0").unwrap());
    let addr_a = la.local_addr().unwrap();
    let addr_b = lb.local_addr().unwrap();
    let a = NcsNode::builder("sci-a").build();
    let b = NcsNode::builder("sci-b").build();
    a.attach_peer("sci-b", SciLink::new(addr_b, Arc::clone(&la)));
    b.attach_peer("sci-a", SciLink::new(addr_a, Arc::clone(&lb)));

    // TCP is reliable: the bypass configuration is the right one (§3.1).
    let tx = a.connect("sci-b", ConnectionConfig::unreliable()).unwrap();
    let rx = b.accept_default().unwrap();
    let payload: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
    tx.send(&payload).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), payload);
    // And the reverse direction.
    rx.send(b"ack from b").unwrap();
    assert_eq!(
        tx.recv_timeout(Duration::from_secs(10)).unwrap(),
        b"ack from b"
    );
    a.shutdown();
    b.shutdown();
}

/// The full NCS runtime hosted on the user-level (green thread) package.
#[test]
fn ncs_runtime_on_green_threads() {
    use ncs::threads::{SwitchMech, ThreadPackage, UserConfig, UserRuntime};
    let delivered = UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(|pkg| {
        let (la, lb) = HpiLinkPair::create();
        let a = NcsNode::builder("green-a")
            .thread_package(Arc::new(pkg.clone()) as Arc<dyn ThreadPackage>)
            .build();
        let b = NcsNode::builder("green-b").build(); // kernel side
        a.attach_peer("green-b", la);
        b.attach_peer("green-a", lb);
        let tx = a.connect("green-b", ConnectionConfig::reliable()).unwrap();
        let rx = b.accept_default().unwrap();
        tx.isend(b"from the green world")
            .and_then(|r| r.wait())
            .unwrap();
        let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        a.shutdown();
        b.shutdown();
        got
    });
    assert_eq!(delivered, b"from the green world");
}

/// Baselines and NCS side by side over the same wire shape, verifying the
/// harness invariants that the figures rely on.
#[test]
fn all_four_systems_echo_correctly() {
    use ncs::comparators::common::{EndpointSpec, MessageSystem};
    use ncs::comparators::{mpi::MpiEndpoint, p4::P4Endpoint, pvm::PvmEndpoint};
    use ncs::transport::hpi;

    fn echo<S: MessageSystem + 'static>(mut client: S, mut server: S, size: usize) {
        let payload = vec![7u8; size];
        let t = std::thread::spawn(move || {
            let m = server.recv(9).unwrap();
            server.send(9, &m).unwrap();
            server
        });
        client.send(9, &payload).unwrap();
        assert_eq!(client.recv(9).unwrap(), payload);
        t.join().unwrap();
    }

    for size in [1usize, 4096, 40_000] {
        let (a, b) = hpi::pair(4096);
        echo(
            P4Endpoint::new(Box::new(a), EndpointSpec::unmodelled()),
            P4Endpoint::new(Box::new(b), EndpointSpec::unmodelled()),
            size,
        );
        let (a, b) = hpi::pair(4096);
        echo(
            PvmEndpoint::new(Box::new(a), EndpointSpec::unmodelled()),
            PvmEndpoint::new(Box::new(b), EndpointSpec::unmodelled()),
            size,
        );
        let (a, b) = hpi::pair(4096);
        echo(
            MpiEndpoint::new(Box::new(a), EndpointSpec::unmodelled()),
            MpiEndpoint::new(Box::new(b), EndpointSpec::unmodelled()),
            size,
        );
    }
}

/// The §4.2 thread-bypass aliases (`send_direct`, `recv_direct`) across
/// the ATM stack.
#[test]
fn direct_mode_over_atm() {
    let net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link("a", "sw", LinkSpec::oc3())
        .link("b", "sw", LinkSpec::oc3())
        .build()
        .unwrap();
    let fabric = AciFabric::start(net, PumpConfig::speedup(16.0));
    let a = NcsNode::builder("a").build();
    let b = NcsNode::builder("b").build();
    let dev_a = Arc::new(fabric.device("a").unwrap());
    let dev_b = Arc::new(fabric.device("b").unwrap());
    a.attach_peer("b", AciLink::new(dev_a, "b", QosParams::unspecified()));
    b.attach_peer("a", AciLink::new(dev_b, "a", QosParams::unspecified()));

    let tx = a.connect("b", ConnectionConfig::direct()).unwrap();
    let rx = b.accept_default().unwrap();
    let t = std::thread::spawn(move || rx.recv_direct(Duration::from_secs(20)));
    tx.send_direct(b"procedures across ATM").unwrap();
    assert_eq!(t.join().unwrap().unwrap(), b"procedures across ATM");
    a.shutdown();
    b.shutdown();
    fabric.shutdown();
}

/// Two NCS nodes, many concurrent connections with mixed configurations.
#[test]
fn mixed_configuration_connections_coexist() {
    let a = NcsNode::builder("mix-a").build();
    let b = NcsNode::builder("mix-b").build();
    let (la, lb) = HpiLinkPair::with_capacity(2048);
    a.attach_peer("mix-b", la);
    b.attach_peer("mix-a", lb);

    let configs = vec![
        ConnectionConfig::reliable(),
        ConnectionConfig::unreliable(),
        ConnectionConfig::builder()
            .sdu_size(1024)
            .flow_control(FlowControlAlg::CreditBased {
                initial_credits: 8,
                dynamic: false,
            })
            .error_control(ErrorControlAlg::GoBackN {
                window: 8,
                timeout: Duration::from_millis(200),
                max_retries: 10,
            })
            .build(),
        ConnectionConfig::builder()
            .sdu_size(2048)
            .flow_control(FlowControlAlg::RateBased {
                packets_per_sec: 50_000,
                burst: 16,
            })
            .error_control(ErrorControlAlg::None)
            .build(),
    ];
    let mut pairs = Vec::new();
    for c in configs {
        let tx = a.connect("mix-b", c).unwrap();
        let rx = b.accept_default().unwrap();
        pairs.push((tx, rx));
    }
    let mut handles = Vec::new();
    for (i, (tx, rx)) in pairs.into_iter().enumerate() {
        handles.push(std::thread::spawn(move || {
            let msg = vec![i as u8 + 1; 5_000];
            tx.isend(&msg)
                .and_then(|r| r.wait_timeout(Duration::from_secs(20)))
                .unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_secs(20)).unwrap(), msg);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    a.shutdown();
    b.shutdown();
}
