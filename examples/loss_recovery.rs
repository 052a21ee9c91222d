//! Selective repeat versus a lossy ATM network: demonstrates the paper's
//! §3.2 error control recovering every SDU through cell loss, and what the
//! same loss does to a connection configured without error control.
//!
//! Cell loss compounds per frame: at 0.1% cell loss, an 86-cell (4 KB)
//! AAL5 frame dies with probability ~8% — enough to force regular
//! selective-repeat recoveries without drowning the link.
//!
//! Run with: `cargo run --example loss_recovery`

use std::sync::Arc;
use std::time::Duration;

use ncs::atm::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs::core::link::AciLink;
use ncs::core::{ConnectionConfig, ErrorControlAlg, FlowControlAlg, NcsNode};
use ncs::transport::aci::AciFabric;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 0.1% cell-loss link: with ~86 cells per 4 KB SDU, roughly one SDU
    // in twelve dies, so most multi-SDU messages need recovery.
    let net = NetworkBuilder::new()
        .host("tx")
        .host("rx")
        .switch("sw")
        .link(
            "tx",
            "sw",
            LinkSpec::oc3().with_fault(FaultSpec::cell_loss(0.001, 7)),
        )
        .link("rx", "sw", LinkSpec::oc3())
        .build()?;
    let fabric = AciFabric::start(net, PumpConfig::speedup(8.0));

    let tx_node = NcsNode::builder("tx").build();
    let rx_node = NcsNode::builder("rx").build();
    let dev_tx = Arc::new(fabric.device("tx")?);
    let dev_rx = Arc::new(fabric.device("rx")?);
    tx_node.attach_peer("rx", AciLink::new(dev_tx, "rx", QosParams::unspecified()));
    rx_node.attach_peer("tx", AciLink::new(dev_rx, "tx", QosParams::unspecified()));

    // Reliable connection: selective repeat + credit flow control.
    let reliable = ConnectionConfig::builder()
        .sdu_size(4 * 1024)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: true,
        })
        .error_control(ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(250),
            max_retries: 30,
        })
        .build();
    let conn_tx = tx_node.connect("rx", reliable)?;
    let conn_rx = rx_node.accept_default()?;

    let message: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    println!(
        "sending {} bytes (= {} SDUs, ~{} cells) across a 0.1% cell-loss link...",
        message.len(),
        message.len().div_ceil(4096),
        (message.len() / 48) + message.len().div_ceil(4096),
    );
    for round in 1..=5 {
        conn_tx
            .isend(&message)?
            .wait_timeout(Duration::from_secs(60))?;
        let got = conn_rx.recv_timeout(Duration::from_secs(60))?;
        assert_eq!(got, message, "round {round} corrupted");
        println!("round {round}: delivered intact");
    }
    let s = conn_tx.stats();
    println!(
        "\nselective repeat at work: {} packets sent, {} were retransmissions, {} acks received",
        s.packets_sent, s.retransmissions, s.acks_received
    );
    println!(
        "its timer: {} timeouts; smoothed round trip {} us from {} samples, \
         waiting {} us now (configured: 250000)",
        s.ack_timeouts, s.srtt_us, s.ack_rtt_samples, s.rto_us
    );
    assert!(
        s.retransmissions > 0,
        "a lossy link must force retransmissions"
    );
    println!("network counters: {}", fabric.stats());

    // The unreliable counterpart: same wire, no error control.
    let conn_u_tx = tx_node.connect("rx", ConnectionConfig::unreliable())?;
    let conn_u_rx = rx_node.accept_default()?;
    let mut delivered = 0u32;
    const SENT: u32 = 60;
    for i in 0..SENT {
        conn_u_tx.send(&vec![i as u8; 4000])?;
    }
    while conn_u_rx.recv_timeout(Duration::from_millis(500)).is_ok() {
        delivered += 1;
    }
    println!(
        "\nwithout error control: {delivered}/{SENT} messages survived the same link \
         (the rest died with their lost cells)"
    );
    assert!(delivered < SENT, "some loss is statistically certain here");
    assert!(delivered > 0, "most messages should survive 8% frame loss");

    tx_node.shutdown();
    rx_node.shutdown();
    fabric.shutdown();
    Ok(())
}
