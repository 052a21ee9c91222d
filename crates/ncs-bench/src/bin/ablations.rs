//! Ablation studies for the design choices the paper argues for:
//!
//! 1. **SDU size** (§3.2): "a large SDU size generates high throughput,
//!    but results in high overhead by retransmission when the SDUs are
//!    lost. By keeping the size small, efficiency can be maximized but
//!    segmentation overheads are introduced." Measured as transfer time of
//!    a fixed message across a lossy ATM link, per SDU size.
//! 2. **Dynamic vs static credits** (§3.3): "active connections get more
//!    credits" — dynamic grant growth should beat a fixed small window on
//!    a bulk transfer.
//! 3. **Selective repeat vs go-back-N** (§3.2): under loss, selective
//!    retransmission should move fewer packets than window restarts.
//! 4. **PVM's XDR negotiation** (baseline modelling): pre-3.3 ForceXdr vs
//!    the negotiated Default on a same-format pair.

use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::common::EndpointSpec;
use baselines::pvm::{PvmEncoding, PvmEndpoint, PvmRoute};
use ncs_bench::{env_f64, env_usize};
use ncs_core::link::AciLink;
use ncs_core::{ConnectionConfig, ErrorControlAlg, FlowControlAlg, NcsNode};
use ncs_transport::aci::AciFabric;
use netmodel::{Pacer, PlatformProfile};

/// Builds a lossy two-host ATM fabric and a connected NCS pair.
fn atm_pair(
    cell_loss: f64,
    seed: u64,
    speedup: f64,
    config: ConnectionConfig,
) -> (
    Arc<AciFabric>,
    NcsNode,
    NcsNode,
    ncs_core::NcsConnection,
    ncs_core::NcsConnection,
) {
    atm_pair_wan(cell_loss, seed, speedup, config, 0)
}

/// As [`atm_pair`] with `wan_ms` of one-way propagation per link.
fn atm_pair_wan(
    cell_loss: f64,
    seed: u64,
    speedup: f64,
    config: ConnectionConfig,
    wan_ms: u64,
) -> (
    Arc<AciFabric>,
    NcsNode,
    NcsNode,
    ncs_core::NcsConnection,
    ncs_core::NcsConnection,
) {
    use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
    let base = if wan_ms > 0 {
        LinkSpec::oc3_wan(wan_ms)
    } else {
        LinkSpec::oc3()
    };
    let net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link(
            "a",
            "sw",
            base.clone()
                .with_fault(FaultSpec::cell_loss(cell_loss, seed)),
        )
        .link("b", "sw", base)
        .build()
        .expect("topology");
    let fabric = AciFabric::start(net, PumpConfig::speedup(speedup));
    let a = NcsNode::builder("a").build();
    let b = NcsNode::builder("b").build();
    let dev_a = Arc::new(fabric.device("a").unwrap());
    let dev_b = Arc::new(fabric.device("b").unwrap());
    a.attach_peer("b", AciLink::new(dev_a, "b", QosParams::unspecified()));
    b.attach_peer("a", AciLink::new(dev_b, "a", QosParams::unspecified()));
    let tx = a.connect("b", config).expect("connect");
    let rx = b.accept_default().expect("accept");
    (fabric, a, b, tx, rx)
}

fn reliable_with_sdu(sdu: usize) -> ConnectionConfig {
    ConnectionConfig::builder()
        .sdu_size(sdu)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 8,
            dynamic: true,
        })
        .error_control(ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(120),
            max_retries: 60,
        })
        .build()
}

fn transfer(
    tx: &ncs_core::NcsConnection,
    rx: &ncs_core::NcsConnection,
    message: &[u8],
    rounds: usize,
) -> Duration {
    let start = Instant::now();
    for _ in 0..rounds {
        tx.isend(message)
            .and_then(|r| r.wait_timeout(Duration::from_secs(120)))
            .expect("send");
        let got = rx.recv_timeout(Duration::from_secs(120)).expect("recv");
        assert_eq!(got.len(), message.len());
    }
    start.elapsed() / rounds as u32
}

fn ablation_sdu_size(rounds: usize) {
    println!("\n=== ablation 1: SDU size vs loss (§3.2 trade-off) ===");
    println!("64 KB message, 0.05% cell loss, selective repeat");
    println!(
        "{:>8}{:>14}{:>12}{:>14}",
        "SDU", "time/msg", "pkts sent", "retransmit %"
    );
    let message: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    for sdu in [1024usize, 4096, 16384, 49152] {
        let (fabric, a, b, tx, rx) = atm_pair(0.0005, 11, 16.0, reliable_with_sdu(sdu));
        let avg = transfer(&tx, &rx, &message, rounds);
        let s = tx.stats();
        println!(
            "{:>8}{:>14.2?}{:>12}{:>13.1}%",
            ncs_bench::human_size(sdu),
            avg,
            s.packets_sent,
            100.0 * s.retransmissions as f64 / s.packets_sent.max(1) as f64,
        );
        a.shutdown();
        b.shutdown();
        fabric.shutdown();
    }
    println!("-> small SDUs pay segmentation overhead; large SDUs pay bigger retransmissions");
}

fn ablation_credits(rounds: usize) {
    println!("\n=== ablation 2: dynamic vs static credits (§3.3) ===");
    println!("64 KB messages over a 5 ms WAN hop (window size binds throughput)");
    for (label, dynamic) in [("static", false), ("dynamic", true)] {
        let config = ConnectionConfig::builder()
            .sdu_size(4096)
            .flow_control(FlowControlAlg::CreditBased {
                initial_credits: 1,
                dynamic,
            })
            .error_control(ErrorControlAlg::SelectiveRepeat {
                timeout: Duration::from_secs(2),
                max_retries: 10,
            })
            .build();
        let (fabric, a, b, tx, rx) = atm_pair_wan(0.0, 1, 16.0, config, 5);
        let message = vec![0xA5u8; 64 * 1024];
        let avg = transfer(&tx, &rx, &message, rounds.max(8));
        let s = tx.stats();
        println!(
            "{label:>8}: {avg:>10.2?} per transfer, credits received {}",
            s.credits_received
        );
        a.shutdown();
        b.shutdown();
        fabric.shutdown();
    }
    println!("-> dynamic grants widen the window for the active connection");
}

fn ablation_sr_vs_gbn(rounds: usize) {
    println!("\n=== ablation 3: selective repeat vs go-back-N (§3.2) ===");
    println!("64 KB message (4 KB SDUs), 0.1% cell loss");
    let message: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 241) as u8).collect();
    for (label, ec) in [
        (
            "selective",
            ErrorControlAlg::SelectiveRepeat {
                timeout: Duration::from_millis(120),
                max_retries: 60,
            },
        ),
        (
            "go-back-n",
            ErrorControlAlg::GoBackN {
                window: 8,
                timeout: Duration::from_millis(120),
                max_retries: 120,
            },
        ),
    ] {
        let config = ConnectionConfig::builder()
            .sdu_size(4096)
            .flow_control(FlowControlAlg::CreditBased {
                initial_credits: 8,
                dynamic: true,
            })
            .error_control(ec)
            .build();
        let (fabric, a, b, tx, rx) = atm_pair(0.001, 23, 16.0, config);
        let avg = transfer(&tx, &rx, &message, rounds);
        let s = tx.stats();
        println!(
            "{label:>10}: {avg:>10.2?} per message, {} packets for {} useful ({} retransmissions)",
            s.packets_sent,
            16 * rounds,
            s.retransmissions,
        );
        a.shutdown();
        b.shutdown();
        fabric.shutdown();
    }
    println!("-> selective repeat resends only what was lost");
}

fn ablation_pvm_xdr(iters: usize, time_scale: f64) {
    println!("\n=== ablation 4: PVM ForceXdr (pre-3.3) vs negotiated Default ===");
    println!("same-format pair (SUN-4 <-> SUN-4), 32 KB messages");
    let sun = Arc::new(PlatformProfile::sun4());
    for (label, enc) in [
        ("Default", PvmEncoding::Default),
        ("ForceXdr", PvmEncoding::ForceXdr),
    ] {
        let pacer = Arc::new(Pacer::new(time_scale));
        let spec = |p: &Arc<PlatformProfile>| EndpointSpec {
            local: Arc::clone(p),
            remote: Arc::clone(p),
            pacer: Arc::clone(&pacer),
        };
        let (ca, cb) = ncs_transport::pipe::pair(ncs_bench::atm_wire(time_scale));
        let mut client = PvmEndpoint::with_options(Box::new(ca), spec(&sun), enc, PvmRoute::Direct);
        let server = PvmEndpoint::with_options(Box::new(cb), spec(&sun), enc, PvmRoute::Direct);
        let avg =
            ncs_bench::echo_roundtrip(&mut client, Box::new(server), 32 * 1024, iters, time_scale);
        println!(
            "{label:>9}: {:.2} model ms per round trip",
            avg.as_secs_f64() * 1e3
        );
    }
    println!("-> the PVM 3.3 format negotiation is worth ~2x on large same-format messages");
}

fn main() {
    let rounds = env_usize("NCS_ITERS", 3);
    let time_scale = env_f64("NCS_TIME_SCALE", 0.25);
    println!("NCS ablation studies (rounds={rounds})");
    ablation_sdu_size(rounds);
    ablation_credits(rounds);
    ablation_sr_vs_gbn(rounds);
    ablation_pvm_xdr(rounds.max(5), time_scale);
}
