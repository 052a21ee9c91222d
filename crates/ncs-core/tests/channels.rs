//! End-to-end tests of the per-thread [`Channel`] API: channel isolation
//! under genuinely concurrent multi-threaded send/recv (a proptest over
//! message interleavings), and the sharded-delivery regression — a
//! blocked receiver on one channel must never stall delivery on another.
//! Coverage spans both thread packages and both a lossless HPI link and
//! seeded-loss ACI (retransmissions reordering the wire).
//!
//! [`Channel`]: ncs_core::Channel

use std::sync::Arc;
use std::time::Duration;

use ncs_core::link::{AciLink, HpiLinkPair};
use ncs_core::{Channel, ConnectionConfig, NcsConnection, NcsNode};
use ncs_threads::{
    KernelPackage, SwitchMech, ThreadPackage, ThreadPackageExt, UserConfig, UserRuntime,
};
use ncs_transport::aci::AciFabric;
use proptest::prelude::*;

fn hpi_nodes() -> (NcsNode, NcsNode) {
    let a = NcsNode::builder("alice").build();
    let b = NcsNode::builder("bob").build();
    let (la, lb) = HpiLinkPair::with_capacity(1024);
    a.attach_peer("bob", la);
    b.attach_peer("alice", lb);
    (a, b)
}

/// Two nodes wired host--switch--host over the ATM simulator with seeded
/// cell loss on both uplinks, so selective repeat must retransmit (and
/// thereby reorder the wire under the channels).
fn lossy_aci_pair(cell_loss: f64, seed: u64) -> (NcsNode, NcsNode, Arc<AciFabric>) {
    use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
    let a = NcsNode::builder("alice").build();
    let b = NcsNode::builder("bob").build();
    let spec = |s: u64| LinkSpec::oc3().with_fault(FaultSpec::cell_loss(cell_loss, s));
    let net = NetworkBuilder::new()
        .switch("sw")
        .host("alice")
        .host("bob")
        .link("alice", "sw", spec(seed))
        .link("bob", "sw", spec(seed + 1))
        .build()
        .expect("atm network");
    let fabric = AciFabric::start(net, PumpConfig::speedup(4.0));
    let dev_a = Arc::new(fabric.device("alice").expect("device alice"));
    let dev_b = Arc::new(fabric.device("bob").expect("device bob"));
    a.attach_peer("bob", AciLink::new(dev_a, "bob", QosParams::unspecified()));
    b.attach_peer(
        "alice",
        AciLink::new(dev_b, "alice", QosParams::unspecified()),
    );
    (a, b, fabric)
}

/// SDUs of 512 bytes: small messages queued behind a session in flight
/// share one frame, which grows to a full SDU when many are queued, and a
/// frame has to cross two links that each lose 1 % of its cells. A dozen
/// cells make it four times in five; the 86 cells of a 4 KiB SDU would
/// make it once in six, and every lost frame also costs the sender one of
/// its four credits until the starvation probe finds it again.
fn lossy_config() -> ConnectionConfig {
    ConnectionConfig::builder()
        .sdu_size(512)
        .flow_control(ncs_core::FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: true,
        })
        .error_control(ncs_core::ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(150),
            max_retries: 30,
        })
        .build()
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

const CHANNELS: u16 = 3;

/// The deterministic message body for message `i` of channel `c`.
fn body(c: u16, i: usize, seed: u8) -> Vec<u8> {
    vec![seed ^ (c as u8).wrapping_mul(31).wrapping_add(i as u8); (i % 7) + 1]
}

/// Drives `plan` through per-channel sender and receiver threads spawned
/// on `pkg`: one sender and one receiver thread per channel, all running
/// concurrently, each receiver asserting per-channel FIFO of exactly its
/// channel's bytes. Panics (inside a thread, surfaced by join) on any
/// cross-channel leak, reorder, or corruption.
fn exercise_concurrent_channels(
    tx: &NcsConnection,
    rx: &NcsConnection,
    pkg: &Arc<dyn ThreadPackage>,
    plan: &[(u16, u8)],
) {
    // Split the interleaved plan into per-channel expectation lists.
    let mut per_chan: Vec<Vec<Vec<u8>>> = vec![Vec::new(); CHANNELS as usize];
    for (i, &(c, seed)) in plan.iter().enumerate() {
        per_chan[c as usize].push(body(c, i, seed));
    }
    let mut handles = Vec::new();
    for c in 0..CHANNELS {
        let msgs = per_chan[c as usize].clone();
        let ch: Channel = tx.channel(c);
        handles.push(pkg.spawn_typed(&format!("chan-tx-{c}"), move || {
            // Submission order fixes per-channel delivery order; hold the
            // requests so every send is also confirmed complete.
            let reqs: Vec<_> = msgs
                .iter()
                .map(|m| ch.isend(m).expect("channel isend"))
                .collect();
            for r in reqs {
                r.wait_timeout(Duration::from_secs(30))
                    .expect("channel send completion");
            }
        }));
        let msgs = per_chan[c as usize].clone();
        let ch: Channel = rx.channel(c);
        handles.push(pkg.spawn_typed(&format!("chan-rx-{c}"), move || {
            for (i, want) in msgs.iter().enumerate() {
                let got = ch
                    .recv_view(Duration::from_secs(30))
                    .unwrap_or_else(|e| panic!("channel {c} message {i} never arrived: {e}"));
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "channel {c} message {i} crossed or corrupted"
                );
                assert_eq!(got.tag(), Some(ch.tag()));
            }
        }));
    }
    for h in handles {
        h.join().expect("channel worker thread");
    }
}

fn kernel_pkg() -> Arc<dyn ThreadPackage> {
    Arc::new(KernelPackage::new())
}

fn sample_plan() -> Vec<(u16, u8)> {
    (0..24u8)
        .map(|i| (u16::from(i) % CHANNELS, i ^ 0xA5))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of messages across channels, driven by one
    /// concurrent sender thread and one concurrent receiver thread per
    /// channel, arrives per-channel, in per-channel order, intact.
    #[test]
    fn channels_never_cross_under_concurrent_threads(
        plan in proptest::collection::vec((0u16..CHANNELS, 0u8..=255), 1..24),
    ) {
        let (a, b) = hpi_nodes();
        let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
        exercise_concurrent_channels(&ca, &cb, &kernel_pkg(), &plan);
        a.shutdown();
        b.shutdown();
    }
}

/// The same concurrency exercise with the workers as M:1 green threads of
/// the user-level package.
#[test]
fn channels_never_cross_user_package() {
    let (a, b) = hpi_nodes();
    let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
    let plan = sample_plan();
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(move |pkg| {
        exercise_concurrent_channels(&ca, &cb, &(Arc::new(pkg) as Arc<dyn ThreadPackage>), &plan);
    });
    a.shutdown();
    b.shutdown();
}

/// Enough traffic for 1 % cell loss to bite: what crosses the wire is
/// some nine near-full SDUs, a hundred cells each way over two lossy
/// links — where the two dozen messages of [`sample_plan`] would be two
/// frames of a few cells, which the seeded loss misses.
fn lossy_plan() -> Vec<(u16, u8)> {
    (0..300u16)
        .map(|i| (i % CHANNELS, i as u8 ^ 0xA5))
        .collect()
}

/// Channel isolation holds when the wire itself reorders: seeded ACI cell
/// loss forces selective-repeat retransmissions, yet per-channel FIFO and
/// isolation must survive — under both thread packages.
#[test]
fn channels_never_cross_under_seeded_loss_aci() {
    let plan = lossy_plan();
    // Kernel package.
    {
        let (a, b, fabric) = lossy_aci_pair(0.01, 0xC0DE);
        let (ca, cb) = connect_pair(&a, &b, lossy_config());
        exercise_concurrent_channels(&ca, &cb, &kernel_pkg(), &plan);
        let stats = ca.stats();
        assert!(
            stats.retransmissions > 0,
            "seeded loss produced no retransmissions — fault injection inert? {stats:?}"
        );
        a.shutdown();
        b.shutdown();
        fabric.shutdown();
    }
    // User package.
    {
        let (a, b, fabric) = lossy_aci_pair(0.01, 0xD00D);
        let (ca, cb) = connect_pair(&a, &b, lossy_config());
        let plan = plan.clone();
        UserRuntime::new(UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        })
        .run(move |pkg| {
            exercise_concurrent_channels(
                &ca,
                &cb,
                &(Arc::new(pkg) as Arc<dyn ThreadPackage>),
                &plan,
            );
        });
        a.shutdown();
        b.shutdown();
        fabric.shutdown();
    }
}

/// The sharded-delivery regression: a receiver thread parked on an empty
/// channel holds only its own shard's waiter list, so traffic on another
/// channel flows undisturbed — and the parked receiver still completes
/// once its channel finally gets a message.
fn blocked_receiver_exercise(tx: &NcsConnection, rx: &NcsConnection, pkg: &Arc<dyn ThreadPackage>) {
    let starved = rx.channel(0);
    let busy_rx = rx.channel(1);
    let parked = pkg.spawn_typed("starved-rx", move || {
        starved
            .recv_view(Duration::from_secs(30))
            .expect("starved channel eventually delivers")
    });
    // With channel 0's receiver parked, channel 1 must flow promptly.
    let busy_tx = tx.channel(1);
    for i in 0..10u8 {
        busy_tx.isend(&[i; 4]).expect("busy isend");
        let got = busy_rx
            .recv_view(Duration::from_secs(10))
            .expect("busy channel stalled behind a parked receiver");
        assert_eq!(&*got, &[i; 4]);
    }
    // Release the parked receiver and confirm it was waiting all along.
    tx.channel(0).isend(b"wake").expect("wake isend");
    let woken = parked.join().expect("parked receiver thread");
    assert_eq!(&*woken, b"wake");
}

#[test]
fn blocked_receiver_does_not_stall_other_channels_hpi() {
    // Kernel package.
    {
        let (a, b) = hpi_nodes();
        let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
        blocked_receiver_exercise(&ca, &cb, &kernel_pkg());
        a.shutdown();
        b.shutdown();
    }
    // User package.
    {
        let (a, b) = hpi_nodes();
        let (ca, cb) = connect_pair(&a, &b, ConnectionConfig::unreliable());
        UserRuntime::new(UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        })
        .run(move |pkg| {
            blocked_receiver_exercise(&ca, &cb, &(Arc::new(pkg) as Arc<dyn ThreadPackage>));
        });
        a.shutdown();
        b.shutdown();
    }
}

#[test]
fn blocked_receiver_does_not_stall_other_channels_seeded_loss_aci() {
    let (a, b, fabric) = lossy_aci_pair(0.01, 0xFEED);
    let (ca, cb) = connect_pair(&a, &b, lossy_config());
    blocked_receiver_exercise(&ca, &cb, &kernel_pkg());
    a.shutdown();
    b.shutdown();
    fabric.shutdown();
}
