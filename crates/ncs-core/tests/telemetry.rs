//! Telemetry-plane exactness: `ConnectionStats` counted at the delivery
//! point (so zero-copy `MsgView` and bypass deliveries are never missed),
//! `retransmissions` matching a deterministic fault plan one for one, and
//! the flight recorder surviving genuinely concurrent recording under
//! both thread packages.

use std::sync::Arc;
use std::time::Duration;

use ncs_core::link::{AciLink, HpiLinkPair};
use ncs_core::{ConnectionConfig, EventKind, FlightRecorder, NcsNode};
use ncs_threads::{
    KernelPackage, SwitchMech, ThreadPackage, ThreadPackageExt, UserConfig, UserRuntime,
};
use ncs_transport::aci::AciFabric;

fn hpi_nodes() -> (NcsNode, NcsNode) {
    let a = NcsNode::builder("alice").build();
    let b = NcsNode::builder("bob").build();
    let (la, lb) = HpiLinkPair::with_capacity(1024);
    a.attach_peer("bob", la);
    b.attach_peer("alice", lb);
    (a, b)
}

/// Two nodes over the ATM simulator with an exact drop plan on alice's
/// uplink (the forward direction of the alice--sw link): best-effort cell
/// `i` of that direction is dropped iff `i` is in `plan`. Everything else
/// is fault-free.
fn planned_loss_aci_pair(plan: Vec<u64>) -> (NcsNode, NcsNode, Arc<AciFabric>) {
    use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
    let a = NcsNode::builder("alice").build();
    let b = NcsNode::builder("bob").build();
    let net = NetworkBuilder::new()
        .switch("sw")
        .host("alice")
        .host("bob")
        .link(
            "alice",
            "sw",
            LinkSpec::oc3().with_fault(FaultSpec::drop_plan(plan)),
        )
        .link("bob", "sw", LinkSpec::oc3())
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

/// Selective repeat without flow control, so the only forward traffic is
/// the connect handshake followed by data cells — the fault plan's
/// indices address data frames unambiguously.
fn sr_only_config() -> ConnectionConfig {
    ConnectionConfig::builder()
        .sdu_size(4 * 1024)
        .flow_control(ncs_core::FlowControlAlg::None)
        .error_control(ncs_core::ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(150),
            max_retries: 30,
        })
        .build()
}

/// Every planned cell drop kills exactly one data frame, and selective
/// repeat repairs each with exactly one retransmission — so the
/// `retransmissions` counter must equal the plan size, not merely exceed
/// zero. The drops are placed where no timer has a say in the repair: a
/// message is a full SDU (86 cells) followed by an 8-byte end SDU (one
/// cell), each acknowledged before the next is sent, and every planned
/// cell lies inside a first SDU, so the end SDU arrives, the receiver
/// answers with its bitmap and the sender repairs from that. A timeout
/// the host's scheduling provokes on top (the timer adapts to the link,
/// and the link is fast) sends one frame of its own and is counted in
/// `ack_timeouts`, which the comparison takes out. (The only other cell
/// on that uplink is the hello's, ahead of them all: alice receives no
/// data, so she sends no feedback, and bob's acknowledgements ride the
/// reverse direction of the same VC, best-effort like the data, where
/// the plan drops nothing.)
#[test]
fn retransmissions_match_the_fault_plan_exactly() {
    const MSGS: usize = 100;
    const SDU: usize = 4 * 1024;
    // Cells per message, and per repair of a first SDU.
    const MESSAGE: u64 = 86 + 1;
    const REPAIR: u64 = 86;
    // Messages 5, 40 and 90 lose the 20th cell of their first SDU; the
    // hello is cell 0, and every repair before a message shifts it. The
    // last drop falls late: its repair must still be in the flight
    // recorder's ring (256 events, a handful per message) at the end.
    let plan: Vec<u64> = [5, 40, 90]
        .iter()
        .zip(0..)
        .map(|(message, repairs)| 1 + message * MESSAGE + repairs * REPAIR + 20)
        .collect();
    let planned = plan.len() as u64;
    let (a, b, fabric) = planned_loss_aci_pair(plan);
    let conn_a = a.connect("bob", sr_only_config()).expect("connect");
    let conn_b = b.accept_default().expect("accept");

    for i in 0..MSGS {
        let mut want = vec![i as u8; SDU + 8];
        want[..8].copy_from_slice(&(i as u64).to_be_bytes());
        conn_a.isend(&want).and_then(|r| r.wait()).expect("send");
        let got = conn_b
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("message {i} never arrived: {e}"));
        assert_eq!(got, want, "message {i} corrupted");
    }

    let stats_a = conn_a.stats();
    let stats_b = conn_b.stats();
    assert_eq!(fabric.stats().cells_lost, planned);
    assert_eq!(
        stats_a.retransmissions - stats_a.ack_timeouts,
        planned,
        "repairs must match the drop plan exactly: {stats_a:?}"
    );
    assert_eq!(stats_a.messages_sent, MSGS as u64);
    assert_eq!(
        stats_b.messages_received, MSGS as u64,
        "every message delivered exactly once: {stats_b:?}"
    );
    // The flight recorder saw the repairs too.
    let events = conn_a.flight().dump();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Retransmit),
        "no Retransmit events recorded"
    );
    a.shutdown();
    b.shutdown();
    fabric.shutdown();
}

/// `messages_received` is counted at the delivery queue, so zero-copy
/// `MsgView` receives and the §3.1 bypass path (no FC/EC threads) are
/// counted exactly — the regression this guards is the bypass path
/// skipping the counter entirely.
#[test]
fn messages_received_exact_under_bypass_and_msgview() {
    const MSGS: usize = 60;
    let (a, b) = hpi_nodes();
    let conn_a = a
        .connect("bob", ConnectionConfig::unreliable())
        .expect("connect");
    let conn_b = b.accept_default().expect("accept");
    for i in 0..MSGS as u32 {
        conn_a.send(&i.to_be_bytes()).expect("send");
    }
    // Drain through all three receive flavours: zero-copy views, request
    // handles, and detaching recv — every one lands on the same delivery
    // queue and must count.
    for i in 0..MSGS as u32 {
        let got: Vec<u8> = match i % 3 {
            0 => conn_b
                .recv_view(Duration::from_secs(10))
                .expect("recv_view")
                .as_slice()
                .to_vec(),
            1 => conn_b
                .irecv()
                .wait_timeout(Duration::from_secs(10))
                .expect("irecv")
                .as_slice()
                .to_vec(),
            _ => conn_b.recv_timeout(Duration::from_secs(10)).expect("recv"),
        };
        assert_eq!(got, i.to_be_bytes().to_vec(), "message {i}");
    }
    let stats_b = conn_b.stats();
    assert_eq!(
        stats_b.messages_received, MSGS as u64,
        "bypass + MsgView deliveries must all be counted: {stats_b:?}"
    );
    assert_eq!(conn_a.stats().messages_sent, MSGS as u64);
    a.shutdown();
    b.shutdown();
}

/// Hammers one flight recorder from many genuinely concurrent threads;
/// the ring must stay tear-tolerant (every dumped event is one that some
/// thread recorded — no torn kinds or lengths) while the kill switch
/// flips mid-flight.
fn exercise_concurrent_recording(pkg: &Arc<dyn ThreadPackage>) {
    const THREADS: usize = 4;
    const EVENTS: usize = 500;
    let recorder = FlightRecorder::new(64);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let r = recorder.clone();
        handles.push(pkg.spawn_typed(&format!("rec-{t}"), move || {
            for i in 0..EVENTS {
                r.record(EventKind::Isend, t as u32, i as u32, t * 1000 + i);
                if i % 100 == 0 {
                    // The kill switch must be safe to flip concurrently.
                    r.set_enabled(i % 200 == 0);
                    r.set_enabled(true);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("recorder thread");
    }
    let events = recorder.dump();
    assert!(!events.is_empty(), "nothing recorded");
    assert!(events.len() <= 64, "dump exceeded ring capacity");
    for e in &events {
        assert_eq!(e.kind, EventKind::Isend, "torn event kind: {e:?}");
        let t = e.tag as usize;
        assert!(t < THREADS, "torn tag: {e:?}");
        assert_eq!(
            e.len as usize,
            t * 1000 + e.seq as usize,
            "len/seq pair torn across writers: {e:?}"
        );
    }
}

#[test]
fn concurrent_recording_kernel_package() {
    let pkg: Arc<dyn ThreadPackage> = Arc::new(KernelPackage::new());
    exercise_concurrent_recording(&pkg);
}

#[test]
fn concurrent_recording_user_package() {
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(|pkg| {
        let pkg: Arc<dyn ThreadPackage> = Arc::new(pkg);
        exercise_concurrent_recording(&pkg);
    });
}
