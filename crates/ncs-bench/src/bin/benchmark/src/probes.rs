//! Layer probes: tight-loop timings of public functions of each layer,
//! reported once per suite run (`--probes`), not per workload.
//!
//! A probe bounds what its layer can contribute to an end-to-end metric —
//! the README's probe table names which. Each reports the median over
//! batches, so a preempted batch does not move it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atm_sim::{LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs_collectives::{OpClass, TopologyPolicy};
use ncs_core::error_control::{
    AckInfo, GbnReceiver, GbnSender, ReceiverEc, ReceiverStep, SenderEc, SenderStep, SrReceiver,
    SrSender,
};
use ncs_core::packet::{CtrlMsg, DataHeader, DataPacket};
use ncs_core::{flow_control, BufPool, EventKind, FlightRecorder, FlowControlAlg, MetricsRegistry};
use ncs_runtime::membership::{MembershipConfig, MembershipTable};
use ncs_runtime::{RvMsg, Scenario, SimWorld};
use ncs_threads::sync::Mailbox;
use ncs_threads::{
    KernelPackage, SwitchMech, ThreadPackage, ThreadPackageExt, UserConfig, UserRuntime,
};
use ncs_transport::aci::AciFabric;
use ncs_transport::pipe::{self, PipeConfig};
use ncs_transport::{hpi, sci, Connection};

use crate::engine::{ladder_rtt_us, Port};
use crate::payload::Payloads;
use crate::stats;
use crate::workload::{Metric, Metrics};

/// Time each probe measures for. 26 probes: about eleven seconds in all.
const PROBE_BUDGET: Duration = Duration::from_millis(400);

/// Median nanoseconds per call of `f`, over batches of `batch` calls.
fn ns_per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    while started.elapsed() < PROBE_BUDGET || per_call.len() < 3 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&per_call)
}

fn header() -> DataHeader {
    DataHeader {
        conn: 1,
        src_conn: 2,
        session: 3,
        seq: 4,
        end: true,
        tagged: false,
    }
}

fn packet_encode_ns(len: usize) -> f64 {
    let (pool, payload, header) = (BufPool::new(), vec![0xA5u8; len], header());
    ns_per_call(1000, || {
        black_box(black_box(&header).encode_frame_pooled(black_box(&payload), &pool));
    })
}

fn packet_peek_4k_ns() -> f64 {
    let mut frame = Vec::new();
    header().encode_frame_into(&[0xA5u8; 4096], &mut frame);
    ns_per_call(1000, || {
        black_box(DataPacket::peek(black_box(&frame)).expect("own frame decodes"));
    })
}

fn ctrl_codec_ns() -> f64 {
    let msg = CtrlMsg::Credit {
        conn: 7,
        credits: 4,
    };
    let mut buf = Vec::new();
    ns_per_call(1000, || {
        black_box(&msg).encode_into(&mut buf);
        black_box(CtrlMsg::decode(black_box(&buf)).expect("own message decodes"));
    })
}

fn pool_get_drop_ns() -> f64 {
    let pool = BufPool::new();
    ns_per_call(1000, || drop(black_box(pool.get())))
}

/// One packet through the credit scheme: permit, transmit, receive, and
/// the grant fed back.
fn fc_credit_cycle_ns() -> f64 {
    let alg = FlowControlAlg::CreditBased {
        initial_credits: 4,
        dynamic: true,
    };
    let (mut tx, mut rx) = (flow_control::build(&alg), flow_control::build(&alg));
    let now = Instant::now();
    ns_per_call(1000, || {
        black_box(tx.permits(now));
        tx.on_transmit(1);
        let grant = rx.on_receive(now);
        tx.on_feedback(black_box(grant));
    })
}

/// One lossless `sdus`-SDU message through a sender/receiver strategy pair,
/// acknowledgements included, 4 KiB payload vectors allocated as the
/// receive path allocates them.
fn ec_cycle_ns(mut tx: impl SenderEc, mut rx: impl ReceiverEc, sdus: u32) -> f64 {
    ns_per_call(50, || {
        let mut step = tx.begin(sdus);
        loop {
            let seqs = match step {
                SenderStep::Transmit(seqs) => seqs,
                SenderStep::Done => break,
                other => panic!("lossless exchange stalled: {other:?}"),
            };
            let mut ack: Option<AckInfo> = None;
            for seq in seqs {
                match rx.on_packet(seq, seq + 1 == sdus, vec![0u8; 4096]) {
                    ReceiverStep::Ack(a) | ReceiverStep::AckAndDeliver(a, _) => ack = Some(a),
                    ReceiverStep::Deliver(_) | ReceiverStep::Continue => {}
                }
            }
            step = match ack {
                Some(a) => tx.on_ack(a),
                None => break, // unacknowledged algorithm: nothing more to do
            };
        }
    })
}

fn user_runtime() -> UserRuntime {
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
}

/// Round trip between two threads of `pkg` through a pair of mailboxes,
/// halved: one hand-off. Microseconds.
fn mailbox_handoff_us(pkg: Arc<dyn ThreadPackage>) -> f64 {
    const STOP: u64 = u64::MAX;
    let ping = Arc::new(Mailbox::<u64>::unbounded());
    let pong = Arc::new(Mailbox::<u64>::unbounded());
    let echo = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        pkg.spawn_typed("probe-echo", move || loop {
            match ping.recv() {
                STOP => break,
                v => pong.send(v),
            }
        })
    };
    let rtt_ns = ns_per_call(200, || {
        ping.send(1);
        black_box(pong.recv());
    });
    ping.send(STOP);
    echo.join().expect("probe echo thread");
    rtt_ns / 2.0 / 1e3
}

fn spawn_join_us(pkg: Arc<dyn ThreadPackage>) -> f64 {
    ns_per_call(20, || {
        pkg.spawn_typed("probe-spawn", || ())
            .join()
            .expect("probe thread")
    }) / 1e3
}

/// Two green threads yielding to each other: one switch.
fn user_yield_ns() -> f64 {
    user_runtime().run(|pkg| {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let other = {
            let (pkg, stop) = (pkg.clone(), Arc::clone(&stop));
            pkg.clone().spawn_typed("probe-yield", move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    pkg.yield_now();
                }
            })
        };
        // Each yield here runs the other thread once: two switches.
        let ns = ns_per_call(1000, || pkg.yield_now()) / 2.0;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        other.join().expect("probe yield thread");
        ns
    })
}

fn hpi_batch_frame_ns() -> f64 {
    const BATCH: usize = 32;
    let (a, b) = hpi::pair(1024);
    let frame = [0x5Au8; 64];
    let frames: Vec<&[u8]> = vec![&frame; BATCH];
    ns_per_call(20, || {
        let sent = a.send_batch(&frames).expect("hpi send_batch");
        let mut got = 0;
        while got < sent {
            got += b
                .recv_many(BATCH, Duration::from_secs(1))
                .expect("hpi recv_many")
                .len();
        }
    }) / BATCH as f64
}

/// One-way 64 KiB frames over loopback TCP, counted at the receiver.
fn sci_stream_mib_s() -> f64 {
    const FRAME: usize = 64 * 1024;
    let (tx, rx) = sci::loopback_pair().expect("sci loopback pair");
    let sink = std::thread::spawn(move || {
        let mut bytes = 0u64;
        while let Ok(frame) = rx.recv() {
            if frame.len() == 1 {
                break;
            }
            bytes += frame.len() as u64;
        }
        (bytes, Instant::now())
    });
    let frame = vec![0x42u8; FRAME];
    let t0 = Instant::now();
    while t0.elapsed() < PROBE_BUDGET {
        tx.send(&frame).expect("sci send");
    }
    tx.send(&[0]).expect("sci sentinel");
    let (bytes, done) = sink.join().expect("sci sink thread");
    bytes as f64 / (1024.0 * 1024.0) / done.duration_since(t0).as_secs_f64()
}

fn raw_rtt_us(a: impl Connection + 'static, b: impl Connection + 'static) -> f64 {
    ladder_rtt_us(
        Port::Raw(Box::new(a)),
        Port::Raw(Box::new(b)),
        Payloads::new(0, 64),
        Duration::from_millis(50),
        PROBE_BUDGET,
    )
    .expect("raw transport echo")
}

fn pipe_frame_rtt_us() -> f64 {
    let (a, b) = pipe::pair(PipeConfig {
        buffer_bytes: 256 * 1024,
        drain_bytes_per_sec: None,
        latency: Duration::ZERO,
        time_scale: 1.0,
    });
    raw_rtt_us(a, b)
}

/// A 64-byte frame echoed across the lossless ATM model (two OC-3 hops
/// each way, pumped at real time).
fn aci_frame_rtt_us() -> f64 {
    let net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link("a", "sw", LinkSpec::oc3())
        .link("b", "sw", LinkSpec::oc3())
        .build()
        .expect("atm network");
    let fabric = AciFabric::start(net, PumpConfig::default());
    let dev_a = fabric.device("a").expect("device a");
    let dev_b = fabric.device("b").expect("device b");
    let conn_a = dev_a
        .connect("b", QosParams::unspecified())
        .expect("aci connect");
    let conn_b = dev_b
        .accept_timeout(Duration::from_secs(5))
        .expect("aci accept");
    let rtt = raw_rtt_us(conn_a, conn_b);
    fabric.shutdown();
    rtt
}

fn obs_probes(out: &mut Vec<(&'static str, &'static str, f64)>) {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("probe_counter", "probe", &[("k", "v")]);
    out.push((
        "probe.obs.counter_inc_ns",
        "ns",
        ns_per_call(1000, || black_box(&counter).inc()),
    ));
    let histogram = registry.histogram("probe_histogram", "probe", &[]);
    let mut v = 1u64;
    out.push((
        "probe.obs.histogram_record_ns",
        "ns",
        ns_per_call(1000, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record(black_box(v >> 40));
        }),
    ));
    let flight = FlightRecorder::new(256);
    out.push((
        "probe.obs.flight_record_ns",
        "ns",
        ns_per_call(1000, || {
            black_box(&flight).record(EventKind::Wire, 0, 1, 64)
        }),
    ));
}

fn topology_select_ns() -> f64 {
    let policy = TopologyPolicy::default();
    let mut bytes = 1usize;
    ns_per_call(1000, || {
        bytes = (bytes * 7 + 1) % (1 << 20);
        black_box(policy.select(black_box(OpClass::Broadcast), black_box(16), bytes));
    })
}

fn wire_codec_ns() -> f64 {
    let msg = RvMsg::Heartbeat {
        rank: 3,
        seq: 99,
        nanos: 123_456_789,
    };
    ns_per_call(1000, || {
        let bytes = black_box(&msg).encode();
        black_box(RvMsg::decode(black_box(&bytes)).expect("own message decodes"));
    })
}

fn membership_heartbeat_ns() -> f64 {
    const WORLD: u32 = 64;
    let mut table = MembershipTable::new(
        WORLD,
        MembershipConfig::fast(),
        ncs_core::SystemClock::shared(),
    );
    let members: Vec<(u32, String)> = (0..WORLD)
        .map(|r| (r, format!("127.0.0.1:{}", 9000 + r)))
        .collect();
    table.seed(&members);
    let mut rank = 0;
    ns_per_call(1000, || {
        rank = (rank + 1) % WORLD;
        black_box(table.heartbeat(black_box(rank)));
    })
}

/// Discrete events per wall second of a clean 256-rank simulated allreduce.
fn simworld_events_per_s() -> f64 {
    let mut rates = Vec::new();
    let started = Instant::now();
    while started.elapsed() < PROBE_BUDGET || rates.len() < 3 {
        let t0 = Instant::now();
        let report = SimWorld::new(Scenario::clean_allreduce(256, 7)).run();
        assert!(
            report.all_completed(),
            "clean simulated allreduce completes"
        );
        rates.push(report.events_processed as f64 / t0.elapsed().as_secs_f64());
    }
    stats::median(&rates)
}

fn aal5_roundtrip_4k_ns() -> f64 {
    let vc = atm_sim::cell::Vc::new(42);
    let frame = vec![0x3Cu8; 4096];
    ns_per_call(100, || {
        let cells = atm_sim::aal5::segment(vc, black_box(&frame)).expect("segment");
        let mut reassembler = atm_sim::aal5::Reassembler::new();
        let done = cells.iter().find_map(|c| reassembler.push(c));
        black_box(
            done.expect("last cell completes the frame")
                .expect("CRC holds"),
        );
    })
}

/// Runs every probe. Call with the process already pinned.
pub fn run_all() -> Metrics {
    let rto = Duration::from_millis(200);
    let kernel = || Arc::new(KernelPackage::new()) as Arc<dyn ThreadPackage>;
    let mut out: Vec<(&'static str, &'static str, f64)> = vec![
        ("probe.packet.encode_64B_ns", "ns", packet_encode_ns(64)),
        ("probe.packet.encode_4K_ns", "ns", packet_encode_ns(4096)),
        ("probe.packet.peek_4K_ns", "ns", packet_peek_4k_ns()),
        ("probe.packet.ctrl_codec_ns", "ns", ctrl_codec_ns()),
        ("probe.pool.get_drop_ns", "ns", pool_get_drop_ns()),
        ("probe.fc.credit_cycle_ns", "ns", fc_credit_cycle_ns()),
        (
            "probe.ec.sr_1sdu_cycle_ns",
            "ns",
            ec_cycle_ns(SrSender::new(rto, 10), SrReceiver::new(), 1),
        ),
        (
            "probe.ec.sr_16sdu_cycle_ns",
            "ns",
            ec_cycle_ns(SrSender::new(rto, 10), SrReceiver::new(), 16),
        ),
        (
            "probe.ec.gbn_16sdu_cycle_ns",
            "ns",
            ec_cycle_ns(GbnSender::new(16, rto, 10), GbnReceiver::new(), 16),
        ),
        (
            "probe.threads.kernel.mailbox_handoff_us",
            "us",
            mailbox_handoff_us(kernel()),
        ),
        (
            "probe.threads.user.mailbox_handoff_us",
            "us",
            user_runtime().run(|pkg| mailbox_handoff_us(Arc::new(pkg))),
        ),
        ("probe.threads.user.yield_ns", "ns", user_yield_ns()),
        (
            "probe.threads.kernel.spawn_join_us",
            "us",
            spawn_join_us(kernel()),
        ),
        (
            "probe.threads.user.spawn_join_us",
            "us",
            user_runtime().run(|pkg| spawn_join_us(Arc::new(pkg))),
        ),
        (
            "probe.transport.hpi.batch_frame_ns",
            "ns",
            hpi_batch_frame_ns(),
        ),
        (
            "probe.transport.sci.stream_MiB_s",
            "MiB/s",
            sci_stream_mib_s(),
        ),
        (
            "probe.transport.pipe.frame_rtt_us",
            "us",
            pipe_frame_rtt_us(),
        ),
        ("probe.transport.aci.frame_rtt_us", "us", aci_frame_rtt_us()),
    ];
    obs_probes(&mut out);
    out.extend([
        ("probe.coll.topology_select_ns", "ns", topology_select_ns()),
        ("probe.runtime.wire_codec_ns", "ns", wire_codec_ns()),
        (
            "probe.runtime.membership_heartbeat_ns",
            "ns",
            membership_heartbeat_ns(),
        ),
        (
            "probe.runtime.simworld_events_per_s",
            "1/s",
            simworld_events_per_s(),
        ),
        (
            "probe.atm.aal5_roundtrip_4K_ns",
            "ns",
            aal5_roundtrip_4k_ns(),
        ),
    ]);
    out.into_iter()
        .map(|(name, unit, value)| (name, Metric { value, unit }))
        .collect()
}
