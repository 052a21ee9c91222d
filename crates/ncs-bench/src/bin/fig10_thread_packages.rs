//! Figure 10 (test code: Figure 9) — user-level vs kernel-level thread
//! packages.
//!
//! The paper's §4.1 experiment: per iteration, `NCS_send(msgsize)` hands
//! the message to the Send Thread, then the application computes for a
//! fixed load; the kernel socket buffer is 32 KB. Two regimes emerge:
//!
//! * **small messages** — nothing blocks; the difference is the thread
//!   package's send-path cost (context switch + synchronisation), where
//!   the user-level package wins;
//! * **messages larger than the socket buffer** — the `write` blocks until
//!   the buffer drains. Under the user-level package (QuickThreads
//!   analogue) the blocking system call stalls the whole process, so the
//!   blocked time adds to the iteration; under the kernel-level package
//!   (Pthread analogue) only the Send Thread blocks and the computation
//!   overlaps it.
//!
//! The paper's crossover fell at 4 KB (SunOS socket internals started
//! blocking well below SO_SNDBUF); in this reproduction the crossover sits
//! exactly where messages exceed the kernel buffer, which is the mechanism
//! the paper identifies (§4.1: "the kernel finally runs out of the socket
//! buffer and blocks the Send Thread").

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_bench::{compute_load, env_f64, env_usize, human_size, shape_check, FIG10_SIZES};
use ncs_core::link::PipeLinkPair;
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode};
use ncs_threads::{SwitchMech, ThreadPackage, UserConfig, UserRuntime};
use ncs_transport::pipe::PipeConfig;

struct Bench {
    conn: NcsConnection,
    sender: NcsNode,
    receiver: NcsNode,
}

fn setup(pkg: Arc<dyn ThreadPackage>, wire: PipeConfig) -> Bench {
    let (link_tx, link_rx) = PipeLinkPair::create(wire, None, None);
    let sender = NcsNode::builder("fig10-tx").thread_package(pkg).build();
    let receiver = NcsNode::builder("fig10-rx").build();
    sender.attach_peer("fig10-rx", link_tx);
    receiver.attach_peer("fig10-tx", link_rx);
    let config = ConnectionConfig {
        sdu_size: ConnectionConfig::MAX_SDU,
        ..ConnectionConfig::unreliable()
    };
    let conn = sender.connect("fig10-rx", config).expect("fig10 connect");
    Bench {
        conn,
        sender,
        receiver,
    }
}

/// One Figure-9 pass: `iters` x (`NCS_send(size)`; `Computation(load)`);
/// returns the mean iteration time.
fn run_pass(
    pkg: Arc<dyn ThreadPackage>,
    size: usize,
    iters: usize,
    load: Duration,
    wire: PipeConfig,
) -> Duration {
    let bench = setup(pkg, wire);
    let payload = vec![0x5Au8; size];
    bench.conn.send_handoff(&payload).expect("warmup");
    // Let the warm-up drain so every pass starts with an empty buffer.
    std::thread::sleep(Duration::from_millis(30));
    let start = Instant::now();
    for _ in 0..iters {
        bench.conn.send_handoff(&payload).expect("send");
        compute_load(load);
    }
    let avg = start.elapsed() / iters as u32;
    bench.sender.shutdown();
    bench.receiver.shutdown();
    avg
}

fn user_runtime() -> UserRuntime {
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
}

fn main() {
    let iters = env_usize("NCS_ITERS", 10);
    let load = Duration::from_secs_f64(env_f64("NCS_FIG10_LOAD_MS", 10.0) / 1e3);
    // Drain sized so the largest message drains in exactly one load
    // period: messages above the buffer block the writer, but the pipeline
    // never saturates — the regime where overlap is measurable.
    let drain = (65536.0 / load.as_secs_f64()) as u64;
    let wire = PipeConfig {
        buffer_bytes: 32 * 1024, // the paper's socket buffer
        drain_bytes_per_sec: Some(drain),
        latency: Duration::ZERO,
        time_scale: 1.0,
    };

    println!(
        "Figure 10 reproduction: NCS_send + {} ms computation per iteration, \
         32 KB socket buffer draining at {} KB/s, {} iterations\n",
        load.as_millis(),
        drain / 1024,
        iters
    );

    // Panel A — the Figure 9 loop.
    println!("panel A: mean iteration time (send + computation)");
    println!(
        "{:>10}{:>18}{:>18}{:>10}",
        "size", "user-level (ms)", "kernel-level (ms)", "ratio"
    );
    let mut ratio = 0.0;
    for &size in FIG10_SIZES {
        let (w, l, i) = (wire.clone(), load, iters);
        let user_avg = user_runtime().run(move |pkg| run_pass(Arc::new(pkg), size, i, l, w));
        let kernel_avg = run_pass(
            Arc::new(ncs_threads::KernelPackage::new()),
            size,
            iters,
            load,
            wire.clone(),
        );
        ratio = user_avg.as_secs_f64() / kernel_avg.as_secs_f64();
        println!(
            "{:>10}{:>18.2}{:>18.2}{:>10.2}",
            human_size(size),
            user_avg.as_secs_f64() * 1e3,
            kernel_avg.as_secs_f64() * 1e3,
            ratio,
        );
    }
    // Above the 32 KB buffer the user-level package pays the blocked write
    // inside the iteration; the kernel-level package overlaps it.
    let numbers = format!("ratio {ratio:.2}");
    shape_check("panel A: 64K ratio > 1.1", &numbers, ratio > 1.1);

    // Panel B — the send path alone (no computation), where the
    // user-level package's cheap switches win (the paper's < 4 KB regime).
    println!("\npanel B: bare NCS_send hand-off cost (no load, drained wire)");
    println!(
        "{:>10}{:>18}{:>18}{:>10}",
        "size", "user-level (us)", "kernel-level (us)", "ratio"
    );
    let fast_wire = PipeConfig {
        buffer_bytes: 1 << 20,
        drain_bytes_per_sec: None,
        latency: Duration::ZERO,
        time_scale: 1.0,
    };
    let bare_iters = env_usize("NCS_ITERS", 10) * 100;
    let mut below = 0;
    for &size in &FIG10_SIZES[..7] {
        let (w, i) = (fast_wire.clone(), bare_iters);
        let user_avg =
            user_runtime().run(move |pkg| run_pass(Arc::new(pkg), size, i, Duration::ZERO, w));
        let kernel_avg = run_pass(
            Arc::new(ncs_threads::KernelPackage::new()),
            size,
            bare_iters,
            Duration::ZERO,
            fast_wire.clone(),
        );
        println!(
            "{:>10}{:>18.2}{:>18.2}{:>10.2}",
            human_size(size),
            user_avg.as_secs_f64() * 1e6,
            kernel_avg.as_secs_f64() * 1e6,
            user_avg.as_secs_f64() / kernel_avg.as_secs_f64(),
        );
        below += usize::from(user_avg < kernel_avg);
    }
    // With nothing blocking, the user-level package's synchronisation is
    // the cheaper send path (the paper's small-message advantage).
    let numbers = format!("{below} of 7 sizes");
    shape_check("panel B: user below kernel", &numbers, below == 7);
}
