//! Figure 11 — thread overhead by ratio to the native socket.
//!
//! For each message size, the full `NCS_send` through the Send Thread is
//! measured against a native send on the same interface; the ratio starts
//! well above 1 for small messages (the constant session overhead
//! dominates) and decays towards 1 as the per-byte transmit cost takes
//! over — for both thread packages.

use std::sync::Arc;
use std::time::Instant;

use ncs_bench::{env_f64, env_usize, human_size, FIG10_SIZES};
use ncs_core::link::PipeLinkPair;
use ncs_core::{ConnectionConfig, NcsNode};
use ncs_threads::{SwitchMech, ThreadPackage, UserConfig, UserRuntime};
use ncs_transport::pipe::{self, EndpointModel, PipeConfig};
use ncs_transport::Connection;
use netmodel::{Pacer, PlatformProfile};

fn wire(time_scale: f64) -> PipeConfig {
    PipeConfig {
        // Uncontended wire: the ratio isolates the send path itself, so
        // neither side may stall on buffer admission.
        buffer_bytes: 1 << 20,
        drain_bytes_per_sec: None,
        latency: std::time::Duration::ZERO,
        time_scale,
    }
}

fn model(time_scale: f64) -> EndpointModel {
    EndpointModel {
        profile: Arc::new(PlatformProfile::sun4()),
        pacer: Arc::new(Pacer::new(time_scale)),
    }
}

/// Mean cost of a native (interface-level) send of `size` bytes.
fn native_send(size: usize, iters: usize, time_scale: f64) -> f64 {
    let pacer = Arc::new(Pacer::new(time_scale));
    let m = EndpointModel {
        profile: Arc::new(PlatformProfile::sun4()),
        pacer: Arc::clone(&pacer),
    };
    let (a, _b) = pipe::pair_with_models(wire(time_scale), Some(m), None);
    let payload = vec![1u8; size];
    a.send(&payload).unwrap(); // warm-up
    pacer.settle();
    let start = Instant::now();
    for _ in 0..iters {
        a.send(&payload).unwrap();
    }
    pacer.settle(); // pay any remaining modelled debt inside the window
    start.elapsed().as_secs_f64() / iters as f64
}

/// Mean cost of a full `NCS_send` (through the Send Thread) of `size`
/// bytes on the given package: `send_handoff` and the `wait()` for its
/// transmit, timed by the caller.
fn ncs_send(pkg: Arc<dyn ThreadPackage>, size: usize, iters: usize, time_scale: f64) -> f64 {
    let (la, lb) = PipeLinkPair::create(wire(time_scale), Some(model(time_scale)), None);
    let a = NcsNode::builder("f11-a").thread_package(pkg).build();
    let b = NcsNode::builder("f11-b").build();
    a.attach_peer("f11-b", la);
    b.attach_peer("f11-a", lb);
    // Single SDU per message, matching the native single-frame send (the
    // SCI bypass path writes the whole user buffer at once).
    let config = ConnectionConfig {
        sdu_size: ConnectionConfig::MAX_SDU,
        ..ConnectionConfig::unreliable()
    };
    let conn = a.connect("f11-b", config).unwrap();
    let payload = vec![1u8; size];
    let send = || conn.send_handoff(&payload).and_then(|r| r.wait()).unwrap();
    send(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        send();
    }
    let mean = start.elapsed().as_secs_f64() / iters as f64;
    a.shutdown();
    b.shutdown();
    mean
}

fn main() {
    let iters = env_usize("NCS_ITERS", 30);
    let time_scale = env_f64("NCS_TIME_SCALE", 0.05);
    println!(
        "Figure 11 reproduction: NCS send cost ratio to native send \
         (modelled SUN-4 interface, time_scale={time_scale}, iters={iters})"
    );
    println!("{:>10}{:>16}{:>16}", "size", "user-level", "kernel-level");
    for &size in FIG10_SIZES {
        let native = native_send(size, iters, time_scale);
        let user = UserRuntime::new(UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        })
        .run(move |pkg| ncs_send(Arc::new(pkg), size, iters, time_scale));
        let kernel = ncs_send(
            Arc::new(ncs_threads::KernelPackage::new()),
            size,
            iters,
            time_scale,
        );
        println!(
            "{:>10}{:>16.2}{:>16.2}",
            human_size(size),
            user / native,
            kernel / native,
        );
    }
    println!(
        "\nshape check: both ratios start above 1 and decay towards 1.0 by \
         64K; the user-level package carries the smaller thread overhead"
    );
}
