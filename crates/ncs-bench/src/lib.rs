//! Experiment harness regenerating every table and figure of the NCS
//! paper's evaluation (§4). One binary per artefact:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig10_thread_packages` | Figure 10 — user- vs kernel-level packages |
//! | `table1_send_breakdown` | Table I — cost of a 1-byte `NCS_send` |
//! | `fig11_overhead_ratio` | Figure 11 — thread overhead vs native send |
//! | `fig12_same_platform` | Figure 12 — NCS/p4/MPI/PVM, same platform |
//! | `fig13_heterogeneous` | Figure 13 — heterogeneous platforms |
//! | `all_experiments` | everything above, in sequence |
//!
//! Environment knobs: `NCS_ITERS` (echo iterations per point),
//! `NCS_TIME_SCALE` (wall seconds per model second for the 1998 platform
//! models), `NCS_FIG10_LOAD_MS` (per-iteration computation).

#![warn(missing_docs)]

pub mod check;

use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::common::{EndpointSpec, MessageSystem, SystemError};
use baselines::{mpi::MpiEndpoint, p4::P4Endpoint, pvm::PvmEndpoint};
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode};
use ncs_transport::pipe::{self, EndpointModel, PipeConfig};
use netmodel::{Pacer, PlatformProfile};

/// Message sizes used by Figures 12/13 (bytes).
pub const FIG12_SIZES: &[usize] = &[1, 1024, 4096, 8192, 16384, 32768, 65536];

/// Message sizes used by Figures 10/11 (bytes).
pub const FIG10_SIZES: &[usize] = &[
    1, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// Echo round-trip tag.
pub const ECHO_TAG: u32 = 1;

/// Reads an env knob with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an integer env knob with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The wire used under the modelled platforms: TCP over LAN ATM
/// (155.52 Mb/s line rate less cell/TCP overhead, ~100 µs one-way).
pub fn atm_wire(time_scale: f64) -> PipeConfig {
    PipeConfig {
        buffer_bytes: 64 * 1024,
        drain_bytes_per_sec: Some(135_000_000 / 8),
        latency: Duration::from_micros(100),
        time_scale,
    }
}

/// An NCS endpoint adapted to the harness's [`MessageSystem`] interface.
///
/// NCS rides a reliable interface here, so it runs in its §3.1 bypass
/// configuration (TCP already provides flow/error control); its costs are
/// charged by the transport's [`EndpointModel`], factor 1.
#[derive(Debug)]
pub struct NcsAdapter {
    conn: NcsConnection,
    _node: NcsNode,
}

impl NcsAdapter {
    /// Wraps an NCS connection (keeps its node alive).
    pub fn new(conn: NcsConnection, node: NcsNode) -> Self {
        NcsAdapter { conn, _node: node }
    }
}

impl MessageSystem for NcsAdapter {
    fn name(&self) -> &'static str {
        "NCS"
    }

    fn send(&mut self, _tag: u32, data: &[u8]) -> Result<(), SystemError> {
        self.conn
            .send(data)
            .map_err(|e| SystemError::Transport(e.to_string()))
    }

    fn recv(&mut self, _tag: u32) -> Result<Vec<u8>, SystemError> {
        self.conn
            .recv_timeout(Duration::from_secs(60))
            .map_err(|e| SystemError::Transport(e.to_string()))
    }
}

/// Which comparison system to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// This paper's system.
    Ncs,
    /// Argonne p4.
    P4,
    /// MPICH-era MPI.
    Mpi,
    /// PVM 3.x.
    Pvm,
}

impl System {
    /// All four, in the paper's legend order.
    pub const ALL: [System; 4] = [System::Ncs, System::P4, System::Mpi, System::Pvm];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::Ncs => "NCS",
            System::P4 => "p4",
            System::Mpi => "MPI",
            System::Pvm => "PVM",
        }
    }
}

/// Builds a connected endpoint pair of `system` between two modelled
/// platforms over the ATM wire. Returns (client, server).
pub fn build_pair(
    system: System,
    client_platform: Arc<PlatformProfile>,
    server_platform: Arc<PlatformProfile>,
    time_scale: f64,
) -> (Box<dyn MessageSystem>, Box<dyn MessageSystem>) {
    let pacer = Arc::new(Pacer::new(time_scale));
    let client_spec = EndpointSpec {
        local: Arc::clone(&client_platform),
        remote: Arc::clone(&server_platform),
        pacer: Arc::clone(&pacer),
    };
    let server_spec = EndpointSpec {
        local: Arc::clone(&server_platform),
        remote: Arc::clone(&client_platform),
        pacer: Arc::clone(&pacer),
    };
    match system {
        System::Ncs => {
            // NCS charges its stack costs at the transport boundary.
            let model_client = EndpointModel {
                profile: client_platform,
                pacer: Arc::clone(&pacer),
            };
            let model_server = EndpointModel {
                profile: server_platform,
                pacer,
            };
            let (link_c, link_s) = ncs_core::link::PipeLinkPair::create(
                atm_wire(time_scale),
                Some(model_client),
                Some(model_server),
            );
            let client_node = NcsNode::builder("bench-client").build();
            let server_node = NcsNode::builder("bench-server").build();
            client_node.attach_peer("bench-server", link_c);
            server_node.attach_peer("bench-client", link_s);
            // One SDU per message up to the benchmark's 64 KB maximum,
            // matching the single-frame sends of the comparators.
            let config = ConnectionConfig {
                sdu_size: ConnectionConfig::MAX_SDU,
                ..ConnectionConfig::unreliable()
            };
            let conn_c = client_node
                .connect("bench-server", config)
                .expect("bench connect");
            let conn_s = server_node.accept_default().expect("bench accept");
            (
                Box::new(NcsAdapter::new(conn_c, client_node)),
                Box::new(NcsAdapter::new(conn_s, server_node)),
            )
        }
        System::P4 => {
            let (a, b) = pipe::pair(atm_wire(time_scale));
            (
                Box::new(P4Endpoint::new(Box::new(a), client_spec)),
                Box::new(P4Endpoint::new(Box::new(b), server_spec)),
            )
        }
        System::Mpi => {
            let (a, b) = pipe::pair(atm_wire(time_scale));
            (
                Box::new(MpiEndpoint::new(Box::new(a), client_spec)),
                Box::new(MpiEndpoint::new(Box::new(b), server_spec)),
            )
        }
        System::Pvm => {
            // Benchmarks of the era set PvmRouteDirect (as the paper's
            // comparable-to-NCS PVM numbers imply); encoding stays at the
            // PvmDataDefault negotiation.
            let (a, b) = pipe::pair(atm_wire(time_scale));
            use baselines::pvm::{PvmEncoding, PvmRoute};
            (
                Box::new(PvmEndpoint::with_options(
                    Box::new(a),
                    client_spec,
                    PvmEncoding::Default,
                    PvmRoute::Direct,
                )),
                Box::new(PvmEndpoint::with_options(
                    Box::new(b),
                    server_spec,
                    PvmEncoding::Default,
                    PvmRoute::Direct,
                )),
            )
        }
    }
}

/// Runs the paper's echo benchmark: the client sends `size` bytes, the
/// server echoes them back; the mean round-trip over `iters` iterations is
/// returned in **model** time (wall / time_scale).
pub fn echo_roundtrip(
    client: &mut dyn MessageSystem,
    server: Box<dyn MessageSystem>,
    size: usize,
    iters: usize,
    time_scale: f64,
) -> Duration {
    let server_thread = std::thread::spawn(move || {
        let mut server = server;
        loop {
            match server.recv(ECHO_TAG) {
                Ok(msg) => {
                    if msg.len() == 1 && msg[0] == 0xFF {
                        return; // sentinel: benchmark over
                    }
                    server.send(ECHO_TAG, &msg).expect("echo send");
                }
                Err(_) => return,
            }
        }
    });
    let payload = vec![0xA5u8; size];
    // Warm-up round.
    client.send(ECHO_TAG, &payload).expect("warmup send");
    let _ = client.recv(ECHO_TAG).expect("warmup recv");
    let start = Instant::now();
    for _ in 0..iters {
        client.send(ECHO_TAG, &payload).expect("echo send");
        let back = client.recv(ECHO_TAG).expect("echo recv");
        assert_eq!(back.len(), size, "echo payload length mismatch");
    }
    let wall = start.elapsed();
    // Stop the server.
    let _ = client.send(ECHO_TAG, &[0xFF]);
    let _ = server_thread.join();
    wall.div_f64(time_scale).div_f64(iters as f64)
}

/// Formats a figure table: one row per message size, one column per
/// system, values in model milliseconds.
pub fn print_table(title: &str, sizes: &[usize], columns: &[(String, Vec<Duration>)]) {
    println!("\n=== {title} ===");
    print!("{:>10}", "size");
    for (name, _) in columns {
        print!("{name:>12}");
    }
    println!();
    for (i, &size) in sizes.iter().enumerate() {
        print!("{:>10}", human_size(size));
        for (_, values) in columns {
            print!("{:>12}", format!("{:.2}ms", values[i].as_secs_f64() * 1e3));
        }
        println!();
    }
}

/// Human-readable size label ("1", "4K", "64K").
pub fn human_size(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        bytes.to_string()
    }
}

/// Spin-computes for `dur` (the paper's `Computation(100 ms)` — real CPU
/// work that does not yield, unlike a sleep).
pub fn compute_load(dur: Duration) {
    let start = Instant::now();
    let mut x = 0u64;
    while start.elapsed() < dur {
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(1), "1");
        assert_eq!(human_size(4096), "4K");
        assert_eq!(human_size(65536), "64K");
        assert_eq!(human_size(1500), "1500");
    }

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_f64("NCS_BENCH_NO_SUCH_VAR", 1.5), 1.5);
        assert_eq!(env_usize("NCS_BENCH_NO_SUCH_VAR", 7), 7);
    }

    #[test]
    fn echo_works_for_every_system_unmodelled() {
        let modern = Arc::new(PlatformProfile::modern());
        for system in System::ALL {
            let (mut client, server) =
                build_pair(system, Arc::clone(&modern), Arc::clone(&modern), 1.0);
            let rt = echo_roundtrip(client.as_mut(), server, 1024, 2, 1.0);
            assert!(rt > Duration::ZERO, "{}", system.name());
        }
    }

    #[test]
    fn compute_load_spins_for_duration() {
        let start = Instant::now();
        compute_load(Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(9));
    }
}
