//! Cross-process worlds: this binary re-executes itself as child ranks
//! (`--cluster-child`), so every number here crossed a real process
//! boundary over real SCI sockets. The gate is completion: every child
//! rank exits 0 and rank 0 measures non-zero latencies.

use std::time::{Duration, Instant};

use ncs_collectives::ReduceOp;
use ncs_core::json::Json;
use ncs_core::ConnectionConfig;
use ncs_runtime::{ClusterConfig, ClusterNode, RendezvousServer};

use crate::common::{
    echo_until_sentinel, micros_since, num, obj, percentile, ping_pong, sorted, summarize, Gates,
    Report, SENTINEL,
};

/// World sizes the section sweeps.
const WORLDS: [u32; 2] = [2, 4];

/// RTT probe payload between ranks 0 and 1 (bytes).
const RTT_BYTES: usize = 64;

/// Elements per member in the cross-process allreduce probe.
const ALLREDUCE_ELEMS: usize = 64;

/// Tells a spawned rank which iteration counts its parent runs.
const SMOKE_ENV: &str = "NCS_GATE_SMOKE";

#[derive(Debug)]
struct Case {
    np: u32,
    rtt_iters: usize,
    rtt_median_us: f64,
    rtt_p99_us: f64,
    allreduce_iters: usize,
    allreduce_median_us: f64,
    /// Child ranks that exited 0 (the parent is rank 0 and not counted).
    children_ok: usize,
}

impl Case {
    fn complete(&self) -> bool {
        self.children_ok == (self.np - 1) as usize
            && self.rtt_median_us > 0.0
            && self.allreduce_median_us > 0.0
    }

    fn to_json(&self) -> Json {
        obj! {
            "np" => self.np,
            "children_ok" => self.children_ok,
            "rtt" => obj! {
                "iters" => self.rtt_iters,
                "median_us" => num(self.rtt_median_us, 2),
                "p99_us" => num(self.rtt_p99_us, 2),
            },
            "allreduce" => obj! {
                "iters" => self.allreduce_iters,
                "median_us" => num(self.allreduce_median_us, 2),
            },
        }
    }
}

/// (RTT, allreduce) iterations.
fn iterations(smoke: bool) -> (usize, usize) {
    if smoke {
        (40, 20)
    } else {
        (200, 100)
    }
}

/// The schedule every rank of a case runs. Ranks 0 and 1 first ping-pong
/// over a dedicated point-to-point connection (so the RTT is a clean
/// two-process socket round trip, not collective machinery), then the
/// whole world allreduces. Rank 0 returns the sorted RTTs and the
/// allreduce median.
fn schedule(cluster: &ClusterNode, smoke: bool) -> Option<(Vec<f64>, f64)> {
    let (rtt_iters, ar_iters) = iterations(smoke);
    let rank = cluster.rank();
    let mut rtts_us = Vec::new();
    if rank == 0 {
        let conn = cluster
            .open_connection(1, ConnectionConfig::unreliable())
            .expect("rtt connect");
        rtts_us = ping_pong(&conn, &[0xC3u8; RTT_BYTES], rtt_iters);
        conn.send(&[SENTINEL]).expect("rtt sentinel");
    } else if rank == 1 {
        let conn = cluster
            .accept_connection(Duration::from_secs(30))
            .expect("rtt accept");
        echo_until_sentinel(&conn);
    }
    // Cross-process allreduce over the whole world (the collectives
    // engine, unmodified, across OS processes).
    let group = cluster.collective_group(1).expect("cluster group");
    let contrib = vec![1.0f64; ALLREDUCE_ELEMS];
    let ar_us = sorted(
        (0..ar_iters)
            .map(|_| {
                let t0 = Instant::now();
                let sum = group
                    .allreduce(contrib.clone(), ReduceOp::Sum)
                    .expect("cluster allreduce");
                let us = micros_since(t0);
                // A hard assert (not debug_assert): the gate must verify
                // the data that crossed process boundaries, not just time
                // it — a wrong sum exits this rank nonzero and trips the
                // cluster gate.
                assert!(
                    sum.len() == ALLREDUCE_ELEMS && sum.iter().all(|&v| v == cluster.size() as f64),
                    "cross-process allreduce produced a wrong result on rank {rank}: {:?}",
                    &sum[..sum.len().min(4)]
                );
                us
            })
            .collect(),
    );
    group.barrier().expect("cluster barrier");
    drop(group);
    (rank == 0).then(|| (rtts_us, percentile(&ar_us, 0.50)))
}

/// Runs as a spawned child rank (`perf_gate --cluster-child`): bootstrap
/// from the environment, run the schedule, exit.
pub fn run_child() -> ! {
    let smoke = std::env::var(SMOKE_ENV).as_deref() == Ok("1");
    let cfg = ClusterConfig::from_env().expect("cluster child env");
    let cluster = ClusterNode::bootstrap(cfg).expect("cluster child bootstrap");
    schedule(&cluster, smoke);
    cluster.shutdown();
    std::process::exit(0);
}

/// One cross-process case: this process embeds the rendezvous service and
/// runs rank 0; ranks `1..np` are real spawned OS processes (this same
/// binary with `--cluster-child`).
fn run_case(np: u32, smoke: bool) -> Case {
    use ncs_runtime::cluster::env;
    let server = RendezvousServer::start("127.0.0.1:0", np).expect("embedded ncsd");
    let me = std::env::current_exe().expect("current exe");
    let mut children: Vec<std::process::Child> = (1..np)
        .map(|rank| {
            std::process::Command::new(&me)
                .arg("--cluster-child")
                .env(env::RANK, rank.to_string())
                .env(env::WORLD, np.to_string())
                .env(env::NCSD, server.addr().to_string())
                .env(SMOKE_ENV, if smoke { "1" } else { "0" })
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn cluster child")
        })
        .collect();
    let cluster =
        ClusterNode::bootstrap(ClusterConfig::new(0, np, server.addr())).expect("rank 0 bootstrap");
    let (rtts_us, allreduce_median_us) = schedule(&cluster, smoke).expect("rank 0 measures");
    cluster.shutdown();
    // Reap under a deadline: one hung child must not hang the gate.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut children_ok = 0;
    loop {
        children.retain_mut(|c| match c.try_wait() {
            Ok(Some(status)) => {
                children_ok += usize::from(status.success());
                false
            }
            _ => true,
        });
        if children.is_empty() || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let (rtt_iters, allreduce_iters) = iterations(smoke);
    Case {
        np,
        rtt_iters,
        rtt_median_us: percentile(&rtts_us, 0.50),
        rtt_p99_us: percentile(&rtts_us, 0.99),
        allreduce_iters,
        allreduce_median_us,
        children_ok,
    }
}

fn report(cases: &[Case]) -> Report {
    let mut gates = Gates::default();
    let json = obj! {
        "transport" => "SCI",
        "rtt_bytes" => RTT_BYTES,
        "allreduce_elems" => ALLREDUCE_ELEMS,
        "gate" => gates.holds(
            "every child rank of every cross-process case exits 0 and rank 0 measures non-zero \
             latencies",
            cases.iter().all(Case::complete),
        ),
        "cases" => cases.iter().map(Case::to_json).collect::<Json>(),
    };
    gates.report(Some("cluster"), json)
}

pub fn run(smoke: bool) -> Report {
    let cases: Vec<Case> = WORLDS
        .into_iter()
        .map(|np| {
            eprintln!("perf_gate: cross-process cluster, {np} ranks over SCI...");
            let case = run_case(np, smoke);
            summarize(&case.to_json());
            case
        })
        .collect();
    report(&cases)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A full-population report in which `lost` children of each world
    /// failed.
    pub fn synthetic(lost: usize) -> Report {
        let cases: Vec<Case> = WORLDS
            .into_iter()
            .map(|np| Case {
                np,
                rtt_iters: 40,
                rtt_median_us: 60.0,
                rtt_p99_us: 150.0,
                allreduce_iters: 20,
                allreduce_median_us: 200.0,
                children_ok: (np - 1) as usize - lost,
            })
            .collect();
        report(&cases)
    }

    #[test]
    fn completion_gate_needs_every_child() {
        let ok = synthetic(0);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.json.get("gate").unwrap().get("pass"), Some(&true.into()));
        let bad = synthetic(1);
        assert_eq!(bad.failures.len(), 1);
        assert_eq!(
            bad.json.get("gate").unwrap().get("pass"),
            Some(&false.into())
        );
    }
}
