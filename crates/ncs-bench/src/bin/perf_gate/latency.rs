//! The interface × package sweep: round-trip latency over the §3.1
//! bypass, then bulk one-way throughput with **allocations per message**
//! counted through the node's [`BufPool`](ncs_core::BufPool) statistics.
//! Every pool *checkout* is one heap allocation the unpooled seed path
//! performed at the same call site (`Packet::encode` into a fresh `Vec`),
//! every pool *miss* is an allocation the pooled path actually made, so
//! `checkouts / misses` is the measured allocation improvement — gated at
//! [`GATE_MIN_IMPROVEMENT`]x on the HPI bulk path.
//!
//! This section's members sit at the document root.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::json::Json;
use ncs_core::{ConnectionConfig, NcsConnection, PoolStats};
use ncs_threads::sync::Event;
use ncs_threads::ThreadPackage;

use crate::common::{
    build_pair, bulk_config, echo_until_sentinel, num, obj, percentile, ping_pong, summarize,
    with_package, Gates, Iface, Package, Report, LAT_BYTES, SENTINEL,
};

/// The acceptance threshold on the HPI bulk path's allocation improvement.
const GATE_MIN_IMPROVEMENT: f64 = 2.0;

/// Bulk message size (bytes); four SDUs at the default 4 KB SDU.
const BULK_BYTES: usize = 16 * 1024;

/// Bulk warm-up messages before the measured window: enough frames to
/// charge the buffer pool's recycling window (the send queue plus a couple
/// of in-flight batches), so the measurement reports steady state.
const BULK_WARMUP: usize = 50;

/// Round trips and bulk messages of one case.
fn iterations(iface: Iface, package: Package, smoke: bool) -> (usize, usize) {
    let (lat_iters, bulk_msgs) = if smoke { (30, 60) } else { (300, 500) };
    if iface == Iface::Sci && package == Package::User {
        // SCI receives are blocking system calls; under the user-level
        // package they stall the whole scheduler between frames (the §4.1
        // pathology the paper documents). Keep the combination honest but
        // short.
        return (lat_iters.min(30), bulk_msgs.min(60));
    }
    (lat_iters, bulk_msgs)
}

#[derive(Debug)]
struct Case {
    iface: Iface,
    package: Package,
    lat_iters: usize,
    lat_median_us: f64,
    lat_p99_us: f64,
    bulk_msgs: usize,
    bulk_received: usize,
    bulk_secs: f64,
    /// Sender-node pool activity over the measured bulk window.
    pool: PoolStats,
}

impl Case {
    fn alloc_improvement(&self) -> f64 {
        self.pool.checkouts as f64 / self.pool.misses.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let per_msg = |count: u64| num(count as f64 / self.bulk_msgs as f64, 3);
        let mib = (self.bulk_received * BULK_BYTES) as f64 / (1024.0 * 1024.0);
        obj! {
            "interface" => self.iface.name(),
            "package" => self.package.name(),
            "latency" => obj! {
                "iters" => self.lat_iters,
                "median_us" => num(self.lat_median_us, 2),
                "p99_us" => num(self.lat_p99_us, 2),
            },
            "bulk" => obj! {
                "messages" => self.bulk_msgs,
                "received" => self.bulk_received,
                "seconds" => num(self.bulk_secs, 4),
                "throughput_mib_s" => num(mib / self.bulk_secs, 2),
                "pool" => obj! {
                    "checkouts" => self.pool.checkouts,
                    "hits" => self.pool.hits,
                    "misses" => self.pool.misses,
                    "returns" => self.pool.returns,
                    "discards" => self.pool.discards,
                },
                "allocs_per_msg_seed_equiv" => per_msg(self.pool.checkouts),
                "allocs_per_msg_pooled" => per_msg(self.pool.misses),
                "alloc_improvement" => num(self.alloc_improvement(), 2),
            },
        }
    }
}

/// Echo server: [`echo_until_sentinel`], then fires `done`.
fn spawn_echo(conn: NcsConnection, done: Arc<Event>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        echo_until_sentinel(&conn);
        done.fire();
    })
}

/// Sink server: counts `expect` messages, firing `warmed` once the
/// warm-up prefix arrived and `done` once all arrived.
fn spawn_sink(
    conn: NcsConnection,
    expect: usize,
    received: Arc<AtomicUsize>,
    warmed: Arc<Event>,
    done: Arc<Event>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while conn.recv_timeout(Duration::from_secs(30)).is_ok() {
            let n = received.fetch_add(1, Ordering::Relaxed) + 1;
            if n == BULK_WARMUP {
                warmed.fire();
            }
            if n >= expect {
                break;
            }
        }
        done.fire();
    })
}

/// Runs one interface × package combination.
fn run_case(iface: Iface, package: Package, pkg: Arc<dyn ThreadPackage>, smoke: bool) -> Case {
    let (lat_iters, bulk_msgs) = iterations(iface, package, smoke);

    // --- Phase 1: round-trip latency over the bypass configuration. -----
    let pair = build_pair(iface, Arc::clone(&pkg));
    let (conn_tx, conn_rx) = pair.connect(ConnectionConfig::unreliable());
    let echo_done = Arc::new(Event::new());
    let echo = spawn_echo(conn_rx, Arc::clone(&echo_done));
    let rtts_us = ping_pong(&conn_tx, &[0xA5u8; LAT_BYTES], lat_iters);
    conn_tx.send(&[SENTINEL]).expect("latency sentinel");
    // Wait cooperatively (a bare join would block the green scheduler).
    echo_done.wait_timeout(Duration::from_secs(30));
    let _ = echo.join();
    pair.shutdown();

    // --- Phase 2: bulk one-way throughput + allocations per message. ----
    let pair = build_pair(iface, pkg);
    let (conn_tx, conn_rx) = pair.connect(bulk_config(iface));
    let received = Arc::new(AtomicUsize::new(0));
    let warmup_seen = Arc::new(Event::new());
    let sink_done = Arc::new(Event::new());
    // The sink expects the warm-up prefix plus the measured batch.
    let sink = spawn_sink(
        conn_rx,
        bulk_msgs + BULK_WARMUP,
        Arc::clone(&received),
        Arc::clone(&warmup_seen),
        Arc::clone(&sink_done),
    );
    let payload = vec![0xB7u8; BULK_BYTES];
    // Warm-up burst, outside the measured window and the pool delta
    // (the wait is cooperative: green threads keep the pipeline moving).
    for _ in 0..BULK_WARMUP {
        conn_tx.send(&payload).expect("bulk warmup");
    }
    assert!(
        warmup_seen.wait_timeout(Duration::from_secs(60)),
        "bulk warm-up never arrived"
    );
    let pool_before = pair.tx_node.pool_stats();
    let t0 = Instant::now();
    for _ in 0..bulk_msgs {
        conn_tx.send(&payload).expect("bulk send");
    }
    sink_done.wait_timeout(Duration::from_secs(120));
    let bulk_secs = t0.elapsed().as_secs_f64();
    let pool = pair.tx_node.pool_stats().since(&pool_before);
    let _ = sink.join();
    let bulk_received = received.load(Ordering::Relaxed).saturating_sub(BULK_WARMUP);
    pair.shutdown();

    Case {
        iface,
        package,
        lat_iters,
        lat_median_us: percentile(&rtts_us, 0.50),
        lat_p99_us: percentile(&rtts_us, 0.99),
        bulk_msgs,
        bulk_received,
        bulk_secs,
        pool,
    }
}

/// The measured population, in artifact order.
fn sweep() -> impl Iterator<Item = (Package, Iface)> {
    Package::ALL
        .into_iter()
        .flat_map(|p| Iface::ALL.map(|i| (p, i)))
}

fn report(cases: &[Case]) -> Report {
    let mut gates = Gates::default();
    // The gate: the pooled+batched HPI bulk path must allocate at least
    // GATE_MIN_IMPROVEMENT times less than the seed path did.
    let improvement = cases
        .iter()
        .filter(|c| c.iface == Iface::Hpi)
        .map(Case::alloc_improvement)
        .fold(f64::INFINITY, f64::min);
    let json = obj! {
        "latency_bytes" => LAT_BYTES,
        "bulk_message_bytes" => BULK_BYTES,
        "alloc_metric" => "pool checkouts = seed-path allocations at the same call sites; \
            pool misses = pooled-path allocations; improvement = checkouts / max(misses, 1)",
        "gate" => gates.at_least(
            "min HPI bulk alloc_improvement across packages",
            GATE_MIN_IMPROVEMENT,
            improvement,
        ),
        "cases" => cases.iter().map(Case::to_json).collect::<Json>(),
    };
    // Every bulk phase must actually have delivered its traffic.
    for c in cases.iter().filter(|c| c.bulk_received < c.bulk_msgs) {
        gates.failures.push(format!(
            "{}/{} delivered only {}/{} bulk messages",
            c.iface.name(),
            c.package.name(),
            c.bulk_received,
            c.bulk_msgs
        ));
    }
    gates.report(None, json)
}

pub fn run(smoke: bool) -> Report {
    let cases: Vec<Case> = sweep()
        .map(|(package, iface)| {
            let (lat_iters, bulk_msgs) = iterations(iface, package, smoke);
            eprintln!(
                "perf_gate: {} over {} ({lat_iters} rtt iters, {bulk_msgs} bulk msgs)...",
                package.name(),
                iface.name(),
            );
            let case = with_package(package, move |pkg| run_case(iface, package, pkg, smoke));
            summarize(&case.to_json());
            case
        })
        .collect();
    report(&cases)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A full-population report whose HPI cases show `improvement`x.
    pub fn synthetic(improvement: u64) -> Report {
        let cases: Vec<Case> = sweep()
            .map(|(package, iface)| Case {
                iface,
                package,
                lat_iters: 30,
                lat_median_us: 20.0,
                lat_p99_us: 40.0,
                bulk_msgs: 60,
                bulk_received: 60,
                bulk_secs: 0.01,
                pool: PoolStats {
                    checkouts: 100 * improvement,
                    hits: 100 * improvement - 100,
                    misses: 100,
                    ..PoolStats::default()
                },
            })
            .collect();
        report(&cases)
    }

    #[test]
    fn allocation_gate_follows_its_threshold() {
        let ok = synthetic(2);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.json.get("gate").unwrap().get("pass"), Some(&true.into()));
        let bad = synthetic(1);
        assert_eq!(bad.failures.len(), 1);
        assert_eq!(
            bad.json.get("gate").unwrap().get("pass"),
            Some(&false.into())
        );
    }

    #[test]
    fn lost_bulk_traffic_fails_the_run() {
        let mut case = Case {
            iface: Iface::Hpi,
            package: Package::Kernel,
            lat_iters: 1,
            lat_median_us: 1.0,
            lat_p99_us: 1.0,
            bulk_msgs: 60,
            bulk_received: 59,
            bulk_secs: 0.01,
            pool: PoolStats {
                checkouts: 300,
                misses: 1,
                ..PoolStats::default()
            },
        };
        assert_eq!(report(std::slice::from_ref(&case)).failures.len(), 1);
        case.bulk_received = 60;
        assert!(report(&[case]).failures.is_empty());
    }
}
