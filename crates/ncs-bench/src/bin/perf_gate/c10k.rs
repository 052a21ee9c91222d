//! c10k: [`CONNECTIONS`] simultaneous connections held open between two
//! in-process nodes sharing one readiness reactor. Fails unless the OS
//! thread count stays bounded (O(cores) event loops, never
//! threads-per-connection) and the p99 round-trip time across all
//! connections stays within [`MAX_P99_RATIO`] of the
//! [`BASELINE`]-connection figure.

use std::sync::Arc;
use std::time::Duration;

use ncs_core::json::Json;
use ncs_core::link::HpiLinkPair;
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode, Reactor, ReactorStats};
use ncs_threads::{KernelPackage, ThreadPackage};

use crate::common::{num, obj, percentile, summarize, time_each, Gates, Report, LAT_BYTES};

/// Connections held open concurrently (both nodes live in this process,
/// so 2x this many endpoints ride the shared reactor).
const CONNECTIONS: usize = 1024;

/// Baseline connection count whose p99 RTT anchors the latency gate.
const BASELINE: usize = 8;

/// HPI ring capacity per channel, in frames. Deliberately small: 2 x 1024
/// channels exist at once and each probe has one frame in flight.
const RING: usize = 32;

/// Ceiling on the process's OS thread count while every connection is
/// open. The Figure-4 design spent five threads per connection — over
/// 5,000 threads here; the reactor multiplexes every connection onto
/// O(cores) event loops plus the O(peers) control plane, so the whole
/// process stays far under this bound.
const MAX_THREADS: usize = 128;

/// The loaded p99 RTT may be at most this multiple of the baseline p99.
const MAX_P99_RATIO: f64 = 2.0;

/// One RTT window over a set of open connections.
#[derive(Debug)]
struct Window {
    connections: usize,
    median_us: f64,
    p99_us: f64,
    os_threads: usize,
}

impl Window {
    fn to_json(&self, iters: usize) -> Json {
        obj! {
            "connections" => self.connections,
            "iters" => iters,
            "median_us" => num(self.median_us, 2),
            "p99_us" => num(self.p99_us, 2),
            "os_threads" => self.os_threads,
        }
    }
}

#[derive(Debug)]
struct Case {
    rtt_iters: usize,
    baseline: Window,
    loaded: Window,
    reactor: ReactorStats,
}

impl Case {
    fn p99_ratio(&self) -> f64 {
        self.loaded.p99_us / self.baseline.p99_us.max(f64::EPSILON)
    }
}

/// OS threads in this process, from procfs. 0 when the platform has no
/// `/proc` — the thread gate then rests on the reactor's own shard count.
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Round-robin ping-pong across connection pairs, driven from this thread
/// (HPI completes both directions synchronously, so one thread measures a
/// full application-level round trip).
fn rtt_window(pairs: &[(NcsConnection, NcsConnection)], iters: usize) -> Window {
    let payload = [0x42u8; LAT_BYTES];
    let round_trip = |(ca, cb): &(NcsConnection, NcsConnection)| {
        ca.send(&payload).expect("c10k send");
        let m = cb.recv_timeout(Duration::from_secs(10)).expect("c10k recv");
        cb.send(&m).expect("c10k echo");
        ca.recv_timeout(Duration::from_secs(10))
            .expect("c10k return");
    };
    // One untimed round so every connection's reactor task has run at
    // least once before the measured window.
    pairs.iter().for_each(round_trip);
    let samples = time_each(iters, |k| round_trip(&pairs[k % pairs.len()]));
    Window {
        connections: pairs.len(),
        median_us: percentile(&samples, 0.50),
        p99_us: percentile(&samples, 0.99),
        os_threads: os_thread_count(),
    }
}

fn run_case(smoke: bool) -> Case {
    let rtt_iters = CONNECTIONS * if smoke { 2 } else { 8 };
    let pkg: Arc<dyn ThreadPackage> = Arc::new(KernelPackage::new());
    let reactor = Reactor::with_default_shards(Arc::clone(&pkg));
    let node = |name: &str| {
        NcsNode::builder(name)
            .thread_package(Arc::clone(&pkg))
            .reactor(Arc::clone(&reactor))
            .build()
    };
    let (a, b) = (node("c10k-a"), node("c10k-b"));
    let (la, lb) = HpiLinkPair::with_capacity(RING);
    a.attach_peer("c10k-b", la);
    b.attach_peer("c10k-a", lb);

    let open_pairs = |n: usize| -> Vec<(NcsConnection, NcsConnection)> {
        // Accepts queue autonomously on the peer's master thread, so one
        // thread can open then drain sequentially; arrival order matches
        // connect order on the single link.
        let ca: Vec<NcsConnection> = (0..n)
            .map(|_| {
                a.connect("c10k-b", ConnectionConfig::unreliable())
                    .expect("c10k connect")
            })
            .collect();
        ca.into_iter()
            .map(|c| (c, b.accept_default().expect("c10k accept")))
            .collect()
    };

    let mut pairs = open_pairs(BASELINE);
    let baseline = rtt_window(&pairs, rtt_iters);
    eprintln!("  opening {CONNECTIONS} connections...");
    pairs.extend(open_pairs(CONNECTIONS - BASELINE));
    let loaded = rtt_window(&pairs, rtt_iters);
    let reactor_stats = reactor.stats();

    for (ca, cb) in &pairs {
        ca.close();
        cb.close();
    }
    a.shutdown();
    b.shutdown();
    reactor.shutdown();
    Case {
        rtt_iters,
        baseline,
        loaded,
        reactor: reactor_stats,
    }
}

fn report(case: &Case) -> Report {
    let mut gates = Gates::default();
    let thread_metric = format!(
        "OS threads with {CONNECTIONS} connections open — the reactor multiplexes every \
         connection onto O(cores) event loops, never one thread (let alone five) per connection"
    );
    let latency_metric = format!(
        "p99 RTT round-robin across all {CONNECTIONS} connections, as a multiple of the \
         {BASELINE}-connection p99"
    );
    let r = &case.reactor;
    let json = obj! {
        "interface" => "HPI",
        "connections" => CONNECTIONS,
        "latency_bytes" => LAT_BYTES,
        "thread_gate" =>
            gates.at_most(&thread_metric, MAX_THREADS as f64, case.loaded.os_threads as f64),
        "latency_gate" => gates.at_most(&latency_metric, MAX_P99_RATIO, case.p99_ratio()),
        "baseline" => case.baseline.to_json(case.rtt_iters),
        "loaded" => case.loaded.to_json(case.rtt_iters),
        "reactor" => obj! {
            "workers" => r.workers,
            "endpoints" => r.endpoints,
            "polls" => r.polls,
            "wakeups" => r.wakeups,
            "task_runs" => r.task_runs,
            "timer_fires" => r.timer_fires,
            "fd_events" => r.fd_events,
            "stalled_tasks" => r.stalled_tasks,
            "blocking_spawned" => r.blocking_spawned,
            "blocking_active" => r.blocking_active,
        },
    };
    gates.report(Some("c10k"), json)
}

pub fn run(smoke: bool) -> Report {
    eprintln!("perf_gate: c10k, {CONNECTIONS} connections over HPI on one reactor...");
    let case = run_case(smoke);
    summarize(&case.baseline.to_json(case.rtt_iters));
    summarize(&case.loaded.to_json(case.rtt_iters));
    report(&case)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A report with `os_threads` threads under load and a loaded p99 of
    /// `loaded_p99_us` against a 50 us baseline.
    pub fn synthetic(os_threads: usize, loaded_p99_us: f64) -> Report {
        report(&Case {
            rtt_iters: 2048,
            baseline: Window {
                connections: BASELINE,
                median_us: 20.0,
                p99_us: 50.0,
                os_threads: 12,
            },
            loaded: Window {
                connections: CONNECTIONS,
                median_us: 25.0,
                p99_us: loaded_p99_us,
                os_threads,
            },
            reactor: ReactorStats {
                workers: 2,
                endpoints: 2048,
                ..ReactorStats::default()
            },
        })
    }

    #[test]
    fn thread_and_latency_gates_are_independent() {
        let pass_of = |r: &Report, gate: &str| r.json.get(gate).unwrap().get("pass").cloned();
        let ok = synthetic(128, 100.0);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(pass_of(&ok, "thread_gate"), Some(true.into()));
        assert_eq!(pass_of(&ok, "latency_gate"), Some(true.into()));
        let threads = synthetic(129, 100.0);
        assert_eq!(threads.failures.len(), 1);
        assert_eq!(pass_of(&threads, "thread_gate"), Some(false.into()));
        assert_eq!(pass_of(&threads, "latency_gate"), Some(true.into()));
        let tail = synthetic(30, 100.5);
        assert_eq!(tail.failures.len(), 1);
        assert_eq!(pass_of(&tail, "thread_gate"), Some(true.into()));
        assert_eq!(pass_of(&tail, "latency_gate"), Some(false.into()));
    }
}
