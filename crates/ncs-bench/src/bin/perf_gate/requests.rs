//! Requests over HPI: `isend`/`irecv` against the blocking wrappers on the
//! same wire, and the zero-copy `MsgView` receive path against `recv()`'s
//! detaching `Vec` — the latter gated on allocations per message.

use std::sync::Arc;
use std::time::Duration;

use ncs_core::json::Json;
use ncs_core::{ConnectionConfig, NcsConnection};
use ncs_threads::sync::Event;
use ncs_threads::ThreadPackage;

use crate::common::{
    build_pair, num, obj, percentile, ping_pong, summarize, time_each, with_package, Gates, Iface,
    Package, Report,
};

/// Ping-pong payload for the request-vs-blocking RTT probe (bytes).
const LAT_BYTES: usize = 64;

/// One-way message size for the allocations probe (bytes); fits one SDU,
/// so each message costs the receive path exactly one delivery buffer.
const BULK_BYTES: usize = 2048;

/// Messages per paced window of the allocations probe. The sink
/// acknowledges each window with a 1-byte token before the sender
/// continues, bounding the delivery buffers outstanding at any moment —
/// the probe measures steady-state recycling, not how far an unpaced
/// burst can outrun one consumer thread.
const WINDOW: usize = 32;

/// Warm-up windows before each allocations measurement (charges the
/// receive node's free lists so the window reports steady state).
const WARMUP_WINDOWS: usize = 3;

/// The zero-copy receive path must allocate at least this factor fewer
/// buffers per message than the `Vec`-returning `recv` path. `recv`
/// detaches every pooled delivery buffer (≈ 1 allocation per message);
/// dropping a `MsgView` recycles it (≈ 0 after warm-up), so 2x is a
/// floor with a wide margin, not a stretch goal.
const GATE_MIN_RATIO: f64 = 2.0;

#[derive(Debug)]
struct Case {
    package: Package,
    lat_iters: usize,
    blocking_rtt_median_us: f64,
    blocking_rtt_p99_us: f64,
    request_rtt_median_us: f64,
    request_rtt_p99_us: f64,
    bulk_msgs: usize,
    /// Receive-node pool misses over the window drained with `recv()`
    /// (every delivery buffer detaches with the returned `Vec`).
    misses_recv: u64,
    /// Same window drained with `recv_view` + drop (buffers recycle).
    misses_msgview: u64,
}

impl Case {
    /// recv misses / max(msgview misses, 1).
    fn alloc_ratio(&self) -> f64 {
        self.misses_recv as f64 / self.misses_msgview.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let per_msg = |misses: u64| num(misses as f64 / self.bulk_msgs as f64, 3);
        obj! {
            "package" => self.package.name(),
            "rtt" => obj! {
                "iters" => self.lat_iters,
                "blocking_median_us" => num(self.blocking_rtt_median_us, 2),
                "blocking_p99_us" => num(self.blocking_rtt_p99_us, 2),
                "request_median_us" => num(self.request_rtt_median_us, 2),
                "request_p99_us" => num(self.request_rtt_p99_us, 2),
            },
            "allocs" => obj! {
                "messages" => self.bulk_msgs,
                "per_msg_recv" => per_msg(self.misses_recv),
                "per_msg_msgview" => per_msg(self.misses_msgview),
                "ratio" => num(self.alloc_ratio(), 2),
            },
        }
    }
}

/// Echo peer for the RTT phases: bounces `count` messages back.
fn spawn_echo(conn: NcsConnection, count: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for _ in 0..count {
            match conn.recv_view(Duration::from_secs(30)) {
                Ok(m) => {
                    if conn.send(&m).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    })
}

/// Sink for the allocations phases: drains `windows` windows of
/// [`WINDOW`] messages in the given style, acknowledging each window
/// with a token so the sender stays paced, then fires `done`.
fn spawn_sink(
    conn: NcsConnection,
    windows: usize,
    zero_copy: bool,
    done: Arc<Event>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        'outer: for _ in 0..windows {
            for _ in 0..WINDOW {
                let drained = if zero_copy {
                    // MsgView path: the pooled delivery buffer recycles
                    // on drop.
                    conn.recv_view(Duration::from_secs(30)).is_ok()
                } else {
                    // Compatibility path: recv() detaches the buffer as
                    // a Vec.
                    conn.recv_timeout(Duration::from_secs(30)).is_ok()
                };
                if !drained {
                    break 'outer;
                }
            }
            if conn.send(&[0xA1]).is_err() {
                break;
            }
        }
        done.fire();
    })
}

/// Sender half of one paced allocations phase: `windows` windows of
/// [`WINDOW`] messages, each acknowledged by the sink's token.
fn drive_windows(conn_tx: &NcsConnection, payload: &[u8], windows: usize) {
    for _ in 0..windows {
        for _ in 0..WINDOW {
            conn_tx.send(payload).expect("bulk send");
        }
        let token = conn_tx
            .recv_timeout(Duration::from_secs(30))
            .expect("window token");
        debug_assert_eq!(token.len(), 1);
    }
}

/// Measures one package's case over HPI (the §3.1 bypass, where receives
/// reassemble straight into pooled buffers).
fn run_case(package: Package, pkg: Arc<dyn ThreadPackage>, smoke: bool) -> Case {
    let lat_iters = if smoke { 60 } else { 400 };
    let bulk_msgs: usize = if smoke { 160 } else { 1024 };

    // --- RTT: blocking send/recv vs isend/irecv on the same wire. --------
    let pair = build_pair(Iface::Hpi, Arc::clone(&pkg));
    let (conn_tx, conn_rx) = pair.connect(ConnectionConfig::unreliable());
    let echo = spawn_echo(conn_rx, 2 * lat_iters + 2);
    let payload = [0xD4u8; LAT_BYTES];
    let blocking_us = ping_pong(&conn_tx, &payload, lat_iters);

    // Request window (after one more untimed exchange): post irecv
    // before isend, wait the pair.
    ping_pong(&conn_tx, &payload, 0);
    let request_us = time_each(lat_iters, |_| {
        let want = conn_tx.irecv();
        let sent = conn_tx.isend(&payload).expect("isend");
        sent.wait_timeout(Duration::from_secs(10))
            .expect("isend completion");
        let back = want
            .wait_timeout(Duration::from_secs(10))
            .expect("irecv completion");
        debug_assert_eq!(back.len(), LAT_BYTES);
    });
    let _ = echo.join();
    pair.shutdown();

    // --- Allocations per message: recv() vs MsgView, paced one-way. ------
    let windows = bulk_msgs.div_ceil(WINDOW);
    let [misses_recv, misses_msgview] = [false, true].map(|zero_copy| {
        let pair = build_pair(Iface::Hpi, Arc::clone(&pkg));
        let (conn_tx, conn_rx) = pair.connect(ConnectionConfig::unreliable());
        let payload = vec![0xE5u8; BULK_BYTES];
        let done = Arc::new(Event::new());
        let sink = spawn_sink(
            conn_rx,
            WARMUP_WINDOWS + windows,
            zero_copy,
            Arc::clone(&done),
        );
        // Warm-up in the same consumption style, then snapshot.
        drive_windows(&conn_tx, &payload, WARMUP_WINDOWS);
        let before = pair.rx_node.pool_stats();
        drive_windows(&conn_tx, &payload, windows);
        assert!(
            done.wait_timeout(Duration::from_secs(120)),
            "request bulk never drained"
        );
        let misses = pair.rx_node.pool_stats().since(&before).misses;
        let _ = sink.join();
        pair.shutdown();
        misses
    });

    Case {
        package,
        lat_iters,
        blocking_rtt_median_us: percentile(&blocking_us, 0.50),
        blocking_rtt_p99_us: percentile(&blocking_us, 0.99),
        request_rtt_median_us: percentile(&request_us, 0.50),
        request_rtt_p99_us: percentile(&request_us, 0.99),
        bulk_msgs: windows * WINDOW,
        misses_recv,
        misses_msgview,
    }
}

fn report(cases: &[Case]) -> Report {
    let mut gates = Gates::default();
    let ratio = cases
        .iter()
        .map(Case::alloc_ratio)
        .fold(f64::INFINITY, f64::min);
    let metric = format!(
        "min (recv allocs/msg / MsgView allocs/msg) across packages — the zero-copy receive \
         path must allocate >= {GATE_MIN_RATIO:.0}x fewer buffers per message"
    );
    let json = obj! {
        "interface" => "HPI",
        "latency_bytes" => LAT_BYTES,
        "bulk_message_bytes" => BULK_BYTES,
        "gate" => gates.at_least(&metric, GATE_MIN_RATIO, ratio),
        "cases" => cases.iter().map(Case::to_json).collect::<Json>(),
    };
    gates.report(Some("requests"), json)
}

pub fn run(smoke: bool) -> Report {
    let cases: Vec<Case> = Package::ALL
        .into_iter()
        .map(|package| {
            eprintln!("perf_gate: requests, {} package...", package.name());
            let case = with_package(package, move |pkg| run_case(package, pkg, smoke));
            summarize(&case.to_json());
            case
        })
        .collect();
    report(&cases)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A both-packages report whose `recv()` window missed `misses_recv`
    /// times per 10 MsgView misses.
    pub fn synthetic(misses_recv: u64) -> Report {
        let cases: Vec<Case> = Package::ALL
            .into_iter()
            .map(|package| Case {
                package,
                lat_iters: 60,
                blocking_rtt_median_us: 25.0,
                blocking_rtt_p99_us: 60.0,
                request_rtt_median_us: 27.0,
                request_rtt_p99_us: 70.0,
                bulk_msgs: 160,
                misses_recv,
                misses_msgview: 10,
            })
            .collect();
        report(&cases)
    }

    #[test]
    fn alloc_ratio_gate_follows_its_threshold() {
        let ok = synthetic(20);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.json.get("gate").unwrap().get("pass"), Some(&true.into()));
        let bad = synthetic(19);
        assert_eq!(bad.failures.len(), 1);
        assert_eq!(
            bad.json.get("gate").unwrap().get("pass"),
            Some(&false.into())
        );
    }
}
