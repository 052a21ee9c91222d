//! The membership control plane: a real `ncsd` + [`MemberAgent`] world of
//! [`NP`] ranks over loopback through repeated silence → death-view →
//! rejoin → join-view cycles. Fails unless the median failure-detection
//! latency (victim silenced → death view applied by the slowest survivor)
//! stays within [`GATE_MAX_DETECT_INTERVALS`] heartbeat intervals, the
//! median view-propagation latency (rejoin accepted → join view applied
//! by the slowest survivor) stays under [`GATE_MAX_PROP_MS`] ms, and
//! every survivor observed strictly increasing view epochs.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ncs_core::json::Json;
use ncs_runtime::membership::ViewSink;
use ncs_runtime::{
    rendezvous, MemberAgent, MembershipConfig, MembershipMetrics, RendezvousServer, View,
};

use crate::common::{num, obj, percentile, sorted, summarize, Gates, Report};

/// World size; the highest rank is the victim that is repeatedly silenced
/// and rejoined.
const NP: u32 = 4;

/// Failure detection (victim silenced → death view applied by the last
/// survivor) must land within this multiple of the heartbeat interval.
const GATE_MAX_DETECT_INTERVALS: f64 = 3.0;

/// View propagation (rejoin accepted by `ncsd` → new view applied by the
/// last survivor) must land within this many milliseconds. Views are
/// pushed on the subscribers' long-lived channels the moment `ncsd` reads
/// the rejoin, so the real figure is the rejoin's dial plus a couple of
/// loopback hops; the bound only has to catch a broken push path.
const GATE_MAX_PROP_MS: f64 = 150.0;

/// Detector tuning for the section. `dead_after` is two heartbeat
/// intervals, so the end-to-end detection figure (silence → sweep →
/// push → sink) has half an interval of headroom under the 3× gate
/// while staying lax enough that a stalled runner doesn't convict a
/// pulsing survivor.
fn detector() -> MembershipConfig {
    MembershipConfig {
        heartbeat_interval: Duration::from_millis(100),
        suspect_after: Duration::from_millis(150),
        dead_after: Duration::from_millis(200),
    }
}

/// Kill/rejoin cycles the section drives.
fn cycles(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        5
    }
}

#[derive(Debug)]
struct Case {
    cycles: usize,
    /// Per-cycle silence → death-view latency (worst survivor), sorted, ms.
    detect_ms: Vec<f64>,
    /// Per-cycle rejoin → join-view latency (worst survivor), sorted, ms.
    prop_ms: Vec<f64>,
    /// Every survivor saw strictly increasing view epochs.
    views_in_order: bool,
}

impl Case {
    fn to_json(&self) -> Json {
        let spread = |sorted_ms: &[f64]| {
            obj! {
                "median_ms" => num(percentile(sorted_ms, 0.5), 2),
                "max_ms" => num(sorted_ms.last().copied().unwrap_or(0.0), 2),
            }
        };
        obj! {
            "np" => NP,
            "cycles" => self.cycles,
            "detection" => spread(&self.detect_ms),
            "propagation" => spread(&self.prop_ms),
        }
    }
}

/// One timestamped view observation at a survivor's sink.
type ViewLog = Arc<Mutex<Vec<(Instant, View)>>>;

/// Blocks until every log holds a view matching `pred`, returning the
/// worst (latest) arrival timestamp across the logs.
fn wait_all(logs: &[ViewLog], what: &str, pred: impl Fn(&View) -> bool) -> Instant {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut worst = Instant::now();
    for log in logs {
        loop {
            if let Some((at, _)) = log
                .lock()
                .expect("membership log")
                .iter()
                .find(|(_, v)| pred(v))
            {
                worst = worst.max(*at);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "membership section timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    worst
}

/// Drives the world through `cycles` rounds, timing the failure detector
/// and the view push at the survivors' sinks.
fn run_case(smoke: bool) -> Case {
    let cfg = detector();
    let victim = NP - 1;
    let cycles = cycles(smoke);
    let server =
        RendezvousServer::start_with("127.0.0.1:0", NP, cfg.clone()).expect("membership ncsd");
    let ncsd = server.addr();
    let agent = |rank: u32, incarnation: u32, sink: ViewSink| {
        MemberAgent::start(
            ncsd,
            rank,
            incarnation,
            cfg.clone(),
            MembershipMetrics::detached(),
            sink,
        )
        .expect("member agent")
    };

    // Seal the roster (membership epoch 1) with placeholder listener
    // addresses: the section measures the control plane — nothing ever
    // dials a member.
    let registrars: Vec<_> = (0..NP)
        .map(|r| {
            std::thread::spawn(move || {
                let addr: SocketAddr = format!("127.0.0.1:{}", 40_000 + r).parse().expect("addr");
                rendezvous::register(ncsd, r, NP, addr, Duration::from_secs(10))
                    .expect("membership register")
            })
        })
        .collect();
    for h in registrars {
        h.join().expect("register thread");
    }

    let logs: Vec<ViewLog> = (0..victim).map(|_| ViewLog::default()).collect();
    let mut survivors: Vec<MemberAgent> = logs
        .iter()
        .enumerate()
        .map(|(r, log)| {
            let log = Arc::clone(log);
            agent(
                r as u32,
                0,
                Arc::new(move |v: &View| {
                    log.lock()
                        .expect("membership log")
                        .push((Instant::now(), v.clone()));
                }),
            )
        })
        .collect();
    let mut victim_agent = agent(victim, 0, Arc::new(|_: &View| {}));
    wait_all(&logs, "seed view", |v| v.id == 1 && v.is_full());

    let rejoin_addr: SocketAddr = "127.0.0.1:40999".parse().expect("addr");
    let mut detect_ms = Vec::with_capacity(cycles);
    let mut prop_ms = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        // Views advance deterministically: seed is 1, then one death and
        // one join view per cycle.
        let death_id = 2 + 2 * cycle as u64;
        victim_agent.stop();
        let t0 = Instant::now();
        let seen = wait_all(&logs, "death view", |v| {
            v.id == death_id && v.dead.contains(&victim)
        });
        detect_ms.push(seen.saturating_duration_since(t0).as_secs_f64() * 1e3);

        let incarnation = cycle as u32 + 1;
        let t1 = Instant::now();
        rendezvous::rejoin(
            ncsd,
            victim,
            NP,
            rejoin_addr,
            incarnation,
            Duration::from_secs(10),
        )
        .expect("membership rejoin");
        let seen = wait_all(&logs, "join view", |v| {
            v.id == death_id + 1 && v.joined.contains(&victim)
        });
        prop_ms.push(seen.saturating_duration_since(t1).as_secs_f64() * 1e3);
        victim_agent = agent(victim, incarnation, Arc::new(|_: &View| {}));
    }

    let views_in_order = logs.iter().all(|log| {
        let log = log.lock().expect("membership log");
        log.windows(2).all(|w| w[0].1.id < w[1].1.id)
    });

    victim_agent.stop();
    for a in &mut survivors {
        a.stop();
    }
    Case {
        cycles,
        detect_ms: sorted(detect_ms),
        prop_ms: sorted(prop_ms),
        views_in_order,
    }
}

fn report(case: &Case) -> Report {
    let mut gates = Gates::default();
    let cfg = detector();
    let millis = |d: Duration| num(d.as_secs_f64() * 1e3, 0);
    let heartbeat_ms = cfg.heartbeat_interval.as_secs_f64() * 1e3;
    let json = obj! {
        "np" => NP,
        "heartbeat_ms" => millis(cfg.heartbeat_interval),
        "suspect_ms" => millis(cfg.suspect_after),
        "dead_ms" => millis(cfg.dead_after),
        "detection_gate" => gates.at_most(
            "median silence -> death-view latency at the slowest survivor, in heartbeat intervals",
            GATE_MAX_DETECT_INTERVALS,
            percentile(&case.detect_ms, 0.5) / heartbeat_ms,
        ),
        "propagation_gate" => gates.at_most(
            "median rejoin -> join-view latency at the slowest survivor, ms",
            GATE_MAX_PROP_MS,
            percentile(&case.prop_ms, 0.5),
        ),
        "ordering_gate" => gates.holds(
            "every survivor observed strictly increasing view epochs",
            case.views_in_order,
        ),
        "cases" => Json::Arr(vec![case.to_json()]),
    };
    gates.report(Some("membership"), json)
}

pub fn run(smoke: bool) -> Report {
    eprintln!(
        "perf_gate: membership, {NP} ranks, {} kill/rejoin cycles over loopback...",
        cycles(smoke)
    );
    let case = run_case(smoke);
    summarize(&case.to_json());
    eprintln!("  epochs in order: {}", case.views_in_order);
    report(&case)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn synthetic(detect_ms: f64, prop_ms: f64, views_in_order: bool) -> Report {
        report(&Case {
            cycles: 2,
            detect_ms: vec![detect_ms, detect_ms + 10.0],
            prop_ms: vec![prop_ms, prop_ms + 5.0],
            views_in_order,
        })
    }

    #[test]
    fn each_gate_follows_its_own_threshold() {
        let passes = |r: &Report| {
            ["detection_gate", "propagation_gate", "ordering_gate"]
                .map(|g| r.json.get(g).unwrap().get("pass").and_then(Json::as_bool))
        };
        // percentile() rounds the p50 index up: the gates read the larger
        // of the two samples.
        let ok = synthetic(290.0, 145.0, true);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(passes(&ok), [Some(true); 3]);
        let slow_detect = synthetic(291.0, 145.0, true);
        assert_eq!(slow_detect.failures.len(), 1);
        assert_eq!(passes(&slow_detect), [Some(false), Some(true), Some(true)]);
        let slow_push = synthetic(290.0, 146.0, true);
        assert_eq!(slow_push.failures.len(), 1);
        assert_eq!(passes(&slow_push), [Some(true), Some(false), Some(true)]);
        let reordered = synthetic(290.0, 145.0, false);
        assert_eq!(reordered.failures.len(), 1);
        assert_eq!(passes(&reordered), [Some(true), Some(true), Some(false)]);
    }
}
