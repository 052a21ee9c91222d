//! The flight recorder's message-rate cost: with recording enabled (every
//! message stamps lifecycle events into the per-connection ring), the HPI
//! message rate must stay within [`GATE_MAX_OVERHEAD_PCT`] of the
//! kill-switch baseline (recorder disabled — one relaxed load per
//! would-be event, the "compiled-out" cost floor).

use std::sync::Arc;

use ncs_bench::msgrate;
use ncs_core::json::Json;
use ncs_threads::ThreadPackage;

use crate::common::{
    build_pair, bulk_config, num, obj, summarize, with_package, Gates, Iface, Package, Report,
};
use crate::msgrate::msgs_per_thread;

const GATE_MAX_OVERHEAD_PCT: f64 = 5.0;

/// Measurement rounds per recorder state; the best round of each state is
/// compared, which cancels scheduler noise that a single pairing would
/// read as instrumentation cost.
const ROUNDS: usize = 3;

/// Application thread pairs of the probe.
const THREADS: usize = 1;

#[derive(Debug)]
struct Case {
    package: Package,
    msgs_per_thread: usize,
    enabled_mmsgs_s: f64,
    disabled_mmsgs_s: f64,
}

impl Case {
    fn overhead_pct(&self) -> f64 {
        (1.0 - self.enabled_mmsgs_s / self.disabled_mmsgs_s.max(f64::MIN_POSITIVE)) * 100.0
    }

    fn to_json(&self) -> Json {
        obj! {
            "package" => self.package.name(),
            "threads" => THREADS,
            "msgs_per_thread" => self.msgs_per_thread,
            "enabled_mmsgs_s" => num(self.enabled_mmsgs_s, 3),
            "disabled_mmsgs_s" => num(self.disabled_mmsgs_s, 3),
            "overhead_pct" => num(self.overhead_pct(), 2),
        }
    }
}

/// The same msgrate point with recording on versus off over one HPI
/// connection.
fn run_case(package: Package, pkg: Arc<dyn ThreadPackage>, smoke: bool) -> Case {
    let msgs = msgs_per_thread(Iface::Hpi, smoke);
    let pair = build_pair(Iface::Hpi, Arc::clone(&pkg));
    let (conn_tx, conn_rx) = pair.connect(bulk_config(Iface::Hpi));
    msgrate::measure(&conn_tx, &conn_rx, &pkg, THREADS, msgrate::WINDOW_SIZE);
    let mut best_on: f64 = 0.0;
    let mut best_off: f64 = 0.0;
    for _ in 0..ROUNDS {
        for (on, best) in [(true, &mut best_on), (false, &mut best_off)] {
            conn_tx.set_flight_recording(on);
            conn_rx.set_flight_recording(on);
            let m = msgrate::measure(&conn_tx, &conn_rx, &pkg, THREADS, msgs);
            *best = best.max(m.aggregate_mmsgs_s);
        }
    }
    conn_tx.set_flight_recording(true);
    drop(conn_tx);
    drop(conn_rx);
    pair.shutdown();
    Case {
        package,
        msgs_per_thread: msgs,
        enabled_mmsgs_s: best_on,
        disabled_mmsgs_s: best_off,
    }
}

fn report(cases: &[Case]) -> Report {
    let mut gates = Gates::default();
    let overhead_pct = cases
        .iter()
        .map(Case::overhead_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    let json = obj! {
        "interface" => "HPI",
        "message_bytes" => msgrate::MESSAGE_SIZE,
        "gate" => gates.at_most(
            "max HPI msgrate overhead of the flight recorder across packages (recording \
             enabled vs kill-switch disabled), percent",
            GATE_MAX_OVERHEAD_PCT,
            overhead_pct,
        ),
        "cases" => cases.iter().map(Case::to_json).collect::<Json>(),
    };
    gates.report(Some("telemetry"), json)
}

pub fn run(smoke: bool) -> Report {
    let cases: Vec<Case> = Package::ALL
        .into_iter()
        .map(|package| {
            eprintln!(
                "perf_gate: telemetry overhead, {} package over HPI...",
                package.name()
            );
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

    /// A both-packages report recording at `enabled_mmsgs_s` against a
    /// 1.0 Mmsgs/s kill-switch baseline.
    pub fn synthetic(enabled_mmsgs_s: f64) -> Report {
        let cases: Vec<Case> = Package::ALL
            .into_iter()
            .map(|package| Case {
                package,
                msgs_per_thread: 2048,
                enabled_mmsgs_s,
                disabled_mmsgs_s: 1.0,
            })
            .collect();
        report(&cases)
    }

    #[test]
    fn overhead_gate_follows_its_threshold() {
        let ok = synthetic(0.96);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.json.get("gate").unwrap().get("pass"), Some(&true.into()));
        let bad = synthetic(0.94);
        assert_eq!(bad.failures.len(), 1);
        assert_eq!(
            bad.json.get("gate").unwrap().get("pass"),
            Some(&false.into())
        );
    }
}
