//! mt_msgrate: aggregate message rate as 1/2/4 application threads hammer
//! one connection through per-thread `Channel`s (HPI + SCI, both
//! packages). The run fails unless the 4-thread aggregate on HPI under
//! the kernel package clears a parallelism-aware multiple of the 1-thread
//! figure ([`msgrate::scaling_threshold`]: 2.0x where the host offers at
//! least 4 CPUs, degrading to a documented no-collapse bound on smaller
//! hosts).

use std::sync::Arc;

use ncs_bench::msgrate;
use ncs_core::json::Json;
use ncs_threads::ThreadPackage;

use crate::common::{
    build_pair, bulk_config, num, obj, summarize, with_package, Gates, Iface, Package, Report,
};

/// Interfaces the section sweeps (HPI = fastest in-process path, SCI =
/// real sockets).
const IFACES: [Iface; 2] = [Iface::Hpi, Iface::Sci];

/// Messages per thread for one point, per interface and mode (multiples
/// of the 64-message window).
pub fn msgs_per_thread(iface: Iface, smoke: bool) -> usize {
    match (iface, smoke) {
        (Iface::Hpi, false) => 64 * 512,
        (Iface::Hpi, true) => 64 * 32,
        (_, false) => 64 * 64,
        (_, true) => 64 * 8,
    }
}

#[derive(Debug)]
struct Case {
    iface: Iface,
    package: Package,
    rate: msgrate::MsgRate,
}

impl Case {
    fn to_json(&self) -> Json {
        let rate = &self.rate;
        obj! {
            "interface" => self.iface.name(),
            "package" => self.package.name(),
            "threads" => rate.threads,
            "msgs_per_thread" => rate.msgs_per_thread,
            "aggregate_mmsgs_s" => num(rate.aggregate_mmsgs_s, 3),
            "per_thread_mmsgs_s" =>
                rate.per_thread_mmsgs_s.iter().map(|&v| num(v, 3)).collect::<Json>(),
        }
    }
}

/// Runs one point: `threads` sender/receiver thread pairs on `pkg`, each
/// pair on its own per-thread channel over one connection.
fn run_case(
    iface: Iface,
    pkg: Arc<dyn ThreadPackage>,
    threads: usize,
    msgs: usize,
) -> msgrate::MsgRate {
    let pair = build_pair(iface, Arc::clone(&pkg));
    let (conn_tx, conn_rx) = pair.connect(bulk_config(iface));
    // One untimed window per channel charges the pool and wake paths.
    msgrate::measure(&conn_tx, &conn_rx, &pkg, threads, msgrate::WINDOW_SIZE);
    let rate = msgrate::measure(&conn_tx, &conn_rx, &pkg, threads, msgs);
    drop(conn_tx);
    drop(conn_rx);
    pair.shutdown();
    rate
}

/// The measured population, in artifact order.
fn sweep() -> impl Iterator<Item = (Package, Iface, usize)> {
    Package::ALL.into_iter().flat_map(|p| {
        IFACES
            .into_iter()
            .flat_map(move |i| msgrate::THREAD_COUNTS.map(|t| (p, i, t)))
    })
}

/// `cpus` is what the host grants this process: the scaling threshold is
/// a statement about it.
fn report(cases: &[Case], cpus: usize) -> Report {
    // The scaling gate reads the kernel-package HPI sweep: the user
    // package is M:1 by construction (green threads share one core), so
    // only kernel threads can exhibit CPU parallelism.
    let threshold = msgrate::scaling_threshold(cpus);
    let aggregate = |threads: usize| {
        cases
            .iter()
            .find(|c| {
                c.iface == Iface::Hpi && c.package == Package::Kernel && c.rate.threads == threads
            })
            .map_or(0.0, |c| c.rate.aggregate_mmsgs_s)
    };
    let scaling = aggregate(4) / aggregate(1).max(f64::MIN_POSITIVE);
    let mut gates = Gates::default();
    let mut gate = gates.at_least(
        "HPI kernel-package aggregate Mmsgs/s at 4 threads over 1 thread; threshold is \
         parallelism-aware (2.0 at >= 4 CPUs, 1.2 at 2-3, 0.5 no-collapse at 1 — see \
         docs/BENCH_SCHEMA.md)",
        threshold,
        scaling,
    );
    if let Json::Obj(members) = &mut gate {
        members.insert("cpus".into(), cpus.into());
    }
    let json = obj! {
        "message_bytes" => msgrate::MESSAGE_SIZE,
        "window" => msgrate::WINDOW_SIZE,
        "gate" => gate,
        "cases" => cases.iter().map(Case::to_json).collect::<Json>(),
    };
    gates.report(Some("mt_msgrate"), json)
}

pub fn run(smoke: bool) -> Report {
    let cases: Vec<Case> = sweep()
        .map(|(package, iface, threads)| {
            let msgs = msgs_per_thread(iface, smoke);
            eprintln!(
                "perf_gate: mt_msgrate, {} over {}, {threads} threads x {msgs} msgs...",
                package.name(),
                iface.name(),
            );
            let rate = with_package(package, move |pkg| run_case(iface, pkg, threads, msgs));
            let case = Case {
                iface,
                package,
                rate,
            };
            summarize(&case.to_json());
            case
        })
        .collect();
    report(&cases, msgrate::host_cpus())
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A full-population report on a 4-CPU host whose 4-thread points
    /// reach `four_thread_mmsgs_s` against 1.0 at one thread.
    pub fn synthetic(four_thread_mmsgs_s: f64) -> Report {
        let cases: Vec<Case> = sweep()
            .map(|(package, iface, threads)| {
                let aggregate = if threads == 4 {
                    four_thread_mmsgs_s
                } else {
                    1.0
                };
                Case {
                    iface,
                    package,
                    rate: msgrate::MsgRate {
                        threads,
                        msgs_per_thread: 512,
                        per_thread_mmsgs_s: vec![aggregate / threads as f64; threads],
                        aggregate_mmsgs_s: aggregate,
                    },
                }
            })
            .collect();
        report(&cases, 4)
    }

    #[test]
    fn scaling_gate_follows_its_threshold() {
        let ok = synthetic(2.0);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        let gate = ok.json.get("gate").unwrap();
        assert_eq!(gate.get("pass"), Some(&true.into()));
        assert_eq!(gate.get("cpus"), Some(&4u32.into()));
        let bad = synthetic(1.9);
        assert_eq!(bad.failures.len(), 1);
        assert_eq!(
            bad.json.get("gate").unwrap().get("pass"),
            Some(&false.into())
        );
    }
}
