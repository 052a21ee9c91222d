//! The collectives engine over an in-process HPI world: allreduce and
//! broadcast latency against group size under both thread packages,
//! comparing the binomial-tree broadcast with the repetitive flat
//! multicast. The run fails unless the tree beats flat on origin egress
//! for every group of at least [`GATE_MIN_GROUP`] members.

use std::sync::Arc;
use std::time::Instant;

use ncs_collectives::{CollectiveGroup, ReduceOp, Topology};
use ncs_core::json::Json;
use ncs_core::NcsConnection;
use ncs_runtime::{LocalWorld, Session};
use ncs_threads::{ThreadPackage, ThreadPackageExt};

use crate::common::{
    micros_since, num, obj, percentile, summarize, time_each, with_package, Gates, Package, Report,
};

/// Group sizes the section sweeps.
const GROUP_SIZES: [u32; 3] = [2, 4, 8];

/// Elements per member in the allreduce latency probe.
const ALLREDUCE_ELEMS: usize = 64;

/// Broadcast payload (bytes) for the binomial-vs-flat comparison: large
/// enough that per-child fan-out work is visible next to the fixed
/// submit/complete handoff, small enough that a round's frames fit the
/// bounded send queues (no backpressure — the window must measure the
/// origin's own work, not downstream drain).
const BCAST_BYTES: usize = 32 * 1024;

/// Untimed rounds before each measured broadcast window (warms the buffer
/// pool's free lists and every thread's wake path, so the first topology
/// measured is not penalised).
const BCAST_WARMUP: usize = 4;

/// Groups of at least this size must show the binomial tree beating the
/// repetitive flat fan-out.
const GATE_MIN_GROUP: u32 = 4;

/// Minimum origin-egress improvement (flat frames / binomial frames) the
/// tree must show for gated group sizes. The structural ratio is
/// `(n-1) / ⌈log₂ n⌉` — 1.5 at n=4 — so 1.3 leaves slack only for
/// bookkeeping traffic, not for a broken topology.
const GATE_MIN_EGRESS_RATIO: f64 = 1.3;

/// One broadcast topology's measured window.
#[derive(Debug, Clone, Copy, Default)]
struct Bcast {
    /// Root-side broadcast cost per round (blocking call at the origin).
    root_us: f64,
    /// Fence-confirmed completion per round (until every member holds the
    /// payload).
    done_us: f64,
    /// Data frames the origin transmitted during the window — the paper's
    /// spanning-tree claim (O(log n) copies instead of n-1), measured from
    /// the root's connection counters.
    root_frames: u64,
}

#[derive(Debug)]
struct Case {
    package: Package,
    group_size: u32,
    allreduce_iters: usize,
    allreduce_median_us: f64,
    bcast_rounds: usize,
    binomial: Bcast,
    flat: Bcast,
}

impl Case {
    /// Origin egress improvement: flat frames / binomial frames.
    fn egress_ratio(&self) -> f64 {
        self.flat.root_frames as f64 / self.binomial.root_frames.max(1) as f64
    }

    fn to_json(&self) -> Json {
        obj! {
            "package" => self.package.name(),
            "group_size" => self.group_size,
            "allreduce" => obj! {
                "iters" => self.allreduce_iters,
                "median_us" => num(self.allreduce_median_us, 2),
            },
            "broadcast" => obj! {
                "rounds" => self.bcast_rounds,
                "root_binomial_us" => num(self.binomial.root_us, 2),
                "root_flat_us" => num(self.flat.root_us, 2),
                "done_binomial_us" => num(self.binomial.done_us, 2),
                "done_flat_us" => num(self.flat.done_us, 2),
                "root_frames_binomial" => self.binomial.root_frames,
                "root_frames_flat" => self.flat.root_frames,
                "egress_ratio" => num(self.egress_ratio(), 2),
            },
        }
    }
}

/// The schedule every member runs; rank 0 (the caller's thread, with its
/// world links in `root_conns`) returns the timings: allreduce median,
/// then the binomial and flat broadcast windows. Each window closes with
/// a 1-element allreduce that cannot finish until every member consumed
/// the batch.
fn schedule(
    rank: usize,
    g: &CollectiveGroup,
    root_conns: &[&NcsConnection],
    lat_iters: usize,
    bcast_rounds: usize,
) -> (f64, [Bcast; 2]) {
    let bcast_elems = BCAST_BYTES / 8;
    let frames_sent = || -> u64 { root_conns.iter().map(|c| c.stats().packets_sent).sum() };
    let fence = || {
        let ones = g.allreduce(vec![1.0f64], ReduceOp::Sum).expect("fence");
        debug_assert!(ones[0] >= 1.0);
    };
    // Allreduce latency (inherently synchronised; measured at rank 0).
    let contrib = vec![rank as f64 + 1.0; ALLREDUCE_ELEMS];
    let lat_us = time_each(lat_iters, |_| {
        let s = g
            .allreduce(contrib.clone(), ReduceOp::Sum)
            .expect("allreduce");
        debug_assert!(s.len() == ALLREDUCE_ELEMS);
    });
    // Broadcast: binomial tree vs repetitive flat fan-out.
    let windows = [Topology::BinomialTree, Topology::Flat].map(|topo| {
        for _ in 0..BCAST_WARMUP {
            g.broadcast_with(0, vec![0u64; bcast_elems], topo)
                .expect("warmup broadcast");
        }
        fence();
        let frames_before = frames_sent();
        let t0 = Instant::now();
        for round in 0..bcast_rounds as u64 {
            let fill = if rank == 0 { round } else { 0 };
            let got = g
                .broadcast_with(0, vec![fill; bcast_elems], topo)
                .expect("broadcast");
            debug_assert!(got[0] == round);
        }
        let root_us = micros_since(t0) / bcast_rounds as f64;
        fence();
        let done_us = micros_since(t0) / bcast_rounds as f64;
        // The fence guarantees every queued frame was transmitted, so the
        // counter delta is the window's complete origin egress.
        Bcast {
            root_us,
            done_us,
            root_frames: frames_sent() - frames_before,
        }
    });
    (percentile(&lat_us, 0.50), windows)
}

fn run_case(group_size: u32, package: Package, pkg: Arc<dyn ThreadPackage>, smoke: bool) -> Case {
    let (lat_iters, bcast_rounds) = if smoke { (40, 12) } else { (200, 32) };
    let world = LocalWorld::with_package(group_size, Arc::clone(&pkg)).expect("collectives world");
    let groups: Vec<Arc<CollectiveGroup>> = world
        .iter()
        .map(|s| Arc::new(s.collective_group(1).expect("collective group")))
        .collect();
    // Ranks 1.. run on package threads; rank 0 measures on this thread.
    let members: Vec<_> = groups
        .iter()
        .enumerate()
        .skip(1)
        .map(|(rank, g)| {
            let g = Arc::clone(g);
            pkg.spawn_typed(&format!("coll-member-{rank}"), move || {
                schedule(rank, &g, &[], lat_iters, bcast_rounds);
            })
        })
        .collect();
    let root_conns: Vec<&NcsConnection> = (1..group_size)
        .map(|r| world[0].connection(r).expect("world link"))
        .collect();
    let (allreduce_median_us, [binomial, flat]) =
        schedule(0, &groups[0], &root_conns, lat_iters, bcast_rounds);
    for m in members {
        m.join().expect("collective member");
    }
    drop(groups);
    for s in &world {
        s.shutdown();
    }
    Case {
        package,
        group_size,
        allreduce_iters: lat_iters,
        allreduce_median_us,
        bcast_rounds,
        binomial,
        flat,
    }
}

/// The measured population, in artifact order.
fn sweep() -> impl Iterator<Item = (Package, u32)> {
    Package::ALL
        .into_iter()
        .flat_map(|p| GROUP_SIZES.map(|n| (p, n)))
}

fn report(cases: &[Case]) -> Report {
    let mut gates = Gates::default();
    // The binomial tree must beat the repetitive flat fan-out on origin
    // egress for every measured group of >= GATE_MIN_GROUP.
    let egress_ratio = cases
        .iter()
        .filter(|c| c.group_size >= GATE_MIN_GROUP)
        .map(Case::egress_ratio)
        .fold(f64::INFINITY, f64::min);
    let metric = format!(
        "min origin egress improvement (flat frames / binomial frames) for groups >= \
         {GATE_MIN_GROUP}"
    );
    let json = obj! {
        "interface" => "HPI",
        "allreduce_elems" => ALLREDUCE_ELEMS,
        "broadcast_bytes" => BCAST_BYTES,
        "gate" => gates.at_least(&metric, GATE_MIN_EGRESS_RATIO, egress_ratio),
        "cases" => cases.iter().map(Case::to_json).collect::<Json>(),
    };
    gates.report(Some("collectives"), json)
}

pub fn run(smoke: bool) -> Report {
    let cases: Vec<Case> = sweep()
        .map(|(package, group_size)| {
            eprintln!(
                "perf_gate: collectives, {} package, {group_size} members...",
                package.name()
            );
            let case = with_package(package, move |pkg| {
                run_case(group_size, package, pkg, smoke)
            });
            summarize(&case.to_json());
            case
        })
        .collect();
    report(&cases)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A full-population report whose flat fan-out sends `flat_frames`
    /// frames per 100 binomial ones.
    pub fn synthetic(flat_frames: u64) -> Report {
        let cases: Vec<Case> = sweep()
            .map(|(package, group_size)| Case {
                package,
                group_size,
                allreduce_iters: 40,
                allreduce_median_us: 90.0,
                bcast_rounds: 12,
                binomial: Bcast {
                    root_us: 50.0,
                    done_us: 80.0,
                    root_frames: 100,
                },
                flat: Bcast {
                    root_us: 70.0,
                    done_us: 90.0,
                    root_frames: flat_frames,
                },
            })
            .collect();
        report(&cases)
    }

    #[test]
    fn egress_gate_follows_its_threshold() {
        let ok = synthetic(130);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.json.get("gate").unwrap().get("pass"), Some(&true.into()));
        let bad = synthetic(129);
        assert_eq!(bad.failures.len(), 1);
        assert_eq!(
            bad.json.get("gate").unwrap().get("pass"),
            Some(&false.into())
        );
    }
}
