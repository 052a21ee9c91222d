//! The deterministic [`SimWorld`] engine through a
//! [`RANKS`]-rank broadcast + barrier scenario under virtual time:
//! events/sec and wall time, failing unless the run stays under
//! [`GATE_MAX_WALL_SECS`] *and* a second run with the same seed
//! reproduces the event trace and telemetry byte-for-byte.

use std::time::{Duration, Instant};

use ncs_core::json::Json;
use ncs_runtime::sim::{Scenario, SimOp};
use ncs_runtime::SimWorld;

use crate::common::{num, obj, summarize, Gates, Report};

const SCENARIO: &str = "perf-broadcast";

/// World size of the case.
const RANKS: u32 = 1000;

/// Seed of the case (any value works; fixed so the snapshot's event count
/// is reproducible to the byte).
const SEED: u64 = 2026;

/// The wall-time gate: the scenario must complete in under this many
/// seconds of real time (the engine does it in milliseconds, so the gate
/// guards against pathological regressions, not noise).
const GATE_MAX_WALL_SECS: f64 = 60.0;

#[derive(Debug)]
struct Case {
    events_processed: u64,
    virtual_ms: f64,
    wall_secs: f64,
    /// Second run with the same seed reproduced trace + telemetry
    /// byte-for-byte.
    deterministic: bool,
}

impl Case {
    fn to_json(&self) -> Json {
        let events_per_sec = self.events_processed as f64 / self.wall_secs.max(f64::MIN_POSITIVE);
        obj! {
            "scenario" => SCENARIO,
            "ranks" => RANKS,
            "seed" => SEED,
            "events_processed" => self.events_processed,
            "virtual_ms" => num(self.virtual_ms, 3),
            "wall_secs" => num(self.wall_secs, 4),
            "events_per_sec" => num(events_per_sec, 0),
        }
    }
}

fn run_case() -> Case {
    let mut scenario = Scenario::new(SCENARIO, RANKS, SEED);
    scenario.ops = vec![
        SimOp::Broadcast {
            root: 0,
            timeout: Duration::from_secs(30),
        },
        SimOp::Barrier {
            timeout: Duration::from_secs(30),
        },
    ];
    let started = Instant::now();
    let report = SimWorld::new(scenario.clone()).run();
    let wall_secs = started.elapsed().as_secs_f64();
    let second = SimWorld::new(scenario).run();
    Case {
        events_processed: report.events_processed,
        virtual_ms: report.virtual_elapsed.as_secs_f64() * 1e3,
        wall_secs,
        deterministic: report.all_completed()
            && second.trace == report.trace
            && second.telemetry_json == report.telemetry_json,
    }
}

fn report(case: &Case) -> Report {
    let mut gates = Gates::default();
    let wall_metric = format!(
        "wall seconds for the {RANKS}-rank broadcast + barrier scenario under virtual time"
    );
    let json = obj! {
        "engine" => "SimWorld",
        "wall_gate" => gates.at_most(&wall_metric, GATE_MAX_WALL_SECS, case.wall_secs),
        "determinism_gate" => gates.holds(
            "same seed run twice reproduces the event trace and telemetry byte-for-byte, with \
             every op completing",
            case.deterministic,
        ),
        "cases" => Json::Arr(vec![case.to_json()]),
    };
    gates.report(Some("sim"), json)
}

pub fn run(_smoke: bool) -> Report {
    eprintln!("perf_gate: sim, {RANKS}-rank broadcast + barrier under virtual time...");
    let case = run_case();
    summarize(&case.to_json());
    eprintln!("  deterministic: {}", case.deterministic);
    report(&case)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn synthetic(wall_secs: f64, deterministic: bool) -> Report {
        report(&Case {
            events_processed: 9_000,
            virtual_ms: 1.25,
            wall_secs,
            deterministic,
        })
    }

    #[test]
    fn wall_and_determinism_gates_are_independent() {
        let pass_of = |r: &Report, gate: &str| r.json.get(gate).unwrap().get("pass").cloned();
        let ok = synthetic(60.0, true);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(pass_of(&ok, "wall_gate"), Some(true.into()));
        assert_eq!(pass_of(&ok, "determinism_gate"), Some(true.into()));
        let slow = synthetic(60.1, true);
        assert_eq!(slow.failures.len(), 1);
        assert_eq!(pass_of(&slow, "wall_gate"), Some(false.into()));
        assert_eq!(pass_of(&slow, "determinism_gate"), Some(true.into()));
        let flaky = synthetic(0.02, false);
        assert_eq!(flaky.failures.len(), 1);
        assert_eq!(pass_of(&flaky, "wall_gate"), Some(true.into()));
        assert_eq!(pass_of(&flaky, "determinism_gate"), Some(false.into()));
    }
}
