//! perf_gate — the data-plane performance gate CI tracks.
//!
//! Runs nine measurement sections, one module each — [`latency`],
//! [`collectives`], [`requests`], [`msgrate`], [`telemetry`], [`cluster`],
//! [`sim`], [`c10k`], [`membership`] — and writes their results and gate
//! verdicts to `BENCH_dataplane.json` (schema: `docs/BENCH_SCHEMA.md`).
//! Each section owns its constants, its measurement, its JSON subtree and
//! its gate verdicts, and hands `main` one [`Report`].
//!
//! Usage: `perf_gate [--smoke] [--out PATH]` — `--smoke` shrinks iteration
//! counts for CI, `--out` overrides the output path. Exits 1 when any gate
//! failed (the artifact is written either way).

mod c10k;
mod cluster;
mod collectives;
mod common;
mod latency;
mod membership;
mod msgrate;
mod requests;
mod sim;
mod telemetry;

use std::collections::BTreeMap;

use common::Report;
use ncs_core::json::Json;

/// The artifact's schema version: bump it when the *shape* changes (see
/// the checklist in `docs/BENCH_SCHEMA.md`).
const SCHEMA: &str = "ncs-dataplane-bench/9";

/// Every section, in the order they run.
const SECTIONS: [fn(bool) -> Report; 9] = [
    latency::run,
    collectives::run,
    requests::run,
    msgrate::run,
    telemetry::run,
    cluster::run,
    sim::run,
    c10k::run,
    membership::run,
];

/// Merges the sections' subtrees into the artifact.
fn document(smoke: bool, reports: &[Report]) -> Json {
    let mode = if smoke { "smoke" } else { "full" };
    let mut root = BTreeMap::from([
        ("schema".to_owned(), Json::from(SCHEMA)),
        ("mode".to_owned(), Json::from(mode)),
    ]);
    for report in reports {
        match (report.key, &report.json) {
            (Some(key), subtree) => root.extend([(key.to_owned(), subtree.clone())]),
            (None, Json::Obj(members)) => root.extend(members.clone()),
            (None, other) => unreachable!("a root section must be an object, got {other:?}"),
        }
    }
    Json::Obj(root)
}

/// Prints the verdict and returns the process exit code.
fn verdict(reports: &[Report]) -> i32 {
    let mut failed = false;
    for report in reports {
        let section = report.key.unwrap_or("latency");
        for failure in &report.failures {
            eprintln!("perf_gate: FAIL — [{section}] {failure}");
            failed = true;
        }
    }
    if !failed {
        eprintln!("perf_gate: PASS — every gate of every section holds");
    }
    i32::from(failed)
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_dataplane.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            // Internal: a spawned rank of the cross-process section.
            "--cluster-child" => cluster::run_child(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_gate [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let reports: Vec<Report> = SECTIONS.iter().map(|run| run(smoke)).collect();
    std::fs::write(&out_path, document(smoke, &reports).render_pretty())
        .expect("write output file");
    eprintln!("perf_gate: wrote {out_path}");
    std::process::exit(verdict(&reports));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_bench::check::{parse_json, validate};

    /// One passing synthetic report per section, full case populations.
    fn passing() -> Vec<Report> {
        vec![
            latency::tests::synthetic(3),
            collectives::tests::synthetic(150),
            requests::tests::synthetic(160),
            msgrate::tests::synthetic(2.5),
            telemetry::tests::synthetic(0.99),
            cluster::tests::synthetic(0),
            sim::tests::synthetic(0.02, true),
            c10k::tests::synthetic(30, 70.0),
            membership::tests::synthetic(230.0, 30.0, true),
        ]
    }

    /// Shape drift (a section, case identity or gate gone missing, the
    /// schema changed without a regenerated snapshot) is what `bench_check`
    /// reports after the ten-minute gate run; catch it in milliseconds.
    #[test]
    fn synthetic_document_validates_against_the_committed_snapshot() {
        let snapshot = parse_json(include_str!("../../../../../BENCH_dataplane.json"))
            .expect("committed snapshot parses");
        let reports = passing();
        assert_eq!(reports.len(), SECTIONS.len());
        let doc = document(true, &reports);
        assert_eq!(validate(&doc, &snapshot), Vec::<String>::new());
        // What is written is what was built.
        assert_eq!(parse_json(&doc.render_pretty()), Ok(doc));
        assert_eq!(verdict(&reports), 0);
    }

    #[test]
    fn one_failed_gate_fails_the_run_and_the_artifact() {
        let mut reports = passing();
        reports[4] = telemetry::tests::synthetic(0.5);
        assert_eq!(verdict(&reports), 1);
        let doc = document(true, &reports);
        let problems = validate(&doc, &doc);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("$.telemetry.gate.pass"));
    }
}
