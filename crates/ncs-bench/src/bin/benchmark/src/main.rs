//! The repo's benchmark: six pinned, closed-loop workloads over the NCS
//! data path, measured end to end and — from outside — layer by layer.
//! `README.md` beside this package says what, why and how to read it;
//! `/BENCHMARK.json` is the contract the driver runs it by.

mod alloc;
mod compare;
mod engine;
mod host;
mod json;
mod payload;
mod probes;
mod scenario;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workload::RunResult;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Marks the stdout line carrying per-repetition values (`--detail`).
pub const DETAIL_PREFIX: &str = "detail ";

/// Seconds a full suite gives each run: `run_seconds` of `/BENCHMARK.json`.
const FULL_SECONDS: f64 = 16.0;
/// Seconds a `--quick` suite gives each run.
const QUICK_SECONDS: f64 = 0.8;

const USAGE: &str = "\
usage:
  benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
            [--trace-out <file>] [--detail]
      one run of one workload; the last stdout line is the result JSON
  benchmark [--seed <u64>] [--seconds <s>] [--out <file>] [--quick] [--probes]
      the suite: every workload, untraced and traced, each in a child process
  benchmark compare <A.json> <B.json>
      two suite results side by side; exit 1 if any metric is worse
  benchmark probes
      the layer probes alone
workloads: hpi_pingpong_64B hpi_stream_8B hpi_bulk_64K sci_pingpong_64B
           allreduce_4r_64 aci_lossy_16K";

#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    detail: bool,
    quick: bool,
    probes: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{arg}: not {what}");
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?.to_owned()),
            "--seed" => flags.seed = Some(value()?.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-out" => flags.trace_out = Some(value()?.into()),
            "--out" => flags.out = Some(value()?.into()),
            "--detail" => flags.detail = true,
            "--quick" => flags.quick = true,
            "--probes" => flags.probes = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

/// The contract's result line: exactly these four keys.
fn result_line(result: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Int(result.attempted)),
        ("failed", Json::Int(result.failed)),
        (
            "metrics",
            Json::obj(result.metrics.iter().map(|(name, m)| {
                let metric =
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                (*name, metric)
            })),
        ),
    ])
    .render()
}

/// One run of one workload, as the driver invokes it.
fn run_one(flags: &Flags, name: &str) -> Result<ExitCode, String> {
    let spec = workload::find(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let seed = flags.seed.ok_or("--seed is required with --workload")?;
    let seconds = flags
        .seconds
        .ok_or("--seconds is required with --workload")?;
    let traced = flags.trace.ok_or("--trace is required with --workload")?;
    let fingerprint = host::Fingerprint::collect();
    let host::Isolation { cpu, batch } = host::isolate()?;
    eprintln!(
        "benchmark: {name} seed {seed} seconds {seconds} trace {} | pinned to cpu {cpu} of {}, {} | {} | {}",
        u8::from(traced),
        fingerprint.nproc,
        if batch { "SCHED_BATCH" } else { "default policy" },
        fingerprint.cpu_model,
        fingerprint.kernel
    );
    let result = if traced {
        let run = workload::run_traced(spec, seed, seconds)?;
        if let Some(path) = &flags.trace_out {
            std::fs::write(path, trace::to_json(name, &run.spans, run.spans_dropped))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        run.result
    } else {
        workload::run_end_to_end(spec, seed, seconds)?
    };
    for (name, m) in &result.metrics {
        println!("{name:<42} {:>14.4} {}", m.value, m.unit);
    }
    if flags.detail {
        let raw = result
            .raw
            .iter()
            .map(|(name, reps)| (*name, Json::nums(reps)));
        let detail = Json::obj([
            ("pinned_cpu", Json::Int(cpu as u64)),
            ("sched_batch", Json::Bool(batch)),
            ("raw", Json::obj(raw)),
        ]);
        println!("{DETAIL_PREFIX}{}", detail.render());
    }
    println!("{}", result_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exit = |ok| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b).map(exit),
            _ => Err(format!("compare takes two files\n{USAGE}")),
        },
        Some("probes") => {
            host::isolate()?;
            for (name, m) in probes::run_all() {
                println!("{name:<42} {:>14.4} {}", m.value, m.unit);
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let flags = parse_flags(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
            if let Some(name) = &flags.workload {
                return run_one(&flags, name);
            }
            let suite = suite::Args {
                seed: flags.seed.unwrap_or(1),
                seconds: match (flags.seconds, flags.quick) {
                    (Some(s), _) => s,
                    (None, true) => QUICK_SECONDS,
                    (None, false) => FULL_SECONDS,
                },
                out: flags.out,
                probes: flags.probes,
                mode: if flags.quick { "quick" } else { "full" },
            };
            // Collected before any pinning: `nproc` is the unpinned count.
            suite::run(&suite, &host::Fingerprint::collect()).map(exit)
        }
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_bench::check::{parse_json, Json as Parsed};
    use workload::Metric;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut result = RunResult {
            attempted: 1000,
            failed: 0,
            ..RunResult::default()
        };
        let metric = Metric {
            value: 0.1 + 0.2,
            unit: "us",
        };
        result.metrics.insert("op_p50_us", metric);
        let line = result_line(&result);
        assert!(!line.contains('\n'));
        let Parsed::Obj(doc) = parse_json(&line).expect("the result line parses") else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["correct"].as_bool(), Some(true));
        let m = doc["metrics"].get("op_p50_us").expect("the metric");
        assert_eq!(m.get("value").and_then(Parsed::as_num), Some(0.1 + 0.2));
        assert_eq!(m.get("unit").and_then(Parsed::as_str), Some("us"));

        result.failed = 1;
        let failing = parse_json(&result_line(&result)).unwrap();
        assert_eq!(
            failing.get("correct").and_then(Parsed::as_bool),
            Some(false)
        );
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let f = parse_flags(&args("--workload w --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(f.workload.as_deref(), Some("w"));
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(7), Some(2.5), Some(true))
        );
        assert!(parse_flags(&args("--trace 2")).is_err());
        assert!(parse_flags(&args("--seconds 0")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--bogus")).is_err());
    }
}
