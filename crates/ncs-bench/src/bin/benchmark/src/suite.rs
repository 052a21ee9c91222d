//! The whole benchmark in one command: every workload, untraced then
//! traced, each run in a fresh child process (a re-exec of this binary), so
//! peak RSS, the allocator counters and every buffer pool start clean.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ncs_bench::check::{parse_json, Json as Parsed};

use crate::host::{self, Fingerprint};
use crate::json::Json;
use crate::stats;
use crate::workload::{self, Spec, END_TO_END};
use crate::{probes, DETAIL_PREFIX};

/// Load average above which results deserve suspicion.
const LOAD_WARNING: f64 = 0.5;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub out: Option<PathBuf>,
    pub probes: bool,
    /// `"full"` or `"quick"`.
    pub mode: &'static str,
}

/// What one child run printed: its result line and its detail line.
struct Child {
    result: Parsed,
    detail: Parsed,
}

fn run_child(
    spec: &Spec,
    args: &Args,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--detail"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", spec.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    Ok(Child {
        result: parse_json(result).map_err(|e| format!("{} result: {e}", spec.name))?,
        detail: parse_json(detail).map_err(|e| format!("{} detail: {e}", spec.name))?,
    })
}

fn num(v: Option<&Parsed>) -> f64 {
    v.and_then(Parsed::as_num).unwrap_or(f64::NAN)
}

fn metric_value(child: &Child, name: &str) -> f64 {
    num(child
        .result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value")))
}

/// Runs the suite, prints every metric, writes the JSON. `Ok(true)` when
/// no operation failed on any workload.
pub fn run(args: &Args, fingerprint: &Fingerprint) -> Result<bool, String> {
    let load_start = host::load_average();
    if load_start > LOAD_WARNING {
        eprintln!(
            "warning: load average {load_start:.2} at start (> {LOAD_WARNING}): \
             something else is running; expect noisier numbers"
        );
    }
    let mut workloads = Vec::new();
    let mut all_correct = true;
    let mut pinned_cpu = f64::NAN;
    let mut sched_batch = false;
    for spec in &workload::ALL {
        eprintln!("== {} (untraced)", spec.name);
        let untraced = run_child(spec, args, false, None)?;
        let trace_file = args.out.as_ref().map(|out| {
            let mut name = out.clone().into_os_string();
            name.push(format!(".trace.{}.json", spec.name));
            PathBuf::from(name)
        });
        eprintln!("== {} (traced)", spec.name);
        let traced = run_child(spec, args, true, trace_file.as_deref())?;
        pinned_cpu = num(untraced.detail.get("pinned_cpu"));
        sched_batch = untraced.detail.get("sched_batch").and_then(Parsed::as_bool) == Some(true);

        let attempted = num(untraced.result.get("attempted")) + num(traced.result.get("attempted"));
        let failed = num(untraced.result.get("failed")) + num(traced.result.get("failed"));
        all_correct &= failed == 0.0;
        println!(
            "\n{}: attempted {attempted} failed {failed} failed_ops_share {}",
            spec.name,
            failed / attempted.max(1.0)
        );
        let mut end_to_end = Vec::new();
        for (name, unit, better, bound) in END_TO_END {
            let value = metric_value(&untraced, name);
            let reps: Vec<f64> = untraced
                .detail
                .get("raw")
                .and_then(|r| r.get(name))
                .and_then(Parsed::as_arr)
                .map(|a| a.iter().filter_map(Parsed::as_num).collect())
                .unwrap_or_default();
            let (q1, _, q3) = stats::quartiles(&reps);
            println!(
                "  {name:<42} {value:>14.4} {unit:<8} [q1 {q1:.4}, q3 {q3:.4}] over {} ({better} is better, bound {bound})",
                reps.len()
            );
            end_to_end.push((
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit)),
                    ("better", Json::str(better)),
                    ("bound", Json::Num(bound)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("reps", Json::nums(&reps)),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for (name, unit, _) in workload::PER_LAYER {
            let value = metric_value(&traced, name);
            println!("  {name:<42} {value:>14.4} {unit}");
            per_layer.push((
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        let mut entry = vec![
            ("why", Json::str(spec.why)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("failed_ops_share", Json::Num(failed / attempted.max(1.0))),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
        ];
        if let Some(path) = trace_file {
            entry.push(("trace_file", Json::str(path.to_string_lossy())));
        }
        workloads.push((spec.name, Json::obj(entry)));
    }

    let mut doc = vec![
        ("schema", Json::str("ncs-benchmark/1")),
        ("mode", Json::str(args.mode)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
    ];
    if args.probes {
        eprintln!("== layer probes");
        // The probes run here, in the parent: pin it as the children were.
        host::isolate()?;
        let results = probes::run_all();
        println!("\nlayer probes:");
        for (name, m) in &results {
            println!("  {name:<42} {:>14.4} {}", m.value, m.unit);
        }
        doc.push((
            "probes",
            Json::obj(results.into_iter().map(|(name, m)| {
                let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                (name, value)
            })),
        ));
    }
    let load_end = host::load_average();
    doc.push((
        "host",
        Json::obj([
            ("nproc", Json::Int(fingerprint.nproc as u64)),
            ("cpu_model", Json::str(&fingerprint.cpu_model)),
            ("kernel", Json::str(&fingerprint.kernel)),
            ("git_commit", Json::str(&fingerprint.git_commit)),
            ("pinned_cpu", Json::Num(pinned_cpu)),
            ("sched_batch", Json::Bool(sched_batch)),
            ("load_avg_start", Json::Num(load_start)),
            ("load_avg_end", Json::Num(load_end)),
        ]),
    ));
    doc.push(("workloads", Json::obj(workloads)));
    if let Some(out) = &args.out {
        std::fs::write(out, Json::obj(doc).render_pretty())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote {}", out.display());
    }
    Ok(all_correct)
}
