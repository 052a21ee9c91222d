//! `benchmark compare A.json B.json`: two suite results, one row per
//! workload × end-to-end metric, and a verdict for each.
//!
//! A is the base (the parent commit, or the first of two runs of one
//! commit); B is judged against it.

use ncs_bench::check::{parse_json, Json};

use crate::stats;

/// What a metric did from A to B, against its regression bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's value is no worse than A's by more than the bound.
    WithinBound,
    /// B's value is worse than A's by more than the bound.
    Worse,
    /// The repetitions spread wider than the bound and the two sides
    /// overlap: the pair cannot say.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the repetitions
/// behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub value: f64,
    pub reps: Vec<f64>,
}

impl Side {
    fn range(&self) -> (f64, f64) {
        let lo = self.reps.iter().copied().fold(self.value, f64::min);
        let hi = self.reps.iter().copied().fold(self.value, f64::max);
        (lo, hi)
    }
}

/// How much worse B is than A, as a share of A (negative: better).
pub fn worse_by(lower_is_better: bool, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(lower_is_better: bool, bound: f64, a: &Side, b: &Side) -> Verdict {
    let spread = stats::relative_iqr(&a.reps).max(stats::relative_iqr(&b.reps));
    let ((a_lo, a_hi), (b_lo, b_hi)) = (a.range(), b.range());
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by(lower_is_better, a.value, b.value) > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_num()?,
        reps: metric
            .get("reps")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_num)
            .collect(),
    })
}

fn members(obj: Option<&Json>) -> impl Iterator<Item = (&String, &Json)> {
    match obj {
        Some(Json::Obj(m)) => Some(m.iter()),
        _ => None,
    }
    .into_iter()
    .flatten()
}

/// Prints the comparison; `Ok(true)` when no row is `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        let host = doc.get("host");
        let field = |k: &str| {
            host.and_then(|h| h.get(k))
                .and_then(Json::as_str)
                .unwrap_or("?")
        };
        println!(
            "{label}: commit {} seed {} mode {} cpu \"{}\" kernel {}",
            field("git_commit"),
            doc.get("seed").and_then(Json::as_num).unwrap_or(f64::NAN),
            doc.get("mode").and_then(Json::as_str).unwrap_or("?"),
            field("cpu_model"),
            field("kernel"),
        );
    }
    println!(
        "{:<18} {:<18} {:>12} {:>23} {:>12} {:>23}  {:<28} verdict",
        "workload", "metric", "A", "A reps [q1, q3]", "B", "B reps [q1, q3]", "B/A (base A)"
    );
    let mut clean = true;
    let mut rows = 0;
    for (workload, wa) in members(a.get("workloads")) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<18} missing from B");
            clean = false;
            continue;
        };
        for (name, ma) in members(wa.get("end_to_end")) {
            let mb = wb.get("end_to_end").and_then(|e| e.get(name));
            let (Some(sa), Some(sb)) = (side(ma), mb.and_then(side)) else {
                println!("{workload:<18} {name:<18} missing from B");
                clean = false;
                continue;
            };
            let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
            let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
            let bound = ma.get("bound").and_then(Json::as_num).unwrap_or(0.1);
            let v = verdict(lower, bound, &sa, &sb);
            clean &= v != Verdict::Worse;
            rows += 1;
            let quart = |s: &Side| {
                let (q1, _, q3) = stats::quartiles(&s.reps);
                format!("[{q1:.4}, {q3:.4}]")
            };
            println!(
                "{workload:<18} {name:<18} {:>12.4} {:>23} {:>12.4} {:>23}  {:<28} {}",
                sa.value,
                quart(&sa),
                sb.value,
                quart(&sb),
                format!("{:.4} of {:.4} {unit}", sb.value / sa.value, sa.value),
                v.as_str(),
            );
        }
    }
    if rows == 0 {
        return Err("no workload × metric rows in common".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, reps: &[f64]) -> Side {
        Side {
            value,
            reps: reps.to_vec(),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(true, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_by(false, 100.0, 112.0) + 0.12).abs() < 1e-12);
        assert!((worse_by(false, 100.0, 80.0) - 0.20).abs() < 1e-12);
        assert_eq!(worse_by(true, 0.0, 5.0), 0.0);
    }

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = side(100.0, &[99.0, 100.0, 100.0, 101.0, 100.5]);
        let same = side(104.0, &[103.0, 104.0, 104.0, 105.0, 104.5]);
        let slow = side(115.0, &[114.0, 115.0, 115.0, 116.0, 115.5]);
        let fast = side(80.0, &[79.0, 80.0, 80.0, 81.0, 80.5]);
        assert_eq!(verdict(true, 0.10, &a, &same), Verdict::WithinBound);
        assert_eq!(verdict(true, 0.10, &a, &slow), Verdict::Worse);
        assert_eq!(verdict(true, 0.10, &a, &fast), Verdict::WithinBound);
        // The same numbers as a rate: lower is now the bad direction.
        assert_eq!(verdict(false, 0.10, &a, &fast), Verdict::Worse);
        assert_eq!(verdict(false, 0.10, &a, &slow), Verdict::WithinBound);
    }

    #[test]
    fn wide_overlapping_runs_cannot_say() {
        let a = side(100.0, &[80.0, 90.0, 100.0, 115.0, 125.0]);
        let b = side(118.0, &[95.0, 105.0, 118.0, 130.0, 140.0]);
        assert_eq!(verdict(true, 0.10, &a, &b), Verdict::Unresolved);
        // Wide but disjoint: every run of B is slower than every run of A.
        let far = side(300.0, &[250.0, 280.0, 300.0, 330.0, 360.0]);
        assert_eq!(verdict(true, 0.10, &a, &far), Verdict::Worse);
        // ... or faster.
        let better = side(50.0, &[40.0, 45.0, 50.0, 55.0, 60.0]);
        assert_eq!(verdict(true, 0.10, &a, &better), Verdict::WithinBound);
    }

    #[test]
    fn a_single_reading_has_no_spread() {
        let a = side(4.0, &[4.0]);
        assert_eq!(
            verdict(true, 0.10, &a, &side(4.3, &[4.3])),
            Verdict::WithinBound
        );
        assert_eq!(verdict(true, 0.10, &a, &side(4.5, &[4.5])), Verdict::Worse);
    }
}
