//! Benchmark-artifact validation: the machinery behind the `bench_check`
//! binary.
//!
//! CI's perf-gate job no longer just *uploads* `BENCH_dataplane.json` —
//! it validates the fresh run against the committed snapshot: same schema
//! version, no section or case silently missing, and every gate `pass`
//! field true. The JSON value type and parser are the workspace's one
//! ([`ncs_obs::json`](ncs_core::json)), re-exported here under the names
//! this module has always offered.

pub use ncs_core::json::{parse as parse_json, Json};

/// Collects every `"pass"` field anywhere in `v`, with its JSON path.
fn collect_passes(v: &Json, path: &str, out: &mut Vec<(String, Option<bool>)>) {
    match v {
        Json::Obj(m) => {
            for (k, child) in m {
                let child_path = format!("{path}.{k}");
                if k == "pass" {
                    out.push((child_path.clone(), child.as_bool()));
                }
                collect_passes(child, &child_path, out);
            }
        }
        Json::Arr(a) => {
            for (i, child) in a.iter().enumerate() {
                collect_passes(child, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Identity of one entry of a `cases` array, for presence comparison
/// (measurement values are allowed to drift; the *population* is not).
fn case_identity(case: &Json) -> String {
    let mut parts = Vec::new();
    for key in [
        "interface",
        "package",
        "group_size",
        "np",
        "threads",
        "scenario",
        "ranks",
    ] {
        if let Some(v) = case.get(key) {
            match v {
                Json::Str(s) => parts.push(format!("{key}={s}")),
                Json::Num(n) => parts.push(format!("{key}={n}")),
                _ => {}
            }
        }
    }
    parts.join(",")
}

/// Validates a fresh benchmark artifact against the committed snapshot.
/// Returns every problem found (empty means the artifact is acceptable).
pub fn validate(new: &Json, snapshot: &Json) -> Vec<String> {
    let mut problems = Vec::new();

    // Same schema version.
    let new_schema = new.get("schema").and_then(Json::as_str);
    let snap_schema = snapshot.get("schema").and_then(Json::as_str);
    if new_schema != snap_schema {
        problems.push(format!(
            "schema mismatch: fresh run says {new_schema:?}, snapshot says {snap_schema:?} \
             (regenerate and commit the snapshot when the schema changes)"
        ));
    }

    // No section of the snapshot may vanish from the fresh run.
    if let (Json::Obj(snap), Json::Obj(fresh)) = (snapshot, new) {
        for key in snap.keys() {
            if !fresh.contains_key(key) {
                problems.push(format!("section '{key}' is missing from the fresh run"));
            }
        }
    } else {
        problems.push("both artifacts must be JSON objects".into());
    }

    // No case population may shrink: every (interface, package,
    // group_size, np, threads) identity in any snapshot `cases` array
    // must appear in the corresponding fresh array.
    fn walk_cases(snap: &Json, fresh: Option<&Json>, path: &str, problems: &mut Vec<String>) {
        if let Json::Obj(m) = snap {
            for (k, snap_child) in m {
                let fresh_child = fresh.and_then(|f| f.get(k));
                let child_path = format!("{path}.{k}");
                if k == "cases" {
                    let snap_cases = snap_child.as_arr().unwrap_or(&[]);
                    let fresh_ids: Vec<String> = fresh_child
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .map(case_identity)
                        .collect();
                    for c in snap_cases {
                        let id = case_identity(c);
                        if !id.is_empty() && !fresh_ids.contains(&id) {
                            problems.push(format!("case [{id}] vanished from {child_path}"));
                        }
                    }
                } else {
                    walk_cases(snap_child, fresh_child, &child_path, problems);
                }
            }
        }
    }
    walk_cases(snapshot, Some(new), "$", &mut problems);

    // Every gate of the fresh run must pass, and there must be gates.
    let mut passes = Vec::new();
    collect_passes(new, "$", &mut passes);
    if passes.is_empty() {
        problems.push("the fresh run contains no gate 'pass' fields at all".into());
    }
    for (path, value) in passes {
        match value {
            Some(true) => {}
            Some(false) => problems.push(format!("gate failed: {path} is false")),
            None => problems.push(format!("gate malformed: {path} is not a boolean")),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRESH: &str = r#"{
      "schema": "ncs-dataplane-bench/3",
      "gate": { "pass": true },
      "collectives": { "gate": { "pass": true },
        "cases": [ { "package": "kernel", "group_size": 2 } ] },
      "cluster": { "gate": { "pass": true }, "cases": [ { "np": 2 } ] },
      "mt_msgrate": { "gate": { "pass": true },
        "cases": [ { "interface": "HPI", "package": "kernel", "threads": 4 } ] },
      "sim": { "gate": { "pass": true },
        "cases": [ { "scenario": "perf-broadcast", "ranks": 1000 } ] },
      "membership": { "detection_gate": { "pass": true },
        "propagation_gate": { "pass": true },
        "cases": [ { "np": 4, "cycles": 2 } ] },
      "cases": [ { "interface": "HPI", "package": "kernel" } ]
    }"#;

    #[test]
    fn parser_handles_the_artifact_shapes() {
        let v = parse_json(FRESH).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("ncs-dataplane-bench/3")
        );
        assert_eq!(
            v.get("cluster")
                .and_then(|c| c.get("cases"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        let nums = parse_json(r#"{ "a": -1.5e3, "b": [0.25, 99], "c": "q\"uote\n" }"#).unwrap();
        assert_eq!(nums.get("a").and_then(Json::as_num), Some(-1500.0));
        assert_eq!(nums.get("c").and_then(Json::as_str), Some("q\"uote\n"));
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn identical_artifacts_validate_clean() {
        let v = parse_json(FRESH).unwrap();
        assert_eq!(validate(&v, &v), Vec::<String>::new());
    }

    #[test]
    fn schema_drift_is_reported() {
        let fresh = parse_json(&FRESH.replace("bench/3", "bench/4")).unwrap();
        let snap = parse_json(FRESH).unwrap();
        let problems = validate(&fresh, &snap);
        assert!(problems.iter().any(|p| p.contains("schema mismatch")));
    }

    #[test]
    fn missing_sections_and_cases_are_reported() {
        let snap = parse_json(FRESH).unwrap();
        let fresh = parse_json(
            r#"{
          "schema": "ncs-dataplane-bench/3",
          "gate": { "pass": true },
          "collectives": { "gate": { "pass": true },
            "cases": [ { "package": "kernel", "group_size": 4 } ] },
          "mt_msgrate": { "gate": { "pass": true },
            "cases": [ { "interface": "HPI", "package": "kernel", "threads": 1 } ] },
          "sim": { "gate": { "pass": true },
            "cases": [ { "scenario": "perf-broadcast", "ranks": 500 } ] },
          "cases": [ { "interface": "HPI", "package": "kernel" } ]
        }"#,
        )
        .unwrap();
        let problems = validate(&fresh, &snap);
        assert!(
            problems.iter().any(|p| p.contains("section 'cluster'")),
            "{problems:?}"
        );
        // A fresh run that silently drops the membership section (its
        // control-plane gates with it) must be rejected too.
        assert!(
            problems.iter().any(|p| p.contains("section 'membership'")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("group_size=2")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("threads=4")),
            "{problems:?}"
        );
        // The sim case identity includes scenario AND ranks: a 500-rank
        // run must not satisfy the 1000-rank snapshot entry.
        assert!(
            problems
                .iter()
                .any(|p| p.contains("scenario=perf-broadcast,ranks=1000")),
            "{problems:?}"
        );
    }

    #[test]
    fn failed_gates_are_reported() {
        let snap = parse_json(FRESH).unwrap();
        let fresh = parse_json(&FRESH.replacen("\"pass\": true", "\"pass\": false", 1)).unwrap();
        let problems = validate(&fresh, &snap);
        assert!(
            problems.iter().any(|p| p.contains("gate failed")),
            "{problems:?}"
        );
    }

    #[test]
    fn gateless_artifacts_are_rejected() {
        let snap = parse_json(FRESH).unwrap();
        let fresh = parse_json(r#"{ "schema": "ncs-dataplane-bench/3" }"#).unwrap();
        let problems = validate(&fresh, &snap);
        assert!(
            problems.iter().any(|p| p.contains("no gate")),
            "{problems:?}"
        );
    }
}
