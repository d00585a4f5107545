//! Throughput-regression gate over committed `BENCH_*.json` baselines.
//!
//! ```text
//! bench_compare <baseline.json> <current.json> [threshold-pct]
//! ```
//!
//! Walks both documents in parallel and compares every numeric leaf
//! whose key ends in `_per_second` (higher is better). A leaf whose
//! current value falls more than `threshold-pct` percent (default 25)
//! below the baseline fails the gate; the process exits 1 listing every
//! offender. Wall-clock, spread and host fields are deliberately NOT
//! gated: they move with corpus size and host noise, while the
//! throughput figures are what the CI runner can meaningfully hold flat.
//!
//! Keys present on only one side are reported (a renamed metric should
//! be a conscious baseline update) but do not fail the gate. Exit 2
//! means no gated metric appears on both sides.

use serde_json::Value;
use std::process::ExitCode;

/// Is this leaf a higher-is-better throughput metric worth gating?
fn gated(key: &str) -> bool {
    key.ends_with("_per_second")
}

/// Collects `(path, value)` for every gated numeric leaf.
fn collect(value: &Value, path: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map.iter() {
                let child_path =
                    if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                if let Value::Number(n) = child {
                    if gated(key) {
                        out.push((child_path, n.as_f64()));
                    }
                } else {
                    collect(child, &child_path, out);
                }
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                collect(child, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("bench_compare: read {path}: {e}"));
    let value: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("bench_compare: parse {path}: {e:?}"));
    let mut leaves = Vec::new();
    collect(&value, "", &mut leaves);
    leaves
}

/// Compares `current` against `baseline`. Returns the exit code (0 all
/// shared gated metrics within the threshold, 1 one or more regressed,
/// 2 no gated metric on both sides) and the report: one line per leaf
/// on either side, then a summary line.
fn compare(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    threshold_pct: f64,
) -> (u8, Vec<String>) {
    let mut lines = Vec::new();
    let mut failures = 0usize;
    let mut compared = 0usize;
    for (path, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(p, _)| p == path) else {
            lines.push(format!("MISSING  {path}: in baseline only (baseline {base:.2})"));
            continue;
        };
        compared += 1;
        // Regression = how far current fell below baseline, in percent.
        let delta_pct = if *base > 0.0 { (base - cur) / base * 100.0 } else { 0.0 };
        let verdict = if delta_pct > threshold_pct {
            failures += 1;
            "FAIL"
        } else {
            "ok"
        };
        lines.push(format!(
            "{verdict:7}  {path}: baseline {base:.2} -> current {cur:.2} ({delta_pct:+.1}% drop)"
        ));
    }
    for (path, cur) in current {
        if !baseline.iter().any(|(p, _)| p == path) {
            lines.push(format!("NEW      {path}: in current only ({cur:.2})"));
        }
    }
    let (code, summary) = match (compared, failures) {
        (0, _) => (2, "no gated metrics in common — wrong files?".to_string()),
        (_, 0) => (0, format!("{compared} metric(s) within {threshold_pct}% of the baseline")),
        _ => (1, format!("{failures} metric(s) regressed more than {threshold_pct}%")),
    };
    lines.push(format!("bench_compare: {summary}"));
    (code, lines)
}

fn main() -> ExitCode {
    const USAGE: &str = "usage: bench_compare <baseline.json> <current.json> [threshold-pct]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path, rest @ ..] = args.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let threshold_pct: f64 = match rest {
        [] => 25.0,
        [t] => t.parse().expect("threshold-pct parses as a number"),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (code, lines) = compare(&load(baseline_path), &load(current_path), threshold_pct);
    for line in &lines {
        println!("{line}");
    }
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(json: &str) -> Vec<(String, f64)> {
        let value: Value = serde_json::from_str(json).expect("test JSON parses");
        let mut out = Vec::new();
        collect(&value, "", &mut out);
        out
    }

    fn run(baseline: &str, current: &str) -> (u8, Vec<String>) {
        compare(&leaves(baseline), &leaves(current), 25.0)
    }

    #[test]
    fn only_per_second_leaves_are_gated() {
        let gated = leaves(
            r#"{"decode": {"mib_per_second": 1.0, "wall_ms": 2.0, "speedup": 3.0},
                "sizes": [{"stream_apps_per_second": 4.0, "utilization": 0.9}]}"#,
        );
        assert_eq!(
            gated,
            vec![
                ("decode.mib_per_second".to_string(), 1.0),
                ("sizes[0].stream_apps_per_second".to_string(), 4.0),
            ]
        );
    }

    #[test]
    fn a_drop_past_the_threshold_fails() {
        let (code, lines) = run(r#"{"a_per_second": 100.0}"#, r#"{"a_per_second": 74.0}"#);
        assert_eq!(code, 1);
        assert!(lines[0].starts_with("FAIL"), "{lines:?}");
    }

    #[test]
    fn a_drop_within_the_threshold_passes() {
        let (code, lines) = run(r#"{"a_per_second": 100.0}"#, r#"{"a_per_second": 76.0}"#);
        assert_eq!(code, 0);
        assert!(lines[0].starts_with("ok"), "{lines:?}");
    }

    #[test]
    fn a_one_sided_key_is_reported_but_does_not_fail() {
        let (code, lines) = run(
            r#"{"a_per_second": 100.0, "old_per_second": 5.0}"#,
            r#"{"a_per_second": 100.0, "new_per_second": 1.0}"#,
        );
        assert_eq!(code, 0);
        assert!(lines.iter().any(|l| l.starts_with("MISSING  old_per_second")), "{lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("NEW      new_per_second")), "{lines:?}");
    }

    #[test]
    fn no_shared_gated_key_exits_2() {
        assert_eq!(run(r#"{"a_per_second": 1.0}"#, r#"{"b_per_second": 1.0}"#).0, 2);
        assert_eq!(run(r#"{"wall_ms": 1.0}"#, r#"{"wall_ms": 1.0}"#).0, 2);
    }
}
