//! Pins the deterministic fields of the committed `BENCH_ingest.json`.
//! `bench_compare` gates only the `*_per_second` rates, so the fuzz row's
//! counts and outcome digest would otherwise go stale unnoticed. The
//! campaign covers every fuzz target, the dispatch coordinator journal's
//! replay included, so this also shows that no target's verdicts moved.

use serde_json::Value;

#[test]
fn the_committed_fuzz_row_matches_a_fresh_campaign() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_ingest.json");
    let bench: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("read the file"))
        .expect("BENCH_ingest.json is JSON");
    let row = bench.as_object().and_then(|b| b.get("fuzz")).expect("a fuzz row");
    let field = |key: &str| match row.as_object().and_then(|r| r.get(key)) {
        Some(Value::Number(number)) => number.as_u64().expect(key),
        other => panic!("fuzz.{key} is not a count: {other:?}"),
    };

    let config = fd_fuzz::FuzzConfig {
        seed: field("seed"),
        mutants: field("mutants"),
        ..fd_fuzz::FuzzConfig::default()
    };
    assert_eq!((config.seed, config.mutants), (4, 5_000), "the row bench_ingest records");
    let report = fd_fuzz::run_campaign(&config);
    assert_eq!(
        (report.outcome_digest, report.ok, report.rejected, report.violations.len() as u64),
        (field("outcome_digest"), field("ok"), field("rejected"), field("violations")),
        "re-record BENCH_ingest.json with bench_ingest if the campaign moved on purpose"
    );
}
