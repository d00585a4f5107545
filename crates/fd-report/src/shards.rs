//! Rendering for merged multi-shard suite runs (`fragdroid corpus
//! --merge`): one row per shard, then the merged totals.

use crate::table;
use fragdroid::shard::MergedRun;

/// Renders a merged run as a per-shard table plus a totals line.
///
/// The table shows each shard's contribution (apps, quarantined inputs,
/// crashes, journal path); the trailing lines carry the merged
/// `SuiteMetrics` facts a caller usually diffs: app count, rejected
/// total, and the timing-free outcome digest that must be
/// byte-identical to an unsharded run of the same corpus.
pub fn render_shard_merge(merged: &MergedRun) -> String {
    let rows: Vec<Vec<String>> = merged
        .shards
        .iter()
        .map(|s| {
            vec![
                s.shard.to_string(),
                s.apps.to_string(),
                s.rejected.to_string(),
                s.crashes.to_string(),
                s.journal.as_ref().map_or_else(String::new, |j| j.display().to_string()),
            ]
        })
        .collect();
    let mut out = table::render(&["shard", "apps", "rejected", "crashes", "journal"], &rows);
    let m = &merged.run.metrics;
    out.push_str(&format!(
        "merged: {} apps across {} shards ({} rejected, {} flagged flaky)\n",
        m.apps.len(),
        merged.shards.len(),
        m.rejected,
        m.flake_summary.as_ref().map_or(0, |f| f.flaky),
    ));
    out.push_str(&format!("outcome digest: {:#018x}\n", merged.run.outcome_digest()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdroid::shard::ShardStat;
    use fragdroid::{AppOutcome, SuiteMetrics, SuiteRun};

    #[test]
    fn renders_one_row_per_shard_and_the_digest() {
        let merged = MergedRun {
            run: SuiteRun {
                outcomes: vec![AppOutcome::Rejected { reason: "truncated".to_string() }],
                metrics: SuiteMetrics {
                    workers: 2,
                    wall_ms: 0,
                    busy_ms: 0,
                    worker_utilization: 0.0,
                    app_wall_ms_p50: 0,
                    app_wall_ms_p95: 0,
                    app_wall_ms_max: 0,
                    rejected: 1,
                    device_incidents: 0,
                    flake_summary: None,
                    apps: Vec::new(),
                },
            },
            shards: vec![
                ShardStat {
                    shard: 0,
                    apps: 1,
                    rejected: 1,
                    crashes: 0,
                    journal: Some("/tmp/j.shard-0-of-2".into()),
                },
                ShardStat {
                    shard: 1,
                    apps: 0,
                    rejected: 0,
                    crashes: 0,
                    journal: Some("/tmp/j.shard-1-of-2".into()),
                },
            ],
        };
        let text = render_shard_merge(&merged);
        assert!(text.contains("shard"), "has a header: {text}");
        assert!(text.contains("/tmp/j.shard-0-of-2"));
        assert!(text.contains("/tmp/j.shard-1-of-2"));
        assert!(text.contains("merged: 0 apps across 2 shards (1 rejected, 0 flagged flaky)"));
        assert!(text.contains(&format!("outcome digest: {:#018x}", merged.run.outcome_digest())));
    }
}
