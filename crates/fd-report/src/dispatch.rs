//! Rendering for `fragdroid dispatch` — Table 1 built straight from the
//! merged shard run, plus the farm's operational appendix (per-worker
//! accounting, reassignments, stragglers, waste).

use crate::table;
use crate::table1::Table1Row;
use fragdroid::{AppOutcome, DispatchSummary, SuiteRun};

/// Builds Table 1 rows from an already-merged run's outcomes — the
/// dispatch path renders the paper table without re-running anything.
/// Completed and deadline-limited apps become rows (a synthetic corpus
/// has no download counts, so the band column reads from zero);
/// rejected containers come back as `(label, reason)` for the
/// quarantine appendix, labeled with the slot's metrics package
/// (`container[i]` after the merge relabel). Panicked apps are skipped,
/// like [`crate::table1::run_table1_full`] does.
pub fn table1_rows_from_run(run: &SuiteRun) -> (Vec<Table1Row>, Vec<(String, String)>) {
    let mut rows = Vec::new();
    let mut rejected = Vec::new();
    for (index, outcome) in run.outcomes.iter().enumerate() {
        let label = run
            .metrics
            .apps
            .get(index)
            .map(|m| m.package.clone())
            .unwrap_or_else(|| format!("container[{index}]"));
        match outcome {
            AppOutcome::Completed(report) | AppOutcome::DeadlineExceeded(report) => {
                rows.push(Table1Row {
                    package: label,
                    downloads: 0,
                    activities: report.activity_coverage(),
                    fragments: report.fragment_coverage(),
                    fragments_in_visited: report.fragments_in_visited_coverage(),
                    crashes: report.crashes,
                    recovered: report.recovered_crashes,
                });
            }
            AppOutcome::Rejected { reason } => rejected.push((label, reason.clone())),
            AppOutcome::Panicked { .. } => {}
        }
    }
    (rows, rejected)
}

fn quantile_ms(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Renders the farm appendix: one row per endpoint in `--connect`
/// order, then the coordinator-level counters. The reassignment-latency
/// quantiles only print when a revocation actually happened — a clean
/// run keeps the appendix short.
pub fn render_dispatch_summary(summary: &DispatchSummary) -> String {
    let rows: Vec<Vec<String>> = summary
        .workers
        .iter()
        .map(|w| {
            vec![
                w.endpoint.clone(),
                w.assignments.to_string(),
                w.shards_completed.to_string(),
                w.failures.to_string(),
                w.quarantines.to_string(),
            ]
        })
        .collect();
    let mut out =
        table::render(&["endpoint", "leases", "completed", "failures", "quarantines"], &rows);
    out.push_str(&format!(
        "dispatch: {} shards ({} resumed), {} reassigned, {} straggler backups, \
         {} wasted completions\n",
        summary.shards,
        summary.resumed_shards,
        summary.reassignments,
        summary.straggler_redispatches,
        summary.wasted_completions,
    ));
    if !summary.reassignment_latencies_ms.is_empty() {
        let mut sorted = summary.reassignment_latencies_ms.clone();
        sorted.sort_unstable();
        out.push_str(&format!(
            "reassignment latency: p50 {} ms, p95 {} ms ({} samples)\n",
            quantile_ms(&sorted, 0.50),
            quantile_ms(&sorted, 0.95),
            sorted.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::render_table1;
    use fragdroid::{DispatchSummary, WorkerStat};

    fn summary() -> DispatchSummary {
        DispatchSummary {
            shards: 4,
            resumed_shards: 1,
            reassignments: 2,
            straggler_redispatches: 1,
            wasted_completions: 1,
            reassignment_latencies_ms: vec![80, 20, 40],
            workers: vec![
                WorkerStat {
                    endpoint: "127.0.0.1:7000".to_string(),
                    assignments: 3,
                    shards_completed: 3,
                    failures: 0,
                    quarantines: 0,
                },
                WorkerStat {
                    endpoint: "127.0.0.1:7001".to_string(),
                    assignments: 2,
                    shards_completed: 0,
                    failures: 2,
                    quarantines: 1,
                },
            ],
        }
    }

    #[test]
    fn summary_renders_workers_and_counters() {
        let text = render_dispatch_summary(&summary());
        assert!(text.contains("127.0.0.1:7000"));
        assert!(text.contains("127.0.0.1:7001"));
        assert!(text.contains("4 shards (1 resumed), 2 reassigned, 1 straggler backups"));
        assert!(text.contains("1 wasted completions"));
        assert!(text.contains("reassignment latency: p50 40 ms, p95 80 ms (3 samples)"));
    }

    #[test]
    fn clean_runs_omit_the_latency_line() {
        let mut s = summary();
        s.reassignment_latencies_ms.clear();
        s.reassignments = 0;
        let text = render_dispatch_summary(&s);
        assert!(!text.contains("reassignment latency"));
        assert!(text.contains("0 reassigned"));
    }

    #[test]
    fn merged_run_becomes_table1_rows_and_rejections() {
        let gen = fd_appgen::templates::quickstart();
        let suite = vec![(fd_apk::pack(&gen.app), gen.known_inputs.clone())];
        let config = fragdroid::FragDroidConfig::default();
        let (run, _) = fragdroid::Suite::new(&config, 1).run(&suite);
        let (rows, rejected) = table1_rows_from_run(&run);
        assert_eq!(rows.len(), 1);
        assert!(rejected.is_empty());
        assert_eq!(rows[0].package, "com.example.quickstart");
        assert_eq!(rows[0].activities.visited, 3);
        let text = render_table1(&rows);
        assert!(text.contains("com.example.quickstart"));

        // A rejected slot keeps its relabeled container name.
        let mut run = run;
        run.outcomes.push(AppOutcome::Rejected { reason: "bad magic".to_string() });
        let (rows, rejected) = table1_rows_from_run(&run);
        assert_eq!(rows.len(), 1);
        assert_eq!(rejected, vec![("container[1]".to_string(), "bad magic".to_string())]);
    }
}
