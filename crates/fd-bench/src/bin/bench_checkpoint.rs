//! Checkpointing-overhead baseline: the analyzable corpus through the
//! suite runner in three modes — no journal, a journal with the default
//! fsync batch, and a journal fsync'ing every record — plus the cost of
//! a zero-work resume (replaying a complete journal instead of running
//! anything). Written to `BENCH_checkpoint.json` so a regression in the
//! journal hot path (serialize + checksum + append) shows up as a diff.
//!
//! Each mode runs `PASSES` times and keeps the fastest pass, interleaved
//! round-robin so machine-load drift hits every mode equally.
//!
//! ```text
//! cargo run --release -p fd-bench --bin bench_checkpoint
//! ```

use fragdroid::{CheckpointOptions, FragDroidConfig, Suite, SuiteRun};
use serde::Serialize;
use std::path::PathBuf;

/// Best-of-N passes per mode.
const PASSES: usize = 5;

/// What `BENCH_checkpoint.json` records for one mode.
#[derive(Serialize)]
struct ModeStats {
    /// End-to-end suite wall time of the fastest pass, ms.
    wall_ms: u64,
    /// Summed per-worker busy time of that pass, ms.
    busy_ms: u64,
    /// Corpus apps over the suite wall time — the throughput form of
    /// `wall_ms` that CI's `bench_compare` gate watches.
    apps_per_second: f64,
    /// Per-app wall-time quantiles (nearest-rank), ms.
    app_wall_ms_p50: u64,
    app_wall_ms_p95: u64,
    app_wall_ms_max: u64,
}

#[derive(Serialize)]
struct BenchCheckpoint {
    /// Apps run (the analyzable, non-packed corpus slice).
    apps: usize,
    /// Worker threads used.
    workers: usize,
    /// Best-of-N passes kept per mode.
    passes: usize,
    /// The plain suite: no journal at all.
    plain: ModeStats,
    /// Journaled with the default fsync batch
    /// ([`fragdroid::checkpoint::DEFAULT_FSYNC_BATCH`]).
    journaled: ModeStats,
    /// Journaled with `fsync_every = 1` — the worst-case durability mode.
    journaled_fsync_each: ModeStats,
    /// `journaled.wall / plain.wall - 1`, percent: the journal's cost on
    /// the suite's wall clock in the recommended configuration.
    journaled_overhead_pct: f64,
    /// `journaled_fsync_each.wall / plain.wall - 1`, percent.
    fsync_each_overhead_pct: f64,
    /// Wall time of a zero-work resume (every app restored from the
    /// journal, nothing run), ms — the price of replaying the journal.
    resume_wall_ms: u64,
    /// Journal size after a complete run, bytes.
    journal_bytes: u64,
    /// The timing-free outcome digest, identical across all modes (the
    /// journal must never change *what* the suite finds).
    outcome_digest: String,
}

fn mode_stats(run: &SuiteRun) -> ModeStats {
    let m = &run.metrics;
    let secs = m.wall_ms as f64 / 1000.0;
    ModeStats {
        wall_ms: m.wall_ms,
        busy_ms: m.busy_ms,
        apps_per_second: if secs > 0.0 { run.outcomes.len() as f64 / secs } else { 0.0 },
        app_wall_ms_p50: m.app_wall_ms_p50,
        app_wall_ms_p95: m.app_wall_ms_p95,
        app_wall_ms_max: m.app_wall_ms_max,
    }
}

fn keep_best(best: &mut Option<SuiteRun>, candidate: SuiteRun) {
    match best {
        Some(b) if b.metrics.wall_ms <= candidate.metrics.wall_ms => {}
        _ => *best = Some(candidate),
    }
}

fn overhead_pct(mode: &ModeStats, baseline: &ModeStats) -> f64 {
    if baseline.wall_ms > 0 {
        (mode.wall_ms as f64 / baseline.wall_ms as f64 - 1.0) * 100.0
    } else {
        0.0
    }
}

/// One journaled pass to a fresh path; returns the run.
fn journaled_pass(
    apps: &[fragdroid::suite::SuiteApp],
    config: &FragDroidConfig,
    workers: usize,
    path: &PathBuf,
    fsync_every: usize,
) -> SuiteRun {
    let _ = std::fs::remove_file(path);
    let opts = CheckpointOptions::new(path.clone()).with_fsync_every(fsync_every);
    let (suite, _) = Suite::new(config, workers)
        .run_checkpointed(&apps, &opts)
        .expect("bench journal path is writable");
    suite.run
}

fn main() {
    let apps = fd_bench::analyzable_corpus(1);
    let config = FragDroidConfig::default();
    let workers = fragdroid::suite::engine::default_workers(apps.len());
    let dir = std::env::temp_dir().join(format!("fd-bench-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let journal = dir.join("bench.ckpt");

    // Warm-up pass so no measured mode pays first-touch costs.
    let plain = Suite::new(&config, workers);
    let _ = plain.run(&apps);

    let (mut best_plain, mut best_journaled, mut best_each) = (None, None, None);
    for _ in 0..PASSES {
        keep_best(&mut best_plain, plain.run(&apps).0);
        keep_best(
            &mut best_journaled,
            journaled_pass(
                &apps,
                &config,
                workers,
                &journal,
                fragdroid::checkpoint::DEFAULT_FSYNC_BATCH,
            ),
        );
        keep_best(&mut best_each, journaled_pass(&apps, &config, workers, &journal, 1));
    }
    let plain_run = best_plain.expect("PASSES > 0");
    let journaled_run = best_journaled.expect("PASSES > 0");
    let each_run = best_each.expect("PASSES > 0");

    // Leave a complete journal on disk (the fsync-each passes ran last),
    // then measure the zero-work resume against it.
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    let resume_started = std::time::Instant::now();
    let opts = CheckpointOptions::new(journal.clone()).with_resume(true);
    let (resumed, _) = plain.run_checkpointed(&apps, &opts).expect("complete journal resumes");
    let resume_wall_ms = resume_started.elapsed().as_millis() as u64;
    assert_eq!(resumed.fresh, 0, "a complete journal leaves no fresh work");

    let plain = mode_stats(&plain_run);
    let journaled = mode_stats(&journaled_run);
    let journaled_fsync_each = mode_stats(&each_run);
    let journaled_overhead_pct = overhead_pct(&journaled, &plain);
    let fsync_each_overhead_pct = overhead_pct(&journaled_fsync_each, &plain);

    // The journal must never change what the suite finds: all four runs
    // (plain, both journaled modes, the resume) share one digest.
    let digest = plain_run.outcome_digest();
    for (name, run) in
        [("journaled", &journaled_run), ("fsync-each", &each_run), ("resumed", &resumed.run)]
    {
        assert_eq!(run.outcome_digest(), digest, "{name} run diverged from plain");
    }

    let bench = BenchCheckpoint {
        apps: apps.len(),
        workers,
        passes: PASSES,
        plain,
        journaled,
        journaled_fsync_each,
        journaled_overhead_pct,
        fsync_each_overhead_pct,
        resume_wall_ms,
        journal_bytes,
        outcome_digest: format!("{digest:#018x}"),
    };

    let json = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    std::fs::write("BENCH_checkpoint.json", &json).expect("write BENCH_checkpoint.json");
    println!("{json}");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("wrote BENCH_checkpoint.json");
}
