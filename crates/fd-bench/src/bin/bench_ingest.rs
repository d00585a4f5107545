//! Ingestion-frontier benchmark: decode throughput over the well-formed
//! corpus and reject throughput over seeded fuzz mutants, written to
//! `BENCH_ingest.json` so a checked-cursor or error-path regression
//! shows up as a diff.
//!
//! Each measurement runs `PASSES` times. A pass repeats its workload a
//! fixed number of rounds so that it takes at least 200 ms on a 2-core
//! host, long enough to outweigh scheduler noise. Throughput comes from
//! the fastest pass (the least-noisy estimate of the code's actual
//! cost); the slowest pass is recorded next to it as the run-to-run
//! spread, and `nproc` (`available_parallelism`) records the host.
//!
//! ```text
//! cargo run --release -p fd-bench --bin bench_ingest
//! ```

use bytes::Bytes;
use serde::Serialize;
use std::time::Instant;

/// Best-of-N passes per measurement.
const PASSES: usize = 5;

/// Corpus loops per decode or decompile pass (one loop is 11–27 ms).
const CORPUS_ROUNDS: usize = 24;

/// Mutants in the timed fuzz campaign.
const MUTANTS: u64 = 5_000;

/// Campaigns per fuzz pass (one campaign is 160–200 ms).
const FUZZ_ROUNDS: usize = 2;

/// What `BENCH_ingest.json` records for the well-formed decode path.
#[derive(Serialize)]
struct DecodeStats {
    /// Containers decoded per round.
    containers: usize,
    /// Total packed payload per round, bytes.
    total_bytes: usize,
    /// Corpus loops per pass.
    rounds: usize,
    /// Fastest pass, ms.
    wall_ms: f64,
    /// Slowest pass, ms.
    slowest_wall_ms: f64,
    /// Decode throughput of that pass.
    containers_per_second: f64,
    /// Byte throughput of that pass.
    mib_per_second: f64,
}

/// What `BENCH_ingest.json` records for the mutant/reject path.
#[derive(Serialize)]
struct FuzzStats {
    /// Campaign seed.
    seed: u64,
    /// Mutants executed per campaign.
    mutants: u64,
    /// Campaigns per pass.
    rounds: usize,
    /// Mutants the pipeline accepted (identical every pass — the
    /// campaign is deterministic).
    ok: u64,
    /// Mutants refused with a typed error.
    rejected: u64,
    /// Panics observed (must be 0).
    violations: usize,
    /// The campaign's outcome digest (same-seed runs must agree).
    outcome_digest: u64,
    /// Fastest pass, ms.
    wall_ms: f64,
    /// Slowest pass, ms.
    slowest_wall_ms: f64,
    /// Mutant throughput of that pass.
    mutants_per_second: f64,
}

#[derive(Serialize)]
struct BenchIngest {
    /// `available_parallelism` of the host the figures come from.
    nproc: usize,
    /// Passes run per measurement.
    passes: usize,
    /// The borrowed decoder — `ContainerView::parse` + `decode` — over
    /// every packed corpus container. This is the decode hot path:
    /// envelope validation plus full section parsing (manifest, smali,
    /// layouts, meta), with section payloads borrowed from the container
    /// buffer.
    decode: DecodeStats,
    /// The owned wrapper — `fd_apk::decompile` — over the same corpus:
    /// borrowed decode plus class-pool/layout-map indexing and resource
    /// re-interning.
    decompile: DecodeStats,
    /// A seeded `fd-fuzz` campaign over every target.
    fuzz: FuzzStats,
}

/// Runs `pass` `PASSES` times; returns the fastest and slowest wall
/// time, ms.
fn time_passes(mut pass: impl FnMut()) -> (f64, f64) {
    let (mut best, mut slowest) = (f64::MAX, 0.0f64);
    for _ in 0..PASSES {
        let start = Instant::now();
        pass();
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        best = best.min(ms);
        slowest = slowest.max(ms);
    }
    (best, slowest)
}

fn main() {
    // Pack the full corpus once — packer-protected apps included, since
    // rejecting them cheaply is part of the frontier's job.
    let containers: Vec<Bytes> =
        fd_appgen::corpus::corpus_217(1).iter().map(|g| fd_apk::pack(&g.app)).collect();
    let total_bytes: usize = containers.iter().map(|b| b.len()).sum();

    let stats = |(wall_ms, slowest_wall_ms): (f64, f64)| {
        let secs = wall_ms / 1000.0 / CORPUS_ROUNDS as f64;
        DecodeStats {
            containers: containers.len(),
            total_bytes,
            rounds: CORPUS_ROUNDS,
            wall_ms,
            slowest_wall_ms,
            containers_per_second: containers.len() as f64 / secs,
            mib_per_second: total_bytes as f64 / (1024.0 * 1024.0) / secs,
        }
    };

    let decode = stats(time_passes(|| {
        for _ in 0..CORPUS_ROUNDS {
            for bytes in &containers {
                // Packed apps yield `Err(ApkError::Packed)` — that
                // rejection is part of the measured path, not a
                // benchmark failure.
                let _ = fd_apk::ContainerView::parse(bytes).and_then(|v| v.decode());
            }
        }
    }));

    let decompile = stats(time_passes(|| {
        for _ in 0..CORPUS_ROUNDS {
            for bytes in &containers {
                let _ = fd_apk::decompile(bytes);
            }
        }
    }));

    let config =
        fd_fuzz::FuzzConfig { seed: 4, mutants: MUTANTS, ..fd_fuzz::FuzzConfig::default() };
    let mut report: Option<fd_fuzz::CampaignReport> = None;
    let (fuzz_best, fuzz_slowest) = time_passes(|| {
        for _ in 0..FUZZ_ROUNDS {
            let campaign = fd_fuzz::run_campaign(&config);
            if let Some(previous) = &report {
                assert_eq!(
                    campaign.outcome_digest, previous.outcome_digest,
                    "same-seed campaigns must agree bit-for-bit"
                );
            }
            report = Some(campaign);
        }
    });
    let report = report.expect("PASSES > 0");
    assert!(report.is_clean(), "panic-free invariant violated: {:#?}", report.violations);
    let fuzz = FuzzStats {
        seed: report.seed,
        mutants: report.mutants,
        rounds: FUZZ_ROUNDS,
        ok: report.ok,
        rejected: report.rejected,
        violations: report.violations.len(),
        outcome_digest: report.outcome_digest,
        wall_ms: fuzz_best,
        slowest_wall_ms: fuzz_slowest,
        mutants_per_second: (report.mutants * FUZZ_ROUNDS as u64) as f64 / (fuzz_best / 1000.0),
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bench = BenchIngest { nproc, passes: PASSES, decode, decompile, fuzz };
    let json = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    std::fs::write("BENCH_ingest.json", &json).expect("write BENCH_ingest.json");
    println!("{json}");
    eprintln!("wrote BENCH_ingest.json");
}
