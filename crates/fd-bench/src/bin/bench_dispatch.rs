//! Farm-coordinator baseline: split a small corpus across in-process
//! serve endpoints through `fragdroid::dispatch` and record end-to-end
//! job throughput per farm size — once over a clean transport and once
//! through the seeded chaos proxy — plus the revocation→re-grant
//! latency quantiles measured against a farm with one dead endpoint.
//! Written to `BENCH_dispatch.json` so a regression in the lease /
//! reassignment / merge hot path shows up as a diff. Throughput keys
//! are gated by `bench_compare`; the reassignment latencies are
//! documented but ungated (they track the quarantine backoff knob, not
//! code speed).
//!
//! ```text
//! cargo run --release -p fd-bench --bin bench_dispatch [apps]
//! ```

use std::time::{Duration, Instant};

use fd_bench::{shutdown_loopback_server, spawn_loopback_server};
use fragdroid::{ChaosConfig, DispatchOptions, FragDroidConfig, ListenAddr};
use serde::Serialize;

/// Farm sizes measured (serve endpoints per run).
const FARMS: [usize; 3] = [1, 2, 4];
/// Best-of passes per clean cell, to shed scheduler noise. Chaos
/// cells run once: the seeded stall schedule dominates, not the host.
const CLEAN_PASSES: usize = 2;

/// One transport's throughput for one farm size.
#[derive(Serialize)]
struct FarmStats {
    /// Corpus apps completed per wall-clock second (best pass).
    jobs_per_second: f64,
}

/// One farm size's measurements.
#[derive(Serialize)]
struct FarmRow {
    /// Serve endpoints in the farm.
    workers: usize,
    /// Shards the corpus was split into (two per endpoint).
    shards: usize,
    /// Clean TCP loopback transport.
    clean: FarmStats,
    /// The same run through the seeded chaos proxy.
    chaos: FarmStats,
    /// Chaos wall-clock tax: clean jobs/s divided by chaos jobs/s.
    chaos_slowdown: f64,
}

/// What `BENCH_dispatch.json` records.
#[derive(Serialize)]
struct BenchDispatch {
    /// Corpus apps per run.
    apps: usize,
    /// One row per farm size.
    farms: Vec<FarmRow>,
    /// Median revocation→re-grant latency against a half-dead farm,
    /// milliseconds. Ungated: it tracks the quarantine backoff knob.
    reassignment_p50_ms: u64,
    /// 95th-percentile revocation→re-grant latency, milliseconds.
    reassignment_p95_ms: u64,
    /// Reassignments observed in the half-dead-farm probe.
    reassignments: usize,
}

fn corpus(apps: usize) -> Vec<fragdroid::suite::SuiteContainer> {
    fd_appgen::corpus::corpus_217(41)
        .into_iter()
        .take(apps)
        .map(|g| (fd_apk::pack(&g.app), g.known_inputs))
        .collect()
}

/// Runs one farm pass and returns the wall clock plus the summary.
fn run_pass(
    suite: &dyn fragdroid::CorpusSource,
    workers: usize,
    chaos_seed: Option<u64>,
) -> (Duration, fragdroid::DispatchSummary) {
    let farm: Vec<_> = (0..workers).map(|_| spawn_loopback_server(2)).collect();
    let mut options = DispatchOptions::new(farm.iter().map(|(addr, _)| addr.clone()).collect());
    options.shards = workers * 2;
    options.chaos = chaos_seed.map(ChaosConfig::from_seed);
    options.job_deadline = Duration::from_secs(120);
    options.job_attempts = 64;
    let started = Instant::now();
    let run = fragdroid::dispatch(
        suite,
        &FragDroidConfig::default(),
        &options,
        &fd_trace::TraceConfig::off(),
    )
    .expect("bench dispatch completes");
    let wall = started.elapsed();
    for (addr, handle) in farm {
        shutdown_loopback_server(&addr, handle);
    }
    (wall, run.summary)
}

/// Best-of-`PASSES` throughput for one `(farm size, transport)` cell.
fn bench_cell(
    suite: &dyn fragdroid::CorpusSource,
    workers: usize,
    chaos_seed: Option<u64>,
) -> FarmStats {
    let passes = if chaos_seed.is_some() { 1 } else { CLEAN_PASSES };
    let mut best = 0f64;
    for pass in 0..passes {
        let (wall, _) = run_pass(suite, workers, chaos_seed.map(|s| s + pass as u64));
        let jobs_per_second = suite.len() as f64 / wall.as_secs_f64().max(1e-9);
        eprintln!("  {workers} workers pass {}/{passes}: {jobs_per_second:.1} jobs/s", pass + 1);
        best = best.max(jobs_per_second);
    }
    FarmStats { jobs_per_second: best }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Measures revocation→re-grant latency: a two-endpoint farm where one
/// endpoint is a dead port, so its shards fail fast, quarantine it, and
/// reassign to the live endpoint.
fn bench_reassignment(suite: &dyn fragdroid::CorpusSource) -> (u64, u64, usize) {
    let (live, handle) = spawn_loopback_server(2);
    let mut options =
        DispatchOptions::new(vec![ListenAddr::Tcp("127.0.0.1:1".to_string()), live.clone()]);
    options.shards = 4;
    options.heartbeat_interval = Duration::from_millis(50);
    options.quarantine_backoff = Duration::from_millis(200);
    options.job_deadline = Duration::from_secs(5);
    options.job_attempts = 2;
    let run = fragdroid::dispatch(
        suite,
        &FragDroidConfig::default(),
        &options,
        &fd_trace::TraceConfig::off(),
    )
    .expect("half-dead farm still completes");
    shutdown_loopback_server(&live, handle);
    let mut lats = run.summary.reassignment_latencies_ms.clone();
    lats.sort_unstable();
    (quantile(&lats, 0.50), quantile(&lats, 0.95), run.summary.reassignments)
}

fn main() {
    let apps: usize = std::env::args().nth(1).map(|a| a.parse().expect("apps parses")).unwrap_or(8);
    let suite = corpus(apps);

    let mut farms = Vec::new();
    for workers in FARMS {
        eprintln!("bench_dispatch: {workers}-endpoint farm, clean transport ...");
        let clean = bench_cell(&suite, workers, None);
        eprintln!("bench_dispatch: {workers}-endpoint farm, chaos transport ...");
        let chaos = bench_cell(&suite, workers, Some(0xD15C));
        farms.push(FarmRow {
            workers,
            shards: workers * 2,
            chaos_slowdown: clean.jobs_per_second / chaos.jobs_per_second.max(1e-9),
            clean,
            chaos,
        });
    }

    eprintln!("bench_dispatch: reassignment probe (one dead endpoint) ...");
    let (reassignment_p50_ms, reassignment_p95_ms, reassignments) = bench_reassignment(&suite);

    let bench =
        BenchDispatch { apps, farms, reassignment_p50_ms, reassignment_p95_ms, reassignments };
    let json = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    std::fs::write("BENCH_dispatch.json", &json).expect("write BENCH_dispatch.json");
    println!("{json}");
    eprintln!("wrote BENCH_dispatch.json");
}
