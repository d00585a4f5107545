//! Serve-service baseline: drive an in-process socket server with
//! concurrent submit clients and record end-to-end job throughput plus
//! submit→report latency quantiles — once over a clean transport and
//! once through the seeded chaos proxy (torn frames, shredded writes,
//! stalls, duplicated requests). Written to `BENCH_serve.json` so a
//! regression in the session/admission/journal hot path shows up as a
//! diff, and so chaos overhead (retry + backoff tax) is documented
//! rather than guessed.
//!
//! ```text
//! cargo run --release -p fd-bench --bin bench_serve [jobs-per-client]
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fd_bench::{shutdown_loopback_server, spawn_loopback_server};
use fd_droidsim::proto::to_hex;
use fragdroid::{ChaosConfig, JobOutcome, SubmitClient};
use serde::Serialize;

/// Concurrent submit clients (and server workers).
const CLIENTS: usize = 4;
/// Best-of passes per transport, to shed scheduler noise.
const PASSES: usize = 3;

/// One transport's measurements.
#[derive(Serialize)]
struct TransportStats {
    /// Jobs completed per wall-clock second (best pass).
    jobs_per_second: f64,
    /// Median submit→report latency, milliseconds.
    submit_to_report_p50_ms: f64,
    /// 95th-percentile submit→report latency, milliseconds.
    submit_to_report_p95_ms: f64,
}

/// What `BENCH_serve.json` records.
#[derive(Serialize)]
struct BenchServe {
    /// Concurrent submit clients (also the server worker count).
    clients: usize,
    /// Jobs per client per pass.
    jobs_per_client: usize,
    /// Clean TCP loopback transport.
    clean: TransportStats,
    /// The same jobs through the seeded chaos proxy.
    chaos: TransportStats,
    /// Chaos wall-clock tax: clean jobs/s divided by chaos jobs/s.
    chaos_slowdown: f64,
}

fn quickstart() -> (String, BTreeMap<String, String>) {
    let gen = fd_appgen::templates::quickstart();
    (to_hex(&fd_apk::pack(&gen.app)), gen.known_inputs)
}

/// Runs one pass: `CLIENTS` threads submit `jobs_per_client` jobs each
/// against a fresh server, returning (wall, per-job latencies).
fn run_pass(jobs_per_client: usize, chaos_seed: Option<u64>) -> (Duration, Vec<Duration>) {
    let (hex, inputs) = quickstart();
    let (addr, handle) = spawn_loopback_server(CLIENTS);
    let started = Instant::now();
    let latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let addr = addr.clone();
                let (hex, inputs) = (&hex, &inputs);
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(jobs_per_client);
                    for j in 0..jobs_per_client {
                        let job = (client * jobs_per_client + j + 1) as u64;
                        let mut submit = SubmitClient::new(addr.clone())
                            .with_deadline(Duration::from_secs(120))
                            .with_max_attempts(64);
                        if let Some(seed) = chaos_seed {
                            // A distinct schedule per job, derived from
                            // the pass seed so the run is reproducible.
                            submit = submit.with_chaos(ChaosConfig::from_seed(seed ^ job));
                        }
                        let t0 = Instant::now();
                        let outcome =
                            submit.submit(job, hex, inputs).expect("bench submit settles");
                        lats.push(t0.elapsed());
                        assert!(
                            matches!(outcome, JobOutcome::Report { .. }),
                            "bench job must complete with a report"
                        );
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall = started.elapsed();
    shutdown_loopback_server(&addr, handle);
    (wall, latencies)
}

fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1_000.0
}

/// Best-of-`PASSES` measurement for one transport.
fn bench_transport(jobs_per_client: usize, chaos_seed: Option<u64>) -> TransportStats {
    let total_jobs = CLIENTS * jobs_per_client;
    let mut best: Option<(f64, Vec<Duration>)> = None;
    for pass in 0..PASSES {
        let (wall, lats) = run_pass(jobs_per_client, chaos_seed.map(|s| s + pass as u64));
        let jobs_per_second = total_jobs as f64 / wall.as_secs_f64().max(1e-9);
        eprintln!(
            "  pass {}/{PASSES}: {jobs_per_second:.1} jobs/s over {total_jobs} jobs",
            pass + 1
        );
        if best.as_ref().map_or(true, |(b, _)| jobs_per_second > *b) {
            best = Some((jobs_per_second, lats));
        }
    }
    let (jobs_per_second, mut lats) = best.expect("at least one pass ran");
    lats.sort();
    TransportStats {
        jobs_per_second,
        submit_to_report_p50_ms: quantile_ms(&lats, 0.50),
        submit_to_report_p95_ms: quantile_ms(&lats, 0.95),
    }
}

fn main() {
    let jobs_per_client: usize =
        std::env::args().nth(1).map(|a| a.parse().expect("jobs-per-client parses")).unwrap_or(6);

    eprintln!("bench_serve: clean transport ({CLIENTS} clients x {jobs_per_client} jobs) ...");
    let clean = bench_transport(jobs_per_client, None);
    eprintln!("bench_serve: chaos transport ({CLIENTS} clients x {jobs_per_client} jobs) ...");
    let chaos = bench_transport(jobs_per_client, Some(0xFD5E));

    let bench = BenchServe {
        clients: CLIENTS,
        jobs_per_client,
        chaos_slowdown: clean.jobs_per_second / chaos.jobs_per_second.max(1e-9),
        clean,
        chaos,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("wrote BENCH_serve.json");
}
