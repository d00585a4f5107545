//! The repository benchmark: four workloads through FragDroid's public
//! entry points, one JSON result line.
//!
//! ```text
//! repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrument inside the measured path beyond per-app fetch stamps; with
//! `--trace 1` it reports the per-layer breakdown from bench-side spans
//! instead. Inputs come from `--seed`; generated corpora, journals and
//! scratch files live under `.bench_data/` in the working directory.
//! The last stdout line is the result; the line before it records the
//! host, its load during the run, and how each number was taken.
//! See `repobench/README.md` for why each workload exists.

mod corpus;
mod dispatch;
mod host;
mod layers;
mod pins;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// What every workload gets.
pub struct Ctx {
    /// Where generated corpora and scratch files live.
    pub data: PathBuf,
    /// The input seed.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub budget: Duration,
    /// Whether this is the per-layer (traced) run.
    pub trace: bool,
    /// Suite workers, serve workers and farm endpoints.
    pub workers: usize,
}

/// Per-layer metric names and units, in report order. Layers a workload
/// does not exercise report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fd_apk.fetch.calls", "count"),
    ("fd_apk.fetch.busy_us", "us"),
    ("fd_apk.fetch.bytes", "bytes"),
    ("fd_apk.decompile.busy_us", "us"),
    ("fd_apk.decompile.mib_per_s", "MiB/s"),
    ("fd_apk.decompile.rejected", "count"),
    ("fd_static.extract.busy_us", "us"),
    ("fd_static.aftm_nodes", "count"),
    ("fd_static.aftm_edges", "count"),
    ("driver.explore.self_us", "us"),
    ("driver.events", "count"),
    ("driver.test_cases_run", "count"),
    ("driver.cases_run_per_generated", "ratio"),
    ("driver.events_per_visited", "ratio"),
    ("droidsim.install.calls", "count"),
    ("droidsim.install.busy_us", "us"),
    ("droidsim.inject.calls", "count"),
    ("droidsim.inject.busy_us", "us"),
    ("droidsim.observe.calls", "count"),
    ("droidsim.observe.busy_us", "us"),
    ("pool.leases", "count"),
    ("pool.incidents", "count"),
    ("suite.busy_us", "us"),
    ("suite.idle_us", "us"),
    ("suite.utilization", "ratio"),
    ("suite.app_p50_us", "us"),
    ("suite.app_p99_us", "us"),
    ("checkpoint.records", "count"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.load_us", "us"),
    ("checkpoint.overhead_us", "us"),
    ("serve.submit_rtt_us", "us"),
    ("serve.poll_rtt_us", "us"),
    ("serve.polls_per_job", "ratio"),
    ("serve.queue_depth", "count"),
    ("serve.busy_rejections", "count"),
    ("serve.frame_bytes_per_job", "bytes"),
    ("serve.journal_bytes", "bytes"),
    ("dispatch.requests_per_job", "ratio"),
    ("dispatch.rtt_us", "us"),
    ("dispatch.poll_wait_share", "ratio"),
    ("dispatch.reassignments", "count"),
    ("dispatch.wasted_completions", "count"),
    ("dispatch.merge_us", "us"),
    ("fd_report.table1_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.reconcile_ratio", "ratio"),
];

/// The end-to-end metrics every untraced run reports.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Apps (or jobs) settled per wall second.
    pub apps_per_s: f64,
    /// Process user + system CPU per settled app or job.
    pub cpu_ms_per_app: f64,
    /// Per-app or per-job latency (see each workload for its span).
    pub latency: stats::Summary,
    /// Highest sustainable rate: the best passing open-loop rate on
    /// serve, closed-loop throughput elsewhere.
    pub max_rate_jobs_per_s: f64,
    /// Median time to ready.
    pub setup_s: f64,
    /// Peak resident set of the run.
    pub peak_rss_mib: f64,
}

/// A workload's verdict and numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check that failed; empty means correct.
    pub problems: Vec<String>,
    /// Apps or jobs attempted.
    pub attempted: u64,
    /// Of those, failed (panics, deadlines, infrastructure incidents,
    /// submit or dispatch errors). Rejected inputs are settled, not
    /// failed.
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Option<EndToEnd>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra facts for the detail line: key → JSON value.
    pub detail: BTreeMap<String, String>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Records a detail fact.
    pub fn note(&mut self, key: &str, json: impl Into<String>) {
        self.detail.insert(key.to_string(), json.into());
    }

    /// Sets a per-layer metric; the name must be in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }
}

/// Renders `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a number for JSON (non-finite values become 0 — and are
/// flagged by the caller as a problem).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|_| format!("--{name} must be a whole number"))
    };
    let args = Args {
        workload: get("workload")?.clone(),
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repobench: {e}");
            std::process::exit(2);
        }
    };
    let data = match std::env::current_dir() {
        Ok(dir) => dir.join(".bench_data"),
        Err(e) => {
            eprintln!("repobench: no working directory: {e}");
            std::process::exit(2);
        }
    };
    let workload: fn(&Ctx) -> Result<Outcome, String> = match args.workload.as_str() {
        "corpus-paper" => corpus::paper,
        "corpus-tiny-journal" => corpus::tiny_journal,
        "serve-open" => serve::run,
        "dispatch-farm" => dispatch::run,
        other => {
            eprintln!(
                "repobench: unknown workload '{other}' \
                 (corpus-paper, corpus-tiny-journal, serve-open, dispatch-farm)"
            );
            std::process::exit(2);
        }
    };
    let tmp = data.join("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("repobench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }

    let host = host::Host::probe();
    let ctx = Ctx {
        data,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        workers: host::workers(),
    };
    let ticks_before = host::CpuTicks::read();
    let cpu_before = host::process_cpu();
    let mut outcome = match workload(&ctx) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("repobench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let load = host::Load::between(
        ticks_before,
        host::CpuTicks::read(),
        host::process_cpu().saturating_sub(cpu_before),
    );
    let _ = std::fs::remove_dir_all(&tmp);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if ctx.trace {
        for &(name, unit) in PER_LAYER {
            metrics.push((name, outcome.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        match outcome.end_to_end {
            Some(e) => {
                metrics.push(("apps_per_s", e.apps_per_s, "1/s"));
                metrics.push(("cpu_ms_per_app", e.cpu_ms_per_app, "ms"));
                metrics.push(("latency_p50_ms", e.latency.p50, "ms"));
                metrics.push(("setup_s", e.setup_s, "s"));
                metrics.push(("peak_rss_mib", e.peak_rss_mib, "MiB"));
                // Reported but not gated: on a shared host these follow
                // the neighbours' steal more than the code (README).
                outcome.note("latency_p99_ms", json_num(e.latency.tail));
                outcome.note("max_rate_jobs_per_s", json_num(e.max_rate_jobs_per_s));
                outcome.note("latency_samples", e.latency.count.to_string());
                outcome.note(
                    "latency_tail_percentile",
                    format!("{}", e.latency.tail_pm as f64 / 10.0),
                );
            }
            None => outcome.problems.push("workload produced no end-to-end metrics".to_string()),
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            outcome.problems.push(format!("metric {name} is not a finite number"));
        }
    }

    let detail: Vec<String> = [
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
        (
            "host".to_string(),
            format!(
                "{{\"nproc\": {}, \"available_parallelism\": {}, \"kernel\": {}, \"cpu_model\": {}}}",
                host.nproc,
                host.available_parallelism,
                json_str(&host.kernel),
                json_str(&host.cpu_model)
            ),
        ),
        (
            "host_load".to_string(),
            format!(
                "{{\"steal_share\": {:.4}, \"other_load_share\": {:.4}, \"ticks\": {}}}",
                load.steal_share, load.other_share, load.ticks
            ),
        ),
        ("failed_share".to_string(), json_num(outcome.failed as f64 / outcome.attempted.max(1) as f64)),
        (
            "problems".to_string(),
            format!(
                "[{}]",
                outcome.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", ")
            ),
        ),
    ]
    .into_iter()
    .chain(outcome.detail.iter().map(|(k, v)| (k.clone(), v.clone())))
    .map(|(k, v)| format!("{}: {v}", json_str(&k)))
    .collect();
    println!("{{{}}}", detail.join(", "));
    for problem in &outcome.problems {
        eprintln!("repobench: check failed: {problem}");
    }

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json.join(", ")
    );
}
