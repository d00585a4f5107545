//! The two corpus workloads, the seeded on-disk corpora every workload
//! draws from, and the traced per-app breakdown.
//!
//! * `corpus-paper` streams a paper-profile corpus through the suite
//!   runner with the in-process device and no journal: explore, static
//!   and device work dominate, and it is where worker scaling shows.
//! * `corpus-tiny-journal` runs a tiny-profile corpus under a crash-safe
//!   checkpoint, stopped half way and resumed: per-app fixed costs and
//!   the journal's write and replay paths dominate.

use crate::layers::{timed_pool, DeviceSnapshot, StampedSource, Tally};
use crate::stats::{median, median_of, summarize, Summary};
use crate::{host, pins, Ctx, EndToEnd, Outcome};
use fd_apk::corpus::CorpusReader;
use fd_appgen::stream::{write_corpus, Profile, StreamConfig};
use fragdroid::suite::{engine, AppOutcome, SuiteMetrics, SuiteRun};
use fragdroid::{CheckpointOptions, CorpusSource, FragDroid, FragDroidConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Apps in the `corpus-paper` corpus (about one second per pass on two
/// workers).
pub const PAPER_APPS: usize = 1000;
/// Apps in the `corpus-tiny-journal` corpus; `serve-open` draws its
/// distinct job containers from the same corpus.
pub const TINY_APPS: usize = 4096;
/// Server setup repetitions whose median is `setup_s` on serve and
/// dispatch.
pub const SETUP_REPS: usize = 15;
/// Corpus opens whose median is `setup_s` on the corpus workloads (an
/// open takes tens of microseconds, so many are cheap and steady).
pub const OPEN_REPS: usize = 101;
/// Measured passes a run makes even when they overrun the budget.
pub const MIN_PASSES: usize = 3;

/// Generates (or reuses) the seeded corpus `(profile, apps, seed)` under
/// the data dir. Generation is excluded from every metric; a cache entry
/// is written to a temporary name and renamed into place, so a killed
/// run never leaves a partial corpus behind.
pub fn ensure_corpus(
    data: &Path,
    profile: Profile,
    apps: usize,
    seed: u64,
) -> Result<PathBuf, String> {
    let dir = data.join(format!("corpus-{}-{apps}-{seed}", profile.name()));
    if CorpusReader::open(&dir).map(|r| r.len() == apps).unwrap_or(false) {
        return Ok(dir);
    }
    let staging = data.join("tmp").join(format!("corpus-{}-{apps}-{seed}", profile.name()));
    let _ = std::fs::remove_dir_all(&staging);
    let _ = std::fs::remove_dir_all(&dir);
    let config = StreamConfig { apps, seed, profile, shard_size: 1024 };
    write_corpus(&staging, &config).map_err(|e| format!("generate corpus: {e}"))?;
    std::fs::rename(&staging, &dir).map_err(|e| format!("cache corpus: {e}"))?;
    Ok(dir)
}

/// Opens the corpus [`OPEN_REPS`] times; returns the reader and the
/// median open time in seconds (the corpus workloads' time to ready).
pub fn open_reader(dir: &Path) -> Result<(CorpusReader, f64), String> {
    let mut times = Vec::with_capacity(OPEN_REPS);
    let mut reader = None;
    for _ in 0..OPEN_REPS {
        let started = Instant::now();
        let opened = CorpusReader::open(dir).map_err(|e| format!("open corpus: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        reader = Some(opened);
    }
    Ok((reader.expect("OPEN_REPS > 0"), median(&times).expect("OPEN_REPS > 0")))
}

/// Summed visited activities and fragments over a run's reports.
pub fn coverage(outcomes: &[AppOutcome]) -> (usize, usize) {
    outcomes.iter().filter_map(|o| o.report()).fold((0, 0), |(a, f), r| {
        (a + r.activity_coverage().visited, f + r.fragment_coverage().visited)
    })
}

/// Apps that failed: panics, deadlines, and infrastructure failures.
pub fn failures(run: &SuiteRun) -> u64 {
    let bad = run.outcomes.iter().filter(|o| {
        matches!(o, AppOutcome::Panicked { .. } | AppOutcome::DeadlineExceeded(_))
            || o.report().is_some_and(|r| r.infra_failure.is_some())
    });
    bad.count() as u64 + run.metrics.device_incidents as u64
}

/// The reference result of a corpus: digest and coverage sums, checked
/// against the pinned table when the seed is in it.
pub struct Reference {
    /// Outcome digest.
    pub digest: u64,
    /// Visited activities and fragments, summed.
    pub coverage: (usize, usize),
}

impl Reference {
    fn of(run: &SuiteRun) -> Reference {
        Reference { digest: run.outcome_digest(), coverage: coverage(&run.outcomes) }
    }

    /// Checks `run` against the reference.
    pub fn check(&self, out: &mut Outcome, what: &str, run: &SuiteRun) {
        let digest = run.outcome_digest();
        out.check(digest == self.digest, || {
            format!("{what}: outcome digest {digest:#018x} != reference {:#018x}", self.digest)
        });
        let cov = coverage(&run.outcomes);
        out.check(cov == self.coverage, || {
            format!("{what}: coverage {cov:?} != reference {:?}", self.coverage)
        });
    }
}

/// Runs the plain suite once over `reader` and pins its result.
pub fn reference(
    out: &mut Outcome,
    reader: &CorpusReader,
    profile: Profile,
    seed: u64,
    workers: usize,
) -> Reference {
    let config = FragDroidConfig::default();
    let (run, _) =
        fragdroid::run_corpus_suite_traced(reader, &config, workers, &fd_trace::TraceConfig::off());
    let reference = Reference::of(&run);
    out.check(run.outcomes.len() == reader.len(), || "reference run lost apps".to_string());
    out.note(
        &format!("{}_outcome_digest", profile.name()),
        format!("\"{:#018x}\"", reference.digest),
    );
    if let Some(problem) = pins::check(profile, seed, reference.digest, reference.coverage) {
        out.problems.push(problem);
    }
    reference
}

/// Measured numbers from one untraced pass.
struct Pass {
    wall: Duration,
    cpu: Duration,
    apps: usize,
}

/// Shared tail of both corpus workloads: medians over passes, latency
/// included (each pass's settle-time quantiles, combined by median).
fn end_to_end(passes: &[Pass], latency: &[Summary], setup_s: f64) -> Result<EndToEnd, String> {
    let rate: Vec<f64> = passes.iter().map(|p| p.apps as f64 / p.wall.as_secs_f64()).collect();
    let cpu: Vec<f64> =
        passes.iter().map(|p| p.cpu.as_secs_f64() * 1e3 / p.apps.max(1) as f64).collect();
    let apps_per_s = median(&rate).ok_or("no measured pass")?;
    Ok(EndToEnd {
        apps_per_s,
        cpu_ms_per_app: median(&cpu).ok_or("no measured pass")?,
        latency: median_of(latency).ok_or("no latency samples")?,
        max_rate_jobs_per_s: apps_per_s,
        setup_s,
        peak_rss_mib: host::peak_rss_mib(),
    })
}

/// Times one call and the process CPU it used.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration, Duration) {
    let cpu = host::process_cpu();
    let started = Instant::now();
    let out = f();
    (out, started.elapsed(), host::process_cpu().saturating_sub(cpu))
}

/// One plain suite pass over `source` through the public corpus entry
/// point with tracing off.
fn plain_pass(source: &StampedSource<'_>, workers: usize) -> (SuiteRun, Pass) {
    let config = FragDroidConfig::default();
    let ((run, _), wall, cpu) = timed(|| {
        fragdroid::run_corpus_suite_traced(source, &config, workers, &fd_trace::TraceConfig::off())
    });
    let apps = run.outcomes.len();
    (run, Pass { wall, cpu, apps })
}

/// `corpus-paper`.
pub fn paper(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ensure_corpus(&ctx.data, Profile::Paper, PAPER_APPS, ctx.seed)?;
    let (reader, setup_s) = open_reader(&dir)?;
    out.note("corpus", format!("{{\"profile\": \"paper\", \"apps\": {}}}", reader.len()));
    out.note("workers", ctx.workers.to_string());
    let reference = reference(&mut out, &reader, Profile::Paper, ctx.seed, ctx.workers);
    if ctx.trace {
        traced(ctx, &mut out, &reader, &reference)?;
        return Ok(out);
    }
    let source = StampedSource::new(&reader);
    let (mut passes, mut latency) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed() < ctx.budget {
        let (run, pass) = plain_pass(&source, ctx.workers);
        latency.extend(summarize(&source.settle_times_ms(Instant::now())));
        reference.check(&mut out, "corpus pass", &run);
        out.attempted += run.outcomes.len() as u64;
        out.failed += failures(&run);
        passes.push(pass);
    }
    out.note("passes", passes.len().to_string());
    out.end_to_end = Some(end_to_end(&passes, &latency, setup_s)?);
    Ok(out)
}

/// Journal scratch path for pass `k`.
fn journal_path(ctx: &Ctx, k: usize) -> PathBuf {
    ctx.data.join("tmp").join(format!("journal-{k}.ckpt"))
}

/// What one interrupted-and-resumed journaled pass measured.
struct JournaledPass {
    run: SuiteRun,
    pass: Pass,
    journal_bytes: u64,
    records: u64,
    load_us: Option<f64>,
}

/// Pass one stops at half the corpus (the app budget), pass two resumes
/// it to completion. With `load_span`, the bench also replays the
/// partial journal itself between the passes and times `load_journal`.
fn journaled_pass(
    source: &StampedSource<'_>,
    workers: usize,
    path: &Path,
    load_span: bool,
) -> Result<JournaledPass, String> {
    let config = FragDroidConfig::default();
    let off = fd_trace::TraceConfig::off();
    let _ = std::fs::remove_file(path);
    let half = source.len() / 2;
    let first = CheckpointOptions::new(path).with_app_budget(half);
    let (one, wall_one, cpu_one) = timed(|| {
        fragdroid::run_corpus_suite_checkpointed(source, &config, workers, &off, Some(&first), 0)
    });
    let (one, _) = one.map_err(|e| format!("journaled pass one: {e}"))?;
    if one.is_complete() || one.fresh != half {
        return Err(format!("pass one ran {} of {} apps; expected {half}", one.fresh, one.total));
    }
    let load_us = if load_span {
        let started = Instant::now();
        let loaded = fragdroid::load_journal(path).map_err(|e| format!("load journal: {e}"))?;
        let took = started.elapsed().as_secs_f64() * 1e6;
        if loaded.slots.len() != half {
            return Err(format!("partial journal holds {} slots, not {half}", loaded.slots.len()));
        }
        Some(took)
    } else {
        None
    };
    let resume = CheckpointOptions::new(path).with_resume(true);
    let (two, wall_two, cpu_two) = timed(|| {
        fragdroid::run_corpus_suite_checkpointed(source, &config, workers, &off, Some(&resume), 0)
    });
    let (two, _) = two.map_err(|e| format!("journaled pass two: {e}"))?;
    if !two.is_complete() || two.resumed != half {
        return Err(format!("resume restored {} and left {} apps", two.resumed, two.remaining()));
    }
    let bytes = std::fs::read(path).map_err(|e| format!("read journal: {e}"))?;
    let records = bytes.iter().filter(|&&b| b == b'\n').count().saturating_sub(1) as u64;
    let _ = std::fs::remove_file(path);
    let apps = two.run.outcomes.len();
    Ok(JournaledPass {
        run: two.run,
        pass: Pass { wall: wall_one + wall_two, cpu: cpu_one + cpu_two, apps },
        journal_bytes: bytes.len() as u64,
        records,
        load_us,
    })
}

/// `corpus-tiny-journal`.
pub fn tiny_journal(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ensure_corpus(&ctx.data, Profile::Tiny, TINY_APPS, ctx.seed)?;
    let (reader, setup_s) = open_reader(&dir)?;
    out.note("corpus", format!("{{\"profile\": \"tiny\", \"apps\": {}}}", reader.len()));
    out.note("workers", ctx.workers.to_string());
    let reference = reference(&mut out, &reader, Profile::Tiny, ctx.seed, ctx.workers);
    if ctx.trace {
        traced(ctx, &mut out, &reader, &reference)?;
        return Ok(out);
    }
    let source = StampedSource::new(&reader);
    let (mut passes, mut latency, mut journal_bytes) = (Vec::new(), Vec::new(), 0);
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed() < ctx.budget {
        let j = journaled_pass(&source, ctx.workers, &journal_path(ctx, passes.len()), false)?;
        latency.extend(summarize(&source.settle_times_ms(Instant::now())));
        reference.check(&mut out, "journaled pass", &j.run);
        out.attempted += j.run.outcomes.len() as u64;
        out.failed += failures(&j.run);
        journal_bytes = j.journal_bytes;
        passes.push(j.pass);
    }
    out.note("passes", passes.len().to_string());
    out.note("journal_bytes", journal_bytes.to_string());
    out.end_to_end = Some(end_to_end(&passes, &latency, setup_s)?);
    Ok(out)
}

/// Bench-side spans of one app in the breakdown pass, nanoseconds.
#[derive(Default)]
struct AppSpans {
    /// The whole job closure.
    app: u64,
    fetch: u64,
    bytes: u64,
    decompile: u64,
    rejected: bool,
    /// `fd_static::extract`, called by the bench.
    extract: u64,
    nodes: u64,
    edges: u64,
    /// `DevicePool::run_app`, lease included.
    pool: u64,
    /// `FragDroid::run_traced_on` inside the lease.
    run: u64,
    device: DeviceSnapshot,
}

/// One traced breakdown pass: its outcomes, spans and engine timings.
struct Breakdown {
    run: SuiteRun,
    apps: Vec<AppSpans>,
    wall: Duration,
    busy: Duration,
    workers: usize,
    incidents: usize,
}

/// The suite's per-app job rebuilt from public calls, each wrapped in a
/// span: fetch → decompile → static extract → pool lease → driver run,
/// with the device calls timed by the pool's [`TimedDevice`]s. The
/// outcomes it produces must digest identically to the plain suite's.
///
/// [`TimedDevice`]: crate::layers::TimedDevice
fn breakdown_pass(reader: &CorpusReader, workers: usize) -> Breakdown {
    let config = FragDroidConfig::default();
    let (pool, tallies) = timed_pool(workers);
    let engine_run = engine::run_indexed_tagged(reader.len(), workers, |lane, index| {
        let app_started = Instant::now();
        let disabled = fd_trace::Tracer::disabled();
        let mut spans = AppSpans::default();
        let t = Instant::now();
        let fetched = CorpusSource::fetch(reader, index);
        spans.fetch = t.elapsed().as_nanos() as u64;
        let (bytes, inputs) = match fetched {
            Ok(entry) => entry,
            Err(reason) => {
                spans.app = app_started.elapsed().as_nanos() as u64;
                return (AppOutcome::Rejected { reason }, spans);
            }
        };
        spans.bytes = bytes.len() as u64;
        let t = Instant::now();
        let decoded = fd_apk::decompile(&bytes);
        spans.decompile = t.elapsed().as_nanos() as u64;
        let app = match decoded {
            Ok(app) => app,
            Err(error) => {
                spans.rejected = true;
                spans.app = app_started.elapsed().as_nanos() as u64;
                return (AppOutcome::Rejected { reason: error.to_string() }, spans);
            }
        };
        let t = Instant::now();
        let info = fd_static::extract(&app, &inputs);
        spans.extract = t.elapsed().as_nanos() as u64;
        spans.nodes = info.aftm.nodes().count() as u64;
        spans.edges = info.aftm.edges().count() as u64;
        let tool = FragDroid::new(config.clone());
        let before = tallies[lane].snapshot();
        let t = Instant::now();
        let mut run_ns = 0;
        let report = pool.run_app(lane, &disabled, |device| {
            let t = Instant::now();
            let report = tool.run_traced_on(&app, &inputs, &disabled, device);
            run_ns += t.elapsed().as_nanos() as u64;
            report
        });
        spans.pool = t.elapsed().as_nanos() as u64;
        spans.run = run_ns;
        spans.device = tallies[lane].snapshot().since(&before);
        spans.app = app_started.elapsed().as_nanos() as u64;
        let outcome = if report.deadline_exceeded {
            AppOutcome::DeadlineExceeded(report)
        } else {
            AppOutcome::Completed(report)
        };
        (outcome, spans)
    });
    let mut outcomes = Vec::with_capacity(reader.len());
    let mut apps = Vec::with_capacity(reader.len());
    for (result, _) in engine_run.results {
        match result {
            Ok((outcome, spans)) => {
                outcomes.push(outcome);
                apps.push(spans);
            }
            Err(message) => {
                outcomes.push(AppOutcome::Panicked { message });
                apps.push(AppSpans::default());
            }
        }
    }
    let metrics = SuiteMetrics {
        workers: engine_run.workers,
        wall_ms: engine_run.wall.as_millis() as u64,
        busy_ms: engine_run.busy.as_millis() as u64,
        worker_utilization: 0.0,
        app_wall_ms_p50: 0,
        app_wall_ms_p95: 0,
        app_wall_ms_max: 0,
        rejected: 0,
        device_incidents: pool.incidents(),
        flake_summary: None,
        apps: Vec::new(),
    };
    Breakdown {
        run: SuiteRun { outcomes, metrics },
        apps,
        wall: engine_run.wall,
        busy: engine_run.busy,
        workers: engine_run.workers,
        incidents: pool.incidents(),
    }
}

/// Per-layer numbers of one breakdown pass, by metric name.
fn layer_values(b: &Breakdown) -> Vec<(&'static str, f64)> {
    let mut fetch = Tally::default();
    let (mut bytes, mut decompile, mut rejected, mut extract) = (0u64, 0u64, 0u64, 0u64);
    let (mut nodes, mut edges, mut explore_self, mut pool_self, mut suite_self) =
        (0, 0, 0u64, 0u64, 0u64);
    let mut device = DeviceSnapshot::default();
    let mut leases = 0u64;
    let mut app_us = Vec::with_capacity(b.apps.len());
    for s in &b.apps {
        fetch.add(Duration::from_nanos(s.fetch));
        bytes += s.bytes;
        decompile += s.decompile;
        rejected += s.rejected as u64;
        extract += s.extract;
        nodes += s.nodes;
        edges += s.edges;
        device.merge(&s.device);
        if s.pool > 0 {
            leases += 1;
        }
        // `run_traced_on` repeats the static phase the bench just timed on
        // the same input; that repeat is charged to static, not explore.
        explore_self += s.run.saturating_sub(s.device.driver_busy_ns()).saturating_sub(s.extract);
        pool_self += s.pool.saturating_sub(s.run);
        suite_self += s.app.saturating_sub(s.fetch + s.decompile + s.extract + s.pool);
        app_us.push(s.app as f64 / 1e3);
    }
    let reports: Vec<_> = b.run.outcomes.iter().filter_map(|o| o.report()).collect();
    let events: usize = reports.iter().map(|r| r.events_injected).sum();
    let cases_run: usize = reports.iter().map(|r| r.test_cases_run).sum();
    let cases_generated: usize = reports.iter().map(|r| r.test_cases_generated).sum();
    let visited: usize =
        reports.iter().map(|r| r.visited_activities.len() + r.visited_fragments.len()).sum();
    let capacity_ns = b.workers as f64 * b.wall.as_nanos() as f64;
    let busy_ns = b.busy.as_nanos() as f64;
    let idle_ns = (capacity_ns - busy_ns).max(0.0);
    let self_sum = fetch.busy_ns
        + decompile
        + 2 * extract
        + explore_self
        + device.driver_busy_ns()
        + pool_self
        + suite_self;
    let app = summarize(&app_us).expect("a breakdown pass runs at least one app");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("fd_apk.fetch.calls", fetch.calls as f64),
        ("fd_apk.fetch.busy_us", fetch.busy_us()),
        ("fd_apk.fetch.bytes", bytes as f64),
        ("fd_apk.decompile.busy_us", decompile as f64 / 1e3),
        ("fd_apk.decompile.mib_per_s", ratio(bytes as f64 / 1048576.0, decompile as f64 / 1e9)),
        ("fd_apk.decompile.rejected", rejected as f64),
        ("fd_static.extract.busy_us", extract as f64 / 1e3),
        ("fd_static.aftm_nodes", nodes as f64),
        ("fd_static.aftm_edges", edges as f64),
        ("driver.explore.self_us", explore_self as f64 / 1e3),
        ("driver.events", events as f64),
        ("driver.test_cases_run", cases_run as f64),
        ("driver.cases_run_per_generated", ratio(cases_run as f64, cases_generated as f64)),
        ("driver.events_per_visited", ratio(events as f64, visited as f64)),
        ("droidsim.install.calls", device.install.calls as f64),
        ("droidsim.install.busy_us", device.install.busy_us()),
        ("droidsim.inject.calls", device.inject.calls as f64),
        ("droidsim.inject.busy_us", device.inject.busy_us()),
        ("droidsim.observe.calls", device.observe.calls as f64),
        ("droidsim.observe.busy_us", device.observe.busy_us()),
        ("pool.leases", leases as f64),
        ("pool.incidents", b.incidents as f64),
        ("suite.busy_us", busy_ns / 1e3),
        ("suite.idle_us", idle_ns / 1e3),
        ("suite.utilization", ratio(busy_ns, capacity_ns)),
        ("suite.app_p50_us", app.p50),
        ("suite.app_p99_us", app.tail),
        ("trace.reconcile_ratio", ratio(self_sum as f64, capacity_ns)),
    ]
}

/// Time to build Table 1 from a finished run, microseconds.
pub fn table1_us(run: &SuiteRun) -> f64 {
    let started = Instant::now();
    let (rows, _) = fd_report::table1_rows_from_run(run);
    let text = fd_report::render_table1(&rows);
    std::hint::black_box(text);
    started.elapsed().as_secs_f64() * 1e6
}

/// The traced run of either corpus workload: untraced passes, journaled
/// (interrupted and resumed) passes for the checkpoint layer, and
/// bench-side breakdown passes take turns until the budget is spent; each
/// per-layer metric is the median over passes.
fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    reader: &CorpusReader,
    reference: &Reference,
) -> Result<(), String> {
    let source = StampedSource::new(reader);
    // The timing decorator must not change what the suite finds.
    let (pool, _) = timed_pool(ctx.workers);
    let (decorated, _) = fragdroid::run_corpus_suite_pooled(
        &source,
        &FragDroidConfig::default(),
        ctx.workers,
        &fd_trace::TraceConfig::off(),
        &pool,
    );
    reference.check(out, "suite with timed devices", &decorated);
    let _ = source.settle_times_ms(Instant::now());

    let mut per_pass: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut plain_walls, mut traced_walls, mut journaled_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut table1, mut loads, mut records, mut journal_bytes) =
        (Vec::new(), Vec::new(), 0.0, 0.0);
    let started = Instant::now();
    while per_pass.len() < MIN_PASSES || started.elapsed() < ctx.budget {
        let (run, pass) = plain_pass(&source, ctx.workers);
        let _ = source.settle_times_ms(Instant::now());
        reference.check(out, "corpus pass", &run);
        plain_walls.push(pass.wall.as_secs_f64() * 1e6);
        table1.push(table1_us(&run));
        let j = journaled_pass(&source, ctx.workers, &journal_path(ctx, per_pass.len()), true)?;
        let _ = source.settle_times_ms(Instant::now());
        reference.check(out, "journaled pass", &j.run);
        journaled_walls.push(j.pass.wall.as_secs_f64() * 1e6);
        loads.extend(j.load_us);
        records = j.records as f64;
        journal_bytes = j.journal_bytes as f64;
        let b = breakdown_pass(reader, ctx.workers);
        reference.check(out, "breakdown pass", &b.run);
        out.attempted += b.run.outcomes.len() as u64;
        out.failed += failures(&b.run);
        traced_walls.push(b.wall.as_secs_f64() * 1e6);
        per_pass.push(layer_values(&b));
    }
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    for (i, &(name, _)) in per_pass[0].iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|p| p[i].1).collect();
        out.layer(name, med(&values));
    }
    let reconcile = out.layers.get("trace.reconcile_ratio").copied().unwrap_or(0.0);
    out.check((reconcile - 1.0).abs() <= 0.05, || {
        format!("layer self times cover {:.1}% of workers x traced wall", reconcile * 100.0)
    });
    out.layer("trace.overhead_us", med(&traced_walls) - med(&plain_walls));
    out.layer("fd_report.table1_us", med(&table1));
    out.layer("checkpoint.records", records);
    out.layer("checkpoint.bytes_written", journal_bytes);
    out.layer("checkpoint.load_us", med(&loads));
    out.layer("checkpoint.overhead_us", med(&journaled_walls) - med(&plain_walls));
    out.note("passes", per_pass.len().to_string());
    out.note("traced_wall_us", format!("{:.0}", med(&traced_walls)));
    out.note("untraced_wall_us", format!("{:.0}", med(&plain_walls)));
    Ok(())
}
