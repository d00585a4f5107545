//! The shared corpus runner every multi-app experiment goes through.
//!
//! [`Suite`] holds the run's options (config, workers, tracing, device
//! pool, flake budget) and runs any [`CorpusSource`] — decoded apps,
//! packed containers, an on-disk corpus or a shard of one — through one
//! work-stealing scheduler: workers pull the next un-started entry off a
//! shared atomic index, so one slow app never stalls its siblings.
//! [`Suite::run`] and the journaled [`Suite::run_checkpointed`] share one
//! body ([`crate::checkpoint`]); without a journal it never touches the
//! disk and never digests the corpus.
//!
//! Fault isolation: each app runs under [`std::panic::catch_unwind`]. A
//! panicking app yields [`AppOutcome::Panicked`] while every other app
//! still completes — the suite never aborts. A per-app wall-clock
//! deadline ([`crate::FragDroidConfig::app_deadline`]) surfaces as
//! [`AppOutcome::DeadlineExceeded`], keeping the partial report.
//!
//! Every run also produces a [`SuiteMetrics`] record (per-app wall time,
//! event throughput, worker utilization) that serializes to JSON.

use crate::config::FragDroidConfig;
use crate::driver::FragDroid;
use crate::report::RunReport;
use fd_apk::corpus::{fnv1a, DIGEST_SEED};
use fd_apk::AndroidApp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One app plus its analyst-provided inputs.
pub type SuiteApp = (AndroidApp, BTreeMap<String, String>);

/// One packed container plus its analyst-provided inputs — the byte-level
/// form of a [`SuiteApp`], for suites that exercise the ingestion
/// frontier (decode + parse) per app.
pub type SuiteContainer = (bytes::Bytes, BTreeMap<String, String>);

/// How one app's run ended.
///
/// Serializable so the checkpoint journal ([`crate::checkpoint`]) can
/// persist one record per outcome and restore it byte-identically on
/// resume.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AppOutcome {
    /// The run finished within its budgets.
    Completed(RunReport),
    /// The run panicked; the message is the panic payload. Siblings are
    /// unaffected.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The per-app deadline passed; the report holds the partial results
    /// accumulated up to that point.
    DeadlineExceeded(RunReport),
    /// The input was rejected at the ingestion frontier — a malformed,
    /// truncated, or packer-protected container that never became an app.
    /// This is the paper's dataset-filtering step surfaced per app: the
    /// input is quarantined with a typed diagnostic, and
    /// [`AppOutcome::Panicked`] stays a true-bug signal.
    Rejected {
        /// The typed decode/parse error, rendered with its byte offset.
        reason: String,
    },
}

impl AppOutcome {
    /// The report, if the run produced one (completed or partial).
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            AppOutcome::Completed(r) | AppOutcome::DeadlineExceeded(r) => Some(r),
            AppOutcome::Panicked { .. } | AppOutcome::Rejected { .. } => None,
        }
    }

    /// Consumes the outcome into its report, if any.
    pub fn into_report(self) -> Option<RunReport> {
        match self {
            AppOutcome::Completed(r) | AppOutcome::DeadlineExceeded(r) => Some(r),
            AppOutcome::Panicked { .. } | AppOutcome::Rejected { .. } => None,
        }
    }

    /// Whether this run panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, AppOutcome::Panicked { .. })
    }

    /// Whether this input was rejected at the ingestion frontier.
    pub fn is_rejected(&self) -> bool {
        matches!(self, AppOutcome::Rejected { .. })
    }
}

/// Observability record for one app's slot in a suite run.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct AppMetrics {
    /// The app's manifest package.
    pub package: String,
    /// Wall-clock time the app's run took, in milliseconds.
    pub wall_ms: u64,
    /// UI events injected (0 for a panicked run).
    pub events_injected: usize,
    /// Injection throughput over the app's wall time.
    pub events_per_second: f64,
    /// Test cases executed.
    pub test_cases_run: usize,
    /// Test cases ever generated (enqueued), including skipped ones.
    pub test_cases_generated: usize,
    /// Force-closes observed.
    pub crashes: usize,
    /// Crashes the driver's supervisor recovered from (relaunch + path
    /// replay).
    #[serde(default)]
    pub recovered_crashes: usize,
    /// Event retries after transient device errors.
    #[serde(default)]
    pub retries: usize,
    /// Faults the device's plan injected.
    #[serde(default)]
    pub faults_injected: usize,
    /// Whether the run panicked.
    pub panicked: bool,
    /// Whether the run hit its wall-clock deadline.
    pub deadline_exceeded: bool,
    /// Whether the input was rejected at the ingestion frontier.
    #[serde(default)]
    pub rejected: bool,
    /// The rejection diagnostic (empty unless `rejected`).
    #[serde(default)]
    pub reject_reason: String,
}

/// Observability record for a whole suite run.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct SuiteMetrics {
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall-clock time, in milliseconds.
    pub wall_ms: u64,
    /// Sum of per-worker busy time, in milliseconds.
    pub busy_ms: u64,
    /// `busy / (workers * wall)` — 1.0 means no worker ever idled.
    pub worker_utilization: f64,
    /// Median per-app wall time, in milliseconds (nearest-rank; 0 for an
    /// empty suite).
    #[serde(default)]
    pub app_wall_ms_p50: u64,
    /// 95th-percentile per-app wall time, in milliseconds (nearest-rank).
    #[serde(default)]
    pub app_wall_ms_p95: u64,
    /// Slowest single app's wall time, in milliseconds.
    #[serde(default)]
    pub app_wall_ms_max: u64,
    /// Inputs rejected at the ingestion frontier (quarantined, not run).
    #[serde(default)]
    pub rejected: usize,
    /// Device-infrastructure incidents the pool absorbed: app attempts
    /// that ended in agent death / protocol timeout and were retried on a
    /// fresh lease. Incidents are harness failures, never app crashes —
    /// they are excluded from every crash count.
    #[serde(default)]
    pub device_incidents: usize,
    /// Flake-triage results, when the run was asked to re-run failed
    /// apps (`--flake-retries`); `None` otherwise, and absent in legacy
    /// records.
    #[serde(default)]
    pub flake_summary: Option<crate::checkpoint::FlakeSummary>,
    /// Per-app records, in input order.
    pub apps: Vec<AppMetrics>,
}

impl SuiteMetrics {
    /// Serializes the record to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a record back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Nearest-rank percentile over a sorted ascending slice (0 when empty).
///
/// This is the textbook nearest-rank definition — `rank = ⌈p/100 · n⌉`,
/// clamped to `[1, n]`, returning `sorted[rank - 1]` — NOT a linear
/// interpolation: the result is always an element of the input. The
/// clamp makes the edges total: `p = 0` (rank 0) reads the minimum and
/// `p ≥ 100` reads the maximum. Pinned by `percentile_is_nearest_rank`;
/// the published `app_wall_ms_p50`/`p95` quantiles and `BENCH_*.json`
/// baselines depend on this exact convention, so changing it is a
/// metrics-format break.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A suite run's outcomes (input order) plus its metrics.
#[derive(Debug)]
pub struct SuiteRun {
    /// One outcome per input app, in input order.
    pub outcomes: Vec<AppOutcome>,
    /// The run's observability record.
    pub metrics: SuiteMetrics,
}

impl SuiteRun {
    /// FNV-1a digest over the serialized outcomes, in input order — a
    /// timing-free fingerprint of *what the suite found*. Two runs of the
    /// same corpus with the same seed produce the same digest regardless
    /// of worker count, tracing, or checkpoint/resume interruptions; CI
    /// diffs it to prove kill-and-resume determinism.
    pub fn outcome_digest(&self) -> u64 {
        let mut digest = DIGEST_SEED;
        for outcome in &self.outcomes {
            match serde_json::to_string(outcome) {
                Ok(json) => digest = fnv1a(digest, json.as_bytes()),
                // Outcomes are plain data and always serialize; fold the
                // slot marker anyway so a hypothetical failure still
                // perturbs the digest instead of vanishing.
                Err(_) => digest = fnv1a(digest, b"<unserializable>"),
            }
        }
        digest
    }
}

/// One slot of an [`engine`] run: the job's result (or stringified panic
/// payload) and its wall time.
pub type EngineSlot<T> = (Result<T, String>, Duration);

/// The generic work-stealing engine underneath [`Suite`] —
/// public so callers with non-`RunReport` jobs (and the runner tests) can
/// drive arbitrary closures through the same scheduling and isolation.
pub mod engine {
    use super::*;

    /// What a finished engine run hands back.
    #[derive(Debug)]
    pub struct EngineRun<T> {
        /// One slot per index, in input order.
        pub results: Vec<EngineSlot<T>>,
        /// Worker threads used (0 when there was no work).
        pub workers: usize,
        /// End-to-end wall-clock time.
        pub wall: Duration,
        /// Sum of per-worker busy time.
        pub busy: Duration,
    }

    /// Runs `job(0..n)` across `workers` threads with work stealing:
    /// each idle worker claims the next un-started index from a shared
    /// atomic counter. Panics inside `job` are caught per index and
    /// surface as `Err(message)` in that index's slot; the other indices
    /// are unaffected. Results come back in input order.
    pub fn run_indexed<T, F>(n: usize, workers: usize, job: F) -> EngineRun<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        run_indexed_tagged(n, workers, |_worker, index| job(index))
    }

    /// [`run_indexed`] where the job also learns which worker *lane*
    /// (`0..workers`) runs it — the hook per-lane consumers (a tracer
    /// track per thread, say) need to stay lock-free.
    pub fn run_indexed_tagged<T, F>(n: usize, workers: usize, job: F) -> EngineRun<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        if n == 0 {
            return EngineRun {
                results: Vec::new(),
                workers: 0,
                wall: Duration::ZERO,
                busy: Duration::ZERO,
            };
        }
        let workers = workers.min(n).max(1);
        let next = AtomicUsize::new(0);
        let job = &job;
        let started = Instant::now();

        let mut slots: Vec<Option<EngineSlot<T>>> = Vec::new();
        slots.resize_with(n, || None);
        let mut busy = Duration::ZERO;

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, EngineSlot<T>)> = Vec::new();
                        let mut worker_busy = Duration::ZERO;
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                break;
                            }
                            let t0 = Instant::now();
                            let result = catch_unwind(AssertUnwindSafe(|| job(worker, index)))
                                .map_err(|payload| panic_message(payload.as_ref()));
                            let elapsed = t0.elapsed();
                            worker_busy += elapsed;
                            local.push((index, (result, elapsed)));
                        }
                        (local, worker_busy)
                    })
                })
                .collect();
            for handle in handles {
                // Workers should be panic-free (every job runs under
                // catch_unwind), but a panic in the scheduling loop
                // itself must degrade to per-slot errors, not abort the
                // whole suite: the slots that worker claimed surface as
                // failed, every other worker's results survive.
                match handle.join() {
                    Ok((local, worker_busy)) => {
                        busy += worker_busy;
                        for (index, slot) in local {
                            slots[index] = Some(slot);
                        }
                    }
                    Err(payload) => {
                        eprintln!(
                            "suite: worker crashed outside job isolation: {}",
                            panic_message(payload.as_ref())
                        );
                    }
                }
            }
        });

        EngineRun {
            results: slots
                .into_iter()
                .map(|s| {
                    s.unwrap_or_else(|| {
                        (
                            Err("suite worker crashed before this slot completed".into()),
                            Duration::ZERO,
                        )
                    })
                })
                .collect(),
            workers,
            wall: started.elapsed(),
            busy,
        }
    }

    /// The default worker count: one per available core, capped at the
    /// amount of work.
    pub fn default_workers(n: usize) -> usize {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n.max(1))
    }

    /// Renders a caught panic payload. `pub(crate)` so the checkpointed
    /// runner's own isolation layer reports identically.
    pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    }
}

/// One suite invocation: everything a corpus run needs besides the
/// corpus itself. Every multi-app run in the workspace goes through
/// [`Suite::run`] (or [`Suite::run_checkpointed`] for a journaled run);
/// the corpus arrives as a [`CorpusSource`], so decoded apps
/// (`[SuiteApp]`), packed containers (`[SuiteContainer]`) and on-disk
/// corpora share one runner.
///
/// Each worker lane owns a private tracer (no locks on the hot path; the
/// lane index becomes the Chrome `tid`). Each slot runs inside one
/// [`fd_trace::Phase::App`] span — fetch, decode and explore — named
/// after the app's package once it decodes, and a coordinator track
/// brackets the whole run in a [`fd_trace::Phase::Suite`] span. With
/// [`fd_trace::TraceConfig::off`] the trace is empty and the reports are
/// byte-identical (property-tested in `tests/trace_prop.rs`).
#[derive(Clone, Copy)]
pub struct Suite<'a> {
    /// The engine configuration every app runs with.
    pub config: &'a FragDroidConfig,
    /// Worker threads (capped at the amount of work; 1 reproduces a
    /// sequential run exactly).
    pub workers: usize,
    /// Tracing for the run.
    pub trace: fd_trace::TraceConfig,
    /// A caller-built device pool — the hook for custom device factories
    /// (kill-injection in CI, test doubles). It should have at least
    /// `workers` lanes, and [`SuiteMetrics::device_incidents`] reflects
    /// its incident count after the run. `None` builds one in-process
    /// lane per worker from `config`.
    pub pool: Option<&'a crate::pool::DevicePool>,
    /// Re-runs per failed app for flake triage (0 skips triage); see
    /// [`crate::checkpoint`].
    pub flake_retries: usize,
}

impl<'a> Suite<'a> {
    /// `workers` workers, tracing off, the default pool, no flake triage.
    pub fn new(config: &'a FragDroidConfig, workers: usize) -> Self {
        Suite { config, workers, trace: fd_trace::TraceConfig::off(), pool: None, flake_retries: 0 }
    }

    /// Runs every entry of `source` on the work-stealing engine,
    /// returning per-app [`AppOutcome`]s in input order plus
    /// [`SuiteMetrics`] and the run's trace. A panicking app is isolated
    /// to its own slot; a deadline-limited app keeps its partial report;
    /// an entry the ingestion frontier refuses is quarantined as
    /// [`AppOutcome::Rejected`]. Never computes the corpus digest.
    pub fn run(&self, source: &dyn CorpusSource) -> (SuiteRun, fd_trace::Trace) {
        let (suite, trace) = self.execute(source, None, Default::default());
        (suite.run, trace)
    }
}

/// [`Suite::run`] with the pre-`Suite` signature, kept because external
/// benchmark harnesses call it.
pub fn run_corpus_suite_traced(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    workers: usize,
    trace_config: &fd_trace::TraceConfig,
) -> (SuiteRun, fd_trace::Trace) {
    Suite { trace: *trace_config, ..Suite::new(config, workers) }.run(source)
}

/// [`Suite::run`] against a caller-built pool, with the pre-`Suite`
/// signature, kept because external benchmark harnesses call it.
pub fn run_corpus_suite_pooled(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    workers: usize,
    trace_config: &fd_trace::TraceConfig,
    pool: &crate::pool::DevicePool,
) -> (SuiteRun, fd_trace::Trace) {
    Suite { trace: *trace_config, pool: Some(pool), ..Suite::new(config, workers) }.run(source)
}

/// A corpus the suite streams one entry at a time instead of requiring
/// the whole thing resident — in-memory apps and containers, on-disk
/// corpora ([`fd_apk::corpus::CorpusReader`]), shard sub-ranges, and
/// generators that pack on demand. Only the entries currently running
/// are resident; memory stays O(workers) apps regardless of corpus size.
///
/// `fetch` errors are treated exactly like refused containers: the slot
/// is quarantined as [`AppOutcome::Rejected`] and counted in
/// [`SuiteMetrics::rejected`].
pub trait CorpusSource: Sync {
    /// Number of entries in the corpus.
    fn len(&self) -> usize;

    /// Whether the corpus holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes entry `index`: packed container bytes plus analyst
    /// inputs.
    fn fetch(&self, index: usize) -> Result<SuiteContainer, String>;

    /// The streaming corpus digest: FNV-1a over every entry's container
    /// bytes and then its inputs, in order — one half of a checkpoint
    /// journal's [`crate::checkpoint::Fingerprint`]. The default streams
    /// every entry through [`CorpusSource::fetch`] once; sources with a
    /// cheaper path (a recorded manifest digest, borrowed slices) should
    /// override it. Only journaled runs call it.
    fn digest(&self) -> Result<u64, String> {
        let mut digest = DIGEST_SEED;
        for index in 0..self.len() {
            let (bytes, inputs) = self.fetch(index)?;
            digest = fold_entry(digest, &bytes, &inputs);
        }
        Ok(digest)
    }

    /// The label a slot carries when it never produced an app (rejected
    /// or panicked): `container[index]` unless the source knows better.
    fn label(&self, index: usize) -> String {
        format!("container[{index}]")
    }
}

/// One entry's contribution to [`CorpusSource::digest`].
fn fold_entry(mut digest: u64, bytes: &[u8], inputs: &BTreeMap<String, String>) -> u64 {
    digest = fnv1a(digest, bytes);
    for (key, value) in inputs {
        digest = fnv1a(digest, key.as_bytes());
        digest = fnv1a(digest, value.as_bytes());
    }
    digest
}

/// An in-memory corpus is trivially a [`CorpusSource`]: fetching clones
/// one entry (the container bytes and its inputs), never the corpus.
impl CorpusSource for [SuiteContainer] {
    fn len(&self) -> usize {
        <[SuiteContainer]>::len(self)
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        self.get(index)
            .cloned()
            .ok_or_else(|| format!("corpus entry {index} out of range ({} entries)", self.len()))
    }

    fn digest(&self) -> Result<u64, String> {
        Ok(self
            .iter()
            .fold(DIGEST_SEED, |digest, (bytes, inputs)| fold_entry(digest, bytes, inputs)))
    }
}

/// Already-decoded apps pack on fetch, so they cross the same ingestion
/// frontier as every other corpus (decoding is lossless, so the reports
/// match a direct run). A slot that never produced an app keeps the
/// app's package as its label.
impl CorpusSource for [SuiteApp] {
    fn len(&self) -> usize {
        <[SuiteApp]>::len(self)
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        self.get(index)
            .map(|(app, inputs)| (fd_apk::pack(app), inputs.clone()))
            .ok_or_else(|| format!("corpus entry {index} out of range ({} entries)", self.len()))
    }

    fn label(&self, index: usize) -> String {
        match self.get(index) {
            Some((app, _)) => app.manifest.package.clone(),
            None => format!("container[{index}]"),
        }
    }
}

/// A `Vec` corpus delegates to its slice — the sized form callers need
/// when handing an in-memory corpus over as `&dyn CorpusSource`.
impl<T: Sync> CorpusSource for Vec<T>
where
    [T]: CorpusSource,
{
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        self.as_slice().fetch(index)
    }

    fn digest(&self) -> Result<u64, String> {
        self.as_slice().digest()
    }

    fn label(&self, index: usize) -> String {
        self.as_slice().label(index)
    }
}

/// A borrowed corpus is a corpus — so a `&[SuiteApp]` parameter hands
/// over as `&dyn CorpusSource` with one more `&`.
impl<S: CorpusSource + ?Sized> CorpusSource for &S {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        (**self).fetch(index)
    }

    fn digest(&self) -> Result<u64, String> {
        (**self).digest()
    }

    fn label(&self, index: usize) -> String {
        (**self).label(index)
    }
}

/// An on-disk FDCS corpus streams entries by seek + read; the digest
/// streams the shard files once, matching the in-memory fold.
impl CorpusSource for fd_apk::corpus::CorpusReader {
    fn len(&self) -> usize {
        fd_apk::corpus::CorpusReader::len(self)
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        fd_apk::corpus::CorpusReader::fetch(self, index)
            .map(|(container, inputs)| (bytes::Bytes::from(container), inputs))
            .map_err(|e| e.to_string())
    }

    fn digest(&self) -> Result<u64, String> {
        self.corpus_digest().map_err(|e| e.to_string())
    }
}

/// Runs slot `index` of `source` on a device leased from `pool` lane
/// `lane`, inside one [`fd_trace::Phase::App`] span: fetch, decode
/// through the ingestion frontier, explore. `Ok((report, package))` for
/// a run, `Err(reason)` for an entry the source or the decoder refused
/// (traced as [`fd_trace::TraceEvent::InputRejected`]). Panics propagate
/// to the caller's isolation layer; infrastructure failures are absorbed
/// by the pool's retry/quarantine scheduling.
pub(crate) fn run_slot(
    source: &dyn CorpusSource,
    index: usize,
    config: &FragDroidConfig,
    tracer: &fd_trace::Tracer,
    pool: &crate::pool::DevicePool,
    lane: usize,
) -> Result<(RunReport, String), String> {
    let mut app_span = tracer.span(fd_trace::Phase::App, &source.label(index));
    let decoded = source.fetch(index).and_then(|(bytes, inputs)| {
        let app = fd_apk::decompile_traced(&bytes, tracer).map_err(|e| e.to_string())?;
        Ok((app, inputs))
    });
    let (app, inputs) = decoded.map_err(|reason| reject(tracer, reason))?;
    app_span.rename(&app.manifest.package);
    let report = explore(&app, &inputs, config, tracer, pool, lane);
    Ok((report, app.manifest.package))
}

/// Decodes one submitted container, then explores it on a pooled device
/// — the serve worker's slot body. Refused containers emit
/// [`fd_trace::TraceEvent::InputRejected`] and return the typed reason.
pub(crate) fn run_container_slot(
    bytes: &bytes::Bytes,
    inputs: &BTreeMap<String, String>,
    config: &FragDroidConfig,
    tracer: &fd_trace::Tracer,
    pool: &crate::pool::DevicePool,
    lane: usize,
) -> Result<(RunReport, String), String> {
    let app = fd_apk::decompile_traced(bytes, tracer).map_err(|e| reject(tracer, e.to_string()))?;
    let report = {
        let _app = tracer.span(fd_trace::Phase::App, &app.manifest.package);
        explore(&app, inputs, config, tracer, pool, lane)
    };
    Ok((report, app.manifest.package))
}

/// One app's exploration on a device leased from `pool` lane `lane`.
fn explore(
    app: &AndroidApp,
    inputs: &BTreeMap<String, String>,
    config: &FragDroidConfig,
    tracer: &fd_trace::Tracer,
    pool: &crate::pool::DevicePool,
    lane: usize,
) -> RunReport {
    let tool = FragDroid::new(config.clone());
    pool.run_app(lane, tracer, |device| tool.run_traced_on(app, inputs, tracer, device))
}

/// Traces a refused input and hands its reason back.
fn reject(tracer: &fd_trace::Tracer, reason: String) -> String {
    tracer.event(|| fd_trace::TraceEvent::InputRejected { reason: reason.clone() });
    reason
}

/// Classifies one engine slot into its outcome. `from_engine` is the
/// per-slot result: `Ok` carries the job's own verdict (run or
/// rejection), `Err` a caught panic message.
pub(crate) fn slot_outcome(
    from_engine: Result<Result<(RunReport, String), String>, String>,
    source: &dyn CorpusSource,
    index: usize,
) -> (AppOutcome, String) {
    match from_engine {
        Ok(Ok((report, package))) => {
            let outcome = if report.deadline_exceeded {
                AppOutcome::DeadlineExceeded(report)
            } else {
                AppOutcome::Completed(report)
            };
            (outcome, package)
        }
        Ok(Err(reason)) => (AppOutcome::Rejected { reason }, source.label(index)),
        Err(message) => (AppOutcome::Panicked { message }, source.label(index)),
    }
}

/// Builds one app's observability record from its outcome and wall time.
pub(crate) fn slot_metrics(outcome: &AppOutcome, package: String, elapsed: Duration) -> AppMetrics {
    let (events, cases_run, cases_generated, crashes, recovered, retries, faults) =
        match outcome.report() {
            Some(r) => (
                r.events_injected,
                r.test_cases_run,
                r.test_cases_generated,
                r.crashes,
                r.recovered_crashes,
                r.retries,
                r.faults_injected,
            ),
            None => (0, 0, 0, 0, 0, 0, 0),
        };
    let secs = elapsed.as_secs_f64();
    AppMetrics {
        package,
        wall_ms: elapsed.as_millis() as u64,
        events_injected: events,
        events_per_second: if secs > 0.0 { events as f64 / secs } else { 0.0 },
        test_cases_run: cases_run,
        test_cases_generated: cases_generated,
        crashes,
        recovered_crashes: recovered,
        retries,
        faults_injected: faults,
        panicked: outcome.is_panicked(),
        deadline_exceeded: matches!(outcome, AppOutcome::DeadlineExceeded(_)),
        rejected: outcome.is_rejected(),
        reject_reason: match outcome {
            AppOutcome::Rejected { reason } => reason.clone(),
            _ => String::new(),
        },
    }
}

/// Folds per-app records plus the engine's aggregate timings into a
/// [`SuiteMetrics`].
pub(crate) fn assemble_metrics(
    per_app: Vec<AppMetrics>,
    workers_used: usize,
    wall: Duration,
    busy: Duration,
    device_incidents: usize,
) -> SuiteMetrics {
    let capacity = workers_used as f64 * wall.as_secs_f64();
    let mut sorted_walls: Vec<u64> = per_app.iter().map(|m| m.wall_ms).collect();
    sorted_walls.sort_unstable();
    let rejected = per_app.iter().filter(|m| m.rejected).count();
    SuiteMetrics {
        workers: workers_used,
        wall_ms: wall.as_millis() as u64,
        busy_ms: busy.as_millis() as u64,
        worker_utilization: if capacity > 0.0 {
            (busy.as_secs_f64() / capacity).min(1.0)
        } else {
            0.0
        },
        app_wall_ms_p50: percentile(&sorted_walls, 50.0),
        app_wall_ms_p95: percentile(&sorted_walls, 95.0),
        app_wall_ms_max: sorted_walls.last().copied().unwrap_or(0),
        rejected,
        device_incidents,
        flake_summary: None,
        apps: per_app,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template_apps() -> Vec<SuiteApp> {
        [
            fd_appgen::templates::quickstart(),
            fd_appgen::templates::nav_drawer_wallpapers(),
            fd_appgen::templates::tabbed_categories(),
        ]
        .into_iter()
        .map(|g| (g.app, g.known_inputs))
        .collect()
    }

    /// The suite over `apps` on the default worker count, tracing off.
    fn run(apps: &[SuiteApp], config: &FragDroidConfig) -> SuiteRun {
        Suite::new(config, engine::default_workers(apps.len())).run(&apps).0
    }

    #[test]
    fn suite_results_are_in_order_and_match_single_runs() {
        let apps = template_apps();
        let config = FragDroidConfig::default();
        let parallel = run(&apps, &config);
        assert_eq!(parallel.outcomes.len(), 3);
        for ((app, inputs), outcome) in apps.iter().zip(&parallel.outcomes) {
            let report = outcome.report().expect("template apps complete");
            let single = FragDroid::new(config.clone()).run(app, inputs);
            assert_eq!(single.visited_activities, report.visited_activities);
            assert_eq!(single.visited_fragments, report.visited_fragments);
            assert_eq!(single.events_injected, report.events_injected);
        }
    }

    #[test]
    fn empty_suite_is_fine() {
        let run = run(&[], &FragDroidConfig::default());
        assert!(run.outcomes.is_empty());
        assert_eq!(run.metrics.workers, 0);
        assert!(run.metrics.apps.is_empty());
    }

    #[test]
    fn panicking_job_is_isolated_from_siblings() {
        let run = engine::run_indexed(5, 4, |i| {
            if i == 2 {
                panic!("job {i} exploded");
            }
            i * 10
        });
        assert_eq!(run.results.len(), 5);
        let panicked: Vec<usize> = run
            .results
            .iter()
            .enumerate()
            .filter(|(_, (r, _))| r.is_err())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(panicked, vec![2], "exactly the panicking index fails");
        assert_eq!(
            run.results[2].0.as_ref().unwrap_err(),
            "job 2 exploded",
            "panic payload is preserved"
        );
        for i in [0usize, 1, 3, 4] {
            assert_eq!(*run.results[i].0.as_ref().unwrap(), i * 10, "siblings complete");
        }
    }

    #[test]
    fn engine_results_are_in_input_order() {
        let run = engine::run_indexed(64, 8, |i| i);
        let values: Vec<usize> = run.results.into_iter().map(|(r, _)| r.unwrap()).collect();
        assert_eq!(values, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn deadline_exceeded_keeps_partial_report() {
        let apps = template_apps();
        let config = FragDroidConfig::default().with_deadline(Duration::ZERO);
        let run = run(&apps, &config);
        for outcome in &run.outcomes {
            match outcome {
                AppOutcome::DeadlineExceeded(report) => {
                    // The very first budget check fails, so nothing ran —
                    // but the report is still a well-formed partial result.
                    assert_eq!(report.events_injected, 0);
                    assert!(report.deadline_exceeded);
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        assert!(run.metrics.apps.iter().all(|m| m.deadline_exceeded));
    }

    #[test]
    fn suite_metrics_roundtrip_through_json() {
        let apps = template_apps();
        let run = run(&apps, &FragDroidConfig::default());
        let metrics = &run.metrics;
        assert_eq!(metrics.apps.len(), 3);
        assert!(metrics.workers >= 1);
        assert!(metrics.apps.iter().all(|m| !m.panicked && !m.deadline_exceeded));
        assert!(metrics.apps.iter().all(|m| m.events_injected > 0));
        let json = metrics.to_json().expect("metrics serialize");
        let parsed = SuiteMetrics::from_json(&json).expect("roundtrip parses");
        assert_eq!(&parsed, metrics);
        // The drain-time quantiles are consistent with the per-app walls.
        let max = metrics.apps.iter().map(|m| m.wall_ms).max().unwrap();
        assert_eq!(metrics.app_wall_ms_max, max);
        assert!(metrics.app_wall_ms_p50 <= metrics.app_wall_ms_p95);
        assert!(metrics.app_wall_ms_p95 <= metrics.app_wall_ms_max);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // Degenerate inputs: empty is defined as 0; a singleton answers
        // itself at every p.
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 0.0), 7);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[7], 100.0), 7);
        // Two elements: nearest-rank picks an element, never the
        // interpolated midpoint — p50 of {10, 20} is 10 (rank ⌈1⌉), not 15.
        assert_eq!(percentile(&[10, 20], 0.0), 10);
        assert_eq!(percentile(&[10, 20], 50.0), 10);
        assert_eq!(percentile(&[10, 20], 51.0), 20);
        assert_eq!(percentile(&[10, 20], 100.0), 20);
        // The edges are clamped total: p=0 is the minimum (rank clamps up
        // from 0 to 1), p>100 still the maximum.
        let walls: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&walls, 0.0), 1);
        assert_eq!(percentile(&walls, 50.0), 50);
        assert_eq!(percentile(&walls, 95.0), 95);
        // Fractional p rounds the rank up: p=94.1 over n=100 → rank 95.
        assert_eq!(percentile(&walls, 94.1), 95);
        assert_eq!(percentile(&walls, 100.0), 100);
        assert_eq!(percentile(&walls, 101.0), 100);
    }

    #[test]
    fn traced_suite_produces_spans_and_disabled_trace_is_empty() {
        let apps = template_apps();
        let config = FragDroidConfig::default();
        let traced = Suite { trace: fd_trace::TraceConfig::on(), ..Suite::new(&config, 2) };
        let (run, trace) = traced.run(&apps);
        assert_eq!(run.outcomes.len(), 3);
        // One Suite span, one App span per app, and Static/Explore below.
        let spans: Vec<&fd_trace::SpanRecord> = trace
            .records
            .iter()
            .filter_map(|r| match r {
                fd_trace::TraceRecord::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        let count = |phase: fd_trace::Phase| spans.iter().filter(|s| s.phase == phase).count();
        assert_eq!(count(fd_trace::Phase::Suite), 1);
        assert_eq!(count(fd_trace::Phase::App), 3);
        assert_eq!(count(fd_trace::Phase::Static), 3);
        assert_eq!(count(fd_trace::Phase::Explore), 3);
        assert!(count(fd_trace::Phase::Case) > 0, "test cases are spanned");
        assert!(
            trace.records.iter().any(|r| matches!(r, fd_trace::TraceRecord::Event(_))),
            "events recorded"
        );

        let (_, off_trace) = Suite::new(&config, 2).run(&apps);
        assert!(off_trace.records.is_empty(), "disabled tracing records nothing");
    }

    #[test]
    fn container_suite_quarantines_malformed_inputs() {
        let apps = template_apps();
        let config = FragDroidConfig::default();
        let mut containers: Vec<SuiteContainer> =
            apps.iter().map(|(app, inputs)| (fd_apk::pack(app), inputs.clone())).collect();
        containers.insert(1, (bytes::Bytes::from_static(b"not a container"), BTreeMap::new()));
        let truncated = fd_apk::pack(&apps[0].0).slice(0..10);
        containers.push((truncated, BTreeMap::new()));

        let (run, _) = Suite::new(&config, 2).run(&containers);
        assert_eq!(run.outcomes.len(), 5);
        assert_eq!(run.metrics.rejected, 2, "both malformed inputs quarantined");
        for bad in [1usize, 4] {
            assert!(run.outcomes[bad].is_rejected());
            assert!(run.metrics.apps[bad].rejected);
            assert!(!run.metrics.apps[bad].reject_reason.is_empty());
            assert_eq!(run.metrics.apps[bad].package, format!("container[{bad}]"));
        }
        match &run.outcomes[1] {
            AppOutcome::Rejected { reason } => {
                assert!(reason.contains("magic"), "bad magic diagnosed: {reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn app_slots_keep_their_package_label() {
        let mut apps = template_apps();
        apps[1].0.meta.packed = true;
        let (run, _) = Suite::new(&FragDroidConfig::default(), 1).run(&apps);
        assert!(run.outcomes[1].is_rejected(), "a packer-protected app never decodes");
        assert_eq!(run.metrics.apps[1].package, apps[1].0.manifest.package);
        assert_eq!(CorpusSource::label(apps.as_slice(), 7), "container[7]");
    }

    #[test]
    fn container_suite_traces_rejections() {
        let containers: Vec<SuiteContainer> =
            vec![(bytes::Bytes::from_static(b"garbage"), BTreeMap::new())];
        let config = FragDroidConfig::default();
        let (run, trace) =
            Suite { trace: fd_trace::TraceConfig::on(), ..Suite::new(&config, 1) }.run(&containers);
        assert_eq!(run.metrics.rejected, 1);
        let rejected_events = trace
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    fd_trace::TraceRecord::Event(e)
                        if matches!(e.event, fd_trace::TraceEvent::InputRejected { .. })
                )
            })
            .count();
        assert_eq!(rejected_events, 1, "each rejection is traced once");
    }
}
