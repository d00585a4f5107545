//! Crash-safe suite checkpointing: a journaled corpus run that survives
//! kills, OOMs and host reboots, plus flake triage for the runs that
//! failed.
//!
//! The paper's evaluation pushes thousands of apps through hours-long
//! device campaigns; a production runner cannot afford to lose a whole
//! corpus to one dead process. This module holds the suite's one runner
//! body — [`Suite::run`] is this body without a journal — and gives it
//! durable progress through [`Suite::run_checkpointed`]:
//!
//! * **Journal** — a durable log (`durable_log`: checksummed lines,
//!   atomic creation, torn-tail replay, group commit every
//!   [`CheckpointOptions::fsync_every`] records). Its header carries a
//!   [`Fingerprint`] of the invocation (corpus digest, configuration
//!   digest, app count, flake-retry budget); every completed app appends
//!   one [`AppOutcome`] record. Only a journaled run digests the corpus.
//! * **Resume** — [`load_journal`] replays the file and refuses journals
//!   whose fingerprint does not match the current invocation. The runner
//!   then skips every journaled app; restored slots reproduce their
//!   recorded reports byte-for-byte, so a resumed run's final report is
//!   identical to an uninterrupted one (the journal cells of the
//!   `tests/suite_differential.rs` matrix; the refusals are in
//!   `tests/checkpoint_prop.rs`).
//! * **Flake triage** — after a complete run, apps that finished
//!   [`AppOutcome::Panicked`], [`AppOutcome::DeadlineExceeded`] or
//!   crashed are re-run up to [`Suite::flake_retries`] times with the
//!   same seed and classified [`FlakeClass::Deterministic`] (never
//!   passed) or [`FlakeClass::Flaky`] (passed sometimes, with its pass
//!   rate). The verdicts land in
//!   [`SuiteMetrics::flake_summary`](crate::suite::SuiteMetrics::flake_summary)
//!   and the journal, and every attempt is traced as
//!   [`fd_trace::TraceEvent::FlakeRetry`].
//!
//! Every failure is a typed [`JournalError`] — a full disk, an
//! unreadable checkpoint, or a corrupt record is a diagnostic, never a
//! panic.

use crate::config::FragDroidConfig;
use crate::durable_log::{self, replay, DurableLog, LogRecord, Replay};
use crate::suite::{
    assemble_metrics, engine, run_slot, slot_metrics, slot_outcome, AppMetrics, AppOutcome,
    CorpusSource, Suite, SuiteRun,
};
use fd_apk::corpus::{fnv1a, DIGEST_SEED};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Journal format version, stamped into every header; bumped whenever a
/// record shape changes incompatibly.
pub const JOURNAL_VERSION: u64 = 1;

/// Default number of appended records between fsyncs.
pub const DEFAULT_FSYNC_BATCH: usize = 8;

// ---------------------------------------------------------------------------
// Errors

/// A typed journal failure. Everything the checkpoint layer can hit —
/// I/O, corruption, a mismatched invocation — surfaces here instead of
/// panicking; `fd-cli` maps these to exit code 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O operation on the journal failed (unreadable file, full
    /// disk, permission problem …).
    Io {
        /// The journal path.
        path: String,
        /// What was being attempted (`read`, `append`, `fsync`, …).
        op: &'static str,
        /// The OS error, rendered.
        error: String,
    },
    /// A fresh (non-`--resume`) run found an existing journal at the
    /// path. Refusing protects completed progress from an accidental
    /// overwrite.
    AlreadyExists {
        /// The journal path.
        path: String,
    },
    /// The journal was written by a different invocation: its corpus,
    /// configuration, app count or flake budget differ from the current
    /// one. Resuming would silently mix incompatible results.
    FingerprintMismatch {
        /// The fingerprint of the current invocation.
        expected: Fingerprint,
        /// The fingerprint recorded in the journal.
        found: Fingerprint,
    },
    /// A record in the middle of the journal fails its checksum — bit
    /// rot or tampering, not a torn append (those only affect the tail).
    ChecksumMismatch {
        /// 1-based journal line.
        line: usize,
    },
    /// The journal's header line itself is torn or missing: the file has
    /// bytes but no complete, checksummed header, so nothing about it
    /// can be trusted.
    TornTail {
        /// Bytes present in the unusable file.
        bytes: u64,
    },
    /// The first complete record is not a header (or the file is empty).
    MissingHeader,
    /// The header's format version is not [`JOURNAL_VERSION`].
    VersionMismatch {
        /// The version found in the header.
        found: u64,
    },
    /// A record passed its checksum but does not parse — a writer bug or
    /// hand-edited file.
    BadRecord {
        /// 1-based journal line.
        line: usize,
        /// The parse error, rendered.
        error: String,
    },
    /// Two outcome records claim the same app index.
    DuplicateIndex {
        /// The repeated input-order index.
        index: usize,
    },
    /// An outcome record's index is outside the corpus.
    IndexOutOfRange {
        /// The out-of-range index.
        index: usize,
        /// The corpus size from the header.
        total: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, op, error } => {
                write!(f, "journal {op} failed for {path}: {error}")
            }
            JournalError::AlreadyExists { path } => write!(
                f,
                "checkpoint journal {path} already exists; pass --resume to continue it or \
                 remove it to start over"
            ),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint mismatch: journal records {found}, current invocation is \
                 {expected}; refusing to resume a different corpus/config"
            ),
            JournalError::ChecksumMismatch { line } => {
                write!(f, "journal line {line}: checksum mismatch (corrupt record)")
            }
            JournalError::TornTail { bytes } => {
                write!(f, "journal has no complete header ({bytes} bytes of torn data)")
            }
            JournalError::MissingHeader => write!(f, "journal does not start with a header record"),
            JournalError::VersionMismatch { found } => {
                write!(f, "journal format version {found} (this binary writes {JOURNAL_VERSION})")
            }
            JournalError::BadRecord { line, error } => {
                write!(f, "journal line {line}: checksummed record does not parse: {error}")
            }
            JournalError::DuplicateIndex { index } => {
                write!(f, "journal records app index {index} twice")
            }
            JournalError::IndexOutOfRange { index, total } => {
                write!(f, "journal records app index {index}, but the corpus has {total} apps")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl JournalError {
    pub(crate) fn io(path: &Path, op: &'static str, error: std::io::Error) -> Self {
        JournalError::Io { path: path.display().to_string(), op, error: error.to_string() }
    }
}

// ---------------------------------------------------------------------------
// Fingerprint

/// What a journal is *for*: a digest of the invocation that wrote it.
/// Resume refuses any journal whose fingerprint differs from the current
/// run — a different corpus, seed, fault plan, deadline or flake budget
/// would silently mix incomparable results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Number of apps in the corpus.
    pub apps: u64,
    /// FNV-1a digest of the corpus content (container bytes / packed
    /// apps plus analyst inputs, in order).
    pub corpus_digest: u64,
    /// FNV-1a digest of the full [`FragDroidConfig`] (budgets, ablation
    /// switches, deadline, fault seed and rate, retry limit).
    pub config_digest: u64,
    /// The flake-retry budget the run classifies with.
    pub flake_retries: u64,
}

impl Fingerprint {
    /// Fingerprints an invocation. A source whose corpus cannot be
    /// streamed (I/O failure, corrupt shard) surfaces its reason.
    pub(crate) fn of(
        source: &dyn CorpusSource,
        config: &FragDroidConfig,
        flake_retries: usize,
    ) -> Result<Self, String> {
        Ok(Fingerprint {
            apps: source.len() as u64,
            corpus_digest: source.digest()?,
            // The derived Debug rendering covers every config field, so
            // any behavioral knob changing changes the digest.
            config_digest: fnv1a(DIGEST_SEED, format!("{config:?}").as_bytes()),
            flake_retries: flake_retries as u64,
        })
    }
}

impl Fingerprint {
    /// Refuses a journal written for `found`, a different invocation —
    /// the check every journal makes before resuming (and so before
    /// anything is truncated).
    pub(crate) fn check(self, found: Fingerprint) -> Result<(), JournalError> {
        if found == self {
            return Ok(());
        }
        Err(JournalError::FingerprintMismatch { expected: self, found })
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{{apps: {}, corpus: {:#018x}, config: {:#018x}, flake-retries: {}}}",
            self.apps, self.corpus_digest, self.config_digest, self.flake_retries
        )
    }
}

// ---------------------------------------------------------------------------
// Flake triage model

/// The verdict for one re-run failure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FlakeClass {
    /// Every retry reproduced the failure: a true bug (or a true
    /// resource exhaustion), worth a human's time.
    Deterministic,
    /// Some retries passed: the failure is environmental.
    Flaky {
        /// Fraction of retries that passed, in `(0, 1]`.
        pass_rate: f64,
    },
}

/// One triaged app.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlakeRecord {
    /// The app's input-order index.
    pub index: usize,
    /// The app's package (or slot label if it never decoded).
    pub package: String,
    /// What failed originally: `panicked`, `deadline-exceeded` or
    /// `crashed`.
    pub kind: String,
    /// Retry attempts executed.
    pub attempts: usize,
    /// Attempts that passed (no panic, no deadline, no crash).
    pub passes: usize,
    /// The verdict.
    pub classification: FlakeClass,
}

/// The whole triage pass: every failed app's verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlakeSummary {
    /// The per-app retry budget the pass ran with.
    pub retries: usize,
    /// Apps classified [`FlakeClass::Deterministic`].
    pub deterministic: usize,
    /// Apps classified [`FlakeClass::Flaky`].
    pub flaky: usize,
    /// Per-app verdicts, in input order.
    pub apps: Vec<FlakeRecord>,
}

/// The failure kind that makes an outcome a triage candidate, if any.
pub fn failure_kind(outcome: &AppOutcome) -> Option<&'static str> {
    match outcome {
        AppOutcome::Panicked { .. } => Some("panicked"),
        AppOutcome::DeadlineExceeded(_) => Some("deadline-exceeded"),
        AppOutcome::Completed(report) if report.crashes > 0 => Some("crashed"),
        _ => None,
    }
}

/// The classification rule: zero passes is deterministic, anything else
/// is flaky with its pass rate.
pub(crate) fn classify(passes: usize, attempts: usize) -> FlakeClass {
    if passes == 0 || attempts == 0 {
        FlakeClass::Deterministic
    } else {
        FlakeClass::Flaky { pass_rate: passes as f64 / attempts as f64 }
    }
}

/// Runs the triage loop over `candidates` (`(index, package, kind)`),
/// calling `attempt(index, attempt_number)` up to `retries` times each.
/// Split from the suite plumbing so tests can drive it with synthetic
/// (genuinely nondeterministic) attempt functions.
pub(crate) fn triage_with(
    candidates: &[(usize, String, &'static str)],
    retries: usize,
    tracer: &fd_trace::Tracer,
    mut attempt: impl FnMut(usize, usize) -> bool,
) -> FlakeSummary {
    let mut summary = FlakeSummary {
        retries,
        deterministic: 0,
        flaky: 0,
        apps: Vec::with_capacity(candidates.len()),
    };
    for (index, package, kind) in candidates {
        let mut passes = 0;
        for attempt_number in 1..=retries {
            let passed = attempt(*index, attempt_number);
            tracer.event(|| fd_trace::TraceEvent::FlakeRetry {
                package: package.clone(),
                attempt: attempt_number as u64,
                passed,
            });
            if passed {
                passes += 1;
            }
        }
        let classification = classify(passes, retries);
        match classification {
            FlakeClass::Deterministic => summary.deterministic += 1,
            FlakeClass::Flaky { .. } => summary.flaky += 1,
        }
        summary.apps.push(FlakeRecord {
            index: *index,
            package: package.clone(),
            kind: (*kind).to_string(),
            attempts: retries,
            passes,
            classification,
        });
    }
    summary
}

/// Whether one re-run of `index` passes: it must complete without a
/// panic, a deadline, or a crash. Runs with the *same* config (and thus
/// the same seed), so a simulated-deterministic failure reproduces.
/// Re-runs lease from `pool` lane 0 — triage is sequential and happens
/// after the engine drained, so the lane is free.
fn retry_passes(
    source: &dyn CorpusSource,
    index: usize,
    config: &FragDroidConfig,
    pool: &crate::pool::DevicePool,
) -> bool {
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_slot(source, index, config, &fd_trace::Tracer::disabled(), pool, 0)
    }));
    match result {
        Ok(Ok((report, _))) => !report.deadline_exceeded && report.crashes == 0,
        Ok(Err(_)) | Err(_) => false,
    }
}

// ---------------------------------------------------------------------------
// Journal records

/// One journal line's payload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) enum JournalRecord {
    /// The first line: what this journal is for.
    Header(JournalHeader),
    /// One completed app. Boxed: this variant dwarfs the other two.
    Outcome(Box<OutcomeRecord>),
    /// The flake-triage verdicts of a completed run.
    Flakes(FlakeSummary),
}

impl JournalRecord {
    fn header(fingerprint: Fingerprint) -> Self {
        JournalRecord::Header(JournalHeader { version: JOURNAL_VERSION, fingerprint })
    }
}

impl LogRecord for JournalRecord {
    const VERSION: u64 = JOURNAL_VERSION;

    fn header_version(&self) -> Option<u64> {
        match self {
            JournalRecord::Header(header) => Some(header.version),
            _ => None,
        }
    }
}

/// The journal's first record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`]).
    version: u64,
    /// The invocation fingerprint.
    fingerprint: Fingerprint,
}

/// One completed app's durable state: enough to restore its suite slot
/// byte-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct OutcomeRecord {
    /// The app's input-order index.
    index: usize,
    /// The slot's observability record (wall time preserved from the
    /// original run).
    metrics: AppMetrics,
    /// The outcome itself, report included.
    outcome: AppOutcome,
}

/// Borrowed mirror of [`JournalRecord::Outcome`]: serializes to exactly
/// the same JSON (external tag included) without cloning the outcome or
/// metrics into an owned record first. The hot append path uses this;
/// [`tests::journal_records_stream_identical_to_tree_render`] pins the
/// two encodings byte-identical.
struct OutcomeRef<'a> {
    /// The app's input-order index.
    index: usize,
    /// Borrowed slot metrics.
    metrics: &'a AppMetrics,
    /// Borrowed outcome.
    outcome: &'a AppOutcome,
}

impl serde::Serialize for OutcomeRef<'_> {
    fn to_value(&self) -> serde::Value {
        JournalRecord::Outcome(Box::new(OutcomeRecord {
            index: self.index,
            metrics: self.metrics.clone(),
            outcome: self.outcome.clone(),
        }))
        .to_value()
    }

    fn write_json(&self, out: &mut String) {
        // `{"Outcome":{...}}` with the record's keys in sorted order —
        // the shape the derived `JournalRecord`/`OutcomeRecord` impls
        // produce.
        out.push_str("{\"Outcome\":{\"index\":");
        serde::Serialize::write_json(&self.index, out);
        out.push_str(",\"metrics\":");
        serde::Serialize::write_json(self.metrics, out);
        out.push_str(",\"outcome\":");
        serde::Serialize::write_json(self.outcome, out);
        out.push_str("}}");
    }
}

// ---------------------------------------------------------------------------
// Loading

/// A journal replayed from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The invocation fingerprint the journal was written for.
    pub fingerprint: Fingerprint,
    /// Completed slots by input-order index.
    pub slots: BTreeMap<usize, (AppOutcome, AppMetrics)>,
    /// The journaled flake-triage verdicts, if the run completed one.
    pub flakes: Option<FlakeSummary>,
    /// Length of the valid prefix, in bytes; everything past it is torn.
    pub valid_len: u64,
    /// Bytes of torn tail past `valid_len` (0 for a clean journal).
    pub torn_tail_bytes: u64,
}

/// Replays a journal: a torn final line (the footprint of a mid-write
/// kill) is measured and dropped, preserving all progress before it;
/// corruption anywhere else is a typed error, never a panic and never a
/// silent wrong resume.
pub fn load_journal(path: &Path) -> Result<LoadedJournal, JournalError> {
    let Replay { header, records, valid_len, torn_tail_bytes } =
        replay::<JournalRecord>(&durable_log::read(path)?)?;
    let JournalRecord::Header(JournalHeader { fingerprint, .. }) = header else {
        return Err(JournalError::MissingHeader);
    };

    let total = fingerprint.apps as usize;
    let mut slots = BTreeMap::new();
    let mut flakes = None;
    for (_, record) in records {
        match record {
            // Replay already refused a second header.
            JournalRecord::Header(_) => {}
            JournalRecord::Outcome(record) => {
                if record.index >= total {
                    return Err(JournalError::IndexOutOfRange { index: record.index, total });
                }
                if slots.insert(record.index, (record.outcome, record.metrics)).is_some() {
                    return Err(JournalError::DuplicateIndex { index: record.index });
                }
            }
            JournalRecord::Flakes(summary) => flakes = Some(summary),
        }
    }

    Ok(LoadedJournal { fingerprint, slots, flakes, valid_len, torn_tail_bytes })
}

/// Writes a *complete* journal in one shot: header, every slot in index
/// order, one final fsync. Used by the dispatch coordinator
/// ([`crate::dispatch`]) to materialize a shard journal from outcomes it
/// collected over the wire — the resulting file is byte-for-byte what a
/// local [`run_shard`](crate::shard::run_shard) would have left behind,
/// so [`merge_shards`](crate::shard::merge_shards) accepts it without
/// knowing who wrote it. [`DurableLog::create`]'s tmp-then-rename makes
/// re-dispatch idempotent: rewriting an already-complete shard journal
/// replaces it atomically with identical bytes.
pub(crate) fn write_complete_journal<'a, I>(
    path: &Path,
    fingerprint: Fingerprint,
    slots: I,
) -> Result<(), JournalError>
where
    I: IntoIterator<Item = (usize, &'a AppOutcome, &'a AppMetrics)>,
{
    let mut log = DurableLog::create(path, &JournalRecord::header(fingerprint), usize::MAX)?;
    for (index, outcome, metrics) in slots {
        log.append(&OutcomeRef { index, metrics, outcome })?;
    }
    log.sync()
}

// ---------------------------------------------------------------------------
// The checkpointed runner

/// How to checkpoint a suite run.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// The journal path.
    pub path: PathBuf,
    /// Whether to resume an existing journal. Without this, an existing
    /// journal at the path is a refused overwrite
    /// ([`JournalError::AlreadyExists`]); a missing journal with
    /// `resume` simply starts fresh.
    pub resume: bool,
    /// Appended records between fsyncs ([`DEFAULT_FSYNC_BATCH`]).
    pub fsync_every: usize,
    /// Stop after this many *fresh* apps this invocation, leaving the
    /// journal partial — the deterministic stand-in for a kill that CI's
    /// resume-smoke job uses, and a way to slice long campaigns.
    pub app_budget: Option<usize>,
}

impl CheckpointOptions {
    /// Options writing to `path`, not resuming, with the default fsync
    /// batch.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            path: path.into(),
            resume: false,
            fsync_every: DEFAULT_FSYNC_BATCH,
            app_budget: None,
        }
    }

    /// Resume an existing journal (builder style).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Override the fsync batch size (builder style).
    pub fn with_fsync_every(mut self, fsync_every: usize) -> Self {
        self.fsync_every = fsync_every;
        self
    }

    /// Cap the fresh apps run this invocation (builder style).
    pub fn with_app_budget(mut self, budget: usize) -> Self {
        self.app_budget = Some(budget);
        self
    }
}

/// What a checkpointed (or flake-triaged) suite invocation produced.
#[derive(Debug)]
pub struct CheckpointedSuite {
    /// Outcomes and metrics for every *completed* app, in input order.
    /// For a complete run this covers the whole corpus; under an
    /// [`CheckpointOptions::app_budget`] cutoff it covers the journaled
    /// prefix of progress.
    pub run: SuiteRun,
    /// Corpus size.
    pub total: usize,
    /// Slots restored from the journal this invocation.
    pub resumed: usize,
    /// Slots actually run this invocation.
    pub fresh: usize,
    /// Bytes of torn tail dropped while loading the journal.
    pub torn_tail_bytes: u64,
}

impl CheckpointedSuite {
    /// Whether every corpus slot has an outcome.
    pub fn is_complete(&self) -> bool {
        self.run.outcomes.len() == self.total
    }

    /// Apps still missing an outcome (0 for a complete run).
    pub fn remaining(&self) -> usize {
        self.total - self.run.outcomes.len()
    }
}

/// What resuming a journal hands the runner before any app runs; the
/// default is a fresh, unjournaled run.
#[derive(Default)]
pub(crate) struct JournalState {
    /// Completed slots restored from the journal, by input-order index.
    slots: BTreeMap<usize, (AppOutcome, AppMetrics)>,
    /// The journaled flake-triage verdicts, if the run completed one.
    flakes: Option<FlakeSummary>,
    /// Bytes of torn tail dropped while loading the journal.
    torn_tail_bytes: u64,
    /// [`CheckpointOptions::app_budget`].
    app_budget: Option<usize>,
}

/// Opens the journal `options` names — resuming it (fingerprint-checked)
/// or creating it — for a run of `suite` over `source`. The corpus is
/// digested here and only here: unjournaled runs never pay for it.
fn open_journal(
    suite: &Suite<'_>,
    source: &dyn CorpusSource,
    options: &CheckpointOptions,
) -> Result<(DurableLog, JournalState), JournalError> {
    let fingerprint =
        Fingerprint::of(source, suite.config, suite.flake_retries).map_err(|detail| {
            JournalError::Io {
                path: options.path.display().to_string(),
                op: "digest corpus source",
                error: detail,
            }
        })?;
    let mut state = JournalState { app_budget: options.app_budget, ..JournalState::default() };
    let journal_exists = options.path.exists();
    let log = if options.resume && journal_exists {
        let loaded = load_journal(&options.path)?;
        fingerprint.check(loaded.fingerprint)?;
        state.slots = loaded.slots;
        state.flakes = loaded.flakes;
        state.torn_tail_bytes = loaded.torn_tail_bytes;
        DurableLog::resume(&options.path, loaded.valid_len, options.fsync_every)?
    } else {
        if journal_exists {
            return Err(JournalError::AlreadyExists { path: options.path.display().to_string() });
        }
        DurableLog::create(&options.path, &JournalRecord::header(fingerprint), options.fsync_every)?
    };
    Ok((log, state))
}

impl Suite<'_> {
    /// [`Suite::run`] with durable progress. Every completed app's
    /// outcome is appended to the journal at `options.path` as it
    /// finishes; with `options.resume`, journaled apps are skipped and
    /// their slots restored byte-identically. With
    /// [`Suite::flake_retries`] set, a complete run ends with the triage
    /// pass (resumed-complete runs reuse the journaled verdicts instead
    /// of re-running).
    pub fn run_checkpointed(
        &self,
        source: &dyn CorpusSource,
        options: &CheckpointOptions,
    ) -> Result<(CheckpointedSuite, fd_trace::Trace), JournalError> {
        let (log, state) = open_journal(self, source, options)?;
        let log = Mutex::new(log);
        let result = self.execute(source, Some(&log), state);
        // Flush the last batch and surface the first append failure (if
        // any) as the run's error.
        log.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner()).sync()?;
        Ok(result)
    }

    /// The one suite body behind [`Suite::run`] and
    /// [`Suite::run_checkpointed`]: the work-stealing engine over the
    /// slots `state` left to run, per-lane tracers, journal appends when
    /// `log` is set, flake triage, and the outcome/metrics/trace
    /// assembly. A panic inside a slot is caught here (inside the
    /// engine's own isolation) so a panicked app still gets its journal
    /// record and keeps its trace track.
    pub(crate) fn execute(
        &self,
        source: &dyn CorpusSource,
        log: Option<&Mutex<DurableLog>>,
        state: JournalState,
    ) -> (CheckpointedSuite, fd_trace::Trace) {
        let n = source.len();
        let JournalState { slots: restored, flakes: journaled_flakes, torn_tail_bytes, app_budget } =
            state;
        let resumed = restored.len();
        let mut remaining: Vec<usize> = (0..n).filter(|i| !restored.contains_key(i)).collect();
        if let Some(budget) = app_budget {
            remaining.truncate(budget);
        }
        let fresh = remaining.len();

        // Per-lane tracers for the workers, a coordinator lane (one past
        // the last worker's) for the suite span and the checkpoint/triage
        // events.
        let trace_config = self.trace;
        let clock = fd_trace::TraceClock::start();
        let worker_lanes = self.workers.min(fresh.max(1)).max(1);
        let coordinator = fd_trace::Tracer::new(&trace_config, clock, worker_lanes as u64);
        let suite_span = coordinator.span(fd_trace::Phase::Suite, "suite");
        if resumed > 0 || torn_tail_bytes > 0 {
            coordinator.event(|| fd_trace::TraceEvent::CheckpointResume {
                skipped: resumed as u64,
                torn_tail_bytes,
            });
        }

        // One device lane per worker lane, so a worker only ever touches
        // its own devices and leases never contend; sequential triage
        // re-runs use lane 0 after the engine drained.
        let default_pool;
        let pool = match self.pool {
            Some(pool) => pool,
            None => {
                default_pool = crate::pool::DevicePool::from_config(self.config, worker_lanes);
                &default_pool
            }
        };

        let config = self.config;
        let remaining_ref = &remaining;
        let engine_run = engine::run_indexed_tagged(fresh, self.workers, |worker, k| {
            let index = remaining_ref[k];
            let tracer = fd_trace::Tracer::new(&trace_config, clock, worker as u64);
            let started = Instant::now();
            let job = catch_unwind(AssertUnwindSafe(|| {
                run_slot(source, index, config, &tracer, pool, worker)
            }))
            .map_err(|payload| engine::panic_message(payload.as_ref()));
            let elapsed = started.elapsed();
            let (outcome, package) = slot_outcome(job, source, index);
            let metrics = slot_metrics(&outcome, package, elapsed);
            if let Some(log) = log {
                // A failed append latches in the log and surfaces when the
                // run closes it; the suite itself keeps running.
                let appended = log
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .append(&OutcomeRef { index, metrics: &metrics, outcome: &outcome });
                if appended.is_ok() {
                    tracer.event(|| fd_trace::TraceEvent::CheckpointWrite { index: index as u64 });
                }
            }
            (outcome, metrics, tracer.finish())
        });

        // Merge restored and fresh slots, in input order.
        let mut slots = restored;
        let mut tracks = Vec::new();
        for (k, (result, _elapsed)) in engine_run.results.into_iter().enumerate() {
            let index = remaining[k];
            match result {
                Ok((outcome, metrics, track)) => {
                    tracks.push(track);
                    slots.insert(index, (outcome, metrics));
                }
                Err(message) => {
                    // Only reachable if a worker died outside job
                    // isolation; the slot degrades to a panic outcome.
                    let outcome = AppOutcome::Panicked { message };
                    let metrics = slot_metrics(&outcome, source.label(index), Duration::ZERO);
                    slots.insert(index, (outcome, metrics));
                }
            }
        }

        // Flake triage: only once the whole corpus has outcomes. A fully
        // resumed run reuses the journaled verdicts — zero remaining work
        // means zero re-runs, and the report is byte-identical to the
        // uninterrupted one.
        let flake_summary = if self.flake_retries > 0 && slots.len() == n {
            match journaled_flakes {
                Some(summary) if fresh == 0 => Some(summary),
                _ => {
                    let candidates: Vec<(usize, String, &'static str)> = slots
                        .iter()
                        .filter_map(|(index, (outcome, metrics))| {
                            failure_kind(outcome)
                                .map(|kind| (*index, metrics.package.clone(), kind))
                        })
                        .collect();
                    let summary =
                        triage_with(&candidates, self.flake_retries, &coordinator, |index, _| {
                            retry_passes(source, index, config, pool)
                        });
                    if let Some(log) = log {
                        // Latched on failure, like the outcome appends.
                        let _ = log
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .append(&JournalRecord::Flakes(summary.clone()));
                    }
                    Some(summary)
                }
            }
        } else {
            None
        };

        suite_span.end();
        let mut trace = fd_trace::Trace::new("fragdroid-suite");
        trace.absorb(coordinator.finish());
        for track in tracks {
            trace.absorb(track);
        }

        let mut outcomes = Vec::with_capacity(slots.len());
        let mut per_app = Vec::with_capacity(slots.len());
        for (_, (outcome, metrics)) in slots {
            outcomes.push(outcome);
            per_app.push(metrics);
        }
        let mut metrics = assemble_metrics(
            per_app,
            engine_run.workers,
            engine_run.wall,
            engine_run.busy,
            pool.incidents(),
        );
        metrics.flake_summary = flake_summary;

        let suite = CheckpointedSuite {
            run: SuiteRun { outcomes, metrics },
            total: n,
            resumed,
            fresh,
            torn_tail_bytes,
        };
        (suite, trace)
    }
}

/// [`Suite::run_checkpointed`] (or, with `checkpoint: None`, an
/// unjournaled [`Suite::run`]) with the pre-`Suite` signature, kept
/// because external benchmark harnesses call it.
pub fn run_corpus_suite_checkpointed(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    workers: usize,
    trace_config: &fd_trace::TraceConfig,
    checkpoint: Option<&CheckpointOptions>,
    flake_retries: usize,
) -> Result<(CheckpointedSuite, fd_trace::Trace), JournalError> {
    let suite = Suite { trace: *trace_config, flake_retries, ..Suite::new(config, workers) };
    match checkpoint {
        Some(options) => suite.run_checkpointed(source, options),
        None => Ok(suite.execute(source, None, JournalState::default())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable_log::{decode_line, encode_line, LineError};

    #[test]
    fn classify_splits_deterministic_from_flaky() {
        assert_eq!(classify(0, 3), FlakeClass::Deterministic);
        assert_eq!(classify(0, 0), FlakeClass::Deterministic);
        match classify(2, 3) {
            FlakeClass::Flaky { pass_rate } => assert!((pass_rate - 2.0 / 3.0).abs() < 1e-9),
            other => panic!("expected flaky, got {other:?}"),
        }
        assert_eq!(classify(3, 3), FlakeClass::Flaky { pass_rate: 1.0 });
    }

    #[test]
    fn triage_with_classifies_synthetic_nondeterminism() {
        let candidates = vec![
            (0usize, "com.example.heisenbug".to_string(), "crashed"),
            (3usize, "com.example.brick".to_string(), "panicked"),
        ];
        let tracer =
            fd_trace::Tracer::new(&fd_trace::TraceConfig::on(), fd_trace::TraceClock::start(), 0);
        // Index 0 passes on its 2nd and 4th attempts; index 3 never does.
        let summary =
            triage_with(&candidates, 4, &tracer, |index, attempt| index == 0 && attempt % 2 == 0);
        assert_eq!(summary.retries, 4);
        assert_eq!(summary.flaky, 1);
        assert_eq!(summary.deterministic, 1);
        assert_eq!(summary.apps.len(), 2);
        assert_eq!(summary.apps[0].passes, 2);
        assert_eq!(summary.apps[0].classification, FlakeClass::Flaky { pass_rate: 0.5 });
        assert_eq!(summary.apps[1].passes, 0);
        assert_eq!(summary.apps[1].classification, FlakeClass::Deterministic);

        // Every attempt is traced.
        let track = tracer.finish();
        let retries = track
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    fd_trace::TraceRecord::Event(e)
                        if matches!(e.event, fd_trace::TraceEvent::FlakeRetry { .. })
                )
            })
            .count();
        assert_eq!(retries, 8, "4 attempts × 2 candidates traced");
    }

    #[test]
    fn failure_kinds_cover_the_triage_candidates() {
        assert_eq!(failure_kind(&AppOutcome::Panicked { message: "x".into() }), Some("panicked"));
        assert_eq!(failure_kind(&AppOutcome::Rejected { reason: "x".into() }), None);
    }

    #[test]
    fn line_codec_roundtrips_and_rejects_corruption() {
        let record = JournalRecord::Header(JournalHeader {
            version: JOURNAL_VERSION,
            fingerprint: Fingerprint {
                apps: 3,
                corpus_digest: 7,
                config_digest: 9,
                flake_retries: 0,
            },
        });
        let line = encode_line(&record);
        assert!(line.ends_with('\n'));
        let decoded = decode_line::<JournalRecord>(line.trim_end().as_bytes());
        assert!(decoded.is_ok());

        // Flip one payload byte: checksum catches it.
        let mut bytes = line.trim_end().as_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(decode_line::<JournalRecord>(&bytes), Err(LineError::Checksum)));

        // Too-short lines are malformed, not panics.
        assert!(matches!(decode_line::<JournalRecord>(b"abc"), Err(LineError::Malformed(_))));
        assert!(matches!(decode_line::<JournalRecord>(b""), Err(LineError::Malformed(_))));
    }

    /// The journal encodes records through the streaming
    /// `Serialize::write_json` path; a resumed run decodes them through
    /// `from_str`. Pin the stream byte-identical to the `Value`-tree
    /// render so the two paths can never drift apart silently (the tree
    /// is the reference: sorted keys, canonical number/string forms).
    #[test]
    fn journal_records_stream_identical_to_tree_render() {
        let records = vec![
            JournalRecord::Header(JournalHeader {
                version: JOURNAL_VERSION,
                fingerprint: Fingerprint {
                    apps: 3,
                    corpus_digest: 7,
                    config_digest: 9,
                    flake_retries: 2,
                },
            }),
            JournalRecord::Outcome(Box::new(OutcomeRecord {
                index: 11,
                metrics: AppMetrics {
                    package: "com.example.\"quoted\"\n".to_string(),
                    wall_ms: 1843,
                    events_injected: 250,
                    events_per_second: 135.63,
                    test_cases_run: 4,
                    test_cases_generated: 9,
                    crashes: 1,
                    recovered_crashes: 1,
                    retries: 0,
                    faults_injected: 3,
                    panicked: false,
                    deadline_exceeded: true,
                    rejected: false,
                    reject_reason: String::new(),
                },
                outcome: AppOutcome::Panicked { message: "index out of bounds".to_string() },
            })),
            JournalRecord::Outcome(Box::new(OutcomeRecord {
                index: 0,
                metrics: AppMetrics {
                    package: "com.example.reject".to_string(),
                    wall_ms: 0,
                    events_injected: 0,
                    events_per_second: 0.0,
                    test_cases_run: 0,
                    test_cases_generated: 0,
                    crashes: 0,
                    recovered_crashes: 0,
                    retries: 0,
                    faults_injected: 0,
                    panicked: false,
                    deadline_exceeded: false,
                    rejected: true,
                    reject_reason: "container: 4 trailing bytes".to_string(),
                },
                outcome: AppOutcome::Rejected { reason: "container: 4 trailing bytes".to_string() },
            })),
            JournalRecord::Flakes(FlakeSummary {
                retries: 3,
                flaky: 1,
                deterministic: 1,
                apps: vec![FlakeRecord {
                    index: 2,
                    package: "com.example.heisenbug".to_string(),
                    kind: "crashed".to_string(),
                    attempts: 3,
                    passes: 2,
                    classification: FlakeClass::Flaky { pass_rate: 2.0 / 3.0 },
                }],
            }),
        ];
        for record in &records {
            let mut streamed = String::new();
            serde::Serialize::write_json(record, &mut streamed);
            let tree = serde::Serialize::to_value(record).render_json(false);
            assert_eq!(streamed, tree, "streamed JSON must match the tree render");

            // And the framed line round-trips through the decoder.
            let line = encode_line(record);
            assert!(decode_line::<JournalRecord>(line.trim_end().as_bytes()).is_ok());
        }
    }

    #[test]
    fn journal_errors_render_actionable_messages() {
        let text = JournalError::AlreadyExists { path: "j.ckpt".into() }.to_string();
        assert!(text.contains("--resume"));
        let expected =
            Fingerprint { apps: 1, corpus_digest: 2, config_digest: 3, flake_retries: 0 };
        let found = Fingerprint { apps: 9, corpus_digest: 8, config_digest: 7, flake_retries: 1 };
        let text = JournalError::FingerprintMismatch { expected, found }.to_string();
        assert!(text.contains("refusing to resume"));
        assert!(JournalError::ChecksumMismatch { line: 4 }.to_string().contains("line 4"));
    }
}
