//! The dispatch coordinator: drive a sharded corpus across N serve
//! endpoints with lease-based fault tolerance, and merge the results
//! back into one byte-identical run.
//!
//! This is [`crate::shard`] lifted across machines. The corpus is split
//! with [`shard_range`](crate::shard::shard_range); each shard is
//! *leased* to one endpoint and driven job-by-job, one job in flight,
//! over one [`SubmitClient`] connection per lease (a broken step
//! reconnects through the client's backoff). Worker death is the common
//! case, not the exception:
//!
//! * **Leases, not assignments.** A grant carries a globally monotonic
//!   generation counter (the [`DevicePool`](crate::pool::DevicePool)
//!   pattern, one level up) and has no clock: a lease ends when its
//!   shard commits, when its holder fails a job (each job is bounded by
//!   [`DispatchOptions::job_deadline`], so a wedged holder fails too), or
//!   when its endpoint fails a heartbeat probe. A revoked lease's shard
//!   goes back to the front of the queue. Stale holders notice mid-shard
//!   (every job re-checks the lease) and abandon their work; if a stale
//!   holder finishes anyway, first-wins completion makes the duplicate
//!   harmless.
//! * **Quarantine with revival.** An endpoint that fails
//!   `quarantine_after` shard attempts in a row is benched, then must
//!   pass a clean-transport `Status` probe before it is leased work
//!   again. The first bench lasts `quarantine_backoff`; every failed
//!   revival probe doubles the next one (jittered, capped at 16×), and a
//!   clean probe resets the doubling — the shared retry and health
//!   policy of DESIGN.md §12.
//! * **One config.** Job ids are global corpus indexes, so the server's
//!   `(id, digest)` dedup makes re-execution safe. Every probe (before
//!   a worker's first lease, each heartbeat, each revival) reads the
//!   endpoint's engine config digest, and one that reports another fails
//!   the run ([`DispatchError::ConfigMismatch`]).
//! * **An optional crash-safe journal.** With [`DispatchOptions::journal`]
//!   set, every grant, revocation, quarantine, and shard completion is
//!   one fsynced record in a durable log (`durable_log`), and `ShardDone`
//!   is appended only *after* that shard's own journal is durable.
//!   `--resume` loads each claimed shard journal once and re-runs only
//!   what does not check out, so SIGKILL of the coordinator loses at
//!   most in-flight work. Without a journal, dispatch writes no file.
//!
//! The winning attempt's outcomes stay in memory and are assembled by
//! the shard merge's own rules, so the merged
//! [`SuiteRun::outcome_digest`](crate::suite::SuiteRun) is
//! byte-identical to an unsharded run of the same corpus and config.
//! Dispatch never reads its shard journals back; they are durability
//! records that [`merge_shards`](crate::shard::merge_shards) also
//! accepts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::checkpoint::{write_complete_journal, Fingerprint, JournalError};
use crate::config::FragDroidConfig;
use crate::durable_log::{
    self, decode_line, encode_line, replay, DurableLog, LineError, LogRecord, Replay,
};
use crate::health::{Backoff, Streak};
use crate::serve::{
    request_once, ChaosConfig, JobOutcome, ListenAddr, ServeRequest, ServeResponse, SubmitClient,
};
use crate::shard::{
    assemble_shards, load_shard, shard_journal_path, shard_ranges, MergedRun, ShardPart, ShardSlice,
};
use crate::suite::{slot_metrics, AppMetrics, AppOutcome, CorpusSource};
use fd_droidsim::proto::to_hex;

/// Format version of the coordinator journal.
pub const DISPATCH_JOURNAL_VERSION: u64 = 1;

/// Clean-transport budget for one heartbeat/revival probe.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// The longest bench, as a multiple of `quarantine_backoff`.
const BENCH_CAP: u32 = 16;

// ---------------------------------------------------------------------------
// Options

/// Knobs for one dispatch run.
#[derive(Clone, Debug)]
pub struct DispatchOptions {
    /// The serve endpoints to drive (one worker thread each).
    pub endpoints: Vec<ListenAddr>,
    /// Shards to split the corpus into; `0` means one per endpoint.
    pub shards: usize,
    /// Coordinator journal path; shard journals go beside it. `None`
    /// disables crash-safety: the run writes no file at all.
    pub journal: Option<PathBuf>,
    /// Resume a previous coordinator journal instead of starting fresh.
    pub resume: bool,
    /// Coordinator tick: heartbeat probes of the endpoints holding
    /// leases, and the stall check.
    pub heartbeat_interval: Duration,
    /// Consecutive shard failures before an endpoint is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined endpoint first sits out before a revival
    /// probe; each failed probe doubles the next bench (jittered, capped
    /// at 16×).
    pub quarantine_backoff: Duration,
    /// Per-job submit deadline (passed to [`SubmitClient`]).
    pub job_deadline: Duration,
    /// Per-job reconnect-attempt budget.
    pub job_attempts: u32,
    /// With no progress (grant, job, or shard completion) for this
    /// long, the run fails typed instead of hanging forever.
    pub stall_timeout: Duration,
    /// Wrap every connection in the seeded chaos proxy; a connection's
    /// schedule derives from the job and lease generation that opened
    /// it.
    pub chaos: Option<ChaosConfig>,
    /// Seed for the clients' retry-backoff jitter and, mixed with the
    /// endpoint index, for the quarantine benches' jitter.
    pub jitter_seed: u64,
}

impl DispatchOptions {
    /// Defaults for `endpoints`: one shard per endpoint, no journal,
    /// 250 ms heartbeat, quarantine after 3 straight failures for
    /// 500 ms, 60 s / 8-attempt jobs, 300 s stall guard.
    pub fn new(endpoints: Vec<ListenAddr>) -> DispatchOptions {
        DispatchOptions {
            endpoints,
            shards: 0,
            journal: None,
            resume: false,
            heartbeat_interval: Duration::from_millis(250),
            quarantine_after: 3,
            quarantine_backoff: Duration::from_millis(500),
            job_deadline: Duration::from_secs(60),
            job_attempts: 8,
            stall_timeout: Duration::from_secs(300),
            chaos: None,
            jitter_seed: 0xD15_9A7C,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors

/// A typed dispatch failure. `fd-cli` maps these to exit code 6.
#[derive(Clone, Debug, PartialEq)]
pub enum DispatchError {
    /// No endpoints were given.
    NoEndpoints,
    /// `--resume` without a journal path: there is nothing to resume.
    ResumeWithoutJournal,
    /// The coordinator journal failed (create, append, parse, resume).
    Journal(JournalError),
    /// The corpus could not be streamed to fingerprint a journaled run.
    Source {
        /// The streaming failure, rendered.
        detail: String,
    },
    /// A resumed journal was written for a different shard count.
    ShardCountMismatch {
        /// Shards recorded in the journal.
        journal: usize,
        /// Shards this invocation asked for.
        requested: usize,
    },
    /// An endpoint runs an engine config other than the coordinator's.
    ConfigMismatch {
        /// The endpoint, rendered (`host:port` or `unix:path`).
        endpoint: String,
        /// The coordinator's config digest.
        expected: u64,
        /// The digest the endpoint reported.
        found: u64,
    },
    /// No grant, job, or completion for `stall_timeout`: every endpoint
    /// is dead or quarantined and nothing can make progress.
    Stalled {
        /// Shards completed before the stall.
        completed: usize,
        /// Total shards in the run.
        shards: usize,
        /// What the coordinator was waiting on, rendered.
        detail: String,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::NoEndpoints => {
                write!(f, "dispatch needs at least one serve endpoint (--connect)")
            }
            DispatchError::ResumeWithoutJournal => {
                write!(f, "--resume needs a coordinator journal path (--checkpoint)")
            }
            DispatchError::Journal(error) => write!(f, "coordinator journal: {error}"),
            DispatchError::Source { detail } => write!(f, "corpus source failed: {detail}"),
            DispatchError::ShardCountMismatch { journal, requested } => write!(
                f,
                "coordinator journal records {journal} shards, this invocation asked for \
                 {requested}; shard counts must match to resume"
            ),
            DispatchError::ConfigMismatch { endpoint, expected, found } => {
                write!(f, "endpoint {endpoint} runs config {found:#018x}, not {expected:#018x}")
            }
            DispatchError::Stalled { completed, shards, detail } => {
                write!(f, "dispatch stalled at {completed}/{shards} shards: {detail}")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<JournalError> for DispatchError {
    fn from(error: JournalError) -> Self {
        DispatchError::Journal(error)
    }
}

// ---------------------------------------------------------------------------
// Coordinator journal

/// Header record of the coordinator journal.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct DispatchHeader {
    /// Format version ([`DISPATCH_JOURNAL_VERSION`]).
    version: u64,
    /// Fingerprint of the whole (unsharded) invocation.
    fingerprint: Fingerprint,
    /// Shards the corpus was split into.
    shards: usize,
}

/// One checksummed line in the coordinator journal. `Granted`,
/// `Revoked`, and `Quarantined` are an advisory audit trail; only
/// `Header` and `ShardDone` decide what a resume re-runs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) enum DispatchRecord {
    /// The journal's identity; always the first record.
    Header(DispatchHeader),
    /// A lease was granted.
    Granted {
        /// The shard leased.
        shard: usize,
        /// The endpoint index it went to.
        worker: usize,
        /// The lease's generation counter.
        generation: u64,
    },
    /// A lease was revoked (a failed heartbeat probe or a failed run).
    Revoked {
        /// The shard whose lease was revoked.
        shard: usize,
        /// The endpoint index that held it.
        worker: usize,
        /// The revoked lease's generation.
        generation: u64,
    },
    /// An endpoint was quarantined after consecutive failures.
    Quarantined {
        /// The quarantined endpoint index.
        worker: usize,
    },
    /// A shard's journal is durable and complete. Appended only after
    /// the shard journal's fsync returns.
    ShardDone {
        /// The completed shard.
        shard: usize,
        /// The endpoint index that completed it.
        worker: usize,
        /// The winning lease's generation.
        generation: u64,
        /// Apps the shard covered.
        apps: usize,
    },
}

impl LogRecord for DispatchRecord {
    const VERSION: u64 = DISPATCH_JOURNAL_VERSION;

    fn header_version(&self) -> Option<u64> {
        match self {
            DispatchRecord::Header(header) => Some(header.version),
            _ => None,
        }
    }
}

/// Decodes one coordinator-journal line (without trailing newline).
/// The byte-at-a-time reference of the fd-fuzz differential against
/// [`parse_dispatch_journal`]: a prefix-torn, bit-flipped, or
/// hand-edited line must come back as a rendered error, never a panic.
pub fn decode_dispatch_line(line: &[u8]) -> Result<(), String> {
    match decode_line::<DispatchRecord>(line) {
        Ok(_) => Ok(()),
        Err(LineError::Checksum) => Err("checksum mismatch".to_string()),
        Err(LineError::Malformed(error)) => Err(format!("malformed: {error}")),
    }
}

/// What a parsed coordinator journal says about a run.
#[derive(Clone, Debug, PartialEq)]
pub struct DispatchJournal {
    /// Fingerprint of the invocation that wrote the journal.
    pub fingerprint: Fingerprint,
    /// Shards the corpus was split into.
    pub shards: usize,
    /// Completed shards, by index, with the app count each covered.
    pub done: BTreeMap<usize, usize>,
    /// Lease grants recorded.
    pub grants: u64,
    /// Lease revocations recorded.
    pub revocations: u64,
    /// Quarantines recorded.
    pub quarantines: u64,
    /// Bytes of complete, checksummed records.
    pub valid_len: u64,
    /// Bytes of torn tail past `valid_len` (0 for a clean file).
    pub torn_tail_bytes: u64,
}

/// Parses a coordinator journal. A torn tail (the coordinator died
/// mid-append) is tolerated and measured; everything else that is wrong
/// — corrupt checksums, a missing or foreign header, duplicate
/// completions — is a typed [`JournalError`].
pub fn parse_dispatch_journal(data: &[u8]) -> Result<DispatchJournal, JournalError> {
    let Replay { header, records, valid_len, torn_tail_bytes } = replay::<DispatchRecord>(data)?;
    let DispatchRecord::Header(DispatchHeader { fingerprint, shards, .. }) = header else {
        return Err(JournalError::MissingHeader);
    };

    let mut done = BTreeMap::new();
    let (mut grants, mut revocations, mut quarantines) = (0u64, 0u64, 0u64);
    for (_, record) in records {
        match record {
            // Replay already refused a second header.
            DispatchRecord::Header(_) => {}
            DispatchRecord::Granted { .. } => grants += 1,
            DispatchRecord::Revoked { .. } => revocations += 1,
            DispatchRecord::Quarantined { .. } => quarantines += 1,
            DispatchRecord::ShardDone { shard, apps, .. } => {
                if shard >= shards {
                    return Err(JournalError::IndexOutOfRange { index: shard, total: shards });
                }
                if done.insert(shard, apps).is_some() {
                    return Err(JournalError::DuplicateIndex { index: shard });
                }
            }
        }
    }

    Ok(DispatchJournal {
        fingerprint,
        shards,
        done,
        grants,
        revocations,
        quarantines,
        valid_len,
        torn_tail_bytes,
    })
}

/// A small, well-formed coordinator journal for fuzz seeds: a header, a
/// grant per shard, one revoke/quarantine/re-grant episode, and every
/// shard completed. Pure — no clock, no filesystem.
pub fn demo_dispatch_journal(seed: u64, shards: usize) -> Vec<u8> {
    let fingerprint = Fingerprint {
        apps: (shards as u64) * 2,
        corpus_digest: 0xfd15_7a7c_0000_0000 ^ seed,
        config_digest: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        flake_retries: 0,
    };
    let mut out = String::new();
    let mut push = |record: DispatchRecord| out.push_str(&encode_line(&record));
    push(DispatchRecord::Header(DispatchHeader {
        version: DISPATCH_JOURNAL_VERSION,
        fingerprint,
        shards,
    }));
    for shard in 0..shards {
        let worker = shard % 2;
        let generation = shard as u64;
        push(DispatchRecord::Granted { shard, worker, generation });
        if shard % 3 == 1 {
            push(DispatchRecord::Revoked { shard, worker, generation });
            push(DispatchRecord::Quarantined { worker });
            let regrant = generation + shards as u64;
            push(DispatchRecord::Granted { shard, worker: (worker + 1) % 2, generation: regrant });
        }
        push(DispatchRecord::ShardDone { shard, worker, generation, apps: 2 });
    }
    out.into_bytes()
}

// ---------------------------------------------------------------------------
// Results

/// Per-endpoint accounting for the dispatch summary.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct WorkerStat {
    /// The endpoint, rendered (`host:port` or `unix:path`).
    pub endpoint: String,
    /// Leases granted to this endpoint.
    pub assignments: usize,
    /// Shards it completed first.
    pub shards_completed: usize,
    /// Shard attempts that failed (transport death, revocation).
    pub failures: usize,
    /// Times it was quarantined.
    pub quarantines: usize,
}

/// What happened operationally, alongside the merged result.
#[derive(Clone, Debug, Default, Serialize)]
pub struct DispatchSummary {
    /// Shards the corpus was split into.
    pub shards: usize,
    /// Shards skipped on `--resume` because their journals validated.
    pub resumed_shards: usize,
    /// Shards re-granted after a revocation.
    pub reassignments: usize,
    /// Completed shard attempts that lost the first-wins commit.
    pub wasted_completions: usize,
    /// Revocation→re-grant latency of each reassignment, milliseconds.
    pub reassignment_latencies_ms: Vec<u64>,
    /// Per-endpoint accounting, in `--connect` order.
    pub workers: Vec<WorkerStat>,
}

/// A completed dispatch: the merged run plus operational accounting.
#[derive(Debug)]
pub struct DispatchRun {
    /// The merged result; `merged.run.outcome_digest()` is
    /// byte-identical to an unsharded run.
    pub merged: MergedRun,
    /// Leases, reassignments, quarantines, waste.
    pub summary: DispatchSummary,
    /// The coordinator's trace (track 0) plus one track per endpoint.
    pub trace: fd_trace::Trace,
}

// ---------------------------------------------------------------------------
// Farm state

/// One live lease; its `generation` alone identifies it.
struct Lease {
    shard: usize,
    worker: usize,
    generation: u64,
}

/// Where an endpoint stands with the farm. `round` counts the failed
/// revival probes since the quarantine began; each one doubles the next
/// bench.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Standing {
    /// Takes leases.
    Active,
    /// Quarantined: sits out until `until`, then probes.
    Benched { until: Instant, round: u32 },
    /// The bench is over: a clean `Status` probe must pass before any
    /// lease.
    Probation { round: u32 },
}

/// One endpoint's health and accounting.
struct WorkerSlot {
    streak: Streak,
    standing: Standing,
    bench: Backoff,
    stat: WorkerStat,
}

impl WorkerSlot {
    fn new(options: &DispatchOptions, worker: usize) -> WorkerSlot {
        let base = options.quarantine_backoff;
        WorkerSlot {
            streak: Streak::new(options.quarantine_after),
            standing: Standing::Active,
            bench: Backoff::new(base, base.saturating_mul(BENCH_CAP))
                .jittered(options.jitter_seed ^ worker as u64),
            stat: WorkerStat {
                endpoint: options.endpoints[worker].to_string(),
                ..WorkerStat::default()
            },
        }
    }

    /// Counts one failed shard attempt; `true` means it tripped the
    /// streak and benched the endpoint (callers journal + trace that).
    fn fail(&mut self, now: Instant) -> bool {
        self.stat.failures += 1;
        let tripped = self.streak.fail();
        if tripped {
            self.stat.quarantines += 1;
            self.bench(now, 0);
        }
        tripped
    }

    fn bench(&mut self, now: Instant, round: u32) {
        self.standing = Standing::Benched { until: now + self.bench.nap(round), round };
    }

    /// What a benched or probationary endpoint does at `now`; `None`
    /// when it is active and may take a lease.
    fn sit_out(&mut self, now: Instant, heartbeat: Duration) -> Option<Action> {
        match self.standing {
            Standing::Active => None,
            Standing::Benched { until, .. } if now < until => {
                Some(Action::Wait(until.duration_since(now).min(heartbeat)))
            }
            // The bench is over: the endpoint earns its way back with a
            // clean probe before any lease.
            Standing::Benched { round, .. } => {
                self.standing = Standing::Probation { round };
                Some(Action::Probe)
            }
            Standing::Probation { .. } => Some(Action::Probe),
        }
    }

    /// Settles a revival probe: a clean one reinstates the endpoint with
    /// a fresh streak; a failed one benches it again for twice as long.
    /// The original quarantine was already journaled; re-benching is
    /// not a new event.
    fn revived(&mut self, healthy: bool, now: Instant) {
        let Standing::Probation { round } = self.standing else { return };
        if healthy {
            self.standing = Standing::Active;
            self.streak.clear();
        } else {
            self.bench(now, round + 1);
        }
    }
}

/// The shared lease machine, guarded by one mutex.
struct Farm {
    pending: VecDeque<usize>,
    leases: Vec<Lease>,
    /// Each completed shard's first committed outcomes.
    done: BTreeMap<usize, ShardPart>,
    /// When each shard's last lease was revoked, for reassignment
    /// latency; cleared at the re-grant that consumes it.
    revoked_at: Vec<Option<Instant>>,
    workers: Vec<WorkerSlot>,
    next_generation: u64,
    fatal: Option<DispatchError>,
    last_progress: Instant,
    /// The run's accounting so far; `workers` is copied in at the end.
    summary: DispatchSummary,
}

impl Farm {
    /// Whether the run is over: failed, or every shard committed.
    fn over(&self) -> bool {
        self.fatal.is_some() || self.done.len() == self.summary.shards
    }
}

/// Mutex lock that shrugs off poisoning: the farm state stays usable
/// even if a worker thread panicked while holding the lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a journaled run keeps beside the farm: the coordinator journal,
/// where shard journals go, and what each one is fingerprinted with.
struct Journaled<'a> {
    log: Mutex<DurableLog>,
    /// The coordinator journal's path, which shard journals extend.
    base: &'a Path,
    /// Each shard's fingerprint, in shard order.
    fingerprints: Vec<Fingerprint>,
    /// Shards whose `ShardDone` is already in the resumed journal;
    /// completing one again must not append a duplicate record.
    done: BTreeSet<usize>,
}

/// Everything worker threads and the coordinator share by reference.
struct DispatchCtx<'a> {
    source: &'a dyn CorpusSource,
    options: &'a DispatchOptions,
    /// The engine config digest every endpoint must report.
    config_digest: u64,
    ranges: &'a [Range<usize>],
    farm: &'a Mutex<Farm>,
    cv: &'a Condvar,
    journal: Option<Journaled<'a>>,
}

impl DispatchCtx<'_> {
    /// Appends one record to the coordinator journal (fsync'd per
    /// record), if the run keeps one.
    fn append(&self, record: &DispatchRecord) {
        let Some(journal) = &self.journal else { return };
        if let Err(error) = lock(&journal.log).append(record) {
            self.fail(DispatchError::Journal(error));
        }
    }

    /// Stops the run with `error`. A journal failure is one: a journal
    /// whose durability cannot be trusted is worse than stopping.
    fn fail(&self, error: DispatchError) {
        lock(self.farm).fatal.get_or_insert(error);
        self.cv.notify_all();
    }

    /// Probes `worker`'s endpoint ([`healthy`]); a config mismatch fails
    /// the run and counts as unhealthy. Every probe checks the config —
    /// the first, each heartbeat and each revival — so an endpoint
    /// restarted mid-run under another config is caught too.
    fn probe(&self, worker: usize) -> bool {
        let addr = &self.options.endpoints[worker];
        healthy(addr, PROBE_TIMEOUT, self.config_digest).unwrap_or_else(|mismatch| {
            self.fail(mismatch);
            false
        })
    }
}

/// What an idle worker thread should do next, decided under the lock.
enum Action {
    Exit,
    Wait(Duration),
    Probe,
    Run { shard: usize, generation: u64, reassigned: bool },
}

/// Revocations decided under the farm lock; [`Revocations::publish`]
/// journals and traces them once the lock is released.
struct Revocations {
    leases: Vec<Lease>,
    quarantined: Vec<usize>,
}

/// Revokes every lease matching `pred`. A shard holds at most one
/// lease, so a revoked lease's shard goes back to the front of the
/// queue unless it is done, and `now` starts its reassignment-latency
/// clock. Its holder is charged one failed attempt, which may bench the
/// holder.
fn revoke_leases(g: &mut Farm, now: Instant, pred: impl Fn(&Lease) -> bool) -> Revocations {
    let (leases, kept): (Vec<Lease>, Vec<Lease>) =
        std::mem::take(&mut g.leases).into_iter().partition(|l| pred(l));
    g.leases = kept;
    let mut quarantined = Vec::new();
    for lease in &leases {
        if !g.done.contains_key(&lease.shard) {
            g.revoked_at[lease.shard] = Some(now);
            g.pending.push_front(lease.shard);
        }
        if g.workers[lease.worker].fail(now) {
            quarantined.push(lease.worker);
        }
    }
    Revocations { leases, quarantined }
}

impl Revocations {
    /// Wakes idle workers, then journals and traces every `Revoked`
    /// record followed by every `Quarantined` one.
    fn publish(self, ctx: &DispatchCtx<'_>, tracer: &fd_trace::Tracer) {
        if self.leases.is_empty() {
            return;
        }
        ctx.cv.notify_all();
        for Lease { shard, worker, generation } in self.leases {
            ctx.append(&DispatchRecord::Revoked { shard, worker, generation });
            tracer.event(|| fd_trace::TraceEvent::LeaseRevoked {
                shard: shard as u64,
                worker: worker as u64,
                generation,
            });
        }
        for worker in self.quarantined {
            ctx.append(&DispatchRecord::Quarantined { worker });
            tracer.event(|| fd_trace::TraceEvent::WorkerQuarantined { worker: worker as u64 });
        }
    }
}

fn next_action(g: &mut Farm, worker: usize, ctx: &DispatchCtx<'_>, now: Instant) -> Action {
    if g.over() {
        return Action::Exit;
    }
    if let Some(action) = g.workers[worker].sit_out(now, ctx.options.heartbeat_interval) {
        return action;
    }
    while let Some(shard) = g.pending.pop_front() {
        if g.done.contains_key(&shard) {
            continue;
        }
        let generation = g.next_generation;
        g.next_generation += 1;
        g.leases.push(Lease { shard, worker, generation });
        g.workers[worker].stat.assignments += 1;
        g.last_progress = now;
        let mut reassigned = false;
        if let Some(revoked) = g.revoked_at[shard].take() {
            let latency_ms = now.duration_since(revoked).as_millis() as u64;
            g.summary.reassignments += 1;
            g.summary.reassignment_latencies_ms.push(latency_ms);
            reassigned = true;
        }
        return Action::Run { shard, generation, reassigned };
    }
    Action::Wait(ctx.options.heartbeat_interval)
}

// ---------------------------------------------------------------------------
// Health probes

/// Clean-transport liveness and config probe: a `Status` round trip to
/// a server that will still take work. `Busy` means alive-but-saturated
/// (healthy); `Draining` means it is dying, and a hang-up, a timeout or
/// any other reply is unhealthy too. A `Status` reporting an engine
/// config digest other than `expected` is a
/// [`DispatchError::ConfigMismatch`]; a server that predates the digest
/// reports none and passes.
fn healthy(addr: &ListenAddr, timeout: Duration, expected: u64) -> Result<bool, DispatchError> {
    match request_once(addr, ServeRequest::Status, timeout) {
        Ok(ServeResponse::Status { config_digest: Some(found), .. }) if found != expected => {
            Err(DispatchError::ConfigMismatch { endpoint: addr.to_string(), expected, found })
        }
        Ok(ServeResponse::Status { .. } | ServeResponse::Busy { .. }) => Ok(true),
        _ => Ok(false),
    }
}

// ---------------------------------------------------------------------------
// Worker threads

/// Drives one shard's jobs over the wire against `worker`'s endpoint,
/// one job in flight, all over the lease's one [`SubmitClient`] and so
/// one connection unless a step breaks. Every job re-checks the lease
/// first, so a stale holder abandons the shard instead of burning a
/// dead generation's budget.
fn run_shard_over_wire(
    ctx: &DispatchCtx<'_>,
    worker: usize,
    shard: usize,
    generation: u64,
) -> Result<Vec<(AppOutcome, AppMetrics)>, String> {
    let range = ctx.ranges[shard].clone();
    let mut client = SubmitClient::new(ctx.options.endpoints[worker].clone())
        .with_deadline(ctx.options.job_deadline)
        .with_max_attempts(ctx.options.job_attempts);
    let mut outcomes = Vec::with_capacity(range.len());
    for global in range {
        {
            let g = lock(ctx.farm);
            if g.over() {
                return Err("coordinator shut down mid-shard".to_string());
            }
            if !g.leases.iter().any(|l| l.generation == generation) {
                return Err("lease revoked mid-shard".to_string());
            }
        }
        let started = Instant::now();
        let (outcome, package) = match ctx.source.fetch(global) {
            // A source-side rejection needs no server round trip; the
            // reason string matches what the in-process runner records.
            Err(reason) => (AppOutcome::Rejected { reason }, ctx.source.label(global)),
            Ok((bytes, inputs)) => {
                // The job id is the global corpus index: the server's
                // (id, digest) idempotency key, so a re-dispatched
                // shard replays the same jobs and dedups server-side.
                let job = global as u64 + 1;
                client =
                    client.with_backoff_jitter(ctx.options.jitter_seed ^ job ^ (generation << 20));
                if let Some(base) = &ctx.options.chaos {
                    // Vary the schedule of the connections this job
                    // opens by job *and* generation, so a reassigned
                    // shard does not replay the exact chaos that killed
                    // its first attempt.
                    client = client.with_chaos(ChaosConfig {
                        seed: base.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ generation,
                        ..base.clone()
                    });
                }
                match client.submit(job, &to_hex(&bytes), &inputs) {
                    Err(error) => return Err(format!("job {job}: {error}")),
                    Ok(JobOutcome::Rejected { reason }) => {
                        (AppOutcome::Rejected { reason }, ctx.source.label(global))
                    }
                    Ok(JobOutcome::Report { report }) => {
                        let package =
                            manifest_package(&bytes).unwrap_or_else(|| ctx.source.label(global));
                        (AppOutcome::ran(*report), package)
                    }
                }
            }
        };
        let metrics = slot_metrics(&outcome, package, started.elapsed());
        outcomes.push((outcome, metrics));
        lock(ctx.farm).last_progress = Instant::now();
    }
    Ok(outcomes)
}

/// The manifest package of a container — the label the suite gives a
/// slot that ran. Parses the manifest section only.
fn manifest_package(bytes: &[u8]) -> Option<String> {
    let view = fd_apk::ContainerView::parse(bytes).ok()?;
    let manifest: fd_apk::Manifest = serde_json::from_slice(view.manifest_bytes()).ok()?;
    Some(manifest.package)
}

/// One endpoint's worker thread: claim a shard, drive it, commit or
/// fail, repeat until the farm shuts down.
fn worker_loop(
    ctx: &DispatchCtx<'_>,
    worker: usize,
    clock: fd_trace::TraceClock,
    trace_config: &fd_trace::TraceConfig,
) -> fd_trace::TrackTrace {
    let tracer = fd_trace::Tracer::new(trace_config, clock, worker as u64 + 1);
    // The first probe only checks the config: the leases find the dead.
    ctx.probe(worker);
    loop {
        let mut g = lock(ctx.farm);
        match next_action(&mut g, worker, ctx, Instant::now()) {
            Action::Exit => break,
            // Wait on the guard that chose to wait, so a wake-up sent
            // in between is not lost.
            Action::Wait(duration) => drop(ctx.cv.wait_timeout(g, duration)),
            Action::Probe => {
                drop(g);
                let clean = ctx.probe(worker);
                lock(ctx.farm).workers[worker].revived(clean, Instant::now());
            }
            Action::Run { shard, generation, reassigned } => {
                drop(g);
                ctx.append(&DispatchRecord::Granted { shard, worker, generation });
                tracer.event(|| fd_trace::TraceEvent::LeaseGranted {
                    shard: shard as u64,
                    worker: worker as u64,
                    generation,
                });
                if reassigned {
                    tracer.event(|| fd_trace::TraceEvent::ShardReassigned {
                        shard: shard as u64,
                        worker: worker as u64,
                    });
                }
                match run_shard_over_wire(ctx, worker, shard, generation) {
                    Ok(slots) => {
                        let apps = slots.len();
                        if let Some(journal) = &ctx.journal {
                            // Durability order is the whole invariant:
                            // shard journal fsync'd first, ShardDone after.
                            let written = write_complete_journal(
                                &shard_journal_path(journal.base, shard, ctx.ranges.len()),
                                journal.fingerprints[shard],
                                slots.iter().enumerate().map(|(i, (o, m))| (i, o, m)),
                            );
                            if let Err(error) = written {
                                ctx.fail(DispatchError::Journal(error));
                                continue;
                            }
                        }
                        let won = {
                            let mut g = lock(ctx.farm);
                            g.leases.retain(|l| l.generation != generation);
                            let won = !g.done.contains_key(&shard);
                            if won {
                                g.done.insert(shard, ShardPart { slots, flakes: None });
                                g.workers[worker].stat.shards_completed += 1;
                                g.workers[worker].streak.clear();
                                g.last_progress = Instant::now();
                            } else {
                                // Another attempt committed first: one of
                                // the two leases was revoked and its holder
                                // finished anyway. The shard journal we
                                // rewrote, if any, holds identical bytes.
                                g.summary.wasted_completions += 1;
                            }
                            ctx.cv.notify_all();
                            won
                        };
                        if won && ctx.journal.as_ref().is_some_and(|j| !j.done.contains(&shard)) {
                            ctx.append(&DispatchRecord::ShardDone {
                                shard,
                                worker,
                                generation,
                                apps,
                            });
                        }
                    }
                    // If the coordinator revoked the lease first it also
                    // journaled the revocation; only a failure we
                    // discovered ourselves is ours to record.
                    Err(_reason) => {
                        let revoked = revoke_leases(&mut lock(ctx.farm), Instant::now(), |l| {
                            l.generation == generation
                        });
                        revoked.publish(ctx, &tracer);
                    }
                }
            }
        }
    }
    tracer.finish()
}

// ---------------------------------------------------------------------------
// Coordinator loop

/// The coordinator's own duties, on the calling thread: heartbeat-probe
/// the endpoints holding leases, and fail typed on a total stall.
fn coordinator_loop(
    ctx: &DispatchCtx<'_>,
    clock: fd_trace::TraceClock,
    trace_config: &fd_trace::TraceConfig,
) -> fd_trace::TrackTrace {
    let tracer = fd_trace::Tracer::new(trace_config, clock, 0);
    loop {
        let (probes, stalled) = {
            let mut g = lock(ctx.farm);
            if g.over() {
                break;
            }
            let now = Instant::now();
            // Total stall: nothing has moved for stall_timeout.
            if now.duration_since(g.last_progress) >= ctx.options.stall_timeout {
                let leased = g.leases.len();
                let queued = g.pending.len();
                g.fatal = Some(DispatchError::Stalled {
                    completed: g.done.len(),
                    shards: ctx.ranges.len(),
                    detail: format!(
                        "no progress for {:?} ({leased} leases in flight, {queued} shards \
                         queued, every endpoint dead or quarantined)",
                        ctx.options.stall_timeout
                    ),
                });
                ctx.cv.notify_all();
            }
            let probes: BTreeSet<usize> = g.leases.iter().map(|l| l.worker).collect();
            (probes, g.fatal.is_some())
        };
        if stalled {
            continue;
        }
        // Heartbeats, off the lock: a failed probe revokes everything
        // the endpoint holds.
        for worker in probes {
            if !ctx.probe(worker) {
                let dead =
                    revoke_leases(&mut lock(ctx.farm), Instant::now(), |l| l.worker == worker);
                dead.publish(ctx, &tracer);
            }
        }
        // Re-check under the lock: a completion notified during the
        // probes must not leave the coordinator waiting a whole tick.
        let g = lock(ctx.farm);
        if !g.over() {
            drop(ctx.cv.wait_timeout(g, ctx.options.heartbeat_interval));
        }
    }
    tracer.finish()
}

// ---------------------------------------------------------------------------
// Entry point

/// Dispatches `source` across `options.endpoints`, drives every shard
/// to completion with lease-based fault tolerance, and assembles the
/// shards' outcomes into one run whose `outcome_digest` is
/// byte-identical to an unsharded run of the same corpus and config.
///
/// # Errors
/// [`DispatchError::NoEndpoints`] / [`DispatchError::ResumeWithoutJournal`]
/// for invalid invocations; [`DispatchError::Source`] when a journaled
/// run cannot digest the corpus; [`DispatchError::Journal`] when the
/// coordinator journal or a shard journal cannot be created, resumed, or
/// appended; [`DispatchError::ConfigMismatch`] when an endpoint runs
/// another engine config; [`DispatchError::Stalled`] when every endpoint
/// is dead and nothing can progress.
pub fn dispatch(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    options: &DispatchOptions,
    trace_config: &fd_trace::TraceConfig,
) -> Result<DispatchRun, DispatchError> {
    if options.endpoints.is_empty() {
        return Err(DispatchError::NoEndpoints);
    }
    if options.resume && options.journal.is_none() {
        return Err(DispatchError::ResumeWithoutJournal);
    }
    let shards = if options.shards == 0 { options.endpoints.len() } else { options.shards };
    let ranges = shard_ranges(source.len(), shards);

    // Shards claimed by a resumed journal whose own journals check out.
    let mut done = BTreeMap::new();
    let journal = match &options.journal {
        None => None,
        Some(path) => {
            let digest = |slice: &dyn CorpusSource| {
                Fingerprint::of(slice, config, 0).map_err(|detail| DispatchError::Source { detail })
            };
            let fingerprint = digest(source)?;
            let fingerprints = ranges
                .iter()
                .map(|range| digest(&ShardSlice::over(source, range.clone())))
                .collect::<Result<Vec<_>, _>>()?;
            let mut journaled_done = BTreeSet::new();
            let log = if options.resume && path.exists() {
                let loaded = parse_dispatch_journal(&durable_log::read(path)?)?;
                fingerprint.check(loaded.fingerprint)?;
                if loaded.shards != shards {
                    return Err(DispatchError::ShardCountMismatch {
                        journal: loaded.shards,
                        requested: shards,
                    });
                }
                for &shard in loaded.done.keys() {
                    journaled_done.insert(shard);
                    // ShardDone is a claim, not proof: trust only shard
                    // journals that pass the shard merge's checks, loaded
                    // once. Anything else re-runs.
                    let journal = shard_journal_path(path, shard, shards);
                    let checked = load_shard(&journal, fingerprints[shard], shard, &ranges[shard]);
                    if let Ok(part) = checked {
                        done.insert(shard, part);
                    }
                }
                DurableLog::resume(path, loaded.valid_len, 1)?
            } else {
                if path.exists() {
                    return Err(DispatchError::Journal(JournalError::AlreadyExists {
                        path: path.display().to_string(),
                    }));
                }
                let header = DispatchRecord::Header(DispatchHeader {
                    version: DISPATCH_JOURNAL_VERSION,
                    fingerprint,
                    shards,
                });
                DurableLog::create(path, &header, 1)?
            };
            let log = Mutex::new(log);
            Some(Journaled { log, base: path, fingerprints, done: journaled_done })
        }
    };
    let resumed_shards = done.len();

    let farm = Mutex::new(Farm {
        pending: (0..shards).filter(|s| !done.contains_key(s)).collect(),
        leases: Vec::new(),
        done,
        revoked_at: vec![None; shards],
        workers: (0..options.endpoints.len()).map(|w| WorkerSlot::new(options, w)).collect(),
        next_generation: 0,
        fatal: None,
        last_progress: Instant::now(),
        summary: DispatchSummary { shards, resumed_shards, ..DispatchSummary::default() },
    });
    let cv = Condvar::new();
    let ctx = DispatchCtx {
        source,
        options,
        config_digest: config.findings_digest(),
        ranges: &ranges,
        farm: &farm,
        cv: &cv,
        journal,
    };

    let clock = fd_trace::TraceClock::start();
    let mut tracks: Vec<fd_trace::TrackTrace> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.endpoints.len())
            .map(|worker| {
                let ctx = &ctx;
                scope.spawn(move || worker_loop(ctx, worker, clock, trace_config))
            })
            .collect();
        tracks.push(coordinator_loop(&ctx, clock, trace_config));
        for handle in handles {
            tracks.push(handle.join().expect("dispatch worker thread must not panic"));
        }
    });

    let mut g = lock(&farm);
    if let Some(error) = g.fatal.take() {
        return Err(error);
    }
    let mut summary = std::mem::take(&mut g.summary);
    summary.workers = g.workers.iter().map(|slot| slot.stat.clone()).collect();
    // Without a fatal error the coordinator stopped only once every
    // shard committed, so `done` holds them all, in shard order.
    let merged = assemble_shards(std::mem::take(&mut g.done).into_values().collect());

    let mut trace = fd_trace::Trace::new("fragdroid-dispatch");
    for track in tracks {
        trace.absorb(track);
    }
    Ok(DispatchRun { merged, summary, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_listener, AnyStream, ServeListener, ServeOptions, MAX_AWAIT};
    use crate::shard::merge_shards;
    use crate::suite::{run_corpus_suite_traced, SuiteContainer};
    use fd_droidsim::proto::{decode_payload, encode_frame, Envelope, FrameBuffer};
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "fragdroid-dispatch-test-{}-{}-{name}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn corpus(n: usize) -> Vec<SuiteContainer> {
        fd_appgen::corpus::corpus_217(41)
            .into_iter()
            .take(n)
            .map(|g| (fd_apk::pack(&g.app), g.known_inputs))
            .collect()
    }

    fn spawn_server(workers: usize) -> (ListenAddr, std::thread::JoinHandle<()>) {
        spawn_server_with(ServeOptions { workers, ..ServeOptions::default() })
    }

    fn spawn_server_with(options: ServeOptions) -> (ListenAddr, std::thread::JoinHandle<()>) {
        let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string()))
            .expect("bind a loopback test server");
        let addr = listener.local_addr().clone();
        let handle = std::thread::spawn(move || {
            serve_listener(listener, &options, &fd_trace::TraceConfig::off())
                .expect("test server runs to clean shutdown");
        });
        (addr, handle)
    }

    fn shutdown(addr: &ListenAddr, handle: std::thread::JoinHandle<()>) {
        let reply = request_once(addr, ServeRequest::Shutdown, Duration::from_secs(60));
        assert_eq!(reply, Ok(ServeResponse::Bye));
        handle.join().expect("test server thread exits");
    }

    /// How a one-connection fake endpoint treats the probe it receives.
    enum Fake {
        Reply(ServeResponse),
        HangUp,
        Silent,
    }

    /// Probes a fake endpoint that reads one `Status` request and then
    /// behaves as `fake` says.
    fn probe_against(fake: Fake) -> bool {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a fake endpoint");
        let addr = ListenAddr::Tcp(listener.local_addr().expect("bound").to_string());
        let endpoint = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("the probe connects");
            let mut frames = FrameBuffer::new();
            let mut chunk = [0u8; 4096];
            let request = loop {
                if let Some(payload) = frames.next_frame().expect("well-formed probe") {
                    break decode_payload::<ServeRequest>(&payload).expect("decodable probe");
                }
                let n = stream.read(&mut chunk).expect("read the probe");
                frames.push(&chunk[..n]);
            };
            assert!(matches!(request.body, ServeRequest::Status));
            match fake {
                Fake::Reply(body) => {
                    stream.write_all(&encode_frame(&Envelope { id: request.id, body })).unwrap()
                }
                Fake::HangUp => {}
                // Holds the connection until the prober gives up.
                Fake::Silent => drop(stream.read(&mut chunk)),
            }
        });
        let verdict = healthy(&addr, Duration::from_millis(200), 0).expect("no digest reported");
        endpoint.join().expect("fake endpoint exits");
        verdict
    }

    #[test]
    fn probe_counts_status_and_busy_as_healthy_and_nothing_else() {
        let status = ServeResponse::Status {
            queued: 0,
            running: 1,
            completed: 2,
            rejected: 0,
            workers: 1,
            config_digest: None,
        };
        assert!(probe_against(Fake::Reply(status)));
        assert!(probe_against(Fake::Reply(ServeResponse::Busy { job: 0, retry_after_ms: 5 })));
        let draining = ServeResponse::Draining { job: 0, retry_after_ms: 5 };
        assert!(!probe_against(Fake::Reply(draining)), "a draining server is dying");
        assert!(!probe_against(Fake::HangUp), "a hang-up is unhealthy");
        assert!(!probe_against(Fake::Silent), "a timeout is unhealthy");
    }

    /// The bench span of a benched slot, measured from `now`.
    fn bench_span(slot: &WorkerSlot, now: Instant) -> Duration {
        match slot.standing {
            Standing::Benched { until, .. } => until - now,
            other => panic!("expected a benched endpoint, found {other:?}"),
        }
    }

    #[test]
    fn failed_revivals_double_the_jittered_bench_and_a_clean_probe_resets_it() {
        let base = Duration::from_millis(100);
        let mut options = DispatchOptions::new(vec![ListenAddr::Tcp("127.0.0.1:1".into()); 4]);
        options.quarantine_after = 2;
        options.quarantine_backoff = base;
        let heartbeat = Duration::from_secs(3600);
        let mut slot = WorkerSlot::new(&options, 3);
        let mut now = Instant::now();
        assert!(!slot.fail(now), "one failure is below the threshold");
        assert!(slot.fail(now), "the second straight failure benches the endpoint");

        let mut spans = Vec::new();
        for _ in 0..8 {
            let span = bench_span(&slot, now);
            spans.push(span);
            assert!(matches!(slot.sit_out(now, heartbeat), Some(Action::Wait(w)) if w == span));
            now += span;
            assert!(matches!(slot.sit_out(now, heartbeat), Some(Action::Probe)));
            assert!(matches!(slot.sit_out(now, heartbeat), Some(Action::Probe)), "no lease yet");
            slot.revived(false, now);
        }
        let full: Vec<Duration> =
            (0..8).map(|round| (base * (1 << round)).min(base * BENCH_CAP)).collect();
        for (round, (span, full)) in spans.iter().zip(&full).enumerate() {
            assert!(*span >= *full / 2 && span <= full, "round {round}: {span:?} vs {full:?}");
        }
        assert!(spans.windows(3).take(3).all(|w| w[2] > w[0]), "doubling: {spans:?}");
        assert_ne!(spans, full, "the benches are jittered");
        let mut twin = WorkerSlot::new(&options, 3);
        let replay: Vec<Duration> = (0..8).map(|round| twin.bench.nap(round)).collect();
        assert_eq!(replay, spans, "the jitter is seeded by jitter_seed and the endpoint");

        // A clean probe reinstates the endpoint with a fresh streak and
        // resets the doubling.
        now += bench_span(&slot, now);
        assert!(matches!(slot.sit_out(now, heartbeat), Some(Action::Probe)));
        slot.revived(true, now);
        assert_eq!(slot.standing, Standing::Active);
        assert!(slot.sit_out(now, heartbeat).is_none());
        assert!(!slot.fail(now), "the clean probe cleared the streak");
        assert!(slot.fail(now));
        assert!(bench_span(&slot, now) <= base, "the next bench starts from the base again");
        assert_eq!((slot.stat.failures, slot.stat.quarantines), (4, 2));
    }

    #[test]
    fn invalid_invocations_are_typed() {
        let corpus: Vec<SuiteContainer> = Vec::new();
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        assert_eq!(
            dispatch(&corpus, &config, &DispatchOptions::new(Vec::new()), &off).unwrap_err(),
            DispatchError::NoEndpoints
        );
        let mut options = DispatchOptions::new(vec![ListenAddr::Tcp("127.0.0.1:1".to_string())]);
        options.resume = true;
        assert_eq!(
            dispatch(&corpus, &config, &options, &off).unwrap_err(),
            DispatchError::ResumeWithoutJournal
        );
    }

    #[test]
    fn demo_journal_roundtrips_and_counts() {
        let bytes = demo_dispatch_journal(7, 5);
        let parsed = parse_dispatch_journal(&bytes).expect("demo journal parses");
        assert_eq!(parsed.shards, 5);
        assert_eq!(parsed.done.len(), 5);
        assert_eq!(parsed.torn_tail_bytes, 0);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert!(parsed.grants > parsed.done.len() as u64 - 1, "re-grants recorded");
        assert!(parsed.revocations >= 1 && parsed.quarantines >= 1);
        // Every line decodes on its own too.
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            decode_dispatch_line(line).expect("each demo line decodes");
        }
    }

    /// The coordinator journal's own folds: completions must be unique
    /// and inside the split. (Line, header and torn-tail failures are
    /// the durable log's, covered once for every record type in
    /// `durable_log::tests`.)
    #[test]
    fn parse_failures_are_typed() {
        let bytes = demo_dispatch_journal(3, 4);
        // Duplicate ShardDone: DuplicateIndex.
        let mut dup = String::from_utf8(bytes.clone()).unwrap();
        dup.push_str(&encode_line(&DispatchRecord::ShardDone {
            shard: 0,
            worker: 0,
            generation: 99,
            apps: 2,
        }));
        assert_eq!(
            parse_dispatch_journal(dup.as_bytes()),
            Err(JournalError::DuplicateIndex { index: 0 })
        );
        // ShardDone outside the split: IndexOutOfRange.
        let mut oob = String::from_utf8(bytes).unwrap();
        oob.push_str(&encode_line(&DispatchRecord::ShardDone {
            shard: 9,
            worker: 0,
            generation: 99,
            apps: 2,
        }));
        assert_eq!(
            parse_dispatch_journal(oob.as_bytes()),
            Err(JournalError::IndexOutOfRange { index: 9, total: 4 })
        );
    }

    /// A slot is labelled with its manifest package, as the suite labels
    /// it — even when the launcher class lives in a sub-package.
    #[test]
    fn dispatched_slots_carry_the_suite_package_labels() {
        let mut gen = fd_appgen::templates::quickstart();
        gen.app.manifest.package = "com.example".to_string();
        let corpus = vec![(fd_apk::pack(&gen.app), gen.known_inputs)];
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let (reference, _) = run_corpus_suite_traced(&corpus, &config, 1, &off);
        assert_eq!(reference.metrics.apps[0].package, "com.example");

        let (addr, server) = spawn_server(1);
        let options = DispatchOptions::new(vec![addr.clone()]);
        let run = dispatch(&corpus, &config, &options, &off).expect("dispatch completes");
        shutdown(&addr, server);
        let labels =
            |apps: &[AppMetrics]| apps.iter().map(|m| m.package.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&run.merged.run.metrics.apps), labels(&reference.metrics.apps));
    }

    /// Each lease drives its whole shard over one connection: the
    /// endpoint sees no more connections than leases plus the
    /// coordinator's `Status` probes (and the test's `Shutdown`).
    #[test]
    fn each_lease_drives_its_shard_over_one_connection() {
        use fd_trace::{TraceEvent, TraceRecord};
        let corpus = corpus(8);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let (reference, _) = run_corpus_suite_traced(&corpus, &config, 1, &off);

        let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string()))
            .expect("bind a loopback test server");
        let addr = listener.local_addr().clone();
        let server = std::thread::spawn(move || {
            serve_listener(listener, &ServeOptions::default(), &fd_trace::TraceConfig::on())
        });
        let mut options = DispatchOptions::new(vec![addr.clone()]);
        options.shards = 2;
        let run = dispatch(&corpus, &config, &options, &off).expect("dispatch completes");
        let reply = request_once(&addr, ServeRequest::Shutdown, Duration::from_secs(60));
        assert_eq!(reply, Ok(ServeResponse::Bye));
        let served = server.join().expect("no panic").expect("no serve error");
        assert_eq!(run.merged.run.outcome_digest(), reference.outcome_digest());

        // Session track → whether a job was submitted on it; the others
        // carried only a probe or the `Shutdown`.
        let mut sessions: BTreeMap<u64, bool> = BTreeMap::new();
        for record in &served.trace.records {
            let TraceRecord::Event(e) = record else { continue };
            match e.event {
                TraceEvent::ConnectionOpened { .. } => {
                    sessions.entry(e.track).or_default();
                }
                TraceEvent::JobSubmitted { .. } => *sessions.entry(e.track).or_default() = true,
                _ => {}
            }
        }
        assert_eq!(sessions.len() as u64, served.incidents.connections_opened);
        let leases = run.summary.workers[0].assignments;
        let job_connections = sessions.values().filter(|submitted| **submitted).count();
        assert_eq!(leases, 2, "{:?}", run.summary);
        assert!(
            job_connections <= leases,
            "{job_connections} connections submitted 8 jobs under {leases} leases"
        );
    }

    #[test]
    fn dead_endpoint_is_quarantined_and_its_shards_reassigned() {
        let corpus = corpus(4);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let (reference, _) = run_corpus_suite_traced(&corpus, &config, 2, &off);

        let (live, server) = spawn_server(1);
        // Port 1 on loopback is essentially never bound: instant refusal.
        let dead = ListenAddr::Tcp("127.0.0.1:1".to_string());
        let mut options = DispatchOptions::new(vec![dead, live.clone()]);
        options.shards = 2;
        options.job_deadline = Duration::from_secs(5);
        options.job_attempts = 2;
        options.quarantine_backoff = Duration::from_millis(100);
        options.heartbeat_interval = Duration::from_millis(50);
        options.stall_timeout = Duration::from_secs(60);
        let run = dispatch(&corpus, &config, &options, &off).expect("dispatch completes");
        shutdown(&live, server);

        assert_eq!(run.merged.run.outcome_digest(), reference.outcome_digest());
        assert!(
            run.summary.workers[0].failures > 0,
            "the dead endpoint must have recorded failures: {:?}",
            run.summary
        );
        assert_eq!(
            run.summary.workers[1].shards_completed, 2,
            "the live endpoint completes everything: {:?}",
            run.summary
        );
    }

    #[test]
    fn resume_skips_validated_shards_and_preserves_the_digest() {
        let corpus = corpus(4);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let journal = scratch("resume");

        let (addr, server) = spawn_server(1);
        let mut options = DispatchOptions::new(vec![addr.clone()]);
        options.shards = 2;
        options.journal = Some(journal.clone());
        let first = dispatch(&corpus, &config, &options, &off).expect("first dispatch");

        // A second fresh run refuses the existing journal.
        assert!(matches!(
            dispatch(&corpus, &config, &options, &off),
            Err(DispatchError::Journal(JournalError::AlreadyExists { .. }))
        ));

        // Resume re-validates both shard journals and re-runs nothing.
        options.resume = true;
        let second = dispatch(&corpus, &config, &options, &off).expect("resumed dispatch");
        shutdown(&addr, server);
        assert_eq!(second.summary.resumed_shards, 2);
        assert_eq!(
            second.summary.workers[0].assignments, 0,
            "nothing re-leased on a complete journal"
        );
        assert_eq!(second.merged.run.outcome_digest(), first.merged.run.outcome_digest());
        // Dispatch never reads its shard journals back, so pin them as
        // what `corpus --merge` accepts.
        let (remerged, _) = merge_shards(&corpus, &config, 0, &journal, 2, &off)
            .expect("a journaled farm's shard journals merge");
        assert_eq!(remerged.run.outcome_digest(), first.merged.run.outcome_digest());

        for shard in 0..2 {
            drop(std::fs::remove_file(shard_journal_path(&journal, shard, 2)));
        }
        drop(std::fs::remove_file(&journal));
    }

    /// Serves every connection to a fake endpoint on its own thread,
    /// answering each request with `answer`, until the returned stop
    /// function is called; stopping joins every connection thread.
    fn fake_endpoint(
        answer: impl Fn(ServeRequest) -> ServeResponse + Send + Sync + 'static,
    ) -> (ListenAddr, impl FnOnce()) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a fake endpoint");
        let addr = ListenAddr::Tcp(listener.local_addr().expect("bound").to_string());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stopped = stop.clone();
        let accepting = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                for stream in listener.incoming() {
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let answer = &answer;
                    scope.spawn(move || {
                        let mut frames = FrameBuffer::new();
                        let mut chunk = [0u8; 64 * 1024];
                        loop {
                            while let Ok(Some(payload)) = frames.next_frame() {
                                let request = decode_payload::<ServeRequest>(&payload)
                                    .expect("the coordinator sends decodable requests");
                                let body = answer(request.body);
                                let frame = encode_frame(&Envelope { id: request.id, body });
                                if stream.write_all(&frame).is_err() {
                                    return;
                                }
                            }
                            match stream.read(&mut chunk) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => frames.push(&chunk[..n]),
                            }
                        }
                    });
                }
            })
        });
        let wake = addr.clone();
        let stop_fn = move || {
            stop.store(true, Ordering::SeqCst);
            drop(AnyStream::connect(&wake));
            accepting.join().expect("the fake endpoint's threads exit");
        };
        (addr, stop_fn)
    }

    /// An endpoint restarted mid-run under another config is caught by
    /// the next heartbeat: the fake answers the first `Status` (the
    /// worker's startup probe) with the coordinator's digest and every
    /// later one with another, and holds each job's report until a
    /// heartbeat has been answered.
    #[test]
    fn a_heartbeat_that_reports_another_config_fails_the_run() {
        let gen = fd_appgen::templates::quickstart();
        let corpus = vec![(fd_apk::pack(&gen.app), gen.known_inputs.clone())];
        let config = FragDroidConfig::default();
        let report = crate::FragDroid::new(config.clone()).run(&gen.app, &gen.known_inputs);
        let (expected, other) = (config.findings_digest(), config.findings_digest() ^ 1);
        let statuses = std::sync::Arc::new(AtomicU64::new(0));
        let answered = statuses.clone();
        let (addr, stop) = fake_endpoint(move |request| match request {
            ServeRequest::Status => {
                let first = answered.fetch_add(1, Ordering::SeqCst) == 0;
                let digest = if first { expected } else { other };
                ServeResponse::Status {
                    queued: 0,
                    running: 0,
                    completed: 0,
                    rejected: 0,
                    workers: 1,
                    config_digest: Some(digest),
                }
            }
            ServeRequest::Submit { job, .. } => ServeResponse::Accepted { job },
            ServeRequest::Poll { job } | ServeRequest::Await { job, .. } => {
                let held = Instant::now();
                while answered.load(Ordering::SeqCst) < 2 && held.elapsed() < MAX_AWAIT {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ServeResponse::Finished { job, report: Box::new(report.clone()) }
            }
            ServeRequest::Shutdown => ServeResponse::Bye,
        });
        let mut options = DispatchOptions::new(vec![addr.clone()]);
        options.heartbeat_interval = Duration::from_millis(10);
        let result = dispatch(&corpus, &config, &options, &fd_trace::TraceConfig::off());
        stop();
        assert!(statuses.load(Ordering::SeqCst) >= 2, "a heartbeat was answered");
        assert_eq!(
            result.map(|run| run.merged.run.outcome_digest()),
            Err(DispatchError::ConfigMismatch {
                endpoint: addr.to_string(),
                expected,
                found: other
            })
        );
    }

    /// A hung endpoint — it accepts every job and never settles one —
    /// costs the run about one `job_deadline` per job it held: each such
    /// job runs out its deadline there and re-runs on the live endpoint,
    /// and the merged digest is the reference.
    #[test]
    fn a_hung_endpoint_costs_one_job_deadline_per_job_it_held() {
        let corpus = corpus(4);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let (reference, _) = run_corpus_suite_traced(&corpus, &config, 2, &off);

        let (hung, stop) = fake_endpoint(|request| match request {
            ServeRequest::Status => ServeResponse::Status {
                queued: 0,
                running: 1,
                completed: 0,
                rejected: 0,
                workers: 1,
                config_digest: None,
            },
            ServeRequest::Submit { job, .. } => ServeResponse::Accepted { job },
            // Holds each wait as a busy server would, then still pending.
            ServeRequest::Await { job, wait_ms } => {
                std::thread::sleep(Duration::from_millis(wait_ms).min(MAX_AWAIT));
                ServeResponse::Pending { job }
            }
            ServeRequest::Poll { job } => ServeResponse::Pending { job },
            ServeRequest::Shutdown => ServeResponse::Bye,
        });
        let (live, server) = spawn_server(1);
        let mut options = DispatchOptions::new(vec![hung, live.clone()]);
        options.shards = 2;
        options.job_deadline = Duration::from_secs(2);
        options.quarantine_after = 1;
        let started = Instant::now();
        let run = dispatch(&corpus, &config, &options, &off);
        let wall = started.elapsed();
        shutdown(&live, server);
        stop();

        let run = run.expect("dispatch completes around the hung endpoint");
        assert_eq!(run.merged.run.outcome_digest(), reference.outcome_digest());
        assert!(run.summary.workers[0].failures >= 1, "{:?}", run.summary);
        assert!(run.summary.reassignments >= 1, "{:?}", run.summary);
        assert!(wall < options.job_deadline * 3, "{wall:?} for one hung job: {:?}", run.summary);
    }

    /// A slow but healthy endpoint is never charged, however many
    /// heartbeats its shard outlives: it answers every probe and holds
    /// each `Await` ~50 ms before the report, so one shard of 8 apps
    /// spans some 40 heartbeat ticks, and a lease ends only at its commit.
    #[test]
    fn a_slow_healthy_endpoint_keeps_its_lease_to_the_end() {
        let gen = fd_appgen::templates::quickstart();
        let corpus = vec![(fd_apk::pack(&gen.app), gen.known_inputs.clone()); 8];
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let (reference, _) = run_corpus_suite_traced(&corpus, &config, 1, &off);
        let report = crate::FragDroid::new(config.clone()).run(&gen.app, &gen.known_inputs);
        let (addr, stop) = fake_endpoint(move |request| match request {
            ServeRequest::Status => ServeResponse::Status {
                queued: 0,
                running: 1,
                completed: 0,
                rejected: 0,
                workers: 1,
                config_digest: None,
            },
            ServeRequest::Submit { job, .. } => ServeResponse::Accepted { job },
            ServeRequest::Poll { job } | ServeRequest::Await { job, .. } => {
                std::thread::sleep(Duration::from_millis(50));
                ServeResponse::Finished { job, report: Box::new(report.clone()) }
            }
            ServeRequest::Shutdown => ServeResponse::Bye,
        });
        let mut options = DispatchOptions::new(vec![addr]);
        options.heartbeat_interval = Duration::from_millis(10);
        options.quarantine_after = 1;
        let run = dispatch(&corpus, &config, &options, &off);
        stop();

        let run = run.expect("dispatch completes on the slow endpoint");
        assert_eq!(run.merged.run.outcome_digest(), reference.outcome_digest());
        let summary = &run.summary;
        let worker = &summary.workers[0];
        assert_eq!((worker.failures, worker.quarantines), (0, 0), "{summary:?}");
        assert_eq!((summary.reassignments, summary.wasted_completions), (0, 0), "{summary:?}");
        assert_eq!(worker.assignments, 1, "{summary:?}");
    }

    /// An endpoint that runs another engine config fails the run before
    /// any of its findings are merged, naming the endpoint.
    #[test]
    fn an_endpoint_running_another_config_fails_the_run() {
        let corpus = corpus(2);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let (addr, server) = spawn_server_with(ServeOptions {
            config: FragDroidConfig::default().with_deadline(Duration::ZERO),
            ..ServeOptions::default()
        });
        let options = DispatchOptions::new(vec![addr.clone()]);
        let result = dispatch(&corpus, &config, &options, &off);
        shutdown(&addr, server);
        let error = result.expect_err("a mismatched endpoint fails the run");
        assert_eq!(
            error,
            DispatchError::ConfigMismatch {
                endpoint: addr.to_string(),
                expected: config.findings_digest(),
                found: FragDroidConfig::default().with_deadline(Duration::ZERO).findings_digest(),
            }
        );
        assert!(error.to_string().contains(&addr.to_string()), "{error}");
    }
}
