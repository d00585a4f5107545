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
//! * **Leases, not assignments.** A grant is time-bounded and carries a
//!   globally monotonic generation counter (the
//!   [`DevicePool`](crate::pool::DevicePool) pattern, one level up). A
//!   lease that expires — or whose endpoint fails a heartbeat probe —
//!   is revoked and its shard goes back to the front of the queue.
//!   Stale holders notice mid-shard (every job re-checks the lease) and
//!   abandon their work; if a stale holder finishes anyway, first-wins
//!   completion makes the duplicate harmless.
//! * **Quarantine with revival.** An endpoint that fails
//!   `quarantine_after` shard attempts in a row is benched, then must
//!   pass a clean-transport `Status` probe before it is leased work
//!   again. The first bench lasts `quarantine_backoff`; every failed
//!   revival probe doubles the next one (jittered, capped at 16×), and a
//!   clean probe resets the doubling — the shared retry and health
//!   policy of DESIGN.md §12.
//! * **Stragglers.** Once the queue drains, the last in-flight shards
//!   are re-dispatched to idle endpoints; whoever finishes first
//!   commits, the other attempt is counted as wasted.
//! * **Idempotency by construction.** Job ids are global corpus
//!   indexes, so the server's `(id, digest)` dedup makes re-execution
//!   safe; shard journals are written atomically (tmp + rename) with
//!   content derived only from deterministic outcomes, so re-writing
//!   one replaces it with identical bytes.
//! * **A crash-safe coordinator journal.** Every grant, revocation,
//!   quarantine, and shard completion is one record in a durable log
//!   (`durable_log`, shared with the checkpoint and serve journals),
//!   fsynced as it is appended; `ShardDone` is appended only *after* the
//!   shard's own journal is durable. `dispatch --resume` replays the
//!   journal, re-validates every completed shard's file, and re-runs
//!   only what does not check out — so SIGKILL of the coordinator itself
//!   loses at most in-flight work.
//!
//! Completed shards merge through
//! [`merge_shards`], so the merged
//! [`SuiteRun::outcome_digest`](crate::suite::SuiteRun) is
//! byte-identical to an unsharded run of the same corpus and config.
//!
//! One operator responsibility remains: every serve endpoint must run
//! the *same* engine config as the coordinator passes to `dispatch` —
//! the `Status` probe carries no config digest, so a mismatched worker
//! is only caught by the report digest at merge time.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::checkpoint::{load_journal, write_complete_journal, Fingerprint, JournalError};
use crate::config::FragDroidConfig;
use crate::durable_log::{
    self, decode_line, encode_line, replay, DurableLog, LineError, LogRecord, Replay,
};
use crate::health::{Backoff, Streak};
use crate::report::RunReport;
use crate::serve::{
    request_once, ChaosConfig, JobOutcome, ListenAddr, ServeRequest, ServeResponse, SubmitClient,
};
use crate::shard::{merge_shards, shard_journal_path, MergedRun, ShardError, ShardSlice};
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
    /// Coordinator journal path. `None` disables crash-safety (shard
    /// journals go to a scratch path and are removed after the merge).
    pub journal: Option<PathBuf>,
    /// Resume a previous coordinator journal instead of starting fresh.
    pub resume: bool,
    /// A lease older than this is revoked and its shard re-queued.
    pub lease_timeout: Duration,
    /// Coordinator tick: health probes, expiry sweeps, straggler checks.
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
    /// 120 s leases, 250 ms heartbeat, quarantine after 3 straight
    /// failures for 500 ms, 60 s / 8-attempt jobs, 300 s stall guard.
    pub fn new(endpoints: Vec<ListenAddr>) -> DispatchOptions {
        DispatchOptions {
            endpoints,
            shards: 0,
            journal: None,
            resume: false,
            lease_timeout: Duration::from_secs(120),
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
    /// The split or the merge failed.
    Shard(ShardError),
    /// The corpus source could not be streamed to fingerprint the run.
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
            DispatchError::Shard(error) => write!(f, "{error}"),
            DispatchError::Source { detail } => write!(f, "corpus source failed: {detail}"),
            DispatchError::ShardCountMismatch { journal, requested } => write!(
                f,
                "coordinator journal records {journal} shards, this invocation asked for \
                 {requested}; shard counts must match to resume"
            ),
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

impl From<ShardError> for DispatchError {
    fn from(error: ShardError) -> Self {
        DispatchError::Shard(error)
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
    /// A lease was revoked (expiry, probe failure, or a failed run).
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
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
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
#[derive(Clone, Debug, Serialize)]
pub struct DispatchSummary {
    /// Shards the corpus was split into.
    pub shards: usize,
    /// Shards skipped on `--resume` because their journals validated.
    pub resumed_shards: usize,
    /// Shards re-granted after a revocation.
    pub reassignments: usize,
    /// Backup grants issued for stragglers after the queue drained.
    pub straggler_redispatches: usize,
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

/// One live lease.
struct Lease {
    shard: usize,
    worker: usize,
    generation: u64,
    granted_at: Instant,
}

impl Lease {
    fn is(&self, shard: usize, worker: usize, generation: u64) -> bool {
        self.shard == shard && self.worker == worker && self.generation == generation
    }
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
    assignments: usize,
    completed: usize,
    failures: usize,
    quarantines: usize,
}

impl WorkerSlot {
    fn new(options: &DispatchOptions, worker: usize) -> WorkerSlot {
        let base = options.quarantine_backoff;
        WorkerSlot {
            streak: Streak::new(options.quarantine_after),
            standing: Standing::Active,
            bench: Backoff::new(base, base.saturating_mul(BENCH_CAP))
                .jittered(options.jitter_seed ^ worker as u64),
            assignments: 0,
            completed: 0,
            failures: 0,
            quarantines: 0,
        }
    }

    /// Counts one failed shard attempt; `true` means it tripped the
    /// streak and benched the endpoint (callers journal + trace that).
    fn fail(&mut self, now: Instant) -> bool {
        self.failures += 1;
        let tripped = self.streak.fail();
        if tripped {
            self.quarantines += 1;
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
    done: BTreeSet<usize>,
    /// When each shard's last lease was revoked, for reassignment
    /// latency; cleared at the re-grant that consumes it.
    revoked_at: Vec<Option<Instant>>,
    workers: Vec<WorkerSlot>,
    next_generation: u64,
    shutdown: bool,
    fatal: Option<DispatchError>,
    last_progress: Instant,
    reassignments: usize,
    stragglers: usize,
    wasted: usize,
    reassignment_latencies: Vec<Duration>,
}

/// Mutex lock that shrugs off poisoning: the farm state stays usable
/// even if a worker thread panicked while holding the lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything worker threads and the coordinator share by reference.
struct DispatchCtx<'a> {
    source: &'a dyn CorpusSource,
    options: &'a DispatchOptions,
    shards: usize,
    base: &'a Path,
    shard_fingerprints: &'a [Fingerprint],
    ranges: &'a [Range<usize>],
    /// Shards whose `ShardDone` is already in the resumed journal;
    /// completing one again must not append a duplicate record.
    journaled_done: &'a BTreeSet<usize>,
    farm: &'a Mutex<Farm>,
    cv: &'a Condvar,
    log: &'a Option<Mutex<DurableLog>>,
}

impl DispatchCtx<'_> {
    /// Appends one record to the coordinator journal (fsync'd per
    /// record).
    fn append(&self, record: &DispatchRecord) {
        let Some(log) = self.log else { return };
        if let Err(error) = lock(log).append(record) {
            self.fail(error);
        }
    }

    /// A journal failure is fatal: a journal whose durability cannot be
    /// trusted is worse than stopping.
    fn fail(&self, error: JournalError) {
        let mut g = lock(self.farm);
        g.fatal.get_or_insert(DispatchError::Journal(error));
        g.shutdown = true;
        self.cv.notify_all();
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

/// Revokes every lease matching `pred`. Its shard goes back to the
/// front of the queue unless it is done, still leased elsewhere, or
/// already queued, and `now` starts its reassignment-latency clock. Its
/// holder is charged one failed attempt, which may bench the holder.
fn revoke_leases(g: &mut Farm, now: Instant, pred: impl Fn(&Lease) -> bool) -> Revocations {
    let (leases, kept): (Vec<Lease>, Vec<Lease>) =
        std::mem::take(&mut g.leases).into_iter().partition(|l| pred(l));
    g.leases = kept;
    let mut quarantined = Vec::new();
    for lease in &leases {
        let shard = lease.shard;
        if !(g.done.contains(&shard)
            || g.leases.iter().any(|l| l.shard == shard)
            || g.pending.contains(&shard))
        {
            g.revoked_at[shard] = Some(now);
            g.pending.push_front(shard);
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
        for Lease { shard, worker, generation, .. } in self.leases {
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
    if g.shutdown || g.fatal.is_some() || g.done.len() == ctx.shards {
        return Action::Exit;
    }
    if let Some(action) = g.workers[worker].sit_out(now, ctx.options.heartbeat_interval) {
        return action;
    }
    let mut i = 0;
    while i < g.pending.len() {
        let shard = g.pending[i];
        if g.done.contains(&shard) {
            g.pending.remove(i);
            continue;
        }
        if g.leases.iter().any(|l| l.shard == shard && l.worker == worker) {
            // A straggler backup of a shard this worker already holds
            // is pointless; leave it for someone else.
            i += 1;
            continue;
        }
        g.pending.remove(i);
        let generation = g.next_generation;
        g.next_generation += 1;
        g.leases.push(Lease { shard, worker, generation, granted_at: now });
        g.workers[worker].assignments += 1;
        g.last_progress = now;
        let mut reassigned = false;
        if let Some(revoked) = g.revoked_at[shard].take() {
            g.reassignments += 1;
            g.reassignment_latencies.push(now.duration_since(revoked));
            reassigned = true;
        }
        return Action::Run { shard, generation, reassigned };
    }
    Action::Wait(ctx.options.heartbeat_interval)
}

// ---------------------------------------------------------------------------
// Health probes

/// Clean-transport liveness probe: a `Status` round trip to a server
/// that will still take work. `Busy` means alive-but-saturated
/// (healthy); `Draining` means it is dying, and a hang-up, a timeout or
/// any other reply is unhealthy too.
fn healthy(addr: &ListenAddr, timeout: Duration) -> bool {
    matches!(
        request_once(addr, ServeRequest::Status, timeout),
        Ok(ServeResponse::Status { .. } | ServeResponse::Busy { .. })
    )
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
) -> Result<Vec<(usize, AppOutcome, AppMetrics)>, String> {
    let range = ctx.ranges[shard].clone();
    let mut client = SubmitClient::new(ctx.options.endpoints[worker].clone())
        .with_deadline(ctx.options.job_deadline)
        .with_max_attempts(ctx.options.job_attempts);
    let mut outcomes = Vec::with_capacity(range.len());
    for (local, global) in range.enumerate() {
        {
            let g = lock(ctx.farm);
            if g.shutdown || g.fatal.is_some() {
                return Err("coordinator shut down mid-shard".to_string());
            }
            if !g.leases.iter().any(|l| l.is(shard, worker, generation)) {
                return Err("lease revoked mid-shard".to_string());
            }
        }
        let started = Instant::now();
        let (outcome, package) = match ctx.source.fetch(global) {
            // A source-side rejection needs no server round trip; the
            // reason string matches what the in-process runner records.
            Err(reason) => (AppOutcome::Rejected { reason }, format!("container[{local}]")),
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
                        (AppOutcome::Rejected { reason }, format!("container[{local}]"))
                    }
                    Ok(JobOutcome::Report { json }) => {
                        let report = serde_json::from_str::<RunReport>(&json)
                            .map_err(|error| format!("job {job}: undecodable report: {error}"))?;
                        let package = manifest_package(&bytes)
                            .unwrap_or_else(|| format!("container[{local}]"));
                        (AppOutcome::ran(report), package)
                    }
                }
            }
        };
        let metrics = slot_metrics(&outcome, package, started.elapsed());
        outcomes.push((local, outcome, metrics));
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
    loop {
        let mut g = lock(ctx.farm);
        match next_action(&mut g, worker, ctx, Instant::now()) {
            Action::Exit => break,
            // Wait on the guard that chose to wait, so a wake-up sent
            // in between is not lost.
            Action::Wait(duration) => drop(ctx.cv.wait_timeout(g, duration)),
            Action::Probe => {
                drop(g);
                let clean = healthy(&ctx.options.endpoints[worker], PROBE_TIMEOUT);
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
                    Ok(outcomes) => {
                        // Durability order is the whole invariant:
                        // shard journal fsync'd first, ShardDone after.
                        let path = shard_journal_path(ctx.base, shard, ctx.shards);
                        let written = write_complete_journal(
                            &path,
                            ctx.shard_fingerprints[shard],
                            outcomes.iter().map(|(i, o, m)| (*i, o, m)),
                        );
                        if let Err(error) = written {
                            ctx.fail(error);
                            continue;
                        }
                        let won = {
                            let mut g = lock(ctx.farm);
                            g.leases.retain(|l| !l.is(shard, worker, generation));
                            let won = g.done.insert(shard);
                            if won {
                                g.workers[worker].completed += 1;
                                g.workers[worker].streak.clear();
                                g.last_progress = Instant::now();
                            } else {
                                // A straggler race we lost; the shard
                                // journal we rewrote holds identical
                                // bytes, so no harm done.
                                g.wasted += 1;
                            }
                            ctx.cv.notify_all();
                            won
                        };
                        if won && !ctx.journaled_done.contains(&shard) {
                            ctx.append(&DispatchRecord::ShardDone {
                                shard,
                                worker,
                                generation,
                                apps: outcomes.len(),
                            });
                        }
                    }
                    // If the coordinator revoked the lease first it also
                    // journaled the revocation; only a failure we
                    // discovered ourselves is ours to record.
                    Err(_reason) => {
                        let revoked = revoke_leases(&mut lock(ctx.farm), Instant::now(), |l| {
                            l.is(shard, worker, generation)
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

/// The coordinator's own duties, on the calling thread: revoke expired
/// leases, heartbeat-probe busy endpoints, re-dispatch stragglers, and
/// fail typed on a total stall.
fn coordinator_loop(
    ctx: &DispatchCtx<'_>,
    clock: fd_trace::TraceClock,
    trace_config: &fd_trace::TraceConfig,
) -> fd_trace::TrackTrace {
    let tracer = fd_trace::Tracer::new(trace_config, clock, 0);
    loop {
        let (expired, probes, stalled) = {
            let mut g = lock(ctx.farm);
            if g.done.len() == ctx.shards || g.fatal.is_some() || g.shutdown {
                g.shutdown = true;
                ctx.cv.notify_all();
                break;
            }
            let now = Instant::now();
            // Expired leases: the holder is presumed dead or wedged.
            let expired = revoke_leases(&mut g, now, |l| {
                now.duration_since(l.granted_at) >= ctx.options.lease_timeout
            });
            // Stragglers: the queue is dry, so idle endpoints may
            // as well race the slowest in-flight shards.
            if g.pending.is_empty() {
                let candidates: Vec<usize> = g
                    .leases
                    .iter()
                    .filter(|l| now.duration_since(l.granted_at) >= ctx.options.lease_timeout / 2)
                    .map(|l| l.shard)
                    .collect();
                for shard in candidates {
                    if g.done.contains(&shard)
                        || g.pending.contains(&shard)
                        || g.leases.iter().filter(|l| l.shard == shard).count() != 1
                    {
                        continue;
                    }
                    g.pending.push_back(shard);
                    g.stragglers += 1;
                    ctx.cv.notify_all();
                }
            }
            // Total stall: nothing has moved for stall_timeout.
            if now.duration_since(g.last_progress) >= ctx.options.stall_timeout {
                let leased = g.leases.len();
                let queued = g.pending.len();
                g.fatal = Some(DispatchError::Stalled {
                    completed: g.done.len(),
                    shards: ctx.shards,
                    detail: format!(
                        "no progress for {:?} ({leased} leases in flight, {queued} shards \
                         queued, every endpoint dead or quarantined)",
                        ctx.options.stall_timeout
                    ),
                });
                g.shutdown = true;
                ctx.cv.notify_all();
            }
            let probes: BTreeSet<usize> = g.leases.iter().map(|l| l.worker).collect();
            (expired, probes, g.shutdown)
        };
        expired.publish(ctx, &tracer);
        if stalled {
            continue;
        }
        // Heartbeats, off the lock: a failed probe revokes everything
        // the endpoint holds rather than waiting out the lease.
        for worker in probes {
            if !healthy(&ctx.options.endpoints[worker], PROBE_TIMEOUT) {
                let dead =
                    revoke_leases(&mut lock(ctx.farm), Instant::now(), |l| l.worker == worker);
                dead.publish(ctx, &tracer);
            }
        }
        // Re-check under the lock: a completion notified during the
        // probes must not leave the coordinator waiting a whole tick.
        let g = lock(ctx.farm);
        if g.done.len() < ctx.shards && g.fatal.is_none() && !g.shutdown {
            drop(ctx.cv.wait_timeout(g, ctx.options.heartbeat_interval));
        }
    }
    tracer.finish()
}

// ---------------------------------------------------------------------------
// Entry point

/// Distinguishes concurrent scratch journals within one process.
static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// Dispatches `source` across `options.endpoints`, drives every shard
/// to completion with lease-based fault tolerance, and merges the shard
/// journals into one run whose `outcome_digest` is byte-identical to an
/// unsharded run of the same corpus and config.
///
/// # Errors
/// [`DispatchError::NoEndpoints`] / [`DispatchError::ResumeWithoutJournal`]
/// for invalid invocations; [`DispatchError::Journal`] when the
/// coordinator journal cannot be created, resumed, or appended;
/// [`DispatchError::Stalled`] when every endpoint is dead and nothing
/// can progress; [`DispatchError::Shard`] when the final merge fails.
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
    let fingerprint =
        Fingerprint::of(source, config, 0).map_err(|detail| DispatchError::Source { detail })?;

    let mut ranges = Vec::with_capacity(shards);
    let mut shard_fingerprints = Vec::with_capacity(shards);
    for index in 0..shards {
        let slice = ShardSlice::new(source, shards, index)?;
        let fp = Fingerprint::of(&slice, config, 0)
            .map_err(|detail| DispatchError::Source { detail })?;
        ranges.push(slice.range());
        shard_fingerprints.push(fp);
    }

    let scratch = options.journal.is_none();
    let base: PathBuf = match &options.journal {
        Some(path) => path.clone(),
        None => std::env::temp_dir().join(format!(
            "fragdroid-dispatch-{}-{}",
            std::process::id(),
            SCRATCH.fetch_add(1, Ordering::Relaxed)
        )),
    };

    let mut done = BTreeSet::new();
    let mut journaled_done = BTreeSet::new();
    let mut resumed_shards = 0usize;
    let log: Option<Mutex<DurableLog>> = match &options.journal {
        None => None,
        Some(path) if options.resume && path.exists() => {
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
                // journals that still load, fingerprint-match, and
                // cover their whole slice. Anything else re-runs.
                match load_journal(&shard_journal_path(&base, shard, shards)) {
                    Ok(l)
                        if l.fingerprint == shard_fingerprints[shard]
                            && l.slots.len() == ranges[shard].len() =>
                    {
                        done.insert(shard);
                        resumed_shards += 1;
                    }
                    _ => {}
                }
            }
            Some(Mutex::new(DurableLog::resume(path, loaded.valid_len, 1)?))
        }
        Some(path) => {
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
            Some(Mutex::new(DurableLog::create(path, &header, 1)?))
        }
    };

    let farm = Mutex::new(Farm {
        pending: (0..shards).filter(|s| !done.contains(s)).collect(),
        leases: Vec::new(),
        done,
        revoked_at: vec![None; shards],
        workers: (0..options.endpoints.len()).map(|w| WorkerSlot::new(options, w)).collect(),
        next_generation: 0,
        shutdown: false,
        fatal: None,
        last_progress: Instant::now(),
        reassignments: 0,
        stragglers: 0,
        wasted: 0,
        reassignment_latencies: Vec::new(),
    });
    let cv = Condvar::new();
    let ctx = DispatchCtx {
        source,
        options,
        shards,
        base: &base,
        shard_fingerprints: &shard_fingerprints,
        ranges: &ranges,
        journaled_done: &journaled_done,
        farm: &farm,
        cv: &cv,
        log: &log,
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

    let summary = {
        let mut g = lock(&farm);
        if let Some(error) = g.fatal.take() {
            return Err(error);
        }
        DispatchSummary {
            shards,
            resumed_shards,
            reassignments: g.reassignments,
            straggler_redispatches: g.stragglers,
            wasted_completions: g.wasted,
            reassignment_latencies_ms: g
                .reassignment_latencies
                .iter()
                .map(|d| d.as_millis() as u64)
                .collect(),
            workers: options
                .endpoints
                .iter()
                .zip(g.workers.iter())
                .map(|(addr, slot)| WorkerStat {
                    endpoint: addr.to_string(),
                    assignments: slot.assignments,
                    shards_completed: slot.completed,
                    failures: slot.failures,
                    quarantines: slot.quarantines,
                })
                .collect(),
        }
    };

    let (merged, _merge_trace) = merge_shards(source, config, 0, &base, shards, trace_config)?;
    if scratch {
        for shard in 0..shards {
            drop(std::fs::remove_file(shard_journal_path(&base, shard, shards)));
        }
    }

    let mut trace = fd_trace::Trace::new("fragdroid-dispatch");
    for track in tracks {
        trace.absorb(track);
    }
    Ok(DispatchRun { merged, summary, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_listener, ServeListener, ServeOptions};
    use crate::suite::{run_corpus_suite_traced, SuiteContainer};
    use fd_droidsim::proto::{decode_payload, encode_frame, Envelope, FrameBuffer};
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn scratch(name: &str) -> PathBuf {
        static NEXT: TestCounter = TestCounter::new(0);
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
        let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string()))
            .expect("bind a loopback test server");
        let addr = listener.local_addr().clone();
        let options = ServeOptions { workers, ..ServeOptions::default() };
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
        let verdict = healthy(&addr, Duration::from_millis(200));
        endpoint.join().expect("fake endpoint exits");
        verdict
    }

    #[test]
    fn probe_counts_status_and_busy_as_healthy_and_nothing_else() {
        let status =
            ServeResponse::Status { queued: 0, running: 1, completed: 2, rejected: 0, workers: 1 };
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
        let mut options = DispatchOptions::new(Vec::new());
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
        assert_eq!((slot.failures, slot.quarantines), (4, 2));
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

        for shard in 0..2 {
            drop(std::fs::remove_file(shard_journal_path(&journal, shard, 2)));
        }
        drop(std::fs::remove_file(&journal));
    }
}
