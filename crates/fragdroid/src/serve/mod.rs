//! `fragdroid serve` — a hardened, long-running job service over the
//! device wire plumbing: submit a packed container, get the job
//! acknowledged durably, poll for the finished report.
//!
//! The transport is the same length-prefixed frame protocol the
//! subprocess device agent speaks ([`fd_droidsim::proto`]): one
//! [`ServeRequest`] per frame in, one [`ServeResponse`] echoing the
//! request id per frame out. Two front ends share one state machine:
//!
//! - **stdio** ([`serve`]) — the single-client pipe mode `fd-cli`'s
//!   plain `serve` has always offered.
//! - **socket** ([`serve_listen`] / [`serve_listener`]) — a TCP or Unix
//!   listener that accepts many concurrent sessions, enforces a
//!   connection cap (excess connections get one typed
//!   [`ServeResponse::Overloaded`] frame and are closed), per-connection
//!   read/write deadlines, and a slow-loris idle timeout (a connection
//!   that completes no frame within the window is dropped).
//!
//! **Admission control.** Job ids are client-assigned and the queue is
//! bounded: a full queue answers [`ServeResponse::Busy`] with a
//! retry-after hint instead of growing without bound, and a draining
//! server answers [`ServeResponse::Draining`]. Resubmitting an id the
//! server already knows is idempotent — same content digest replies
//! [`ServeResponse::Accepted`] again without re-queuing or re-running;
//! a different digest under the same id is a [`ServeResponse::Conflict`].
//!
//! **Crash safety.** With [`ServeOptions::journal`] set, every accepted
//! submission is fsynced to an append-only checksummed journal *before*
//! the `Accepted` reply, and every finished report is fsynced after the
//! run (a durable log shared with the checkpoint, see `durable_log`). A
//! killed-and-restarted server replays the journal: finished jobs are
//! served byte-identically from the journal, unfinished ones are
//! re-queued, and clients resubmit idempotently by job id. A journal
//! corrupted mid-file refuses to start ([`ServeError::Journal`]).
//!
//! **Drain.** [`ServeRequest::Shutdown`] flips the server to draining:
//! the listener stops accepting, new submissions are refused typed,
//! workers finish (and journal) every queued job, and only then are the
//! remaining sessions closed.
//!
//! Failure behavior mirrors the device agent: a malformed frame ends
//! that session without a reply (resyncing a corrupt length-prefixed
//! stream is guesswork) — but in socket mode only the offending session
//! dies; the server and its queue live on.

mod chaos;
mod client;
pub(crate) mod journal;

pub use chaos::{ChaosConfig, ChaosStream};
pub use client::{ClientError, JobOutcome, SubmitClient};

use crate::checkpoint::JournalError;
use crate::config::FragDroidConfig;
use crate::pool::DevicePool;
use crate::suite::run_container_slot;
use fd_apk::corpus::{fnv1a, DIGEST_SEED};
use fd_droidsim::proto::{decode_payload, encode_frame, from_hex, Envelope, FrameBuffer};
use journal::JobJournal;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often a socket session wakes from a blocked read to check the
/// idle deadline and the server's stop flag. Doubles as the read
/// timeout on the socket.
const SESSION_TICK: Duration = Duration::from_millis(25);

/// How often the accept loop polls for the drain flag.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Retry-after hint on [`ServeResponse::Draining`]: long enough for a
/// restart to come back up.
const DRAIN_RETRY_MS: u64 = 200;

/// Retry-after hint on [`ServeResponse::Overloaded`].
const OVERLOADED_RETRY_MS: u64 = 100;

/// Trace-track offset for connection sessions, far above any realistic
/// job id so session tracks never collide with per-job worker tracks.
const SESSION_TRACK_BASE: u64 = 1 << 32;

/// Everything a client can ask the serve loop.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServeRequest {
    /// Enqueue one app under a client-assigned job id. The reply is an
    /// immediate [`ServeResponse::Accepted`] (durable when a journal is
    /// configured), [`ServeResponse::Busy`] when the queue is full, or
    /// [`ServeResponse::Draining`] during shutdown. Rejection of the
    /// content itself (bad hex, refused container) surfaces later
    /// through [`ServeRequest::Poll`]. Resubmitting the same id with
    /// the same content is idempotent; with different content it is a
    /// [`ServeResponse::Conflict`].
    Submit {
        /// The client-assigned job id, the idempotency key.
        job: u64,
        /// The packed container, hex-encoded (binary-safe in JSON).
        container_hex: String,
        /// The app's known inputs, field id → value.
        inputs: BTreeMap<String, String>,
    },
    /// Ask for a job's result.
    Poll {
        /// The id the submission used.
        job: u64,
    },
    /// Ask for a queue snapshot.
    Status,
    /// Orderly shutdown: the server stops accepting, finishes every
    /// queued job (journaling each result), replies
    /// [`ServeResponse::Bye`] and exits.
    Shutdown,
}

/// Everything the serve loop can answer with.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServeResponse {
    /// Reply to [`ServeRequest::Submit`]: the job is queued (or already
    /// known under the same content — idempotent resubmission).
    Accepted {
        /// The job id to poll with.
        job: u64,
    },
    /// Reply to [`ServeRequest::Poll`]: still queued or running.
    Pending {
        /// The polled job.
        job: u64,
    },
    /// Reply to [`ServeRequest::Poll`]: the run finished.
    Report {
        /// The polled job.
        job: u64,
        /// The report, pretty-printed exactly as `fd-cli run --json`
        /// prints it.
        json: String,
    },
    /// Reply to [`ServeRequest::Poll`]: the input was refused (bad hex,
    /// ingestion-frontier rejection, or an unserializable report).
    Rejected {
        /// The polled job.
        job: u64,
        /// The typed refusal, rendered.
        reason: String,
    },
    /// Reply to [`ServeRequest::Poll`] for an id never accepted.
    UnknownJob {
        /// The polled job.
        job: u64,
    },
    /// Reply to [`ServeRequest::Submit`] when the bounded queue is
    /// full. Typed and retryable: nothing was queued or journaled; try
    /// again after the hint.
    Busy {
        /// The refused job id.
        job: u64,
        /// Suggested client back-off before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// Reply to [`ServeRequest::Submit`] while the server drains for
    /// shutdown. Nothing was queued; retry against the restarted
    /// server.
    Draining {
        /// The refused job id.
        job: u64,
        /// Suggested client back-off before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// Reply to [`ServeRequest::Submit`] reusing a known job id with
    /// *different* content. Permanent: pick a fresh id.
    Conflict {
        /// The conflicting job id.
        job: u64,
        /// What differed, rendered.
        reason: String,
    },
    /// The one frame a connection beyond the connection cap receives
    /// before the server closes it.
    Overloaded {
        /// Suggested client back-off before reconnecting, milliseconds.
        retry_after_ms: u64,
    },
    /// Reply to [`ServeRequest::Status`].
    Status {
        /// Jobs accepted but not yet picked up by a worker.
        queued: u64,
        /// Jobs a worker is currently running.
        running: u64,
        /// Jobs that finished with a report.
        completed: u64,
        /// Jobs that finished rejected.
        rejected: u64,
        /// Worker threads draining the queue.
        workers: u64,
    },
    /// Reply to [`ServeRequest::Shutdown`].
    Bye,
}

/// How a serve loop should run.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads (and device-pool lanes). Clamped to at least 1.
    pub workers: usize,
    /// The exploration configuration every job runs with.
    pub config: FragDroidConfig,
    /// Maximum jobs waiting in the queue before submissions get
    /// [`ServeResponse::Busy`]. `0` means unbounded.
    pub queue_cap: usize,
    /// Maximum concurrent socket sessions; excess connections get one
    /// [`ServeResponse::Overloaded`] frame and are closed. Clamped to
    /// at least 1. Ignored in stdio mode.
    pub max_connections: usize,
    /// Slow-loris guard: a socket session that completes no frame
    /// within this window is closed. `0` disables the guard. Ignored in
    /// stdio mode.
    pub idle_timeout_ms: u64,
    /// Per-connection write deadline, milliseconds. `0` means no
    /// deadline. Ignored in stdio mode.
    pub write_timeout_ms: u64,
    /// Path of the crash-safe job journal. `None` serves from memory
    /// only (a restart forgets every job).
    pub journal: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            config: FragDroidConfig::default(),
            queue_cap: 256,
            max_connections: 32,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            journal: None,
        }
    }
}

/// A typed serve failure: socket setup, session I/O the server cannot
/// shrug off, or a journal problem. `fd-cli` maps these to exit code 5.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// An I/O operation failed (bind, accept, stdio read/write …).
    Io {
        /// What was being attempted (`bind`, `read`, `write`, …).
        op: &'static str,
        /// The OS error, rendered.
        error: String,
    },
    /// The job journal failed (see [`JournalError`]).
    Journal(JournalError),
    /// A listen/connect address did not parse.
    BadAddr {
        /// The offending address string.
        addr: String,
        /// Why it was refused.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { op, error } => write!(f, "serve {op} failed: {error}"),
            ServeError::Journal(e) => write!(f, "serve job journal: {e}"),
            ServeError::BadAddr { addr, reason } => {
                write!(f, "bad serve address '{addr}': {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    fn io(op: &'static str, error: std::io::Error) -> Self {
        ServeError::Io { op, error: error.to_string() }
    }
}

/// Where a socket server listens (or a client connects): `unix:PATH`
/// or `HOST:PORT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP address, e.g. `127.0.0.1:7788`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses `unix:PATH` into [`ListenAddr::Unix`] and anything with a
    /// colon into [`ListenAddr::Tcp`].
    pub fn parse(s: &str) -> Result<ListenAddr, ServeError> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::BadAddr {
                    addr: s.to_string(),
                    reason: "empty unix socket path".to_string(),
                });
            }
            return Ok(ListenAddr::Unix(PathBuf::from(path)));
        }
        if s.contains(':') {
            return Ok(ListenAddr::Tcp(s.to_string()));
        }
        Err(ServeError::BadAddr {
            addr: s.to_string(),
            reason: "expected unix:PATH or HOST:PORT".to_string(),
        })
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound but not-yet-serving socket listener. Binding separately from
/// serving lets callers learn the resolved address (a TCP port 0 bind)
/// before the serve loop blocks.
pub struct ServeListener {
    inner: AnyListener,
    addr: ListenAddr,
}

impl ServeListener {
    /// Binds the address. A stale Unix socket file at the path is
    /// removed first.
    pub fn bind(addr: &ListenAddr) -> Result<ServeListener, ServeError> {
        match addr {
            ListenAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec).map_err(|e| ServeError::io("bind", e))?;
                let resolved = listener
                    .local_addr()
                    .map(|a| ListenAddr::Tcp(a.to_string()))
                    .unwrap_or_else(|_| addr.clone());
                Ok(ServeListener { inner: AnyListener::Tcp(listener), addr: resolved })
            }
            ListenAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| ServeError::io("unlink", e))?;
                }
                let listener = UnixListener::bind(path).map_err(|e| ServeError::io("bind", e))?;
                Ok(ServeListener {
                    inner: AnyListener::Unix(listener),
                    addr: ListenAddr::Unix(path.clone()),
                })
            }
        }
    }

    /// The resolved listen address (TCP port filled in after a `:0`
    /// bind).
    pub fn local_addr(&self) -> &ListenAddr {
        &self.addr
    }
}

enum AnyListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl AnyListener {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            AnyListener::Tcp(l) => l.set_nonblocking(on),
            AnyListener::Unix(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| AnyStream::Tcp(s)),
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

/// One accepted (or client-side connected) socket, TCP or Unix, with
/// the small deadline/clone/shutdown surface the serve loops need.
pub enum AnyStream {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    Unix(UnixStream),
}

impl AnyStream {
    /// Connects a client stream to `addr`.
    pub fn connect(addr: &ListenAddr) -> std::io::Result<AnyStream> {
        match addr {
            ListenAddr::Tcp(spec) => TcpStream::connect(spec).map(AnyStream::Tcp),
            ListenAddr::Unix(path) => UnixStream::connect(path).map(AnyStream::Unix),
        }
    }

    fn try_clone(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_nonblocking(on),
            AnyStream::Unix(s) => s.set_nonblocking(on),
        }
    }

    /// Sets the read deadline; `None` blocks forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(timeout),
            AnyStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Sets the write deadline; `None` blocks forever.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_write_timeout(timeout),
            AnyStream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            AnyStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

/// Counters the server keeps about its own weather: connections,
/// admission rejections, protocol trouble, journal recovery. Rendered
/// by `fd-report`'s serve incident summary.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeIncidents {
    /// Socket sessions accepted and served.
    pub connections_opened: u64,
    /// Socket sessions that ended (any reason).
    pub connections_closed: u64,
    /// Connections past the cap, answered `Overloaded` and closed.
    pub overloaded_rejections: u64,
    /// Submissions refused with `Busy` (queue full).
    pub busy_rejections: u64,
    /// Submissions refused with `Draining` (shutdown in progress).
    pub draining_rejections: u64,
    /// Submissions refused with `Conflict` (id reuse, new content).
    pub conflicts: u64,
    /// Idempotent resubmissions absorbed without re-execution.
    pub resubmits_deduped: u64,
    /// Sessions ended by a malformed frame or payload.
    pub protocol_errors: u64,
    /// Sessions dropped by the slow-loris idle timeout.
    pub idle_timeouts: u64,
    /// Transient `accept()` failures the listener absorbed.
    pub accept_errors: u64,
    /// Journal appends that failed (the result was still served from
    /// memory).
    pub journal_errors: u64,
    /// Jobs that finished with a report.
    pub jobs_completed: u64,
    /// Jobs that finished rejected.
    pub jobs_rejected: u64,
    /// Jobs restored from the journal at startup (completed or
    /// re-queued).
    pub jobs_recovered: u64,
    /// Bytes of torn journal tail truncated at recovery (a crash
    /// mid-append leaves these).
    pub torn_tail_bytes: u64,
}

/// What a socket serve run returns: the merged trace plus the incident
/// counters.
pub struct ServeSummary {
    /// The session + per-job trace (empty when tracing is off).
    pub trace: fd_trace::Trace,
    /// The server's incident counters.
    pub incidents: ServeIncidents,
}

/// One queued job.
struct Job {
    id: u64,
    container: Vec<u8>,
    inputs: BTreeMap<String, String>,
}

/// Where a job is in its lifecycle.
enum JobState {
    Queued,
    Running,
    Done(Result<String, String>),
}

/// Everything the server remembers about one job id.
struct JobEntry {
    /// FNV digest of the submitted content — the idempotency check.
    digest: u64,
    state: JobState,
}

/// Shared queue + job table, guarded by one mutex; the condvar wakes
/// idle workers on submit and the drain waiter on completion.
#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    jobs: BTreeMap<u64, JobEntry>,
    /// Jobs currently inside a worker.
    running: usize,
    /// No new submissions; the listener stops accepting.
    draining: bool,
    /// Workers may exit once the queue is empty.
    shutdown: bool,
}

/// Everything the session and worker loops share. Lock order: `state`
/// may be held while taking `journal` or `incidents`; never the
/// reverse.
struct Core<'a> {
    state: Mutex<State>,
    cvar: Condvar,
    options: &'a ServeOptions,
    trace_config: &'a fd_trace::TraceConfig,
    clock: fd_trace::TraceClock,
    journal: Mutex<Option<JobJournal>>,
    incidents: Mutex<ServeIncidents>,
    tracks: Mutex<Vec<fd_trace::TrackTrace>>,
}

impl<'a> Core<'a> {
    /// Builds the shared state, opening (and recovering) the job
    /// journal when one is configured.
    fn new(
        options: &'a ServeOptions,
        trace_config: &'a fd_trace::TraceConfig,
    ) -> Result<Core<'a>, ServeError> {
        let mut state = State::default();
        let mut incidents = ServeIncidents::default();
        let mut journal = None;
        if let Some(path) = &options.journal {
            let digest = config_digest(&options.config);
            let (j, recovery) =
                JobJournal::open_or_create(path, digest).map_err(ServeError::Journal)?;
            incidents.torn_tail_bytes = recovery.torn_tail_bytes;
            for rec in recovery.jobs {
                incidents.jobs_recovered += 1;
                match rec.result {
                    Some(result) => {
                        state.jobs.insert(
                            rec.job,
                            JobEntry { digest: rec.digest, state: JobState::Done(result) },
                        );
                    }
                    None => match from_hex(&rec.container_hex) {
                        Ok(container) => {
                            state.queue.push_back(Job {
                                id: rec.job,
                                container,
                                inputs: rec.inputs,
                            });
                            state.jobs.insert(
                                rec.job,
                                JobEntry { digest: rec.digest, state: JobState::Queued },
                            );
                        }
                        Err(e) => {
                            state.jobs.insert(
                                rec.job,
                                JobEntry {
                                    digest: rec.digest,
                                    state: JobState::Done(Err(format!("bad container hex: {e}"))),
                                },
                            );
                        }
                    },
                }
            }
            journal = Some(j);
        }
        Ok(Core {
            state: Mutex::new(state),
            cvar: Condvar::new(),
            options,
            trace_config,
            clock: fd_trace::TraceClock::start(),
            journal: Mutex::new(journal),
            incidents: Mutex::new(incidents),
            tracks: Mutex::new(Vec::new()),
        })
    }

    fn bump<F: FnOnce(&mut ServeIncidents)>(&self, f: F) {
        f(&mut lock(&self.incidents));
    }

    /// Marks the server draining + shut down and wakes everyone.
    fn begin_drain(&self) {
        let mut st = lock(&self.state);
        st.draining = true;
        st.shutdown = true;
        drop(st);
        self.cvar.notify_all();
    }

    /// Blocks until every queued and running job has finished.
    fn wait_drained(&self) {
        let mut st = lock(&self.state);
        while !(st.queue.is_empty() && st.running == 0) {
            st = match self.cvar.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// FNV digest of the full config; journal headers refuse to mix
/// configurations, mirroring the checkpoint fingerprint.
fn config_digest(config: &FragDroidConfig) -> u64 {
    fnv1a(DIGEST_SEED, format!("{config:?}").as_bytes())
}

/// FNV digest of one submission's content — the idempotency key's
/// value side.
fn submission_digest(container_hex: &str, inputs: &BTreeMap<String, String>) -> u64 {
    let mut hash = fnv1a(DIGEST_SEED, container_hex.as_bytes());
    for (key, value) in inputs {
        hash = fnv1a(hash, key.as_bytes());
        hash = fnv1a(hash, &[0]);
        hash = fnv1a(hash, value.as_bytes());
        hash = fnv1a(hash, &[1]);
    }
    hash
}

/// The retry-after hint for a full queue: grows with the backlog so
/// heavier congestion spreads retries wider.
fn busy_retry_after_ms(queued: usize, workers: usize) -> u64 {
    10 + (queued as u64 * 20) / workers.max(1) as u64
}

/// Locks a mutex, shrugging off poisoning (a panicked worker must not
/// wedge the session).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs one request against the shared state. Returns the reply and
/// whether the session should end after sending it.
fn handle_request(
    core: &Core<'_>,
    tracer: &fd_trace::Tracer,
    body: ServeRequest,
    workers: usize,
) -> (ServeResponse, bool) {
    match body {
        ServeRequest::Submit { job, container_hex, inputs } => {
            let digest = submission_digest(&container_hex, &inputs);
            let mut st = lock(&core.state);
            if let Some(entry) = st.jobs.get(&job) {
                if entry.digest == digest {
                    core.bump(|i| i.resubmits_deduped += 1);
                    return (ServeResponse::Accepted { job }, false);
                }
                core.bump(|i| i.conflicts += 1);
                return (
                    ServeResponse::Conflict {
                        job,
                        reason: format!(
                            "job {job} was already submitted with different content \
                             (digest {:#018x} != {digest:#018x})",
                            entry.digest
                        ),
                    },
                    false,
                );
            }
            if st.draining {
                core.bump(|i| i.draining_rejections += 1);
                return (ServeResponse::Draining { job, retry_after_ms: DRAIN_RETRY_MS }, false);
            }
            let cap = core.options.queue_cap;
            if cap != 0 && st.queue.len() >= cap {
                core.bump(|i| i.busy_rejections += 1);
                tracer.event(|| fd_trace::TraceEvent::QueueSaturated { job });
                let hint = busy_retry_after_ms(st.queue.len(), workers);
                return (ServeResponse::Busy { job, retry_after_ms: hint }, false);
            }
            // Durable admission: the Submitted record reaches disk
            // before the Accepted reply. The state lock is held across
            // the fsync on purpose — admission is serialized, so a
            // concurrent duplicate cannot slip in between the check
            // above and the journal append.
            if let Some(j) = lock(&core.journal).as_mut() {
                if let Err(e) = j.append_submitted(job, digest, &container_hex, &inputs) {
                    core.bump(|i| i.journal_errors += 1);
                    let reason = format!("journal append failed: {e}");
                    st.jobs.insert(
                        job,
                        JobEntry { digest, state: JobState::Done(Err(reason.clone())) },
                    );
                    return (ServeResponse::Rejected { job, reason }, false);
                }
            }
            match from_hex(&container_hex) {
                Ok(container) => {
                    st.queue.push_back(Job { id: job, container, inputs });
                    st.jobs.insert(job, JobEntry { digest, state: JobState::Queued });
                    core.cvar.notify_one();
                }
                // A submission that is not even hex never reaches a
                // worker; the refusal is pollable under its job id.
                Err(e) => {
                    st.jobs.insert(
                        job,
                        JobEntry {
                            digest,
                            state: JobState::Done(Err(format!("bad container hex: {e}"))),
                        },
                    );
                }
            }
            tracer.event(|| fd_trace::TraceEvent::JobSubmitted { job });
            (ServeResponse::Accepted { job }, false)
        }
        ServeRequest::Poll { job } => {
            let st = lock(&core.state);
            let reply = match st.jobs.get(&job).map(|e| &e.state) {
                None => ServeResponse::UnknownJob { job },
                Some(JobState::Queued) | Some(JobState::Running) => ServeResponse::Pending { job },
                Some(JobState::Done(Ok(json))) => ServeResponse::Report { job, json: json.clone() },
                Some(JobState::Done(Err(reason))) => {
                    ServeResponse::Rejected { job, reason: reason.clone() }
                }
            };
            (reply, false)
        }
        ServeRequest::Status => {
            let st = lock(&core.state);
            let mut counts = [0u64; 4];
            for entry in st.jobs.values() {
                match &entry.state {
                    JobState::Queued => counts[0] += 1,
                    JobState::Running => counts[1] += 1,
                    JobState::Done(Ok(_)) => counts[2] += 1,
                    JobState::Done(Err(_)) => counts[3] += 1,
                }
            }
            (
                ServeResponse::Status {
                    queued: counts[0],
                    running: counts[1],
                    completed: counts[2],
                    rejected: counts[3],
                    workers: workers as u64,
                },
                false,
            )
        }
        ServeRequest::Shutdown => {
            tracer.event(|| fd_trace::TraceEvent::DrainStarted);
            // Draining begins only after the `Bye` reply is flushed
            // (in `session_loop`): flipping it here would let the
            // accept loop force-close this session before the reply
            // hits the wire, and the shutdown client would see EOF.
            (ServeResponse::Bye, true)
        }
    }
}

/// Deadline/stop behavior of one session.
struct SessionMode<'a> {
    /// Close the session when no complete frame arrives within this
    /// window (socket sessions only).
    idle_timeout: Option<Duration>,
    /// Server-side force-stop flag, checked every read tick.
    stop: Option<&'a AtomicBool>,
}

impl SessionMode<'_> {
    /// Stdio: block forever, no stop flag.
    fn blocking() -> SessionMode<'static> {
        SessionMode { idle_timeout: None, stop: None }
    }
}

/// Reads frames and dispatches requests until the session ends. A
/// corrupt frame ends the session without a reply, matching the device
/// agent; in socket mode only this session dies.
fn session_loop<R: Read, W: Write>(
    input: &mut R,
    output: &mut W,
    core: &Core<'_>,
    tracer: &fd_trace::Tracer,
    workers: usize,
    mode: &SessionMode<'_>,
) -> Result<(), ServeError> {
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut last_frame = Instant::now();
    loop {
        loop {
            let payload = match frames.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    core.bump(|i| i.protocol_errors += 1);
                    return Ok(());
                }
            };
            last_frame = Instant::now();
            let Ok(envelope) = decode_payload::<ServeRequest>(&payload) else {
                core.bump(|i| i.protocol_errors += 1);
                return Ok(());
            };
            let (reply, end) = handle_request(core, tracer, envelope.body, workers);
            let written = output
                .write_all(&encode_frame(&Envelope { id: envelope.id, body: reply }))
                .and_then(|()| output.flush())
                .map_err(|e| ServeError::io("write", e));
            if end {
                // The `Bye` is on the wire (or the client is already
                // gone); now it is safe to flip the server to draining
                // and let the listener close every session, including
                // this one. Flipping before the write would let the
                // listener cut this session off mid-reply.
                core.begin_drain();
                return written;
            }
            written?;
        }
        if let Some(stop) = mode.stop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
        }
        match input.read(&mut chunk) {
            Ok(0) => return Ok(()), // client hung up
            Ok(n) => frames.push(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A read tick: enforce the slow-loris deadline, then
                // wait for more bytes.
                if let Some(idle) = mode.idle_timeout {
                    if last_frame.elapsed() >= idle {
                        core.bump(|i| i.idle_timeouts += 1);
                        return Ok(());
                    }
                }
            }
            Err(e) => return Err(ServeError::io("read", e)),
        }
    }
}

/// One worker: pop a job, run it on this lane's pooled device, journal
/// and store the finished report (or the typed refusal), repeat. Queued
/// jobs are drained even after shutdown is signaled, so an orderly
/// shutdown never abandons accepted work mid-queue.
fn worker_loop(core: &Core<'_>, pool: &DevicePool, lane: usize) {
    loop {
        let job = {
            let mut st = lock(&core.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    if let Some(entry) = st.jobs.get_mut(&job.id) {
                        entry.state = JobState::Running;
                    }
                    st.running += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = match core.cvar.wait(st) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let tracer = fd_trace::Tracer::new(core.trace_config, core.clock, job.id);
        let bytes = bytes::Bytes::from(job.container);
        let result =
            run_container_slot(&bytes, &job.inputs, &core.options.config, &tracer, pool, lane)
                .and_then(|(report, _package)| {
                    serde_json::to_string_pretty(&report)
                        .map_err(|e| format!("cannot serialize report: {e}"))
                });
        // The Completed record is appended (and fsynced) before the
        // in-memory table flips to Done, so a crash can lose the flip
        // but never serve a result it will later forget. The journal
        // lock is never held while taking the state lock.
        if let Some(j) = lock(&core.journal).as_mut() {
            let payload = match &result {
                Ok(json) => (true, json.as_str()),
                Err(reason) => (false, reason.as_str()),
            };
            if j.append_completed(job.id, payload.0, payload.1).is_err() {
                core.bump(|i| i.journal_errors += 1);
            }
        }
        tracer.event(|| fd_trace::TraceEvent::JobCompleted {
            job: job.id,
            rejected: result.is_err(),
        });
        lock(&core.tracks).push(tracer.finish());
        core.bump(|i| {
            if result.is_ok() {
                i.jobs_completed += 1;
            } else {
                i.jobs_rejected += 1;
            }
        });
        let mut st = lock(&core.state);
        if let Some(entry) = st.jobs.get_mut(&job.id) {
            entry.state = JobState::Done(result);
        }
        st.running -= 1;
        drop(st);
        core.cvar.notify_all();
    }
}

/// Runs the stdio serve loop until EOF, a protocol error, or an orderly
/// [`ServeRequest::Shutdown`], returning the session's trace (empty
/// when `trace_config` is off).
pub fn serve<R: Read, W: Write>(
    mut input: R,
    mut output: W,
    options: &ServeOptions,
    trace_config: &fd_trace::TraceConfig,
) -> Result<fd_trace::Trace, ServeError> {
    let workers = options.workers.max(1);
    let pool = DevicePool::from_config(&options.config, workers);
    let core = Core::new(options, trace_config)?;
    let tracer = fd_trace::Tracer::new(trace_config, core.clock, 0);
    emit_recovery(&core, &tracer);

    let result = std::thread::scope(|scope| -> Result<(), ServeError> {
        for lane in 0..workers {
            let core = &core;
            let pool = &pool;
            scope.spawn(move || worker_loop(core, pool, lane));
        }
        let io_result = session_loop(
            &mut input,
            &mut output,
            &core,
            &tracer,
            workers,
            &SessionMode::blocking(),
        );
        core.begin_drain();
        io_result
    });

    let mut trace = fd_trace::Trace::new("fragdroid serve");
    trace.absorb(tracer.finish());
    for track in lock(&core.tracks).drain(..) {
        trace.absorb(track);
    }
    result.map(|()| trace)
}

/// Binds `addr` and serves it — [`ServeListener::bind`] +
/// [`serve_listener`].
pub fn serve_listen(
    addr: &ListenAddr,
    options: &ServeOptions,
    trace_config: &fd_trace::TraceConfig,
) -> Result<ServeSummary, ServeError> {
    serve_listener(ServeListener::bind(addr)?, options, trace_config)
}

/// Serves a bound socket listener until a [`ServeRequest::Shutdown`]
/// arrives on any session: accepts up to the connection cap, runs one
/// session thread per connection with read/write deadlines and the
/// idle-timeout guard, then drains — finishes and journals every queued
/// job, closes the remaining sessions — and returns the merged
/// trace and incident counters.
pub fn serve_listener(
    listener: ServeListener,
    options: &ServeOptions,
    trace_config: &fd_trace::TraceConfig,
) -> Result<ServeSummary, ServeError> {
    let workers = options.workers.max(1);
    let max_connections = options.max_connections.max(1);
    let pool = DevicePool::from_config(&options.config, workers);
    let core = Core::new(options, trace_config)?;
    let tracer = fd_trace::Tracer::new(trace_config, core.clock, 0);
    emit_recovery(&core, &tracer);

    listener.inner.set_nonblocking(true).map_err(|e| ServeError::io("set_nonblocking", e))?;
    let stop_sessions = AtomicBool::new(false);
    let active = AtomicUsize::new(0);
    let next_conn = AtomicU64::new(1);
    let session_handles: Mutex<Vec<AnyStream>> = Mutex::new(Vec::new());

    let result = std::thread::scope(|scope| -> Result<(), ServeError> {
        for lane in 0..workers {
            let core = &core;
            let pool = &pool;
            scope.spawn(move || worker_loop(core, pool, lane));
        }
        loop {
            if lock(&core.state).draining {
                break;
            }
            match listener.inner.accept() {
                Ok(stream) => {
                    if active.load(Ordering::Acquire) >= max_connections {
                        core.bump(|i| i.overloaded_rejections += 1);
                        reject_overloaded(stream, options);
                        continue;
                    }
                    let Ok(()) = stream.set_nonblocking(false) else { continue };
                    let _ = stream.set_read_timeout(Some(SESSION_TICK));
                    if options.write_timeout_ms != 0 {
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(
                            options.write_timeout_ms,
                        )));
                    }
                    let Ok(handle) = stream.try_clone() else { continue };
                    lock(&session_handles).push(handle);
                    active.fetch_add(1, Ordering::AcqRel);
                    let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                    let core = &core;
                    let active = &active;
                    let stop = &stop_sessions;
                    scope.spawn(move || {
                        run_session(core, stream, conn, workers, stop);
                        active.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept failure (EMFILE under load): absorb
                // and keep listening rather than killing the server.
                Err(_) => {
                    core.bump(|i| i.accept_errors += 1);
                    std::thread::sleep(ACCEPT_TICK);
                }
            }
        }
        // Drain: workers already saw shutdown; wait until the queue is
        // empty and nothing is mid-run (every result is journaled as it
        // finishes), then close what sessions remain.
        core.wait_drained();
        stop_sessions.store(true, Ordering::Relaxed);
        for handle in lock(&session_handles).drain(..) {
            let _ = handle.shutdown_both();
        }
        Ok(())
    });

    if let ListenAddr::Unix(path) = listener.local_addr() {
        let _ = std::fs::remove_file(path);
    }

    let mut trace = fd_trace::Trace::new("fragdroid serve");
    trace.absorb(tracer.finish());
    for track in lock(&core.tracks).drain(..) {
        trace.absorb(track);
    }
    let incidents = lock(&core.incidents).clone();
    result.map(|()| ServeSummary { trace, incidents })
}

/// Emits the journal-recovery trace event when startup restored jobs.
fn emit_recovery(core: &Core<'_>, tracer: &fd_trace::Tracer) {
    let recovered = lock(&core.incidents).jobs_recovered;
    if recovered > 0 {
        tracer.event(|| fd_trace::TraceEvent::JournalRecovered { jobs: recovered });
    }
}

/// Sends the one `Overloaded` frame a connection past the cap gets,
/// best-effort, then drops the stream.
fn reject_overloaded(stream: AnyStream, options: &ServeOptions) {
    let _ = stream.set_nonblocking(false);
    let timeout = if options.write_timeout_ms == 0 { 1_000 } else { options.write_timeout_ms };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(timeout)));
    let mut stream = stream;
    let _ = stream.write_all(&encode_frame(&Envelope {
        id: 0,
        body: ServeResponse::Overloaded { retry_after_ms: OVERLOADED_RETRY_MS },
    }));
    let _ = stream.flush();
}

/// One socket session: trace the connection open/close, split the
/// stream into reader + writer halves, and run the shared session loop
/// under the socket deadlines.
fn run_session(core: &Core<'_>, stream: AnyStream, conn: u64, workers: usize, stop: &AtomicBool) {
    let tracer = fd_trace::Tracer::new(core.trace_config, core.clock, SESSION_TRACK_BASE + conn);
    tracer.event(|| fd_trace::TraceEvent::ConnectionOpened { conn });
    core.bump(|i| i.connections_opened += 1);
    let idle = core.options.idle_timeout_ms;
    let mode = SessionMode {
        idle_timeout: (idle != 0).then(|| Duration::from_millis(idle)),
        stop: Some(stop),
    };
    match stream.try_clone() {
        Ok(mut writer) => {
            let mut reader = stream;
            // A session-level I/O failure (client reset, write timeout)
            // ends this session; the server and its queue live on.
            let _ = session_loop(&mut reader, &mut writer, core, &tracer, workers, &mode);
            // The accept loop keeps a clone of this stream for the
            // drain-time sweep, so dropping our halves does not close
            // the socket — shut it down so the client sees EOF now.
            let _ = reader.shutdown_both();
        }
        Err(_) => core.bump(|i| i.accept_errors += 1),
    }
    tracer.event(|| fd_trace::TraceEvent::ConnectionClosed { conn });
    core.bump(|i| i.connections_closed += 1);
    lock(&core.tracks).push(tracer.finish());
}

#[cfg(test)]
mod tests;
