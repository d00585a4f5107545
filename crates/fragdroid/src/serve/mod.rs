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
//! - **socket** ([`serve_listener`]) — a TCP or Unix listener that
//!   accepts many concurrent sessions, enforces a connection cap (excess
//!   connections get one typed [`ServeResponse::Overloaded`] frame and
//!   are closed), a per-connection write deadline, and a slow-loris idle
//!   timeout (a connection that completes no frame within the window is
//!   dropped).
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
//! served from the journal (a `Poll` byte-identically), unfinished ones are
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
pub use client::{request_once, ClientError, JobOutcome, SubmitClient};

use crate::checkpoint::JournalError;
use crate::config::FragDroidConfig;
use crate::pool::DevicePool;
use crate::report::RunReport;
use crate::suite::run_container_slot;
use fd_apk::corpus::{fnv1a, DIGEST_SEED};
use fd_droidsim::proto::{decode_payload, encode_frame, frame, from_hex, Envelope, FrameBuffer};
use journal::JobJournal;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The accept loop's nap after a failed `accept()` (EMFILE under load).
const ACCEPT_ERROR_NAP: Duration = Duration::from_millis(10);

/// Retry-after hint on [`ServeResponse::Draining`]: long enough for a
/// restart to come back up.
const DRAIN_RETRY_MS: u64 = 200;

/// Retry-after hint on [`ServeResponse::Overloaded`].
const OVERLOADED_RETRY_MS: u64 = 100;

/// The longest a session holds an [`ServeRequest::Await`] reply: below
/// the submit client's 2 s I/O timeout, so a held reply never reads as
/// a dead server.
pub const MAX_AWAIT: Duration = Duration::from_secs(1);

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
    /// [`ServeRequest::Poll`] that waits: while the job is queued or
    /// running, the reply is held until the job settles, a drain
    /// starts, or `min(wait_ms, MAX_AWAIT)` passes, and only then is
    /// [`ServeResponse::Pending`] sent. A server that predates this
    /// request cannot decode it and closes the session.
    Await {
        /// The id the submission used.
        job: u64,
        /// How long the client will wait for the reply, milliseconds;
        /// the server caps it at [`MAX_AWAIT`].
        wait_ms: u64,
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
    /// Reply to [`ServeRequest::Poll`] or [`ServeRequest::Await`]: still
    /// queued or running.
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
    /// Reply to [`ServeRequest::Await`]: the run finished. The report
    /// travels as a nested JSON object, decoded straight into a
    /// [`RunReport`]; the server splices its stored compact text in
    /// verbatim, byte-identical to encoding this value. A client that
    /// predates this reply cannot decode it and fails typed.
    Finished {
        /// The awaited job.
        job: u64,
        /// The report.
        report: Box<RunReport>,
    },
    /// Reply to [`ServeRequest::Poll`] or [`ServeRequest::Await`]: the
    /// input was refused (bad hex, ingestion-frontier rejection, or an
    /// unserializable report).
    Rejected {
        /// The polled job.
        job: u64,
        /// The typed refusal, rendered.
        reason: String,
    },
    /// Reply to [`ServeRequest::Poll`] or [`ServeRequest::Await`] for an
    /// id never accepted.
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
        /// Digest of the engine config every job runs with, backend
        /// aside, which a dispatch coordinator compares with its own.
        /// `None` from a server that predates the field.
        #[serde(default)]
        config_digest: Option<u64>,
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
    /// within this window of its last reply is closed (at its next
    /// read, which the window also bounds as the socket's read timeout).
    /// `0` disables the guard. Ignored in stdio mode.
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

    /// Connects a client stream to `addr`, giving up on each resolved
    /// TCP address after `timeout`: a host that drops SYNs would
    /// otherwise hold the connect for the kernel's whole SYN-retry time.
    /// A Unix connect stays plain; it never leaves the host, and std has
    /// no timed Unix connect.
    pub(crate) fn connect_within(addr: &ListenAddr, timeout: Duration) -> std::io::Result<Self> {
        let ListenAddr::Tcp(spec) = addr else { return AnyStream::connect(addr) };
        let mut last = None;
        for resolved in spec.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Ok(AnyStream::Tcp(stream)),
                Err(error) => last = Some(error),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, format!("{spec} resolves to no address"))
        }))
    }

    fn try_clone(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
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
    /// The compact report JSON (the one copy the server keeps; `Poll`
    /// replies and the journal re-indent it), or the typed refusal.
    Done(Result<String, String>),
}

/// Everything the server remembers about one job id.
struct JobEntry {
    /// FNV digest of the submitted content — the idempotency check.
    digest: u64,
    state: JobState,
}

/// Shared queue + job table, guarded by one mutex. `Status` answers
/// from `queue.len()`, `running` and the two settled counters, never
/// walking `jobs`.
#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    jobs: BTreeMap<u64, JobEntry>,
    /// Jobs currently inside a worker.
    running: usize,
    /// Jobs settled with a report.
    completed: u64,
    /// Jobs settled with a refusal.
    rejected: u64,
    /// No new submissions; the listener stops accepting.
    draining: bool,
    /// Workers may exit once the queue is empty.
    shutdown: bool,
}

impl State {
    /// Records `job` as settled and counts it. Every path that settles a
    /// job comes through here: the worker, a refused admission and
    /// journal recovery.
    fn settle(&mut self, job: u64, digest: u64, result: Result<String, String>) {
        match &result {
            Ok(_) => self.completed += 1,
            Err(_) => self.rejected += 1,
        }
        self.jobs.insert(job, JobEntry { digest, state: JobState::Done(result) });
    }

    /// Admits `job` under `container_hex`: queued for a worker, or
    /// settled as a refusal when the text is not hex, so the refusal is
    /// pollable under its id.
    fn admit(
        &mut self,
        job: u64,
        digest: u64,
        container_hex: &str,
        inputs: BTreeMap<String, String>,
    ) -> bool {
        match from_hex(container_hex) {
            Ok(container) => {
                self.queue.push_back(Job { id: job, container, inputs });
                self.jobs.insert(job, JobEntry { digest, state: JobState::Queued });
                true
            }
            Err(e) => {
                self.settle(job, digest, Err(format!("bad container hex: {e}")));
                false
            }
        }
    }

    /// Restores what journal recovery found: finished jobs settle as
    /// journaled, unfinished ones are queued again.
    fn restore(&mut self, jobs: Vec<journal::RecoveredJob>) {
        for rec in jobs {
            match rec.result {
                Some(result) => self.settle(rec.job, rec.digest, result),
                None => {
                    self.admit(rec.job, rec.digest, &rec.container_hex, rec.inputs);
                }
            }
        }
    }

    /// Hands the next queued job to a worker, marking it running.
    fn take(&mut self) -> Option<Job> {
        let job = self.queue.pop_front()?;
        if let Some(entry) = self.jobs.get_mut(&job.id) {
            entry.state = JobState::Running;
        }
        self.running += 1;
        Some(job)
    }

    /// Settles a job a worker ran.
    fn finish(&mut self, job: u64, result: Result<String, String>) {
        self.running -= 1;
        if let Some(digest) = self.jobs.get(&job).map(|entry| entry.digest) {
            self.settle(job, digest, result);
        }
    }
}

/// Everything the session and worker loops share. Lock order: `state`
/// may be held while taking `journal` or `incidents`; never the
/// reverse.
struct Core<'a> {
    state: Mutex<State>,
    /// Wakes idle workers: one per submit, all at the drain. Only
    /// workers wait on it, so a submit's single wake-up always reaches
    /// one that can run the job.
    queued: Condvar,
    /// Wakes everyone waiting for jobs to settle (held `Await` replies,
    /// the drain): all on every completion and at the drain.
    settled: Condvar,
    options: &'a ServeOptions,
    trace_config: &'a fd_trace::TraceConfig,
    clock: fd_trace::TraceClock,
    journal: Mutex<Option<JobJournal>>,
    incidents: Mutex<ServeIncidents>,
    tracks: Mutex<Vec<fd_trace::TrackTrace>>,
    /// The socket front end's resolved listen address: the drain
    /// self-connects to it to wake the blocked `accept()`.
    wake: Option<ListenAddr>,
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
            let (j, recovery) = JobJournal::open_or_create(path, options.config.digest())
                .map_err(ServeError::Journal)?;
            incidents.torn_tail_bytes = recovery.torn_tail_bytes;
            incidents.jobs_recovered = recovery.jobs.len() as u64;
            state.restore(recovery.jobs);
            journal = Some(j);
        }
        Ok(Core {
            state: Mutex::new(state),
            queued: Condvar::new(),
            settled: Condvar::new(),
            options,
            trace_config,
            clock: fd_trace::TraceClock::start(),
            journal: Mutex::new(journal),
            incidents: Mutex::new(incidents),
            tracks: Mutex::new(Vec::new()),
            wake: None,
        })
    }

    fn bump<F: FnOnce(&mut ServeIncidents)>(&self, f: F) {
        f(&mut lock(&self.incidents));
    }

    /// Keeps a finished tracer's track for the merged trace, unless it
    /// recorded nothing (always, with tracing off).
    fn keep_track(&self, tracer: fd_trace::Tracer) {
        let track = tracer.finish();
        if !track.records.is_empty() || track.dropped > 0 {
            lock(&self.tracks).push(track);
        }
    }

    /// The front end's own track followed by every kept track.
    fn merged_trace(&self, tracer: fd_trace::Tracer) -> fd_trace::Trace {
        let mut trace = fd_trace::Trace::new("fragdroid serve");
        trace.absorb(tracer.finish());
        for track in lock(&self.tracks).drain(..) {
            trace.absorb(track);
        }
        trace
    }

    /// Marks the server draining + shut down and wakes everyone: the
    /// workers and held `Await` replies through both condvars, a socket
    /// accept loop blocked in `accept()` through one self-connect, which
    /// it then drops.
    fn begin_drain(&self) {
        let mut st = lock(&self.state);
        st.draining = true;
        st.shutdown = true;
        drop(st);
        self.queued.notify_all();
        self.settled.notify_all();
        if let Some(addr) = &self.wake {
            drop(AnyStream::connect(addr));
        }
    }

    /// Blocks until every queued and running job has finished.
    fn wait_drained(&self) {
        let mut st = lock(&self.state);
        while !(st.queue.is_empty() && st.running == 0) {
            st = match self.settled.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Answers an `Await`: where `job` stands, held while it is queued
    /// or running until it settles, a drain starts or `wait` passes. An
    /// `Await` that arrives mid-drain holds as usual: the drain runs
    /// every queued job, so its hold ends with the job.
    fn await_settled(&self, job: u64, wait: Duration) -> Standing {
        let until = Instant::now() + wait.min(MAX_AWAIT);
        let mut st = lock(&self.state);
        let draining = st.draining;
        loop {
            let unsettled = matches!(
                st.jobs.get(&job).map(|e| &e.state),
                Some(JobState::Queued | JobState::Running)
            );
            let left = until.saturating_duration_since(Instant::now());
            if !unsettled || st.draining != draining || left.is_zero() {
                return standing(&st, job);
            }
            st = match self.settled.wait_timeout(st, left) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
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

/// Where a job stands, copied out under the state lock so the reply is
/// rendered after the lock is released.
enum Standing {
    Unknown,
    Pending,
    /// The stored compact report JSON.
    Finished(String),
    Rejected(String),
}

/// Where `job` stands.
fn standing(st: &State, job: u64) -> Standing {
    match st.jobs.get(&job).map(|e| &e.state) {
        None => Standing::Unknown,
        Some(JobState::Queued | JobState::Running) => Standing::Pending,
        Some(JobState::Done(Ok(report))) => Standing::Finished(report.clone()),
        Some(JobState::Done(Err(reason))) => Standing::Rejected(reason.clone()),
    }
}

/// A reply on its way to the wire.
enum Reply {
    /// Encoded through [`encode_frame`].
    Typed(ServeResponse),
    /// A settled `Await`: the stored compact report, spliced into a
    /// [`ServeResponse::Finished`] frame by [`finished_frame`].
    Finished { job: u64, report: String },
}

impl Reply {
    /// The `Poll` reply for where `job` stands: a finished report is
    /// re-indented to the text `run --json` prints.
    fn poll(job: u64, standing: Standing) -> Reply {
        Reply::Typed(match standing {
            Standing::Unknown => ServeResponse::UnknownJob { job },
            Standing::Pending => ServeResponse::Pending { job },
            Standing::Finished(report) => {
                ServeResponse::Report { job, json: serde_json::indent(&report) }
            }
            Standing::Rejected(reason) => ServeResponse::Rejected { job, reason },
        })
    }

    /// The `Await` reply for where `job` stands: a finished report goes
    /// out as data, every other standing as the `Poll` reply.
    fn awaited(job: u64, standing: Standing) -> Reply {
        match standing {
            Standing::Finished(report) => Reply::Finished { job, report },
            other => Reply::poll(job, other),
        }
    }

    /// The frame answering request `id`.
    fn encode(self, id: u64) -> Vec<u8> {
        match self {
            Reply::Typed(body) => encode_frame(&Envelope { id, body }),
            Reply::Finished { job, report } => finished_frame(id, job, &report),
        }
    }
}

/// The frame of `ServeResponse::Finished { job, report }` answering
/// request `id`, with the stored compact `report` spliced in verbatim:
/// no escaping and no parse back into a [`RunReport`]. Byte-identical
/// to [`encode_frame`] of the typed reply, whose streamed keys sort
/// `body` < `id` and `job` < `report`.
fn finished_frame(id: u64, job: u64, report: &str) -> Vec<u8> {
    let payload =
        format!("{{\"body\":{{\"Finished\":{{\"job\":{job},\"report\":{report}}}}},\"id\":{id}}}");
    frame(payload.as_bytes())
}

/// Admits one submission: the `Submit` reply.
fn submit(
    core: &Core<'_>,
    tracer: &fd_trace::Tracer,
    job: u64,
    container_hex: String,
    inputs: BTreeMap<String, String>,
    workers: usize,
) -> ServeResponse {
    let digest = submission_digest(&container_hex, &inputs);
    let mut st = lock(&core.state);
    if let Some(entry) = st.jobs.get(&job) {
        if entry.digest == digest {
            core.bump(|i| i.resubmits_deduped += 1);
            return ServeResponse::Accepted { job };
        }
        core.bump(|i| i.conflicts += 1);
        return ServeResponse::Conflict {
            job,
            reason: format!(
                "job {job} was already submitted with different content \
                 (digest {:#018x} != {digest:#018x})",
                entry.digest
            ),
        };
    }
    if st.draining {
        core.bump(|i| i.draining_rejections += 1);
        return ServeResponse::Draining { job, retry_after_ms: DRAIN_RETRY_MS };
    }
    let cap = core.options.queue_cap;
    if cap != 0 && st.queue.len() >= cap {
        core.bump(|i| i.busy_rejections += 1);
        tracer.event(|| fd_trace::TraceEvent::QueueSaturated { job });
        let hint = busy_retry_after_ms(st.queue.len(), workers);
        return ServeResponse::Busy { job, retry_after_ms: hint };
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
            st.settle(job, digest, Err(reason.clone()));
            return ServeResponse::Rejected { job, reason };
        }
    }
    // A submission that is not even hex never reaches a worker.
    if st.admit(job, digest, &container_hex, inputs) {
        core.queued.notify_one();
    }
    tracer.event(|| fd_trace::TraceEvent::JobSubmitted { job });
    ServeResponse::Accepted { job }
}

/// Runs one request against the shared state. Returns the reply and
/// whether the session should end after sending it.
fn handle_request(
    core: &Core<'_>,
    tracer: &fd_trace::Tracer,
    body: ServeRequest,
    workers: usize,
) -> (Reply, bool) {
    let reply = match body {
        ServeRequest::Submit { job, container_hex, inputs } => {
            submit(core, tracer, job, container_hex, inputs, workers)
        }
        ServeRequest::Poll { job } => {
            let standing = standing(&lock(&core.state), job);
            return (Reply::poll(job, standing), false);
        }
        ServeRequest::Await { job, wait_ms } => {
            let standing = core.await_settled(job, Duration::from_millis(wait_ms));
            return (Reply::awaited(job, standing), false);
        }
        ServeRequest::Status => {
            let st = lock(&core.state);
            ServeResponse::Status {
                queued: st.queue.len() as u64,
                running: st.running as u64,
                completed: st.completed,
                rejected: st.rejected,
                workers: workers as u64,
                config_digest: Some(core.options.config.findings_digest()),
            }
        }
        ServeRequest::Shutdown => {
            tracer.event(|| fd_trace::TraceEvent::DrainStarted);
            // Draining begins only after the `Bye` reply is flushed
            // (in `session_loop`): flipping it here would let the
            // accept loop force-close this session before the reply
            // hits the wire, and the shutdown client would see EOF.
            return (Reply::Typed(ServeResponse::Bye), true);
        }
    };
    (Reply::Typed(reply), false)
}

/// Reads frames and dispatches requests until the session ends. A
/// corrupt frame ends the session without a reply, matching the device
/// agent; in socket mode only this session dies. With an `idle` window,
/// the session ends at the first read that would start after the window
/// has passed since its last reply; the socket's read timeout (the same
/// window) bounds a read that finds nothing. The clock restarts when a
/// reply is written, so a held `Await` reply is never client silence.
fn session_loop<R: Read, W: Write>(
    input: &mut R,
    output: &mut W,
    core: &Core<'_>,
    tracer: &fd_trace::Tracer,
    workers: usize,
    idle: Option<Duration>,
) -> Result<(), ServeError> {
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut last_reply = Instant::now();
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
            let Ok(envelope) = decode_payload::<ServeRequest>(&payload) else {
                core.bump(|i| i.protocol_errors += 1);
                return Ok(());
            };
            let (reply, end) = handle_request(core, tracer, envelope.body, workers);
            let written = output
                .write_all(&reply.encode(envelope.id))
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
            last_reply = Instant::now();
        }
        // Checked before every read, so bytes that trickle in without
        // completing a frame cannot hold the session open.
        if idle.is_some_and(|idle| last_reply.elapsed() >= idle) {
            core.bump(|i| i.idle_timeouts += 1);
            return Ok(());
        }
        match input.read(&mut chunk) {
            Ok(0) => return Ok(()), // client hung up, or the drain shut the socket
            Ok(n) => frames.push(&chunk[..n]),
            Err(e) => match e.kind() {
                // Interrupted, or the read timeout ran out: the idle
                // check above decides.
                ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {}
                _ => return Err(ServeError::io("read", e)),
            },
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
                if let Some(job) = st.take() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = match core.queued.wait(st) {
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
                    serde_json::to_string(&report)
                        .map_err(|e| format!("cannot serialize report: {e}"))
                });
        // The Completed record is appended (and fsynced) before the
        // in-memory table flips to Done, so a crash can lose the flip
        // but never serve a result it will later forget. The journal
        // lock is never held while taking the state lock.
        if let Some(j) = lock(&core.journal).as_mut() {
            if j.append_completed(job.id, &result).is_err() {
                core.bump(|i| i.journal_errors += 1);
            }
        }
        tracer.event(|| fd_trace::TraceEvent::JobCompleted {
            job: job.id,
            rejected: result.is_err(),
        });
        core.keep_track(tracer);
        core.bump(|i| {
            if result.is_ok() {
                i.jobs_completed += 1;
            } else {
                i.jobs_rejected += 1;
            }
        });
        lock(&core.state).finish(job.id, result);
        core.settled.notify_all();
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
        let io_result = session_loop(&mut input, &mut output, &core, &tracer, workers, None);
        core.begin_drain();
        io_result
    });

    result.map(|()| core.merged_trace(tracer))
}

/// Serves a bound socket listener until a [`ServeRequest::Shutdown`]
/// arrives on any session: accepts up to the connection cap, runs one
/// session thread per connection with the write deadline and the
/// idle-timeout guard, then drains — finishes and journals every queued
/// job, shuts down the sessions still live — and returns the merged
/// trace and incident counters.
pub fn serve_listener(
    listener: ServeListener,
    options: &ServeOptions,
    trace_config: &fd_trace::TraceConfig,
) -> Result<ServeSummary, ServeError> {
    let workers = options.workers.max(1);
    let max_connections = options.max_connections.max(1);
    let pool = DevicePool::from_config(&options.config, workers);
    let mut core = Core::new(options, trace_config)?;
    core.wake = Some(listener.local_addr().clone());
    let tracer = fd_trace::Tracer::new(trace_config, core.clock, 0);
    emit_recovery(&core, &tracer);

    let idle =
        (options.idle_timeout_ms != 0).then(|| Duration::from_millis(options.idle_timeout_ms));
    let write_timeout =
        (options.write_timeout_ms != 0).then(|| Duration::from_millis(options.write_timeout_ms));
    // The live sessions: an entry goes in when a connection is accepted
    // and comes out when its session thread ends. Its size is the
    // connection cap's count; the drain shuts down whatever is left.
    let live: Mutex<BTreeMap<u64, AnyStream>> = Mutex::new(BTreeMap::new());
    let mut next_conn = 1u64;

    let result = std::thread::scope(|scope| -> Result<(), ServeError> {
        for lane in 0..workers {
            let core = &core;
            let pool = &pool;
            scope.spawn(move || worker_loop(core, pool, lane));
        }
        loop {
            // A blocking accept: the drain wakes it with a self-connect,
            // and any connection accepted once draining began (that
            // wake included) is dropped, never turned into a session.
            let accepted = listener.inner.accept();
            if lock(&core.state).draining {
                break;
            }
            match accepted {
                Ok(stream) => {
                    let mut sessions = lock(&live);
                    if sessions.len() >= max_connections {
                        drop(sessions);
                        core.bump(|i| i.overloaded_rejections += 1);
                        reject_overloaded(stream, options);
                        continue;
                    }
                    let _ = stream.set_read_timeout(idle);
                    let _ = stream.set_write_timeout(write_timeout);
                    let Ok(entry) = stream.try_clone() else { continue };
                    let conn = next_conn;
                    next_conn += 1;
                    sessions.insert(conn, entry);
                    drop(sessions);
                    let (core, live) = (&core, &live);
                    scope.spawn(move || {
                        run_session(core, stream, conn, workers, idle);
                        lock(live).remove(&conn);
                    });
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient accept failure (EMFILE under load): absorb
                // and keep listening rather than killing the server.
                Err(_) => {
                    core.bump(|i| i.accept_errors += 1);
                    std::thread::sleep(ACCEPT_ERROR_NAP);
                }
            }
        }
        // Drain: workers already saw shutdown; wait until the queue is
        // empty and nothing is mid-run (every result is journaled as it
        // finishes), then shut down the live sessions. That wakes a
        // session blocked in a read (EOF) or a write (EPIPE); each ends
        // and drops its entry, and the scope joins them.
        core.wait_drained();
        for stream in lock(&live).values() {
            let _ = stream.shutdown_both();
        }
        Ok(())
    });

    if let ListenAddr::Unix(path) = listener.local_addr() {
        let _ = std::fs::remove_file(path);
    }

    let incidents = lock(&core.incidents).clone();
    result.map(|()| ServeSummary { trace: core.merged_trace(tracer), incidents })
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
fn reject_overloaded(mut stream: AnyStream, options: &ServeOptions) {
    let timeout = if options.write_timeout_ms == 0 { 1_000 } else { options.write_timeout_ms };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(timeout)));
    let _ = stream.write_all(&encode_frame(&Envelope {
        id: 0,
        body: ServeResponse::Overloaded { retry_after_ms: OVERLOADED_RETRY_MS },
    }));
    let _ = stream.flush();
}

/// One socket session: trace the connection open/close, split the
/// stream into reader + writer halves, and run the shared session loop
/// with the idle window.
fn run_session(
    core: &Core<'_>,
    stream: AnyStream,
    conn: u64,
    workers: usize,
    idle: Option<Duration>,
) {
    let tracer = fd_trace::Tracer::new(core.trace_config, core.clock, SESSION_TRACK_BASE + conn);
    tracer.event(|| fd_trace::TraceEvent::ConnectionOpened { conn });
    core.bump(|i| i.connections_opened += 1);
    match stream.try_clone() {
        // A session-level I/O failure (client reset, write timeout)
        // ends this session; the server and its queue live on.
        Ok(mut writer) => {
            let mut reader = stream;
            let _ = session_loop(&mut reader, &mut writer, core, &tracer, workers, idle);
        }
        Err(_) => core.bump(|i| i.accept_errors += 1),
    }
    tracer.event(|| fd_trace::TraceEvent::ConnectionClosed { conn });
    core.bump(|i| i.connections_closed += 1);
    core.keep_track(tracer);
}

#[cfg(test)]
mod tests;
