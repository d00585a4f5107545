//! The retry-with-backoff serve client `fragdroid submit` and the
//! dispatch farm drive: it connects (TCP or Unix), submits jobs under
//! client-assigned ids over one kept connection, and polls each until
//! its report lands — reconnecting and resubmitting idempotently across
//! torn connections, `Busy` queues, draining servers, and server
//! restarts. With a [`ChaosConfig`] armed, every
//! connection is wrapped in a seeded [`ChaosStream`] and requests are
//! occasionally duplicated out of order, turning the client into the
//! deterministic chaos harness the serve property tests run.

use super::chaos::{ChaosConfig, ChaosStream};
use super::{AnyStream, ListenAddr, ServeRequest, ServeResponse};
use crate::health::Backoff;
use fd_droidsim::proto::{decode_payload, encode_frame, Envelope, FrameBuffer};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// How a driven job ended — both arms are *successful conversations*;
/// a `Rejected` is the server's typed refusal of the content, not a
/// transport failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The run finished; `json` is byte-identical to `run --json`.
    Report {
        /// The pretty-printed report.
        json: String,
    },
    /// The server refused the content (bad hex, rejected container).
    Rejected {
        /// The typed refusal, rendered.
        reason: String,
    },
}

/// A typed client failure. Everything transient is retried internally;
/// these are the ends of the road. `fd-cli` maps them to exit code 5.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Every reconnect attempt failed.
    Exhausted {
        /// The job being driven.
        job: u64,
        /// Attempts made.
        attempts: u32,
        /// The last failure, rendered.
        last: String,
    },
    /// The overall deadline passed before the job finished.
    DeadlineExceeded {
        /// The job being driven.
        job: u64,
        /// The last failure (or progress state), rendered.
        last: String,
    },
    /// The server knows this job id under different content — a
    /// permanent error; pick a fresh id.
    Conflict {
        /// The conflicting job id.
        job: u64,
        /// The server's rendering of the mismatch.
        reason: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { job, attempts, last } => {
                write!(f, "job {job}: gave up after {attempts} attempts: {last}")
            }
            ClientError::DeadlineExceeded { job, last } => {
                write!(f, "job {job}: deadline exceeded: {last}")
            }
            ClientError::Conflict { job, reason } => write!(f, "job {job}: conflict: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A submit-and-poll client with retry, backoff, and optional chaos.
/// It keeps one connection across [`Self::submit`] and
/// [`Self::submit_async`] calls, one job in flight at a time, and opens
/// a new one only after a broken step.
pub struct SubmitClient {
    addr: ListenAddr,
    max_attempts: u32,
    /// Reconnect naps; unjittered unless [`Self::with_backoff_jitter`]
    /// armed a seed (tests that pin exact sleep totals leave it off).
    backoff: Backoff,
    /// Naps between `Pending` polls: 100 µs, doubling up to 5 ms.
    poll: Backoff,
    deadline: Duration,
    io_timeout: Duration,
    chaos: Option<ChaosConfig>,
    connections: u64,
    /// The kept connection; `None` before the first call and after a break.
    conversation: Option<Conversation>,
}

impl SubmitClient {
    /// A client for `addr` with the default budgets: 8 reconnect
    /// attempts, 10 ms base backoff (the first nap is twice the base,
    /// doubling, capped at 500 ms, never past the deadline), poll naps
    /// of 100 µs doubling up to 5 ms, 60 s overall deadline per job, 2 s
    /// per-operation I/O timeout, no chaos. No connection is opened
    /// until the first submit.
    pub fn new(addr: ListenAddr) -> SubmitClient {
        SubmitClient {
            addr,
            max_attempts: 8,
            backoff: Backoff::new(Duration::from_millis(10), Duration::from_millis(500)),
            poll: Backoff::new(Duration::from_micros(100), Duration::from_millis(5)),
            deadline: Duration::from_secs(60),
            io_timeout: Duration::from_secs(2),
            chaos: None,
            connections: 0,
            conversation: None,
        }
    }

    /// Arms the seeded chaos schedule on every connection opened from
    /// now on; a kept connection keeps the schedule it was opened with.
    pub fn with_chaos(mut self, config: ChaosConfig) -> SubmitClient {
        self.chaos = Some(config);
        self
    }

    /// Overrides the overall per-job deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitClient {
        self.deadline = deadline;
        self
    }

    /// Overrides the reconnect-attempt budget (clamped to at least 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> SubmitClient {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Arms seeded *equal jitter* on the retry backoff: each nap keeps
    /// half its exponential value and draws the other half uniformly
    /// from the seeded stream. Deterministic backoff synchronizes retry
    /// storms when many clients lose the same server at once; the seed
    /// keeps tests reproducible.
    pub fn with_backoff_jitter(mut self, seed: u64) -> SubmitClient {
        self.backoff = self.backoff.jittered(seed);
        self
    }

    /// Submits `job` and waits for its report or typed refusal.
    pub fn submit(
        &mut self,
        job: u64,
        container_hex: &str,
        inputs: &BTreeMap<String, String>,
    ) -> Result<JobOutcome, ClientError> {
        match self.drive(job, container_hex, inputs, false)? {
            Some(outcome) => Ok(outcome),
            None => Err(ClientError::DeadlineExceeded {
                job,
                last: "drive returned without an outcome".to_string(),
            }),
        }
    }

    /// Submits `job` and returns once the server has (durably)
    /// accepted it, without waiting for the run.
    pub fn submit_async(
        &mut self,
        job: u64,
        container_hex: &str,
        inputs: &BTreeMap<String, String>,
    ) -> Result<(), ClientError> {
        self.drive(job, container_hex, inputs, true).map(|_| ())
    }

    /// The submit/poll/retry state machine shared by [`Self::submit`]
    /// and [`Self::submit_async`].
    fn drive(
        &mut self,
        job: u64,
        container_hex: &str,
        inputs: &BTreeMap<String, String>,
        accept_only: bool,
    ) -> Result<Option<JobOutcome>, ClientError> {
        let started = Instant::now();
        let mut attempts: u32 = 0;
        let mut last = String::from("no attempt made");
        loop {
            if started.elapsed() >= self.deadline {
                return Err(ClientError::DeadlineExceeded { job, last });
            }
            let opened = match self.conversation.take() {
                Some(c) => Ok(self.conversation.insert(c)),
                None => self.open().map(|c| self.conversation.insert(c)),
            };
            let request = ServeRequest::Submit {
                job,
                container_hex: container_hex.to_string(),
                inputs: inputs.clone(),
            };
            let step = match opened {
                // A failed connect is one more broken step.
                Err(error) => Step::Broken(error),
                Ok(c) => match c.call(request) {
                    Ok(ServeResponse::Accepted { .. }) if accept_only => return Ok(None),
                    Ok(ServeResponse::Accepted { .. }) => {
                        poll_until_settled(c, job, started, self.deadline, &mut self.poll)
                    }
                    Ok(ServeResponse::Busy { retry_after_ms, .. }) => {
                        Step::SleepResubmit(retry_after_ms)
                    }
                    Ok(ServeResponse::Draining { retry_after_ms, .. }) => {
                        Step::Broken(format!("server draining; retry after {retry_after_ms}ms"))
                    }
                    Ok(ServeResponse::Conflict { reason, .. }) => {
                        return Err(ClientError::Conflict { job, reason })
                    }
                    Ok(ServeResponse::Rejected { reason, .. }) => {
                        return Ok(Some(JobOutcome::Rejected { reason }))
                    }
                    Ok(other) => Step::Broken(format!("unexpected submit reply: {other:?}")),
                    Err(error) => Step::Broken(error),
                },
            };
            match step {
                Step::Settled(outcome) => return Ok(Some(outcome)),
                Step::Deadline(progress) => {
                    return Err(ClientError::DeadlineExceeded { job, last: progress })
                }
                Step::SleepResubmit(ms) => {
                    // Typed back-pressure: the server asked us to wait;
                    // the connection is still good, no attempt burned.
                    bounded_sleep(Duration::from_millis(ms), started, self.deadline);
                }
                Step::Resubmit => {}
                Step::Broken(error) => {
                    last = error;
                    self.conversation = None;
                    attempts += 1;
                    if attempts >= self.max_attempts {
                        return Err(ClientError::Exhausted { job, attempts, last });
                    }
                    bounded_sleep(self.backoff.nap(attempts), started, self.deadline);
                }
            }
        }
    }

    /// Opens (and chaos-wraps) a fresh connection.
    fn open(&mut self) -> Result<Conversation, String> {
        let stream = connect(&self.addr, self.io_timeout)?;
        self.connections += 1;
        Ok(match &self.chaos {
            Some(config) => {
                let per_conn = config.for_connection(self.connections);
                let dup_rng = StdRng::seed_from_u64(per_conn.seed.wrapping_add(0x5eed));
                let dup = Some((dup_rng, config.dup_per_mille));
                Conversation::new(Wire::Chaos(ChaosStream::new(stream, per_conn)), dup)
            }
            None => Conversation::new(Wire::Plain(stream), None),
        })
    }
}

/// Sends one request over a fresh clean-transport connection and
/// returns the server's reply; `timeout` bounds every read and write.
/// The health probe and `Shutdown` callers use this instead of speaking
/// the frame protocol themselves. Any transport or protocol trouble is
/// an `Err` with the failure rendered.
pub fn request_once(
    addr: &ListenAddr,
    request: ServeRequest,
    timeout: Duration,
) -> Result<ServeResponse, String> {
    Conversation::new(Wire::Plain(connect(addr, timeout)?), None).call(request)
}

/// Connects to `addr` with `timeout` on every read and write.
fn connect(addr: &ListenAddr, timeout: Duration) -> Result<AnyStream, String> {
    let stream = AnyStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| format!("set read timeout: {e}"))?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| format!("set write timeout: {e}"))?;
    Ok(stream)
}

/// What one submit-or-poll round decided.
enum Step {
    /// The job reached a terminal outcome.
    Settled(JobOutcome),
    /// The deadline passed mid-poll.
    Deadline(String),
    /// Server said `Busy`: sleep the hint, resubmit on the same
    /// connection.
    SleepResubmit(u64),
    /// Resubmit immediately (server forgot the job — restart without a
    /// journal).
    Resubmit,
    /// The connection is no longer trustworthy: reconnect with
    /// backoff.
    Broken(String),
}

/// Polls until the job settles, the connection breaks, or the deadline
/// passes.
fn poll_until_settled(
    c: &mut Conversation,
    job: u64,
    started: Instant,
    deadline: Duration,
    naps: &mut Backoff,
) -> Step {
    let mut round = 0;
    loop {
        if started.elapsed() >= deadline {
            return Step::Deadline("job accepted, report still pending".to_string());
        }
        match c.call(ServeRequest::Poll { job }) {
            Ok(ServeResponse::Pending { .. }) => {
                bounded_sleep(naps.nap(round), started, deadline);
                round = round.saturating_add(1);
            }
            Ok(ServeResponse::Report { json, .. }) => {
                return Step::Settled(JobOutcome::Report { json })
            }
            Ok(ServeResponse::Rejected { reason, .. }) => {
                return Step::Settled(JobOutcome::Rejected { reason })
            }
            // The server does not know the job: it restarted without a
            // journal (or we raced its recovery). Resubmitting under
            // the same id is idempotent either way.
            Ok(ServeResponse::UnknownJob { .. }) => return Step::Resubmit,
            Ok(other) => return Step::Broken(format!("unexpected poll reply: {other:?}")),
            Err(error) => return Step::Broken(error),
        }
    }
}

/// Sleeps `nap`, clipped so it never overshoots the deadline.
fn bounded_sleep(nap: Duration, started: Instant, deadline: Duration) {
    let remaining = deadline.saturating_sub(started.elapsed());
    let nap = nap.min(remaining);
    if !nap.is_zero() {
        std::thread::sleep(nap);
    }
}

/// A connection that is either honest or chaos-wrapped.
enum Wire {
    Plain(AnyStream),
    Chaos(ChaosStream<AnyStream>),
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Wire::Plain(s) => s.read(buf),
            Wire::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Wire::Plain(s) => s.write(buf),
            Wire::Chaos(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Wire::Plain(s) => s.flush(),
            Wire::Chaos(s) => s.flush(),
        }
    }
}

/// One request/reply exchange stream: monotonically-increasing request
/// ids, stale-duplicate replies skipped, optional chaos duplication of
/// the previous frame.
struct Conversation {
    wire: Wire,
    frames: FrameBuffer,
    next_id: u64,
    last_frame: Option<Vec<u8>>,
    /// Chaos duplication: the seeded stream and the per-mille rate.
    dup: Option<(StdRng, u32)>,
}

impl Conversation {
    fn new(wire: Wire, dup: Option<(StdRng, u32)>) -> Conversation {
        Conversation { wire, frames: FrameBuffer::new(), next_id: 1, last_frame: None, dup }
    }

    /// Sends one request and reads until its reply arrives. Any
    /// transport or protocol trouble is an `Err(String)` — the caller
    /// reconnects.
    fn call(&mut self, body: ServeRequest) -> Result<ServeResponse, String> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_frame(&Envelope { id, body });
        if let (Some((rng, per_mille)), Some(previous)) = (self.dup.as_mut(), &self.last_frame) {
            // Chaos reordering: occasionally replay the previous frame
            // first. The server must absorb the duplicate idempotently;
            // we skip its stale reply below.
            if rng.gen_range(0u32..1000) < *per_mille {
                self.wire.write_all(previous).map_err(|e| format!("write dup: {e}"))?;
            }
        }
        self.wire.write_all(&frame).map_err(|e| format!("write: {e}"))?;
        self.wire.flush().map_err(|e| format!("flush: {e}"))?;
        self.last_frame = Some(frame);

        let mut chunk = [0u8; 64 * 1024];
        loop {
            loop {
                let payload = match self.frames.next_frame() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(e) => return Err(format!("bad reply frame: {e:?}")),
                };
                let envelope = decode_payload::<ServeResponse>(&payload)
                    .map_err(|e| format!("bad reply payload: {e:?}"))?;
                if envelope.id == id {
                    return Ok(envelope.body);
                }
                if envelope.id > id {
                    return Err(format!(
                        "reply id {} is from the future (expected {id})",
                        envelope.id
                    ));
                }
                // A reply to a chaos-duplicated earlier request (or the
                // listener's id-0 Overloaded frame): surface the typed
                // overload, skip ordinary stale duplicates.
                if let ServeResponse::Overloaded { retry_after_ms } = envelope.body {
                    return Err(format!("server overloaded; retry after {retry_after_ms}ms"));
                }
            }
            match self.wire.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.frames.push(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{
        serve_listener, ServeError, ServeIncidents, ServeListener, ServeOptions, ServeSummary,
    };

    /// The reconnect naps the client has always slept: twice the 10 ms
    /// base on the first retry, doubling, capped at 500 ms; equal jitter
    /// keeps half and draws the other half from the seeded stream.
    fn reference_naps(seed: Option<u64>) -> Vec<Duration> {
        let mut rng = seed.map(StdRng::seed_from_u64);
        (1..=10u32)
            .map(|attempt| {
                let factor = 1u32 << attempt.min(6);
                let mut nap = (Duration::from_millis(10) * factor).min(Duration::from_millis(500));
                if let Some(rng) = rng.as_mut() {
                    let half = nap / 2;
                    nap = half + Duration::from_nanos(rng.gen_range(0..=half.as_nanos() as u64));
                }
                nap
            })
            .collect()
    }

    fn naps(mut client: SubmitClient) -> Vec<Duration> {
        (1..=10).map(|attempt| client.backoff.nap(attempt)).collect()
    }

    #[test]
    fn reconnect_naps_keep_their_schedule() {
        let addr = ListenAddr::Tcp("127.0.0.1:1".to_string());
        let plain = naps(SubmitClient::new(addr.clone()));
        let ms: Vec<u128> = plain.iter().map(Duration::as_millis).collect();
        assert_eq!(ms, [20, 40, 80, 160, 320, 500, 500, 500, 500, 500]);
        assert_eq!(plain, reference_naps(None));

        let jittered = naps(SubmitClient::new(addr.clone()).with_backoff_jitter(42));
        for (nap, full) in jittered.iter().zip(&plain) {
            assert!(*nap >= *full / 2 && nap <= full, "{nap:?} outside [{full:?}/2, {full:?}]");
        }
        assert_eq!(jittered, reference_naps(Some(42)), "the seeded schedule is unchanged");
        assert_eq!(jittered, naps(SubmitClient::new(addr).with_backoff_jitter(42)));
    }

    #[test]
    fn poll_naps_double_from_100us_up_to_the_poll_interval() {
        let mut client = SubmitClient::new(ListenAddr::Tcp("127.0.0.1:1".to_string()));
        let us: Vec<u128> = (0..9).map(|round| client.poll.nap(round).as_micros()).collect();
        assert_eq!(us, [100, 200, 400, 800, 1600, 3200, 5000, 5000, 5000]);
    }

    /// The quickstart app as (hex container, known inputs).
    fn quickstart() -> (String, BTreeMap<String, String>) {
        let generated = fd_appgen::templates::quickstart();
        (fd_droidsim::proto::to_hex(&fd_apk::pack(&generated.app)), generated.known_inputs)
    }

    /// Serves a loopback listener on a thread under `options`.
    fn spawn_server(
        options: ServeOptions,
    ) -> (ListenAddr, std::thread::JoinHandle<Result<ServeSummary, ServeError>>) {
        let listener =
            ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
        let addr = listener.local_addr().clone();
        let handle = std::thread::spawn(move || {
            serve_listener(listener, &options, &fd_trace::TraceConfig::off())
        });
        (addr, handle)
    }

    fn shutdown(
        addr: &ListenAddr,
        handle: std::thread::JoinHandle<Result<ServeSummary, ServeError>>,
    ) -> ServeIncidents {
        let reply = request_once(addr, ServeRequest::Shutdown, Duration::from_secs(60));
        assert_eq!(reply, Ok(ServeResponse::Bye));
        handle.join().expect("no panic").expect("no serve error").incidents
    }

    #[test]
    fn one_client_submits_every_job_over_one_connection() {
        let (addr, handle) = spawn_server(ServeOptions::default());
        let (hex, inputs) = quickstart();
        let mut client = SubmitClient::new(addr.clone());
        let reports: Vec<JobOutcome> =
            (1..=4).map(|job| client.submit(job, &hex, &inputs).expect("job settles")).collect();
        client.submit_async(5, &hex, &inputs).expect("job 5 is accepted");
        assert!(reports.iter().all(|r| *r == reports[0]), "one app, one report");
        assert_eq!(client.connections, 1, "five jobs, one connection");

        let incidents = shutdown(&addr, handle);
        // The client's one connection, plus the one `Shutdown` came on.
        assert_eq!(incidents.connections_opened, 2, "{incidents:?}");
        assert_eq!(incidents.jobs_completed, 5, "{incidents:?}");
    }

    #[test]
    fn a_kept_connection_the_server_idled_out_is_reopened() {
        let options = ServeOptions { idle_timeout_ms: 50, ..ServeOptions::default() };
        let (addr, handle) = spawn_server(options);
        let (hex, inputs) = quickstart();
        let mut client = SubmitClient::new(addr.clone());
        let first = client.submit(1, &hex, &inputs).expect("job 1 settles");
        // Outlast the idle window: the server drops the kept session.
        std::thread::sleep(Duration::from_millis(500));
        let second = client.submit(2, &hex, &inputs).expect("job 2 settles after a reconnect");
        assert_eq!(second, first, "the reconnected job serves the byte-identical report");
        assert_eq!(client.connections, 2, "exactly one reconnect");

        let incidents = shutdown(&addr, handle);
        assert_eq!(incidents.idle_timeouts, 1, "{incidents:?}");
    }

    #[test]
    fn failed_connects_spend_the_attempt_budget() {
        // Port 1 on loopback is essentially never bound: instant refusal.
        let addr = ListenAddr::Tcp("127.0.0.1:1".to_string());
        let mut client = SubmitClient::new(addr).with_max_attempts(3);
        match client.submit(7, "", &BTreeMap::new()) {
            Err(ClientError::Exhausted { job: 7, attempts: 3, last }) => {
                assert!(last.starts_with("connect 127.0.0.1:1"), "{last}");
            }
            other => panic!("expected Exhausted after 3 connects, got {other:?}"),
        }
    }
}
