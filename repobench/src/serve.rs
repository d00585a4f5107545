//! `serve-open`: an in-process journaled serve endpoint on TCP loopback,
//! driven open-loop at a few pinned arrival rates.
//!
//! Open loop means jobs are sent when they are *due*, whether or not
//! earlier ones finished, so a slow server faces a growing queue rather
//! than a politely waiting client. One generator thread writes Submit
//! frames on schedule; the calling thread reads every reply on the same
//! connection and polls the oldest outstanding jobs. Latency runs from a
//! job's due time to the arrival of its Report, so a stall is charged to
//! every request queued behind it; the generator's own lateness is
//! recorded, and a run where it fell behind is invalid.

use crate::corpus::{ensure_corpus, SETUP_REPS, TINY_APPS};
use crate::stats::{median, median_of, summarize, Summary};
use crate::{host, pins, Ctx, EndToEnd, Outcome};
use fd_appgen::stream::Profile;
use fd_droidsim::proto::{decode_payload, encode_frame, to_hex, Envelope, FrameBuffer};
use fragdroid::{
    serve_listener, FragDroid, FragDroidConfig, ListenAddr, ServeListener, ServeOptions,
    ServeRequest, ServeResponse, ServeSummary,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The pinned arrival ladder, `(jobs per second, jobs)`: from well below
/// the seed code's saturation point (about 750–1000 jobs/s with two
/// workers on a two-core host) to well above it. Each rung is one
/// segment; the queue drains between segments.
pub const LADDER: [(f64, usize); 3] = [(125.0, 500), (250.0, 1000), (1500.0, 1500)];
/// The ladder rate at which `latency_p50_ms` / `latency_p99_ms` are
/// reported; the rest of the budget is spent in more segments of
/// [`REFERENCE_JOBS`] jobs at this rate. Each latency metric is the
/// median over those segments of the segment's own quantile, so one
/// host hiccup moves one segment, not the result.
pub const REFERENCE_RATE: f64 = 250.0;
/// Jobs per reference segment: enough for a p99 with ten samples beyond.
pub const REFERENCE_JOBS: usize = 1000;
/// A rate is sustained when its tail latency stays within this limit and
/// its backlog does not grow: the median latency of the last quarter of
/// its jobs exceeds that of the first quarter by less than half of it.
pub const LATENCY_LIMIT_MS: f64 = 200.0;
/// The run is invalid when the generator's p99 lateness exceeds this.
/// Lateness is how far past its due time (or past the end of the
/// previous write, when the server's back-pressure blocked that write)
/// the generator woke: its own scheduling delay, not the server's.
pub const GENERATOR_SLACK_MS: f64 = 20.0;
/// Gap between polls of a job still pending.
const POLL_GAP: Duration = Duration::from_millis(1);
/// Queue-depth sampling period in traced runs.
const STATUS_EVERY: Duration = Duration::from_millis(20);
/// Jobs whose reports are digested against the pinned table.
pub const PINNED_JOBS: usize = 64;

/// One scheduled job: its id, its due time from the schedule start, and
/// its pre-encoded Submit frame.
pub struct Planned {
    /// The client-assigned job id.
    pub job: u64,
    /// When the job is due, from the schedule start.
    pub due: Duration,
    /// The encoded Submit frame.
    pub frame: Vec<u8>,
}

/// How a job ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Never settled (the run hit its deadline).
    Unsettled,
    /// A report, with its JSON.
    Report(String),
    /// A typed content rejection (settled, not failed).
    Rejected(String),
    /// A refusal or protocol surprise (failed).
    Failed(String),
}

/// One job's timeline, offsets from the schedule start.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// When it was due.
    pub due: Duration,
    /// When its reply settled it.
    pub settled: Option<Duration>,
    /// Polls sent for it.
    pub polls: u32,
    /// How it ended.
    pub reply: Reply,
}

impl JobResult {
    /// Due-to-settled latency, milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.settled.map(|s| s.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// Everything one open-loop schedule measured.
pub struct OpenLoopRun {
    /// Per job, in schedule order.
    pub jobs: Vec<JobResult>,
    /// Generator lateness per job, ms (see [`GENERATOR_SLACK_MS`]).
    pub lateness_ms: Vec<f64>,
    /// Submit → Accepted round trips, µs.
    pub submit_rtt_us: Vec<f64>,
    /// Poll → reply round trips, µs.
    pub poll_rtt_us: Vec<f64>,
    /// `queued` of each Status sample.
    pub queue_samples: Vec<f64>,
    /// Frame bytes written plus read.
    pub wire_bytes: u64,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// Asks the kernel to acknowledge the next received segment at once
/// (Linux `TCP_QUICKACK`; it re-arms only until the next read). Without
/// it the client's delayed-ACK timer interacts with the server's
/// unbatched small writes, and latency would measure the client's timer.
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the fd is an open socket owned by `stream` for the whole
    // call, and `on` is a live `i32` whose size is passed as the length.
    // A failure only leaves delayed ACKs on, so the result is ignored.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

fn frame(id: u64, body: ServeRequest) -> Vec<u8> {
    encode_frame(&Envelope { id, body })
}

/// Drives `plan` open-loop against the server at `addr` over one
/// connection, polling at most `poll_window` outstanding jobs at a time
/// (the oldest first: a FIFO server finishes them first). Returns once
/// every job settled, or with the unsettled ones marked after `deadline`.
pub fn open_loop(
    addr: &str,
    plan: &[Planned],
    poll_window: usize,
    status_every: Option<Duration>,
    deadline: Duration,
) -> Result<OpenLoopRun, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    reader
        .set_read_timeout(Some(Duration::from_millis(1)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let writer = Mutex::new(stream);
    let index: HashMap<u64, usize> = plan.iter().enumerate().map(|(k, p)| (p.job, k)).collect();
    let sent_ns: Vec<AtomicU64> = plan.iter().map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let wire = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let since = |at: Instant| at.saturating_duration_since(start);

    std::thread::scope(|scope| {
        let generator = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut lateness = Vec::with_capacity(plan.len());
            let mut free_at = start;
            for (k, job) in plan.iter().enumerate() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let due = start + job.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                sent_ns[k].store(since(at).as_nanos() as u64, Ordering::Release);
                lateness.push(at.saturating_duration_since(due.max(free_at)).as_secs_f64() * 1e3);
                let mut w = writer.lock().expect("writer lock poisoned");
                w.write_all(&job.frame).map_err(|e| format!("send job {}: {e}", job.job))?;
                drop(w);
                free_at = Instant::now();
                wire.fetch_add(job.frame.len() as u64, Ordering::Relaxed);
            }
            Ok(lateness)
        });

        let n = plan.len();
        let mut jobs: Vec<JobResult> = plan
            .iter()
            .map(|p| JobResult { due: p.due, settled: None, polls: 0, reply: Reply::Unsettled })
            .collect();
        let mut in_flight = vec![false; n];
        let mut poll_sent = vec![start; n];
        let mut next_poll = vec![start; n];
        let mut outstanding: VecDeque<usize> = VecDeque::new();
        let (mut submit_rtt_us, mut poll_rtt_us, mut queue_samples) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut status_in_flight = false;
        let mut next_status = start;
        let mut next_id = 1u64;
        let mut settled = 0usize;
        let mut frames = FrameBuffer::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut error = None;

        let send = |bytes: Vec<u8>| -> Result<(), String> {
            let mut w = writer.lock().expect("writer lock poisoned");
            w.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
            wire.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            Ok(())
        };

        while settled < n && error.is_none() {
            if since(Instant::now()) > deadline {
                break;
            }
            quick_ack(&reader);
            match reader.read(&mut chunk) {
                Ok(0) => error = Some("server closed the connection".to_string()),
                Ok(m) => {
                    frames.push(&chunk[..m]);
                    wire.fetch_add(m as u64, Ordering::Relaxed);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => error = Some(format!("read: {e}")),
            }
            loop {
                let payload = match frames.next_frame() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break,
                    Err(e) => {
                        error = Some(format!("bad frame: {e:?}"));
                        break;
                    }
                };
                let reply: Envelope<ServeResponse> = match decode_payload(&payload) {
                    Ok(reply) => reply,
                    Err(e) => {
                        error = Some(format!("bad reply: {e:?}"));
                        break;
                    }
                };
                let now = Instant::now();
                let mut settle = |k: usize, reply: Reply| {
                    if jobs[k].settled.is_none() {
                        jobs[k].settled = Some(since(now));
                        jobs[k].reply = reply;
                        settled += 1;
                    }
                };
                let job_of = |job: u64| index.get(&job).copied();
                let poll_answer = |k: usize, rtts: &mut Vec<f64>, in_flight: &mut Vec<bool>| {
                    if in_flight[k] {
                        in_flight[k] = false;
                        rtts.push(now.saturating_duration_since(poll_sent[k]).as_secs_f64() * 1e6);
                    }
                };
                match reply.body {
                    ServeResponse::Accepted { job } => {
                        let Some(k) = job_of(job) else { continue };
                        let sent = Duration::from_nanos(sent_ns[k].load(Ordering::Acquire));
                        submit_rtt_us.push(since(now).saturating_sub(sent).as_secs_f64() * 1e6);
                        outstanding.push_back(k);
                        next_poll[k] = now;
                    }
                    ServeResponse::Pending { job } => {
                        let Some(k) = job_of(job) else { continue };
                        poll_answer(k, &mut poll_rtt_us, &mut in_flight);
                        next_poll[k] = now + POLL_GAP;
                    }
                    ServeResponse::Report { job, json } => {
                        let Some(k) = job_of(job) else { continue };
                        poll_answer(k, &mut poll_rtt_us, &mut in_flight);
                        settle(k, Reply::Report(json));
                    }
                    ServeResponse::Rejected { job, reason } => {
                        let Some(k) = job_of(job) else { continue };
                        poll_answer(k, &mut poll_rtt_us, &mut in_flight);
                        settle(k, Reply::Rejected(reason));
                    }
                    ServeResponse::Status { queued, .. } => {
                        status_in_flight = false;
                        queue_samples.push(queued as f64);
                    }
                    ServeResponse::Busy { job, .. }
                    | ServeResponse::UnknownJob { job }
                    | ServeResponse::Conflict { job, .. }
                    | ServeResponse::Draining { job, .. } => {
                        let Some(k) = job_of(job) else { continue };
                        in_flight[k] = false;
                        settle(k, Reply::Failed(format!("{:?}", reply.body)));
                    }
                    other => error = Some(format!("unexpected reply {other:?}")),
                }
            }
            if error.is_some() {
                break;
            }
            let now = Instant::now();
            while outstanding.front().is_some_and(|&k| jobs[k].settled.is_some()) {
                outstanding.pop_front();
            }
            let due_polls: Vec<usize> = outstanding
                .iter()
                .copied()
                .filter(|&k| jobs[k].settled.is_none())
                .take(poll_window)
                .filter(|&k| !in_flight[k] && now >= next_poll[k])
                .collect();
            for k in due_polls {
                if let Err(e) = send(frame(next_id, ServeRequest::Poll { job: plan[k].job })) {
                    error = Some(e);
                    break;
                }
                next_id += 1;
                in_flight[k] = true;
                poll_sent[k] = now;
                jobs[k].polls += 1;
            }
            if let Some(every) = status_every {
                if !status_in_flight && now >= next_status {
                    if let Err(e) = send(frame(next_id, ServeRequest::Status)) {
                        error = Some(e);
                    }
                    next_id += 1;
                    status_in_flight = true;
                    next_status = now + every;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        let lateness = generator.join().map_err(|_| "generator thread panicked".to_string())??;
        if let Some(e) = error {
            return Err(e);
        }
        Ok(OpenLoopRun {
            jobs,
            lateness_ms: lateness,
            submit_rtt_us,
            poll_rtt_us,
            queue_samples,
            wire_bytes: wire.load(Ordering::Relaxed),
        })
    })
}

/// An in-process serve endpoint on a loopback port.
pub struct Server {
    /// `HOST:PORT` it listens on.
    pub addr: String,
    handle: std::thread::JoinHandle<Result<ServeSummary, String>>,
}

impl Server {
    /// Binds a loopback port and starts serving with `workers` workers
    /// and an unbounded queue (an open-loop overload must queue, not
    /// bounce).
    pub fn start(workers: usize, journal: Option<PathBuf>) -> Result<Server, String> {
        let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string()))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().to_string();
        let options = ServeOptions { workers, queue_cap: 0, journal, ..ServeOptions::default() };
        let handle = std::thread::spawn(move || {
            serve_listener(listener, &options, &fd_trace::TraceConfig::off())
                .map_err(|e| e.to_string())
        });
        Ok(Server { addr, handle })
    }

    /// Blocks until the server answers a Status request.
    pub fn wait_ready(&self) -> Result<(), String> {
        match call(&self.addr, ServeRequest::Status)? {
            ServeResponse::Status { .. } => Ok(()),
            other => Err(format!("Status answered with {other:?}")),
        }
    }

    /// Shuts the server down (it drains first) and returns its summary.
    pub fn stop(self) -> Result<ServeSummary, String> {
        match call(&self.addr, ServeRequest::Shutdown)? {
            ServeResponse::Bye => {}
            other => return Err(format!("Shutdown answered with {other:?}")),
        }
        self.handle.join().map_err(|_| "serve thread panicked".to_string())?
    }
}

/// One request → one reply on a fresh connection.
pub fn call(addr: &str, body: ServeRequest) -> Result<ServeResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    stream.write_all(&frame(1, body)).map_err(|e| format!("send: {e}"))?;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(payload) = frames.next_frame().map_err(|e| format!("bad frame: {e:?}"))? {
            let reply: Envelope<ServeResponse> =
                decode_payload(&payload).map_err(|e| format!("bad reply: {e:?}"))?;
            return Ok(reply.body);
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server hung up before replying".to_string());
        }
        frames.push(&chunk[..n]);
    }
}

/// The reply a server must give for a container, computed locally: the
/// report rendered as `fragdroid run --json` renders it, or the typed
/// rejection.
pub fn expected_reply(container: &[u8], inputs: &BTreeMap<String, String>) -> Reply {
    match fd_apk::decompile(&bytes::Bytes::copy_from_slice(container)) {
        Ok(app) => {
            let report = FragDroid::new(FragDroidConfig::default()).run(&app, inputs);
            match serde_json::to_string_pretty(&report) {
                Ok(json) => Reply::Report(json),
                Err(e) => Reply::Failed(format!("cannot serialize report: {e}")),
            }
        }
        Err(e) => Reply::Rejected(e.to_string()),
    }
}

/// One corpus entry as the client submits it.
pub struct Entry {
    /// The packed container, hex-encoded.
    pub hex: String,
    /// The raw container.
    pub container: Vec<u8>,
    /// Its known inputs.
    pub inputs: BTreeMap<String, String>,
}

/// Loads every entry of the seed's tiny corpus.
pub fn load_entries(data: &std::path::Path, seed: u64) -> Result<Vec<Entry>, String> {
    let dir = ensure_corpus(data, Profile::Tiny, TINY_APPS, seed)?;
    let reader =
        fd_apk::corpus::CorpusReader::open(&dir).map_err(|e| format!("open corpus: {e}"))?;
    (0..reader.len())
        .map(|i| {
            let (container, inputs) = reader.fetch(i).map_err(|e| format!("fetch {i}: {e}"))?;
            Ok(Entry { hex: to_hex(&container), container, inputs })
        })
        .collect()
}

/// A schedule of `count` jobs at `rate` per second with ids from
/// `first_job`, cycling through `entries` from `first_entry`.
pub fn schedule(
    entries: &[Entry],
    first_job: u64,
    first_entry: usize,
    rate: f64,
    count: usize,
) -> Vec<Planned> {
    (0..count)
        .map(|i| {
            let job = first_job + i as u64;
            let entry = &entries[(first_entry + i) % entries.len()];
            let body = ServeRequest::Submit {
                job,
                container_hex: entry.hex.clone(),
                inputs: entry.inputs.clone(),
            };
            Planned { job, due: Duration::from_secs_f64(i as f64 / rate), frame: frame(job, body) }
        })
        .collect()
}

/// FNV-1a digest of the replies to the first [`PINNED_JOBS`] entries,
/// in entry order: report JSON bytes, or the rejection reason.
pub fn pinned_digest(addr: &str, entries: &[Entry], poll_window: usize) -> Result<u64, String> {
    let plan = schedule(entries, 1, 0, 500.0, PINNED_JOBS.min(entries.len()));
    let run = open_loop(addr, &plan, poll_window, None, Duration::from_secs(60))?;
    let mut digest = pins::FNV_OFFSET;
    for (k, job) in run.jobs.iter().enumerate() {
        match &job.reply {
            Reply::Report(text) | Reply::Rejected(text) => {
                digest = pins::fnv1a(digest, text.as_bytes());
            }
            other => return Err(format!("pinned job {k} did not settle: {other:?}")),
        }
    }
    Ok(digest)
}

/// One ladder segment and its verdict.
struct Segment {
    rate: f64,
    run: OpenLoopRun,
    /// Entry index of each job.
    entries: Vec<usize>,
    latency: Option<Summary>,
    achieved: f64,
    sustained: bool,
}

fn segment(rate: f64, run: OpenLoopRun, entries: Vec<usize>) -> Segment {
    let latencies: Vec<f64> = run
        .jobs
        .iter()
        .filter(|j| matches!(j.reply, Reply::Report(_) | Reply::Rejected(_)))
        .filter_map(JobResult::latency_ms)
        .collect();
    let latency = summarize(&latencies);
    let settled: Vec<Duration> = run.jobs.iter().filter_map(|j| j.settled).collect();
    let span = match (settled.iter().min(), settled.iter().max()) {
        (Some(first), Some(last)) => last.saturating_sub(*first).as_secs_f64(),
        _ => 0.0,
    };
    let achieved = settled.len().saturating_sub(1) as f64 / span.max(1e-9);
    // Jobs are in due order; compare the first and last quarters.
    let quarter = (latencies.len() / 4).max(1);
    let growth = match (
        median(&latencies[..quarter.min(latencies.len())]),
        median(&latencies[latencies.len().saturating_sub(quarter)..]),
    ) {
        (Some(first), Some(last)) => last - first,
        _ => f64::INFINITY,
    };
    let clean = latencies.len() == run.jobs.len();
    let sustained = clean
        && latency.is_some_and(|l| l.tail <= LATENCY_LIMIT_MS)
        && growth < LATENCY_LIMIT_MS / 2.0;
    Segment { rate, run, entries, latency, achieved, sustained }
}

/// `serve-open`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let entries = load_entries(&ctx.data, ctx.seed)?;
    let tmp = ctx.data.join("tmp");
    out.note("workers", ctx.workers.to_string());
    out.note("corpus", format!("{{\"profile\": \"tiny\", \"apps\": {}}}", entries.len()));

    // Time to ready: bind, journal open, first Status answered.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let server = Server::start(ctx.workers, Some(tmp.join(format!("setup-{rep}.journal"))))?;
        server.wait_ready()?;
        setup.push(started.elapsed().as_secs_f64());
        server.stop()?;
    }

    let journal = tmp.join("serve.journal");
    let server = Server::start(ctx.workers, Some(journal.clone()))?;
    server.wait_ready()?;
    let poll_window = ctx.workers;
    let deadline = Duration::from_secs(60);

    let digest = pinned_digest(&server.addr, &entries, poll_window)?;
    out.note("serve_report_digest", format!("\"{digest:#018x}\""));
    if let Some(problem) = pins::check_serve(ctx.seed, digest) {
        out.problems.push(problem);
    }

    let mut segments: Vec<Segment> = Vec::new();
    let (mut next_job, mut next_entry) = (1_000u64, PINNED_JOBS);
    let status_every = ctx.trace.then_some(STATUS_EVERY);
    let cpu_before = host::process_cpu();
    let started = Instant::now();
    let mut run_rate =
        |rate: f64, count: usize, segments: &mut Vec<Segment>| -> Result<(), String> {
            let plan = schedule(&entries, next_job, next_entry, rate, count);
            let run = open_loop(&server.addr, &plan, poll_window, status_every, deadline)?;
            let used = (0..count).map(|i| (next_entry + i) % entries.len()).collect();
            next_job += count as u64;
            next_entry += count;
            segments.push(segment(rate, run, used));
            Ok(())
        };
    for (rate, count) in LADDER {
        run_rate(rate, count, &mut segments)?;
    }
    while started.elapsed() < ctx.budget {
        run_rate(REFERENCE_RATE, REFERENCE_JOBS, &mut segments)?;
    }
    let wall = started.elapsed();
    let cpu = host::process_cpu().saturating_sub(cpu_before);
    let summary = server.stop()?;
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);

    // Every settled job must carry exactly the locally computed reply.
    let mut expected: HashMap<usize, Reply> = HashMap::new();
    let mut lateness = Vec::new();
    let (mut settled, mut failed, mut attempted) = (0u64, 0u64, 0u64);
    for seg in &segments {
        lateness.extend_from_slice(&seg.run.lateness_ms);
        for (job, &e) in seg.run.jobs.iter().zip(&seg.entries) {
            attempted += 1;
            match &job.reply {
                Reply::Report(_) | Reply::Rejected(_) => {
                    settled += 1;
                    let want = expected.entry(e).or_insert_with(|| {
                        expected_reply(&entries[e].container, &entries[e].inputs)
                    });
                    if *want != job.reply && out.problems.len() < 16 {
                        out.problems
                            .push(format!("entry {e}: served reply differs from a local run"));
                    }
                }
                Reply::Failed(_) | Reply::Unsettled => failed += 1,
            }
        }
    }
    out.attempted = attempted;
    out.failed = failed;
    let late = summarize(&lateness).ok_or("no jobs were sent")?;
    out.note(
        "generator_lateness_ms",
        format!(
            "{{\"p50\": {:.4}, \"tail\": {:.4}, \"tail_percentile\": {}, \"max\": {:.4}}}",
            late.p50,
            late.tail,
            late.tail_pm as f64 / 10.0,
            lateness.iter().copied().fold(0.0, f64::max)
        ),
    );
    out.check(late.tail <= GENERATOR_SLACK_MS, || {
        format!(
            "invalid run: the generator fell behind (p{} lateness {:.1} ms)",
            late.tail_pm as f64 / 10.0,
            late.tail
        )
    });
    let ladder: Vec<String> = segments
        .iter()
        .map(|s| {
            format!(
                "{{\"rate\": {}, \"jobs\": {}, \"achieved\": {:.2}, \"p50_ms\": {:.3}, \
                 \"tail_ms\": {:.3}, \"sustained\": {}}}",
                s.rate,
                s.run.jobs.len(),
                s.achieved,
                s.latency.map_or(0.0, |l| l.p50),
                s.latency.map_or(0.0, |l| l.tail),
                s.sustained
            )
        })
        .collect();
    out.note("segments", format!("[{}]", ladder.join(", ")));

    let reference: Vec<Summary> =
        segments.iter().filter(|s| s.rate == REFERENCE_RATE).filter_map(|s| s.latency).collect();
    let best = segments
        .iter()
        .filter(|s| s.sustained)
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map(|s| s.achieved);
    out.check(best.is_some(), || "no ladder rate was sustained".to_string());

    if ctx.trace {
        let runs: Vec<&OpenLoopRun> = segments.iter().map(|s| &s.run).collect();
        let at_reference: Vec<&OpenLoopRun> =
            segments.iter().filter(|s| s.rate == REFERENCE_RATE).map(|s| &s.run).collect();
        let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
        let jobs: usize = runs.iter().map(|r| r.jobs.len()).sum();
        let polls: u64 = runs.iter().flat_map(|r| r.jobs.iter().map(|j| j.polls as u64)).sum();
        let queue: Vec<f64> = runs.iter().flat_map(|r| r.queue_samples.iter().copied()).collect();
        let wire: u64 = runs.iter().map(|r| r.wire_bytes).sum();
        out.layer(
            "serve.submit_rtt_us",
            med(at_reference.iter().flat_map(|r| r.submit_rtt_us.iter().copied()).collect()),
        );
        out.layer(
            "serve.poll_rtt_us",
            med(at_reference.iter().flat_map(|r| r.poll_rtt_us.iter().copied()).collect()),
        );
        out.layer("serve.polls_per_job", polls as f64 / jobs.max(1) as f64);
        out.layer("serve.queue_depth", queue.iter().sum::<f64>() / queue.len().max(1) as f64);
        out.layer("serve.busy_rejections", summary.incidents.busy_rejections as f64);
        out.layer("serve.frame_bytes_per_job", wire as f64 / jobs.max(1) as f64);
        out.layer("serve.journal_bytes", journal_bytes as f64);
        return Ok(out);
    }
    out.end_to_end = Some(EndToEnd {
        apps_per_s: settled as f64 / wall.as_secs_f64(),
        cpu_ms_per_app: cpu.as_secs_f64() * 1e3 / settled.max(1) as f64,
        latency: median_of(&reference).ok_or("no reference-rate samples")?,
        max_rate_jobs_per_s: best.unwrap_or(0.0),
        setup_s: median(&setup).ok_or("no setup samples")?,
        peak_rss_mib: host::peak_rss_mib(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub speaking the serve protocol on one connection. Each job is
    /// done 1 ms after it is accepted; the Submit of `stall_job` is
    /// answered only after `stall`, blocking the session the way a
    /// stalled server would.
    fn stub_server(stall_job: u64, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut frames = FrameBuffer::new();
            let mut chunk = [0u8; 8192];
            let mut ready: HashMap<u64, Instant> = HashMap::new();
            loop {
                while let Some(payload) = frames.next_frame().expect("frame") {
                    let request: Envelope<ServeRequest> =
                        decode_payload(&payload).expect("request");
                    let body = match request.body {
                        ServeRequest::Submit { job, .. } => {
                            if job == stall_job {
                                std::thread::sleep(stall);
                            }
                            ready.insert(job, Instant::now() + Duration::from_millis(1));
                            ServeResponse::Accepted { job }
                        }
                        ServeRequest::Poll { job } => match ready.get(&job) {
                            Some(at) if Instant::now() >= *at => {
                                ServeResponse::Report { job, json: format!("report {job}") }
                            }
                            _ => ServeResponse::Pending { job },
                        },
                        _ => ServeResponse::Bye,
                    };
                    let reply = encode_frame(&Envelope { id: request.id, body });
                    if stream.write_all(&reply).is_err() {
                        return;
                    }
                }
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => frames.push(&chunk[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stub_server(20, stall);
        // 100 jobs every 5 ms; job 20 (due at 100 ms) stalls the server
        // until about 300 ms.
        let plan: Vec<Planned> = (0..100u64)
            .map(|job| {
                let body = ServeRequest::Submit {
                    job,
                    container_hex: String::new(),
                    inputs: BTreeMap::new(),
                };
                Planned { job, due: Duration::from_millis(5 * job), frame: frame(job, body) }
            })
            .collect();
        let run = open_loop(&addr, &plan, 2, None, Duration::from_secs(20)).expect("open loop");
        server.join().expect("stub thread");

        let latency = |job: usize| run.jobs[job].latency_ms().expect("settled");
        let stall_end_ms = 100.0 + stall.as_secs_f64() * 1e3;
        for job in 21..60 {
            let due_ms = 5.0 * job as f64;
            assert!(
                latency(job) >= stall_end_ms - due_ms - 1.0,
                "job {job} due at {due_ms} ms measured {:.1} ms, hiding the stall",
                latency(job)
            );
        }
        assert!(latency(10) < 50.0, "jobs before the stall are fast");
        assert!(latency(90) < 50.0, "jobs well after the stall are fast again");
        // The generator kept its schedule through the stall: the delay
        // was the server's, not the load generator's.
        let late = summarize(&run.lateness_ms).expect("lateness samples");
        assert!(late.tail < 20.0, "generator fell behind: {late:?}");
    }
}
