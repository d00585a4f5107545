//! End-to-end tests of the socket-native job service against the *real*
//! `fragdroid` binary: `serve --listen 127.0.0.1:0` must announce its
//! resolved port, serve at least four concurrent clients byte-identical
//! reports, answer queue overflow with typed *retryable* `Busy` frames,
//! drain gracefully on `Shutdown`, and — killed with SIGKILL mid-queue —
//! come back from its job journal serving the same bytes.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::Duration;

use fd_droidsim::proto::{decode_payload, encode_frame, to_hex, Envelope, FrameBuffer};
use fragdroid::{AnyStream, JobOutcome, ListenAddr, ServeRequest, ServeResponse, SubmitClient};

fn fragdroid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fragdroid"))
        .args(args)
        .output()
        .expect("spawn fragdroid binary")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "fragdroid failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fd-serve-socket-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// A generated container, its gate inputs, and the `run --json`
/// reference bytes every serve report must match.
struct Fixture {
    hex: String,
    inputs: BTreeMap<String, String>,
    reference: String,
}

fn fixture(name: &str) -> Fixture {
    let app = tmp(name);
    let app_str = app.to_str().unwrap();
    stdout_of(&fragdroid(&["gen", app_str, "--template", "quickstart"]));
    let inputs_path = format!("{app_str}.inputs.json");
    let inputs: BTreeMap<String, String> =
        serde_json::from_str(&std::fs::read_to_string(&inputs_path).expect("inputs file"))
            .expect("inputs json");
    let container = std::fs::read(&app).expect("container bytes");
    let reference = stdout_of(&fragdroid(&["run", app_str, "--inputs", &inputs_path, "--json"]))
        .trim_end_matches('\n')
        .to_string();
    Fixture { hex: to_hex(&container), inputs, reference }
}

/// A settled job's report as `fragdroid submit` prints it (without the
/// trailing newline): the bytes that must match `run --json`.
fn printed(outcome: &JobOutcome) -> String {
    match outcome {
        JobOutcome::Report { report } => serde_json::to_string_pretty(report).expect("serializes"),
        JobOutcome::Rejected { reason } => panic!("expected a report, got a refusal: {reason}"),
    }
}

/// A `fragdroid serve --listen 127.0.0.1:0` child plus the resolved
/// address parsed from its "listening on" banner.
struct ServeProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: ListenAddr,
}

impl ServeProc {
    fn spawn(extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fragdroid"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fragdroid serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read the listening banner");
        let spec = line
            .trim()
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_string();
        let addr = ListenAddr::parse(&spec).expect("parseable resolved address");
        ServeProc { child, stdout, addr }
    }

    /// Sends `Shutdown`, expects `Bye`, and waits for a clean exit.
    fn shutdown(mut self) {
        let reply = raw_request(&self.addr, 9999, ServeRequest::Shutdown);
        assert_eq!(reply.body, ServeResponse::Bye);
        let status = self.child.wait().expect("serve exits");
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        assert!(status.success(), "serve must exit 0 after a graceful drain:\n{rest}");
    }

    /// SIGKILL — the crash the journal must survive.
    fn kill(mut self) {
        self.child.kill().expect("kill serve");
        let _ = self.child.wait();
    }
}

impl Drop for ServeProc {
    /// A test that fails before its shutdown leaves no server behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One raw frame out, one frame back — the typed wire protocol with no
/// client-side retry sugar in the way.
fn raw_request(addr: &ListenAddr, id: u64, body: ServeRequest) -> Envelope<ServeResponse> {
    let mut stream = AnyStream::connect(addr).expect("connect");
    stream.write_all(&encode_frame(&Envelope { id, body })).expect("send frame");
    stream.flush().expect("flush frame");
    read_reply(&mut stream, &mut FrameBuffer::new())
}

/// Reads the next reply frame. `frames` must be shared across calls on
/// the same stream — pipelined replies can land in one read.
fn read_reply(stream: &mut AnyStream, frames: &mut FrameBuffer) -> Envelope<ServeResponse> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(payload) = frames.next_frame().expect("well-formed reply") {
            return decode_payload(&payload).expect("decodable reply");
        }
        let n = stream.read(&mut chunk).expect("read reply");
        assert!(n > 0, "server hung up mid-request");
        frames.push(&chunk[..n]);
    }
}

#[test]
fn four_concurrent_clients_get_identical_reports_and_the_drain_is_graceful() {
    let fx = fixture("concurrent.fapk");
    let server = ServeProc::spawn(&["--workers", "2"]);

    // Four concurrent clients, distinct job ids, one shared server.
    let results: Vec<JobOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1u64..=4)
            .map(|job| {
                let addr = server.addr.clone();
                let (hex, inputs) = (&fx.hex, &fx.inputs);
                scope.spawn(move || {
                    SubmitClient::new(addr)
                        .with_deadline(Duration::from_secs(120))
                        .submit(job, hex, inputs)
                        .expect("concurrent submit settles")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for outcome in &results {
        assert_eq!(printed(outcome), fx.reference, "serve bytes diverged from 'run --json'");
    }

    // Status over a raw socket sees all four completions.
    match raw_request(&server.addr, 50, ServeRequest::Status).body {
        ServeResponse::Status { completed, workers, .. } => {
            assert_eq!((completed, workers), (4, 2));
        }
        other => panic!("expected a status snapshot, got {other:?}"),
    }
    server.shutdown();
}

/// The pids of `parent`'s direct children, read from `/proc`.
fn children_of(parent: u32) -> Vec<u32> {
    let mut children = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("read /proc").flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else { continue };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else { continue };
        // `pid (comm) state ppid ...`; comm may hold spaces and parens.
        let ppid = stat.rsplit_once(')').and_then(|(_, rest)| rest.split_whitespace().nth(1));
        if ppid == Some(parent.to_string().as_str()) {
            children.push(pid);
        }
    }
    children
}

fn signal(pid: u32, sig: &str) {
    let status = Command::new("kill").args([sig, &pid.to_string()]).status().expect("run kill");
    assert!(status.success(), "kill {sig} {pid} failed");
}

/// A `SIGSTOP`ped process, resumed with `SIGCONT` when dropped — also
/// when an assertion fails while it is stopped.
struct Stopped(u32);

impl Stopped {
    fn new(pid: u32) -> Stopped {
        signal(pid, "-STOP");
        Stopped(pid)
    }
}

impl Drop for Stopped {
    fn drop(&mut self) {
        signal(self.0, "-CONT");
    }
}

#[test]
fn queue_overflow_is_a_typed_retryable_busy() {
    let fx = fixture("busy.fapk");
    let server =
        ServeProc::spawn(&["--workers", "1", "--queue-cap", "1", "--backend", "subprocess"]);

    // Warm the only lane: its first job spawns the device agent child.
    let warm = SubmitClient::new(server.addr.clone())
        .with_deadline(Duration::from_secs(120))
        .submit(1, &fx.hex, &fx.inputs)
        .expect("warm-up job settles");
    assert_eq!(printed(&warm), fx.reference);
    let agents = children_of(server.child.id());
    assert_eq!(agents.len(), 1, "one worker lane, one device agent: {agents:?}");

    // Freeze the agent and hand the worker job 2: it blocks on the
    // agent's reply (the agent timeout is 10 s), so the worker slot is
    // provably taken until the agent is resumed.
    let agent = Stopped::new(agents[0]);
    SubmitClient::new(server.addr.clone())
        .submit_async(2, &fx.hex, &fx.inputs)
        .expect("job 2 is accepted");
    let mut status_id = 100;
    loop {
        status_id += 1;
        match raw_request(&server.addr, status_id, ServeRequest::Status).body {
            ServeResponse::Status { queued: 0, running: 1, .. } => break,
            ServeResponse::Status { .. } => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("expected Status, got {other:?}"),
        }
        assert!(status_id < 5100, "the worker never picked up job 2");
    }

    // Pipeline five submissions down one raw socket. The first fills
    // the one-slot queue; the other four must bounce with a typed Busy —
    // the server replies strictly in request order, so the frames pair
    // up by id.
    let mut stream = AnyStream::connect(&server.addr).expect("connect");
    for job in 3u64..=7 {
        let body =
            ServeRequest::Submit { job, container_hex: fx.hex.clone(), inputs: fx.inputs.clone() };
        stream.write_all(&encode_frame(&Envelope { id: job, body })).expect("send frame");
    }
    stream.flush().expect("flush frames");

    let (mut accepted, mut busy) = (Vec::new(), Vec::new());
    let mut frames = FrameBuffer::new();
    for _ in 3u64..=7 {
        let reply = read_reply(&mut stream, &mut frames);
        match reply.body {
            ServeResponse::Accepted { job } => accepted.push(job),
            ServeResponse::Busy { job, retry_after_ms } => {
                assert!(retry_after_ms > 0, "Busy must carry a retry-after hint");
                busy.push(job);
            }
            other => panic!("expected Accepted or Busy, got {other:?}"),
        }
    }
    assert_eq!(accepted, [3], "the queue slot admits exactly one job");
    assert_eq!(busy, [4, 5, 6, 7], "a full one-slot queue bounces every other submit");
    drop(stream);
    drop(agent);

    // Retryable: a bounced job, resubmitted through the backoff client,
    // lands the byte-identical report.
    let outcome = SubmitClient::new(server.addr.clone())
        .with_deadline(Duration::from_secs(120))
        .submit(busy[0], &fx.hex, &fx.inputs)
        .expect("bounced job settles on retry");
    assert_eq!(printed(&outcome), fx.reference);

    server.shutdown();
}

#[test]
fn sigkill_mid_queue_recovers_from_the_journal_byte_identically() {
    let fx = fixture("crash.fapk");
    let journal = tmp("crash.journal");
    let _ = std::fs::remove_file(&journal);
    let journal_str = journal.to_str().unwrap().to_string();

    // Life 1: three durably-accepted jobs, then SIGKILL mid-queue.
    let server = ServeProc::spawn(&["--workers", "1", "--journal", &journal_str]);
    let mut client = SubmitClient::new(server.addr.clone());
    for job in 1u64..=3 {
        client.submit_async(job, &fx.hex, &fx.inputs).expect("durable accept");
    }
    server.kill();
    assert!(journal.exists(), "the journal must survive the crash");

    // Life 2: recovery. Idempotent resubmission of the same (id,
    // content) drives every job to the same bytes `run --json` prints —
    // whether its report was recovered or the job re-ran.
    let server = ServeProc::spawn(&["--workers", "1", "--journal", &journal_str]);
    for job in 1u64..=3 {
        let outcome = SubmitClient::new(server.addr.clone())
            .with_deadline(Duration::from_secs(120))
            .submit(job, &fx.hex, &fx.inputs)
            .expect("post-crash job settles");
        assert_eq!(
            printed(&outcome),
            fx.reference,
            "job {job} must come back byte-identical after the crash"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
}
