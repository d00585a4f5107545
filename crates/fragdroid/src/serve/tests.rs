//! Tests for the serve state machine, the socket front end, the
//! crash-safe job journal, and the retrying client.

use super::*;
use fd_droidsim::proto::to_hex;
use journal::JobJournal;
use std::os::unix::net::UnixStream;

fn request(id: u64, body: ServeRequest) -> Vec<u8> {
    encode_frame(&Envelope { id, body })
}

/// Reads exactly one reply frame off the stream.
fn read_reply<R: Read>(stream: &mut R) -> Envelope<ServeResponse> {
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(payload) = frames.next_frame().expect("server frames are well-formed") {
            return decode_payload(&payload).expect("server replies decode");
        }
        let n = stream.read(&mut chunk).expect("read reply");
        assert_ne!(n, 0, "server hung up mid-conversation");
        frames.push(&chunk[..n]);
    }
}

/// The quickstart app as (hex container, known inputs).
fn quickstart() -> (String, BTreeMap<String, String>) {
    let generated = fd_appgen::templates::quickstart();
    (to_hex(&fd_apk::pack(&generated.app)), generated.known_inputs)
}

fn quickstart_submission(job: u64) -> ServeRequest {
    let (container_hex, inputs) = quickstart();
    ServeRequest::Submit { job, container_hex, inputs }
}

/// Spawns a stdio serve loop on a thread over a socketpair, returning
/// the client end and the join handle.
fn spawn_server(
    options: ServeOptions,
) -> (UnixStream, std::thread::JoinHandle<Result<fd_trace::Trace, ServeError>>) {
    let (client, server) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let reader = server.try_clone().expect("clone server end");
        serve(reader, server, &options, &fd_trace::TraceConfig::on())
    });
    (client, handle)
}

/// A fresh path under the system temp dir.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fd-serve-test-{}-{name}", std::process::id()))
}

/// Polls `job` on a raw stream until it settles into a `Report`.
fn poll_for_report(client: &mut UnixStream, job: u64) -> String {
    let mut poll_id = 1000 + job * 100;
    loop {
        client.write_all(&request(poll_id, ServeRequest::Poll { job })).expect("poll");
        let reply = read_reply(client);
        assert_eq!(reply.id, poll_id);
        poll_id += 1;
        match reply.body {
            ServeResponse::Pending { .. } => std::thread::sleep(Duration::from_millis(5)),
            ServeResponse::Report { job: done, json } => {
                assert_eq!(done, job);
                return json;
            }
            other => panic!("expected Pending/Report, got {other:?}"),
        }
    }
}

/// Connects to a socket server and performs an orderly shutdown.
fn shutdown_socket(addr: &ListenAddr) {
    let mut stream = AnyStream::connect(addr).expect("connect for shutdown");
    stream.write_all(&request(9999, ServeRequest::Shutdown)).expect("send shutdown");
    stream.flush().expect("flush shutdown");
    assert_eq!(read_reply(&mut stream).body, ServeResponse::Bye);
}

#[test]
fn submit_poll_status_shutdown_round_trip() {
    let (mut client, handle) = spawn_server(ServeOptions::default());
    client.write_all(&request(1, quickstart_submission(7))).expect("submit");
    let accepted = read_reply(&mut client);
    assert_eq!(accepted.id, 1);
    assert_eq!(accepted.body, ServeResponse::Accepted { job: 7 }, "client-assigned id echoes");

    let json = poll_for_report(&mut client, 7);
    let report: crate::report::RunReport =
        serde_json::from_str(&json).expect("served report parses");
    assert_eq!(report.activity_coverage().visited, 3, "quickstart visits 3 activities");

    client.write_all(&request(50, ServeRequest::Status)).expect("status");
    match read_reply(&mut client).body {
        ServeResponse::Status { completed, rejected, .. } => {
            assert_eq!((completed, rejected), (1, 0));
        }
        other => panic!("expected Status, got {other:?}"),
    }

    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    let trace = handle.join().expect("no panic").expect("no serve error");
    let summary = fd_trace::TraceSummary::compute(&trace);
    let submitted = trace
        .records
        .iter()
        .filter(|r| match r {
            fd_trace::TraceRecord::Event(e) => {
                matches!(e.event, fd_trace::TraceEvent::JobSubmitted { .. })
            }
            _ => false,
        })
        .count();
    assert_eq!(submitted, 1, "one submission traced");
    assert!(summary.records > 0);
    assert_eq!(summary.drains, 1, "orderly shutdown traced as a drain");
}

#[test]
fn bad_hex_and_rejected_containers_are_pollable_refusals() {
    let (mut client, handle) = spawn_server(ServeOptions::default());
    client
        .write_all(&request(
            1,
            ServeRequest::Submit {
                job: 1,
                container_hex: "zz".to_string(),
                inputs: BTreeMap::new(),
            },
        ))
        .expect("submit bad hex");
    assert_eq!(
        read_reply(&mut client).body,
        ServeResponse::Accepted { job: 1 },
        "bad hex is still accepted; the refusal is pollable"
    );
    client
        .write_all(&request(
            2,
            ServeRequest::Submit {
                job: 2,
                container_hex: to_hex(b"not a container"),
                inputs: BTreeMap::new(),
            },
        ))
        .expect("submit bad container");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Accepted { job: 2 });

    for job in [1u64, 2] {
        loop {
            client.write_all(&request(10 + job, ServeRequest::Poll { job })).expect("poll");
            match read_reply(&mut client).body {
                ServeResponse::Pending { .. } => std::thread::sleep(Duration::from_millis(5)),
                ServeResponse::Rejected { reason, .. } => {
                    assert!(!reason.is_empty());
                    break;
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
    }

    client.write_all(&request(30, ServeRequest::Poll { job: 999 })).expect("poll unknown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::UnknownJob { job: 999 });

    client.write_all(&request(31, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");
}

#[test]
fn corrupt_frames_end_the_session_quietly() {
    let mut output = Vec::new();
    let trace = serve(
        &b"not a frame at all"[..],
        &mut output,
        &ServeOptions::default(),
        &fd_trace::TraceConfig::off(),
    )
    .expect("no serve error");
    assert!(output.is_empty(), "corrupt stream gets no reply");
    assert!(trace.records.is_empty());
}

#[test]
fn many_jobs_drain_across_workers() {
    let (mut client, handle) = spawn_server(ServeOptions { workers: 3, ..ServeOptions::default() });
    let jobs: Vec<u64> = (0..6)
        .map(|i| {
            client.write_all(&request(i, quickstart_submission(100 + i))).expect("submit");
            match read_reply(&mut client).body {
                ServeResponse::Accepted { job } => job,
                other => panic!("expected Accepted, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(jobs, (100..106).collect::<Vec<u64>>(), "client-assigned ids echo back");
    let reports: Vec<String> = jobs.iter().map(|&job| poll_for_report(&mut client, job)).collect();
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "identical submissions produce byte-identical reports"
    );
    client.write_all(&request(999, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");
}

/// Admission control, exercised directly against the state machine with
/// no workers draining the queue (so the queue length is deterministic).
#[test]
fn admission_control_is_typed_and_idempotent() {
    let options = ServeOptions { queue_cap: 1, ..ServeOptions::default() };
    let trace_config = fd_trace::TraceConfig::off();
    let core = Core::new(&options, &trace_config).expect("no journal configured");
    let tracer = fd_trace::Tracer::new(&trace_config, core.clock, 0);
    let hex = to_hex(b"job one");
    let submit = |job: u64, hex: &str| ServeRequest::Submit {
        job,
        container_hex: hex.to_string(),
        inputs: BTreeMap::new(),
    };

    // First submission fills the only queue slot.
    let (reply, end) = handle_request(&core, &tracer, submit(1, &hex), 1);
    assert_eq!((reply, end), (ServeResponse::Accepted { job: 1 }, false));

    // A different id bounces off the full queue with a retry hint.
    let (reply, _) = handle_request(&core, &tracer, submit(2, &hex), 1);
    let ServeResponse::Busy { job: 2, retry_after_ms } = reply else {
        panic!("expected Busy, got {reply:?}");
    };
    assert!(retry_after_ms >= 10, "the hint scales from a 10ms floor");

    // Resubmitting a known id with identical content is absorbed
    // without touching the (full) queue.
    let (reply, _) = handle_request(&core, &tracer, submit(1, &hex), 1);
    assert_eq!(reply, ServeResponse::Accepted { job: 1 });
    assert_eq!(lock(&core.state).queue.len(), 1, "dedup does not re-queue");

    // The same id with different content is a permanent conflict.
    let (reply, _) = handle_request(&core, &tracer, submit(1, &to_hex(b"other")), 1);
    assert!(
        matches!(reply, ServeResponse::Conflict { job: 1, .. }),
        "expected Conflict, got {reply:?}"
    );

    // A draining server refuses fresh ids but still dedups known ones.
    core.begin_drain();
    let (reply, _) = handle_request(&core, &tracer, submit(3, &hex), 1);
    assert!(
        matches!(reply, ServeResponse::Draining { job: 3, .. }),
        "expected Draining, got {reply:?}"
    );
    let (reply, _) = handle_request(&core, &tracer, submit(1, &hex), 1);
    assert_eq!(reply, ServeResponse::Accepted { job: 1 }, "dedup still answers while draining");

    let incidents = lock(&core.incidents).clone();
    assert_eq!(incidents.busy_rejections, 1);
    assert_eq!(incidents.conflicts, 1);
    assert_eq!(incidents.draining_rejections, 1);
    assert_eq!(incidents.resubmits_deduped, 2);
}

#[test]
fn listen_addr_parses_unix_and_tcp() {
    assert_eq!(
        ListenAddr::parse("unix:/tmp/fd.sock").expect("unix parses"),
        ListenAddr::Unix(PathBuf::from("/tmp/fd.sock"))
    );
    assert_eq!(
        ListenAddr::parse("127.0.0.1:7788").expect("tcp parses"),
        ListenAddr::Tcp("127.0.0.1:7788".to_string())
    );
    assert!(ListenAddr::parse("unix:").is_err(), "empty unix path refused");
    assert!(ListenAddr::parse("no-colon").is_err(), "bare host refused");
    assert_eq!(ListenAddr::parse("unix:/tmp/x").unwrap().to_string(), "unix:/tmp/x");
    assert_eq!(ListenAddr::parse("[::1]:9").unwrap().to_string(), "[::1]:9");
}

#[test]
fn busy_hint_grows_with_backlog() {
    assert_eq!(busy_retry_after_ms(0, 1), 10);
    assert!(busy_retry_after_ms(100, 1) > busy_retry_after_ms(10, 1));
    assert!(
        busy_retry_after_ms(100, 8) < busy_retry_after_ms(100, 1),
        "more workers drain faster, so the hint shrinks"
    );
}

/// The socket front end end-to-end: a retrying client submits over TCP,
/// resubmits idempotently, conflicts on content mismatch, and the
/// server's drain returns its incident counters.
#[test]
fn socket_round_trip_with_client() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { workers: 2, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::on())
    });

    let (hex, inputs) = quickstart();
    let mut client = SubmitClient::new(addr.clone());
    let JobOutcome::Report { json } = client.submit(7, &hex, &inputs).expect("job settles") else {
        panic!("quickstart is not rejected");
    };
    let report: crate::report::RunReport =
        serde_json::from_str(&json).expect("served report parses");
    assert_eq!(report.activity_coverage().visited, 3);

    // Idempotent resubmission: same id + same content serves the same
    // bytes without a second run.
    let again = client.submit(7, &hex, &inputs).expect("resubmit settles");
    assert_eq!(again, JobOutcome::Report { json });

    // Same id, different content: a permanent typed conflict.
    let err = client
        .submit(7, &to_hex(b"different"), &BTreeMap::new())
        .expect_err("conflicts are permanent");
    assert!(matches!(err, ClientError::Conflict { job: 7, .. }), "got {err:?}");

    shutdown_socket(&addr);
    let summary = handle.join().expect("no panic").expect("no serve error");
    assert_eq!(summary.incidents.jobs_completed, 1, "dedup prevented a second run");
    assert_eq!(summary.incidents.resubmits_deduped, 1);
    assert_eq!(summary.incidents.conflicts, 1);
    assert!(summary.incidents.connections_opened >= 2);
    assert_eq!(
        summary.incidents.connections_opened, summary.incidents.connections_closed,
        "no leaked connection slots"
    );
}

/// A chaos-wrapped client (torn frames, stalls, duplicated requests)
/// still lands the byte-identical report.
#[test]
fn chaos_client_lands_the_identical_report() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions::default();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    let (hex, inputs) = quickstart();
    let mut clean = SubmitClient::new(addr.clone());
    let baseline = clean.submit(1, &hex, &inputs).expect("clean run settles");

    let mut chaotic = SubmitClient::new(addr.clone())
        .with_chaos(ChaosConfig::from_seed(42))
        .with_max_attempts(64)
        .with_deadline(Duration::from_secs(120));
    let outcome = chaotic.submit(2, &hex, &inputs).expect("chaos run settles");
    assert_eq!(outcome, baseline, "chaos transport does not change the report bytes");

    shutdown_socket(&addr);
    handle.join().expect("no panic").expect("no serve error");
}

/// Connections past the cap get one typed `Overloaded` frame (id 0)
/// and are closed; the slot frees when the first session ends.
#[test]
fn connection_cap_answers_overloaded() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { max_connections: 1, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    // Occupy the only slot and prove the session is live.
    let mut first = AnyStream::connect(&addr).expect("connect first");
    first.write_all(&request(1, ServeRequest::Status)).expect("status");
    first.flush().expect("flush");
    assert!(matches!(read_reply(&mut first).body, ServeResponse::Status { .. }));

    // The second connection is rejected with the id-0 overload frame.
    let mut second = AnyStream::connect(&addr).expect("connect second");
    let reply = read_reply(&mut second);
    assert_eq!(reply.id, 0);
    assert!(
        matches!(reply.body, ServeResponse::Overloaded { retry_after_ms } if retry_after_ms > 0),
        "got {:?}",
        reply.body
    );
    drop(second);

    first.write_all(&request(2, ServeRequest::Shutdown)).expect("shutdown");
    first.flush().expect("flush");
    assert_eq!(read_reply(&mut first).body, ServeResponse::Bye);
    let summary = handle.join().expect("no panic").expect("no serve error");
    assert_eq!(summary.incidents.overloaded_rejections, 1);
    assert_eq!(summary.incidents.connections_opened, 1);
}

/// The slow-loris guard: a session that completes no frame inside the
/// idle window is dropped, without touching other sessions.
#[test]
fn idle_sessions_are_dropped() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { idle_timeout_ms: 100, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    let mut loris = AnyStream::connect(&addr).expect("connect");
    // Send half a frame and go quiet; the server must hang up on us.
    loris.write_all(b"999 ").expect("half a frame");
    loris.flush().expect("flush");
    let mut buf = [0u8; 16];
    let n = loris.read(&mut buf).expect("server closes, not errors");
    assert_eq!(n, 0, "idle session gets EOF");

    shutdown_socket(&addr);
    let summary = handle.join().expect("no panic").expect("no serve error");
    assert_eq!(summary.incidents.idle_timeouts, 1);
}

/// Unix-socket front end: bind, serve, and remove the socket file on
/// the way out.
#[test]
fn unix_socket_serves_and_cleans_up() {
    let path = temp_path("unix.sock");
    let _ = std::fs::remove_file(&path);
    let addr = ListenAddr::Unix(path.clone());
    let listener = ServeListener::bind(&addr).expect("bind unix");
    let options = ServeOptions::default();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    let mut stream = AnyStream::connect(&addr).expect("connect unix");
    stream.write_all(&request(1, ServeRequest::Status)).expect("status");
    stream.flush().expect("flush");
    assert!(matches!(read_reply(&mut stream).body, ServeResponse::Status { .. }));
    stream.write_all(&request(2, ServeRequest::Shutdown)).expect("shutdown");
    stream.flush().expect("flush");
    assert_eq!(read_reply(&mut stream).body, ServeResponse::Bye);

    handle.join().expect("no panic").expect("no serve error");
    assert!(!path.exists(), "socket file removed after drain");
}

/// Serves `addr` with a one-connection cap, sends `Shutdown` on the only
/// connection that ever opens, and returns the server's incidents. A
/// drain that fails to wake the blocked `accept()` fails the join
/// timeout instead of hanging the test.
fn shutdown_with_no_other_client(addr: ListenAddr) -> ServeIncidents {
    let listener = ServeListener::bind(&addr).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { max_connections: 1, ..ServeOptions::default() };
    let (done, served) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = done.send(serve_listener(listener, &options, &fd_trace::TraceConfig::off()));
    });

    let mut stream = AnyStream::connect(&addr).expect("connect");
    stream.write_all(&request(1, ServeRequest::Shutdown)).expect("shutdown");
    stream.flush().expect("flush");
    assert_eq!(read_reply(&mut stream).body, ServeResponse::Bye);
    let summary = served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_listener returns once drained, with no other client to wake it")
        .expect("no serve error");
    handle.join().expect("no panic");
    summary.incidents
}

/// The drain wakes a TCP accept loop blocked in `accept()`, and the
/// wake connection is dropped: neither a session nor an overload
/// rejection.
#[test]
fn drain_wakes_the_tcp_accept_and_drops_the_wake() {
    let incidents = shutdown_with_no_other_client(ListenAddr::Tcp("127.0.0.1:0".to_string()));
    assert_eq!(incidents.connections_opened, 1, "{incidents:?}");
    assert_eq!(incidents.overloaded_rejections, 0, "{incidents:?}");
}

/// The same over a Unix socket.
#[test]
fn drain_wakes_the_unix_accept_and_drops_the_wake() {
    let path = temp_path("wake.sock");
    let _ = std::fs::remove_file(&path);
    let incidents = shutdown_with_no_other_client(ListenAddr::Unix(path.clone()));
    assert_eq!(incidents.connections_opened, 1, "{incidents:?}");
    assert_eq!(incidents.overloaded_rejections, 0, "{incidents:?}");
    assert!(!path.exists(), "socket file removed after drain");
}

/// Crash-safe recovery end to end: a restarted server serves finished
/// jobs byte-identically from the journal and re-queues (then runs)
/// jobs that were accepted but never finished.
#[test]
fn journal_recovery_serves_completed_and_requeues_pending() {
    let path = temp_path("recovery.journal");
    let _ = std::fs::remove_file(&path);
    let options = ServeOptions { journal: Some(path.clone()), ..ServeOptions::default() };
    let (hex, inputs) = quickstart();

    // Life one: submit job 1, wait for its report, orderly shutdown.
    let (mut client, handle) = spawn_server(options.clone());
    client
        .write_all(&request(
            1,
            ServeRequest::Submit { job: 1, container_hex: hex.clone(), inputs: inputs.clone() },
        ))
        .expect("submit");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Accepted { job: 1 });
    let first_json = poll_for_report(&mut client, 1);
    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");

    // Between lives: append a Submitted record for job 2 with no
    // Completed — exactly what a crash after durable admission leaves.
    {
        let (mut j, _recovery) = JobJournal::open_or_create(&path, config_digest(&options.config))
            .expect("reopen journal");
        j.append_submitted(2, submission_digest(&hex, &inputs), &hex, &inputs)
            .expect("append pending job");
    }

    // Life two: job 1 is served byte-identically without resubmission;
    // job 2 is re-queued and runs to the same report.
    let (mut client, handle) = spawn_server(options);
    client.write_all(&request(1, ServeRequest::Poll { job: 1 })).expect("poll recovered");
    assert_eq!(
        read_reply(&mut client).body,
        ServeResponse::Report { job: 1, json: first_json.clone() },
        "completed job is recovered byte-identically"
    );
    let second_json = poll_for_report(&mut client, 2);
    assert_eq!(second_json, first_json, "re-queued job reruns deterministically");

    // Resubmitting a recovered id is still idempotent.
    client
        .write_all(&request(
            40,
            ServeRequest::Submit { job: 1, container_hex: hex.clone(), inputs: inputs.clone() },
        ))
        .expect("resubmit recovered");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Accepted { job: 1 });

    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    let trace = handle.join().expect("no panic").expect("no serve error");
    let recovered = trace.records.iter().any(|r| match r {
        fd_trace::TraceRecord::Event(e) => {
            matches!(e.event, fd_trace::TraceEvent::JournalRecovered { jobs: 2 })
        }
        _ => false,
    });
    assert!(recovered, "recovery is traced");
    let _ = std::fs::remove_file(&path);
}

/// A journal written under one configuration refuses to serve another.
#[test]
fn journal_refuses_a_different_config() {
    let path = temp_path("config-mismatch.journal");
    let _ = std::fs::remove_file(&path);
    let options = ServeOptions { journal: Some(path.clone()), ..ServeOptions::default() };
    {
        let (_j, _recovery) = JobJournal::open_or_create(&path, config_digest(&options.config) ^ 1)
            .expect("seed journal under a different digest");
    }
    let err = serve(&b""[..], Vec::new(), &options, &fd_trace::TraceConfig::off())
        .expect_err("config mismatch is refused");
    assert!(
        matches!(err, ServeError::Journal(JournalError::FingerprintMismatch { .. })),
        "got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A journal corrupted mid-file refuses to start the server (exit code 5
/// in the CLI) instead of silently truncating the corrupt record and the
/// acknowledged jobs after it.
#[test]
fn journal_corrupted_mid_file_refuses_to_serve() {
    let path = temp_path("corrupt.journal");
    let _ = std::fs::remove_file(&path);
    let options = ServeOptions { journal: Some(path.clone()), ..ServeOptions::default() };
    let (hex, inputs) = quickstart();
    {
        let (mut j, _recovery) = JobJournal::open_or_create(&path, config_digest(&options.config))
            .expect("create journal");
        for job in 1..=2 {
            j.append_submitted(job, submission_digest(&hex, &inputs), &hex, &inputs)
                .expect("append accepted job");
        }
    }
    let mut bytes = std::fs::read(&path).expect("read journal");
    let second_line = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    bytes[second_line + 20] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt journal");

    let err = serve(&b""[..], Vec::new(), &options, &fd_trace::TraceConfig::off())
        .expect_err("a corrupt journal is refused");
    assert_eq!(err, ServeError::Journal(JournalError::ChecksumMismatch { line: 2 }));
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    assert_eq!(std::fs::read(&path).expect("reread"), bytes, "nothing truncated");
    let _ = std::fs::remove_file(&path);
}
