//! `dispatch-farm`: `fragdroid::dispatch` over in-process serve endpoints
//! (one per core, one worker each) on a tiny corpus, clean transport.
//!
//! The coordinator drives one job per round trip and its submit client
//! polls every 5 ms, so round trips, lease handling and the merge
//! dominate; it is the only workload that exercises the dispatch layer.
//! The traced run puts a frame-counting relay in front of each endpoint.

use crate::corpus::{ensure_corpus, table1_us, MIN_PASSES, SETUP_REPS};
use crate::layers::StampedSource;
use crate::serve::Server;
use crate::stats::{median, summarize};
use crate::{host, Ctx, EndToEnd, Outcome};
use fd_appgen::stream::Profile;
use fd_droidsim::proto::{decode_payload, FrameBuffer};
use fragdroid::{
    CheckpointOptions, DispatchOptions, FragDroidConfig, ListenAddr, ServeRequest, ServeResponse,
    ServeSummary,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Apps in the farm's corpus: about five seconds per pass on two
/// endpoints, and enough jobs per pass for a p99 with ten beyond it.
pub const DISPATCH_APPS: usize = 1024;

/// What a relay saw across all its connections.
#[derive(Default)]
struct RelayStats {
    /// Requests forwarded.
    requests: u64,
    /// Request → reply round trips through the endpoint, µs.
    rtt_us: Vec<f64>,
    /// The Submit ones among them.
    submit_rtt_us: Vec<f64>,
    /// The Poll ones among them.
    poll_rtt_us: Vec<f64>,
    /// `queued` of every Status reply (the coordinator's heartbeats).
    queued: Vec<f64>,
    /// Frame bytes in both directions.
    bytes: u64,
    /// Time between a Pending reply and the client's next request.
    poll_wait: Duration,
    /// Lifetime of every connection that submitted a job.
    job_connections: Duration,
}

/// A loopback relay in front of one serve endpoint that forwards whole
/// frames and times each request's round trip.
struct Relay {
    addr: String,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<RelayStats>>,
    handle: std::thread::JoinHandle<()>,
}

fn read_frame(stream: &mut TcpStream, frames: &mut FrameBuffer) -> Option<Vec<u8>> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Ok(Some(payload)) = frames.next_frame() {
            return Some(payload);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => frames.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// Writes one frame; returns its size on the wire, or `None` on error.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> Option<u64> {
    let mut bytes = format!("{} ", payload.len()).into_bytes();
    bytes.extend_from_slice(payload);
    bytes.push(b'\n');
    stream.write_all(&bytes).ok().map(|()| bytes.len() as u64)
}

/// Relays one client connection until either side hangs up.
fn relay_connection(mut client: TcpStream, target: &str, stats: &Mutex<RelayStats>) {
    let Ok(mut server) = TcpStream::connect(target) else { return };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let opened = Instant::now();
    let (mut from_client, mut from_server) = (FrameBuffer::new(), FrameBuffer::new());
    let mut local = RelayStats::default();
    let mut pending_since: Option<Instant> = None;
    let mut submitted = false;
    while let Some(request) = read_frame(&mut client, &mut from_client) {
        let sent = Instant::now();
        if let Some(since) = pending_since.take() {
            local.poll_wait += sent - since;
        }
        let kind = decode_payload::<ServeRequest>(&request).ok().map(|env| env.body);
        let is_submit = matches!(kind, Some(ServeRequest::Submit { .. }));
        let is_poll = matches!(kind, Some(ServeRequest::Poll { .. }));
        submitted |= is_submit;
        let Some(up) = write_frame(&mut server, &request) else { break };
        let Some(reply) = read_frame(&mut server, &mut from_server) else { break };
        let answered = Instant::now();
        let rtt = (answered - sent).as_secs_f64() * 1e6;
        local.requests += 1;
        local.rtt_us.push(rtt);
        if is_submit {
            local.submit_rtt_us.push(rtt);
        }
        if is_poll {
            local.poll_rtt_us.push(rtt);
        }
        match decode_payload::<ServeResponse>(&reply).map(|env| env.body) {
            Ok(ServeResponse::Pending { .. }) => pending_since = Some(answered),
            Ok(ServeResponse::Status { queued, .. }) => local.queued.push(queued as f64),
            _ => {}
        }
        let Some(down) = write_frame(&mut client, &reply) else { break };
        local.bytes += up + down;
    }
    let mut stats = stats.lock().expect("relay stats poisoned");
    stats.requests += local.requests;
    stats.rtt_us.extend(local.rtt_us);
    stats.submit_rtt_us.extend(local.submit_rtt_us);
    stats.poll_rtt_us.extend(local.poll_rtt_us);
    stats.queued.extend(local.queued);
    stats.bytes += local.bytes;
    stats.poll_wait += local.poll_wait;
    if submitted {
        stats.job_connections += opened.elapsed();
    }
}

impl Relay {
    fn start(target: String) -> Result<Relay, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("relay bind: {e}"))?;
        listener.set_nonblocking(true).map_err(|e| format!("relay nonblocking: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(RelayStats::default()));
        let (stop_flag, shared) = (stop.clone(), stats.clone());
        let handle = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let _ = client.set_nonblocking(false);
                            let (target, shared) = (&target, &shared);
                            scope.spawn(move || relay_connection(client, target, shared));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            });
        });
        Ok(Relay { addr, stop, stats, handle })
    }

    /// Stops accepting, waits for open connections to end, and returns
    /// the totals.
    fn finish(self) -> Result<RelayStats, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().map_err(|_| "relay thread panicked".to_string())?;
        let stats = std::mem::take(&mut *self.stats.lock().expect("relay stats poisoned"));
        Ok(stats)
    }
}

/// Starts one endpoint per worker and waits until each answers Status.
fn start_farm(workers: usize) -> Result<Vec<Server>, String> {
    let farm: Vec<Server> =
        (0..workers).map(|_| Server::start(1, None)).collect::<Result<_, _>>()?;
    for server in &farm {
        server.wait_ready()?;
    }
    Ok(farm)
}

fn stop_farm(farm: Vec<Server>) -> Result<Vec<ServeSummary>, String> {
    farm.into_iter().map(Server::stop).collect()
}

/// `dispatch-farm`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ensure_corpus(&ctx.data, Profile::Tiny, DISPATCH_APPS, ctx.seed)?;
    let reader =
        fd_apk::corpus::CorpusReader::open(&dir).map_err(|e| format!("open corpus: {e}"))?;
    let config = FragDroidConfig::default();
    let off = fd_trace::TraceConfig::off();
    let tmp = ctx.data.join("tmp");
    out.note("corpus", format!("{{\"profile\": \"tiny\", \"apps\": {}}}", reader.len()));
    out.note("endpoints", ctx.workers.to_string());

    // The farm must reproduce what the journaled suite finds on the
    // same corpus.
    let journal = CheckpointOptions::new(tmp.join("reference.ckpt"));
    let (reference, _) = fragdroid::run_corpus_suite_checkpointed(
        &reader,
        &config,
        ctx.workers,
        &off,
        Some(&journal),
        0,
    )
    .map_err(|e| format!("journaled reference run: {e}"))?;
    let reference_digest = reference.run.outcome_digest();
    out.note("outcome_digest", format!("\"{reference_digest:#018x}\""));

    // Time to ready: every endpoint answering Status.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let farm = start_farm(ctx.workers)?;
        setup.push(started.elapsed().as_secs_f64());
        stop_farm(farm)?;
    }

    let source = StampedSource::new(&reader);
    let (mut rates, mut cpus, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let (mut merges, mut tables, mut requests, mut rtts, mut wait_shares) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reassignments, mut wasted) = (Vec::new(), Vec::new());
    let (mut submit_rtts, mut poll_rtts, mut queued) = (Vec::new(), Vec::new(), Vec::new());
    let (mut polls_per_job, mut bytes_per_job, mut busy) = (Vec::new(), Vec::new(), 0u64);
    let mut passes = 0;
    let started = Instant::now();
    while passes < MIN_PASSES || started.elapsed() < ctx.budget {
        passes += 1;
        // Fresh endpoints per pass: job ids are corpus indexes, and a
        // server that already knows an id answers from memory.
        let farm = start_farm(ctx.workers)?;
        let relays: Vec<Relay> = if ctx.trace {
            farm.iter().map(|s| Relay::start(s.addr.clone())).collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let addrs: Vec<String> = if ctx.trace {
            relays.iter().map(|r| r.addr.clone()).collect()
        } else {
            farm.iter().map(|s| s.addr.clone()).collect()
        };
        let base = tmp.join(format!("farm-{passes}"));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).map_err(|e| format!("farm dir: {e}"))?;
        let mut options = DispatchOptions::new(addrs.into_iter().map(ListenAddr::Tcp).collect());
        options.journal = Some(base.join("coordinator.journal"));
        let shards = ctx.workers;
        options.shards = shards;

        let cpu_before = host::process_cpu();
        let pass_started = Instant::now();
        let result = fragdroid::dispatch(&source, &config, &options, &off);
        let wall = pass_started.elapsed();
        let cpu = host::process_cpu().saturating_sub(cpu_before);
        samples.extend(source.settle_times_ms(Instant::now()));
        out.attempted += reader.len() as u64;
        let farm_stats: Vec<RelayStats> =
            relays.into_iter().map(Relay::finish).collect::<Result<_, _>>()?;
        let summaries = stop_farm(farm)?;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                out.failed += reader.len() as u64;
                out.problems.push(format!("dispatch failed: {e}"));
                continue;
            }
        };
        let digest = run.merged.run.outcome_digest();
        out.check(digest == reference_digest, || {
            format!("merged digest {digest:#018x} != journaled suite {reference_digest:#018x}")
        });
        out.failed += crate::corpus::failures(&run.merged.run);
        rates.push(reader.len() as f64 / wall.as_secs_f64());
        cpus.push(cpu.as_secs_f64() * 1e3 / reader.len() as f64);
        if ctx.trace {
            let merge_started = Instant::now();
            let merged = fragdroid::merge_shards(
                &reader,
                &config,
                0,
                options.journal.as_deref().expect("journal set above"),
                shards,
                &off,
            )
            .map_err(|e| format!("merge shards: {e:?}"))?;
            merges.push(merge_started.elapsed().as_secs_f64() * 1e6);
            out.check(merged.0.run.outcome_digest() == reference_digest, || {
                "re-merged shard journals diverge from the journaled suite".to_string()
            });
            tables.push(table1_us(&run.merged.run));
            let total_requests: u64 = farm_stats.iter().map(|s| s.requests).sum();
            requests.push(total_requests as f64 / reader.len() as f64);
            rtts.extend(farm_stats.iter().flat_map(|s| s.rtt_us.iter().copied()));
            let wait: Duration = farm_stats.iter().map(|s| s.poll_wait).sum();
            let lifetime: Duration = farm_stats.iter().map(|s| s.job_connections).sum();
            wait_shares.push(wait.as_secs_f64() / lifetime.as_secs_f64().max(1e-9));
            reassignments.push(run.summary.reassignments as f64);
            submit_rtts.extend(farm_stats.iter().flat_map(|s| s.submit_rtt_us.iter().copied()));
            poll_rtts.extend(farm_stats.iter().flat_map(|s| s.poll_rtt_us.iter().copied()));
            queued.extend(farm_stats.iter().flat_map(|s| s.queued.iter().copied()));
            let polls: usize = farm_stats.iter().map(|s| s.poll_rtt_us.len()).sum();
            polls_per_job.push(polls as f64 / reader.len() as f64);
            let bytes: u64 = farm_stats.iter().map(|s| s.bytes).sum();
            bytes_per_job.push(bytes as f64 / reader.len() as f64);
            busy += summaries.iter().map(|s| s.incidents.busy_rejections).sum::<u64>();
            wasted.push(run.summary.wasted_completions as f64);
        }
        let _ = std::fs::remove_dir_all(&base);
    }
    out.note("passes", passes.to_string());
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    if ctx.trace {
        out.layer("dispatch.requests_per_job", med(&requests));
        out.layer("dispatch.rtt_us", med(&rtts));
        out.layer("dispatch.poll_wait_share", med(&wait_shares));
        out.layer("dispatch.reassignments", med(&reassignments));
        out.layer("dispatch.wasted_completions", med(&wasted));
        out.layer("dispatch.merge_us", med(&merges));
        out.layer("fd_report.table1_us", med(&tables));
        // The farm's endpoints seen from the relays (they run without a
        // journal, so serve.journal_bytes stays 0 here).
        out.layer("serve.submit_rtt_us", med(&submit_rtts));
        out.layer("serve.poll_rtt_us", med(&poll_rtts));
        out.layer("serve.polls_per_job", med(&polls_per_job));
        out.layer("serve.queue_depth", queued.iter().sum::<f64>() / queued.len().max(1) as f64);
        out.layer("serve.busy_rejections", busy as f64);
        out.layer("serve.frame_bytes_per_job", med(&bytes_per_job));
        return Ok(out);
    }
    let apps_per_s = median(&rates).ok_or("no dispatch pass completed")?;
    out.end_to_end = Some(EndToEnd {
        apps_per_s,
        cpu_ms_per_app: med(&cpus),
        // Pooled over passes: a pass is too short for its own p99 to be
        // steady, and farm passes are few.
        latency: summarize(&samples).ok_or("no latency samples")?,
        max_rate_jobs_per_s: apps_per_s,
        setup_s: median(&setup).ok_or("no setup samples")?,
        peak_rss_mib: host::peak_rss_mib(),
    });
    Ok(out)
}
