//! One differential matrix over every way of running a corpus: each must
//! find the same thing — one outcome digest and identical timing-free
//! per-app metrics, package labels included. The in-process suite runs
//! every combination of corpus source (decoded apps, in-memory
//! containers, an on-disk FDCS corpus), worker count, device pool
//! (default or caller-built) and journal (none, fresh, cut by an app
//! budget and resumed, a complete journal replayed), plus one traced run
//! per source. Each further axis runs against the same reference on its
//! own: the subprocess device backend, healthy and with its first agent
//! killed at seeded request boundaries; shard runs merged back, one shard
//! cut and resumed; one serve endpoint and two dispatch farms under
//! seeded transport chaos; and a journaled farm whose endpoints are shut
//! down at seeded points, its coordinator journal cut, then resumed.
//! Real `kill -9` of serve and dispatch processes is CI's
//! `serve-chaos-smoke` and `dispatch-chaos-smoke`.

use fd_droidsim::{AgentOptions, DeviceApi, SubprocessDevice};
use fragdroid::suite::{SuiteApp, SuiteContainer};
use fragdroid::{
    dispatch, merge_shards, request_once, run_shard, serve_listener, shard_journal_path,
    AppMetrics, ChaosConfig, CheckpointOptions, CorpusSource, DevicePool, DispatchError,
    DispatchOptions, FragDroid, FragDroidConfig, JobOutcome, JournalError, ListenAddr,
    ServeIncidents, ServeListener, ServeOptions, ServeRequest, ServeResponse, ServeSummary,
    SubmitClient, Suite, SuiteRun,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Corpus size. Stream app 10 is packer-protected, so the corpus holds
/// exactly one app the ingestion frontier refuses.
const APPS: usize = 12;
const REFUSED: usize = 10;
const SEED: u64 = 7;

fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fd-suite-diff-{}-{name}-{n}", std::process::id()))
}

fn config() -> FragDroidConfig {
    FragDroidConfig::default().with_faults(SEED, 0.25)
}

fn stream_app(index: usize) -> fd_appgen::GeneratedApp {
    fd_appgen::stream::generate_stream_app(fd_appgen::stream::Profile::Paper, SEED, index)
}

/// The corpus in its three source forms; the on-disk copy is removed on
/// drop.
struct Corpus {
    apps: Vec<SuiteApp>,
    containers: Vec<SuiteContainer>,
    reader: fd_apk::corpus::CorpusReader,
    dir: PathBuf,
}

impl Corpus {
    fn generate() -> Corpus {
        let apps: Vec<SuiteApp> = (0..APPS)
            .map(|i| {
                let gen = stream_app(i);
                (gen.app, gen.known_inputs)
            })
            .collect();
        let containers =
            apps.iter().map(|(app, inputs)| (fd_apk::pack(app), inputs.clone())).collect();
        let dir = scratch("corpus");
        let stream = fd_appgen::stream::StreamConfig {
            apps: APPS,
            seed: SEED,
            profile: fd_appgen::stream::Profile::Paper,
            shard_size: 5,
        };
        fd_appgen::stream::write_corpus(&dir, &stream).expect("corpus writes");
        let reader = fd_apk::corpus::CorpusReader::open(&dir).expect("corpus opens");
        Corpus { apps, containers, reader, dir }
    }

    /// Every source with the findings it must reproduce: the decoded
    /// apps label the refused slot with its manifest package, the
    /// container sources with `container[10]`.
    fn sources<'a>(
        &'a self,
        whole: &'a Findings,
    ) -> [(&'static str, &'a dyn CorpusSource, Findings); 3] {
        let mut labelled = whole.clone();
        labelled.1[REFUSED].package = self.apps[REFUSED].0.manifest.package.clone();
        [
            ("apps", &self.apps, labelled),
            ("containers", &self.containers, whole.clone()),
            ("reader", &self.reader, whole.clone()),
        ]
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// What a run found, minus timing: the outcome digest and the per-app
/// metrics with their wall-clock fields zeroed.
type Findings = (u64, Vec<AppMetrics>);

fn findings(run: &SuiteRun) -> Findings {
    let apps = run
        .metrics
        .apps
        .iter()
        .map(|m| AppMetrics { wall_ms: 0, events_per_second: 0.0, ..m.clone() })
        .collect();
    (run.outcome_digest(), apps)
}

/// The reference every cell must reproduce: the containers on one
/// in-process worker, without a journal.
fn reference(corpus: &Corpus, config: &FragDroidConfig) -> SuiteRun {
    Suite::new(config, 1).run(&corpus.containers).0
}

#[derive(Clone, Copy, Debug)]
enum Journal {
    None,
    Fresh,
    /// Killed after this many fresh apps, then resumed.
    CutThenResumed(usize),
    /// Run to completion with flake triage, then resumed with no work
    /// left: everything, flake verdicts included, replays from the
    /// journal.
    CompleteThenReplayed,
}

const JOURNALS: [Journal; 7] = [
    Journal::None,
    Journal::Fresh,
    Journal::CutThenResumed(0),
    Journal::CutThenResumed(1),
    Journal::CutThenResumed(APPS / 2),
    Journal::CutThenResumed(APPS - 1),
    Journal::CompleteThenReplayed,
];

fn run_once(suite: &Suite<'_>, source: &dyn CorpusSource, journal: Journal) -> SuiteRun {
    let path = scratch("journal");
    let resume = CheckpointOptions::new(&path).with_resume(true);
    let journaled = |suite: &Suite<'_>, options: &CheckpointOptions| {
        let (run, _) = suite.run_checkpointed(source, options).expect("journaled run");
        run
    };
    let run = match journal {
        Journal::None => {
            let (run, trace) = suite.run(source);
            assert!(trace.records.is_empty(), "tracing is off");
            run
        }
        Journal::Fresh => {
            let done = journaled(suite, &CheckpointOptions::new(&path));
            assert!(done.is_complete());
            done.run
        }
        Journal::CutThenResumed(cut) => {
            let fresh = cut.min(source.len());
            let partial = journaled(suite, &CheckpointOptions::new(&path).with_app_budget(cut));
            assert_eq!(partial.fresh, fresh);
            let done = journaled(suite, &resume);
            assert_eq!(done.resumed, fresh);
            assert!(done.is_complete());
            done.run
        }
        Journal::CompleteThenReplayed => {
            let triaged = Suite { flake_retries: 2, ..*suite };
            let complete = journaled(&triaged, &CheckpointOptions::new(&path));
            let replayed = journaled(&triaged, &resume);
            assert_eq!(replayed.fresh, 0, "no fresh work on a complete journal");
            assert_eq!(replayed.run.metrics.flake_summary, complete.run.metrics.flake_summary);
            assert!(replayed.run.metrics.flake_summary.is_some(), "triage ran");
            replayed.run
        }
    };
    std::fs::remove_file(&path).ok();
    run
}

/// The reference reports what a direct engine run of each app reports;
/// every in-process combination finds the reference, and so does one run
/// per source with tracing on, which records spans and changes no report
/// byte (with tracing off, nothing is recorded).
#[test]
fn every_source_worker_pool_and_journal_combination_agrees() {
    let corpus = Corpus::generate();
    let config = config();
    let reference = reference(&corpus, &config);
    assert_eq!(reference.metrics.rejected, 1, "the corpus is mixed");
    assert!(reference.outcomes[REFUSED].is_rejected());
    assert_eq!(reference.metrics.apps[REFUSED].package, format!("container[{REFUSED}]"));
    for ((app, inputs), outcome) in corpus.apps.iter().zip(&reference.outcomes) {
        if let Some(report) = outcome.report() {
            let direct = FragDroid::new(config.clone()).run(app, inputs);
            let json = |report| serde_json::to_string(report).expect("reports serialize");
            assert_eq!(json(report), json(&direct), "{}: a direct run", app.manifest.package);
        }
    }
    let whole = findings(&reference);

    // One source per thread, to use every core.
    std::thread::scope(|scope| {
        for (name, source, expected) in corpus.sources(&whole) {
            let config = &config;
            scope.spawn(move || {
                for workers in [1, 2] {
                    for explicit_pool in [false, true] {
                        for journal in JOURNALS {
                            let pool = DevicePool::from_config(config, workers);
                            let suite = Suite {
                                pool: explicit_pool.then_some(&pool),
                                ..Suite::new(config, workers)
                            };
                            let run = run_once(&suite, source, journal);
                            assert_eq!(
                                findings(&run),
                                expected,
                                "{name}, {workers} workers, explicit pool {explicit_pool}, \
                                 {journal:?}"
                            );
                        }
                    }
                }
                let traced = Suite { trace: fd_trace::TraceConfig::on(), ..Suite::new(config, 2) };
                let (run, trace) = traced.run(source);
                assert!(!trace.records.is_empty(), "{name}: the traced run recorded");
                assert_eq!(findings(&run), expected, "{name}, traced");
            });
        }
    });
}

/// The device backend is invisible in the results: every app driven over
/// the wire protocol to an in-memory agent finds what the in-process
/// simulator finds, with and without fault injection.
#[test]
fn the_subprocess_backend_agrees_with_and_without_faults() {
    let corpus = Corpus::generate();
    for config in [FragDroidConfig::default(), config()] {
        let pool = DevicePool::with_factory(
            2,
            Box::new(|_, _| {
                Box::new(SubprocessDevice::in_memory(AgentOptions { die_after: None }))
                    as Box<dyn DeviceApi>
            }),
        );
        let run = Suite { pool: Some(&pool), ..Suite::new(&config, 2) }.run(&corpus.containers).0;
        assert_eq!(findings(&run), findings(&reference(&corpus, &config)), "{config:?}");
        assert_eq!(pool.incidents(), 0, "healthy agents");
    }
}

/// One subprocess lane whose generation-0 agent dies at a request
/// boundary of the lane's first app — the first four boundaries, a seeded
/// stride, and the last — still finds the reference: the pool re-runs
/// the app on a fresh device and counts exactly the one death that fell
/// inside the app's run (a death at its last boundary fails the next
/// lease's health check instead, which is no incident).
#[test]
fn a_subprocess_lane_killed_at_any_request_boundary_recovers() {
    let corpus = Corpus::generate();
    let config = config();
    let whole = findings(&reference(&corpus, &config));
    let (app, inputs) = &corpus.apps[0];
    let mut healthy = SubprocessDevice::in_memory(AgentOptions { die_after: None });
    let tracer = fd_trace::Tracer::disabled();
    FragDroid::new(config.clone()).run_traced_on(app, inputs, &tracer, &mut healthy);
    let requests = healthy.requests();
    assert!(requests > 10, "the sweep needs a real request stream, got {requests}");

    let stride = StdRng::seed_from_u64(SEED).gen_range(requests / 5..=requests / 3) as usize;
    let boundaries = (0..4).chain((4..requests).step_by(stride)).chain([requests]);
    // Each boundary is a whole corpus run on one lane; run them side by
    // side to use every core.
    std::thread::scope(|scope| {
        for die_at in boundaries {
            let (config, corpus, whole) = (&config, &corpus, &whole);
            scope.spawn(move || {
                let pool = DevicePool::with_factory(
                    1,
                    Box::new(move |_, generation| {
                        let die_after = (generation == 0).then_some(die_at);
                        Box::new(SubprocessDevice::in_memory(AgentOptions { die_after }))
                            as Box<dyn DeviceApi>
                    }),
                );
                let suite = Suite { pool: Some(&pool), ..Suite::new(config, 1) };
                let run = suite.run(&corpus.containers).0;
                assert_eq!(&findings(&run), whole, "agent dead at boundary {die_at}");
                assert_eq!(pool.incidents(), usize::from(die_at < requests), "boundary {die_at}");
            });
        }
    });
}

/// Runs `source` as `shards` shards, each journaling on its own, and
/// merges them back. Shard `SEED % shards` is killed by an app budget
/// after its first app and resumed from its journal first.
fn merged_shards(source: &dyn CorpusSource, config: &FragDroidConfig, shards: usize) -> Findings {
    let base = scratch("shards");
    let (suite, options) = (Suite::new(config, 2), CheckpointOptions::new(&base));
    let cut = SEED as usize % shards;
    for index in 0..shards {
        if index == cut {
            let budget = options.clone().with_app_budget(1);
            let (partial, _) = run_shard(&suite, source, &budget, shards, index).expect("cut");
            let resume = options.clone().with_resume(true);
            let (done, _) = run_shard(&suite, source, &resume, shards, index).expect("resumes");
            assert_eq!((partial.fresh, done.resumed), (1, 1), "shard {index}/{shards}");
            assert!(done.is_complete());
        } else {
            run_shard(&suite, source, &options, shards, index).expect("shard runs");
        }
    }
    let (merged, _) = merge_shards(source, config, 0, &base, shards, &fd_trace::TraceConfig::off())
        .expect("complete shards merge");
    assert_eq!(merged.shards.len(), shards);
    for index in 0..shards {
        std::fs::remove_file(shard_journal_path(&base, index, shards)).ok();
    }
    findings(&merged.run)
}

/// A corpus run shard by shard merges back to the unsharded findings —
/// for a single shard, an even split, and a ragged split of more shards
/// than some slices have apps — from every source.
#[test]
fn merged_shards_agree_at_every_shard_count() {
    let corpus = Corpus::generate();
    let config = config();
    let whole = findings(&reference(&corpus, &config));
    for (name, source, expected) in corpus.sources(&whole) {
        for shards in [1, 2, 7] {
            assert_eq!(merged_shards(source, &config, shards), expected, "{name}, {shards} shards");
        }
    }
}

/// A loopback serve endpoint running on a background thread.
struct Endpoint {
    addr: ListenAddr,
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl Endpoint {
    fn spawn(config: &FragDroidConfig) -> Endpoint {
        let any_port = ListenAddr::Tcp("127.0.0.1:0".to_string());
        let listener = ServeListener::bind(&any_port).expect("bind");
        let addr = listener.local_addr().clone();
        let options = ServeOptions { config: config.clone(), ..ServeOptions::default() };
        let thread = std::thread::spawn(move || {
            serve_listener(listener, &options, &fd_trace::TraceConfig::off())
                .expect("endpoint runs to clean shutdown")
        });
        Endpoint { addr, thread }
    }

    /// Shuts the endpoint down over a clean transport and joins it; from
    /// here on its address refuses connections.
    fn shutdown(self) -> ServeIncidents {
        let reply = request_once(&self.addr, ServeRequest::Shutdown, Duration::from_secs(60));
        assert_eq!(reply, Ok(ServeResponse::Bye));
        self.thread.join().expect("endpoint thread exits").incidents
    }
}

/// Shuts every endpoint of `farm` down; see [`Endpoint::shutdown`].
fn shut_down(farm: Vec<Endpoint>) {
    for endpoint in farm {
        endpoint.shutdown();
    }
}

/// `endpoints` serve endpoints that all run `config`.
fn farm(config: &FragDroidConfig, endpoints: usize) -> Vec<Endpoint> {
    (0..endpoints).map(|_| Endpoint::spawn(config)).collect()
}

/// Dispatch options over `farm`, each endpoint driven by `lanes`
/// coordinator workers.
fn dispatch_options(farm: &[Endpoint], lanes: usize) -> DispatchOptions {
    let addrs = farm.iter().flat_map(|e| std::iter::repeat(e.addr.clone()).take(lanes));
    DispatchOptions::new(addrs.collect())
}

/// The merged findings of a dispatch run, after checking that each of
/// its `shards` shards committed exactly once.
fn committed(run: &fragdroid::DispatchRun, shards: usize) -> Findings {
    let committed: usize = run.summary.workers.iter().map(|w| w.shards_completed).sum();
    assert_eq!((run.summary.shards, committed), (shards, shards), "each shard once");
    findings(&run.merged.run)
}

/// Dispatches `source` as `shards` shards over `endpoints` loopback serve
/// endpoints that all run `config`, then shuts the farm down.
fn dispatched(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    endpoints: usize,
    shards: usize,
) -> Findings {
    let farm = farm(config, endpoints);
    let options = DispatchOptions { shards, ..dispatch_options(&farm, 1) };
    let run = dispatch(source, config, &options, &fd_trace::TraceConfig::off())
        .expect("dispatch completes");
    shut_down(farm);
    committed(&run, shards)
}

/// Options that run every job of a corpus at once — one shard per app,
/// one coordinator worker per shard, spread over `farm` — with every
/// connection under the seeded chaos schedule. Chaos is sleep-bound, so
/// the run lasts as long as its slowest job.
fn chaotic(farm: &[Endpoint], seed: u64) -> DispatchOptions {
    let mut options = dispatch_options(farm, APPS / farm.len());
    options.chaos = Some(ChaosConfig::from_seed(seed));
    options.job_deadline = Duration::from_secs(120);
    options.job_attempts = 64;
    options
}

/// Under seeded transport chaos (torn frames, shredded writes, stalls,
/// duplicated requests, mid-job disconnects) the corpus finds the
/// reference through one serve endpoint and through two 3-endpoint farms,
/// each under its own seed, every shard committed once. The one endpoint
/// also leaks no session, journals without error, runs every job exactly
/// once, and answers a clean resubmission of a settled job with its
/// stored report bytes instead of running it again.
#[test]
fn chaos_on_one_serve_endpoint_and_two_farms_agrees() {
    let corpus = Corpus::generate();
    let config = config();
    let reference = reference(&corpus, &config);
    let whole = findings(&reference);
    let [apps, containers, reader] = corpus.sources(&whole);
    let off = fd_trace::TraceConfig::off();
    std::thread::scope(|scope| {
        for (seed, (name, source, expected)) in [(2, reader), (3, apps)] {
            let (config, off) = (&config, &off);
            scope.spawn(move || {
                let farm = farm(config, 3);
                let run = dispatch(source, config, &chaotic(&farm, seed), off);
                shut_down(farm);
                let run = run.expect("chaotic dispatch completes");
                assert_eq!(committed(&run, APPS), expected, "{name} farm, chaos seed {seed}");
            });
        }

        let (name, source, expected) = containers;
        let endpoint = Endpoint::spawn(&config);
        let one = std::slice::from_ref(&endpoint);
        let run = dispatch(source, &config, &chaotic(one, 1), &off).expect("chaotic serve");
        assert_eq!(committed(&run, APPS), expected, "{name} through one endpoint, chaos seed 1");

        let (bytes, inputs) = &corpus.containers[0];
        let hex = fd_droidsim::proto::to_hex(bytes);
        let replay = SubmitClient::new(endpoint.addr.clone()).submit(1, &hex, inputs);
        let report = reference.outcomes[0].report().expect("app 0 ran");
        let json = serde_json::to_string_pretty(report).expect("reports serialize");
        assert_eq!(replay, Ok(JobOutcome::Report { json }), "the stored report bytes");

        let i = endpoint.shutdown();
        assert_eq!(i.connections_opened, i.connections_closed, "no leaked session: {i:?}");
        assert_eq!(i.journal_errors, 0);
        assert_eq!(i.jobs_completed + i.jobs_rejected, APPS as u64, "no job ran twice: {i:?}");
        assert!(i.resubmits_deduped >= 1, "the resubmission was deduplicated: {i:?}");
    });
}

/// Shuts `endpoint` down once it has settled `after` jobs, or once `over`
/// is set.
fn shut_down_after(endpoint: Endpoint, after: u64, over: &AtomicBool) {
    while !over.load(Ordering::Relaxed) {
        match request_once(&endpoint.addr, ServeRequest::Status, Duration::from_secs(60)) {
            Ok(ServeResponse::Status { completed, rejected, .. })
                if completed + rejected >= after =>
            {
                break
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    endpoint.shutdown();
}

/// Life 1 of a journaled 3-endpoint farm whose endpoint `e` is shut down
/// once it has settled `kills[e]` jobs (0: dead before the first lease)
/// must complete or stall typed. A coordinator crash then cuts the
/// coordinator journal at fraction `cut` of its post-header bytes, and a
/// resume on a fresh farm finds `expected` with each shard resumed or
/// re-run exactly once.
fn killed_then_resumed(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    kills: [u64; 3],
    cut: f64,
    expected: &Findings,
) {
    let (journal, shards, off) = (scratch("farm-journal"), 4, fd_trace::TraceConfig::off());
    let endpoints = farm(config, kills.len());
    let options = DispatchOptions {
        shards,
        journal: Some(journal.clone()),
        heartbeat_interval: Duration::from_millis(50),
        quarantine_after: 1,
        quarantine_backoff: Duration::from_millis(100),
        job_deadline: Duration::from_secs(10),
        job_attempts: 2,
        stall_timeout: Duration::from_secs(1),
        ..dispatch_options(&endpoints, 1)
    };
    let over = &AtomicBool::new(false);
    let first = std::thread::scope(|scope| {
        for (endpoint, after) in endpoints.into_iter().zip(kills) {
            if after == 0 {
                endpoint.shutdown();
            } else {
                scope.spawn(move || shut_down_after(endpoint, after, over));
            }
        }
        let first = dispatch(source, config, &options, &off);
        over.store(true, Ordering::Relaxed);
        first
    });
    assert!(
        matches!(first, Ok(_) | Err(DispatchError::Stalled { .. })),
        "kills {kills:?}: life 1 must complete or stall typed, got {first:?}"
    );

    let bytes = std::fs::read(&journal).expect("coordinator journal readable");
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let cut_at = header_end + ((bytes.len() - header_end) as f64 * cut) as usize;
    let file = std::fs::OpenOptions::new().write(true).open(&journal).expect("reopen");
    file.set_len(cut_at as u64).expect("truncate coordinator journal");

    let endpoints = farm(config, 3);
    let fresh_farm = dispatch_options(&endpoints, 1).endpoints;
    let options = DispatchOptions { resume: true, endpoints: fresh_farm, ..options };
    let run = dispatch(source, config, &options, &off).expect("resumed dispatch completes");
    shut_down(endpoints);
    let rerun: usize = run.summary.workers.iter().map(|w| w.shards_completed).sum();
    assert_eq!(run.summary.resumed_shards + rerun, shards, "kills {kills:?}: {:?}", run.summary);
    assert_eq!(&findings(&run.merged.run), expected, "kills {kills:?}, cut {cut}");
    for shard in 0..shards {
        std::fs::remove_file(shard_journal_path(&journal, shard, shards)).ok();
    }
    std::fs::remove_file(&journal).ok();
}

/// Three seeded kill schedules, each with one endpoint dead before the
/// first lease and its journal cut in its own third of the post-header
/// bytes, run concurrently over the decoded apps.
#[test]
fn a_farm_killed_at_seeded_points_resumes_to_the_reference() {
    let corpus = Corpus::generate();
    let config = config();
    let whole = findings(&reference(&corpus, &config));
    let [(_, apps, expected), ..] = corpus.sources(&whole);
    let mut rng = StdRng::seed_from_u64(SEED);
    let schedules: Vec<([u64; 3], f64)> = (0..3)
        .map(|stratum| {
            let kills = [0, rng.gen_range(1..=APPS as u64 / 2), rng.gen_range(1..=APPS as u64)];
            (kills, (stratum as f64 + rng.gen::<f64>()) / 3.0)
        })
        .collect();
    std::thread::scope(|scope| {
        for (kills, cut) in schedules {
            let (config, expected) = (&config, &expected);
            scope.spawn(move || killed_then_resumed(apps, config, kills, cut, expected));
        }
    });
}

/// A zero per-app deadline stops every app at its first budget check, so
/// every app that runs is deterministically `deadline_exceeded`. The
/// suite, merged shards and a dispatch farm (whose endpoints run the same
/// config) must agree on the digest and on every per-app flag.
#[test]
fn a_hit_deadline_agrees_across_suite_shards_and_farm() {
    let corpus = Corpus::generate();
    let config = config().with_deadline(Duration::ZERO);
    let reference = reference(&corpus, &config);
    for (index, app) in reference.metrics.apps.iter().enumerate() {
        assert_eq!(app.deadline_exceeded, index != REFUSED, "{}", app.package);
    }
    let whole = findings(&reference);
    assert_eq!(findings(&Suite::new(&config, 2).run(&corpus.reader).0), whole, "suite");
    for shards in [1, 2, 7] {
        assert_eq!(merged_shards(&corpus.reader, &config, shards), whole, "{shards} shards");
    }
    assert_eq!(dispatched(&corpus.reader, &config, 3, 7), whole, "farm");
}

/// A corpus whose digest always fails, counting the attempts.
struct Undigestable {
    entries: Vec<SuiteContainer>,
    digests: AtomicUsize,
}

impl CorpusSource for Undigestable {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        self.entries.fetch(index)
    }

    fn digest(&self) -> Result<u64, String> {
        self.digests.fetch_add(1, Ordering::Relaxed);
        Err("corpus digest unavailable".to_string())
    }
}

/// Only a journal needs the corpus digest: an unjournaled run — flake
/// triage and a dispatch farm included — never computes it, so a corpus
/// that cannot be digested still runs to completion, and a journaled run
/// reports the failure against its journal path.
#[test]
fn unjournaled_runs_never_digest_the_corpus() {
    let source = Undigestable {
        entries: (0..4)
            .map(|i| {
                let gen = stream_app(i);
                (fd_apk::pack(&gen.app), gen.known_inputs)
            })
            .collect(),
        digests: AtomicUsize::new(0),
    };
    let config = config();
    let off = fd_trace::TraceConfig::off();

    let (triaged, _) = fragdroid::run_corpus_suite_checkpointed(&source, &config, 2, &off, None, 2)
        .expect("an unjournaled run has no digest to fail");
    assert!(triaged.is_complete());
    assert!(triaged.run.metrics.flake_summary.is_some(), "triage ran");

    let (run, _) = Suite { flake_retries: 2, ..Suite::new(&config, 2) }.run(&source);
    assert_eq!(run.outcomes.len(), 4);
    assert!(run.metrics.flake_summary.is_some(), "triage ran");

    let plain = findings(&Suite::new(&config, 1).run(&source).0);
    assert_eq!(dispatched(&source, &config, 1, 1), plain, "unjournaled dispatch");
    assert_eq!(source.digests.load(Ordering::Relaxed), 0, "digest never called");

    let path = scratch("undigestable");
    let journaled =
        Suite::new(&config, 2).run_checkpointed(&source, &CheckpointOptions::new(&path));
    match journaled {
        Err(JournalError::Io { path: reported, op, .. }) => {
            assert_eq!(Path::new(&reported), path);
            assert_eq!(op, "digest corpus source");
        }
        other => panic!("expected a digest failure, got {other:?}"),
    }
    assert!(!path.exists(), "no journal is created for an undigestable corpus");
}
