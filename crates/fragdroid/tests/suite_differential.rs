//! One differential matrix over every way of running a corpus: each must
//! find the same thing — one outcome digest and identical timing-free
//! per-app metrics. The in-process suite runs every combination of corpus
//! source (decoded apps, in-memory containers, an on-disk FDCS corpus),
//! worker count, device pool (default or caller-built) and journal (none,
//! fresh, cut by an app budget and resumed, a complete journal replayed).
//! Each further axis runs against the same reference on its own: the
//! subprocess device backend, shard runs merged back, one serve endpoint
//! and a dispatch farm.

use fd_droidsim::{AgentOptions, DeviceApi, SubprocessDevice};
use fragdroid::suite::{SuiteApp, SuiteContainer};
use fragdroid::{
    dispatch, merge_shards, request_once, run_shard, serve_listener, shard_journal_path,
    AppMetrics, CheckpointOptions, CorpusSource, DevicePool, DispatchOptions, FragDroidConfig,
    JournalError, ListenAddr, ServeListener, ServeOptions, ServeRequest, ServeResponse, Suite,
    SuiteRun,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Corpus size. Stream app 10 is packer-protected, so the corpus holds
/// exactly one container the ingestion frontier refuses.
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
        let apps = (0..APPS)
            .filter(|&i| i != REFUSED)
            .map(|i| {
                let gen = stream_app(i);
                (gen.app, gen.known_inputs)
            })
            .collect();
        let containers = (0..APPS)
            .map(|i| {
                let gen = stream_app(i);
                (fd_apk::pack(&gen.app), gen.known_inputs)
            })
            .collect();
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

/// `run` with slot `index` removed — the reference for a source that
/// never held that entry.
fn without(run: &SuiteRun, index: usize) -> SuiteRun {
    let mut outcomes = run.outcomes.clone();
    outcomes.remove(index);
    let mut metrics = run.metrics.clone();
    metrics.apps.remove(index);
    SuiteRun { outcomes, metrics }
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
        Journal::None => suite.run(source).0,
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

#[test]
fn every_source_worker_pool_and_journal_combination_agrees() {
    let corpus = Corpus::generate();
    let config = config();
    let reference = reference(&corpus, &config);
    assert_eq!(reference.metrics.rejected, 1, "the corpus is mixed");
    assert!(reference.outcomes[REFUSED].is_rejected());
    assert_eq!(reference.metrics.apps[REFUSED].package, format!("container[{REFUSED}]"));
    let whole = findings(&reference);
    let well_formed = findings(&without(&reference, REFUSED));

    let sources: [(&str, &dyn CorpusSource, &Findings); 3] = [
        ("apps", &corpus.apps, &well_formed),
        ("containers", &corpus.containers, &whole),
        ("reader", &corpus.reader, &whole),
    ];
    for (name, source, expected) in sources {
        for workers in [1, 2] {
            for explicit_pool in [false, true] {
                for journal in JOURNALS {
                    let pool = DevicePool::from_config(&config, workers);
                    let suite = Suite {
                        pool: explicit_pool.then_some(&pool),
                        ..Suite::new(&config, workers)
                    };
                    let run = run_once(&suite, source, journal);
                    assert_eq!(
                        &findings(&run),
                        expected,
                        "{name}, {workers} workers, explicit pool {explicit_pool}, {journal:?}"
                    );
                }
            }
        }
    }
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

/// Runs `source` as `shards` shards, each journaling on its own, and
/// merges them back.
fn merged_shards(source: &dyn CorpusSource, config: &FragDroidConfig, shards: usize) -> Findings {
    let base = scratch("shards");
    let (suite, options) = (Suite::new(config, 2), CheckpointOptions::new(&base));
    for index in 0..shards {
        run_shard(&suite, source, &options, shards, index).expect("shard runs");
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
/// than some slices have apps.
#[test]
fn merged_shards_agree_at_every_shard_count() {
    let corpus = Corpus::generate();
    let config = config();
    let whole = findings(&reference(&corpus, &config));
    let sources: [(&str, &dyn CorpusSource); 2] =
        [("containers", &corpus.containers), ("reader", &corpus.reader)];
    for (name, source) in sources {
        for shards in [1, 2, 7] {
            assert_eq!(merged_shards(source, &config, shards), whole, "{name}, {shards} shards");
        }
    }
}

/// Binds a loopback serve endpoint running `config` on a background
/// thread.
fn spawn_endpoint(config: &FragDroidConfig) -> (ListenAddr, std::thread::JoinHandle<()>) {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { config: config.clone(), ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
            .expect("endpoint runs to clean shutdown");
    });
    (addr, handle)
}

/// Dispatches `source` as `shards` shards over `endpoints` loopback serve
/// endpoints that all run `config`, then shuts the farm down.
fn dispatched(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    endpoints: usize,
    shards: usize,
) -> Findings {
    let farm: Vec<_> = (0..endpoints).map(|_| spawn_endpoint(config)).collect();
    let mut options = DispatchOptions::new(farm.iter().map(|(addr, _)| addr.clone()).collect());
    options.shards = shards;
    let run = dispatch(source, config, &options, &fd_trace::TraceConfig::off())
        .expect("dispatch completes");
    for (addr, handle) in farm {
        let reply = request_once(&addr, ServeRequest::Shutdown, Duration::from_secs(60));
        assert_eq!(reply, Ok(ServeResponse::Bye));
        handle.join().expect("endpoint thread exits");
    }
    let committed: usize = run.summary.workers.iter().map(|w| w.shards_completed).sum();
    assert_eq!((run.summary.shards, committed), (shards, shards), "each shard once");
    findings(&run.merged.run)
}

/// The corpus dispatched over serve endpoints that run the matrix config
/// finds what the in-process suite finds: through one endpoint as one
/// shard, and through a 3-endpoint farm as 7 shards.
#[test]
fn one_serve_endpoint_and_a_dispatch_farm_agree() {
    let corpus = Corpus::generate();
    let config = config();
    let whole = findings(&reference(&corpus, &config));
    let cells: [(&str, &dyn CorpusSource, usize, usize); 2] =
        [("serve", &corpus.containers, 1, 1), ("farm", &corpus.reader, 3, 7)];
    for (name, source, endpoints, shards) in cells {
        assert_eq!(dispatched(source, &config, endpoints, shards), whole, "{name}");
    }
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
