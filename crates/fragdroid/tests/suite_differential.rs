//! One differential matrix over the suite runner's axes: every
//! combination of corpus source (decoded apps, in-memory containers, an
//! on-disk FDCS corpus), worker count, device pool (default or
//! caller-built) and journal (none, fresh, cut by an app budget and then
//! resumed) must find the same thing — one outcome digest and identical
//! timing-free per-app metrics.

use fragdroid::suite::{SuiteApp, SuiteContainer};
use fragdroid::{
    AppMetrics, CheckpointOptions, CorpusSource, DevicePool, FragDroidConfig, JournalError, Suite,
    SuiteRun,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    fd_appgen::stream::generate_stream_app(fd_appgen::stream::Profile::Tiny, SEED, index)
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
    CutThenResumed,
}

fn run_once(suite: &Suite<'_>, source: &dyn CorpusSource, journal: Journal) -> SuiteRun {
    let path = scratch("journal");
    let run = match journal {
        Journal::None => suite.run(source).0,
        Journal::Fresh => {
            let (done, _) =
                suite.run_checkpointed(source, &CheckpointOptions::new(&path)).expect("journals");
            assert!(done.is_complete());
            done.run
        }
        Journal::CutThenResumed => {
            let cut = CheckpointOptions::new(&path).with_app_budget(APPS / 2);
            let (partial, _) = suite.run_checkpointed(source, &cut).expect("budgeted run");
            assert_eq!(partial.remaining(), source.len() - APPS / 2);
            let resume = CheckpointOptions::new(&path).with_resume(true);
            let (done, _) = suite.run_checkpointed(source, &resume).expect("resume completes");
            assert_eq!(done.resumed, APPS / 2);
            assert!(done.is_complete());
            done.run
        }
    };
    std::fs::remove_file(&path).ok();
    run
}

#[test]
fn every_source_worker_pool_and_journal_combination_agrees() {
    let config = config();
    let apps: Vec<SuiteApp> = (0..APPS)
        .filter(|&i| i != REFUSED)
        .map(|i| {
            let gen = stream_app(i);
            (gen.app, gen.known_inputs)
        })
        .collect();
    let containers: Vec<SuiteContainer> = (0..APPS)
        .map(|i| {
            let gen = stream_app(i);
            (fd_apk::pack(&gen.app), gen.known_inputs)
        })
        .collect();
    let dir = scratch("corpus");
    let stream = fd_appgen::stream::StreamConfig {
        apps: APPS,
        seed: SEED,
        profile: fd_appgen::stream::Profile::Tiny,
        shard_size: 5,
    };
    fd_appgen::stream::write_corpus(&dir, &stream).expect("corpus writes");
    let reader = fd_apk::corpus::CorpusReader::open(&dir).expect("corpus opens");

    let reference = Suite::new(&config, 1).run(&containers).0;
    assert_eq!(reference.metrics.rejected, 1, "the corpus is mixed");
    assert!(reference.outcomes[REFUSED].is_rejected());
    assert_eq!(reference.metrics.apps[REFUSED].package, format!("container[{REFUSED}]"));
    let whole = findings(&reference);
    let well_formed = findings(&without(&reference, REFUSED));

    let sources: [(&str, &dyn CorpusSource, &Findings); 3] = [
        ("apps", &apps, &well_formed),
        ("containers", &containers, &whole),
        ("reader", &reader, &whole),
    ];
    for (name, source, expected) in sources {
        for workers in [1, 2] {
            for explicit_pool in [false, true] {
                for journal in [Journal::None, Journal::Fresh, Journal::CutThenResumed] {
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
    std::fs::remove_dir_all(&dir).ok();
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
/// triage included — never computes it, so a corpus that cannot be
/// digested still runs to completion, and a journaled run reports the
/// failure against its journal path.
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
