//! The dispatch coordinator's load-bearing promises, property-tested:
//!
//! * under *any* seeded chaos schedule on the submit transport, the
//!   merged run's outcome digest is byte-identical to the unsharded
//!   in-process run, and every shard commits exactly once;
//! * under *any* worker-kill schedule — including one that kills every
//!   serve endpoint — followed by a coordinator crash simulated by
//!   truncating the coordinator journal at an arbitrary byte offset,
//!   a `--resume` against a fresh farm still settles on the
//!   byte-identical digest with no shard double-merged or dropped.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fragdroid::{
    dispatch, request_once, serve_listener, shard_journal_path, ChaosConfig, DispatchError,
    DispatchOptions, FragDroidConfig, ListenAddr, ServeListener, ServeOptions, ServeRequest,
    ServeResponse,
};

fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fd-dispatch-prop-{}-{name}-{n}", std::process::id()))
}

fn corpus(n: usize) -> Vec<fragdroid::suite::SuiteContainer> {
    fd_appgen::corpus::corpus_217(41)
        .into_iter()
        .take(n)
        .map(|g| (fd_apk::pack(&g.app), g.known_inputs))
        .collect()
}

/// Binds a fresh loopback serve endpoint on a background thread.
fn spawn_server(workers: usize) -> (ListenAddr, std::thread::JoinHandle<()>) {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { workers, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
            .expect("server runs to clean shutdown");
    });
    (addr, handle)
}

/// Kills one endpoint: clean `Shutdown`, wait for `Bye`, join. After
/// this returns, connects to `addr` are refused — from the
/// coordinator's point of view the worker machine is gone.
fn kill_server(addr: &ListenAddr, handle: std::thread::JoinHandle<()>) {
    let reply = request_once(addr, ServeRequest::Shutdown, Duration::from_secs(60));
    assert_eq!(reply, Ok(ServeResponse::Bye));
    handle.join().expect("server thread exits");
}

/// The digest the farm must reproduce: the same corpus through the
/// plain in-process suite runner.
fn reference_digest(suite: &[fragdroid::suite::SuiteContainer]) -> u64 {
    let (run, _) = fragdroid::run_corpus_suite_traced(
        &suite.to_vec(),
        &FragDroidConfig::default(),
        2,
        &fd_trace::TraceConfig::off(),
    );
    run.outcome_digest()
}

mod chaos_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// For any chaos seed on the coordinator→worker transport, the
        /// merged digest matches the unsharded run and every shard is
        /// committed exactly once (none dropped, none double-merged).
        #[test]
        fn any_chaos_schedule_merges_byte_identically(seed in 0u64..1_000_000) {
            let suite = corpus(2);
            let reference = reference_digest(&suite);

            let farm: Vec<_> = (0..2).map(|_| spawn_server(2)).collect();
            let mut options =
                DispatchOptions::new(farm.iter().map(|(a, _)| a.clone()).collect());
            options.shards = 2;
            options.chaos = Some(ChaosConfig::from_seed(seed));
            options.job_deadline = Duration::from_secs(120);
            options.job_attempts = 64;
            let run = dispatch(
                &suite,
                &FragDroidConfig::default(),
                &options,
                &fd_trace::TraceConfig::off(),
            )
            .expect("chaotic dispatch completes");
            for (addr, handle) in farm {
                kill_server(&addr, handle);
            }

            prop_assert_eq!(run.merged.run.outcome_digest(), reference);
            let committed: usize =
                run.summary.workers.iter().map(|w| w.shards_completed).sum();
            prop_assert_eq!(committed, 2, "every shard committed exactly once");
            prop_assert_eq!(run.merged.run.metrics.apps.len(), suite.len());
        }
    }
}

mod kill_schedules_and_resume {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// For any stagger of worker kills that eventually takes down
        /// *every* endpoint, plus a coordinator crash truncating the
        /// coordinator journal at any post-header offset: the first
        /// life either completes or fails typed (`Stalled`), and a
        /// `--resume` against a fresh farm settles on the digest of the
        /// unsharded run with each shard merged exactly once.
        #[test]
        fn every_worker_killed_then_resume_settles(
            kill_base_ms in 200u64..2_000,
            chaos_seed in 0u64..1_000_000,
            cut in 0.0f64..1.0,
        ) {
            let suite = corpus(4);
            let reference = reference_digest(&suite);
            let journal = scratch("kill-resume");
            let shards = 4usize;

            // Life 1: three workers, chaos-slowed transport so the
            // kills land mid-run, every worker killed on a stagger.
            let farm: Vec<_> = (0..3).map(|_| spawn_server(2)).collect();
            let endpoints: Vec<_> = farm.iter().map(|(a, _)| a.clone()).collect();
            let mut options = DispatchOptions::new(endpoints);
            options.shards = shards;
            options.journal = Some(journal.clone());
            options.chaos = Some(ChaosConfig::from_seed(chaos_seed));
            options.heartbeat_interval = Duration::from_millis(50);
            options.quarantine_after = 1;
            options.quarantine_backoff = Duration::from_millis(100);
            options.job_deadline = Duration::from_secs(10);
            options.job_attempts = 2;
            options.stall_timeout = Duration::from_secs(3);
            let life1 = {
                let suite = suite.clone();
                let options = options.clone();
                std::thread::spawn(move || {
                    dispatch(
                        &suite,
                        &FragDroidConfig::default(),
                        &options,
                        &fd_trace::TraceConfig::off(),
                    )
                })
            };
            for (which, (addr, handle)) in farm.into_iter().enumerate() {
                std::thread::sleep(Duration::from_millis(
                    kill_base_ms * (which as u64 + 1) / 3,
                ));
                kill_server(&addr, handle);
            }
            let first = life1.join().expect("coordinator thread does not panic");
            prop_assert!(
                matches!(first, Ok(_) | Err(DispatchError::Stalled { .. })),
                "life 1 must complete or stall typed, got {first:?}"
            );

            // Coordinator crash: chop the journal at any offset past
            // the header line (a corrupt header is a refused journal,
            // which the unit tests cover separately).
            let bytes = std::fs::read(&journal).expect("coordinator journal readable");
            let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
            let cut_at = header_end + ((bytes.len() - header_end) as f64 * cut) as usize;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&journal)
                .expect("reopen coordinator journal")
                .set_len(cut_at as u64)
                .expect("truncate coordinator journal");

            // Life 2: a fresh farm (new ports — resume does not pin
            // endpoints), clean transport, `--resume`.
            let farm: Vec<_> = (0..3).map(|_| spawn_server(2)).collect();
            let mut options =
                DispatchOptions::new(farm.iter().map(|(a, _)| a.clone()).collect());
            options.shards = shards;
            options.journal = Some(journal.clone());
            options.resume = true;
            let run = dispatch(
                &suite,
                &FragDroidConfig::default(),
                &options,
                &fd_trace::TraceConfig::off(),
            )
            .expect("resumed dispatch completes");
            for (addr, handle) in farm {
                kill_server(&addr, handle);
            }

            prop_assert_eq!(run.merged.run.outcome_digest(), reference);
            let rerun: usize =
                run.summary.workers.iter().map(|w| w.shards_completed).sum();
            prop_assert_eq!(
                run.summary.resumed_shards + rerun,
                shards,
                "each shard is either resumed or re-run, never both or neither: {:?}",
                run.summary
            );
            prop_assert_eq!(run.merged.run.metrics.apps.len(), suite.len());

            for shard in 0..shards {
                drop(std::fs::remove_file(shard_journal_path(&journal, shard, shards)));
            }
            drop(std::fs::remove_file(&journal));
        }
    }
}

/// A farm over decoded apps labels a refused (packer-protected) slot with
/// the app's package, as the in-process suite does, not `container[i]`.
#[test]
fn a_decoded_app_farm_keeps_package_labels() {
    let apps: Vec<fragdroid::suite::SuiteApp> = fd_appgen::corpus::corpus_217(1)
        .into_iter()
        .take(24)
        .map(|generated| (generated.app, generated.known_inputs))
        .collect();
    let config = FragDroidConfig::default();
    let (reference, _) = fragdroid::Suite::new(&config, 2).run(&apps);
    assert!(reference.outcomes.iter().any(|o| o.is_rejected()), "the slice holds packed apps");
    let farm: Vec<_> = (0..2).map(|_| spawn_server(1)).collect();
    let mut options = DispatchOptions::new(farm.iter().map(|(a, _)| a.clone()).collect());
    options.shards = 3;
    let run = dispatch(&apps, &config, &options, &fd_trace::TraceConfig::off())
        .expect("dispatch completes");
    for (addr, handle) in farm {
        kill_server(&addr, handle);
    }
    let packages = |apps: &[fragdroid::suite::AppMetrics]| -> Vec<String> {
        apps.iter().map(|m| m.package.clone()).collect()
    };
    assert_eq!(packages(&run.merged.run.metrics.apps), packages(&reference.metrics.apps));
}
