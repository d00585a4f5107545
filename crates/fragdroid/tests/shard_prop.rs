//! The shard coordinator's load-bearing promise, property-tested: a
//! corpus split across N shard processes, each journaling to its own
//! checkpoint, merges back to the *exact* outcome digest (and
//! timing-free metrics) of a single-process run — for every shard count
//! including ragged splits, under fault injection, and across a
//! kill-and-resume of one shard.

use fragdroid::suite::SuiteContainer;
use fragdroid::{
    merge_shards, run_shard, shard_journal_path, CheckpointOptions, CorpusSource, FragDroidConfig,
    ShardError, Suite, SuiteRun,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fd-shard-{}-{name}-{n}", std::process::id()))
}

/// A mixed corpus: well-formed apps (fault injection arms some crashes),
/// one malformed container, and one truncated one — so the merge has
/// rejections (and their `container[i]` quarantine labels) to relabel.
fn mixed_corpus(seed: u64) -> Vec<SuiteContainer> {
    let mut containers: Vec<SuiteContainer> = [
        fd_appgen::templates::quickstart(),
        fd_appgen::templates::nav_drawer_wallpapers(),
        fd_appgen::templates::tabbed_categories(),
        fd_appgen::templates::quickstart(),
        fd_appgen::templates::tabbed_categories(),
    ]
    .into_iter()
    .map(|g| (fd_apk::pack(&g.app), g.known_inputs))
    .collect();
    containers.insert(1, (bytes::Bytes::from_static(b"not a container"), BTreeMap::new()));
    let truncated = containers[0].0.slice(0..12);
    containers.push((truncated, BTreeMap::new()));
    let n = containers.len() as u64;
    containers.rotate_left((seed % n) as usize);
    containers
}

fn faulty_config(seed: u64) -> FragDroidConfig {
    FragDroidConfig::default().with_faults(seed, 0.25)
}

fn outcome_bytes(run: &SuiteRun) -> Vec<String> {
    run.outcomes.iter().map(|o| serde_json::to_string(o).expect("outcomes serialize")).collect()
}

/// The single-process reference over the same lazy source.
fn reference_run(source: &dyn CorpusSource, config: &FragDroidConfig) -> SuiteRun {
    Suite::new(config, 2).run(source).0
}

fn run_all_shards(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    base: &std::path::Path,
    shards: usize,
) {
    for index in 0..shards {
        let opts = CheckpointOptions::new(base);
        run_shard(&Suite::new(config, 2), source, &opts, shards, index)
            .unwrap_or_else(|e| panic!("shard {index}/{shards} failed: {e}"));
    }
}

fn cleanup(base: &std::path::Path, shards: usize) {
    for index in 0..shards {
        std::fs::remove_file(shard_journal_path(base, index, shards)).ok();
    }
}

mod merge_identity {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// N ∈ {1, 2, 4, 7} (7 > app count per shard makes the split
        /// ragged, with some single-entry and larger shards) under 25%
        /// fault injection: merged outcomes, digest, and timing-free
        /// metrics must equal the single-process run exactly.
        #[test]
        fn n_shard_merge_matches_single_run(seed in 0u64..12, pick in 0usize..4) {
            let shards = [1usize, 2, 4, 7][pick];
            let containers = mixed_corpus(seed);
            let config = faulty_config(seed);
            let reference = reference_run(&containers, &config);

            let base = scratch("merge");
            run_all_shards(&containers, &config, &base, shards);
            let (merged, _) = merge_shards(
                &containers, &config, 0, &base, shards, &fd_trace::TraceConfig::off(),
            ).expect("complete shard journals merge");

            prop_assert_eq!(merged.shards.len(), shards);
            prop_assert_eq!(outcome_bytes(&merged.run), outcome_bytes(&reference));
            prop_assert_eq!(merged.run.outcome_digest(), reference.outcome_digest());

            // Timing-free metrics: identical app set, identical per-app
            // event/coverage numbers, identical rejection count.
            let m = &merged.run.metrics;
            let r = &reference.metrics;
            prop_assert_eq!(m.rejected, r.rejected);
            prop_assert_eq!(m.apps.len(), r.apps.len());
            for (ours, theirs) in m.apps.iter().zip(&r.apps) {
                prop_assert_eq!(&ours.package, &theirs.package);
                prop_assert_eq!(ours.events_injected, theirs.events_injected);
                prop_assert_eq!(ours.test_cases_run, theirs.test_cases_run);
                prop_assert_eq!(ours.crashes, theirs.crashes);
                prop_assert_eq!(ours.rejected, theirs.rejected);
            }
            cleanup(&base, shards);
        }
    }
}

mod kill_and_resume {
    use super::*;

    /// Kill one shard mid-run (app budget), confirm the merge refuses
    /// with a typed `Incomplete`, resume just that shard, and the final
    /// merge still reproduces the reference digest.
    #[test]
    fn killed_shard_resumes_and_merge_still_matches() {
        let containers = mixed_corpus(3);
        let config = faulty_config(3);
        let reference = reference_run(&containers, &config);
        let shards = 4;
        let base = scratch("kill");

        for index in 0..shards {
            let opts = if index == 2 {
                // This shard "dies" after one fresh app.
                CheckpointOptions::new(&base).with_app_budget(1)
            } else {
                CheckpointOptions::new(&base)
            };
            run_shard(&Suite::new(&config, 2), &containers, &opts, shards, index)
                .expect("budgeted shard still journals cleanly");
        }

        match merge_shards(&containers, &config, 0, &base, shards, &fd_trace::TraceConfig::off()) {
            Err(ShardError::Incomplete { shard, done, total }) => {
                assert_eq!(shard, 2);
                assert!(done < total, "incomplete means strictly fewer than {total}");
            }
            other => panic!("merging a killed shard must refuse, got {other:?}"),
        }

        // Resume only the killed shard, from its own journal.
        let resume = CheckpointOptions::new(&base).with_resume(true);
        let (resumed, _) = run_shard(&Suite::new(&config, 2), &containers, &resume, shards, 2)
            .expect("killed shard resumes from its checkpoint");
        assert!(resumed.is_complete());
        assert!(resumed.resumed > 0, "the resume replayed the journaled app");

        let (merged, _) =
            merge_shards(&containers, &config, 0, &base, shards, &fd_trace::TraceConfig::off())
                .expect("all shards complete after the resume");
        assert_eq!(merged.run.outcome_digest(), reference.outcome_digest());
        assert_eq!(outcome_bytes(&merged.run), outcome_bytes(&reference));
        cleanup(&base, shards);
    }

    /// A shard journal written with a different config (different fault
    /// plan) is refused at merge time with a typed fingerprint error.
    #[test]
    fn foreign_shard_journal_is_refused_at_merge() {
        let containers = mixed_corpus(5);
        let shards = 2;
        let base = scratch("foreign");
        run_all_shards(&containers, &faulty_config(5), &base, shards);
        match merge_shards(
            &containers,
            &faulty_config(6), // different fault seed → different fingerprint
            0,
            &base,
            shards,
            &fd_trace::TraceConfig::off(),
        ) {
            Err(ShardError::Journal { shard: 0, error }) => {
                let text = error.to_string();
                assert!(text.contains("fingerprint"), "typed fingerprint refusal, got: {text}");
            }
            other => panic!("expected a fingerprint refusal on shard 0, got {other:?}"),
        }
        cleanup(&base, shards);
    }
}

mod on_disk {
    use super::*;

    /// The full scale-out path end to end in-library: a generated
    /// on-disk corpus streamed by the lazy [`fd_apk::CorpusReader`]
    /// through a 4-shard run merges to the digest of the unsharded
    /// streamed run — no corpus entry is ever materialized eagerly.
    #[test]
    fn lazy_disk_corpus_shards_to_the_streamed_digest() {
        let dir = scratch("disk-corpus");
        let stream_config = fd_appgen::stream::StreamConfig::tiny(10, 42);
        fd_appgen::stream::write_corpus(&dir, &stream_config).expect("write corpus");
        let reader = fd_apk::corpus::CorpusReader::open(&dir).expect("open corpus");

        let config = faulty_config(11);
        let reference = reference_run(&reader, &config);
        assert_eq!(reference.outcomes.len(), 10);

        let shards = 4;
        let base = scratch("disk");
        run_all_shards(&reader, &config, &base, shards);
        let (merged, _) =
            merge_shards(&reader, &config, 0, &base, shards, &fd_trace::TraceConfig::off())
                .expect("disk-backed shards merge");
        assert_eq!(merged.run.outcome_digest(), reference.outcome_digest());
        assert_eq!(outcome_bytes(&merged.run), outcome_bytes(&reference));

        cleanup(&base, shards);
        std::fs::remove_dir_all(&dir).ok();
    }
}
