//! The shard coordinator's kill-and-resume and refusal paths: a shard
//! killed mid-run makes the merge refuse typed until that shard alone
//! resumes, and a foreign shard journal is refused. That every shard
//! count merges back to the unsharded findings is a cell of the
//! `suite_differential` matrix.

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
