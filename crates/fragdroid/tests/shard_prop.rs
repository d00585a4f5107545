//! The shard merge's typed refusals: a shard killed mid-run makes the
//! merge refuse with `Incomplete`, and a foreign shard journal is refused
//! by its fingerprint. That every shard count merges back to the
//! unsharded findings, a killed shard resumed included, is a cell of the
//! `suite_differential` matrix.

use fragdroid::suite::SuiteContainer;
use fragdroid::{
    merge_shards, run_shard, shard_journal_path, CheckpointOptions, FragDroidConfig, ShardError,
    Suite,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fd-shard-{}-{name}-{n}", std::process::id()))
}

/// A mixed corpus: well-formed apps (fault injection arms some crashes),
/// one malformed container, and one truncated one.
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

/// Runs every shard of `containers`; shard `killed`, if any, "dies" after
/// one fresh app.
fn run_shards(
    containers: &[SuiteContainer],
    config: &FragDroidConfig,
    base: &Path,
    shards: usize,
    killed: Option<usize>,
) {
    for index in 0..shards {
        let mut opts = CheckpointOptions::new(base);
        if killed == Some(index) {
            opts = opts.with_app_budget(1);
        }
        run_shard(&Suite::new(config, 2), &containers, &opts, shards, index)
            .unwrap_or_else(|e| panic!("shard {index}/{shards} failed: {e}"));
    }
}

fn cleanup(base: &Path, shards: usize) {
    for index in 0..shards {
        std::fs::remove_file(shard_journal_path(base, index, shards)).ok();
    }
}

/// A shard killed mid-run (app budget) still journals cleanly, and the
/// merge refuses with a typed `Incomplete` naming it.
#[test]
fn a_killed_shard_is_refused_at_merge() {
    let containers = mixed_corpus(3);
    let config = faulty_config(3);
    let (shards, base) = (4, scratch("kill"));
    run_shards(&containers, &config, &base, shards, Some(2));
    match merge_shards(&containers, &config, 0, &base, shards, &fd_trace::TraceConfig::off()) {
        Err(ShardError::Incomplete { shard, done, total }) => {
            assert_eq!(shard, 2);
            assert!(done < total, "incomplete means strictly fewer than {total}");
        }
        other => panic!("merging a killed shard must refuse, got {other:?}"),
    }
    cleanup(&base, shards);
}

/// A shard journal written with a different config (different fault
/// plan) is refused at merge time with a typed fingerprint error.
#[test]
fn foreign_shard_journal_is_refused_at_merge() {
    let containers = mixed_corpus(5);
    let (shards, base) = (2, scratch("foreign"));
    run_shards(&containers, &faulty_config(5), &base, shards, None);
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
