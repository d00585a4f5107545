//! The checkpoint journal's typed refusals: a foreign fingerprint, an
//! existing journal without `--resume`, and an unwritable path. That a
//! run cut at any app boundary resumes to the uninterrupted findings, and
//! that a complete journal replays them with no fresh work, are cells of
//! the `suite_differential` matrix; that a journal torn at any byte
//! resumes like one cut at the last whole record is the durable log's
//! crash-point oracle (`durable_log` unit tests).

use fragdroid::suite::SuiteContainer;
use fragdroid::{CheckpointOptions, CheckpointedSuite, FragDroidConfig, JournalError, Suite};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch path per call (the OS temp dir survives the test
/// binary; files are removed by each test when it finishes cleanly).
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fd-ckpt-{}-{name}-{n}", std::process::id()))
}

/// A small mixed corpus: well-formed apps (fault injection armed so some
/// crash), one malformed container, and one truncated one — every
/// [`fragdroid::AppOutcome`] variant except `Panicked` shows up.
fn mixed_corpus() -> Vec<SuiteContainer> {
    let mut containers: Vec<SuiteContainer> = [
        fd_appgen::templates::quickstart(),
        fd_appgen::templates::nav_drawer_wallpapers(),
        fd_appgen::templates::tabbed_categories(),
    ]
    .into_iter()
    .map(|g| (fd_apk::pack(&g.app), g.known_inputs))
    .collect();
    containers.insert(1, (bytes::Bytes::from_static(b"not a container"), BTreeMap::new()));
    let truncated = containers[0].0.slice(0..12);
    containers.push((truncated, BTreeMap::new()));
    containers
}

fn faulty_config(seed: u64) -> FragDroidConfig {
    FragDroidConfig::default().with_faults(seed, 0.25)
}

/// A journaled run of `containers` on `workers` workers.
fn checkpointed(
    containers: &[SuiteContainer],
    config: &FragDroidConfig,
    workers: usize,
    options: &CheckpointOptions,
    flake_retries: usize,
) -> Result<CheckpointedSuite, JournalError> {
    let suite = Suite { flake_retries, ..Suite::new(config, workers) };
    suite.run_checkpointed(&containers, options).map(|(run, _)| run)
}

mod refusals {
    use super::*;

    /// A journal written by a different invocation (different seed →
    /// different fault plan → different config digest) is refused.
    #[test]
    fn fingerprint_mismatch_is_refused() {
        let containers = mixed_corpus();
        let path = scratch("fpr");
        let opts = CheckpointOptions::new(&path);
        checkpointed(&containers, &faulty_config(3), 2, &opts, 0).expect("first run journals");

        let resume = CheckpointOptions::new(&path).with_resume(true);
        let result = checkpointed(
            &containers,
            &faulty_config(4), // different fault seed
            2,
            &resume,
            0,
        );
        match result {
            Err(JournalError::FingerprintMismatch { expected, found }) => {
                assert_ne!(expected.config_digest, found.config_digest);
                assert_eq!(expected.corpus_digest, found.corpus_digest);
            }
            other => panic!("expected fingerprint refusal, got {other:?}"),
        }

        // A different flake budget is part of the fingerprint too.
        let result = checkpointed(&containers, &faulty_config(3), 2, &resume, 5);
        assert!(matches!(result, Err(JournalError::FingerprintMismatch { .. })));
        std::fs::remove_file(&path).ok();
    }

    /// Without `--resume`, an existing journal is never overwritten.
    #[test]
    fn existing_journal_without_resume_is_refused() {
        let containers = mixed_corpus();
        let config = faulty_config(1);
        let path = scratch("exists");
        let opts = CheckpointOptions::new(&path);
        checkpointed(&containers, &config, 1, &opts, 0).expect("first run journals");
        let before = std::fs::read(&path).expect("journal readable");

        let result = checkpointed(&containers, &config, 1, &opts, 0);
        assert!(matches!(result, Err(JournalError::AlreadyExists { .. })));
        let after = std::fs::read(&path).expect("journal still readable");
        assert_eq!(before, after, "refused overwrite left the journal untouched");
        std::fs::remove_file(&path).ok();
    }

    /// An unwritable checkpoint path is a typed I/O error up front, not
    /// a panic mid-suite.
    #[test]
    fn unwritable_path_is_a_typed_io_error() {
        let containers = mixed_corpus();
        let opts = CheckpointOptions::new("/nonexistent-dir/definitely/not/here/j.ckpt");
        let result = checkpointed(&containers, &faulty_config(1), 1, &opts, 0);
        match result {
            Err(JournalError::Io { op, .. }) => assert_eq!(op, "create"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
