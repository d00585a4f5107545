//! The checkpoint journal's two load-bearing promises, property-tested:
//!
//! 1. **Kill-and-resume determinism** — a same-seed corpus run
//!    interrupted at any completed-app boundary and resumed produces
//!    serialized outcomes byte-identical to the uninterrupted run.
//! 2. **Torn-tail recovery** — resuming a journal cut at any record
//!    boundary (or mid-record) reproduces the uninterrupted run. The
//!    byte-level crash-point and corruption oracle for every journal
//!    format lives with the durable log (`durable_log` unit tests).

use fragdroid::suite::SuiteContainer;
use fragdroid::{
    CheckpointOptions, CheckpointedSuite, FragDroidConfig, JournalError, Suite, SuiteRun,
};
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
fn mixed_corpus(seed: u64) -> Vec<SuiteContainer> {
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
    // Perturb the corpus by seed so different cases journal different
    // bytes (the seed feeds the fault plan below too).
    let n = containers.len() as u64;
    containers.rotate_left((seed % n) as usize);
    containers
}

fn faulty_config(seed: u64) -> FragDroidConfig {
    FragDroidConfig::default().with_faults(seed, 0.25)
}

/// The determinism surface: the serialized outcomes, in input order.
/// (Timing fields in the metrics legitimately differ between runs.)
fn outcome_bytes(run: &SuiteRun) -> Vec<String> {
    run.outcomes.iter().map(|o| serde_json::to_string(o).expect("outcomes serialize")).collect()
}

/// Runs the corpus uninterrupted (no journal) as the reference.
fn reference_run(containers: &[SuiteContainer], config: &FragDroidConfig) -> SuiteRun {
    Suite::new(config, 2).run(&containers).0
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

mod kill_and_resume {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Interrupt at every app-budget cutoff (0..=n fresh apps run,
        /// then the process "dies"), resume, and compare against the
        /// uninterrupted run: the serialized outcomes must be
        /// byte-identical, and the digest must agree.
        #[test]
        fn resume_matches_uninterrupted(seed in 0u64..16, cutoff in 0usize..6) {
            let containers = mixed_corpus(seed);
            let config = faulty_config(seed);
            let reference = reference_run(&containers, &config);

            let path = scratch("resume");
            let first = CheckpointOptions::new(&path).with_app_budget(cutoff);
            let partial = checkpointed(&containers, &config, 2, &first, 0).expect("budgeted run journals cleanly");
            prop_assert_eq!(partial.fresh, cutoff.min(containers.len()));

            let second = CheckpointOptions::new(&path).with_resume(true);
            let full = checkpointed(&containers, &config, 2, &second, 0).expect("resume completes the corpus");
            prop_assert!(full.is_complete());
            prop_assert_eq!(full.resumed, cutoff.min(containers.len()));

            prop_assert_eq!(outcome_bytes(&full.run), outcome_bytes(&reference));
            prop_assert_eq!(full.run.outcome_digest(), reference.outcome_digest());
            std::fs::remove_file(&path).ok();
        }

        /// A second resume with zero remaining work restores everything
        /// from the journal (no app runs at all) and still reproduces
        /// the reference outcomes byte-for-byte — including the flake
        /// summary, which is replayed from the journal, not recomputed.
        #[test]
        fn zero_work_resume_is_byte_identical(seed in 0u64..16) {
            let containers = mixed_corpus(seed);
            let config = faulty_config(seed);
            let path = scratch("zero");

            let first = CheckpointOptions::new(&path);
            let complete = checkpointed(&containers, &config, 2, &first, 2).expect("full run journals cleanly");
            prop_assert!(complete.is_complete());

            let again = CheckpointOptions::new(&path).with_resume(true);
            let replayed = checkpointed(&containers, &config, 2, &again, 2).expect("complete journal replays");
            prop_assert_eq!(replayed.fresh, 0, "no fresh work on a complete journal");
            prop_assert_eq!(outcome_bytes(&replayed.run), outcome_bytes(&complete.run));
            prop_assert_eq!(
                serde_json::to_string(&replayed.run.metrics.flake_summary).unwrap(),
                serde_json::to_string(&complete.run.metrics.flake_summary).unwrap(),
                "journaled flake verdicts are replayed verbatim"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

mod torn_tail {
    use super::*;

    /// Writes a complete journal and returns its bytes plus the
    /// reference outcomes.
    fn complete_journal(path: &PathBuf) -> (Vec<u8>, SuiteRun) {
        let containers = mixed_corpus(3);
        let config = faulty_config(3);
        let opts = CheckpointOptions::new(path);
        let complete =
            checkpointed(&containers, &config, 2, &opts, 0).expect("full run journals cleanly");
        let bytes = std::fs::read(path).expect("journal readable");
        (bytes, complete.run)
    }

    /// Resuming from a journal truncated at each record boundary (the
    /// footprint of a kill between appends) reproduces the reference
    /// outcomes byte-identically, and mid-record truncations resume too
    /// (the torn record's app simply re-runs).
    #[test]
    fn truncated_journals_resume_to_the_reference() {
        let containers = mixed_corpus(3);
        let config = faulty_config(3);
        let reference = reference_run(&containers, &config);

        let path = scratch("trunc-resume");
        let (bytes, _) = complete_journal(&path);

        // Every record boundary plus a mid-record sample.
        let mut offsets: Vec<usize> =
            bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect();
        offsets.push(bytes.len() / 2);
        offsets.push(bytes.len().saturating_sub(3));

        for offset in offsets {
            let victim = scratch("trunc-resume-victim");
            std::fs::write(&victim, &bytes[..offset]).expect("write truncated copy");
            let opts = CheckpointOptions::new(&victim).with_resume(true);
            let resumed = checkpointed(&containers, &config, 2, &opts, 0)
                .unwrap_or_else(|e| panic!("resume from offset {offset} failed: {e}"));
            assert!(resumed.is_complete());
            assert_eq!(
                outcome_bytes(&resumed.run),
                outcome_bytes(&reference),
                "offset {offset} resumed to different outcomes"
            );
            std::fs::remove_file(&victim).ok();
        }
        std::fs::remove_file(&path).ok();
    }
}

mod refusals {
    use super::*;

    /// A journal written by a different invocation (different seed →
    /// different fault plan → different config digest) is refused.
    #[test]
    fn fingerprint_mismatch_is_refused() {
        let containers = mixed_corpus(3);
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
        let containers = mixed_corpus(1);
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
        let containers = mixed_corpus(1);
        let opts = CheckpointOptions::new("/nonexistent-dir/definitely/not/here/j.ckpt");
        let result = checkpointed(&containers, &faulty_config(1), 1, &opts, 0);
        match result {
            Err(JournalError::Io { op, .. }) => assert_eq!(op, "create"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
