//! Format pins for the three crash-safe journals: the suite checkpoint,
//! the serve job journal and the dispatch coordinator journal.
//!
//! Each fixture under `tests/fixtures/journals/` was written by the
//! journal code itself. Every test replays its fixture to a fixed
//! expected state and re-encodes the same records, asserting the bytes
//! equal the fixture — so neither the on-disk format nor the recovery
//! semantics can drift without a test noticing.

use crate::checkpoint::{load_journal, write_complete_journal, Fingerprint};
use crate::dispatch::{demo_dispatch_journal, parse_dispatch_journal};
use crate::serve::journal::JobJournal;
use crate::suite::{AppMetrics, AppOutcome};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Path of one checked-in fixture.
pub(crate) fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journals").join(name)
}

/// The bytes of one checked-in fixture.
pub(crate) fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).expect("journal fixture is checked in")
}

/// A fresh scratch path per call.
pub(crate) fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fd-journal-fixtures-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// The checkpoint fixture's invocation fingerprint.
const CHECKPOINT_FINGERPRINT: Fingerprint = Fingerprint {
    apps: 3,
    corpus_digest: 0x0123_4567_89ab_cdef,
    config_digest: 0xfedc_ba98_7654_3210,
    flake_retries: 0,
};

/// Bytes of the partial record appended after the complete journal.
const CHECKPOINT_TORN_BYTES: usize = 25;

fn metrics(package: &str, wall_ms: u64, rejected: bool, panicked: bool) -> AppMetrics {
    AppMetrics {
        package: package.to_string(),
        wall_ms,
        events_injected: 0,
        events_per_second: 0.0,
        test_cases_run: 0,
        test_cases_generated: 0,
        crashes: 0,
        recovered_crashes: 0,
        retries: 0,
        faults_injected: 0,
        panicked,
        deadline_exceeded: false,
        rejected,
        reject_reason: if rejected { "container: bad magic".to_string() } else { String::new() },
    }
}

/// The checkpoint fixture's complete slots: `(index, outcome, metrics)`.
fn checkpoint_slots() -> Vec<(usize, AppOutcome, AppMetrics)> {
    vec![
        (
            0,
            AppOutcome::Rejected { reason: "container: bad magic".to_string() },
            metrics("container[0]", 3, true, false),
        ),
        (
            2,
            AppOutcome::Panicked { message: "index out of bounds: \"len\" is 2".to_string() },
            metrics("com.example.brick", 17, false, true),
        ),
    ]
}

/// Writes the checkpoint fixture's records through the journal writer:
/// the complete journal for [`checkpoint_slots`], then the first
/// [`CHECKPOINT_TORN_BYTES`] bytes of one more record (slot 1) — the
/// footprint of a kill mid-append.
fn encode_checkpoint_fixture() -> Vec<u8> {
    let path = scratch("checkpoint.ckpt");
    let slots = checkpoint_slots();
    write_complete_journal(&path, CHECKPOINT_FINGERPRINT, slots.iter().map(|(i, o, m)| (*i, o, m)))
        .expect("write complete journal");
    let complete = std::fs::read(&path).expect("read journal");

    let torn = scratch("torn.ckpt");
    let outcome = AppOutcome::Rejected { reason: "container: truncated".to_string() };
    let next = metrics("container[1]", 5, true, false);
    write_complete_journal(&torn, CHECKPOINT_FINGERPRINT, [(1, &outcome, &next)])
        .expect("write one-record journal");
    let one = std::fs::read(&torn).expect("read one-record journal");
    let header_len = one.iter().position(|&b| b == b'\n').expect("header line") + 1;

    let mut bytes = complete;
    bytes.extend_from_slice(&one[header_len..header_len + CHECKPOINT_TORN_BYTES]);
    bytes
}

#[test]
fn checkpoint_fixture_replays_and_reencodes() {
    let bytes = fixture("checkpoint.ckpt");
    let loaded = load_journal(&fixture_path("checkpoint.ckpt")).expect("fixture loads");
    assert_eq!(loaded.fingerprint, CHECKPOINT_FINGERPRINT);
    assert_eq!(loaded.torn_tail_bytes, CHECKPOINT_TORN_BYTES as u64);
    assert_eq!(loaded.valid_len, (bytes.len() - CHECKPOINT_TORN_BYTES) as u64);
    assert!(loaded.flakes.is_none());
    let expected = checkpoint_slots();
    assert_eq!(loaded.slots.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
    for (index, outcome, metrics) in &expected {
        let (got_outcome, got_metrics) = &loaded.slots[index];
        assert_eq!(
            serde_json::to_string(got_outcome).unwrap(),
            serde_json::to_string(outcome).unwrap()
        );
        assert_eq!(got_metrics, metrics);
    }

    assert_eq!(encode_checkpoint_fixture(), bytes, "checkpoint journal format drifted");
}

/// The serve fixture's config digest.
const SERVE_CONFIG_DIGEST: u64 = 0x5eed_f1a7_0000_0042;

fn serve_inputs() -> BTreeMap<String, String> {
    let mut inputs = BTreeMap::new();
    inputs.insert("password".to_string(), "hunter2".to_string());
    inputs.insert("user".to_string(), "alice".to_string());
    inputs
}

/// Writes the serve fixture through the job journal: job 1 submitted
/// and completed, job 2 submitted and still pending.
fn encode_serve_fixture() -> Vec<u8> {
    let path = scratch("serve.journal");
    let (mut journal, recovery) =
        JobJournal::open_or_create(&path, SERVE_CONFIG_DIGEST).expect("create serve journal");
    assert!(recovery.jobs.is_empty());
    journal.append_submitted(1, 0x11, "46444150", &serve_inputs()).expect("submit 1");
    journal.append_submitted(2, 0x22, "beef", &BTreeMap::new()).expect("submit 2");
    journal.append_completed(1, true, "{\n  \"report\": 1\n}").expect("complete 1");
    drop(journal);
    std::fs::read(&path).expect("read serve journal")
}

#[test]
fn serve_fixture_replays_and_reencodes() {
    let bytes = fixture("serve.journal");
    let copy = scratch("serve-replay.journal");
    std::fs::write(&copy, &bytes).expect("copy fixture");
    let (_journal, recovery) =
        JobJournal::open_or_create(&copy, SERVE_CONFIG_DIGEST).expect("fixture recovers");
    assert_eq!(recovery.torn_tail_bytes, 0);
    assert_eq!(recovery.jobs.len(), 2);
    let done = &recovery.jobs[0];
    assert_eq!((done.job, done.digest), (1, 0x11));
    assert_eq!(done.container_hex, "46444150");
    assert_eq!(done.inputs, serve_inputs());
    assert_eq!(done.result, Some(Ok("{\n  \"report\": 1\n}".to_string())));
    let pending = &recovery.jobs[1];
    assert_eq!((pending.job, pending.digest), (2, 0x22));
    assert_eq!(pending.container_hex, "beef");
    assert!(pending.inputs.is_empty());
    assert_eq!(pending.result, None);
    assert_eq!(std::fs::read(&copy).expect("reread"), bytes, "clean recovery leaves bytes alone");

    assert_eq!(encode_serve_fixture(), bytes, "serve journal format drifted");
}

#[test]
fn dispatch_fixture_replays_and_reencodes() {
    let bytes = fixture("dispatch.journal");
    let parsed = parse_dispatch_journal(&bytes).expect("fixture parses");
    assert_eq!(
        parsed.fingerprint,
        Fingerprint {
            apps: 10,
            corpus_digest: 0xfd15_7a7c_0000_0007,
            config_digest: 7u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            flake_retries: 0,
        }
    );
    assert_eq!(parsed.shards, 5);
    assert_eq!(parsed.done, (0..5).map(|shard| (shard, 2)).collect::<BTreeMap<_, _>>());
    assert_eq!((parsed.grants, parsed.revocations, parsed.quarantines), (7, 2, 2));
    assert_eq!((parsed.valid_len, parsed.torn_tail_bytes), (bytes.len() as u64, 0));

    assert_eq!(demo_dispatch_journal(7, 5), bytes, "dispatch journal format drifted");
}
