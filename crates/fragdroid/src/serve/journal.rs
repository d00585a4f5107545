//! The serve job journal: an append-only, checksummed record of every
//! accepted submission and every finished result, so a killed server
//! can be restarted and pick up exactly where it died.
//!
//! It is a [`DurableLog`] (line format, atomic creation, replay policy,
//! torn-tail truncation and fsync schedule all live in
//! [`crate::durable_log`]) over its own record type:
//!
//! - a `Header` stamping the format version and the config digest
//!   (refusing to mix results from different configurations, like the
//!   checkpoint fingerprint),
//! - one `Submitted` per accepted job, fsynced **before** the client
//!   sees `Accepted` (durable admission),
//! - one `Completed` per finished job, fsynced before the in-memory
//!   table flips to done.
//!
//! A finished report is journaled pretty-printed, exactly as `run
//! --json` prints it, while the server holds it as compact text: the
//! journal re-indents the compact text on append and squeezes it back on
//! recovery, and refuses a report payload that does not survive that
//! round trip. Recovery folds the replayed records: a `Completed` job is
//! served from the journal byte-identically, and a `Submitted`-only job is
//! re-queued (the engine is deterministic, so the re-run reproduces the
//! same report). Only a torn final line is dropped; a corrupt record
//! anywhere else refuses the journal with a typed [`JournalError`]
//! rather than silently forgetting jobs whose `Accepted` was already
//! sent.

use crate::checkpoint::JournalError;
use crate::durable_log::{self, replay, DurableLog, LogRecord, Replay};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Job-journal format version; bumped whenever a record shape changes
/// incompatibly.
pub(crate) const JOB_JOURNAL_VERSION: u64 = 1;

/// One journal line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum JobRecord {
    /// First line of every journal.
    Header { config_digest: u64, version: u64 },
    /// An accepted submission, written before the `Accepted` reply.
    Submitted { container_hex: String, digest: u64, inputs: BTreeMap<String, String>, job: u64 },
    /// A finished job: `ok` selects report (`true`) vs refusal.
    Completed { job: u64, ok: bool, payload: String },
}

impl LogRecord for JobRecord {
    const VERSION: u64 = JOB_JOURNAL_VERSION;

    fn header_version(&self) -> Option<u64> {
        match self {
            JobRecord::Header { version, .. } => Some(*version),
            _ => None,
        }
    }
}

/// One job restored from the journal.
pub(crate) struct RecoveredJob {
    pub job: u64,
    pub digest: u64,
    pub container_hex: String,
    pub inputs: BTreeMap<String, String>,
    /// `Some` when a `Completed` record survived: `Ok(compact report
    /// JSON)` or `Err(refusal)`. `None` means the job must be re-queued.
    pub result: Option<Result<String, String>>,
}

/// Everything recovery found.
#[derive(Default)]
pub(crate) struct Recovery {
    /// Restored jobs in job-id order.
    pub jobs: Vec<RecoveredJob>,
    /// Bytes of torn tail truncated away (0 for a clean journal).
    pub torn_tail_bytes: u64,
}

/// An open job journal, positioned for appending. Every record is
/// fsynced as it is appended.
pub(crate) struct JobJournal {
    log: DurableLog,
}

impl JobJournal {
    /// Opens the journal at `path`, recovering its contents, or creates
    /// a fresh one when the path does not exist.
    pub fn open_or_create(
        path: &Path,
        config_digest: u64,
    ) -> Result<(JobJournal, Recovery), JournalError> {
        if !path.exists() {
            let header = JobRecord::Header { config_digest, version: JOB_JOURNAL_VERSION };
            let log = DurableLog::create(path, &header, 1)?;
            return Ok((JobJournal { log }, Recovery::default()));
        }
        let Replay { header, records, valid_len, torn_tail_bytes } =
            replay::<JobRecord>(&durable_log::read(path)?)?;
        if let JobRecord::Header { config_digest: found, .. } = header {
            digest_fingerprint(config_digest).check(digest_fingerprint(found))?;
        }

        let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
        for (line, record) in records {
            match record {
                // Replay already refused a second header.
                JobRecord::Header { .. } => {}
                JobRecord::Submitted { container_hex, digest, inputs, job } => {
                    if jobs.contains_key(&job) {
                        return Err(JournalError::DuplicateIndex { index: job as usize });
                    }
                    jobs.insert(
                        job,
                        RecoveredJob { job, digest, container_hex, inputs, result: None },
                    );
                }
                JobRecord::Completed { job, ok, payload } => {
                    let Some(entry) = jobs.get_mut(&job) else {
                        return Err(JournalError::BadRecord {
                            line,
                            error: format!("Completed record for unsubmitted job {job}"),
                        });
                    };
                    entry.result = Some(if ok {
                        Ok(stored_report(&payload).ok_or_else(|| JournalError::BadRecord {
                            line,
                            error: format!("Completed report of job {job} is not pretty JSON"),
                        })?)
                    } else {
                        Err(payload)
                    });
                }
            }
        }

        let log = DurableLog::resume(path, valid_len, 1)?;
        Ok((JobJournal { log }, Recovery { jobs: jobs.into_values().collect(), torn_tail_bytes }))
    }

    /// Appends (and fsyncs) one `Submitted` record. Called before the
    /// `Accepted` reply — an error here refuses the submission.
    pub fn append_submitted(
        &mut self,
        job: u64,
        digest: u64,
        container_hex: &str,
        inputs: &BTreeMap<String, String>,
    ) -> Result<(), JournalError> {
        self.log.append(&JobRecord::Submitted {
            container_hex: container_hex.to_string(),
            digest,
            inputs: inputs.clone(),
            job,
        })
    }

    /// Appends (and fsyncs) one `Completed` record: `Ok` holds the
    /// compact report JSON, journaled re-indented; `Err` the refusal.
    pub fn append_completed(
        &mut self,
        job: u64,
        result: &Result<String, String>,
    ) -> Result<(), JournalError> {
        let (ok, payload) = match result {
            Ok(report) => (true, serde_json::indent(report)),
            Err(reason) => (false, reason.clone()),
        };
        self.log.append(&JobRecord::Completed { job, ok, payload })
    }
}

/// The compact form of a journaled report: `None` unless `pretty` is
/// one JSON value that re-indents to exactly itself, so the journal's
/// bytes are what a `Poll` of the recovered job answers and the compact
/// text splices into an `Await` reply as a JSON value.
fn stored_report(pretty: &str) -> Option<String> {
    let compact = serde_json::compact(pretty);
    let mut parser = serde::value::JsonParser::new(&compact);
    let one_value = parser.skip_value().and_then(|()| parser.finish()).is_ok();
    (one_value && serde_json::indent(&compact) == pretty).then_some(compact)
}

/// Wraps a bare config digest in the checkpoint [`Fingerprint`] shape
/// so the mismatch error renders through the same Display path. The
/// job journal has no corpus or flake budget, so those fields are 0.
fn digest_fingerprint(config_digest: u64) -> crate::checkpoint::Fingerprint {
    crate::checkpoint::Fingerprint { apps: 0, corpus_digest: 0, config_digest, flake_retries: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fd-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn inputs() -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("field".to_string(), "value".to_string());
        m
    }

    #[test]
    fn create_append_recover_round_trip() {
        let path = tmp("roundtrip.jobs");
        let _ = std::fs::remove_file(&path);
        let (mut journal, recovery) = JobJournal::open_or_create(&path, 7).expect("create");
        assert!(recovery.jobs.is_empty());
        journal.append_submitted(3, 11, "aabb", &inputs()).expect("submit 3");
        journal.append_submitted(1, 12, "ccdd", &BTreeMap::new()).expect("submit 1");
        journal.append_completed(3, &Ok("{\"report\":1}".to_string())).expect("complete 3");
        drop(journal);

        let (_journal, recovery) = JobJournal::open_or_create(&path, 7).expect("recover");
        assert_eq!(recovery.torn_tail_bytes, 0);
        assert_eq!(recovery.jobs.len(), 2);
        // Job-id order: job 1 (pending) then job 3 (completed).
        assert_eq!(recovery.jobs[0].job, 1);
        assert!(recovery.jobs[0].result.is_none());
        assert_eq!(recovery.jobs[0].container_hex, "ccdd");
        assert_eq!(recovery.jobs[1].job, 3);
        assert_eq!(recovery.jobs[1].digest, 11);
        assert_eq!(recovery.jobs[1].inputs, inputs());
        assert_eq!(recovery.jobs[1].result, Some(Ok("{\"report\":1}".to_string())));
    }

    #[test]
    fn config_mismatch_and_version_are_refused() {
        let path = tmp("mismatch.jobs");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = JobJournal::open_or_create(&path, 42).expect("create");
        drop(journal);
        match JobJournal::open_or_create(&path, 43) {
            Err(JournalError::FingerprintMismatch { expected, found }) => {
                assert_eq!(expected.config_digest, 43);
                assert_eq!(found.config_digest, 42);
            }
            other => panic!("expected FingerprintMismatch, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn completed_without_submitted_is_a_bad_record() {
        let path = tmp("orphan.jobs");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = JobJournal::open_or_create(&path, 9).expect("create");
        journal.append_completed(8, &Ok("{}".to_string())).expect("orphan complete");
        drop(journal);
        assert!(matches!(
            JobJournal::open_or_create(&path, 9),
            Err(JournalError::BadRecord { line: 2, .. })
        ));
    }

    /// A journaled report is held compact and answered re-indented, so
    /// one that would not re-indent to its own bytes, or is no JSON
    /// value, refuses the journal instead of being altered.
    #[test]
    fn reports_that_do_not_reindent_to_their_bytes_are_refused() {
        for (name, payload) in [("compact", "{\"report\":1}"), ("spaced", "{ }"), ("text", "a\"")] {
            let path = tmp(&format!("unindented-{name}.jobs"));
            let _ = std::fs::remove_file(&path);
            let (mut journal, _) = JobJournal::open_or_create(&path, 6).expect("create");
            journal.append_submitted(1, 11, "aa", &BTreeMap::new()).expect("submit 1");
            let record = JobRecord::Completed { job: 1, ok: true, payload: payload.to_string() };
            journal.log.append(&record).expect("complete 1");
            drop(journal);
            match JobJournal::open_or_create(&path, 6) {
                Err(JournalError::BadRecord { line: 3, error }) => {
                    assert!(error.contains("not pretty JSON"), "{name}: {error}");
                }
                other => panic!("{name}: expected a bad record, got {:?}", other.err()),
            }
        }
    }

    /// A corrupt newline-terminated record in the middle of the journal
    /// is corruption, not a torn tail: recovery refuses the journal and
    /// truncates nothing, so no acknowledged job is silently dropped.
    #[test]
    fn mid_file_corruption_is_refused_without_truncation() {
        let path = tmp("corrupt.jobs");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = JobJournal::open_or_create(&path, 5).expect("create");
        journal.append_submitted(1, 11, "aa", &BTreeMap::new()).expect("submit 1");
        journal.append_submitted(2, 12, "bb", &BTreeMap::new()).expect("submit 2");
        journal.append_completed(1, &Ok("{}".to_string())).expect("complete 1");
        drop(journal);

        let mut bytes = std::fs::read(&path).expect("read");
        let second_line = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
        bytes[second_line + 20] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");

        assert!(matches!(
            JobJournal::open_or_create(&path, 5),
            Err(JournalError::ChecksumMismatch { line: 2 })
        ));
        assert_eq!(std::fs::read(&path).expect("reread"), bytes, "nothing truncated");
    }

    /// A file holding only part of its header line is a torn header.
    #[test]
    fn torn_header_is_reported_as_torn() {
        let path = tmp("torn-header.jobs");
        let _ = std::fs::remove_file(&path);
        drop(JobJournal::open_or_create(&path, 5).expect("create"));
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear");
        assert_eq!(
            JobJournal::open_or_create(&path, 5).err(),
            Some(JournalError::TornTail { bytes: (bytes.len() / 2) as u64 })
        );
    }

    /// The creation tmp file is `<path>.tmp`, so journals whose names
    /// differ only after the last dot never share (and clobber) one.
    #[test]
    fn tmp_file_is_private_to_its_journal() {
        let dir = tmp("tmp-names");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        // What another journal's in-flight creation would be holding.
        let shared = dir.join("serve.jobs.tmp");
        std::fs::write(&shared, b"someone else's header").expect("sibling tmp");
        drop(JobJournal::open_or_create(&dir.join("serve.a"), 1).expect("create serve.a"));
        drop(JobJournal::open_or_create(&dir.join("serve.b"), 1).expect("create serve.b"));
        assert_eq!(std::fs::read(&shared).expect("sibling tmp kept"), b"someone else's header");
        assert!(!dir.join("serve.a.tmp").exists() && !dir.join("serve.b.tmp").exists());
    }

    /// A journal directory that cannot be opened for its fsync is a
    /// typed I/O error, not a silently non-durable journal. Staged with
    /// a write-only directory, which only an unprivileged process
    /// honours; a privileged one (root) opens it regardless, so the test
    /// has nothing to check there and returns early.
    #[cfg(unix)]
    #[test]
    fn directory_fsync_failure_is_typed() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tmp("write-only-dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o300)).expect("chmod");
        let privileged = std::fs::File::open(&dir).is_ok();
        let result = JobJournal::open_or_create(&dir.join("serve.jobs"), 1);
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o700)).expect("chmod");
        if privileged {
            return;
        }
        match result {
            Err(JournalError::Io { op, .. }) => assert_eq!(op, "fsync directory"),
            other => panic!("expected a typed Io error, got {:?}", other.err()),
        }
    }
}
