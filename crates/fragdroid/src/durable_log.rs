//! The one crash-safe, append-only log behind every journal in the
//! crate: the suite checkpoint ([`crate::checkpoint`]), the serve job
//! journal and the dispatch coordinator journal ([`crate::dispatch`]).
//! Each of them is a thin fold over [`replay`] plus its own record type;
//! every file-level durability decision lives here.
//!
//! * **Line format** — one record per line, `"<fnv16hex> <json>\n"`: the
//!   lowercase FNV-1a of the JSON payload, a space, the payload, a
//!   newline. The first record is a header carrying the format version.
//! * **Creation** — [`DurableLog::create`] writes the header to
//!   `<path>.tmp`, fsyncs it, renames it into place and fsyncs the
//!   directory. A log at the path therefore always starts with a
//!   complete, durable header; every failure is a typed
//!   [`JournalError::Io`].
//! * **Replay** — [`replay`] is pure: it checks every line, requires a
//!   header of the right version first and no second header, and
//!   measures the torn tail. Only an unterminated final line is torn (the
//!   footprint of a kill mid-append); a newline-terminated line that
//!   fails its checksum or does not parse is corruption, a typed
//!   [`JournalError::ChecksumMismatch`] / [`JournalError::BadRecord`].
//! * **Appending** — [`DurableLog::resume`] truncates the torn tail and
//!   fsyncs before the first append; [`DurableLog::append`] group-commits
//!   every `fsync_every` records. The first write or fsync failure
//!   latches: later appends and syncs report it instead of writing past
//!   a possibly torn record.

use crate::checkpoint::JournalError;
use fd_apk::corpus::{fnv1a, DIGEST_SEED};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A record type a [`DurableLog`] holds.
pub(crate) trait LogRecord: serde::Serialize + serde::Deserialize {
    /// The format version a header must carry to be replayed.
    const VERSION: u64;
    /// `Some(version)` when this record is a header, `None` otherwise.
    fn header_version(&self) -> Option<u64>;
}

// ---------------------------------------------------------------------------
// Line codec

/// Encodes one record as `"<fnv16hex> <json>\n"`, appended to `out`.
/// `json` is a caller-owned scratch buffer: the record streams into it
/// (no `Value` tree, no per-record `String`), the checksum is taken over
/// it, and both buffers keep their capacity for the next record.
pub(crate) fn encode_line_into<T: serde::Serialize>(
    record: &T,
    json: &mut String,
    out: &mut String,
) {
    use std::fmt::Write as _;
    json.clear();
    serde::Serialize::write_json(record, json);
    let _ = write!(out, "{:016x} ", fnv1a(DIGEST_SEED, json.as_bytes()));
    out.push_str(json);
    out.push('\n');
}

/// One-shot form of [`encode_line_into`] for cold paths.
pub(crate) fn encode_line<T: serde::Serialize>(record: &T) -> String {
    let mut json = String::new();
    let mut out = String::new();
    encode_line_into(record, &mut json, &mut out);
    out
}

/// Why one line failed to decode.
pub(crate) enum LineError {
    /// The checksum prefix does not match the payload.
    Checksum,
    /// The line shape or JSON payload is invalid.
    Malformed(String),
}

/// Decodes one newline-stripped line.
pub(crate) fn decode_line<T: serde::Deserialize>(line: &[u8]) -> Result<T, LineError> {
    if line.len() < 18 || line[16] != b' ' {
        return Err(LineError::Malformed("line shorter than checksum prefix".into()));
    }
    let hex = std::str::from_utf8(&line[..16])
        .map_err(|_| LineError::Malformed("non-UTF-8 checksum".into()))?;
    // The writer emits exactly lowercase hex; accepting any other form
    // would let a flipped bit in the checksum field itself go unnoticed.
    if hex.bytes().any(|b| !matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(LineError::Malformed(format!("non-canonical checksum field '{hex}'")));
    }
    let expected = u64::from_str_radix(hex, 16)
        .map_err(|_| LineError::Malformed(format!("bad checksum field '{hex}'")))?;
    let payload = &line[17..];
    if fnv1a(DIGEST_SEED, payload) != expected {
        return Err(LineError::Checksum);
    }
    let json = std::str::from_utf8(payload)
        .map_err(|_| LineError::Malformed("non-UTF-8 payload".into()))?;
    serde_json::from_str(json).map_err(|e| LineError::Malformed(e.to_string()))
}

// ---------------------------------------------------------------------------
// Replay

/// A log replayed from its bytes.
#[derive(Debug)]
pub(crate) struct Replay<R> {
    /// The header record (its version already checked).
    pub header: R,
    /// Every later record with its 1-based line number.
    pub records: Vec<(usize, R)>,
    /// Length of the valid prefix, in bytes.
    pub valid_len: u64,
    /// Bytes of torn tail past `valid_len` (0 for a clean log).
    pub torn_tail_bytes: u64,
}

/// Replays a log: decodes every newline-terminated line, then checks the
/// header. Line errors take precedence over header errors, so a corrupt
/// record is always reported where it is.
pub(crate) fn replay<R: LogRecord>(data: &[u8]) -> Result<Replay<R>, JournalError> {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    for (index, chunk) in data.split_inclusive(|&b| b == b'\n').enumerate() {
        let line = index + 1;
        // No terminator: the writer died mid-append.
        let Some(body) = chunk.strip_suffix(b"\n") else { break };
        match decode_line::<R>(body) {
            Ok(record) => records.push((line, record)),
            Err(LineError::Checksum) => return Err(JournalError::ChecksumMismatch { line }),
            Err(LineError::Malformed(error)) => {
                return Err(JournalError::BadRecord { line, error })
            }
        }
        valid_len += chunk.len();
    }
    let torn_tail_bytes = (data.len() - valid_len) as u64;

    let mut records = records.into_iter();
    let header = match records.next() {
        Some((_, record)) => match record.header_version() {
            Some(version) if version == R::VERSION => record,
            Some(found) => return Err(JournalError::VersionMismatch { found }),
            None => return Err(JournalError::MissingHeader),
        },
        // Bytes exist but not one complete record: the header itself is
        // torn, so nothing about the file can be trusted.
        None if torn_tail_bytes > 0 => {
            return Err(JournalError::TornTail { bytes: torn_tail_bytes })
        }
        None => return Err(JournalError::MissingHeader),
    };
    let records: Vec<(usize, R)> = records.collect();
    if let Some((line, _)) = records.iter().find(|(_, r)| r.header_version().is_some()) {
        return Err(JournalError::BadRecord {
            line: *line,
            error: "second header record".to_string(),
        });
    }
    Ok(Replay { header, records, valid_len: valid_len as u64, torn_tail_bytes })
}

/// Reads a whole log file.
pub(crate) fn read(path: &Path) -> Result<Vec<u8>, JournalError> {
    std::fs::read(path).map_err(|e| JournalError::io(path, "read", e))
}

// ---------------------------------------------------------------------------
// Writing

/// The append side of a log, with group commit: records are encoded
/// into a reusable buffer and hit the file as one `write_all` plus one
/// `sync_data` when `fsync_every` of them are pending (or at
/// [`DurableLog::sync`]).
pub(crate) struct DurableLog {
    file: File,
    path: PathBuf,
    /// Encoded-but-unwritten lines; flushed as one write.
    buf: String,
    /// Reusable per-record JSON scratch (see [`encode_line_into`]).
    json: String,
    /// Records in `buf`.
    pending: usize,
    fsync_every: usize,
    /// The first write or fsync failure; every later call reports it.
    failed: Option<JournalError>,
}

impl DurableLog {
    /// Creates a fresh log holding only `header`: written to
    /// `<path>.tmp`, fsync'd, renamed into place, directory fsync'd — a
    /// crash at any point leaves either no log or one with a complete
    /// header. Replaces an existing file at `path` atomically.
    pub(crate) fn create<R: LogRecord>(
        path: &Path,
        header: &R,
        fsync_every: usize,
    ) -> Result<Self, JournalError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = File::create(&tmp).map_err(|e| JournalError::io(&tmp, "create", e))?;
            file.write_all(encode_line(header).as_bytes())
                .map_err(|e| JournalError::io(&tmp, "write header", e))?;
            file.sync_all().map_err(|e| JournalError::io(&tmp, "fsync header", e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| JournalError::io(path, "rename into place", e))?;
        sync_parent_dir(path)?;
        DurableLog::open(path, fsync_every)
    }

    /// Reopens a replayed log for appending. A torn tail past
    /// `valid_len` is truncated away and the truncation fsync'd first,
    /// so no record is ever appended after a partial one. Callers
    /// validate the replayed header (fingerprint, config digest) before
    /// calling this: nothing is truncated from a log they would refuse.
    pub(crate) fn resume(
        path: &Path,
        valid_len: u64,
        fsync_every: usize,
    ) -> Result<Self, JournalError> {
        let log = DurableLog::open(path, fsync_every)?;
        let len = log.file.metadata().map_err(|e| JournalError::io(path, "stat", e))?.len();
        if len > valid_len {
            log.file
                .set_len(valid_len)
                .map_err(|e| JournalError::io(path, "truncate torn tail", e))?;
            log.file.sync_all().map_err(|e| JournalError::io(path, "fsync truncation", e))?;
        }
        Ok(log)
    }

    fn open(path: &Path, fsync_every: usize) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JournalError::io(path, "open for append", e))?;
        Ok(DurableLog {
            file,
            path: path.to_path_buf(),
            buf: String::new(),
            json: String::new(),
            pending: 0,
            fsync_every: fsync_every.max(1),
            failed: None,
        })
    }

    /// Appends one record to the batch; group-commits when it fills.
    pub(crate) fn append<T: serde::Serialize>(&mut self, record: &T) -> Result<(), JournalError> {
        encode_line_into(record, &mut self.json, &mut self.buf);
        self.pending += 1;
        if self.pending >= self.fsync_every || self.failed.is_some() {
            return self.sync();
        }
        Ok(())
    }

    /// Group commit: writes the batch with one `write_all` and makes it
    /// durable with one `sync_data` (the file is append-only, so data
    /// plus size is all that must reach stable storage). After a failure
    /// the batch is dropped unwritten and the latched error returned.
    pub(crate) fn sync(&mut self) -> Result<(), JournalError> {
        if self.pending > 0 && self.failed.is_none() {
            let written = self.file.write_all(self.buf.as_bytes()).map_err(|e| ("append", e));
            let synced = written.and_then(|()| self.file.sync_data().map_err(|e| ("fsync", e)));
            self.failed = synced.err().map(|(op, e)| JournalError::io(&self.path, op, e));
        }
        self.buf.clear();
        self.pending = 0;
        self.failed.clone().map_or(Ok(()), Err)
    }
}

/// Fsyncs the directory holding `path`, making a rename into it durable.
/// A failure is surfaced, not swallowed: until the directory entry is on
/// stable storage a crash can lose the just-renamed header.
fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    let Some(parent) = path.parent() else { return Ok(()) };
    let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
    File::open(dir)
        .and_then(|handle| handle.sync_all())
        .map_err(|e| JournalError::io(dir, "fsync directory", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::JournalRecord;
    use crate::dispatch::DispatchRecord;
    use crate::journal_fixtures::{fixture, scratch};
    use crate::serve::journal::JobRecord;

    /// Replays a checked-in fixture and writes its records back through
    /// a fresh [`DurableLog`] (group-committing in pairs); the result
    /// must be the fixture's valid prefix, byte for byte.
    fn rewrite<R: LogRecord>(name: &str) -> Vec<u8> {
        let original = fixture(name);
        let replayed = replay::<R>(&original).expect("fixture replays");
        let path = scratch(name);
        let mut log = DurableLog::create(&path, &replayed.header, 2).expect("create");
        for (_, record) in &replayed.records {
            log.append(record).expect("append");
        }
        log.sync().expect("sync");
        let written = read(&path).expect("read back");
        assert_eq!(written, &original[..replayed.valid_len as usize], "{name} re-encodes");
        written
    }

    /// The bytes a replay accounts for, re-encoded: header plus records.
    fn reencode<R: LogRecord>(replayed: &Replay<R>) -> String {
        let mut out = encode_line(&replayed.header);
        for (_, record) in &replayed.records {
            out.push_str(&encode_line(record));
        }
        out
    }

    /// The crash-point oracle for one record type, over a log written
    /// through [`DurableLog`]:
    ///
    /// * a cut at every byte offset replays to exactly the whole records
    ///   before it, with the rest measured as torn — or, for a cut inside
    ///   the header, `MissingHeader` (nothing at all) / `TornTail`;
    /// * one flipped byte inside any line is a typed error naming that
    ///   line, and the file on disk is left as it was.
    fn crash_points<R: LogRecord>(name: &str) {
        let bytes = rewrite::<R>(name);
        let ends: Vec<usize> =
            bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect();
        assert!(ends.len() > 2, "{name} has records past its header");

        for cut in 0..=bytes.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            match replay::<R>(&bytes[..cut]) {
                Ok(replayed) => {
                    assert!(whole > 0, "{name}: replayed without a header at {cut}");
                    let valid = ends[whole - 1];
                    assert_eq!(replayed.records.len(), whole - 1, "{name} at {cut}");
                    assert_eq!(replayed.valid_len, valid as u64, "{name} at {cut}");
                    assert_eq!(replayed.torn_tail_bytes, (cut - valid) as u64, "{name} at {cut}");
                    assert_eq!(reencode(&replayed).as_bytes(), &bytes[..valid], "{name} at {cut}");
                }
                Err(JournalError::MissingHeader) => assert_eq!(cut, 0, "{name}"),
                Err(JournalError::TornTail { bytes: torn }) => {
                    assert_eq!(whole, 0, "{name}: torn header past the header at {cut}");
                    assert_eq!(torn, cut as u64, "{name} at {cut}");
                }
                Err(other) => panic!("{name}: cut at {cut} gave {other}"),
            }
        }

        let path = scratch(name);
        let mut start = 0;
        for (index, &end) in ends.iter().enumerate() {
            let line = index + 1;
            for target in start..end - 1 {
                let mut corrupt = bytes.clone();
                corrupt[target] ^= 0x01;
                std::fs::write(&path, &corrupt).expect("write corrupt copy");
                match replay::<R>(&read(&path).expect("read")) {
                    Err(JournalError::ChecksumMismatch { line: at })
                    | Err(JournalError::BadRecord { line: at, .. }) => {
                        assert_eq!(at, line, "{name}: flip at byte {target}")
                    }
                    other => panic!("{name}: flip at byte {target} gave {:?}", other.err()),
                }
                assert_eq!(read(&path).expect("reread"), corrupt, "{name}: nothing truncated");
            }
            start = end;
        }
    }

    #[test]
    fn checkpoint_records_survive_every_crash_point() {
        crash_points::<JournalRecord>("checkpoint.ckpt");
    }

    #[test]
    fn serve_records_survive_every_crash_point() {
        crash_points::<JobRecord>("serve.journal");
    }

    #[test]
    fn dispatch_records_survive_every_crash_point() {
        crash_points::<DispatchRecord>("dispatch.journal");
    }

    /// The header rules: the first record must be a header of this
    /// format version, and no later record may be one.
    #[test]
    fn header_rules_are_typed() {
        let bytes = fixture("serve.journal");
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        let (header, body) = bytes.split_at(bytes.iter().position(|&b| b == b'\n').unwrap() + 1);
        assert!(matches!(replay::<JobRecord>(body), Err(JournalError::MissingHeader)));
        let twice = [header, body, header].concat();
        assert_eq!(
            replay::<JobRecord>(&twice).err(),
            Some(JournalError::BadRecord {
                line: lines + 1,
                error: "second header record".to_string()
            })
        );
        let future = encode_line(&JobRecord::Header { config_digest: 1, version: 2 });
        assert_eq!(
            replay::<JobRecord>(future.as_bytes()).err(),
            Some(JournalError::VersionMismatch { found: 2 })
        );
    }

    /// Resuming drops the torn tail (and only it) before the first
    /// append, so the next record lands on a clean line boundary.
    #[test]
    fn resume_truncates_the_torn_tail_before_appending() {
        let original = fixture("checkpoint.ckpt");
        let path = scratch("resume.ckpt");
        std::fs::write(&path, &original).expect("copy fixture");
        let replayed = replay::<JournalRecord>(&original).expect("fixture replays");
        assert!(replayed.torn_tail_bytes > 0);

        let mut log = DurableLog::resume(&path, replayed.valid_len, 8).expect("resume");
        let valid = replayed.valid_len as usize;
        assert_eq!(read(&path).expect("read"), &original[..valid], "torn tail truncated");
        let extra = &replayed.records[0].1;
        log.append(extra).expect("append");
        log.sync().expect("sync");
        let resumed = replay::<JournalRecord>(&read(&path).expect("read")).expect("replays");
        assert_eq!(resumed.torn_tail_bytes, 0);
        assert_eq!(resumed.records.len(), replayed.records.len() + 1);
    }

    /// The first failed write latches: the log never writes past a
    /// record that may have landed torn.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_latches() {
        let mut log = DurableLog::resume(Path::new("/dev/full"), 0, 1).expect("open /dev/full");
        let record = JobRecord::Completed { job: 1, ok: true, payload: String::new() };
        let first = log.append(&record).expect_err("the device is full");
        assert!(matches!(first, JournalError::Io { op: "append", .. }));
        assert_eq!(log.append(&record).err(), Some(first.clone()));
        assert_eq!(log.sync().err(), Some(first));
    }

    #[test]
    fn directory_fsync_failure_is_typed() {
        let missing = std::env::temp_dir().join("fd-durable-log-no-such-dir").join("x.journal");
        assert!(matches!(
            sync_parent_dir(&missing),
            Err(JournalError::Io { op: "fsync directory", .. })
        ));
    }
}
