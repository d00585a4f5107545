//! FDCS — the sharded on-disk corpus format for streaming suite runs.
//!
//! A corpus far larger than RAM is laid out as a directory:
//!
//! ```text
//! corpus/
//!   corpus.json        manifest: seed, profile, shard list, digest
//!   shard-0000.fdcs    packed containers + inputs, index at the tail
//!   shard-0001.fdcs
//! ```
//!
//! One shard file is:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FDCS"
//! 4       2     version (u16 BE)
//! 6       4     entry count (u32 BE)
//! 10      8     index offset (u64 BE)
//! 18      …     entry payloads, back to back:
//!                 container bytes ++ inputs JSON bytes
//! index   16/e  per entry: payload offset (u64 BE),
//!                 container length (u32 BE), inputs length (u32 BE)
//! ```
//!
//! The index is written last so the writer streams payloads in one pass
//! (O(1 app) memory; the in-RAM index costs 16 bytes/entry) and patches
//! the header on [`ShardWriter::finish`]. The decoder demands *strict
//! contiguity*: entry 0 starts at byte 18, every entry starts where the
//! previous one ended, and the last entry ends exactly where the index
//! begins — so overlapping entries, gaps, and offsets past EOF are all
//! typed [`ApkError`]s, never panics. [`parse_shard`] is the pure
//! byte-slice entry point `fd-fuzz` drives; [`ShardReader`] applies the
//! same validation to a file without reading its payload region.
//!
//! The streaming [`CorpusReader::corpus_digest`] folds exactly what the
//! in-memory suite digest folds — container bytes, then each inputs
//! entry's key and value bytes in `BTreeMap` order — so a lazily
//! streamed corpus fingerprints identically to a materialized one.

use crate::error::{ApkError, CorruptCause};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Magic prefix of one corpus shard file.
pub const SHARD_MAGIC: &[u8; 4] = b"FDCS";
/// Highest shard-format version this library understands.
pub const SHARD_VERSION: u16 = 1;
/// Name of the corpus manifest inside a corpus directory.
pub const MANIFEST_FILE: &str = "corpus.json";

/// Fixed shard header length: magic + version + entries + index offset.
const HEADER_LEN: usize = 18;
/// Bytes per index entry: offset u64 + container len u32 + inputs len u32.
const INDEX_ENTRY_LEN: usize = 16;

/// FNV-1a offset basis — the corpus digest seed. Folding every entry
/// with [`fold_entry_digest`] starting from this value reproduces the
/// suite runner's in-memory corpus digest. Every other digest in the
/// workspace (configs, submissions, journal lines, fuzz campaigns)
/// starts from it too.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash (start from [`DIGEST_SEED`]).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds one corpus entry — container bytes, then each inputs key and
/// value in map order — into a running digest seeded by [`DIGEST_SEED`].
pub fn fold_entry_digest(
    mut hash: u64,
    container: &[u8],
    inputs: &BTreeMap<String, String>,
) -> u64 {
    hash = fnv1a(hash, container);
    for (key, value) in inputs {
        hash = fnv1a(hash, key.as_bytes());
        hash = fnv1a(hash, value.as_bytes());
    }
    hash
}

/// Renders a digest the way the CLI prints it: `0x` + 16 lowercase hex.
pub fn format_digest(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// Parses a [`format_digest`]-rendered digest back to its value.
pub fn parse_digest(text: &str) -> Result<u64, String> {
    let hex =
        text.strip_prefix("0x").ok_or_else(|| format!("digest '{text}' does not start with 0x"))?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return Err(format!("digest '{text}' is not 16 lowercase hex digits"));
    }
    u64::from_str_radix(hex, 16).map_err(|e| format!("digest '{text}': {e}"))
}

/// One entry's location inside a shard's payload region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EntrySpan {
    offset: u64,
    container_len: u32,
    inputs_len: u32,
}

/// Parses the fixed 18-byte shard header, returning the entry count and
/// the index offset. Only needs the header bytes; extra bytes are
/// ignored here (the caller validates the full layout).
fn parse_header(bytes: &[u8]) -> Result<(u32, u64), ApkError> {
    if bytes.len() < 4 {
        return Err(ApkError::Truncated { offset: 0, needed: 4, available: bytes.len() });
    }
    if &bytes[..4] != SHARD_MAGIC {
        return Err(ApkError::BadMagic);
    }
    let take = |offset: usize, needed: usize| -> Result<&[u8], ApkError> {
        bytes.get(offset..offset + needed).ok_or(ApkError::Truncated {
            offset,
            needed,
            available: bytes.len().saturating_sub(offset),
        })
    };
    let v = take(4, 2)?;
    let version = u16::from_be_bytes([v[0], v[1]]);
    if version != SHARD_VERSION {
        return Err(ApkError::UnsupportedVersion(version));
    }
    let e = take(6, 4)?;
    let entries = u32::from_be_bytes([e[0], e[1], e[2], e[3]]);
    let o = take(10, 8)?;
    let index_offset = u64::from_be_bytes([o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]]);
    Ok((entries, index_offset))
}

/// Validates the header-declared layout against the shard's total
/// length, returning the index region's byte length. Catches an index
/// offset inside the header, past EOF, an index that does not fit, and
/// trailing bytes after it.
fn validate_layout(entries: u32, index_offset: u64, total_len: u64) -> Result<usize, ApkError> {
    if index_offset < HEADER_LEN as u64 {
        return Err(ApkError::corrupt(
            "index",
            format!("index offset {index_offset} overlaps the {HEADER_LEN}-byte header"),
        ));
    }
    if index_offset > total_len {
        return Err(ApkError::BadLengthField {
            section: "index",
            offset: 10,
            declared: usize::try_from(index_offset).unwrap_or(usize::MAX),
            available: usize::try_from(total_len).unwrap_or(usize::MAX),
        });
    }
    let index_len =
        (entries as usize).checked_mul(INDEX_ENTRY_LEN).ok_or(ApkError::BadLengthField {
            section: "index",
            offset: 6,
            declared: usize::MAX,
            available: usize::try_from(total_len - index_offset).unwrap_or(usize::MAX),
        })?;
    let available = total_len - index_offset;
    if index_len as u64 > available {
        return Err(ApkError::BadLengthField {
            section: "index",
            offset: 6,
            declared: index_len,
            available: usize::try_from(available).unwrap_or(usize::MAX),
        });
    }
    if (index_len as u64) < available {
        let count = usize::try_from(available - index_len as u64).unwrap_or(usize::MAX);
        return Err(ApkError::Corrupt {
            section: "index",
            cause: CorruptCause::TrailingBytes { count },
        });
    }
    Ok(index_len)
}

/// Walks the index table, enforcing strict entry contiguity: entry 0 at
/// byte 18, each entry starting where the previous ended, the last one
/// ending exactly at the index. `index_bytes` must be exactly
/// `entries × 16` bytes (guaranteed by [`validate_layout`]).
fn parse_index(
    index_bytes: &[u8],
    entries: u32,
    index_offset: u64,
) -> Result<Vec<EntrySpan>, ApkError> {
    let mut spans = Vec::with_capacity(entries as usize);
    let mut expected = HEADER_LEN as u64;
    for i in 0..entries as usize {
        let at = i * INDEX_ENTRY_LEN;
        let row = &index_bytes[at..at + INDEX_ENTRY_LEN];
        let offset =
            u64::from_be_bytes([row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7]]);
        let container_len = u32::from_be_bytes([row[8], row[9], row[10], row[11]]);
        let inputs_len = u32::from_be_bytes([row[12], row[13], row[14], row[15]]);
        if offset != expected {
            return Err(ApkError::corrupt(
                "index",
                format!(
                    "entry {i} starts at byte {offset} but the previous entry ends at \
                     {expected}: overlapping or discontiguous entries"
                ),
            ));
        }
        let payload = container_len as u64 + inputs_len as u64;
        let end = offset.checked_add(payload).ok_or(ApkError::BadLengthField {
            section: "entry",
            offset: usize::try_from(index_offset).unwrap_or(usize::MAX).saturating_add(at),
            declared: usize::try_from(payload).unwrap_or(usize::MAX),
            available: 0,
        })?;
        if end > index_offset {
            return Err(ApkError::BadLengthField {
                section: "entry",
                offset: usize::try_from(index_offset).unwrap_or(usize::MAX).saturating_add(at),
                declared: usize::try_from(payload).unwrap_or(usize::MAX),
                available: usize::try_from(index_offset.saturating_sub(offset))
                    .unwrap_or(usize::MAX),
            });
        }
        spans.push(EntrySpan { offset, container_len, inputs_len });
        expected = end;
    }
    if expected != index_offset {
        return Err(ApkError::corrupt(
            "index",
            format!("{} payload bytes unclaimed by the index", index_offset - expected),
        ));
    }
    Ok(spans)
}

/// A fully validated in-memory view of one shard — borrowed slices into
/// the shard bytes, in the spirit of [`crate::ContainerView`].
#[derive(Debug)]
pub struct ShardView<'a> {
    data: &'a [u8],
    spans: Vec<EntrySpan>,
}

impl<'a> ShardView<'a> {
    /// Number of entries in the shard.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Entry `index`'s container bytes, borrowed from the shard.
    pub fn container(&self, index: usize) -> &'a [u8] {
        let s = self.spans[index];
        let start = s.offset as usize;
        &self.data[start..start + s.container_len as usize]
    }

    /// Entry `index`'s raw inputs JSON bytes, borrowed from the shard.
    pub fn inputs_bytes(&self, index: usize) -> &'a [u8] {
        let s = self.spans[index];
        let start = s.offset as usize + s.container_len as usize;
        &self.data[start..start + s.inputs_len as usize]
    }

    /// Decodes entry `index`'s inputs map from its JSON bytes.
    pub fn inputs(&self, index: usize) -> Result<BTreeMap<String, String>, ApkError> {
        serde_json::from_slice(self.inputs_bytes(index))
            .map_err(|e| ApkError::Corrupt { section: "inputs", cause: CorruptCause::Json(e) })
    }
}

/// Parses and fully validates one shard's bytes — the pure, panic-free
/// entry point the fuzz harness drives. Structure (header, index
/// bounds, entry contiguity) is checked here; inputs JSON decodes
/// lazily via [`ShardView::inputs`].
pub fn parse_shard(bytes: &[u8]) -> Result<ShardView<'_>, ApkError> {
    let (entries, index_offset) = parse_header(bytes)?;
    let index_len = validate_layout(entries, index_offset, bytes.len() as u64)?;
    let start = index_offset as usize;
    let spans = parse_index(&bytes[start..start + index_len], entries, index_offset)?;
    Ok(ShardView { data: bytes, spans })
}

/// A typed failure while reading or writing an on-disk corpus. File-
/// level I/O keeps its [`io::Error`] (so this type has no `Clone`/
/// `PartialEq`); byte-level failures carry the shard's [`ApkError`].
#[derive(Debug)]
pub enum CorpusError {
    /// An I/O operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// What was being attempted.
        op: &'static str,
        /// The underlying error.
        error: io::Error,
    },
    /// A shard file's bytes are malformed.
    Shard {
        /// The shard file.
        path: PathBuf,
        /// The decode failure.
        error: ApkError,
    },
    /// The corpus manifest is missing, malformed, or inconsistent with
    /// the shard files it describes.
    Manifest {
        /// The manifest file.
        path: PathBuf,
        /// What is wrong with it.
        detail: String,
    },
    /// A fetch named an entry index past the end of the corpus.
    OutOfRange {
        /// The requested index.
        index: usize,
        /// The corpus length.
        len: usize,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, op, error } => {
                write!(f, "corpus I/O failure: {op} {}: {error}", path.display())
            }
            CorpusError::Shard { path, error } => {
                write!(f, "corrupt corpus shard {}: {error}", path.display())
            }
            CorpusError::Manifest { path, detail } => {
                write!(f, "bad corpus manifest {}: {detail}", path.display())
            }
            CorpusError::OutOfRange { index, len } => {
                write!(f, "corpus entry {index} out of range (corpus has {len})")
            }
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io { error, .. } => Some(error),
            CorpusError::Shard { error, .. } => Some(error),
            _ => None,
        }
    }
}

fn io_err(path: &Path, op: &'static str, error: io::Error) -> CorpusError {
    CorpusError::Io { path: path.to_path_buf(), op, error }
}

/// Streams entries into one shard file: header placeholder first, then
/// payloads in one pass, then the index, then a header patch on
/// [`ShardWriter::finish`]. Memory stays O(1 app) plus 16 bytes per
/// entry of in-RAM index.
#[derive(Debug)]
pub struct ShardWriter {
    path: PathBuf,
    file: BufWriter<File>,
    spans: Vec<EntrySpan>,
    cursor: u64,
}

impl ShardWriter {
    /// Creates the shard file (truncating any existing one) and writes a
    /// placeholder header.
    pub fn create(path: &Path) -> Result<Self, CorpusError> {
        let file = File::create(path).map_err(|e| io_err(path, "create", e))?;
        let mut writer = ShardWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
            spans: Vec::new(),
            cursor: HEADER_LEN as u64,
        };
        let header = shard_header(0, 0);
        writer.file.write_all(&header).map_err(|e| io_err(&writer.path, "write header", e))?;
        Ok(writer)
    }

    /// Entries appended so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends one entry: the packed container bytes plus its inputs
    /// map (serialized as compact JSON with sorted keys).
    pub fn append(
        &mut self,
        container: &[u8],
        inputs: &BTreeMap<String, String>,
    ) -> Result<(), CorpusError> {
        let inputs_json = serde_json::to_vec(inputs)
            .map_err(|e| io_err(&self.path, "serialize inputs", io::Error::other(e.to_string())))?;
        let container_len = u32::try_from(container.len()).map_err(|_| {
            io_err(&self.path, "append", io::Error::other("container exceeds u32 length"))
        })?;
        let inputs_len = u32::try_from(inputs_json.len()).map_err(|_| {
            io_err(&self.path, "append", io::Error::other("inputs exceed u32 length"))
        })?;
        self.file.write_all(container).map_err(|e| io_err(&self.path, "write container", e))?;
        self.file.write_all(&inputs_json).map_err(|e| io_err(&self.path, "write inputs", e))?;
        self.spans.push(EntrySpan { offset: self.cursor, container_len, inputs_len });
        self.cursor += container.len() as u64 + inputs_json.len() as u64;
        Ok(())
    }

    /// Writes the index table, patches the header with the entry count
    /// and index offset, and syncs the file. Returns the final file
    /// length in bytes.
    pub fn finish(self) -> Result<u64, CorpusError> {
        let ShardWriter { path, mut file, spans, cursor } = self;
        let entries = u32::try_from(spans.len())
            .map_err(|_| io_err(&path, "finish", io::Error::other("more than u32::MAX entries")))?;
        let mut total = cursor;
        for span in &spans {
            let mut row = [0u8; INDEX_ENTRY_LEN];
            row[..8].copy_from_slice(&span.offset.to_be_bytes());
            row[8..12].copy_from_slice(&span.container_len.to_be_bytes());
            row[12..16].copy_from_slice(&span.inputs_len.to_be_bytes());
            file.write_all(&row).map_err(|e| io_err(&path, "write index", e))?;
            total += INDEX_ENTRY_LEN as u64;
        }
        file.flush().map_err(|e| io_err(&path, "flush", e))?;
        let mut inner = file.into_inner().map_err(|e| io_err(&path, "flush", e.into_error()))?;
        inner.seek(SeekFrom::Start(6)).map_err(|e| io_err(&path, "seek header", e))?;
        let mut patch = [0u8; 12];
        patch[..4].copy_from_slice(&entries.to_be_bytes());
        patch[4..].copy_from_slice(&cursor.to_be_bytes());
        inner.write_all(&patch).map_err(|e| io_err(&path, "patch header", e))?;
        inner.sync_all().map_err(|e| io_err(&path, "sync", e))?;
        Ok(total)
    }
}

fn shard_header(entries: u32, index_offset: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(SHARD_MAGIC);
    header[4..6].copy_from_slice(&SHARD_VERSION.to_be_bytes());
    header[6..10].copy_from_slice(&entries.to_be_bytes());
    header[10..18].copy_from_slice(&index_offset.to_be_bytes());
    header
}

/// Encodes entries into one in-memory shard — the writer's byte layout
/// without touching disk, for tests and fuzz seed templates.
pub fn encode_shard(entries: &[(Vec<u8>, BTreeMap<String, String>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut spans = Vec::with_capacity(entries.len());
    let mut cursor = HEADER_LEN as u64;
    for (container, inputs) in entries {
        let inputs_json = serde_json::to_vec(inputs).expect("string maps always serialize");
        spans.push(EntrySpan {
            offset: cursor,
            container_len: container.len() as u32,
            inputs_len: inputs_json.len() as u32,
        });
        payload.extend_from_slice(container);
        payload.extend_from_slice(&inputs_json);
        cursor += container.len() as u64 + inputs_json.len() as u64;
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + spans.len() * INDEX_ENTRY_LEN);
    out.extend_from_slice(&shard_header(entries.len() as u32, cursor));
    out.extend_from_slice(&payload);
    for span in &spans {
        out.extend_from_slice(&span.offset.to_be_bytes());
        out.extend_from_slice(&span.container_len.to_be_bytes());
        out.extend_from_slice(&span.inputs_len.to_be_bytes());
    }
    out
}

/// A lazily read shard file: the header and index are validated at open
/// (the payload region is never read whole); entries are fetched by one
/// positioned read each, so resident memory stays O(1 app) and workers
/// fetching from the same shard never wait on each other.
#[derive(Debug)]
pub struct ShardReader {
    path: PathBuf,
    file: File,
    spans: Vec<EntrySpan>,
}

impl ShardReader {
    /// Opens and validates a shard file's header and index table.
    pub fn open(path: &Path) -> Result<Self, CorpusError> {
        let mut file = File::open(path).map_err(|e| io_err(path, "open", e))?;
        let total_len = file.metadata().map_err(|e| io_err(path, "stat", e))?.len();
        let mut header = [0u8; HEADER_LEN];
        let got = read_up_to(&mut file, &mut header).map_err(|e| io_err(path, "read header", e))?;
        let shard = |error: ApkError| CorpusError::Shard { path: path.to_path_buf(), error };
        let (entries, index_offset) = parse_header(&header[..got]).map_err(shard)?;
        let index_len = validate_layout(entries, index_offset, total_len).map_err(shard)?;
        file.seek(SeekFrom::Start(index_offset)).map_err(|e| io_err(path, "seek index", e))?;
        let mut index_bytes = vec![0u8; index_len];
        file.read_exact(&mut index_bytes).map_err(|e| io_err(path, "read index", e))?;
        let spans = parse_index(&index_bytes, entries, index_offset).map_err(shard)?;
        Ok(ShardReader { path: path.to_path_buf(), file, spans })
    }

    /// Number of entries in the shard.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Reads entry `index`: the container bytes plus the decoded inputs
    /// map. The two are contiguous in the shard, so one positioned read
    /// (`pread`) fetches both; it moves no shared file cursor.
    pub fn fetch(&self, index: usize) -> Result<(Vec<u8>, BTreeMap<String, String>), CorpusError> {
        let span = *self
            .spans
            .get(index)
            .ok_or(CorpusError::OutOfRange { index, len: self.spans.len() })?;
        let container_len = span.container_len as usize;
        let mut entry = vec![0u8; container_len + span.inputs_len as usize];
        if let Err(e) = self.file.read_exact_at(&mut entry, span.offset) {
            // Name the part the shard ends in, as separate reads would.
            let container_end = span.offset + u64::from(span.container_len);
            let op = match self.file.metadata() {
                Ok(meta) if meta.len() >= container_end => "read inputs",
                _ => "read container",
            };
            return Err(io_err(&self.path, op, e));
        }
        let inputs =
            serde_json::from_slice(&entry[container_len..]).map_err(|e| CorpusError::Shard {
                path: self.path.clone(),
                error: ApkError::Corrupt { section: "inputs", cause: CorruptCause::Json(e) },
            })?;
        entry.truncate(container_len);
        Ok((entry, inputs))
    }
}

/// Reads as many bytes as the stream holds, up to `buf.len()` — a
/// short file must surface as a typed truncation, not an I/O error.
fn read_up_to(file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match file.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// One shard's row in the corpus manifest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Shard file name, relative to the corpus directory.
    pub file: String,
    /// Entries in the shard.
    pub apps: usize,
}

/// The corpus directory's manifest (`corpus.json`): how the corpus was
/// generated and how it is sharded.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusManifest {
    /// Manifest format version.
    pub version: u32,
    /// The generator seed the corpus reproduces from.
    pub seed: u64,
    /// Total entries across all shards.
    pub apps: usize,
    /// The generator profile name (e.g. `tiny`, `paper`).
    pub profile: String,
    /// Entries per shard file (the last shard may hold fewer).
    pub shard_size: usize,
    /// The streaming corpus digest, rendered by [`format_digest`].
    pub corpus_digest: String,
    /// The shard files, in corpus order.
    pub shards: Vec<ShardManifest>,
}

impl CorpusManifest {
    /// The manifest's recorded digest as a value.
    pub fn digest_value(&self) -> Result<u64, String> {
        parse_digest(&self.corpus_digest)
    }
}

/// Writes the manifest (pretty JSON) into a corpus directory.
pub fn write_manifest(dir: &Path, manifest: &CorpusManifest) -> Result<(), CorpusError> {
    let path = dir.join(MANIFEST_FILE);
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| io_err(&path, "serialize manifest", io::Error::other(e.to_string())))?;
    std::fs::write(&path, json.as_bytes()).map_err(|e| io_err(&path, "write", e))
}

/// A lazily read corpus directory: the manifest plus one [`ShardReader`]
/// per shard. Entries are addressed by a global index; only the shard
/// indexes live in memory.
#[derive(Debug)]
pub struct CorpusReader {
    manifest: CorpusManifest,
    shards: Vec<ShardReader>,
    starts: Vec<usize>,
    total: usize,
}

impl CorpusReader {
    /// Opens a corpus directory: reads the manifest, opens every shard,
    /// and cross-checks the per-shard entry counts.
    pub fn open(dir: &Path) -> Result<Self, CorpusError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&manifest_path).map_err(|e| io_err(&manifest_path, "read", e))?;
        let manifest: CorpusManifest = serde_json::from_slice(&bytes).map_err(|e| {
            CorpusError::Manifest { path: manifest_path.clone(), detail: e.to_string() }
        })?;
        if manifest.version != 1 {
            return Err(CorpusError::Manifest {
                path: manifest_path.clone(),
                detail: format!("unsupported manifest version {}", manifest.version),
            });
        }
        let mut shards = Vec::with_capacity(manifest.shards.len());
        let mut starts = Vec::with_capacity(manifest.shards.len());
        let mut total = 0usize;
        for row in &manifest.shards {
            let reader = ShardReader::open(&dir.join(&row.file))?;
            if reader.len() != row.apps {
                return Err(CorpusError::Manifest {
                    path: manifest_path.clone(),
                    detail: format!(
                        "shard {} holds {} entries but the manifest declares {}",
                        row.file,
                        reader.len(),
                        row.apps
                    ),
                });
            }
            starts.push(total);
            total += reader.len();
            shards.push(reader);
        }
        if total != manifest.apps {
            return Err(CorpusError::Manifest {
                path: manifest_path,
                detail: format!(
                    "shards hold {total} entries but the manifest declares {}",
                    manifest.apps
                ),
            });
        }
        Ok(CorpusReader { manifest, shards, starts, total })
    }

    /// The corpus manifest.
    pub fn manifest(&self) -> &CorpusManifest {
        &self.manifest
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the corpus holds no entries.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Reads entry `index` (global, across shards).
    pub fn fetch(&self, index: usize) -> Result<(Vec<u8>, BTreeMap<String, String>), CorpusError> {
        if index >= self.total {
            return Err(CorpusError::OutOfRange { index, len: self.total });
        }
        let shard = self.starts.partition_point(|&start| start <= index) - 1;
        self.shards[shard].fetch(index - self.starts[shard])
    }

    /// Streams every entry once, folding the corpus digest — identical
    /// to the in-memory suite digest of the same containers + inputs.
    pub fn corpus_digest(&self) -> Result<u64, CorpusError> {
        let mut hash = DIGEST_SEED;
        for index in 0..self.total {
            let (container, inputs) = self.fetch(index)?;
            hash = fold_entry_digest(hash, &container, &inputs);
        }
        Ok(hash)
    }

    /// Checks the streamed digest against the manifest's recorded one.
    pub fn verify_digest(&self) -> Result<u64, CorpusError> {
        let recorded = self.manifest.digest_value().map_err(|detail| CorpusError::Manifest {
            path: PathBuf::from(MANIFEST_FILE),
            detail,
        })?;
        let streamed = self.corpus_digest()?;
        if streamed != recorded {
            return Err(CorpusError::Manifest {
                path: PathBuf::from(MANIFEST_FILE),
                detail: format!(
                    "manifest digest {} does not match streamed digest {}",
                    format_digest(recorded),
                    format_digest(streamed)
                ),
            });
        }
        Ok(streamed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<(Vec<u8>, BTreeMap<String, String>)> {
        let mut inputs = BTreeMap::new();
        inputs.insert("user".to_string(), "alice".to_string());
        inputs.insert("pin".to_string(), "1234".to_string());
        vec![
            (b"container-zero".to_vec(), inputs),
            (b"c1".to_vec(), BTreeMap::new()),
            (Vec::new(), BTreeMap::new()),
        ]
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fd-corpus-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn encode_parse_roundtrip() {
        let entries = sample_entries();
        let bytes = encode_shard(&entries);
        let view = parse_shard(&bytes).expect("valid shard");
        assert_eq!(view.len(), 3);
        for (i, (container, inputs)) in entries.iter().enumerate() {
            assert_eq!(view.container(i), &container[..]);
            assert_eq!(&view.inputs(i).expect("inputs decode"), inputs);
        }
    }

    #[test]
    fn empty_shard_is_valid() {
        let bytes = encode_shard(&[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        let view = parse_shard(&bytes).expect("empty shard parses");
        assert!(view.is_empty());
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = encode_shard(&sample_entries());
        for cut in 0..bytes.len() {
            let err = parse_shard(&bytes[..cut]).expect_err("truncated shard must fail");
            match err {
                ApkError::Truncated { .. }
                | ApkError::BadMagic
                | ApkError::BadLengthField { .. }
                | ApkError::Corrupt { .. } => {}
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_shard(&sample_entries());
        bytes[0] = b'X';
        assert_eq!(parse_shard(&bytes).unwrap_err(), ApkError::BadMagic);
        let mut bytes = encode_shard(&sample_entries());
        bytes[5] = 9;
        assert_eq!(parse_shard(&bytes).unwrap_err(), ApkError::UnsupportedVersion(9));
    }

    #[test]
    fn index_offset_past_eof_is_typed() {
        let mut bytes = encode_shard(&sample_entries());
        bytes[10..18].copy_from_slice(&(u64::MAX / 2).to_be_bytes());
        assert!(matches!(
            parse_shard(&bytes).unwrap_err(),
            ApkError::BadLengthField { section: "index", offset: 10, .. }
        ));
    }

    #[test]
    fn index_offset_inside_header_is_typed() {
        let mut bytes = encode_shard(&sample_entries());
        bytes[10..18].copy_from_slice(&4u64.to_be_bytes());
        assert!(matches!(
            parse_shard(&bytes).unwrap_err(),
            ApkError::Corrupt { section: "index", .. }
        ));
    }

    #[test]
    fn trailing_bytes_after_index_are_rejected() {
        let mut bytes = encode_shard(&sample_entries());
        bytes.push(0xaa);
        assert!(matches!(
            parse_shard(&bytes).unwrap_err(),
            ApkError::Corrupt { section: "index", cause: CorruptCause::TrailingBytes { count: 1 } }
        ));
    }

    #[test]
    fn overlapping_entries_are_rejected() {
        let entries = sample_entries();
        let mut bytes = encode_shard(&entries);
        // Point entry 1's offset back at entry 0's payload.
        let index_offset = bytes.len() - entries.len() * INDEX_ENTRY_LEN;
        let row1 = index_offset + INDEX_ENTRY_LEN;
        bytes[row1..row1 + 8].copy_from_slice(&(HEADER_LEN as u64).to_be_bytes());
        let err = parse_shard(&bytes).unwrap_err();
        assert!(
            matches!(&err, ApkError::Corrupt { section: "index", .. }),
            "overlap must be typed, got {err:?}"
        );
        assert!(err.to_string().contains("overlapping"));
    }

    #[test]
    fn entry_spilling_into_index_is_rejected() {
        let entries = sample_entries();
        let mut bytes = encode_shard(&entries);
        let index_offset = bytes.len() - entries.len() * INDEX_ENTRY_LEN;
        // Inflate the last entry's container length so it runs past the
        // index offset.
        let row_last = index_offset + 2 * INDEX_ENTRY_LEN;
        bytes[row_last + 8..row_last + 12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            parse_shard(&bytes).unwrap_err(),
            ApkError::BadLengthField { section: "entry", .. }
        ));
    }

    #[test]
    fn corrupt_inputs_json_is_typed_and_lazy() {
        let entries = sample_entries();
        let mut bytes = encode_shard(&entries);
        // Entry 0's inputs start after its 14-byte container.
        let inputs_at = HEADER_LEN + entries[0].0.len();
        bytes[inputs_at] = b'!';
        let view = parse_shard(&bytes).expect("structure is still valid");
        assert!(matches!(
            view.inputs(0).unwrap_err(),
            ApkError::Corrupt { section: "inputs", cause: CorruptCause::Json(_) }
        ));
        assert!(view.inputs(1).is_ok(), "other entries stay readable");
    }

    #[test]
    fn writer_reader_roundtrip_and_byte_identity() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("shard.fdcs");
        let entries = sample_entries();
        let mut writer = ShardWriter::create(&path).expect("create");
        for (container, inputs) in &entries {
            writer.append(container, inputs).expect("append");
        }
        let total = writer.finish().expect("finish");
        let on_disk = std::fs::read(&path).expect("read back");
        assert_eq!(on_disk.len() as u64, total);
        assert_eq!(on_disk, encode_shard(&entries), "writer and encoder agree byte-for-byte");
        let reader = ShardReader::open(&path).expect("open");
        assert_eq!(reader.len(), entries.len());
        for (i, (container, inputs)) in entries.iter().enumerate() {
            let (c, m) = reader.fetch(i).expect("fetch");
            assert_eq!(&c, container);
            assert_eq!(&m, inputs);
        }
        assert!(matches!(
            reader.fetch(99).unwrap_err(),
            CorpusError::OutOfRange { index: 99, len: 3 }
        ));
    }

    #[test]
    fn fetch_is_lock_free_and_names_the_part_a_cut_shard_ends_in() {
        let dir = tmp_dir("pread");
        let path = dir.join("shard.fdcs");
        let entries = sample_entries();
        std::fs::write(&path, encode_shard(&entries)).expect("write shard");
        let reader = ShardReader::open(&path).expect("open");
        // Concurrent fetches share the file without a cursor to race on.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        for (i, (container, inputs)) in entries.iter().enumerate() {
                            assert_eq!(
                                reader.fetch(i).expect("fetch"),
                                (container.clone(), inputs.clone())
                            );
                        }
                    }
                });
            }
        });
        // Cut the file after open: inside entry 1's container, then inside
        // its inputs.
        let span = reader.spans[1];
        let file = std::fs::OpenOptions::new().write(true).open(&path).expect("reopen");
        for (cut, op) in [
            (span.offset + 1, "read container"),
            (span.offset + u64::from(span.container_len) + 1, "read inputs"),
        ] {
            file.set_len(cut).expect("truncate");
            match reader.fetch(1).unwrap_err() {
                CorpusError::Io { op: got, error, .. } => {
                    assert_eq!(got, op);
                    assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
                }
                other => panic!("expected an I/O error, got {other}"),
            }
        }
        assert!(reader.fetch(0).is_ok(), "entries before the cut still read");
    }

    #[test]
    fn corpus_reader_spans_shards_and_digests() {
        let dir = tmp_dir("corpus");
        let entries = sample_entries();
        // Two shards: entries [0, 1] and [2].
        let mut expected_digest = DIGEST_SEED;
        type Entries<'a> = &'a [(Vec<u8>, BTreeMap<String, String>)];
        let splits: [Entries<'_>; 2] = [&entries[..2], &entries[2..]];
        let mut shards = Vec::new();
        for (i, chunk) in splits.iter().enumerate() {
            let file = format!("shard-{i:04}.fdcs");
            let mut writer = ShardWriter::create(&dir.join(&file)).expect("create");
            for (container, inputs) in chunk.iter() {
                writer.append(container, inputs).expect("append");
                expected_digest = fold_entry_digest(expected_digest, container, inputs);
            }
            writer.finish().expect("finish");
            shards.push(ShardManifest { file, apps: chunk.len() });
        }
        let manifest = CorpusManifest {
            version: 1,
            seed: 7,
            apps: entries.len(),
            profile: "tiny".to_string(),
            shard_size: 2,
            corpus_digest: format_digest(expected_digest),
            shards,
        };
        write_manifest(&dir, &manifest).expect("write manifest");
        let reader = CorpusReader::open(&dir).expect("open corpus");
        assert_eq!(reader.len(), 3);
        for (i, (container, inputs)) in entries.iter().enumerate() {
            let (c, m) = reader.fetch(i).expect("fetch");
            assert_eq!(&c, container);
            assert_eq!(&m, inputs);
        }
        assert_eq!(reader.corpus_digest().expect("digest"), expected_digest);
        assert_eq!(reader.verify_digest().expect("verify"), expected_digest);
        assert_eq!(reader.manifest(), &manifest);
    }

    #[test]
    fn manifest_shard_count_mismatch_is_typed() {
        let dir = tmp_dir("mismatch");
        let mut writer = ShardWriter::create(&dir.join("shard-0000.fdcs")).expect("create");
        writer.append(b"c", &BTreeMap::new()).expect("append");
        writer.finish().expect("finish");
        let manifest = CorpusManifest {
            version: 1,
            seed: 0,
            apps: 2,
            profile: "tiny".to_string(),
            shard_size: 2,
            corpus_digest: format_digest(DIGEST_SEED),
            shards: vec![ShardManifest { file: "shard-0000.fdcs".to_string(), apps: 2 }],
        };
        write_manifest(&dir, &manifest).expect("write manifest");
        assert!(matches!(CorpusReader::open(&dir).unwrap_err(), CorpusError::Manifest { .. }));
    }

    #[test]
    fn digest_text_roundtrips() {
        let digest = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(parse_digest(&format_digest(digest)).expect("roundtrip"), digest);
        assert!(parse_digest("123").is_err());
        assert!(parse_digest("0xZZ").is_err());
    }

    #[test]
    fn arbitrary_mutations_never_panic() {
        // A cheap in-process mirror of the fuzz target: flip each byte of
        // a valid shard and parse; every outcome must be Ok or typed.
        let bytes = encode_shard(&sample_entries());
        for i in 0..bytes.len() {
            let mut mutant = bytes.clone();
            mutant[i] ^= 0xff;
            let _ = parse_shard(&mutant);
        }
    }
}
