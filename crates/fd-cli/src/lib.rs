//! Library backing the `fragdroid` command-line interface (testable
//! without spawning the binary).
//!
//! Every subcommand is one [`cmds::COMMANDS`] entry: its positionals, its
//! flags with their value kinds, its `help` prose and its handler. [`run`]
//! parses argv against that entry, so a flag the command does not declare
//! is refused before any work, and `fragdroid help` is rendered from the
//! same table.
//!
//! `.fapk` files are the binary APK containers of `fd-apk`; `gen` writes
//! one (alongside an `<out>.inputs.json` with the known gate secrets) so
//! every other subcommand has something to chew on.

use bytes::Bytes;
use std::collections::BTreeMap;

pub mod args;
pub mod cmds;

/// A CLI failure, carrying the process exit code it maps to.
///
/// The split lets scripts (and CI) distinguish quarantined *inputs* and
/// broken *checkpoints* from *tool* failures: a malformed container
/// exits with code 2, a journal problem (fingerprint mismatch, corrupt
/// record, unwritable checkpoint) with code 3, every other error with
/// code 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// Generic failure (bad usage, IO, internal error) — exit code 1.
    Failure(String),
    /// Input rejected at the ingestion frontier (malformed or
    /// packer-protected container) — exit code 2.
    Rejected(String),
    /// Checkpoint journal error (corrupt or mismatched journal, full
    /// disk mid-append, refused overwrite) — exit code 3.
    Checkpoint(String),
    /// Shard error (invalid split, or a missing/incomplete/mismatched
    /// shard journal) — exit code 4.
    Shard(String),
    /// Serve service error (bad listen address, socket/session failure,
    /// job journal problem, or an exhausted/conflicted submit client) —
    /// exit code 5.
    Serve(String),
    /// Dispatch coordinator error (no endpoints, a coordinator-journal
    /// problem, or a stalled farm) — exit code 6.
    Dispatch(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Rejected(_) => 2,
            CliError::Checkpoint(_) => 3,
            CliError::Shard(_) => 4,
            CliError::Serve(_) => 5,
            CliError::Dispatch(_) => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Failure(message) => write!(f, "{message}"),
            CliError::Rejected(message) => write!(f, "rejected input: {message}"),
            CliError::Checkpoint(message) => write!(f, "checkpoint: {message}"),
            CliError::Shard(message) => write!(f, "shard merge: {message}"),
            CliError::Serve(message) => write!(f, "serve: {message}"),
            CliError::Dispatch(message) => write!(f, "dispatch: {message}"),
        }
    }
}

impl From<fragdroid::JournalError> for CliError {
    fn from(error: fragdroid::JournalError) -> Self {
        CliError::Checkpoint(error.to_string())
    }
}

impl From<fragdroid::ShardError> for CliError {
    fn from(error: fragdroid::ShardError) -> Self {
        CliError::Shard(error.to_string())
    }
}

impl From<fragdroid::ServeError> for CliError {
    fn from(error: fragdroid::ServeError) -> Self {
        CliError::Serve(error.to_string())
    }
}

impl From<fragdroid::ClientError> for CliError {
    fn from(error: fragdroid::ClientError) -> Self {
        CliError::Serve(error.to_string())
    }
}

impl From<fragdroid::DispatchError> for CliError {
    fn from(error: fragdroid::DispatchError) -> Self {
        // A journal cause keeps its own exit code so scripts can tell a
        // broken journal from a dead or misconfigured farm.
        match error {
            fragdroid::DispatchError::Journal(e) => {
                CliError::Checkpoint(format!("coordinator journal: {e}"))
            }
            other => CliError::Dispatch(other.to_string()),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failure(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Failure(message.to_string())
    }
}

/// Runs one CLI invocation (everything after the binary name): looks the
/// subcommand up in [`cmds::COMMANDS`], parses the rest of argv against
/// its declaration and calls its handler. No subcommand, `help`, `--help`
/// or `-h` prints [`help`].
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let name = match argv.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            print!("{}", help());
            return Ok(());
        }
        Some(name) => name,
    };
    let cmd = cmds::COMMANDS.iter().find(|cmd| cmd.name == name).ok_or_else(|| {
        CliError::Failure(format!("unknown subcommand '{name}' (try 'fragdroid help')"))
    })?;
    (cmd.handler)(&args::parse(cmd, &argv[1..])?)
}

/// The `help` text: every command's usage line and summary, then the exit
/// codes.
pub fn help() -> String {
    let mut out = String::from(
        "fragdroid — Fragment-aware automated UI exploration (DSN'18 reproduction)\n\nUSAGE:\n",
    );
    for cmd in cmds::COMMANDS {
        out += &wrap(cmd.usage().iter().map(String::as_str), "  ", "        ");
        out += &wrap(cmd.summary.split_whitespace(), "      ", "      ");
    }
    out + "
EXIT CODES:
  0  success
  1  failure (bad usage, IO error, internal error, fuzz violation)
  2  input rejected at the ingestion frontier (malformed/packed container)
  3  checkpoint journal error (corrupt or mismatched journal, refused
     overwrite, unwritable checkpoint path)
  4  shard error (invalid split, or a missing, incomplete, or
     fingerprint-mismatched shard journal)
  5  serve error (bad listen address, socket failure, job-journal
     corruption, or a submit client out of retries/conflicted)
  6  dispatch error (no endpoints, resume without a checkpoint, shard
     count mismatch, or a stalled farm with every endpoint dead)
"
}

/// `words` filled into lines of at most 80 columns, the first line after
/// `first`, the rest after `rest`.
fn wrap<'a>(words: impl Iterator<Item = &'a str>, first: &str, rest: &str) -> String {
    let (mut out, mut line, mut empty) = (String::new(), first.to_string(), true);
    for word in words {
        if !empty && line.len() + 1 + word.len() > 80 {
            out += &line;
            out.push('\n');
            line = rest.to_string();
            empty = true;
        }
        if !empty {
            line.push(' ');
        }
        line += word;
        empty = false;
    }
    out + &line + "\n"
}

/// Reads and decompiles a container file.
///
/// (Used by the subcommands; public so tests can drive them directly.)
pub fn load_app(path: &str) -> Result<fd_apk::AndroidApp, CliError> {
    load_app_traced(path, &fd_trace::Tracer::disabled())
}

/// [`load_app`] under a tracer, so `--trace-out` runs capture the
/// decompile phase too.
///
/// A container the decoder refuses maps to [`CliError::Rejected`] (exit
/// code 2) with a one-line diagnostic carrying the typed error and, when
/// the error tracks one, the byte offset it was detected at. An
/// unreadable file stays a plain [`CliError::Failure`].
pub fn load_app_traced(
    path: &str,
    tracer: &fd_trace::Tracer,
) -> Result<fd_apk::AndroidApp, CliError> {
    let raw =
        std::fs::read(path).map_err(|e| CliError::Failure(format!("cannot read {path}: {e}")))?;
    fd_apk::decompile_traced(&Bytes::from(raw), tracer).map_err(|e| {
        let at = e.offset().map(|o| format!(" (at byte {o})")).unwrap_or_default();
        CliError::Rejected(format!("{path}: {e}{at}"))
    })
}

/// Writes a drained trace to `path` (JSON Lines) and `<path>.chrome.json`
/// (Chrome `trace_event` format for `chrome://tracing` / Perfetto), or
/// nothing without a `--trace-out` path.
pub fn write_trace(path: Option<&str>, trace: &fd_trace::Trace) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let chrome_path = format!("{path}.chrome.json");
    std::fs::write(&chrome_path, fd_trace::chrome::to_chrome_json(trace))
        .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
    eprintln!("trace: {path} (JSONL) and {chrome_path} (chrome://tracing)");
    Ok(())
}

/// Reads an optional `--inputs` JSON file (widget-ID → value map).
pub fn load_inputs(path: Option<&str>) -> Result<BTreeMap<String, String>, String> {
    match path {
        None => Ok(BTreeMap::new()),
        Some(p) => {
            let raw = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            serde_json::from_str(&raw).map_err(|e| format!("bad inputs file {p}: {e}"))
        }
    }
}
