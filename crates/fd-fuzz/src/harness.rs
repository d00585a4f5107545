//! The campaign driver: run mutants, demand Ok-or-typed-Err, minimize
//! and persist anything that panics.
//!
//! A campaign is fully determined by its [`FuzzConfig`]: the seed drives
//! one `StdRng`, targets rotate round-robin over the case index, and the
//! per-case outcomes fold into [`CampaignReport::outcome_digest`] — two
//! same-seed campaigns must produce bit-for-bit identical reports
//! (asserted in this crate's tests and gated in CI).

use crate::mutate;
use bytes::Bytes;
use fd_apk::corpus::{fnv1a, DIGEST_SEED};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Which frontier a mutant attacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Target {
    /// Byte-level mutants of packed FAPK containers → [`fd_apk::decompile`]
    /// (and [`fd_static::extract`] when the mutant still decodes).
    Container,
    /// Token/line-level mutants of smali text → `fd_smali::parser`.
    Smali,
    /// Schema-aware mutants of the manifest/layouts/meta JSON, spliced
    /// into an otherwise-valid container → the decoder's semantic layer.
    Json,
    /// Byte-level mutants of encoded device-agent request streams →
    /// [`fd_droidsim::proto::decode_request_stream`] (the length-prefixed
    /// framing plus the request JSON the subprocess backend speaks).
    Protocol,
    /// Byte-level mutants of FDCS corpus shard files →
    /// [`fd_apk::corpus::parse_shard`] (the index/offset-table decoder
    /// the lazy corpus reader trusts).
    Corpus,
    /// Byte-level mutants of `fragdroid serve` frame streams, both
    /// directions (request sessions and reply streams) → the serve
    /// frame decoder, with the whole-buffer ≡ byte-at-a-time
    /// differential invariant.
    Serve,
    /// Byte-level mutants of dispatch coordinator journals →
    /// [`fragdroid::parse_dispatch_journal`] (the shared journal replay
    /// `fragdroid dispatch --resume` trusts), differentially checked
    /// against a byte-at-a-time line scan.
    Dispatch,
}

impl Target {
    /// Every target, in campaign rotation order.
    pub const ALL: [Target; 7] = [
        Target::Container,
        Target::Smali,
        Target::Json,
        Target::Protocol,
        Target::Corpus,
        Target::Serve,
        Target::Dispatch,
    ];

    /// Stable lowercase name (CLI `--target` values, report keys).
    pub fn name(&self) -> &'static str {
        match self {
            Target::Container => "container",
            Target::Smali => "smali",
            Target::Json => "json",
            Target::Protocol => "protocol",
            Target::Corpus => "corpus",
            Target::Serve => "serve",
            Target::Dispatch => "dispatch",
        }
    }

    /// Parses a CLI `--target` value.
    pub fn parse(s: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// A fuzz campaign's parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seed of the single `StdRng` every mutation draws from.
    pub seed: u64,
    /// How many mutants to run.
    pub mutants: u64,
    /// Frontiers to rotate over (round-robin by case index).
    pub targets: Vec<Target>,
    /// Where to write minimized reproducers; `None` keeps them in-memory
    /// only (the report still carries the minimized bytes' length).
    pub out_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seed: 1, mutants: 1_000, targets: Target::ALL.to_vec(), out_dir: None }
    }
}

/// One panic-free-invariant violation, with its minimized reproducer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ViolationReport {
    /// The target the mutant attacked.
    pub target: String,
    /// Campaign-local case index.
    pub case: u64,
    /// The panic payload, stringified.
    pub message: String,
    /// Size of the original failing input.
    pub input_bytes: usize,
    /// Size after minimization.
    pub minimized_bytes: usize,
    /// Path the minimized reproducer was written to, when an `--out`
    /// directory was configured.
    pub reproducer: Option<String>,
}

/// Per-target outcome counts.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TargetStats {
    /// Mutants executed against this target.
    pub executed: u64,
    /// Mutants the pipeline accepted (`Ok`).
    pub ok: u64,
    /// Mutants the pipeline refused with a typed error.
    pub rejected: u64,
    /// Mutants that panicked (violations).
    pub violations: u64,
}

/// What a finished campaign reports.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The campaign seed.
    pub seed: u64,
    /// Mutants requested.
    pub mutants: u64,
    /// Mutants executed (always equals `mutants`).
    pub executed: u64,
    /// Mutants the pipeline accepted.
    pub ok: u64,
    /// Mutants refused with a typed error — the expected common case.
    pub rejected: u64,
    /// Per-target breakdown, keyed by [`Target::name`].
    pub per_target: BTreeMap<String, TargetStats>,
    /// Every panic, minimized. Empty means the invariant held.
    pub violations: Vec<ViolationReport>,
    /// FNV-1a fold of every case's `(target, outcome kind, error text)` —
    /// two same-seed campaigns must agree on this bit-for-bit.
    pub outcome_digest: u64,
}

impl CampaignReport {
    /// Whether the panic-free invariant held over the whole campaign.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// How one mutant execution ended.
enum CaseOutcome {
    /// The pipeline accepted the input.
    Ok,
    /// The pipeline refused with a typed error (message kept for the
    /// digest).
    Rejected(String),
    /// The pipeline panicked — an invariant violation.
    Panicked(String),
}

/// The seed inputs every mutant derives from: packed containers, their
/// smali text, and the parsed JSON of their non-classes sections.
struct SeedCorpus {
    containers: Vec<Vec<u8>>,
    smali: Vec<String>,
    /// `(container index, section index, parsed payload)`.
    json: Vec<(usize, usize, Value)>,
    /// Encoded device-agent request streams (install → explore →
    /// shutdown), one per container.
    protocol: Vec<Vec<u8>>,
    /// Encoded FDCS corpus shard files: one single-entry shard per
    /// container plus one multi-entry shard (exercises the index's
    /// strict-contiguity rules).
    shards: Vec<Vec<u8>>,
    /// Encoded serve-protocol frame streams: one request session per
    /// container plus one stream of every reply shape (the serve target
    /// fuzzes both directions of the job-service wire).
    serve: Vec<Vec<u8>>,
    /// Encoded dispatch coordinator journals, covering single- and
    /// multi-shard farms with and without revocation histories.
    dispatch: Vec<Vec<u8>>,
}

/// Encodes `bodies` as one frame stream, ids counting from 0.
fn frame_stream<T: serde::Serialize>(bodies: Vec<T>) -> Vec<u8> {
    use fd_droidsim::proto::{encode_frame, Envelope};
    let mut stream = Vec::new();
    for (id, body) in bodies.into_iter().enumerate() {
        stream.extend_from_slice(&encode_frame(&Envelope { id: id as u64, body }));
    }
    stream
}

/// A representative agent session over `container` — the protocol
/// target's seed.
fn seed_request_stream(container: &[u8]) -> Vec<u8> {
    use fd_droidsim::proto::{to_hex, AgentRequest};
    frame_stream(vec![
        AgentRequest::Install {
            container_hex: to_hex(container),
            config: fd_droidsim::DeviceConfig::default(),
        },
        AgentRequest::Launch,
        AgentRequest::Observe,
        AgentRequest::Click { id: "tab_home".to_string() },
        AgentRequest::EnterText { id: "field_user".to_string(), text: "secret".to_string() },
        AgentRequest::FaultRecordsSince { from: 0 },
        AgentRequest::Ping,
        AgentRequest::Shutdown,
    ])
}

/// A representative serve session (submit → poll → await → status →
/// shutdown) over `container` — the serve target's request-direction
/// seed.
fn seed_serve_request_stream(container: &[u8], inputs: &BTreeMap<String, String>) -> Vec<u8> {
    use fragdroid::ServeRequest;
    frame_stream(vec![
        ServeRequest::Submit {
            job: 1,
            container_hex: fd_droidsim::proto::to_hex(container),
            inputs: inputs.clone(),
        },
        ServeRequest::Poll { job: 1 },
        ServeRequest::Await { job: 1, wait_ms: 5 },
        ServeRequest::Status,
        ServeRequest::Shutdown,
    ])
}

/// One of every serve reply shape — the serve target's
/// response-direction seed. The `Finished` reply carries the quickstart
/// app's report, so mutants reach the nested report decode.
fn seed_serve_response_stream() -> Vec<u8> {
    use fragdroid::ServeResponse;
    let gen = fd_appgen::templates::quickstart();
    let report = fragdroid::FragDroid::new(fragdroid::FragDroidConfig::default())
        .run(&gen.app, &gen.known_inputs);
    frame_stream(vec![
        ServeResponse::Accepted { job: 1 },
        ServeResponse::Pending { job: 1 },
        ServeResponse::Report { job: 1, json: "{\"ok\":true}".to_string() },
        ServeResponse::Finished { job: 1, report: Box::new(report) },
        ServeResponse::Rejected { job: 2, reason: "bad container hex".to_string() },
        ServeResponse::UnknownJob { job: 3 },
        ServeResponse::Busy { job: 4, retry_after_ms: 25 },
        ServeResponse::Draining { job: 5, retry_after_ms: 200 },
        ServeResponse::Conflict { job: 6, reason: "digest mismatch".to_string() },
        ServeResponse::Overloaded { retry_after_ms: 100 },
        ServeResponse::Status {
            queued: 1,
            running: 1,
            completed: 2,
            rejected: 0,
            workers: 2,
            config_digest: Some(0x5eed_c0f1),
        },
        ServeResponse::Bye,
    ])
}

impl SeedCorpus {
    fn build() -> SeedCorpus {
        let gens = [
            fd_appgen::templates::quickstart(),
            fd_appgen::templates::tabbed_categories(),
            fd_appgen::templates::nav_drawer_wallpapers(),
        ];
        let mut corpus = SeedCorpus {
            containers: Vec::new(),
            smali: Vec::new(),
            json: Vec::new(),
            protocol: Vec::new(),
            shards: Vec::new(),
            serve: Vec::new(),
            dispatch: Vec::new(),
        };
        let mut shard_entries = Vec::new();
        for gen in gens {
            let bytes = fd_apk::pack(&gen.app).to_vec();
            let container_index = corpus.containers.len();
            corpus.protocol.push(seed_request_stream(&bytes));
            corpus.serve.push(seed_serve_request_stream(&bytes, &gen.known_inputs));
            corpus
                .shards
                .push(fd_apk::corpus::encode_shard(&[(bytes.clone(), gen.known_inputs.clone())]));
            shard_entries.push((bytes.clone(), gen.known_inputs.clone()));
            for (section_index, (_, range)) in mutate::section_ranges(&bytes).iter().enumerate() {
                if section_index == 1 {
                    // The classes section is smali text, not JSON; it is
                    // the smali target's seed instead.
                    if let Ok(text) = std::str::from_utf8(&bytes[range.clone()]) {
                        corpus.smali.push(text.to_string());
                    }
                    continue;
                }
                if let Ok(value) =
                    Value::parse_json(&String::from_utf8_lossy(&bytes[range.clone()]))
                {
                    corpus.json.push((container_index, section_index, value));
                }
            }
            corpus.containers.push(bytes);
        }
        corpus.shards.push(fd_apk::corpus::encode_shard(&shard_entries));
        corpus.serve.push(seed_serve_response_stream());
        // One shard per endpoint, a single-shard farm, and a wide farm
        // with revocation/quarantine histories every third shard.
        for (seed, shards) in [(1, 4), (2, 1), (3, 8)] {
            corpus.dispatch.push(fragdroid::demo_dispatch_journal(seed, shards));
        }
        assert!(
            !corpus.containers.is_empty()
                && !corpus.smali.is_empty()
                && !corpus.json.is_empty()
                && !corpus.protocol.is_empty()
                && !corpus.shards.is_empty()
                && !corpus.serve.is_empty()
                && !corpus.dispatch.is_empty(),
            "seed corpus covers every target"
        );
        corpus
    }
}

/// Feeds `input` through a [`fd_droidsim::proto::FrameBuffer`]
/// `chunk` bytes at a time, checking every completed frame's payload
/// with `check`. Returns the frame count, or the first typed error. A
/// chunk of 1 is the incremental decoder; a chunk as long as the input
/// is the whole-buffer decode it is checked against.
fn decode_frames(
    input: &[u8],
    chunk: usize,
    check: impl Fn(&[u8]) -> Result<(), String>,
) -> Result<usize, String> {
    let mut frames = fd_droidsim::proto::FrameBuffer::new();
    let mut decoded = 0usize;
    for piece in input.chunks(chunk.max(1)) {
        frames.push(piece);
        while let Some(payload) = frames.next_frame().map_err(|e| e.to_string())? {
            check(&payload)?;
            decoded += 1;
        }
    }
    Ok(decoded)
}

/// Decodes one agent-protocol payload as an
/// [`fd_droidsim::proto::AgentRequest`]. Differential invariant: the
/// streamed decode agrees with the tree decode (a panic otherwise).
fn check_agent_payload(payload: &[u8]) -> Result<(), String> {
    use fd_droidsim::proto::{decode_payload_checked, AgentRequest};
    decode_payload_checked::<AgentRequest>(payload).map(|_| ()).map_err(|e| e.to_string())
}

/// Decodes one serve-protocol payload, accepting either wire direction:
/// a [`fragdroid::ServeRequest`] or a [`fragdroid::ServeResponse`].
/// A payload that is neither is the typed rejection. Differential
/// invariant: in each direction the streamed decode agrees with the
/// tree decode (a panic otherwise).
fn classify_serve_payload(payload: &[u8]) -> Result<(), String> {
    use fd_droidsim::proto::decode_payload_checked;
    match decode_payload_checked::<fragdroid::ServeRequest>(payload) {
        Ok(_) => Ok(()),
        Err(request_error) => decode_payload_checked::<fragdroid::ServeResponse>(payload)
            .map(|_| ())
            .map_err(|response_error| {
                format!(
                    "neither a serve request ({request_error}) \
                     nor a serve response ({response_error})"
                )
            }),
    }
}

/// Feeds the journal one byte at a time, decoding each line as its
/// newline arrives — the reference the shared replay behind
/// [`fragdroid::parse_dispatch_journal`] is checked against. Returns
/// `(decoded lines, torn bytes)`, or the 1-based number of the first
/// line that does not decode.
fn scan_dispatch_lines_incrementally(input: &[u8]) -> Result<(usize, usize), usize> {
    let mut decoded = 0usize;
    let mut line: Vec<u8> = Vec::new();
    for &byte in input {
        if byte == b'\n' {
            if fragdroid::decode_dispatch_line(&line).is_err() {
                return Err(decoded + 1);
            }
            decoded += 1;
            line.clear();
        } else {
            line.push(byte);
        }
    }
    Ok((decoded, line.len()))
}

/// Whether the replay's verdict agrees with the byte-at-a-time
/// reference on the line layer: the same whole records and torn bytes,
/// or the same first bad line. Header, version and shard-fold errors sit
/// above that layer, so there the reference must see every line decode.
fn replay_agrees(
    replayed: &Result<fragdroid::DispatchJournal, fragdroid::JournalError>,
    reference: &Result<(usize, usize), usize>,
) -> bool {
    use fragdroid::JournalError as E;
    match (replayed, *reference) {
        (Ok(journal), Ok((lines, torn))) => {
            let records = journal.grants + journal.revocations + journal.quarantines;
            records + journal.done.len() as u64 + 1 == lines as u64
                && journal.torn_tail_bytes == torn as u64
        }
        (Err(E::ChecksumMismatch { line } | E::BadRecord { line, .. }), Err(bad)) => *line == bad,
        (Err(E::TornTail { bytes }), Ok((0, torn))) => *bytes == torn as u64,
        (Err(E::ChecksumMismatch { .. } | E::TornTail { .. }), _) | (_, Err(_)) => false,
        // Header, version and shard-fold errors: every line decoded.
        (Err(_), Ok(_)) => true,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one input through its target's pipeline under `catch_unwind` and
/// classifies the result. This is the invariant under test: the only
/// acceptable outcomes are `Ok` and `Rejected`.
fn execute(target: Target, input: &[u8]) -> CaseOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| match target {
        Target::Container | Target::Json => {
            match fd_apk::decompile(&Bytes::copy_from_slice(input)) {
                Ok(app) => {
                    // A mutant that still decodes must also survive
                    // static extraction (the next pipeline stage).
                    let _ = fd_static::extract(&app, &Default::default());
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            }
        }
        Target::Smali => {
            let text = String::from_utf8_lossy(input);
            match fd_smali::parser::parse_classes(&text) {
                Ok(_) => Ok(()),
                Err(e) => Err(e.to_string()),
            }
        }
        Target::Protocol => {
            let whole = fd_droidsim::proto::decode_request_stream(input)
                .map(|envelopes| envelopes.len())
                .map_err(|e| e.to_string());
            // Differential invariant: the incremental decoder fed one
            // byte at a time must agree with the whole-buffer decode.
            let incremental = decode_frames(input, 1, check_agent_payload);
            assert_eq!(
                whole, incremental,
                "incremental frame decoding diverged from whole-buffer decoding"
            );
            whole.map(|_| ())
        }
        Target::Serve => {
            let whole = decode_frames(input, input.len(), classify_serve_payload);
            // Differential invariant: the serve frame decoder fed one
            // byte at a time must agree with the whole-buffer decode.
            let incremental = decode_frames(input, 1, classify_serve_payload);
            assert_eq!(
                whole, incremental,
                "incremental serve-frame decoding diverged from whole-buffer decoding"
            );
            whole.map(|_| ())
        }
        Target::Dispatch => {
            // The shared journal replay must accept or reject with a
            // typed JournalError. Differential invariant: it must agree
            // with the line scanner fed one byte at a time.
            let replayed = fragdroid::parse_dispatch_journal(input);
            let reference = scan_dispatch_lines_incrementally(input);
            assert!(
                replay_agrees(&replayed, &reference),
                "dispatch-journal replay diverged from byte-at-a-time scanning: \
                 {replayed:?} vs {reference:?}"
            );
            replayed.map(|_| ()).map_err(|e| e.to_string())
        }
        Target::Corpus => match fd_apk::corpus::parse_shard(input) {
            Ok(view) => {
                // A mutant whose index still validates must also let
                // every entry be read lazily — the container slice and
                // the inputs JSON — without panicking.
                let mut result = Ok(());
                for entry in 0..view.len() {
                    let _ = view.container(entry);
                    if let Err(e) = view.inputs(entry) {
                        result = Err(e.to_string());
                        break;
                    }
                }
                result
            }
            Err(e) => Err(e.to_string()),
        },
    }));
    match result {
        Ok(Ok(())) => CaseOutcome::Ok,
        Ok(Err(message)) => CaseOutcome::Rejected(message),
        Err(payload) => CaseOutcome::Panicked(panic_message(payload)),
    }
}

/// Generates the next mutant for `target` from the corpus. All
/// randomness comes from `rng`, so the case sequence is seed-determined.
fn generate(corpus: &SeedCorpus, target: Target, rng: &mut StdRng) -> Vec<u8> {
    match target {
        Target::Container => {
            let base = &corpus.containers[rng.gen_range(0..corpus.containers.len())];
            mutate::mutate_bytes(base, rng)
        }
        Target::Smali => {
            let base = &corpus.smali[rng.gen_range(0..corpus.smali.len())];
            mutate::mutate_smali(base, rng).into_bytes()
        }
        Target::Json => {
            let (container_index, section_index, value) =
                &corpus.json[rng.gen_range(0..corpus.json.len())];
            let mutant = mutate::mutate_json(value, rng);
            let payload = mutant.render_json(false);
            mutate::splice_section(
                &corpus.containers[*container_index],
                *section_index,
                payload.as_bytes(),
            )
            .expect("seed containers always have four sections")
        }
        Target::Protocol => {
            let base = &corpus.protocol[rng.gen_range(0..corpus.protocol.len())];
            mutate::mutate_bytes(base, rng)
        }
        Target::Corpus => {
            let base = &corpus.shards[rng.gen_range(0..corpus.shards.len())];
            mutate::mutate_bytes(base, rng)
        }
        Target::Serve => {
            let base = &corpus.serve[rng.gen_range(0..corpus.serve.len())];
            mutate::mutate_bytes(base, rng)
        }
        Target::Dispatch => {
            let base = &corpus.dispatch[rng.gen_range(0..corpus.dispatch.len())];
            mutate::mutate_bytes(base, rng)
        }
    }
}

/// Greedy chunk-removal minimization (ddmin-lite): repeatedly drop the
/// largest chunk that keeps `still_fails` true, halving the chunk size
/// until single bytes. `budget` caps predicate invocations so a slow
/// reproducer cannot stall the campaign.
fn minimize_bytes(
    input: Vec<u8>,
    mut budget: usize,
    still_fails: impl Fn(&[u8]) -> bool,
) -> Vec<u8> {
    let mut current = input;
    let mut chunk = (current.len() / 2).max(1);
    while chunk >= 1 && budget > 0 && !current.is_empty() {
        let mut offset = 0;
        while offset + chunk <= current.len() && budget > 0 {
            let mut candidate = current.clone();
            candidate.drain(offset..offset + chunk);
            budget -= 1;
            if still_fails(&candidate) {
                current = candidate;
            } else {
                offset += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    current
}

/// Silences the process panic hook for the campaign's duration (panics
/// are *expected data* here, not reportable events) and restores the
/// previous hook on drop.
// `PanicInfo` is the pre-1.82 spelling of `PanicHookInfo`; the alias
// keeps the crate building on the workspace's 1.75 MSRV.
#[allow(deprecated)]
type PanicHook = Box<dyn Fn(&std::panic::PanicInfo<'_>) + Sync + Send + 'static>;

struct QuietPanics {
    previous: Option<PanicHook>,
}

impl QuietPanics {
    fn engage() -> QuietPanics {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { previous: Some(previous) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            std::panic::set_hook(previous);
        }
    }
}

/// Runs a campaign with tracing disabled.
pub fn run_campaign(config: &FuzzConfig) -> CampaignReport {
    run_campaign_traced(config, &fd_trace::Tracer::disabled())
}

/// Runs a campaign, emitting a [`fd_trace::Phase::Fuzz`] span and one
/// [`fd_trace::TraceEvent::FuzzViolation`] per violation on `tracer`.
pub fn run_campaign_traced(config: &FuzzConfig, tracer: &fd_trace::Tracer) -> CampaignReport {
    let _span = tracer.span(fd_trace::Phase::Fuzz, "fuzz-campaign");
    let corpus = SeedCorpus::build();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut report =
        CampaignReport { seed: config.seed, mutants: config.mutants, ..CampaignReport::default() };
    let mut digest = DIGEST_SEED;
    let targets =
        if config.targets.is_empty() { Target::ALL.to_vec() } else { config.targets.clone() };
    let _quiet = QuietPanics::engage();

    if let Some(dir) = &config.out_dir {
        let _ = std::fs::create_dir_all(dir);
    }

    for case in 0..config.mutants {
        let target = targets[(case % targets.len() as u64) as usize];
        let input = generate(&corpus, target, &mut rng);
        let outcome = execute(target, &input);

        digest = fnv1a(digest, target.name().as_bytes());
        let stats = report.per_target.entry(target.name().to_string()).or_default();
        stats.executed += 1;
        report.executed += 1;
        match outcome {
            CaseOutcome::Ok => {
                digest = fnv1a(digest, b"ok");
                stats.ok += 1;
                report.ok += 1;
            }
            CaseOutcome::Rejected(message) => {
                digest = fnv1a(digest, b"rejected");
                digest = fnv1a(digest, message.as_bytes());
                stats.rejected += 1;
                report.rejected += 1;
            }
            CaseOutcome::Panicked(message) => {
                digest = fnv1a(digest, b"panicked");
                digest = fnv1a(digest, message.as_bytes());
                stats.violations += 1;
                tracer.event(|| fd_trace::TraceEvent::FuzzViolation {
                    target: target.name().to_string(),
                    case,
                });
                let input_bytes = input.len();
                let minimized = minimize_bytes(input, 2_000, |candidate| {
                    matches!(execute(target, candidate), CaseOutcome::Panicked(_))
                });
                let reproducer = config.out_dir.as_ref().map(|dir| {
                    let path = dir.join(format!("repro-{}-case{case}.bin", target.name()));
                    let _ = std::fs::write(&path, &minimized);
                    path.display().to_string()
                });
                report.violations.push(ViolationReport {
                    target: target.name().to_string(),
                    case,
                    message,
                    input_bytes,
                    minimized_bytes: minimized.len(),
                    reproducer,
                });
            }
        }
    }
    report.outcome_digest = digest;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_corpus_feeds_every_target() {
        let corpus = SeedCorpus::build();
        assert_eq!(corpus.containers.len(), 3);
        assert_eq!(corpus.smali.len(), 3);
        // Three non-classes sections per container.
        assert_eq!(corpus.json.len(), 9);
        // One agent session stream per container.
        assert_eq!(corpus.protocol.len(), 3);
        // One single-entry shard per container plus the combined shard.
        assert_eq!(corpus.shards.len(), 4);
        // One serve request session per container plus the
        // all-reply-shapes response stream.
        assert_eq!(corpus.serve.len(), 4);
        // Three coordinator-journal shapes: per-endpoint, single-shard,
        // and a wide farm with revocations.
        assert_eq!(corpus.dispatch.len(), 3);
    }

    #[test]
    fn minimize_shrinks_to_the_essential_byte() {
        let input = vec![0u8, 1, 2, 0x7f, 4, 5, 6, 7, 8, 9];
        let minimized = minimize_bytes(input, 2_000, |b| b.contains(&0x7f));
        assert_eq!(minimized, vec![0x7f]);
    }

    #[test]
    fn minimize_respects_its_budget() {
        let input: Vec<u8> = (0..=255).collect();
        let calls = std::cell::Cell::new(0usize);
        let _ = minimize_bytes(input, 10, |b| {
            calls.set(calls.get() + 1);
            b.contains(&0x7f)
        });
        assert!(calls.get() <= 10);
    }

    #[test]
    fn target_names_roundtrip() {
        for target in Target::ALL {
            assert_eq!(Target::parse(target.name()), Some(target));
        }
        assert_eq!(Target::parse("bogus"), None);
    }

    #[test]
    fn campaign_report_roundtrips_through_json() {
        let report = run_campaign(&FuzzConfig { mutants: 30, ..FuzzConfig::default() });
        assert_eq!(report.executed, 30);
        let json = report.to_json().unwrap();
        assert_eq!(CampaignReport::from_json(&json).unwrap(), report);
    }

    #[test]
    fn execute_accepts_the_unmutated_seeds() {
        let corpus = SeedCorpus::build();
        for container in &corpus.containers {
            assert!(matches!(execute(Target::Container, container), CaseOutcome::Ok));
        }
        for smali in &corpus.smali {
            assert!(matches!(execute(Target::Smali, smali.as_bytes()), CaseOutcome::Ok));
        }
        for stream in &corpus.protocol {
            assert!(matches!(execute(Target::Protocol, stream), CaseOutcome::Ok));
        }
        for shard in &corpus.shards {
            assert!(matches!(execute(Target::Corpus, shard), CaseOutcome::Ok));
        }
        for stream in &corpus.serve {
            assert!(matches!(execute(Target::Serve, stream), CaseOutcome::Ok));
        }
        for journal in &corpus.dispatch {
            assert!(matches!(execute(Target::Dispatch, journal), CaseOutcome::Ok));
        }
    }

    #[test]
    fn truncated_and_overrun_shards_are_rejected_not_panics() {
        let corpus = SeedCorpus::build();
        let shard = &corpus.shards[3];
        // Truncation anywhere — header, payload, or index — is typed.
        for len in [0, 4, 17, shard.len() / 2, shard.len() - 1] {
            assert!(
                matches!(execute(Target::Corpus, &shard[..len]), CaseOutcome::Rejected(_)),
                "truncation to {len} bytes must be a typed rejection"
            );
        }
        // An index offset pointing past EOF is typed, not a panic.
        let mut overrun = shard.clone();
        let index_offset = shard.len() - 16;
        overrun[index_offset..index_offset + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(execute(Target::Corpus, &overrun), CaseOutcome::Rejected(_)));
    }

    #[test]
    fn protocol_seed_decodes_to_the_full_session() {
        let corpus = SeedCorpus::build();
        for stream in &corpus.protocol {
            let envelopes =
                fd_droidsim::proto::decode_request_stream(stream).expect("seed decodes");
            assert_eq!(envelopes.len(), 8, "install → … → shutdown");
            assert_eq!(decode_frames(stream, 1, check_agent_payload), Ok(8));
        }
    }

    #[test]
    fn serve_seeds_decode_in_both_directions() {
        let corpus = SeedCorpus::build();
        // Request sessions: submit → poll → status → shutdown.
        for stream in &corpus.serve[..3] {
            assert_eq!(decode_frames(stream, stream.len(), classify_serve_payload), Ok(5));
            assert_eq!(decode_frames(stream, 1, classify_serve_payload), Ok(5));
        }
        // The response stream carries one of every reply shape.
        let responses = corpus.serve.last().expect("response seed present");
        assert_eq!(decode_frames(responses, responses.len(), classify_serve_payload), Ok(12));
        assert_eq!(decode_frames(responses, 1, classify_serve_payload), Ok(12));
    }

    /// Every frame of `stream`, payload only.
    fn payloads(stream: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = fd_droidsim::proto::FrameBuffer::new();
        frames.push(stream);
        std::iter::from_fn(|| frames.next_frame().expect("seed streams frame cleanly")).collect()
    }

    /// One seed frame's envelope: its streamed encode is the tree render
    /// byte for byte, and the streamed decode agrees with the tree
    /// decode on reordered keys, unknown keys, duplicated keys, extra
    /// whitespace and a missing `id` or `body`.
    fn one_encoder<T>(payload: &[u8])
    where
        T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        use fd_droidsim::proto::{decode_payload_checked, Envelope};
        let env: Envelope<T> = decode_payload_checked(payload).expect("seed frames decode");
        let streamed = serde_json::to_string(&env).expect("envelopes serialize");
        assert_eq!(streamed, serde_json::to_value(&env).render_json(false));
        assert_eq!(streamed.as_bytes(), payload, "the seed was written by the streamed encoder");

        let (body, id) = (serde_json::to_string(&env.body).expect("bodies serialize"), env.id);
        let same = [
            format!("{{\"id\":{id},\"body\":{body}}}"),
            format!("{{\"x\":{{\"y\":[1,\"z\",null]}},\"body\":{body},\"id\":{id},\"w\":0}}"),
            format!("{{\"body\":{body},\"id\":{},\"id\":{id}}}", id + 1),
            format!("{{\"body\":{body},\"body\":{body},\"id\":{id}}}"),
            serde_json::to_string_pretty(&env).expect("envelopes serialize"),
        ];
        for text in same {
            assert_eq!(decode_payload_checked::<T>(text.as_bytes()).as_ref(), Ok(&env), "{text}");
        }
        let refused = [
            (format!("{{\"body\":{body}}}"), "envelope missing 'id'"),
            (format!("{{\"id\":{id}}}"), "envelope missing 'body'"),
            (format!("[{body},{id}]"), "expected envelope object"),
        ];
        for (text, why) in refused {
            match decode_payload_checked::<T>(text.as_bytes()) {
                Err(e) => assert!(e.to_string().ends_with(why), "{text}: {e}"),
                Ok(other) => panic!("{text} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn every_seed_frame_has_one_encoder() {
        use fd_droidsim::proto::{AgentRequest, AgentResponse};
        use fragdroid::{ServeRequest, ServeResponse};
        let corpus = SeedCorpus::build();
        let (mut requests, mut responses) = (0, 0);
        for stream in &corpus.protocol {
            for payload in payloads(stream) {
                one_encoder::<AgentRequest>(&payload);
            }
            // The agent's replies to the seed session are the
            // response-direction seeds of the device protocol.
            let mut replies = Vec::new();
            fd_droidsim::serve(&stream[..], &mut replies, Default::default())
                .expect("agent serves");
            for payload in payloads(&replies) {
                one_encoder::<AgentResponse>(&payload);
            }
        }
        for stream in &corpus.serve {
            for payload in payloads(stream) {
                if fd_droidsim::proto::decode_payload::<ServeRequest>(&payload).is_ok() {
                    one_encoder::<ServeRequest>(&payload);
                    requests += 1;
                } else {
                    one_encoder::<ServeResponse>(&payload);
                    responses += 1;
                }
            }
        }
        assert_eq!((requests, responses), (15, 12), "three sessions and every reply shape");
    }

    #[test]
    fn truncated_and_corrupted_serve_streams_are_rejected_not_panics() {
        let corpus = SeedCorpus::build();
        let stream = corpus.serve.last().expect("response seed present");
        // A truncated stream decodes its complete prefix cleanly.
        assert!(matches!(execute(Target::Serve, &stream[..stream.len() / 2]), CaseOutcome::Ok));
        // A corrupted length header is a typed rejection.
        let mut corrupt = stream.clone();
        corrupt[0] = b'x';
        assert!(matches!(execute(Target::Serve, &corrupt), CaseOutcome::Rejected(_)));
        // A well-formed frame whose payload is neither direction (a
        // device-agent request) is typed too.
        use fd_droidsim::proto::{encode_frame, Envelope};
        let alien = encode_frame(&Envelope { id: 1, body: fd_droidsim::proto::AgentRequest::Ping });
        assert!(matches!(execute(Target::Serve, &alien), CaseOutcome::Rejected(_)));
    }

    #[test]
    fn truncated_and_corrupted_dispatch_journals_are_typed_not_panics() {
        let corpus = SeedCorpus::build();
        let journal = corpus.dispatch.last().expect("dispatch seed present");
        // Truncation at every offset either recovers (the cut lands in
        // the torn tail) or rejects typed — never panics, and the
        // shared replay always agrees with the byte-at-a-time scan.
        for len in 0..journal.len() {
            match execute(Target::Dispatch, &journal[..len]) {
                CaseOutcome::Ok | CaseOutcome::Rejected(_) => {}
                CaseOutcome::Panicked(message) => {
                    panic!("truncation to {len} bytes panicked: {message}")
                }
            }
        }
        // Corrupting any single byte is typed too.
        for offset in [0, 1, journal.len() / 2, journal.len() - 2] {
            let mut corrupt = journal.clone();
            corrupt[offset] ^= 0x41;
            match execute(Target::Dispatch, &corrupt) {
                CaseOutcome::Ok | CaseOutcome::Rejected(_) => {}
                CaseOutcome::Panicked(message) => {
                    panic!("corruption at {offset} panicked: {message}")
                }
            }
        }
        // A duplicated completion claim is a typed rejection, not Ok.
        let text = String::from_utf8(journal.clone()).expect("journal is line text");
        let done = text
            .lines()
            .find(|l| l.contains("ShardDone"))
            .expect("demo journal records completions");
        let duplicated = format!("{text}{done}\n");
        assert!(matches!(
            execute(Target::Dispatch, duplicated.as_bytes()),
            CaseOutcome::Rejected(_)
        ));
    }

    #[test]
    fn replay_differential_flags_every_disagreement() {
        use fragdroid::JournalError as E;
        let journal = fragdroid::demo_dispatch_journal(1, 3);
        let replayed = fragdroid::parse_dispatch_journal(&journal);
        let reference = scan_dispatch_lines_incrementally(&journal);
        assert!(replay_agrees(&replayed, &reference));
        let (lines, torn) = reference.expect("demo journal scans cleanly");
        assert!(!replay_agrees(&replayed, &Ok((lines + 1, torn))));
        assert!(!replay_agrees(&replayed, &Ok((lines, torn + 1))));
        assert!(!replay_agrees(&replayed, &Err(2)));
        assert!(!replay_agrees(&Err(E::ChecksumMismatch { line: 2 }), &Err(3)));
        assert!(!replay_agrees(&Err(E::ChecksumMismatch { line: 2 }), &Ok((lines, torn))));
        assert!(!replay_agrees(&Err(E::TornTail { bytes: 5 }), &Ok((1, 5))));
        assert!(replay_agrees(&Err(E::TornTail { bytes: 5 }), &Ok((0, 5))));
        assert!(replay_agrees(&Err(E::DuplicateIndex { index: 0 }), &Ok((lines, torn))));
    }

    #[test]
    fn truncated_and_corrupted_protocol_streams_are_rejected_not_panics() {
        let corpus = SeedCorpus::build();
        let stream = &corpus.protocol[0];
        // A truncated stream decodes its complete prefix cleanly.
        assert!(matches!(execute(Target::Protocol, &stream[..stream.len() / 2]), CaseOutcome::Ok));
        // A corrupted length header is a typed rejection.
        let mut corrupt = stream.clone();
        corrupt[0] = b'x';
        assert!(matches!(execute(Target::Protocol, &corrupt), CaseOutcome::Rejected(_)));
    }
}
