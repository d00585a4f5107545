//! The trace data model: phases, typed events, and the records a
//! [`crate::Tracer`] accumulates.

use serde::{Deserialize, Serialize};

/// Trace format version stamped into [`MetaRecord`]; bumped whenever a
/// record shape changes incompatibly.
pub const TRACE_VERSION: u64 = 1;

/// The pipeline phase a span belongs to.
///
/// The *top-level* phases — [`Phase::Decompile`], [`Phase::Static`],
/// [`Phase::Explore`] — partition an app's run: their durations are
/// disjoint and together cover (almost all of) the app span. The other
/// phases are nested detail: [`Phase::DecodeSection`] spans live inside
/// the `Decompile` span, [`Phase::StaticPass`] spans inside the `Static`
/// span, [`Phase::Case`] and [`Phase::Recovery`] inside
/// `Explore`, and [`Phase::App`] / [`Phase::Suite`] wrap whole runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// APK container unpack/decompile (`fd-apk`).
    Decompile,
    /// One section inside decompilation (manifest, classes, layouts,
    /// meta, and the indexing of the decoded app).
    DecodeSection,
    /// APK container pack (`fd-apk`).
    Pack,
    /// The whole static information extraction (`fd-static`).
    Static,
    /// One pass inside the static phase (AFTM init, dependency, …).
    StaticPass,
    /// The exploration loop of one app (`fragdroid::driver`).
    Explore,
    /// One executed test case inside the exploration loop.
    Case,
    /// Crash recovery (relaunch + path replay) inside the exploration.
    Recovery,
    /// One app's full run inside a suite (`fragdroid::suite`).
    App,
    /// A whole suite run.
    Suite,
    /// A fuzz campaign or one of its mutant executions (`fd-fuzz`).
    Fuzz,
}

impl Phase {
    /// Every phase, in declaration order.
    pub const ALL: [Phase; 11] = [
        Phase::Decompile,
        Phase::DecodeSection,
        Phase::Pack,
        Phase::Static,
        Phase::StaticPass,
        Phase::Explore,
        Phase::Case,
        Phase::Recovery,
        Phase::App,
        Phase::Suite,
        Phase::Fuzz,
    ];

    /// Stable lowercase name (Chrome `cat` field, summary keys).
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Decompile => "decompile",
            Phase::DecodeSection => "decode-section",
            Phase::Pack => "pack",
            Phase::Static => "static",
            Phase::StaticPass => "static-pass",
            Phase::Explore => "explore",
            Phase::Case => "case",
            Phase::Recovery => "recovery",
            Phase::App => "app",
            Phase::Suite => "suite",
            Phase::Fuzz => "fuzz",
        }
    }

    /// Whether spans of this phase partition an app's run (see the type
    /// docs) — the phases whose totals should sum to the app wall time.
    pub fn is_top_level(&self) -> bool {
        matches!(self, Phase::Decompile | Phase::Pack | Phase::Static | Phase::Explore)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed point-in-time occurrence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// One UI event went through the device (op = launch/click/…).
    EventDispatched {
        /// The operation kind.
        op: String,
    },
    /// The device's fault plan injected a fault.
    FaultInjected {
        /// Human-readable fault kind (`drop-event`, `anr-delay 900t`, …).
        kind: String,
    },
    /// The supervisor retried an event after a transient device error.
    Retry {
        /// 1-based retry attempt for this event.
        attempt: u64,
    },
    /// The app force-closed.
    Crash {
        /// The foreground activity at crash time (may be empty).
        activity: String,
        /// The exception message / synthetic kill reason.
        reason: String,
    },
    /// The supervisor finished a crash-recovery attempt.
    Recovery {
        /// Whether the app was up again afterwards.
        recovered: bool,
    },
    /// A new AFTM transition was observed.
    TransitionDiscovered {
        /// Source node (activity or fragment class).
        from: String,
        /// Destination node.
        to: String,
    },
    /// An activity's interface was reached for the first time.
    NewActivity {
        /// The activity class.
        name: String,
    },
    /// A fragment was confirmed through the FragmentManager for the
    /// first time.
    NewFragment {
        /// The fragment class.
        name: String,
    },
    /// An input was rejected at the ingestion frontier (malformed
    /// container, unparsable smali, …) and quarantined instead of run.
    InputRejected {
        /// The typed decode/parse error, rendered.
        reason: String,
    },
    /// A fuzz mutant violated the panic-free invariant (the campaign
    /// writes a reproducer alongside).
    FuzzViolation {
        /// Which mutator/target produced the mutant.
        target: String,
        /// The campaign-local mutant index.
        case: u64,
    },
    /// One completed app's outcome was appended to the suite journal.
    CheckpointWrite {
        /// The app's input-order index in the corpus.
        index: u64,
    },
    /// A suite run resumed from a journal instead of starting cold.
    CheckpointResume {
        /// Completed apps restored from the journal (skipped this run).
        skipped: u64,
        /// Bytes of torn tail dropped while loading the journal.
        torn_tail_bytes: u64,
    },
    /// The flake-triage pass re-ran a failed app once.
    FlakeRetry {
        /// The retried app's package (or slot label).
        package: String,
        /// 1-based retry attempt.
        attempt: u64,
        /// Whether this attempt passed (no panic/deadline/crash).
        passed: bool,
    },
    /// The device pool leased a (possibly fresh) device to a worker lane.
    DeviceLeased {
        /// The worker lane holding the lease.
        lane: u64,
        /// The lane's device generation (bumped per fresh device).
        generation: u64,
    },
    /// A device-infrastructure failure (agent death, protocol timeout) —
    /// counted in `SuiteMetrics::device_incidents`, never as an app crash.
    DeviceIncident {
        /// The typed device error, rendered.
        detail: String,
    },
    /// The pool retired a sick device after consecutive infra failures.
    DeviceRetired {
        /// The worker lane whose device was retired.
        lane: u64,
    },
    /// A shard's journal was folded into a merged suite result.
    ShardMerged {
        /// The shard's index within the split.
        shard: u64,
        /// Apps the shard contributed.
        apps: u64,
    },
    /// The serve loop accepted a job submission.
    JobSubmitted {
        /// The assigned job id.
        job: u64,
    },
    /// A serve worker finished a job (report ready or rejection filed).
    JobCompleted {
        /// The finished job id.
        job: u64,
        /// Whether the container was refused by the ingestion frontier.
        rejected: bool,
    },
    /// The serve listener accepted a socket session.
    ConnectionOpened {
        /// The server-assigned connection id.
        conn: u64,
    },
    /// A serve socket session ended (hangup, protocol error, idle
    /// timeout, or drain).
    ConnectionClosed {
        /// The server-assigned connection id.
        conn: u64,
    },
    /// A submission bounced off the full bounded queue (`Busy`).
    QueueSaturated {
        /// The refused job id.
        job: u64,
    },
    /// The server began its graceful drain: no new work, finish the
    /// queue, flush the journal.
    DrainStarted,
    /// Startup replayed the job journal of a previous (crashed or
    /// drained) server.
    JournalRecovered {
        /// Jobs restored — completed ones served from the journal,
        /// pending ones re-queued.
        jobs: u64,
    },
    /// The dispatch coordinator leased a shard to a worker endpoint.
    LeaseGranted {
        /// Shard index within the dispatched split.
        shard: u64,
        /// Worker endpoint index within the coordinator's roster.
        worker: u64,
        /// The lease's generation counter (monotonic per coordinator).
        generation: u64,
    },
    /// A lease expired or its worker failed; the shard returns to the
    /// pending queue.
    LeaseRevoked {
        /// Shard index within the dispatched split.
        shard: u64,
        /// Worker endpoint index the lease was revoked from.
        worker: u64,
        /// The revoked lease's generation counter.
        generation: u64,
    },
    /// A revoked shard was handed to a different (or revived) worker.
    ShardReassigned {
        /// Shard index within the dispatched split.
        shard: u64,
        /// Worker endpoint index that picked the shard back up.
        worker: u64,
    },
    /// A worker endpoint failed health probes repeatedly and was benched
    /// for a quarantine period.
    WorkerQuarantined {
        /// Worker endpoint index within the coordinator's roster.
        worker: u64,
    },
}

impl TraceEvent {
    /// Short stable name (Chrome event name, summary keys).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::EventDispatched { .. } => "event-dispatched",
            TraceEvent::FaultInjected { .. } => "fault-injected",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::TransitionDiscovered { .. } => "transition",
            TraceEvent::NewActivity { .. } => "new-activity",
            TraceEvent::NewFragment { .. } => "new-fragment",
            TraceEvent::InputRejected { .. } => "input-rejected",
            TraceEvent::FuzzViolation { .. } => "fuzz-violation",
            TraceEvent::CheckpointWrite { .. } => "checkpoint-write",
            TraceEvent::CheckpointResume { .. } => "checkpoint-resume",
            TraceEvent::FlakeRetry { .. } => "flake-retry",
            TraceEvent::DeviceLeased { .. } => "device-leased",
            TraceEvent::DeviceIncident { .. } => "device-incident",
            TraceEvent::DeviceRetired { .. } => "device-retired",
            TraceEvent::ShardMerged { .. } => "shard-merged",
            TraceEvent::JobSubmitted { .. } => "job-submitted",
            TraceEvent::JobCompleted { .. } => "job-completed",
            TraceEvent::ConnectionOpened { .. } => "connection-opened",
            TraceEvent::ConnectionClosed { .. } => "connection-closed",
            TraceEvent::QueueSaturated { .. } => "queue-saturated",
            TraceEvent::DrainStarted => "drain-started",
            TraceEvent::JournalRecovered { .. } => "journal-recovered",
            TraceEvent::LeaseGranted { .. } => "lease-granted",
            TraceEvent::LeaseRevoked { .. } => "lease-revoked",
            TraceEvent::ShardReassigned { .. } => "shard-reassigned",
            TraceEvent::WorkerQuarantined { .. } => "worker-quarantined",
        }
    }
}

/// A completed span: enter/exit with wall *and* simulated timestamps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The track (worker lane) the span ran on.
    pub track: u64,
    /// The pipeline phase.
    pub phase: Phase,
    /// Span name (pass name, app package, test-case label, …).
    pub name: String,
    /// Wall-clock enter time, µs since the trace epoch.
    pub wall_start_us: u64,
    /// Wall-clock duration, µs.
    pub wall_dur_us: u64,
    /// Simulated device clock at enter, in ticks.
    pub sim_start: u64,
    /// Simulated device clock at exit, in ticks.
    pub sim_end: u64,
}

/// A typed instant event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// The track (worker lane) the event fired on.
    pub track: u64,
    /// Wall-clock time, µs since the trace epoch.
    pub wall_us: u64,
    /// Simulated device clock, in ticks.
    pub sim: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// A named monotonic counter, flushed at drain time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// The track the counter was accumulated on.
    pub track: u64,
    /// Counter name.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// Records lost to ring-buffer overflow on one track (oldest-dropped).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DroppedRecord {
    /// The overflowing track.
    pub track: u64,
    /// How many records were dropped.
    pub count: u64,
}

/// Trace-wide metadata (always the first JSONL line).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetaRecord {
    /// Format version ([`TRACE_VERSION`]).
    pub version: u64,
    /// What produced the trace (`fragdroid-suite`, `fragdroid serve`,
    /// `fragdroid-dispatch`, …).
    pub process: String,
}

/// One line of a trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// Trace-wide metadata.
    Meta(MetaRecord),
    /// A completed span.
    Span(SpanRecord),
    /// A typed instant event.
    Event(EventRecord),
    /// A counter's final value.
    Counter(CounterRecord),
    /// Overflow accounting for one track.
    Dropped(DroppedRecord),
}

/// One worker's drained buffer: what [`crate::Tracer::finish`] returns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrackTrace {
    /// The track id the tracer ran as.
    pub track: u64,
    /// Records in emission order (spans appear at their *exit*).
    pub records: Vec<TraceRecord>,
    /// Records lost to ring overflow (oldest first).
    pub dropped: u64,
}

/// A whole collected trace: metadata plus every track's records.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Trace-wide metadata.
    pub meta: MetaRecord,
    /// All records, in absorption order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace for `process`.
    pub fn new(process: &str) -> Self {
        Trace {
            meta: MetaRecord { version: TRACE_VERSION, process: process.to_string() },
            records: Vec::new(),
        }
    }

    /// Appends one drained track, materializing its drop counter as a
    /// [`DroppedRecord`] when anything was lost.
    pub fn absorb(&mut self, track: TrackTrace) {
        if track.dropped > 0 {
            self.records.push(TraceRecord::Dropped(DroppedRecord {
                track: track.track,
                count: track.dropped,
            }));
        }
        self.records.extend(track.records);
    }

    /// Total records lost to ring overflow across all tracks.
    pub fn total_dropped(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Dropped(d) => Some(d.count),
                _ => None,
            })
            .sum()
    }

    /// Serializes to JSON Lines: the [`MetaRecord`] first, then one
    /// record per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let meta = TraceRecord::Meta(self.meta.clone());
        for record in std::iter::once(&meta).chain(self.records.iter()) {
            match serde_json::to_string(record) {
                Ok(line) => {
                    out.push_str(&line);
                    out.push('\n');
                }
                Err(_) => unreachable!("trace records always serialize"),
            }
        }
        out
    }

    /// Parses a trace back from JSON Lines. The first `Meta` record (if
    /// any) becomes [`Trace::meta`]; a malformed line is an error.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut trace = Trace { meta: MetaRecord::default(), records: Vec::new() };
        let mut saw_meta = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: TraceRecord = serde_json::from_str(line)
                .map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
            match record {
                TraceRecord::Meta(meta) if !saw_meta => {
                    trace.meta = meta;
                    saw_meta = true;
                }
                other => trace.records.push(other),
            }
        }
        Ok(trace)
    }
}
