//! Post-hoc trace analysis: the aggregation behind `fd-cli trace`.

use crate::model::{Phase, Trace, TraceEvent, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One fault/retry/crash/recovery occurrence on the timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Wall-clock time, µs since the trace epoch.
    pub wall_us: u64,
    /// The worker track it happened on.
    pub track: u64,
    /// Human-readable description (`fault drop-event`, `retry #2`, …).
    pub what: String,
}

/// Aggregated view of one trace file.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// What produced the trace.
    pub process: String,
    /// Total records (spans + events + counters + drop markers).
    pub records: usize,
    /// Spans seen.
    pub spans: usize,
    /// Events seen.
    pub events: usize,
    /// Records lost to ring overflow.
    pub dropped: u64,
    /// Summed span wall time per phase, µs (keys are [`Phase::as_str`]).
    pub phase_totals_us: BTreeMap<String, u64>,
    /// Summed wall time of the per-app spans, µs.
    pub app_total_us: u64,
    /// `(package, wall µs)` of the slowest apps, descending.
    pub slowest_apps: Vec<(String, u64)>,
    /// `(activity, hits)` most-seen activities (first visits + incoming
    /// transitions), descending.
    pub hottest_activities: Vec<(String, u64)>,
    /// `(fragment, hits)` most-seen fragments, descending.
    pub hottest_fragments: Vec<(String, u64)>,
    /// UI events dispatched (from the `EventDispatched` stream).
    pub events_dispatched: u64,
    /// Faults injected.
    pub faults: u64,
    /// Event retries.
    pub retries: u64,
    /// Crashes.
    pub crashes: u64,
    /// Successful crash recoveries.
    pub recoveries: u64,
    /// Inputs rejected at the ingestion frontier.
    #[serde(default)]
    pub rejections: u64,
    /// Fuzz mutants that violated the panic-free invariant.
    #[serde(default)]
    pub fuzz_violations: u64,
    /// Outcomes appended to a suite journal.
    #[serde(default)]
    pub checkpoint_writes: u64,
    /// Completed apps restored from a journal across resume events.
    #[serde(default)]
    pub checkpoint_resumed: u64,
    /// Flake-triage retry attempts.
    #[serde(default)]
    pub flake_retries: u64,
    /// Device-infrastructure incidents (agent deaths, protocol timeouts).
    #[serde(default)]
    pub device_incidents: u64,
    /// Devices the pool retired (quarantine or failed health check).
    #[serde(default)]
    pub devices_retired: u64,
    /// Serve socket sessions opened.
    #[serde(default)]
    pub connections: u64,
    /// Submissions bounced off the full serve queue (`Busy`).
    #[serde(default)]
    pub queue_saturations: u64,
    /// Graceful drains started.
    #[serde(default)]
    pub drains: u64,
    /// Jobs restored from a serve job journal at startup.
    #[serde(default)]
    pub recovered_jobs: u64,
    /// Shard leases granted by the dispatch coordinator.
    #[serde(default)]
    pub lease_grants: u64,
    /// Shard leases revoked (expiry, probe failure, failed run).
    #[serde(default)]
    pub lease_revocations: u64,
    /// Shards re-granted after a revocation.
    #[serde(default)]
    pub shard_reassignments: u64,
    /// Endpoints quarantined by the dispatch coordinator.
    #[serde(default)]
    pub worker_quarantines: u64,
    /// Fault/retry/crash/recovery occurrences in wall-clock order,
    /// truncated to [`TraceSummary::TIMELINE_CAP`].
    pub timeline: Vec<TimelineEntry>,
}

fn top(map: BTreeMap<String, u64>, keep: usize) -> Vec<(String, u64)> {
    let mut pairs: Vec<(String, u64)> = map.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs.truncate(keep);
    pairs
}

impl TraceSummary {
    /// Cap on [`TraceSummary::timeline`] entries.
    pub const TIMELINE_CAP: usize = 200;
    /// Cap on the top-N lists.
    pub const TOP_CAP: usize = 10;

    /// Aggregates a trace.
    pub fn compute(trace: &Trace) -> Self {
        let mut summary = TraceSummary {
            process: trace.meta.process.clone(),
            records: trace.records.len(),
            ..TraceSummary::default()
        };
        let mut apps: Vec<(String, u64)> = Vec::new();
        let mut activities: BTreeMap<String, u64> = BTreeMap::new();
        let mut fragments: BTreeMap<String, u64> = BTreeMap::new();
        for record in &trace.records {
            match record {
                TraceRecord::Span(s) => {
                    summary.spans += 1;
                    *summary.phase_totals_us.entry(s.phase.as_str().to_string()).or_insert(0) +=
                        s.wall_dur_us;
                    if s.phase == Phase::App {
                        summary.app_total_us += s.wall_dur_us;
                        apps.push((s.name.clone(), s.wall_dur_us));
                    }
                }
                TraceRecord::Event(e) => {
                    summary.events += 1;
                    let note = match &e.event {
                        TraceEvent::EventDispatched { .. } => {
                            summary.events_dispatched += 1;
                            None
                        }
                        TraceEvent::FaultInjected { kind } => {
                            summary.faults += 1;
                            Some(format!("fault {kind}"))
                        }
                        TraceEvent::Retry { attempt } => {
                            summary.retries += 1;
                            Some(format!("retry #{attempt}"))
                        }
                        TraceEvent::Crash { activity, reason } => {
                            summary.crashes += 1;
                            Some(format!("crash in {activity}: {reason}"))
                        }
                        TraceEvent::Recovery { recovered } => {
                            if *recovered {
                                summary.recoveries += 1;
                            }
                            Some(format!(
                                "recovery {}",
                                if *recovered { "succeeded" } else { "failed" }
                            ))
                        }
                        TraceEvent::TransitionDiscovered { to, .. } => {
                            *activities.entry(to.clone()).or_insert(0) += 1;
                            None
                        }
                        TraceEvent::NewActivity { name } => {
                            *activities.entry(name.clone()).or_insert(0) += 1;
                            None
                        }
                        TraceEvent::NewFragment { name } => {
                            *fragments.entry(name.clone()).or_insert(0) += 1;
                            None
                        }
                        TraceEvent::InputRejected { reason } => {
                            summary.rejections += 1;
                            Some(format!("rejected: {reason}"))
                        }
                        TraceEvent::FuzzViolation { target, case } => {
                            summary.fuzz_violations += 1;
                            Some(format!("fuzz violation in {target} mutant #{case}"))
                        }
                        TraceEvent::CheckpointWrite { .. } => {
                            summary.checkpoint_writes += 1;
                            None
                        }
                        TraceEvent::CheckpointResume { skipped, torn_tail_bytes } => {
                            summary.checkpoint_resumed += skipped;
                            Some(format!(
                                "resumed: {skipped} apps from journal ({torn_tail_bytes} torn bytes dropped)"
                            ))
                        }
                        TraceEvent::FlakeRetry { package, attempt, passed } => {
                            summary.flake_retries += 1;
                            Some(format!(
                                "flake retry #{attempt} of {package}: {}",
                                if *passed { "passed" } else { "failed" }
                            ))
                        }
                        TraceEvent::DeviceLeased { .. } => None,
                        TraceEvent::DeviceIncident { detail } => {
                            summary.device_incidents += 1;
                            Some(format!("device incident: {detail}"))
                        }
                        TraceEvent::DeviceRetired { lane } => {
                            summary.devices_retired += 1;
                            Some(format!("device retired on lane {lane}"))
                        }
                        TraceEvent::ShardMerged { shard, apps } => {
                            Some(format!("merged shard {shard} ({apps} apps)"))
                        }
                        TraceEvent::JobSubmitted { job } => Some(format!("job {job} submitted")),
                        TraceEvent::JobCompleted { job, rejected } => Some(format!(
                            "job {job} {}",
                            if *rejected { "rejected" } else { "completed" }
                        )),
                        TraceEvent::ConnectionOpened { .. } => {
                            summary.connections += 1;
                            None
                        }
                        TraceEvent::ConnectionClosed { .. } => None,
                        TraceEvent::QueueSaturated { job } => {
                            summary.queue_saturations += 1;
                            Some(format!("job {job} bounced: queue full"))
                        }
                        TraceEvent::DrainStarted => {
                            summary.drains += 1;
                            Some("graceful drain started".to_string())
                        }
                        TraceEvent::JournalRecovered { jobs } => {
                            summary.recovered_jobs += jobs;
                            Some(format!("recovered {jobs} jobs from the job journal"))
                        }
                        TraceEvent::LeaseGranted { .. } => {
                            summary.lease_grants += 1;
                            None
                        }
                        TraceEvent::LeaseRevoked { shard, worker, generation } => {
                            summary.lease_revocations += 1;
                            Some(format!(
                                "lease on shard {shard} revoked from worker {worker} \
                                 (generation {generation})"
                            ))
                        }
                        TraceEvent::ShardReassigned { shard, worker } => {
                            summary.shard_reassignments += 1;
                            Some(format!("shard {shard} reassigned to worker {worker}"))
                        }
                        TraceEvent::WorkerQuarantined { worker } => {
                            summary.worker_quarantines += 1;
                            Some(format!("worker {worker} quarantined"))
                        }
                    };
                    if let Some(what) = note {
                        summary.timeline.push(TimelineEntry {
                            wall_us: e.wall_us,
                            track: e.track,
                            what,
                        });
                    }
                }
                TraceRecord::Counter(_) => {}
                TraceRecord::Dropped(d) => summary.dropped += d.count,
                TraceRecord::Meta(_) => {}
            }
        }
        apps.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        apps.truncate(Self::TOP_CAP);
        summary.slowest_apps = apps;
        summary.hottest_activities = top(activities, Self::TOP_CAP);
        summary.hottest_fragments = top(fragments, Self::TOP_CAP);
        summary.timeline.sort_by_key(|t| t.wall_us);
        summary.timeline.truncate(Self::TIMELINE_CAP);
        summary
    }

    /// Summed wall time of the top-level phases ([`Phase::is_top_level`]),
    /// µs — the number that should land within a few percent of the
    /// suite's per-app wall-time total.
    pub fn top_level_phase_total_us(&self) -> u64 {
        Phase::ALL
            .iter()
            .filter(|phase| phase.is_top_level())
            .filter_map(|phase| self.phase_totals_us.get(phase.as_str()))
            .sum()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ms = |us: u64| us as f64 / 1000.0;
        out.push_str(&format!(
            "trace: {} ({} records: {} spans, {} events, {} dropped)\n",
            if self.process.is_empty() { "<unnamed>" } else { &self.process },
            self.records,
            self.spans,
            self.events,
            self.dropped
        ));
        out.push_str("per-phase wall time:\n");
        for (phase, us) in &self.phase_totals_us {
            out.push_str(&format!("  {phase:<12} {:>10.2} ms\n", ms(*us)));
        }
        out.push_str(&format!(
            "events dispatched: {} ({} faults, {} retries, {} crashes, {} recovered)\n",
            self.events_dispatched, self.faults, self.retries, self.crashes, self.recoveries
        ));
        if self.rejections > 0 || self.fuzz_violations > 0 {
            out.push_str(&format!(
                "ingestion: {} inputs rejected, {} fuzz violations\n",
                self.rejections, self.fuzz_violations
            ));
        }
        if self.checkpoint_writes > 0 || self.checkpoint_resumed > 0 || self.flake_retries > 0 {
            out.push_str(&format!(
                "checkpoint: {} outcomes journaled, {} resumed from journal, {} flake retries\n",
                self.checkpoint_writes, self.checkpoint_resumed, self.flake_retries
            ));
        }
        if self.device_incidents > 0 || self.devices_retired > 0 {
            out.push_str(&format!(
                "device pool: {} infrastructure incidents, {} devices retired\n",
                self.device_incidents, self.devices_retired
            ));
        }
        if self.connections > 0
            || self.queue_saturations > 0
            || self.drains > 0
            || self.recovered_jobs > 0
        {
            out.push_str(&format!(
                "serve: {} connections, {} queue-full bounces, {} drains, {} jobs recovered\n",
                self.connections, self.queue_saturations, self.drains, self.recovered_jobs
            ));
        }
        if !self.slowest_apps.is_empty() {
            out.push_str("slowest apps:\n");
            for (app, us) in &self.slowest_apps {
                out.push_str(&format!("  {:>10.2} ms  {app}\n", ms(*us)));
            }
        }
        if !self.hottest_activities.is_empty() {
            out.push_str("hottest activities:\n");
            for (name, hits) in &self.hottest_activities {
                out.push_str(&format!("  {hits:>6}  {name}\n"));
            }
        }
        if !self.hottest_fragments.is_empty() {
            out.push_str("hottest fragments:\n");
            for (name, hits) in &self.hottest_fragments {
                out.push_str(&format!("  {hits:>6}  {name}\n"));
            }
        }
        if !self.timeline.is_empty() {
            out.push_str(&format!("fault/retry timeline (first {}):\n", self.timeline.len()));
            for entry in &self.timeline {
                out.push_str(&format!(
                    "  {:>12.3} ms  w{}  {}\n",
                    ms(entry.wall_us),
                    entry.track,
                    entry.what
                ));
            }
        }
        out
    }
}
