//! The UI-driving and AFTM-update loop (§VI).

use crate::config::FragDroidConfig;
use crate::queue::{QueueItem, UiQueue};
use crate::report::{CrashReport, CrashSignature, DeviceErrorStats, RunReport};
use fd_aftm::{Aftm, NodeId, RawTransition};
use fd_apk::AndroidApp;
use fd_droidsim::{
    ApiInvocation, DeviceApi, DeviceConfig, DeviceError, ErrorClass, EventOutcome, FaultConfig,
    FaultLog, Op, ScreenObservation, TestScript, UiSignature, VisibleWidget,
};
use fd_smali::{ClassName, ResName};
use fd_static::{StaticInfo, UiOwner};
use std::collections::{BTreeMap, BTreeSet};

/// Base backoff after a transient device error, in simulated clock
/// ticks; attempt `n` waits `BACKOFF_BASE_TICKS << n`.
const BACKOFF_BASE_TICKS: u64 = 50;

/// The FragDroid tool.
#[derive(Clone, Debug, Default)]
pub struct FragDroid {
    config: FragDroidConfig,
}

impl FragDroid {
    /// Creates a tool instance.
    pub fn new(config: FragDroidConfig) -> Self {
        FragDroid { config }
    }

    /// Runs the full pipeline on a decompiled app. `provided_inputs` is
    /// the analyst-filled input-dependency data.
    pub fn run(&self, app: &AndroidApp, provided_inputs: &BTreeMap<String, String>) -> RunReport {
        self.run_traced(app, provided_inputs, &fd_trace::Tracer::disabled())
    }

    /// [`run`](Self::run) under a tracer: the static phase, every
    /// explored test case, and each crash-recovery attempt become spans;
    /// dispatched events, faults, retries, crashes, and AFTM discoveries
    /// become typed instant events. With a disabled tracer this *is*
    /// `run` — the same code path, producing a byte-identical report.
    ///
    /// The device backend is built from
    /// [`FragDroidConfig::backend`]; use
    /// [`run_traced_on`](Self::run_traced_on) to run against a device the
    /// caller already holds (what the device pool does with leases).
    pub fn run_traced(
        &self,
        app: &AndroidApp,
        provided_inputs: &BTreeMap<String, String>,
        tracer: &fd_trace::Tracer,
    ) -> RunReport {
        let mut device = crate::pool::build_backend(self.config.backend);
        self.run_traced_on(app, provided_inputs, tracer, &mut *device)
    }

    /// [`run_traced`](Self::run_traced) against a caller-provided
    /// [`DeviceApi`] backend. The device is wiped by the initial
    /// [`DeviceApi::install_app`], so a leased (possibly reused) device
    /// behaves exactly like a fresh one. If the install itself fails —
    /// only possible on a remote backend — the run is cut short with an
    /// [`RunReport::infra_failure`] report that blames the harness, not
    /// the app.
    pub fn run_traced_on(
        &self,
        app: &AndroidApp,
        provided_inputs: &BTreeMap<String, String>,
        tracer: &fd_trace::Tracer,
        device: &mut dyn DeviceApi,
    ) -> RunReport {
        // Phase 1: static information extraction.
        let info = fd_static::extract_traced(app, provided_inputs, tracer);

        // Manifest rewrite so `am start -n` can reach every activity.
        let mut installed = app.clone();
        installed.manifest.add_main_action_everywhere();
        let mut device_config = DeviceConfig::default();
        if self.config.faults_armed() {
            device_config.faults =
                Some(FaultConfig::new(self.config.fault_seed, self.config.fault_rate));
        }
        if let Err(err) = device.install_app(&installed, device_config) {
            return install_failure_report(info, &err, tracer);
        }

        // Phase 2: evolutionary test case generation.
        let explore_span = tracer.span(fd_trace::Phase::Explore, "explore");
        let mut explorer = Explorer {
            config: &self.config,
            tracer,
            faults_seen: 0,
            started: std::time::Instant::now(),
            deadline_hit: std::cell::Cell::new(false),
            device,
            infra: None,
            info: &info,
            aftm: info.aftm.clone(),
            queue: UiQueue::new(),
            swept: BTreeSet::new(),
            paths: BTreeMap::new(),
            visited_activities: BTreeSet::new(),
            visited_fragments: BTreeSet::new(),
            reflection_pushed: BTreeSet::new(),
            force_tried: BTreeSet::new(),
            scripts: Vec::new(),
            timeline: Vec::new(),
            events: 0,
            test_cases: 0,
            crashes: 0,
            crash_reports: Vec::new(),
            recovered_crashes: 0,
            retries: 0,
            device_errors: DeviceErrorStats::default(),
            in_recovery: false,
        };
        explorer.explore();
        if tracer.is_enabled() {
            let clock = explorer.dev_clock();
            tracer.set_sim_clock(clock);
        }
        explore_span.end();

        // Drain the device's accumulated observations before assembling
        // the report; each can still fail on a remote backend, in which
        // case the report keeps the (empty) fallback and records the
        // infrastructure failure.
        let api_invocations = explorer.dev_invocations();
        let faults_injected = explorer.dev_faults_injected();
        let fault_log = explorer.dev_fault_log();

        RunReport {
            scripts: explorer.scripts,
            timeline: explorer.timeline,
            visited_activities: explorer.visited_activities,
            visited_fragments: explorer.visited_fragments,
            api_invocations,
            events_injected: explorer.events,
            test_cases_run: explorer.test_cases,
            test_cases_generated: explorer.queue.generated(),
            crashes: explorer.crashes,
            deadline_exceeded: explorer.deadline_hit.get(),
            crash_reports: explorer.crash_reports,
            recovered_crashes: explorer.recovered_crashes,
            retries: explorer.retries,
            faults_injected,
            fault_log,
            device_errors: explorer.device_errors,
            infra_failure: explorer.infra,
            aftm: explorer.aftm,
            static_info: info,
        }
    }

    /// Convenience entry: decompile a packed APK container and run.
    pub fn run_apk(
        &self,
        bytes: &bytes::Bytes,
        provided_inputs: &BTreeMap<String, String>,
    ) -> Result<RunReport, fd_apk::ApkError> {
        self.run_apk_traced(bytes, provided_inputs, &fd_trace::Tracer::disabled())
    }

    /// [`run_apk`](Self::run_apk) under a tracer: adds a
    /// [`fd_trace::Phase::Decompile`] span around unpacking on top of
    /// everything [`run_traced`](Self::run_traced) records.
    pub fn run_apk_traced(
        &self,
        bytes: &bytes::Bytes,
        provided_inputs: &BTreeMap<String, String>,
        tracer: &fd_trace::Tracer,
    ) -> Result<RunReport, fd_apk::ApkError> {
        let app = fd_apk::decompile_traced(bytes, tracer)?;
        Ok(self.run_traced(&app, provided_inputs, tracer))
    }
}

/// The report for a run that never got past `install_app`: static
/// results only, one infrastructure incident, zero app crashes.
fn install_failure_report(
    info: StaticInfo,
    err: &DeviceError,
    tracer: &fd_trace::Tracer,
) -> RunReport {
    let detail = err.to_string();
    tracer.event(|| fd_trace::TraceEvent::DeviceIncident { detail: detail.clone() });
    RunReport {
        aftm: info.aftm.clone(),
        visited_activities: BTreeSet::new(),
        visited_fragments: BTreeSet::new(),
        api_invocations: Vec::new(),
        scripts: Vec::new(),
        timeline: Vec::new(),
        events_injected: 0,
        test_cases_run: 0,
        test_cases_generated: 0,
        crashes: 0,
        deadline_exceeded: false,
        crash_reports: Vec::new(),
        recovered_crashes: 0,
        retries: 0,
        faults_injected: 0,
        fault_log: FaultLog::default(),
        device_errors: DeviceErrorStats { infrastructure: 1, ..DeviceErrorStats::default() },
        infra_failure: Some(detail),
        static_info: info,
    }
}

/// A stable short name for each device operation, used as the
/// `EventDispatched` payload (never allocates for the common case).
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Launch => "launch",
        Op::ForceStart(_) => "force-start",
        Op::Click(_) => "click",
        Op::EnterText { .. } => "enter-text",
        Op::DismissOverlay => "dismiss-overlay",
        Op::Back => "back",
        Op::SwipeOpenDrawer => "swipe-open-drawer",
        Op::ReflectSwitch(_) => "reflect-switch",
    }
}

struct Explorer<'a> {
    config: &'a FragDroidConfig,
    /// Trace sink for this run (a disabled tracer is a no-op).
    tracer: &'a fd_trace::Tracer,
    /// Fault-log records already mirrored into the trace, so each
    /// injected fault becomes exactly one [`fd_trace::TraceEvent`].
    faults_seen: usize,
    /// When the run began — compared against `config.app_deadline`.
    started: std::time::Instant,
    /// Latched true the first time a budget check fails on the deadline,
    /// so the report can distinguish a timeout from natural exhaustion.
    deadline_hit: std::cell::Cell<bool>,
    device: &'a mut dyn DeviceApi,
    /// Latched to the first infrastructure failure's rendered error. Once
    /// set, the budget is treated as exhausted: the run unwinds and the
    /// report carries the partial results plus
    /// [`RunReport::infra_failure`] — never an app crash.
    infra: Option<String>,
    info: &'a StaticInfo,
    aftm: Aftm,
    queue: UiQueue,
    /// Fragment-level states already swept (Case 3 runs once per state).
    swept: BTreeSet<UiSignature>,
    /// Shortest-known operation list reaching each state.
    paths: BTreeMap<UiSignature, Vec<Op>>,
    visited_activities: BTreeSet<ClassName>,
    visited_fragments: BTreeSet<ClassName>,
    /// (activity, fragment) pairs a reflection item was generated for.
    reflection_pushed: BTreeSet<(ClassName, ClassName)>,
    /// Activities already force-started in the second loop phase.
    force_tried: BTreeSet<ClassName>,
    /// Executed test cases, in order.
    scripts: Vec<TestScript>,
    /// `(events, activities, fragments)` samples at each new visit.
    timeline: Vec<(usize, usize, usize)>,
    events: usize,
    test_cases: usize,
    crashes: usize,
    /// Distinct crashes by signature, with occurrence/recovery triage.
    crash_reports: Vec<CrashReport>,
    /// Crashes the supervisor relaunched and replayed past.
    recovered_crashes: usize,
    /// Retries after transient device errors.
    retries: usize,
    /// Device errors by class (see the satellite fix in [`Explorer::exec`]:
    /// an errored event is counted, not reported as "no change").
    device_errors: DeviceErrorStats,
    /// Guard against recursive crash recovery: a crash *during* recovery
    /// is triaged but not recovered from again.
    in_recovery: bool,
}

/// What one [`Explorer::exec`] step produced: either a real device
/// outcome, or a classified device error — no longer conflated with
/// [`EventOutcome::NoChange`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum StepOutcome {
    /// The device accepted the event.
    Outcome(EventOutcome),
    /// The device rejected the event (after any retries).
    Errored(ErrorClass),
}

impl<'a> Explorer<'a> {
    /// Latches the first infrastructure failure and mirrors every one
    /// into the trace. The latch makes [`Explorer::budget_left`] report
    /// exhaustion, so the exploration unwinds promptly instead of
    /// hammering a dead transport.
    fn latch_infra(&mut self, err: &DeviceError) {
        let detail = err.to_string();
        self.tracer.event(|| fd_trace::TraceEvent::DeviceIncident { detail: detail.clone() });
        if self.infra.is_none() {
            self.infra = Some(detail);
        }
    }

    /// Unwraps a device observation, absorbing errors: the error class is
    /// counted, infrastructure failures latch the run, and the caller
    /// gets `fallback`. In-process backends never take the error path, so
    /// this is behaviorally identical to the pre-trait driver there.
    fn absorb<T>(&mut self, result: Result<T, DeviceError>, fallback: T) -> T {
        match result {
            Ok(value) => value,
            Err(err) => {
                let class = err.class();
                self.count_error(class);
                if class == ErrorClass::Infrastructure {
                    self.latch_infra(&err);
                }
                fallback
            }
        }
    }

    fn dev_signature(&mut self) -> Option<UiSignature> {
        let result = self.device.signature();
        self.absorb(result, None)
    }

    fn dev_observe(&mut self) -> Option<ScreenObservation> {
        let result = self.device.observe();
        self.absorb(result, None)
    }

    fn dev_widgets(&mut self) -> Vec<VisibleWidget> {
        let result = self.device.visible_widgets();
        self.absorb(result, Vec::new())
    }

    fn dev_crash_site(&mut self) -> Option<UiSignature> {
        let result = self.device.crash_site();
        self.absorb(result, None)
    }

    fn dev_clock(&mut self) -> u64 {
        let result = self.device.clock();
        self.absorb(result, 0)
    }

    fn dev_invocations(&mut self) -> Vec<ApiInvocation> {
        let result = self.device.invocations();
        self.absorb(result, Vec::new())
    }

    fn dev_faults_injected(&mut self) -> usize {
        let result = self.device.faults_injected();
        self.absorb(result, 0)
    }

    fn dev_fault_log(&mut self) -> FaultLog {
        let result = self.device.fault_log();
        self.absorb(result, FaultLog::default())
    }

    fn budget_left(&mut self) -> bool {
        if self.infra.is_some() {
            return false;
        }
        if let Some(deadline) = self.config.app_deadline {
            if self.started.elapsed() >= deadline {
                self.deadline_hit.set(true);
                return false;
            }
        }
        self.events < self.config.event_budget && !self.target_reached()
    }

    /// Whether the configured target API has been observed — the early
    /// exit of the "detect arbitrary API calls" mode.
    fn target_reached(&mut self) -> bool {
        let config = self.config;
        match &config.target_api {
            None => false,
            Some((group, name)) => {
                let result = self.device.invocations();
                self.absorb(result, Vec::new()).iter().any(|i| &i.group == group && &i.name == name)
            }
        }
    }

    fn explore(&mut self) {
        self.queue.push(QueueItem::new("entry", vec![Op::Launch]));
        loop {
            // Drain the transition queue (first loop phase).
            while let Some(item) = self.queue.pop() {
                if !self.budget_left() || self.test_cases >= self.config.max_test_cases {
                    return;
                }
                if let Some(node) = &item.skip_if_visited {
                    if self.is_node_visited(node) {
                        continue;
                    }
                }
                self.test_cases += 1;
                let QueueItem { label, ops, .. } = item;
                let _case = self.tracer.span(fd_trace::Phase::Case, &label);
                let mut trace = Vec::new();
                for op in &ops {
                    if self.exec(op, &mut trace).is_none() {
                        break;
                    }
                }
                self.scripts.push(TestScript::new(label, ops));
                if let Some(sig) = self.dev_signature() {
                    self.sweep(sig);
                }
            }

            // Second loop phase: forcibly start whatever is left (§VI-C).
            if !self.config.force_start_phase || !self.budget_left() {
                return;
            }
            let leftovers: Vec<ClassName> = self
                .info
                .activities
                .iter()
                .filter(|a| {
                    !self.visited_activities.contains(a.as_str())
                        && !self.force_tried.contains(a.as_str())
                })
                .cloned()
                .collect();
            if leftovers.is_empty() {
                return;
            }
            for activity in leftovers {
                self.force_tried.insert(activity.clone());
                self.queue.push(QueueItem::targeting(
                    format!("force-start {activity}"),
                    vec![Op::ForceStart(activity.clone())],
                    NodeId::Activity(activity),
                ));
            }
        }
    }

    fn is_node_visited(&self, node: &NodeId) -> bool {
        match node {
            NodeId::Activity(a) => self.visited_activities.contains(a.as_str()),
            NodeId::Fragment(f) => self.visited_fragments.contains(f.as_str()),
        }
    }

    /// Executes one operation, recording events, transitions, and newly
    /// discovered states. Returns `None` when the event budget is gone
    /// (or an infrastructure failure latched it). Device-level rejections
    /// are classified and counted ([`DeviceErrorStats`]); transient ones
    /// (injected ANRs, flaky `am start`) are retried up to
    /// [`FragDroidConfig::retry_limit`] times with exponential backoff in
    /// simulated device time — every attempt costs one budget event.
    /// The op is cloned once, into `ops_so_far`, when the device accepts
    /// it.
    fn exec(&mut self, op: &Op, ops_so_far: &mut Vec<Op>) -> Option<StepOutcome> {
        let mut attempt = 0usize;
        let outcome = loop {
            if !self.budget_left() {
                return None;
            }
            self.events += 1;
            if self.tracer.is_enabled() {
                let clock = self.dev_clock();
                self.tracer.set_sim_clock(clock);
            }
            self.tracer.event(|| fd_trace::TraceEvent::EventDispatched { op: op_name(op).into() });
            self.tracer.count("events_dispatched", 1);
            let result = self.device.perform(op);
            self.trace_new_faults();
            match result {
                Ok(outcome) => break outcome,
                Err(err) => {
                    let class = err.class();
                    self.count_error(class);
                    if class == ErrorClass::Infrastructure {
                        self.latch_infra(&err);
                        return None;
                    }
                    if class == ErrorClass::Transient && attempt < self.config.retry_limit {
                        attempt += 1;
                        self.retries += 1;
                        let attempt_now = attempt as u64;
                        self.tracer.event(|| fd_trace::TraceEvent::Retry { attempt: attempt_now });
                        self.tracer.count("retries", 1);
                        let advanced = self.device.advance_clock(BACKOFF_BASE_TICKS << attempt);
                        self.absorb(advanced, ());
                        continue;
                    }
                    return Some(StepOutcome::Errored(class));
                }
            }
        };
        ops_so_far.push(op.clone());
        match &outcome {
            EventOutcome::UiChanged { from, to } => {
                self.record_transition(op, from, to);
            }
            EventOutcome::Crashed { .. } => {
                self.crashes += 1;
            }
            _ => {}
        }
        self.observe(ops_so_far);
        if let EventOutcome::Crashed { reason } = &outcome {
            self.triage_crash(reason.clone());
        }
        Some(StepOutcome::Outcome(outcome))
    }

    /// Mirrors fault-log records the device appended since the last call
    /// into the trace, one [`fd_trace::TraceEvent::FaultInjected`] each.
    /// The log is monotonic (surviving [`DeviceApi::reset`]), so an index
    /// cursor is enough — and [`DeviceApi::fault_records_since`] ships
    /// only the tail, not the whole log, across the wire. Skipped
    /// entirely when nothing could have been injected or nobody is
    /// listening.
    fn trace_new_faults(&mut self) {
        if !self.tracer.is_enabled() || !self.config.faults_armed() {
            return;
        }
        let result = self.device.fault_records_since(self.faults_seen);
        let records = self.absorb(result, Vec::new());
        for record in &records {
            let kind = record.kind.clone();
            self.tracer.event(|| fd_trace::TraceEvent::FaultInjected { kind: kind.to_string() });
            self.tracer.count("faults_injected", 1);
        }
        self.faults_seen += records.len();
    }

    fn count_error(&mut self, class: ErrorClass) {
        match class {
            ErrorClass::Transient => self.device_errors.transient += 1,
            ErrorClass::WidgetGone => self.device_errors.widget_gone += 1,
            ErrorClass::Fatal => self.device_errors.fatal += 1,
            ErrorClass::Infrastructure => self.device_errors.infrastructure += 1,
        }
    }

    /// Crash triage: deduplicate by (activity, fragment stack, reason)
    /// signature, then — with the supervisor armed — relaunch the app and
    /// replay the shortest known path back to the crash site so the
    /// exploration resumes instead of abandoning the test case.
    fn triage_crash(&mut self, reason: String) {
        let site = self.dev_crash_site();
        if self.tracer.is_enabled() {
            let clock = self.dev_clock();
            self.tracer.set_sim_clock(clock);
        }
        self.tracer.event(|| fd_trace::TraceEvent::Crash {
            activity: site.as_ref().map(|s| s.activity.as_str().to_string()).unwrap_or_default(),
            reason: reason.clone(),
        });
        self.tracer.count("crashes", 1);
        let signature = CrashSignature {
            activity: site
                .as_ref()
                .map(|s| s.activity.clone())
                .unwrap_or_else(|| ClassName::new("")),
            fragments: site
                .as_ref()
                .map(|s| s.fragments.values().cloned().collect())
                .unwrap_or_default(),
            reason,
        };
        match self.crash_reports.iter_mut().find(|c| c.signature == signature) {
            Some(existing) => existing.occurrences += 1,
            None => self.crash_reports.push(CrashReport {
                signature: signature.clone(),
                occurrences: 1,
                recovered: false,
            }),
        }
        if !self.config.faults_armed() || self.in_recovery {
            return;
        }
        self.in_recovery = true;
        let recovery_span = self.tracer.span(fd_trace::Phase::Recovery, "crash-recovery");
        let recovered = self.recover(site);
        recovery_span.end();
        self.tracer.event(|| fd_trace::TraceEvent::Recovery { recovered });
        self.in_recovery = false;
        if recovered {
            self.recovered_crashes += 1;
            if let Some(report) = self.crash_reports.iter_mut().find(|c| c.signature == signature) {
                report.recovered = true;
            }
        }
    }

    /// Relaunches after a crash and replays the shortest known operation
    /// list reaching the crash site (falling back to a bare launch when
    /// the site was never registered). Returns whether the app is up
    /// again. Replayed ops run through [`Explorer::exec`], so they count
    /// against the budget and keep feeding the AFTM.
    fn recover(&mut self, site: Option<UiSignature>) -> bool {
        let reset = self.device.reset();
        self.absorb(reset, ());
        let plan =
            site.and_then(|sig| self.paths.get(&sig).cloned()).unwrap_or_else(|| vec![Op::Launch]);
        let mut scratch = Vec::new();
        for op in &plan {
            match self.exec(op, &mut scratch) {
                None => return false,
                Some(StepOutcome::Outcome(EventOutcome::Crashed { .. })) => return false,
                Some(_) => {}
            }
        }
        self.dev_signature().is_some()
    }

    /// Marks the current interface's elements visited, registers its reach
    /// path, enqueues a sweep for newly discovered states, and generates
    /// Case-1 reflection items for a newly visited activity's dependent
    /// fragments.
    fn observe(&mut self, ops_so_far: &[Op]) {
        let Some(screen) = self.dev_observe() else { return };
        let sig = screen.signature;
        let activity = screen.activity;
        let manager_frags = screen.manager_fragments;

        // The visited sets and the AFTM's visited marks have always moved
        // together, so a node the set already held is marked already.
        let activity_is_new = self.visited_activities.insert(activity.clone());
        if activity_is_new {
            self.tracer
                .event(|| fd_trace::TraceEvent::NewActivity { name: activity.as_str().into() });
            self.mark_node(NodeId::Activity(activity.clone()));
        }
        let mut fragment_is_new = false;
        for f in manager_frags {
            if self.visited_fragments.insert(f.clone()) {
                fragment_is_new = true;
                self.tracer.event(|| fd_trace::TraceEvent::NewFragment { name: f.as_str().into() });
                self.mark_node(NodeId::Fragment(f));
            }
        }
        if activity_is_new || fragment_is_new {
            self.timeline.push((
                self.events,
                self.visited_activities.len(),
                self.visited_fragments.len(),
            ));
        }

        if !self.paths.contains_key(&sig) {
            self.paths.insert(sig.clone(), ops_so_far.to_vec());
            self.queue.push(QueueItem::new(format!("sweep {sig}"), ops_so_far.to_vec()));
        }

        // Case 1: a (newly reached) activity that obtains a FragmentManager
        // gets one reflection item per dependent, unvisited fragment.
        if activity_is_new && self.config.use_reflection {
            let deps = self.info.af_dependency.get(&activity).cloned().unwrap_or_default();
            let base = self.paths.get(&sig).cloned().unwrap_or_else(|| ops_so_far.to_vec());
            for fragment in deps {
                if self.visited_fragments.contains(fragment.as_str()) {
                    continue;
                }
                if !self.reflection_pushed.insert((activity.clone(), fragment.clone())) {
                    continue;
                }
                let mut ops = base.clone();
                ops.push(Op::ReflectSwitch(fragment.clone()));
                self.queue.push(QueueItem::targeting(
                    format!("reflect {fragment} in {activity}"),
                    ops,
                    NodeId::Fragment(fragment),
                ));
            }
        }
    }

    /// Adds `node` to the AFTM and marks it visited.
    fn mark_node(&mut self, node: NodeId) {
        self.aftm.add_node(node.clone());
        self.aftm.mark_visited(&node);
    }

    /// Translates an observed UI change into raw AFTM transitions, with
    /// the clicked widget's owner (resource dependency) deciding whether
    /// the edge starts at the activity or at a fragment.
    fn record_transition(&mut self, op: &Op, from: &UiSignature, to: &UiSignature) {
        if from.activity != to.activity {
            self.tracer.event(|| fd_trace::TraceEvent::TransitionDiscovered {
                from: from.activity.as_str().into(),
                to: to.activity.as_str().into(),
            });
        }
        let owner_fragment = match op {
            Op::Click(id) => match self.info.resource_dep.owner_of(id) {
                Some(UiOwner::Fragment(f)) => Some(f.clone()),
                _ => None,
            },
            _ => None,
        };

        if from.activity != to.activity {
            let raw = match owner_fragment {
                Some(f) => RawTransition::FragmentToActivity {
                    host: from.activity.clone(),
                    fragment: f,
                    to: to.activity.clone(),
                },
                None => RawTransition::ActivityToActivity {
                    from: from.activity.clone(),
                    to: to.activity.clone(),
                },
            };
            self.aftm.apply(raw);
            return;
        }

        // Same activity: fragment transformations. Only manager-confirmed
        // panes count (the current screen is `to`), and only a pane `from`
        // lacked can add an edge, so without one there is nothing to ask.
        let gained = to.fragments.iter().any(|(c, f)| from.fragments.get(c) != Some(f));
        if !gained {
            return;
        }
        let confirmed: BTreeSet<ClassName> = self
            .dev_observe()
            .map(|s| s.manager_fragments.into_iter().collect())
            .unwrap_or_default();
        for (container, fragment) in &to.fragments {
            let was_there = from.fragments.get(container) == Some(fragment);
            if was_there || !confirmed.contains(fragment) {
                continue;
            }
            self.tracer.event(|| fd_trace::TraceEvent::TransitionDiscovered {
                from: to.activity.as_str().into(),
                to: fragment.as_str().into(),
            });
            let raw = match &owner_fragment {
                Some(f0) if f0 != fragment => RawTransition::FragmentToFragment {
                    host: to.activity.clone(),
                    from: f0.clone(),
                    to: fragment.clone(),
                },
                _ => RawTransition::ActivityToOwnFragment {
                    activity: to.activity.clone(),
                    fragment: fragment.clone(),
                },
            };
            self.aftm.apply(raw);
        }
    }

    /// Case 3: the clicking sweep over one settled interface.
    fn sweep(&mut self, sig: UiSignature) {
        if self.swept.contains(&sig) {
            return;
        }
        self.swept.insert(sig.clone());
        let base_ops = match self.paths.get(&sig) {
            Some(ops) => ops.clone(),
            None => return,
        };

        // "FragDroid will complete the input fields and get all
        // coordinates of the controls that can be clicked."
        let fill_ops = self.fill_inputs();
        let widgets: Vec<ResName> =
            self.dev_widgets().into_iter().filter(|w| w.clickable).filter_map(|w| w.id).collect();

        // A state is swept once, so the widgets this sweep clicked are
        // all the state's clicked widgets.
        let mut tried = BTreeSet::new();
        for widget in &widgets {
            if !self.budget_left() {
                return;
            }
            if !tried.insert(widget) {
                continue;
            }
            if !self.ensure_at(&sig, &base_ops, &fill_ops) {
                return;
            }
            let mut trace = base_ops.clone();
            trace.extend(fill_ops.iter().cloned());
            match self.exec(&Op::Click(widget.clone()), &mut trace) {
                None => return,
                Some(StepOutcome::Outcome(EventOutcome::OverlayShown)) => {
                    // "it will be removed by clicking on blank space."
                    let _ = self.exec(&Op::DismissOverlay, &mut Vec::new());
                    // §VIII extension: a submit that only produced an error
                    // dialog may just need a better input — retry with
                    // strings harvested from the app's own UI.
                    if self.config.harvest_inputs {
                        self.try_harvested_inputs(&sig, &base_ops, widget);
                    }
                }
                Some(_) => {}
            }
        }
    }

    /// Retries clicking `widget` once per harvested candidate string,
    /// filling every visible input field with the candidate first. Stops
    /// at the first UI change (the gate opened) or after the candidates
    /// are exhausted.
    fn try_harvested_inputs(&mut self, sig: &UiSignature, base_ops: &[Op], widget: &ResName) {
        const MAX_CANDIDATES: usize = 8;
        let candidates: Vec<String> =
            self.info.input_dep.harvested.iter().take(MAX_CANDIDATES).cloned().collect();
        for candidate in candidates {
            if !self.budget_left() {
                return;
            }
            if !self.ensure_at(sig, base_ops, &[]) {
                return;
            }
            let fields: Vec<ResName> = self
                .dev_widgets()
                .into_iter()
                .filter(|w| w.kind == fd_apk::WidgetKind::EditText)
                .filter_map(|w| w.id)
                .collect();
            if fields.is_empty() {
                return;
            }
            let mut trace = base_ops.to_vec();
            for id in fields {
                let op = Op::EnterText { id, text: candidate.clone() };
                if self.exec(&op, &mut trace).is_none() {
                    return;
                }
            }
            match self.exec(&Op::Click(widget.clone()), &mut trace) {
                None => return,
                Some(StepOutcome::Outcome(EventOutcome::UiChanged { .. })) => return, // gate opened
                Some(StepOutcome::Outcome(EventOutcome::OverlayShown)) => {
                    let _ = self.exec(&Op::DismissOverlay, &mut Vec::new());
                }
                Some(_) => {}
            }
        }
    }

    /// Fills every visible input widget (§V-C), returning the ops used so
    /// discovered paths can replay them.
    fn fill_inputs(&mut self) -> Vec<Op> {
        let inputs: Vec<ResName> = self
            .dev_widgets()
            .into_iter()
            .filter(|w| w.kind == fd_apk::WidgetKind::EditText)
            .filter_map(|w| w.id)
            .collect();
        let mut ops = Vec::new();
        for id in inputs {
            let value = if self.config.use_input_deps {
                self.info.input_dep.value_for(&id).to_string()
            } else {
                "abc".to_string()
            };
            let op = Op::EnterText { id, text: value };
            if self.exec(&op, &mut Vec::new()).is_some() {
                ops.push(op);
            }
        }
        ops
    }

    /// Re-reaches `sig` by replaying its path (after a crash, a finish, or
    /// a transition away). Returns false if the state cannot be restored.
    fn ensure_at(&mut self, sig: &UiSignature, base_ops: &[Op], fill_ops: &[Op]) -> bool {
        if self.dev_signature().as_ref() == Some(sig) {
            return true;
        }
        let mut scratch = Vec::new();
        for op in base_ops.iter().chain(fill_ops) {
            if self.exec(op, &mut scratch).is_none() {
                return false;
            }
        }
        self.dev_signature().as_ref() == Some(sig)
    }
}
