//! The simulated device: app installation, activity stack, event injection.

use crate::backend::ScreenObservation;
use crate::error::{DeviceError, ReflectError};
use crate::faults::{FaultConfig, FaultKind, FaultLog, FaultPlan, FaultSite, KILL_REASON};
use crate::intent::Intent;
use crate::interp::{self, Frame, Interrupt};
use crate::monitor::{ApiInvocation, ApiMonitor, Caller};
use crate::outcome::{EventOutcome, UiSignature, UiState};
use crate::screen::{Screen, VisibleWidget};
use fd_apk::{AndroidApp, ApkError, Layout, WidgetKind, ACTION_MAIN};
use fd_smali::{visit, ClassName, ResName, Stmt};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Maximum activity back-stack depth.
const MAX_STACK: usize = 48;

/// Device-level configuration. Serializable so it can cross the wire to
/// a subprocess device agent unchanged.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeviceConfig {
    /// Permissions to withhold even though the manifest requests them —
    /// reproduces the paper's "some apps failed in the dynamic testing due
    /// to the issues of permissions".
    pub denied_permissions: BTreeSet<String>,
    /// Seeded fault injection (see [`crate::faults`]). `None` — and any
    /// zero-rate config — leaves the device exactly as reliable as it
    /// always was.
    pub faults: Option<FaultConfig>,
}

/// A simulated Android device with one installed app.
///
/// The app is immutable once installed and shared by `Arc`: the
/// interpreter runs program text borrowed through a cloned handle, and
/// screens hold the app's own `Arc`'d layouts, so neither install nor
/// any event copies program text or a layout.
///
/// The foreground screen's [`UiSignature`] is built once, when an event
/// settles, and held: the next event's `before`, [`Device::signature`]
/// and [`Device::observe`] share it instead of rebuilding it.
#[derive(Clone, Debug)]
pub struct Device {
    app: Arc<AndroidApp>,
    granted: BTreeSet<String>,
    stack: Vec<Screen>,
    /// The signature of [`Device::current`], refreshed wherever the
    /// screen can change between events: when an event settles
    /// ([`Device::classify`]), on a crash, and on reset. The interpreter
    /// mutates screens mid-event, but nothing reads this until the event
    /// ends.
    foreground: Option<UiSignature>,
    monitor: ApiMonitor,
    crashed: Option<String>,
    /// The UI signature at the moment of the last Force-Close (captured
    /// before the task was cleared) — the crash-dedup key's state part.
    crash_site: Option<UiSignature>,
    faults: FaultPlan,
    /// Injected events so far (faulted or not).
    event_seq: u64,
    /// Simulated clock, in ticks (~ms): one tick per injected event plus
    /// any injected delays and supervisor backoff.
    clock: u64,
}

impl Device {
    /// Creates a device with `app` installed. Manifest permissions are
    /// granted at install time (pre-Android-6 semantics, as in the paper:
    /// "most sensitive operations are allowed by default at the time of
    /// installing an app"), except those in
    /// [`DeviceConfig::denied_permissions`].
    pub fn new(app: AndroidApp) -> Self {
        Self::with_config(app, DeviceConfig::default())
    }

    /// Creates a device with explicit configuration.
    pub fn with_config(app: AndroidApp, config: DeviceConfig) -> Self {
        let granted = app
            .manifest
            .permissions
            .iter()
            .filter(|p| !config.denied_permissions.contains(*p))
            .cloned()
            .collect();
        let faults = config.faults.map(FaultPlan::new).unwrap_or_else(FaultPlan::inert);
        Device {
            app: Arc::new(app),
            granted,
            stack: Vec::new(),
            foreground: None,
            monitor: ApiMonitor::new(),
            crashed: None,
            crash_site: None,
            faults,
            event_seq: 0,
            clock: 0,
        }
    }

    /// Installs an app from packed container bytes (decompiling it first),
    /// like `adb install`.
    pub fn install(bytes: &bytes::Bytes) -> Result<Self, ApkError> {
        Ok(Device::new(fd_apk::decompile(bytes)?))
    }

    /// The installed app.
    pub fn app(&self) -> &AndroidApp {
        &self.app
    }

    /// A shared handle on the installed app, so code it runs can be
    /// borrowed while the device is mutated.
    pub(crate) fn app_handle(&self) -> Arc<AndroidApp> {
        Arc::clone(&self.app)
    }

    /// The layout named `name`: the installed app's own shared copy.
    pub(crate) fn inflate(&self, name: &str) -> Option<Arc<Layout>> {
        self.app.layouts.get(name).cloned()
    }

    /// The sensitive-API monitor's log.
    pub fn invocations(&self) -> impl Iterator<Item = &ApiInvocation> {
        self.monitor.invocations()
    }

    /// The monitor itself (read-only).
    pub fn monitor(&self) -> &ApiMonitor {
        &self.monitor
    }

    /// Whether the app is currently force-closed.
    pub fn is_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// The crash reason, if crashed.
    pub fn crash_reason(&self) -> Option<&str> {
        self.crashed.as_deref()
    }

    /// The UI signature at the moment of the last Force-Close, captured
    /// before the task was cleared. Together with the crash reason this
    /// is the crash-deduplication key.
    pub fn crash_site(&self) -> Option<&UiSignature> {
        self.crash_site.as_ref()
    }

    /// Clears a Force-Close and the activity back stack **without
    /// reinstalling** — `am force-stop` plus a cleared task. The monitor
    /// log, runtime permission state, simulated clock, and the fault
    /// plan all survive; a following [`Device::launch`] brings the app
    /// back up from its launcher activity.
    pub fn reset(&mut self) {
        self.crashed = None;
        self.crash_site = None;
        self.stack.clear();
        self.foreground = None;
    }

    /// The log of every fault injected so far.
    pub fn fault_log(&self) -> &FaultLog {
        self.faults.log()
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> usize {
        self.faults.injected()
    }

    /// The simulated clock, in ticks (~ms).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the simulated clock — how a supervisor's retry backoff
    /// spends simulated (not wall-clock) time.
    pub fn advance_clock(&mut self, ticks: u64) {
        self.clock += ticks;
    }

    /// The foreground screen, if the app is running.
    pub fn current(&self) -> Option<&Screen> {
        if self.crashed.is_some() {
            return None;
        }
        self.stack.last()
    }

    /// The fragment-level signature of the foreground screen: the held
    /// one, shared rather than rebuilt.
    pub fn signature(&self) -> Option<UiSignature> {
        self.foreground.clone()
    }

    /// What the driver reads of the foreground screen, or `None` if
    /// nothing is up. Carries the held signature.
    pub fn observe(&self) -> Option<ScreenObservation> {
        let screen = self.current()?;
        Some(ScreenObservation {
            signature: self.foreground.clone()?,
            activity: screen.activity.clone(),
            manager_fragments: screen.manager_fragments().map(|(_, f)| f.clone()).collect(),
        })
    }

    /// The widgets currently on screen.
    pub fn visible_widgets(&self) -> Vec<VisibleWidget> {
        self.current().map(|s| s.visible_widgets()).unwrap_or_default()
    }

    /// Back-stack depth.
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    pub(crate) fn screen_at(&self, idx: usize) -> Option<&Screen> {
        self.stack.get(idx)
    }

    pub(crate) fn screen_at_mut(&mut self, idx: usize) -> Option<&mut Screen> {
        self.stack.get_mut(idx)
    }

    pub(crate) fn record_api(&mut self, group: &str, name: &str, caller: Caller) {
        self.monitor.record(group, name, caller);
    }

    pub(crate) fn has_permission(&self, permission: &str) -> bool {
        self.granted.contains(permission)
    }

    /// Grants a permission at runtime.
    pub fn grant(&mut self, permission: impl Into<String>) {
        self.granted.insert(permission.into());
    }

    /// Revokes a permission.
    pub fn revoke(&mut self, permission: &str) {
        self.granted.remove(permission);
    }

    // ------------------------------------------------------------------
    // Activity starting
    // ------------------------------------------------------------------

    /// Runs one lifecycle callback (`onStart`, `onResume`, …) of the
    /// activity at `screen_idx`, if the class defines it. A `finish()`
    /// inside a lifecycle callback is ignored (apps under test here do not
    /// use it there); crashes propagate.
    fn run_lifecycle(
        &mut self,
        screen_idx: usize,
        callback: &str,
        depth: usize,
    ) -> Result<(), Interrupt> {
        let Some(screen) = self.stack.get(screen_idx) else { return Ok(()) };
        let activity = screen.activity.clone();
        let app = self.app_handle();
        let Some(method) = app.classes.get(activity.as_str()).and_then(|c| c.method(callback))
        else {
            return Ok(());
        };
        let mut frame = Frame::activity(activity, screen_idx, depth);
        match interp::run_method(self, &mut frame, method) {
            Ok(()) | Err(Interrupt::Finish) => Ok(()),
            Err(crash) => Err(crash),
        }
    }

    /// Pops the screen at `idx` with full lifecycle (`onPause`/`onStop`/
    /// `onDestroy`), resuming the newly exposed top.
    pub(crate) fn pop_screen(&mut self, idx: usize) -> Result<(), Interrupt> {
        if idx >= self.stack.len() {
            return Ok(());
        }
        let was_top = idx == self.stack.len() - 1;
        self.run_lifecycle(idx, "onPause", 0)?;
        self.run_lifecycle(idx, "onStop", 0)?;
        self.run_lifecycle(idx, "onDestroy", 0)?;
        self.stack.remove(idx);
        if was_top && !self.stack.is_empty() {
            self.run_lifecycle(self.stack.len() - 1, "onResume", 0)?;
        }
        Ok(())
    }

    /// Pushes a screen for `activity` and runs its creation lifecycle
    /// (`onCreate` → `onStart` → `onResume`), pausing and then stopping
    /// the previously foregrounded activity in the real Android order
    /// (`A.onPause` → `B.onCreate/onStart/onResume` → `A.onStop`). Used by
    /// the interpreter for in-app `startActivity` calls.
    pub(crate) fn start_activity_frame(
        &mut self,
        activity: ClassName,
        intent: Intent,
        depth: usize,
    ) -> Result<(), Interrupt> {
        if self.stack.len() >= MAX_STACK {
            return Err(Interrupt::Crash("StackOverflowError: activity stack".into()));
        }
        let app = self.app_handle();
        let def = app
            .classes
            .get(activity.as_str())
            .ok_or_else(|| Interrupt::Crash(format!("ClassNotFoundException: {activity}")))?;

        let prev_idx = self.stack.len().checked_sub(1);
        if let Some(prev) = prev_idx {
            self.run_lifecycle(prev, "onPause", depth)?;
        }

        self.stack.push(Screen::new(activity.clone(), intent));
        let screen_idx = self.stack.len() - 1;
        if let Some(on_create) = def.method("onCreate") {
            let mut frame = Frame::activity(activity, screen_idx, depth);
            match interp::run_method(self, &mut frame, on_create) {
                Ok(()) => {}
                Err(Interrupt::Finish) => {
                    // Activity finished inside onCreate: remove it again
                    // and resume whoever was underneath.
                    self.stack.remove(screen_idx);
                    if let Some(prev) = prev_idx {
                        self.run_lifecycle(prev, "onResume", depth)?;
                    }
                    return Ok(());
                }
                Err(crash) => return Err(crash),
            }
        }
        self.run_lifecycle(screen_idx, "onStart", depth)?;
        self.run_lifecycle(screen_idx, "onResume", depth)?;
        if let Some(prev) = prev_idx {
            self.run_lifecycle(prev, "onStop", depth)?;
        }
        Ok(())
    }

    /// Force-closes the app. The crash site is the foreground screen as
    /// the crash left it, built fresh: the code that crashed may have
    /// changed the screen since the held signature was taken.
    fn crash_out(&mut self, reason: String) -> EventOutcome {
        self.crash_site = self.current().map(Screen::signature);
        self.crashed = Some(reason.clone());
        self.stack.clear();
        self.foreground = None;
        EventOutcome::Crashed { reason }
    }

    /// Rolls the fault plan for one injected event at `site`.
    /// `Ok(Some(outcome))` means the fault already decided the event's
    /// fate (dropped event, spurious process kill); `Err` is a transient
    /// device failure; `Ok(None)` lets the event proceed normally —
    /// possibly with a permission freshly revoked behind its back.
    fn inject_fault(&mut self, site: FaultSite) -> Result<Option<EventOutcome>, DeviceError> {
        self.event_seq += 1;
        self.clock += 1;
        match self.faults.roll(self.event_seq, site, &self.granted) {
            None => Ok(None),
            Some(FaultKind::DropEvent) => Ok(Some(EventOutcome::NoChange)),
            Some(FaultKind::AnrDelay { ticks }) => {
                self.clock += ticks;
                Err(DeviceError::Anr { ticks })
            }
            Some(FaultKind::TransientStartFailure) => Err(DeviceError::TransientStart),
            Some(FaultKind::ProcessKill) => Ok(Some(self.crash_out(KILL_REASON.to_string()))),
            Some(FaultKind::RevokePermission { permission }) => {
                self.granted.remove(&permission);
                Ok(None)
            }
        }
    }

    /// Settles an event: builds the foreground signature once, holds it,
    /// and classifies the change from `before`. `before` is `None` on
    /// launch and force-start, whose `from` is an empty signature.
    fn classify(&mut self, before: Option<UiSignature>) -> EventOutcome {
        let after = self.current().map(Screen::signature);
        let outcome = match (before, after.clone()) {
            (_, None) => EventOutcome::Finished,
            (None, Some(to)) => EventOutcome::UiChanged {
                from: UiSignature::new(UiState {
                    activity: ClassName::new(""),
                    fragments: Default::default(),
                    overlay: None,
                    open_drawers: Default::default(),
                }),
                to,
            },
            (Some(from), Some(to)) => {
                if from == to {
                    // Keep the handle already held: equal signatures stay
                    // one pointer.
                    self.foreground = Some(from);
                    return EventOutcome::NoChange;
                } else if to.overlay.is_some()
                    && from.overlay.is_none()
                    && to.activity == from.activity
                    && to.fragments == from.fragments
                    && to.open_drawers == from.open_drawers
                {
                    EventOutcome::OverlayShown
                } else {
                    EventOutcome::UiChanged { from, to }
                }
            }
        };
        self.foreground = after;
        outcome
    }

    /// Launches the app from its launcher activity, resetting any crash
    /// and clearing the task — the paper's
    /// `am start -n <COMPONENT> -a MAIN -c LAUNCHER` entry method.
    pub fn launch(&mut self) -> Result<EventOutcome, DeviceError> {
        let launcher = self
            .app
            .manifest
            .launcher_activity()
            .map(|d| d.name.clone())
            .ok_or_else(|| DeviceError::Unresolved("no launcher activity".to_string()))?;
        if let Some(faulted) = self.inject_fault(FaultSite::Launch)? {
            return Ok(faulted);
        }
        self.reset();
        let intent =
            Intent { action: Some(ACTION_MAIN.to_string()), ..Intent::explicit(launcher.clone()) };
        self.start_cleared(launcher, intent)
    }

    /// Force-starts an activity by component name — `am start -n`. Only
    /// works when the activity's manifest entry carries a MAIN action
    /// (FragDroid adds one to every activity during its static phase).
    /// Clears the task first, like starting from a fresh launcher intent.
    pub fn am_start(&mut self, component: &str) -> Result<EventOutcome, DeviceError> {
        let decl = self
            .app
            .manifest
            .activity(component)
            .ok_or_else(|| DeviceError::Unresolved(component.to_string()))?;
        if !decl.handles_action(ACTION_MAIN) {
            return Err(DeviceError::NotForceStartable(decl.name.clone()));
        }
        let name = decl.name.clone();
        if let Some(faulted) = self.inject_fault(FaultSite::ForceStart)? {
            return Ok(faulted);
        }
        self.reset();
        // An empty intent: no extras — activities that require them FC.
        let intent =
            Intent { action: Some(ACTION_MAIN.to_string()), ..Intent::explicit(name.clone()) };
        self.start_cleared(name, intent)
    }

    /// Starts `activity` on the task [`Device::launch`] or
    /// [`Device::am_start`] just cleared, and settles the event.
    fn start_cleared(
        &mut self,
        activity: ClassName,
        intent: Intent,
    ) -> Result<EventOutcome, DeviceError> {
        match self.start_activity_frame(activity, intent, 0) {
            Ok(()) | Err(Interrupt::Finish) => Ok(self.classify(None)),
            Err(Interrupt::Crash(reason)) => Ok(self.crash_out(reason)),
        }
    }

    // ------------------------------------------------------------------
    // Event injection
    // ------------------------------------------------------------------

    fn require_running(&self) -> Result<(), DeviceError> {
        if self.crashed.is_some() || self.stack.is_empty() {
            return Err(DeviceError::NotRunning);
        }
        Ok(())
    }

    /// Clicks the visible widget with resource-ID `id`.
    pub fn click(&mut self, id: &str) -> Result<EventOutcome, DeviceError> {
        self.require_running()?;
        if let Some(faulted) = self.inject_fault(FaultSite::Click)? {
            return Ok(faulted);
        }
        let screen = self.stack.last().expect("running");
        let (widget, _) =
            screen.find_visible(id).ok_or_else(|| DeviceError::NoSuchWidget(id.to_string()))?;
        if !widget.clickable {
            return Err(DeviceError::NotClickable(id.to_string()));
        }
        let checkbox = (widget.kind == WidgetKind::CheckBox).then(|| widget.id.clone()).flatten();
        let before = self.foreground.clone();
        let screen_idx = self.stack.len() - 1;

        // A checkbox toggles its own state before any handler runs.
        if let Some(key) = checkbox {
            let screen = self.stack.last_mut().expect("running");
            let entry = screen.inputs.entry(key).or_default();
            let checked = entry == "true";
            entry.clear();
            if !checked {
                entry.push_str("true");
            }
        }

        let handler = self.stack.last().expect("running").handlers.get(id).cloned();
        let Some(handler) = handler else {
            return Ok(self.classify(before));
        };

        let host = self.stack.last().expect("running").activity.clone();
        let mut frame = match &handler.fragment {
            Some(fragment) => {
                let pane = self.stack.last().and_then(|s| {
                    s.fragments
                        .iter()
                        .find(|(_, p)| &p.fragment == fragment)
                        .map(|(c, _)| c.clone())
                });
                Frame::fragment(handler.class.clone(), host, screen_idx, pane, 0)
            }
            None => {
                let mut f = Frame::activity(handler.class.clone(), screen_idx, 0);
                // Handler classes may be inner classes; attribution stays
                // with the host activity.
                f.owner = Caller::Activity(host);
                f
            }
        };

        let app = self.app_handle();
        let method =
            app.classes.get(handler.class.as_str()).and_then(|c| c.method(handler.method.as_str()));
        let Some(method) = method else {
            return Ok(self.classify(before));
        };

        match interp::run_method(self, &mut frame, method) {
            Ok(()) => Ok(self.classify(before)),
            Err(Interrupt::Finish) => {
                if let Err(Interrupt::Crash(reason)) = self.pop_screen(frame.screen_idx) {
                    return Ok(self.crash_out(reason));
                }
                Ok(self.classify(before))
            }
            Err(Interrupt::Crash(reason)) => Ok(self.crash_out(reason)),
        }
    }

    /// Types text into a visible `EditText`.
    pub fn enter_text(&mut self, id: &str, text: &str) -> Result<(), DeviceError> {
        self.require_running()?;
        if self.inject_fault(FaultSite::EnterText)?.is_some() {
            return Ok(()); // the keystrokes were dropped on the floor
        }
        let screen = self.stack.last_mut().expect("running");
        let (widget, _) =
            screen.find_visible(id).ok_or_else(|| DeviceError::NoSuchWidget(id.to_string()))?;
        if !widget.kind.is_input() {
            return Err(DeviceError::NotEditable(id.to_string()));
        }
        let key = widget.id.clone().expect("found by id");
        let value = screen.inputs.entry(key).or_default();
        value.clear();
        value.push_str(text);
        Ok(())
    }

    /// Dismisses a dialog/menu by "clicking on blank space" (the paper's
    /// Case-3 recovery).
    pub fn dismiss_overlay(&mut self) -> Result<EventOutcome, DeviceError> {
        self.require_running()?;
        if let Some(faulted) = self.inject_fault(FaultSite::DismissOverlay)? {
            return Ok(faulted);
        }
        let before = self.foreground.clone();
        let screen = self.stack.last_mut().expect("running");
        screen.overlay = None;
        Ok(self.classify(before))
    }

    /// Presses the hardware back button: dismisses an overlay, else closes
    /// an open drawer, else finishes the foreground activity.
    pub fn back(&mut self) -> Result<EventOutcome, DeviceError> {
        self.require_running()?;
        if let Some(faulted) = self.inject_fault(FaultSite::Back)? {
            return Ok(faulted);
        }
        let before = self.foreground.clone();
        let screen = self.stack.last_mut().expect("running");
        if screen.overlay.is_some() {
            screen.overlay = None;
        } else if let Some(first) = screen.open_drawers.iter().next().cloned() {
            screen.open_drawers.remove(&first);
        } else if let Err(Interrupt::Crash(reason)) = self.pop_screen(self.stack.len() - 1) {
            return Ok(self.crash_out(reason));
        }
        Ok(self.classify(before))
    }

    /// A left-edge swipe: opens the first (closed) drawer of the current
    /// activity layout, the gesture alternative of Fig. 2(b).
    pub fn swipe_open_drawer(&mut self) -> Result<EventOutcome, DeviceError> {
        self.require_running()?;
        if let Some(faulted) = self.inject_fault(FaultSite::Swipe)? {
            return Ok(faulted);
        }
        let before = self.foreground.clone();
        let screen = self.stack.last_mut().expect("running");
        let drawer = screen.layout.as_ref().and_then(|l| {
            l.root
                .iter()
                .find(|w| w.kind == WidgetKind::Drawer && w.id.is_some())
                .and_then(|w| w.id.clone())
        });
        if let Some(drawer) = drawer {
            screen.open_drawers.insert(drawer);
        }
        Ok(self.classify(before))
    }

    // ------------------------------------------------------------------
    // Reflection
    // ------------------------------------------------------------------

    /// Forcibly switches the current activity to `fragment` through the
    /// Java-reflection mechanism of §VI-A Case 1/2: reflect the host
    /// activity's `FragmentManager`, instantiate the fragment class, and
    /// commit a transaction into the fragment container.
    ///
    /// Fails with the paper's documented failure modes; see
    /// [`ReflectError`].
    pub fn reflect_switch_fragment(&mut self, fragment: &str) -> Result<EventOutcome, DeviceError> {
        self.require_running()?;
        if let Some(faulted) = self.inject_fault(FaultSite::Reflect)? {
            return Ok(faulted);
        }
        let fragment_name = ClassName::new(fragment);
        let fail = |why: ReflectError| DeviceError::ReflectionFailed {
            fragment: fragment_name.clone(),
            why,
        };

        let def = self.app.classes.get(fragment).ok_or_else(|| fail(ReflectError::UnknownClass))?;
        if !self.app.classes.is_fragment_class(fragment) {
            return Err(fail(ReflectError::NotAFragment));
        }
        if def.is_abstract {
            return Err(fail(ReflectError::AbstractClass));
        }
        if !def.has_default_ctor() {
            return Err(fail(ReflectError::MissingCtorParameters));
        }

        let activity = self.stack.last().expect("running").activity.clone();
        let (has_fm, container) = self.scan_fragment_wiring(&activity, fragment);
        // Reflecting getFragmentManager()/getSupportFragmentManager() only
        // works if the activity (or its inner classes) actually obtains one.
        if !has_fm {
            return Err(fail(ReflectError::NoFragmentManager));
        }
        let container = container.ok_or_else(|| fail(ReflectError::NoContainer))?;

        let before = self.foreground.clone();
        let screen_idx = self.stack.len() - 1;
        let frame = Frame::activity(activity, screen_idx, 0);
        match interp::attach_fragment(self, &frame, &container, &fragment_name, true) {
            Ok(()) => Ok(self.classify(before)),
            Err(Interrupt::Crash(reason)) => Ok(self.crash_out(reason)),
            Err(Interrupt::Finish) => Ok(self.classify(before)),
        }
    }

    /// One pass over the code of `activity` and its inner classes: whether
    /// it obtains a `FragmentManager`, and the container resource-ID to
    /// commit `fragment` into — first a transaction there that mentions
    /// the fragment, then any transaction container, then the first
    /// `FragmentContainer` in the current layout.
    fn scan_fragment_wiring(
        &self,
        activity: &ClassName,
        fragment: &str,
    ) -> (bool, Option<ResName>) {
        let mut has_fm = false;
        let mut any_container = None;
        let mut matching = None;
        for class in self.app.classes.with_inner_classes(activity.as_str()) {
            visit::walk_class(class, &mut |s| match s {
                Stmt::GetFragmentManager { .. } => has_fm = true,
                Stmt::TxnAdd { container, fragment: f }
                | Stmt::TxnReplace { container, fragment: f }
                | Stmt::AttachDirect { container, fragment: f } => {
                    if any_container.is_none() {
                        any_container = Some(&container.name);
                    }
                    if matching.is_none() && f.as_str() == fragment {
                        matching = Some(&container.name);
                    }
                }
                _ => {}
            });
        }
        let container = matching.or(any_container).cloned().or_else(|| {
            let layout = self.current()?.layout.as_ref()?;
            layout.root.iter().find(|w| w.kind == WidgetKind::FragmentContainer)?.id.clone()
        });
        (has_fm, container)
    }
}
