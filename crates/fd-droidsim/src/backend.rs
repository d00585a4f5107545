//! The device abstraction: one trait over the observation/injection
//! surface the FragDroid driver uses, with pluggable backends.
//!
//! The driver historically constructed the concrete in-process
//! [`Device`] directly, which welded the exploration loop to one crash
//! boundary (`catch_unwind` — unable to contain stack overflow or OOM in
//! a misbehaving app). [`DeviceApi`] abstracts the surface so the same
//! driver can run against:
//!
//! * [`InProcessDevice`] — today's simulator, zero overhead, byte-identical
//!   behavior to the pre-trait driver;
//! * [`crate::SubprocessDevice`] — a `device-agent` child process behind
//!   a length-prefixed JSONL protocol (true crash isolation);
//! * [`MockAdbDevice`] — the in-process simulator plus a recorded `adb`
//!   command stream, keeping the trait surface honest about what a real
//!   phone transport would have to carry.
//!
//! Every method returns `Result`, because for a remote backend *any*
//! request can fail at the transport layer; such failures carry
//! [`crate::ErrorClass::Infrastructure`] and must never be attributed to
//! the app under test.

use crate::device::{Device, DeviceConfig};
use crate::error::DeviceError;
use crate::faults::{FaultLog, FaultRecord};
use crate::monitor::ApiInvocation;
use crate::outcome::{EventOutcome, UiSignature};
use crate::screen::VisibleWidget;
use crate::script::Op;
use fd_apk::AndroidApp;
use fd_smali::ClassName;
use serde::{Deserialize, Serialize};

/// Which device backend a run should use — the configuration-level
/// choice, surfaced as `fd-cli run/corpus --backend`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceBackend {
    /// The simulator in the driver's own process (the default).
    #[default]
    InProcess,
    /// A `device-agent` child process behind the wire protocol.
    Subprocess,
    /// The in-process simulator plus a recorded `adb` command stream.
    MockAdb,
}

impl DeviceBackend {
    /// The CLI spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            DeviceBackend::InProcess => "in-process",
            DeviceBackend::Subprocess => "subprocess",
            DeviceBackend::MockAdb => "mock-adb",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "in-process" => Some(DeviceBackend::InProcess),
            "subprocess" => Some(DeviceBackend::Subprocess),
            "mock-adb" => Some(DeviceBackend::MockAdb),
            _ => None,
        }
    }
}

impl std::fmt::Display for DeviceBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the driver needs to know about the foreground screen, in one
/// owned value — references cannot cross a process boundary, so the
/// trait returns this DTO instead of `&Screen`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreenObservation {
    /// The fragment-level UI signature.
    pub signature: UiSignature,
    /// The foreground activity.
    pub activity: ClassName,
    /// Fragments confirmed through the `FragmentManager`, in container
    /// order.
    pub manager_fragments: Vec<ClassName>,
}

impl ScreenObservation {
    /// Builds the DTO from a live screen.
    pub fn of(screen: &crate::Screen) -> Self {
        ScreenObservation {
            signature: screen.signature(),
            activity: screen.activity.clone(),
            manager_fragments: screen.manager_fragments().map(|(_, f)| f.clone()).collect(),
        }
    }
}

/// The observation/injection surface the driver runs against. Object
/// safe; all observation methods take `&mut self` and return `Result`
/// because a remote backend answers them with requests that can fail.
///
/// A backend is reusable across apps: [`DeviceApi::install_app`] wipes
/// device state and installs a fresh app, which is what lets a device
/// pool hand the same (possibly remote) device to consecutive apps
/// without losing determinism — a fresh install is a fresh simulator.
pub trait DeviceApi: Send {
    /// Wipes device state and installs `app` under `config` — `adb
    /// install` plus the pre-Android-6 permission grant.
    fn install_app(&mut self, app: &AndroidApp, config: DeviceConfig) -> Result<(), DeviceError>;

    /// Launches the app from its launcher activity.
    fn launch(&mut self) -> Result<EventOutcome, DeviceError>;
    /// Force-starts an activity by component name (`am start -n`).
    fn am_start(&mut self, component: &str) -> Result<EventOutcome, DeviceError>;
    /// Clicks the visible widget with resource-ID `id`.
    fn click(&mut self, id: &str) -> Result<EventOutcome, DeviceError>;
    /// Types text into a visible `EditText`.
    fn enter_text(&mut self, id: &str, text: &str) -> Result<(), DeviceError>;
    /// Dismisses a dialog/menu by clicking blank space.
    fn dismiss_overlay(&mut self) -> Result<EventOutcome, DeviceError>;
    /// Presses the hardware back button.
    fn back(&mut self) -> Result<EventOutcome, DeviceError>;
    /// Opens the first closed drawer with a left-edge swipe.
    fn swipe_open_drawer(&mut self) -> Result<EventOutcome, DeviceError>;
    /// Reflectively switches the current activity to `fragment`.
    fn reflect_switch_fragment(&mut self, fragment: &str) -> Result<EventOutcome, DeviceError>;

    /// Performs one scripted operation through the methods above — the
    /// trait-object twin of [`Device::perform`].
    fn perform(&mut self, op: &Op) -> Result<EventOutcome, DeviceError> {
        match op {
            Op::Launch => self.launch(),
            Op::ForceStart(component) => self.am_start(component.as_str()),
            Op::Click(id) => self.click(id),
            Op::EnterText { id, text } => {
                self.enter_text(id, text).map(|()| EventOutcome::NoChange)
            }
            Op::DismissOverlay => self.dismiss_overlay(),
            Op::Back => self.back(),
            Op::SwipeOpenDrawer => self.swipe_open_drawer(),
            Op::ReflectSwitch(fragment) => self.reflect_switch_fragment(fragment.as_str()),
        }
    }

    /// The foreground screen's observation, or `None` if nothing is up.
    fn observe(&mut self) -> Result<Option<ScreenObservation>, DeviceError>;
    /// The fragment-level signature of the foreground screen.
    fn signature(&mut self) -> Result<Option<UiSignature>, DeviceError>;
    /// The widgets currently on screen.
    fn visible_widgets(&mut self) -> Result<Vec<VisibleWidget>, DeviceError>;
    /// Back-stack depth.
    fn stack_depth(&mut self) -> Result<usize, DeviceError>;
    /// Whether the app is currently force-closed.
    fn is_crashed(&mut self) -> Result<bool, DeviceError>;
    /// The UI signature at the moment of the last Force-Close.
    fn crash_site(&mut self) -> Result<Option<UiSignature>, DeviceError>;
    /// Every sensitive-API invocation recorded so far.
    fn invocations(&mut self) -> Result<Vec<ApiInvocation>, DeviceError>;
    /// Fault-log records appended at or after index `from` — the
    /// incremental read a tracing cursor needs without shipping the whole
    /// log every event.
    fn fault_records_since(&mut self, from: usize) -> Result<Vec<FaultRecord>, DeviceError>;
    /// The full fault log.
    fn fault_log(&mut self) -> Result<FaultLog, DeviceError>;
    /// Number of faults injected so far.
    fn faults_injected(&mut self) -> Result<usize, DeviceError>;
    /// The simulated clock, in ticks.
    fn clock(&mut self) -> Result<u64, DeviceError>;
    /// Advances the simulated clock (supervisor retry backoff).
    fn advance_clock(&mut self, ticks: u64) -> Result<(), DeviceError>;
    /// Clears a Force-Close and the back stack without reinstalling.
    fn reset(&mut self) -> Result<(), DeviceError>;
    /// Grants a runtime permission.
    fn grant(&mut self, permission: &str) -> Result<(), DeviceError>;
    /// Revokes a runtime permission.
    fn revoke(&mut self, permission: &str) -> Result<(), DeviceError>;

    /// Liveness probe — the pool's health check before handing out a
    /// lease. In-process backends are trivially alive.
    fn ping(&mut self) -> Result<(), DeviceError>;
    /// Which backend this is (for traces and metrics labels).
    fn backend_name(&self) -> &'static str;
}

/// Applies one device request to a concrete [`Device`] — the shared
/// interpreter behind [`InProcessDevice`], [`MockAdbDevice`], and the
/// subprocess agent, so all three backends act on the simulator through
/// the exact same code path.
pub(crate) mod exec {
    use super::*;

    /// A device must be installed before any other request.
    pub(crate) fn require(device: &mut Option<Device>) -> Result<&mut Device, DeviceError> {
        device.as_mut().ok_or(DeviceError::NoApp)
    }
}

/// The default backend: today's in-process simulator behind the trait.
/// Delegation is verbatim, so a run through this wrapper is
/// byte-identical to a run against the bare [`Device`].
#[derive(Debug, Default)]
pub struct InProcessDevice {
    device: Option<Device>,
}

impl InProcessDevice {
    /// An empty device; [`DeviceApi::install_app`] brings the app up.
    pub fn new() -> Self {
        InProcessDevice { device: None }
    }

    /// Wraps an already-constructed simulator.
    pub fn with_device(device: Device) -> Self {
        InProcessDevice { device: Some(device) }
    }

    fn dev(&mut self) -> Result<&mut Device, DeviceError> {
        exec::require(&mut self.device)
    }
}

impl DeviceApi for InProcessDevice {
    fn install_app(&mut self, app: &AndroidApp, config: DeviceConfig) -> Result<(), DeviceError> {
        self.device = Some(Device::with_config(app.clone(), config));
        Ok(())
    }

    fn launch(&mut self) -> Result<EventOutcome, DeviceError> {
        self.dev()?.launch()
    }
    fn am_start(&mut self, component: &str) -> Result<EventOutcome, DeviceError> {
        self.dev()?.am_start(component)
    }
    fn click(&mut self, id: &str) -> Result<EventOutcome, DeviceError> {
        self.dev()?.click(id)
    }
    fn enter_text(&mut self, id: &str, text: &str) -> Result<(), DeviceError> {
        self.dev()?.enter_text(id, text)
    }
    fn dismiss_overlay(&mut self) -> Result<EventOutcome, DeviceError> {
        self.dev()?.dismiss_overlay()
    }
    fn back(&mut self) -> Result<EventOutcome, DeviceError> {
        self.dev()?.back()
    }
    fn swipe_open_drawer(&mut self) -> Result<EventOutcome, DeviceError> {
        self.dev()?.swipe_open_drawer()
    }
    fn reflect_switch_fragment(&mut self, fragment: &str) -> Result<EventOutcome, DeviceError> {
        self.dev()?.reflect_switch_fragment(fragment)
    }

    fn observe(&mut self) -> Result<Option<ScreenObservation>, DeviceError> {
        Ok(self.dev()?.observe())
    }
    fn signature(&mut self) -> Result<Option<UiSignature>, DeviceError> {
        Ok(self.dev()?.signature())
    }
    fn visible_widgets(&mut self) -> Result<Vec<VisibleWidget>, DeviceError> {
        Ok(self.dev()?.visible_widgets())
    }
    fn stack_depth(&mut self) -> Result<usize, DeviceError> {
        Ok(self.dev()?.stack_depth())
    }
    fn is_crashed(&mut self) -> Result<bool, DeviceError> {
        Ok(self.dev()?.is_crashed())
    }
    fn crash_site(&mut self) -> Result<Option<UiSignature>, DeviceError> {
        Ok(self.dev()?.crash_site().cloned())
    }
    fn invocations(&mut self) -> Result<Vec<ApiInvocation>, DeviceError> {
        Ok(self.dev()?.invocations().cloned().collect())
    }
    fn fault_records_since(&mut self, from: usize) -> Result<Vec<FaultRecord>, DeviceError> {
        let log = self.dev()?.fault_log();
        Ok(log.records.get(from..).unwrap_or_default().to_vec())
    }
    fn fault_log(&mut self) -> Result<FaultLog, DeviceError> {
        Ok(self.dev()?.fault_log().clone())
    }
    fn faults_injected(&mut self) -> Result<usize, DeviceError> {
        Ok(self.dev()?.faults_injected())
    }
    fn clock(&mut self) -> Result<u64, DeviceError> {
        Ok(self.dev()?.clock())
    }
    fn advance_clock(&mut self, ticks: u64) -> Result<(), DeviceError> {
        self.dev()?.advance_clock(ticks);
        Ok(())
    }
    fn reset(&mut self) -> Result<(), DeviceError> {
        self.dev()?.reset();
        Ok(())
    }
    fn grant(&mut self, permission: &str) -> Result<(), DeviceError> {
        self.dev()?.grant(permission);
        Ok(())
    }
    fn revoke(&mut self, permission: &str) -> Result<(), DeviceError> {
        self.dev()?.revoke(permission);
        Ok(())
    }

    fn ping(&mut self) -> Result<(), DeviceError> {
        Ok(())
    }
    fn backend_name(&self) -> &'static str {
        "in-process"
    }
}

/// The in-process simulator plus a log of the `adb` command each request
/// would have been on a real phone. Behavior (and therefore every
/// report) is byte-identical to [`InProcessDevice`]; the recorded stream
/// is what keeps the trait honest — anything the driver needs that has
/// no `adb` spelling would show up here first.
#[derive(Debug, Default)]
pub struct MockAdbDevice {
    inner: InProcessDevice,
    commands: Vec<String>,
}

impl MockAdbDevice {
    /// An empty device with an empty command log.
    pub fn new() -> Self {
        MockAdbDevice::default()
    }

    /// The recorded `adb` command stream since the last install, in
    /// request order.
    pub fn commands(&self) -> &[String] {
        &self.commands
    }

    fn record(&mut self, cmd: String) {
        self.commands.push(cmd);
    }
}

impl DeviceApi for MockAdbDevice {
    /// Starts a fresh command log: a pooled device reused for the next
    /// app behaves like a fresh one.
    fn install_app(&mut self, app: &AndroidApp, config: DeviceConfig) -> Result<(), DeviceError> {
        self.commands.clear();
        self.record(format!("adb install {}.fapk", app.package()));
        self.inner.install_app(app, config)
    }

    fn launch(&mut self) -> Result<EventOutcome, DeviceError> {
        self.record(
            "adb shell am start -a android.intent.action.MAIN -c android.intent.category.LAUNCHER"
                .to_string(),
        );
        self.inner.launch()
    }
    fn am_start(&mut self, component: &str) -> Result<EventOutcome, DeviceError> {
        self.record(format!("adb shell am start -n {component}"));
        self.inner.am_start(component)
    }
    fn click(&mut self, id: &str) -> Result<EventOutcome, DeviceError> {
        self.record(format!("adb shell input tap @{id}"));
        self.inner.click(id)
    }
    fn enter_text(&mut self, id: &str, text: &str) -> Result<(), DeviceError> {
        self.record(format!("adb shell input text @{id} '{text}'"));
        self.inner.enter_text(id, text)
    }
    fn dismiss_overlay(&mut self) -> Result<EventOutcome, DeviceError> {
        self.record("adb shell input tap 0 0".to_string());
        self.inner.dismiss_overlay()
    }
    fn back(&mut self) -> Result<EventOutcome, DeviceError> {
        self.record("adb shell input keyevent KEYCODE_BACK".to_string());
        self.inner.back()
    }
    fn swipe_open_drawer(&mut self) -> Result<EventOutcome, DeviceError> {
        self.record("adb shell input swipe 0 400 300 400".to_string());
        self.inner.swipe_open_drawer()
    }
    fn reflect_switch_fragment(&mut self, fragment: &str) -> Result<EventOutcome, DeviceError> {
        self.record(format!("adb shell am instrument -w -e reflect-fragment {fragment}"));
        self.inner.reflect_switch_fragment(fragment)
    }

    fn observe(&mut self) -> Result<Option<ScreenObservation>, DeviceError> {
        self.inner.observe()
    }
    fn signature(&mut self) -> Result<Option<UiSignature>, DeviceError> {
        self.inner.signature()
    }
    fn visible_widgets(&mut self) -> Result<Vec<VisibleWidget>, DeviceError> {
        self.inner.visible_widgets()
    }
    fn stack_depth(&mut self) -> Result<usize, DeviceError> {
        self.inner.stack_depth()
    }
    fn is_crashed(&mut self) -> Result<bool, DeviceError> {
        self.inner.is_crashed()
    }
    fn crash_site(&mut self) -> Result<Option<UiSignature>, DeviceError> {
        self.inner.crash_site()
    }
    fn invocations(&mut self) -> Result<Vec<ApiInvocation>, DeviceError> {
        self.inner.invocations()
    }
    fn fault_records_since(&mut self, from: usize) -> Result<Vec<FaultRecord>, DeviceError> {
        self.inner.fault_records_since(from)
    }
    fn fault_log(&mut self) -> Result<FaultLog, DeviceError> {
        self.inner.fault_log()
    }
    fn faults_injected(&mut self) -> Result<usize, DeviceError> {
        self.inner.faults_injected()
    }
    fn clock(&mut self) -> Result<u64, DeviceError> {
        self.inner.clock()
    }
    fn advance_clock(&mut self, ticks: u64) -> Result<(), DeviceError> {
        self.inner.advance_clock(ticks)
    }
    fn reset(&mut self) -> Result<(), DeviceError> {
        self.record("adb shell am force-stop".to_string());
        self.inner.reset()
    }
    fn grant(&mut self, permission: &str) -> Result<(), DeviceError> {
        self.record(format!("adb shell pm grant {permission}"));
        self.inner.grant(permission)
    }
    fn revoke(&mut self, permission: &str) -> Result<(), DeviceError> {
        self.record(format!("adb shell pm revoke {permission}"));
        self.inner.revoke(permission)
    }

    fn ping(&mut self) -> Result<(), DeviceError> {
        self.inner.ping()
    }
    fn backend_name(&self) -> &'static str {
        "mock-adb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_roundtrip() {
        for b in [DeviceBackend::InProcess, DeviceBackend::Subprocess, DeviceBackend::MockAdb] {
            assert_eq!(DeviceBackend::parse(b.name()), Some(b));
        }
        assert_eq!(DeviceBackend::parse("emulator"), None);
        assert_eq!(DeviceBackend::default(), DeviceBackend::InProcess);
    }

    #[test]
    fn uninstalled_backend_refuses_requests() {
        let mut d = InProcessDevice::new();
        assert_eq!(d.launch().unwrap_err(), DeviceError::NoApp);
        assert_eq!(d.clock().unwrap_err(), DeviceError::NoApp);
        assert!(d.ping().is_ok(), "liveness is about the backend, not the app");
    }

    #[test]
    fn mock_adb_records_the_command_stream() {
        let gen = fd_appgen::templates::quickstart();
        let mut app = gen.app.clone();
        app.manifest.add_main_action_everywhere();
        let mut mock = MockAdbDevice::new();
        mock.install_app(&app, DeviceConfig::default()).unwrap();
        mock.launch().unwrap();
        let _ = mock.back();
        let cmds = mock.commands();
        assert!(cmds[0].starts_with("adb install"));
        assert!(cmds.iter().any(|c| c.contains("am start")));
        assert!(cmds.iter().any(|c| c.contains("KEYCODE_BACK")));
    }

    #[test]
    fn mock_adb_starts_a_fresh_log_per_install() {
        let mut first = fd_appgen::templates::quickstart().app;
        first.manifest.add_main_action_everywhere();
        let mut second = fd_appgen::templates::tabbed_categories().app;
        second.manifest.add_main_action_everywhere();
        let mut mock = MockAdbDevice::new();
        mock.install_app(&first, DeviceConfig::default()).unwrap();
        mock.launch().unwrap();
        mock.install_app(&second, DeviceConfig::default()).unwrap();
        assert_eq!(mock.commands(), [format!("adb install {}.fapk", second.package())]);
    }

    #[test]
    fn in_process_and_mock_adb_observe_identically() {
        let gen = fd_appgen::templates::quickstart();
        let mut app = gen.app.clone();
        app.manifest.add_main_action_everywhere();
        let mut a = InProcessDevice::new();
        let mut b = MockAdbDevice::new();
        a.install_app(&app, DeviceConfig::default()).unwrap();
        b.install_app(&app, DeviceConfig::default()).unwrap();
        assert_eq!(a.launch().unwrap(), b.launch().unwrap());
        assert_eq!(a.observe().unwrap(), b.observe().unwrap());
        assert_eq!(a.visible_widgets().unwrap(), b.visible_widgets().unwrap());
        assert_eq!(a.stack_depth().unwrap(), b.stack_depth().unwrap());
    }
}
