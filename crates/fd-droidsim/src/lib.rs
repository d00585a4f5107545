//! A deterministic Android device/runtime simulator.
//!
//! Real FragDroid runs its test cases on a physical phone: it installs an
//! instrumented APK, drives it over ADB, and observes UI states through
//! Robotium. This crate is that phone. It interprets the executable
//! smali-like IR of [`fd_apk::AndroidApp`]s and exposes exactly the
//! observation/injection surface the tool layer needs:
//!
//! * [`Device`] — install an app, start activities (normally or via the
//!   `am start` facade), inject clicks/text/back, observe the current
//!   [`Screen`] (activity, attached fragments, visible widgets, overlays);
//! * [`interp`] — the statement interpreter: intents, activity lifecycle,
//!   `FragmentManager` transaction semantics, dialogs, popup menus,
//!   navigation drawers, Force-Close crashes;
//! * [`ApiMonitor`] — the XPrivacy-style sensitive-API hook that records
//!   every [`ApiInvocation`] together with the Activity or Fragment whose
//!   code made the call (the raw data behind the paper's Table II);
//! * [`Adb`] + [`script`] — the `adb am start` / `am instrument` facade
//!   and the Robotium-style operation scripts test cases compile to;
//! * `reflect`-style forced fragment switching ([`Device::reflect_switch_fragment`]),
//!   with the paper's two failure modes: fragments attached without a
//!   `FragmentManager` (undetectable loading) and fragment constructors
//!   that need parameters (reflection cannot supply them).
//!
//! Determinism: given the same app and the same event sequence, the
//! simulator produces bit-identical traces. All "failure modes" are
//! properties of the app model — or, with a [`faults::FaultPlan`]
//! configured, of a seeded fault injector whose every decision is
//! recorded in a replayable [`faults::FaultLog`].
//!
//! # Example
//!
//! ```
//! use fd_droidsim::Device;
//!
//! let gen = fd_appgen::templates::nav_drawer_wallpapers();
//! let mut device = Device::new(gen.app);
//! device.launch().unwrap();
//! device.click("hamburger_gallery").unwrap();          // open the drawer
//! let out = device.click("menu_favoritesfragment").unwrap();
//! assert!(out.changed_ui());                            // fragment switched
//! assert!(device.invocations().any(|i| i.group == "storage"));
//! ```

pub mod adb;
pub mod agent;
pub mod backend;
pub mod device;
pub mod dump;
pub mod error;
pub mod faults;
pub mod intent;
pub mod interp;
pub mod monitor;
pub mod outcome;
pub mod proto;
pub mod screen;
pub mod script;
pub mod subprocess;
pub mod trace;

pub use adb::Adb;
pub use agent::{serve, AgentOptions};
pub use backend::{DeviceApi, DeviceBackend, InProcessDevice, MockAdbDevice, ScreenObservation};
pub use device::{Device, DeviceConfig};
pub use dump::dump_hierarchy;
pub use error::{DeviceError, ErrorClass};
pub use faults::{FaultConfig, FaultKind, FaultLog, FaultPlan, FaultRecord, FaultSite};
pub use intent::Intent;
pub use monitor::{ApiInvocation, ApiMonitor, Caller, SENSITIVE_APIS};
pub use outcome::{EventOutcome, UiSignature};
pub use screen::{FragmentPane, Overlay, Screen, VisibleWidget};
pub use script::{Op, ScriptReport, TestScript};
pub use subprocess::{AgentTransport, ChildTransport, InMemoryTransport, SubprocessDevice};
pub use trace::{replay, Recorder, ReplayOutcome, Trace, TraceStep};
