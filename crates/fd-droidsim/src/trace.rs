//! Record & replay — the R&R testing technique of the paper's §I.
//!
//! "Such technique could record the UI events triggered by human testers
//! and translate them to scripts. The scripts can then be executed on
//! other devices to drive the app running through replaying the recorded
//! UI events."
//!
//! [`Recorder`] wraps a device, forwards every event, and logs the
//! operation plus the UI signature it produced. [`replay`] executes the
//! recorded script on a fresh device and verifies each step lands in the
//! recorded state — the divergence check real R&R tools need because of
//! timing; here divergence signals an app or script mismatch.

use crate::device::Device;
use crate::error::DeviceError;
use crate::outcome::{EventOutcome, UiSignature};
use crate::script::{Op, TestScript};
use serde::{Deserialize, Serialize};

/// One recorded step: the operation and the fragment-level state observed
/// after it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStep {
    /// The operation injected.
    pub op: Op,
    /// The state after the operation (`None` = app not running).
    pub after: Option<UiSignature>,
}

/// A recorded session.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// The steps, in order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Converts the trace into a plain replayable script (dropping the
    /// recorded states).
    pub fn to_script(&self, name: impl Into<String>) -> TestScript {
        TestScript::new(name, self.steps.iter().map(|s| s.op.clone()).collect())
    }

    /// Serializes to JSON (the "script file" an R&R tool would save).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Parses the JSON form.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Records a session against a device.
pub struct Recorder {
    device: Device,
    trace: Trace,
}

impl Recorder {
    /// Starts recording on a fresh device.
    pub fn new(device: Device) -> Self {
        Recorder { device, trace: Trace::default() }
    }

    /// The device, for observations between events.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Injects one operation, recording it with the resulting state.
    pub fn step(&mut self, op: Op) -> Result<EventOutcome, DeviceError> {
        let result = self.device.perform(&op);
        if result.is_ok() {
            self.trace.steps.push(TraceStep { op, after: self.device.signature() });
        }
        result
    }

    /// Stops recording and returns the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

/// How a replay ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Every step reproduced its recorded state.
    Faithful,
    /// Step `index` executed but landed in a different state.
    Diverged {
        /// The first diverging step.
        index: usize,
        /// The state the recording expected.
        expected: Option<UiSignature>,
        /// The state the replay produced.
        actual: Option<UiSignature>,
    },
    /// Step `index` was rejected by the device (widget missing, …).
    Rejected {
        /// The failing step.
        index: usize,
        /// The device's error.
        error: DeviceError,
    },
}

/// Replays a trace on a fresh device, checking each step's state.
pub fn replay(device: &mut Device, trace: &Trace) -> ReplayOutcome {
    for (index, step) in trace.steps.iter().enumerate() {
        if let Err(error) = device.perform(&step.op) {
            return ReplayOutcome::Rejected { index, error };
        }
        if device.signature() != step.after {
            return ReplayOutcome::Diverged {
                index,
                expected: step.after.clone(),
                actual: device.signature(),
            };
        }
    }
    ReplayOutcome::Faithful
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::UiState;
    use std::sync::Arc;

    fn device() -> Device {
        // Reuse the fig2 template through a minimal local app is overkill;
        // build on the generated quickstart-like structure via fd-apk
        // primitives instead. For trace tests a tiny two-screen app is
        // enough.
        use fd_apk::{ActivityDecl, AndroidApp, Layout, Manifest, Widget, WidgetKind};
        use fd_smali::{well_known, ClassDef, IntentTarget, MethodDef, ResRef, Stmt};
        let mut app = AndroidApp::new(
            Manifest::new("rr")
                .with_activity(ActivityDecl::new("rr.Main").launcher())
                .with_activity(ActivityDecl::new("rr.Second")),
        );
        app.layouts.insert(
            "m".into(),
            Arc::new(Layout::new(
                "m",
                Widget::new(WidgetKind::Group)
                    .with_child(Widget::new(WidgetKind::Button).with_id("go"))
                    .with_child(Widget::new(WidgetKind::EditText).with_id("note")),
            )),
        );
        app.layouts.insert("s".into(), Arc::new(Layout::new("s", Widget::new(WidgetKind::Group))));
        app.classes.insert(
            ClassDef::new("rr.Main", well_known::ACTIVITY)
                .with_method(
                    MethodDef::new("onCreate")
                        .push(Stmt::SetContentView(ResRef::layout("m")))
                        .push(Stmt::SetOnClick {
                            widget: ResRef::id("go"),
                            handler: "onGo".into(),
                        }),
                )
                .with_method(
                    MethodDef::new("onGo")
                        .push(Stmt::NewIntent(IntentTarget::Class("rr.Second".into())))
                        .push(Stmt::StartActivity { via_host: false }),
                ),
        );
        app.classes.insert(ClassDef::new("rr.Second", well_known::ACTIVITY).with_method(
            MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("s"))),
        ));
        app.finalize_resources();
        Device::new(app)
    }

    fn session() -> Trace {
        let mut rec = Recorder::new(device());
        rec.step(Op::Launch).unwrap();
        rec.step(Op::EnterText { id: "note".into(), text: "hello".into() }).unwrap();
        rec.step(Op::Click("go".into())).unwrap();
        rec.step(Op::Back).unwrap();
        rec.finish()
    }

    #[test]
    fn replay_of_recording_is_faithful() {
        let trace = session();
        assert_eq!(trace.steps.len(), 4);
        let mut fresh = device();
        assert_eq!(replay(&mut fresh, &trace), ReplayOutcome::Faithful);
    }

    #[test]
    fn replay_detects_divergence_when_app_changes() {
        let mut trace = session();
        // Tamper with a recorded state: the replay must notice.
        if let Some(sig) = &mut trace.steps[2].after {
            *sig = UiSignature::new(UiState {
                activity: "rr.Elsewhere".into(),
                ..UiState::clone(sig)
            });
        }
        let mut fresh = device();
        assert!(matches!(replay(&mut fresh, &trace), ReplayOutcome::Diverged { index: 2, .. }));
    }

    #[test]
    fn replay_reports_rejected_steps() {
        let mut trace = session();
        trace.steps[2].op = Op::Click("nonexistent".into());
        let mut fresh = device();
        assert!(matches!(replay(&mut fresh, &trace), ReplayOutcome::Rejected { index: 2, .. }));
    }

    #[test]
    fn trace_json_roundtrip_and_script_conversion() {
        let trace = session();
        let back = Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
        let script = trace.to_script("session");
        assert_eq!(script.ops.len(), 4);
        assert_eq!(script.ops[0], Op::Launch);
    }
}
