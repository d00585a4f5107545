//! Robotium-style test scripts: the executable form of FragDroid's test
//! cases.
//!
//! FragDroid's test-case generation module "transforms the items in the UI
//! queue into executable test cases" — Java programs built on Robotium,
//! packaged with Ant, and run through `am instrument`. Here a test case is
//! a [`TestScript`]: a named sequence of [`Op`]s executed by
//! [`run_script`], which reports the outcome of every step.

use crate::device::Device;
use crate::error::DeviceError;
use crate::outcome::{EventOutcome, UiSignature};
use fd_smali::{ClassName, ResName};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One scripted operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Launch the app from its launcher activity.
    Launch,
    /// `am start -n <component>` — forced start (needs the MAIN-action
    /// manifest rewrite).
    ForceStart(ClassName),
    /// Click the widget with this resource-ID.
    Click(ResName),
    /// Enter text into an `EditText`.
    EnterText {
        /// Target widget resource-ID.
        id: ResName,
        /// The text.
        text: String,
    },
    /// Dismiss a dialog/menu by clicking blank space.
    DismissOverlay,
    /// Hardware back.
    Back,
    /// Left-edge swipe to open a navigation drawer.
    SwipeOpenDrawer,
    /// Reflectively switch the current activity to this fragment.
    ReflectSwitch(ClassName),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Launch => write!(f, "launch"),
            Op::ForceStart(c) => write!(f, "am start -n {c}"),
            Op::Click(id) => write!(f, "click @id/{id}"),
            Op::EnterText { id, text } => write!(f, "type @id/{id} {text:?}"),
            Op::DismissOverlay => write!(f, "dismiss-overlay"),
            Op::Back => write!(f, "back"),
            Op::SwipeOpenDrawer => write!(f, "swipe-open-drawer"),
            Op::ReflectSwitch(c) => write!(f, "reflect-switch {c}"),
        }
    }
}

/// A named operation sequence (one FragDroid test case).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestScript {
    /// Human-readable name, e.g. `reach A(com.example.Settings)`.
    pub name: String,
    /// The operations, executed in order.
    pub ops: Vec<Op>,
}

impl TestScript {
    /// Creates a script.
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> Self {
        TestScript { name: name.into(), ops }
    }
}

/// The result of one executed step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepResult {
    /// The operation executed.
    pub op: Op,
    /// Its outcome, or the device error that rejected it.
    pub result: Result<EventOutcome, DeviceError>,
}

/// The result of running a whole script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptReport {
    /// Per-step results, in order. Execution stops at the first crash, so
    /// this may be shorter than the script.
    pub steps: Vec<StepResult>,
    /// The UI signature after the last executed step.
    pub final_signature: Option<UiSignature>,
    /// Whether the run ended in a Force Close.
    pub crashed: bool,
}

impl ScriptReport {
    /// Whether every step executed without device error or crash.
    pub fn is_clean(&self) -> bool {
        !self.crashed && self.steps.iter().all(|s| s.result.is_ok())
    }
}

impl Device {
    /// Performs one scripted operation. `EnterText` reports
    /// [`EventOutcome::NoChange`] on success (typing does not itself
    /// change the UI state).
    pub fn perform(&mut self, op: &Op) -> Result<EventOutcome, DeviceError> {
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
}

/// Executes `script` on `device`, stopping early if the app force-closes.
pub fn run_script(device: &mut Device, script: &TestScript) -> ScriptReport {
    let mut steps = Vec::with_capacity(script.ops.len());
    for op in &script.ops {
        let result = device.perform(op);
        let crashed = matches!(result, Ok(EventOutcome::Crashed { .. }));
        steps.push(StepResult { op: op.clone(), result });
        if crashed {
            break;
        }
    }
    ScriptReport { final_signature: device.signature(), crashed: device.is_crashed(), steps }
}
