//! Device-level errors.

use fd_smali::ClassName;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An error produced by a device backend — either the simulated device
/// itself, or (for the subprocess backend) the machinery that talks to
/// it. Serializable so a device agent can return it over the wire.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceError {
    /// No app is installed.
    NoApp,
    /// The intent did not resolve to any activity.
    Unresolved(String),
    /// `am start -n` was used on an activity whose manifest entry has no
    /// MAIN action (FragDroid's manifest rewrite has not been applied, or
    /// the component does not exist).
    NotForceStartable(ClassName),
    /// The app force-closed. The device stays in the crashed state until
    /// [`crate::Device::reset`] (or a fresh launch).
    Crashed {
        /// The exception message.
        reason: String,
    },
    /// Event delivery was delayed past the ANR threshold (an injected
    /// [`crate::faults::FaultKind::AnrDelay`]); the event never reached
    /// the app. Transient: a retry may go through.
    Anr {
        /// How long the event was delayed, in simulated clock ticks.
        ticks: u64,
    },
    /// `am start`/launch failed transiently (an injected
    /// [`crate::faults::FaultKind::TransientStartFailure`]). Transient:
    /// a retry may go through.
    TransientStart,
    /// An event targeted a widget that is not on screen (or not visible).
    NoSuchWidget(String),
    /// An event targeted a widget that exists but is not clickable.
    NotClickable(String),
    /// Text was entered into a widget that accepts no input.
    NotEditable(String),
    /// The device is in a crashed state and cannot accept events.
    NotRunning,
    /// Reflection could not switch to the fragment. The payload explains
    /// why (no `FragmentManager` in the activity, constructor needs
    /// parameters, unknown class, …).
    ReflectionFailed {
        /// The fragment that was targeted.
        fragment: ClassName,
        /// Why the switch failed.
        why: ReflectError,
    },
    /// The activity back stack overflowed (a start-activity cycle in the
    /// app's `onCreate` chain).
    StackOverflow,
    /// The device agent process died (exited, was killed, or closed its
    /// pipe) before or while answering a request. Infrastructure: the
    /// app is not to blame and the run should move to a fresh device.
    AgentDied {
        /// What the transport observed (exit status, pipe error, …).
        detail: String,
    },
    /// The device agent did not answer a request within the per-request
    /// timeout — a wedged pipe or a hung agent. Infrastructure.
    AgentTimeout {
        /// The timeout that elapsed, in milliseconds.
        ms: u64,
    },
    /// The agent answered with bytes that do not decode as a protocol
    /// frame, or with a reply of the wrong shape or id. Infrastructure.
    Protocol {
        /// What failed to decode or match.
        detail: String,
    },
}

/// Coarse classification of a [`DeviceError`] — what a recovery
/// supervisor keys its policy on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorClass {
    /// The device hiccuped but the app is fine; a bounded retry with
    /// backoff is worthwhile ([`DeviceError::Anr`],
    /// [`DeviceError::TransientStart`]).
    Transient,
    /// The event targeted a widget that is not there (anymore): the UI
    /// diverged from the script's expectation. Retrying the same event
    /// cannot help; the test case should move on
    /// ([`DeviceError::NoSuchWidget`], [`DeviceError::NotClickable`],
    /// [`DeviceError::NotEditable`]).
    WidgetGone,
    /// Everything else: the app is crashed, not running, or the request
    /// itself is unsatisfiable. Retrying verbatim is pointless.
    Fatal,
    /// The device *backend* failed, not the app: the agent process died,
    /// timed out, or spoke garbage ([`DeviceError::AgentDied`],
    /// [`DeviceError::AgentTimeout`], [`DeviceError::Protocol`]). The run
    /// must be abandoned and the app retried on a fresh device lease —
    /// and the failure must never be attributed to the app as a crash.
    Infrastructure,
}

impl DeviceError {
    /// Classifies this error for retry/recovery decisions.
    pub fn class(&self) -> ErrorClass {
        match self {
            DeviceError::Anr { .. } | DeviceError::TransientStart => ErrorClass::Transient,
            DeviceError::NoSuchWidget(_)
            | DeviceError::NotClickable(_)
            | DeviceError::NotEditable(_) => ErrorClass::WidgetGone,
            DeviceError::AgentDied { .. }
            | DeviceError::AgentTimeout { .. }
            | DeviceError::Protocol { .. } => ErrorClass::Infrastructure,
            _ => ErrorClass::Fatal,
        }
    }
}

/// Why a reflective fragment switch failed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReflectError {
    /// The host activity never obtains a `FragmentManager`, so there is
    /// nothing to reflect on — the *dubsmash* case: "several Fragments
    /// \[are\] instantiated or loaded directly without using
    /// FragmentManager. In this scenario, FragDroid cannot determine
    /// whether the Fragment is a real loading."
    NoFragmentManager,
    /// The fragment's only constructors take parameters the reflection
    /// mechanism cannot supply — the *zara* case: "failed due to the
    /// missing parameters transmitted in the reflection mechanism."
    MissingCtorParameters,
    /// The class does not exist in the app.
    UnknownClass,
    /// The class exists but is not a fragment.
    NotAFragment,
    /// The class is abstract and cannot be instantiated.
    AbstractClass,
    /// No fragment container exists in the current activity's layout.
    NoContainer,
}

impl fmt::Display for ReflectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReflectError::NoFragmentManager => {
                write!(f, "host activity has no FragmentManager")
            }
            ReflectError::MissingCtorParameters => {
                write!(f, "fragment constructor requires parameters")
            }
            ReflectError::UnknownClass => write!(f, "class not found"),
            ReflectError::NotAFragment => write!(f, "class is not a Fragment"),
            ReflectError::AbstractClass => write!(f, "class is abstract"),
            ReflectError::NoContainer => write!(f, "no fragment container in current layout"),
        }
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::NoApp => write!(f, "no app installed"),
            DeviceError::Unresolved(what) => write!(f, "intent did not resolve: {what}"),
            DeviceError::NotForceStartable(c) => {
                write!(f, "{c} has no MAIN action; cannot `am start -n` it")
            }
            DeviceError::Crashed { reason } => write!(f, "app force-closed: {reason}"),
            DeviceError::NoSuchWidget(id) => write!(f, "no visible widget with id '{id}'"),
            DeviceError::NotClickable(id) => write!(f, "widget '{id}' is not clickable"),
            DeviceError::NotEditable(id) => write!(f, "widget '{id}' accepts no text input"),
            DeviceError::NotRunning => write!(f, "device is not running an activity"),
            DeviceError::ReflectionFailed { fragment, why } => {
                write!(f, "reflective switch to {fragment} failed: {why}")
            }
            DeviceError::StackOverflow => write!(f, "activity back stack overflow"),
            DeviceError::Anr { ticks } => {
                write!(f, "ANR: event delivery delayed {ticks} ticks past the input deadline")
            }
            DeviceError::TransientStart => {
                write!(f, "am start failed transiently (activity manager timeout)")
            }
            DeviceError::AgentDied { detail } => write!(f, "device agent died: {detail}"),
            DeviceError::AgentTimeout { ms } => {
                write!(f, "device agent did not answer within {ms} ms")
            }
            DeviceError::Protocol { detail } => write!(f, "device protocol error: {detail}"),
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_the_subject() {
        let e = DeviceError::ReflectionFailed {
            fragment: "a.F".into(),
            why: ReflectError::MissingCtorParameters,
        };
        let s = e.to_string();
        assert!(s.contains("a.F") && s.contains("parameters"));
        assert!(DeviceError::NoSuchWidget("go".into()).to_string().contains("go"));
    }

    #[test]
    fn classification_covers_the_three_buckets() {
        assert_eq!(DeviceError::Anr { ticks: 5_500 }.class(), ErrorClass::Transient);
        assert_eq!(DeviceError::TransientStart.class(), ErrorClass::Transient);
        assert_eq!(DeviceError::NoSuchWidget("x".into()).class(), ErrorClass::WidgetGone);
        assert_eq!(DeviceError::NotClickable("x".into()).class(), ErrorClass::WidgetGone);
        assert_eq!(DeviceError::NotEditable("x".into()).class(), ErrorClass::WidgetGone);
        assert_eq!(DeviceError::NotRunning.class(), ErrorClass::Fatal);
        assert_eq!(DeviceError::Crashed { reason: "e".into() }.class(), ErrorClass::Fatal);
        assert_eq!(DeviceError::StackOverflow.class(), ErrorClass::Fatal);
    }

    #[test]
    fn infrastructure_errors_are_their_own_class() {
        assert_eq!(
            DeviceError::AgentDied { detail: "exit 137".into() }.class(),
            ErrorClass::Infrastructure
        );
        assert_eq!(DeviceError::AgentTimeout { ms: 500 }.class(), ErrorClass::Infrastructure);
        assert_eq!(
            DeviceError::Protocol { detail: "bad frame".into() }.class(),
            ErrorClass::Infrastructure
        );
    }

    #[test]
    fn device_errors_roundtrip_through_json() {
        let errors = vec![
            DeviceError::Anr { ticks: 5_500 },
            DeviceError::NoSuchWidget("go".into()),
            DeviceError::ReflectionFailed {
                fragment: "a.F".into(),
                why: ReflectError::NoContainer,
            },
            DeviceError::AgentDied { detail: "pipe closed".into() },
            DeviceError::AgentTimeout { ms: 250 },
            DeviceError::Protocol { detail: "id mismatch".into() },
        ];
        for e in errors {
            let json = serde_json::to_string(&e).expect("serializes");
            let back: DeviceError = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, e);
        }
    }
}
