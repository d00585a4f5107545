//! UI state signatures and event outcomes.

use fd_smali::{ClassName, ResName};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A fragment-level UI state identity: the activity, the fragments
/// attached per container, the overlay, and drawer state.
///
/// Two screens with the same signature are "the same interface" to
/// FragDroid. Activity-level tools compare only [`UiState::activity`],
/// which is exactly the blindness the paper's Challenge 1 describes.
///
/// A signature is one shared, immutable handle on its [`UiState`]: the
/// device builds it once when an event settles, and every later read
/// (the event's `from`, `signature()`, `observe()`, the driver's path
/// and sweep keys) shares that one value. Fields read through `Deref`;
/// equality short-circuits on pointer identity before comparing parts.
/// It serializes exactly as the plain struct it wraps.
#[derive(Clone, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct UiSignature(Arc<UiState>);

/// The parts of a [`UiSignature`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UiState {
    /// The foreground activity.
    pub activity: ClassName,
    /// `(container id, fragment class)` pairs currently attached.
    pub fragments: BTreeMap<ResName, ClassName>,
    /// A tag for the modal overlay, if any.
    pub overlay: Option<String>,
    /// Open drawer ids.
    pub open_drawers: BTreeSet<ResName>,
}

impl UiSignature {
    /// Seals `state` into a shared signature.
    pub fn new(state: UiState) -> Self {
        UiSignature(Arc::new(state))
    }

    /// The activity-level projection of this state — what a traditional
    /// tool sees.
    pub fn activity_only(&self) -> &ClassName {
        &self.activity
    }

    /// Whether two signatures differ *only* at the fragment level (same
    /// activity, different fragments/overlay/drawers). These are the
    /// states activity-level tools conflate.
    pub fn fragment_level_change(&self, other: &UiSignature) -> bool {
        self.activity == other.activity && self != other
    }
}

impl Deref for UiSignature {
    type Target = UiState;

    fn deref(&self) -> &UiState {
        &self.0
    }
}

impl PartialEq for UiSignature {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for UiSignature {}

impl Hash for UiSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for UiSignature {
    /// Prints as the plain struct it wraps, under the signature's name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UiSignature")
            .field("activity", &self.activity)
            .field("fragments", &self.fragments)
            .field("overlay", &self.overlay)
            .field("open_drawers", &self.open_drawers)
            .finish()
    }
}

impl fmt::Display for UiSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.activity)?;
        for (container, fragment) in &self.fragments {
            write!(f, " [{container}:{fragment}]")?;
        }
        if let Some(overlay) = &self.overlay {
            write!(f, " +{overlay}")?;
        }
        for drawer in &self.open_drawers {
            write!(f, " |{drawer}")?;
        }
        Ok(())
    }
}

/// What a single injected event did to the UI — the classification behind
/// the paper's Case-3 handling ("if the interface doesn't change … if a
/// dialog box or a menu pops up … if the interface changes … if the app
/// crashes").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventOutcome {
    /// The interface did not change.
    NoChange,
    /// A dialog box or menu popped up (dismissable by clicking blank
    /// space).
    OverlayShown,
    /// The interface changed to a new state (activity switch, fragment
    /// transformation, drawer toggle).
    UiChanged {
        /// The state before the event.
        from: UiSignature,
        /// The state after.
        to: UiSignature,
    },
    /// The foreground activity finished; the previous screen (if any) is
    /// showing.
    Finished,
    /// The app force-closed.
    Crashed {
        /// The exception message.
        reason: String,
    },
}

impl EventOutcome {
    /// Whether the event produced a new, usable UI state.
    pub fn changed_ui(&self) -> bool {
        matches!(self, EventOutcome::UiChanged { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(activity: &str, frag: Option<(&str, &str)>) -> UiState {
        UiState {
            activity: activity.into(),
            fragments: frag
                .into_iter()
                .map(|(c, f)| (ResName::from(c), ClassName::from(f)))
                .collect(),
            overlay: None,
            open_drawers: BTreeSet::new(),
        }
    }

    fn sig(activity: &str, frag: Option<(&str, &str)>) -> UiSignature {
        UiSignature::new(state(activity, frag))
    }

    #[test]
    fn fragment_level_change_detection() {
        let a = sig("app.Main", Some(("content", "app.F0")));
        let b = sig("app.Main", Some(("content", "app.F1")));
        let c = sig("app.Other", Some(("content", "app.F0")));
        assert!(a.fragment_level_change(&b));
        assert!(!a.fragment_level_change(&a), "identical is not a change");
        assert!(!a.fragment_level_change(&c), "activity change is not fragment-level");
    }

    #[test]
    fn display_contains_components() {
        let mut s = state("app.Main", Some(("content", "app.F0")));
        s.overlay = Some("dialog:x".into());
        s.open_drawers.insert("drawer".into());
        let text = UiSignature::new(s).to_string();
        for needle in ["app.Main", "content:app.F0", "+dialog:x", "|drawer"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn a_signature_serializes_as_its_parts() {
        let mut s = state("app.Main", Some(("content", "app.F0")));
        s.open_drawers.insert("drawer".into());
        let expected = r#"{"activity":"app.Main","fragments":{"content":"app.F0"},"open_drawers":["drawer"],"overlay":null}"#;
        assert_eq!(serde_json::to_string(&s).unwrap(), expected);
        let sig = UiSignature::new(s);
        assert_eq!(serde_json::to_string(&sig).unwrap(), expected);
        assert_eq!(serde_json::from_str::<UiSignature>(expected).unwrap(), sig);
    }

    #[test]
    fn changed_ui_predicate() {
        let a = sig("app.Main", None);
        let b = sig("app.Main", Some(("c", "app.F")));
        assert!(EventOutcome::UiChanged { from: a, to: b }.changed_ui());
        assert!(!EventOutcome::NoChange.changed_ui());
        assert!(!EventOutcome::Crashed { reason: "x".into() }.changed_ui());
    }
}
