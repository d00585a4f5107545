//! The input dependency (§V-C).
//!
//! FragDroid "introduces a new input interface which is a file containing
//! resource-IDs of all input widgets … analysts can manually fill the
//! input fields with correct values in advance, then FragDroid will use
//! these values with a preference during tests."

use fd_apk::AndroidApp;
use fd_smali::ResName;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The input-dependency file: every input widget's resource-ID, with the
/// analyst-provided values where known.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputDependency {
    /// Resource-IDs of all input widgets found in the app's layouts.
    pub input_widgets: BTreeSet<ResName>,
    /// Correct values for the subset the analyst filled in.
    pub values: BTreeMap<String, String>,
    /// Candidate inputs harvested from the app's own UI strings — the
    /// §VIII extension: many apps leak usable values (defaults, examples,
    /// onboarding hints) in their layouts.
    #[serde(default)]
    pub harvested: BTreeSet<String>,
}

impl InputDependency {
    /// The value to type into a widget: the provided value, or the
    /// fallback string FragDroid uses for unknown fields.
    pub fn value_for(&self, widget_id: &str) -> &str {
        self.values.get(widget_id).map(String::as_str).unwrap_or("abc")
    }

    /// Whether the analyst provided a value for this widget.
    pub fn is_known(&self, widget_id: &str) -> bool {
        self.values.contains_key(widget_id)
    }

    /// Serializes to the JSON file format.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses the JSON file format.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Scans the app's layouts for input widgets and merges the provided
/// values (keeping only values for widgets that actually exist). Every
/// non-empty display string of the UI is harvested as a candidate input.
pub fn collect(app: &AndroidApp, provided: &BTreeMap<String, String>) -> InputDependency {
    let mut inputs: Vec<&ResName> = Vec::new();
    let mut texts: Vec<&str> = Vec::new();
    for layout in app.layouts.values() {
        for widget in layout.root.iter() {
            if widget.kind.is_input() {
                if let Some(id) = &widget.id {
                    inputs.push(id);
                }
            }
            if !widget.text.is_empty() {
                texts.push(&widget.text);
            }
        }
    }
    // Sorted and deduplicated first, so each set is built in bulk and
    // copies every distinct text once.
    inputs.sort_unstable();
    inputs.dedup();
    texts.sort_unstable();
    texts.dedup();
    let input_widgets: BTreeSet<ResName> = inputs.into_iter().cloned().collect();
    let harvested = texts.into_iter().map(str::to_string).collect();
    let values = provided
        .iter()
        .filter(|(k, _)| input_widgets.contains(k.as_str()))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    InputDependency { input_widgets, values, harvested }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_appgen::templates;

    #[test]
    fn collect_finds_edit_texts_and_filters_values() {
        let gen = templates::quickstart();
        let mut provided = gen.known_inputs.clone();
        provided.insert("nonexistent_widget".into(), "x".into());
        let dep = collect(&gen.app, &provided);
        assert!(dep.input_widgets.contains("input_settings_0"));
        assert!(dep.is_known("input_settings_0"));
        assert!(!dep.values.contains_key("nonexistent_widget"));
    }

    #[test]
    fn unknown_fields_get_the_fallback() {
        let dep = InputDependency::default();
        assert_eq!(dep.value_for("whatever"), "abc");
    }

    #[test]
    fn json_roundtrip() {
        let gen = templates::quickstart();
        let dep = collect(&gen.app, &gen.known_inputs);
        let back = InputDependency::from_json(&dep.to_json().unwrap()).unwrap();
        assert_eq!(back, dep);
    }
}
