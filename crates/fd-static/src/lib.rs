//! FragDroid's *Static Information Extraction* phase (paper §IV–§V).
//!
//! Given a decompiled app this crate produces everything the dynamic phase
//! needs:
//!
//! * [`index`] — the per-app code index every pass below reads: one walk
//!   over each activity's and fragment's class and inner classes;
//! * [`effective`] — the effective (non-isolated, interaction-capable)
//!   activities and fragments (§IV-B2);
//! * [`aftm_init`] — Algorithm 1: the initial Activity & Fragment
//!   Transition Model from intent-construction and fragment-instantiation
//!   statement patterns;
//! * [`dependency`] — Algorithm 2: which fragments each activity depends
//!   on, through used-class and inheritance-chain analysis;
//! * [`resource_dep`] — Algorithm 3: which activity or fragment owns each
//!   widget resource-ID (how the UI-driving module identifies the current
//!   fragment-level state);
//! * [`input_dep`] — the input-dependency file: the resource-IDs of all
//!   input widgets, optionally pre-filled with correct values;
//! * [`StaticInfo`] / [`extract`] — the bundle handed to the evolutionary
//!   test-case generation phase, including the MAIN-action manifest
//!   rewrite that enables forced starts.

//! # Example
//!
//! ```
//! let gen = fd_appgen::templates::quickstart();
//! let info = fd_static::extract(&gen.app, &gen.known_inputs);
//! assert_eq!(info.counts(), (3, 2)); // 3 activities, 2 fragments
//! assert!(info.aftm.entry().is_some());
//! ```

pub mod aftm_init;
pub mod dependency;
pub mod effective;
pub mod index;
pub mod input_dep;
pub mod resource_dep;

use fd_aftm::Aftm;
use fd_apk::AndroidApp;
use fd_smali::ClassName;
use index::CodeIndex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

pub use input_dep::InputDependency;
pub use resource_dep::{ResourceDependency, UiOwner};

/// Everything the static phase extracts from one app.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StaticInfo {
    /// The initial AFTM.
    pub aftm: Aftm,
    /// Effective activities (manifest-declared, non-isolated).
    pub activities: BTreeSet<ClassName>,
    /// Effective fragments.
    pub fragments: BTreeSet<ClassName>,
    /// Activity → fragments it depends on (Algorithm 2).
    pub af_dependency: BTreeMap<ClassName, BTreeSet<ClassName>>,
    /// Widget resource-ID → owning activity/fragment (Algorithm 3).
    pub resource_dep: ResourceDependency,
    /// The input-dependency data (§V-C).
    pub input_dep: InputDependency,
}

impl StaticInfo {
    /// Number of (activities, fragments) the static phase found — the
    /// "Sum" columns of Table I.
    pub fn counts(&self) -> (usize, usize) {
        (self.activities.len(), self.fragments.len())
    }
}

/// Runs the whole static phase on a decompiled app.
///
/// `provided_inputs` plays the role of the analyst-filled input file: any
/// input widget listed there gets its correct value.
///
/// As a side effect of the paper's pipeline, the caller usually also wants
/// the manifest rewrite; apply it with
/// [`fd_apk::Manifest::add_main_action_everywhere`] on the app that gets
/// installed.
pub fn extract(app: &AndroidApp, provided_inputs: &BTreeMap<String, String>) -> StaticInfo {
    extract_traced(app, provided_inputs, &fd_trace::Tracer::disabled())
}

/// [`extract`] with tracing: one [`fd_trace::Phase::Static`] span wraps
/// the whole phase, with a [`fd_trace::Phase::StaticPass`] sub-span for
/// building the code index and one per analysis pass. With a disabled tracer this *is* `extract` — same code
/// path, zero records.
pub fn extract_traced(
    app: &AndroidApp,
    provided_inputs: &BTreeMap<String, String>,
    tracer: &fd_trace::Tracer,
) -> StaticInfo {
    use fd_trace::Phase;
    let _extract = tracer.span(Phase::Static, "static-extract");
    let activities = effective::effective_activities(app);
    let candidates = effective::fragment_candidates(app);
    let index = {
        let _span = tracer.span(Phase::StaticPass, "code-index");
        CodeIndex::build(app, activities.iter().chain(candidates.iter().copied()))
    };
    let fragments = {
        let _span = tracer.span(Phase::StaticPass, "effective-elements");
        effective::effective_fragments(&index, &activities, &candidates)
    };
    let aftm = {
        let _span = tracer.span(Phase::StaticPass, "aftm-init");
        aftm_init::build_aftm(app, &index, &activities, &fragments)
    };
    // Isolated-activity removal: drop activities with no edges at all.
    let activities = {
        let _span = tracer.span(Phase::StaticPass, "drop-isolated");
        effective::drop_isolated(&aftm, &activities, app)
    };
    let af_dependency = {
        let _span = tracer.span(Phase::StaticPass, "af-dependency");
        dependency::af_dependency(&index, &activities, &fragments)
    };
    let resource_dep = {
        let _span = tracer.span(Phase::StaticPass, "resource-dependency");
        resource_dep::resource_dependency(app, &index, &activities, &fragments)
    };
    let input_dep = {
        let _span = tracer.span(Phase::StaticPass, "input-dependency");
        input_dep::collect(app, provided_inputs)
    };
    StaticInfo { aftm, activities, fragments, af_dependency, resource_dep, input_dep }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_appgen::templates;

    #[test]
    fn extract_quickstart_bundle_is_coherent() {
        let gen = templates::quickstart();
        let info = extract(&gen.app, &gen.known_inputs);
        let (a, f) = info.counts();
        assert_eq!(a, 3, "Main, Settings, Account");
        assert_eq!(f, 2, "Home, Stats");
        // The AFTM has the entry set to the launcher.
        assert_eq!(info.aftm.entry().unwrap().as_str(), "com.example.quickstart.Main");
        // Every effective fragment is some activity's dependency.
        let all_deps: BTreeSet<_> = info.af_dependency.values().flatten().cloned().collect();
        for frag in &info.fragments {
            assert!(all_deps.contains(frag), "{frag} not in any dependency");
        }
    }
}
