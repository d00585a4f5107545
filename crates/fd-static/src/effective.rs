//! Effective activities and fragments (§IV-B2).
//!
//! "Invalid Activities include the Activities involved in intermediate
//! classes as well as isolated Activities." The manifest provides the
//! activity list (which already excludes intermediate classes); isolated
//! activities are removed after the transition edges are known.
//!
//! Fragments are found in two passes: first every class whose inheritance
//! chain reaches a framework Fragment class, then the list is filtered to
//! those actually *stated* (referenced) from an effective activity or
//! another effective fragment.

use crate::index::CodeIndex;
use fd_aftm::{Aftm, NodeId};
use fd_apk::AndroidApp;
use fd_smali::ClassName;
use std::collections::BTreeSet;

/// All manifest-declared activities whose class exists in the pool.
pub fn effective_activities(app: &AndroidApp) -> BTreeSet<ClassName> {
    app.manifest
        .activities
        .iter()
        .filter(|d| app.classes.contains(d.name.as_str()))
        .map(|d| d.name.clone())
        .collect()
}

/// Pass 1+2 of fragment discovery: every class whose inheritance chain
/// reaches a framework fragment class, in name order.
pub fn fragment_candidates(app: &AndroidApp) -> Vec<&ClassName> {
    app.classes
        .subclasses_of_any([fd_smali::well_known::FRAGMENT, fd_smali::well_known::SUPPORT_FRAGMENT])
        .into_iter()
        .map(|c| &c.name)
        .collect()
}

/// The reference filter over the [`fragment_candidates`] (`candidates`,
/// in name order): a fragment is effective if a statement of it appears
/// in an effective activity (or its inner classes), or — transitively —
/// in an already-effective fragment. `index` must cover the activities
/// and the candidates.
pub fn effective_fragments(
    index: &CodeIndex<'_>,
    activities: &BTreeSet<ClassName>,
    candidates: &[&ClassName],
) -> BTreeSet<ClassName> {
    let is_candidate = |c: &ClassName| candidates.binary_search(&c).is_ok();
    let mut effective: BTreeSet<ClassName> = BTreeSet::new();
    let mut frontier: Vec<&str> = activities.iter().map(ClassName::as_str).collect();
    while let Some(class) = frontier.pop() {
        for &referenced in index.unit(class).classes {
            if is_candidate(referenced) && effective.insert(referenced.clone()) {
                frontier.push(referenced.as_str());
            }
        }
    }
    effective
}

/// Removes isolated activities: nodes linked by no edge at all. The
/// launcher is always kept (it is the entry even if the app has a single
/// screen).
pub fn drop_isolated(
    aftm: &Aftm,
    activities: &BTreeSet<ClassName>,
    app: &AndroidApp,
) -> BTreeSet<ClassName> {
    let launcher = app.manifest.launcher_activity().map(|d| d.name.clone());
    activities
        .iter()
        .filter(|&a| {
            if launcher.as_ref() == Some(a) {
                return true;
            }
            let node = NodeId::Activity(a.clone());
            let has_out = aftm.edges_from(&node).next().is_some();
            let has_in = aftm.edges().any(|e| e.to == node);
            has_out || has_in
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_apk::{ActivityDecl, Manifest};
    use fd_smali::{well_known, ClassDef, MethodDef, Stmt};

    fn app() -> AndroidApp {
        let mut app = AndroidApp::new(
            Manifest::new("t")
                .with_activity(ActivityDecl::new("t.Main").launcher())
                .with_activity(ActivityDecl::new("t.Lonely"))
                .with_activity(ActivityDecl::new("t.Ghost")), // no class
        );
        app.classes.insert(
            ClassDef::new("t.Main", well_known::ACTIVITY)
                .with_method(MethodDef::new("onCreate").push(Stmt::NewInstance("t.FragA".into()))),
        );
        app.classes.insert(ClassDef::new("t.Lonely", well_known::ACTIVITY));
        // FragA references FragB; FragC is never referenced.
        app.classes.insert(ClassDef::new("t.FragA", well_known::SUPPORT_FRAGMENT).with_method(
            MethodDef::new("onCreateView").push(Stmt::NewInstanceStatic("t.FragB".into())),
        ));
        app.classes.insert(ClassDef::new("t.FragB", "t.FragA"));
        app.classes.insert(ClassDef::new("t.FragC", well_known::FRAGMENT));
        // A helper that is NOT a fragment.
        app.classes.insert(ClassDef::new("t.Helper", well_known::OBJECT));
        app
    }

    #[test]
    fn activities_require_declared_class() {
        let a = effective_activities(&app());
        assert!(a.contains("t.Main"));
        assert!(a.contains("t.Lonely"));
        assert!(!a.contains("t.Ghost"), "no class → not effective");
    }

    #[test]
    fn fragments_found_transitively_but_only_if_stated() {
        let application = app();
        let acts = effective_activities(&application);
        let candidates = fragment_candidates(&application);
        let index = CodeIndex::build(&application, acts.iter().chain(candidates.iter().copied()));
        let frags = effective_fragments(&index, &acts, &candidates);
        assert!(frags.contains("t.FragA"), "referenced from Main");
        assert!(frags.contains("t.FragB"), "referenced from FragA");
        assert!(!frags.contains("t.FragC"), "never stated anywhere");
        assert!(!frags.contains("t.Helper"), "not a fragment subclass");
    }

    #[test]
    fn isolated_activities_are_dropped_but_launcher_kept() {
        let application = app();
        let acts = effective_activities(&application);
        let mut aftm = Aftm::new();
        aftm.set_entry("t.Main");
        let kept = drop_isolated(&aftm, &acts, &application);
        assert!(kept.contains("t.Main"), "launcher survives even without edges");
        assert!(!kept.contains("t.Lonely"), "isolated activity removed");
    }
}
