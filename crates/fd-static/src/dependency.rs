//! Algorithm 2: Activity & Fragment dependency.
//!
//! For every activity, collect the classes used by the activity and its
//! inner classes; any used class whose inheritance chain reaches
//! `android.app.Fragment` or `android.support.v4.app.Fragment` is a
//! dependency of that activity.

use crate::index::CodeIndex;
use fd_smali::ClassName;
use std::collections::{BTreeMap, BTreeSet};

/// Computes the activity → fragments dependency relation. `index` must
/// cover the activities.
pub fn af_dependency(
    index: &CodeIndex<'_>,
    activities: &BTreeSet<ClassName>,
    fragments: &BTreeSet<ClassName>,
) -> BTreeMap<ClassName, BTreeSet<ClassName>> {
    activities
        .iter()
        .map(|activity| {
            // getInnerClass(a) + getUsedClass: the unit's used classes.
            // The getSuperChain test is already done: every effective
            // fragment's chain reaches a framework fragment class.
            let deps = index
                .unit(activity.as_str())
                .classes
                .iter()
                .filter_map(|used| fragments.get(used.as_str()).cloned())
                .collect();
            (activity.clone(), deps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_apk::{ActivityDecl, AndroidApp, Manifest};
    use fd_smali::{well_known, ClassDef, MethodDef, Stmt};

    #[test]
    fn inner_class_references_count_and_non_fragments_do_not() {
        let mut app = AndroidApp::new(
            Manifest::new("t").with_activity(ActivityDecl::new("t.Main").launcher()),
        );
        app.classes.insert(ClassDef::new("t.Main", well_known::ACTIVITY));
        // The listener inner class references the fragment.
        app.classes.insert(
            ClassDef::new("t.Main$1", well_known::OBJECT).with_method(
                MethodDef::new("onClick")
                    .push(Stmt::NewInstance("t.TabFragment".into()))
                    .push(Stmt::NewInstance("t.Helper".into())),
            ),
        );
        app.classes.insert(ClassDef::new("t.TabFragment", well_known::SUPPORT_FRAGMENT));
        app.classes.insert(ClassDef::new("t.Helper", well_known::OBJECT));

        let activities: BTreeSet<ClassName> = [ClassName::new("t.Main")].into_iter().collect();
        let fragments: BTreeSet<ClassName> =
            [ClassName::new("t.TabFragment")].into_iter().collect();
        let rel = af_dependency(&CodeIndex::build(&app, &activities), &activities, &fragments);
        let deps = &rel[&ClassName::new("t.Main")];
        assert!(deps.contains("t.TabFragment"));
        assert!(!deps.contains("t.Helper"));
    }

    #[test]
    fn derived_fragment_classes_are_dependencies() {
        // BaseFrag ← NewsFrag: referencing the *derived* class makes it a
        // dependency because its chain reaches the framework Fragment.
        let mut app = AndroidApp::new(
            Manifest::new("t").with_activity(ActivityDecl::new("t.Main").launcher()),
        );
        app.classes.insert(ClassDef::new("t.Main", well_known::ACTIVITY).with_method(
            MethodDef::new("onCreate").push(Stmt::NewInstanceStatic("t.NewsFrag".into())),
        ));
        app.classes.insert(ClassDef::new("t.BaseFrag", well_known::FRAGMENT));
        app.classes.insert(ClassDef::new("t.NewsFrag", "t.BaseFrag"));

        let activities: BTreeSet<ClassName> = [ClassName::new("t.Main")].into_iter().collect();
        let fragments: BTreeSet<ClassName> = [ClassName::new("t.NewsFrag")].into_iter().collect();
        let rel = af_dependency(&CodeIndex::build(&app, &activities), &activities, &fragments);
        assert!(rel[&ClassName::new("t.Main")].contains("t.NewsFrag"));
    }

    #[test]
    fn activities_without_fragments_have_empty_dependency() {
        let mut app = AndroidApp::new(
            Manifest::new("t").with_activity(ActivityDecl::new("t.Plain").launcher()),
        );
        app.classes.insert(ClassDef::new("t.Plain", well_known::ACTIVITY));
        let activities: BTreeSet<ClassName> = [ClassName::new("t.Plain")].into_iter().collect();
        let rel =
            af_dependency(&CodeIndex::build(&app, &activities), &activities, &BTreeSet::new());
        assert!(rel[&ClassName::new("t.Plain")].is_empty());
    }
}
