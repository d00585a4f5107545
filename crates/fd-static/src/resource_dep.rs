//! Algorithm 3: resource dependency.
//!
//! For every widget declared in a layout, decide which activity or
//! fragment owns it: the class must (a) reference the widget's resource-ID
//! in code and (b) inflate the layout the widget appears in. Activities
//! are checked first, then fragments; widgets not referenced from any code
//! file are non-interaction widgets and are ruled out.

use fd_apk::AndroidApp;
use fd_smali::{visit, ClassName, ResKind, ResName, ResRef, Stmt};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The owner of a widget.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UiOwner {
    /// Owned by an activity's code.
    Activity(ClassName),
    /// Owned by a fragment's code.
    Fragment(ClassName),
}

impl UiOwner {
    /// The owning class, either way.
    pub fn class(&self) -> &ClassName {
        match self {
            UiOwner::Activity(c) | UiOwner::Fragment(c) => c,
        }
    }
}

/// The widget → owner map plus the layout → inflating-classes map — the
/// JSON meta-data file of §III ("a JSON file that records all view
/// components and the locations they appear").
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceDependency {
    /// Widget resource-ID name → owner.
    pub owners: BTreeMap<ResName, UiOwner>,
    /// Layout name → classes that inflate it.
    pub layout_users: BTreeMap<ResName, BTreeSet<ClassName>>,
}

impl ResourceDependency {
    /// The owner of a widget, if known.
    pub fn owner_of(&self, widget_id: &str) -> Option<&UiOwner> {
        self.owners.get(widget_id)
    }

    /// Identifies the fragment-level UI state from a set of visible widget
    /// IDs: the distinct owners seen. This is how the UI-driving module
    /// distinguishes "which Activity or Fragment the current UI belongs
    /// to through source-IDs".
    pub fn identify<'a>(
        &self,
        visible_ids: impl IntoIterator<Item = &'a str>,
    ) -> BTreeSet<&UiOwner> {
        visible_ids.into_iter().filter_map(|id| self.owners.get(id)).collect()
    }
}

/// The resource-IDs a class's code references (`getAID` / `getFID`), and
/// the layouts it inflates.
fn class_refs(app: &AndroidApp, class: &str) -> (BTreeSet<ResName>, BTreeSet<ResName>) {
    let mut ids = BTreeSet::new();
    let mut layouts = BTreeSet::new();
    for c in app.classes.with_inner_classes(class) {
        visit::walk_class(c, &mut |stmt| {
            if let Stmt::SetContentView(r) | Stmt::InflateLayout(r) = stmt {
                layouts.insert(r.name.clone());
            }
            for r in stmt.res_refs() {
                if r.kind == ResKind::Id {
                    ids.insert(r.name.clone());
                }
            }
        });
    }
    (ids, layouts)
}

/// Computes the resource dependency for the whole app.
pub fn resource_dependency(
    app: &AndroidApp,
    activities: &BTreeSet<ClassName>,
    fragments: &BTreeSet<ClassName>,
) -> ResourceDependency {
    let mut dep = ResourceDependency::default();

    let act_refs: Vec<(&ClassName, BTreeSet<ResName>, BTreeSet<ResName>)> = activities
        .iter()
        .map(|a| {
            let (ids, layouts) = class_refs(app, a.as_str());
            (a, ids, layouts)
        })
        .collect();
    let frag_refs: Vec<(&ClassName, BTreeSet<ResName>, BTreeSet<ResName>)> = fragments
        .iter()
        .map(|f| {
            let (ids, layouts) = class_refs(app, f.as_str());
            (f, ids, layouts)
        })
        .collect();

    for (class, _, layouts) in act_refs.iter().chain(&frag_refs) {
        for layout in layouts {
            dep.layout_users.entry(layout.clone()).or_default().insert((*class).clone());
        }
    }

    for layout in app.layouts.values() {
        for widget in layout.root.iter() {
            let Some(id) = &widget.id else { continue };
            // Activities first.
            let found = act_refs
                .iter()
                .find(|(_, ids, layouts)| ids.contains(id) && layouts.contains(&layout.name))
                .map(|(a, ..)| UiOwner::Activity((*a).clone()))
                .or_else(|| {
                    frag_refs
                        .iter()
                        .find(|(_, ids, layouts)| {
                            ids.contains(id) && layouts.contains(&layout.name)
                        })
                        .map(|(f, ..)| UiOwner::Fragment((*f).clone()))
                });
            if let Some(owner) = found {
                dep.owners.insert(id.clone(), owner);
            }
            // else: a non-interaction widget not declared in code — ruled out.
        }
    }
    dep
}

/// Interns every owner's resource-ID through the numeric table, returning
/// `(numeric id, owner)` pairs — the form the paper's JSON file stores.
pub fn numeric_view(app: &AndroidApp, dep: &ResourceDependency) -> Vec<(u32, String, UiOwner)> {
    dep.owners
        .iter()
        .filter_map(|(id, owner)| {
            app.resources
                .id_of(&ResRef::id(id.clone()))
                .map(|num| (num, id.to_string(), owner.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effective;
    use fd_appgen::templates;

    fn dep_of(gen: &fd_appgen::GeneratedApp) -> ResourceDependency {
        let acts = effective::effective_activities(&gen.app);
        let frags = effective::effective_fragments(&gen.app, &acts);
        resource_dependency(&gen.app, &acts, &frags)
    }

    #[test]
    fn widgets_are_attributed_to_their_defining_class() {
        let gen = templates::quickstart();
        let dep = dep_of(&gen);
        let p = "com.example.quickstart";
        // The drawer hamburger is wired in Main's onCreate.
        assert_eq!(
            dep.owner_of("hamburger_main"),
            Some(&UiOwner::Activity(format!("{p}.Main").into()))
        );
        // The fragment's own button belongs to the fragment.
        assert_eq!(
            dep.owner_of("fbtn_homefragment_settings"),
            Some(&UiOwner::Fragment(format!("{p}.HomeFragment").into()))
        );
    }

    #[test]
    fn non_interaction_widgets_are_ruled_out() {
        let gen = templates::quickstart();
        let dep = dep_of(&gen);
        // Filler TextViews have no ID at all; the root Group has an ID but
        // is never referenced from code.
        assert!(dep.owner_of("root_main").is_none());
    }

    #[test]
    fn identify_reports_fragment_level_state() {
        let gen = templates::quickstart();
        let dep = dep_of(&gen);
        let owners = dep.identify(["hamburger_main", "fbtn_homefragment_settings"]);
        assert_eq!(owners.len(), 2);
        assert!(owners.iter().any(|o| matches!(o, UiOwner::Activity(_))));
        assert!(owners.iter().any(|o| matches!(o, UiOwner::Fragment(_))));
    }

    #[test]
    fn numeric_view_round_trips_through_resource_table() {
        let gen = templates::quickstart();
        let dep = dep_of(&gen);
        let rows = numeric_view(&gen.app, &dep);
        assert_eq!(rows.len(), dep.owners.len());
        for (num, name, _) in rows {
            assert_eq!(gen.app.resources.res_of(num).map(|r| r.name.as_str()), Some(name.as_str()));
        }
    }

    #[test]
    fn layout_users_maps_layouts_to_inflaters() {
        let gen = templates::quickstart();
        let dep = dep_of(&gen);
        let users = &dep.layout_users["lay_main"];
        assert!(users.iter().any(|c| c.as_str().ends_with(".Main")));
    }
}
