//! Algorithm 3: resource dependency.
//!
//! For every widget declared in a layout, decide which activity or
//! fragment owns it: the class must (a) reference the widget's resource-ID
//! in code and (b) inflate the layout the widget appears in. Activities
//! are checked first, then fragments; widgets not referenced from any code
//! file are non-interaction widgets and are ruled out.

use crate::index::{CodeIndex, Unit};
use fd_apk::AndroidApp;
use fd_smali::{ClassName, ResName, ResRef};
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

/// Computes the resource dependency for the whole app. `index` must
/// cover the activities and the fragments: a unit's ids are its
/// `getAID` / `getFID`, its layouts the ones it inflates.
pub fn resource_dependency(
    app: &AndroidApp,
    index: &CodeIndex<'_>,
    activities: &BTreeSet<ClassName>,
    fragments: &BTreeSet<ClassName>,
) -> ResourceDependency {
    // Activities first, then fragments: the first unit that claims a
    // widget owns it.
    let units: Vec<(UiOwner, Unit<'_, '_>)> = activities
        .iter()
        .map(|a| (UiOwner::Activity(a.clone()), index.unit(a.as_str())))
        .chain(fragments.iter().map(|f| (UiOwner::Fragment(f.clone()), index.unit(f.as_str()))))
        .collect();

    // (layout, unit) for each layout a unit inflates, sorted: each
    // layout's inflaters form one run, in claiming order, and the runs
    // come in the order of `app.layouts`.
    let mut inflated: Vec<(&ResName, usize)> = units
        .iter()
        .enumerate()
        .flat_map(|(i, (_, unit))| unit.layouts.iter().map(move |&layout| (layout, i)))
        .collect();
    inflated.sort_unstable();

    let mut layout_users: Vec<(ResName, BTreeSet<ClassName>)> = Vec::new();
    // Claims in layout and widget order; collecting keeps the last claim
    // of an id that several layouts declare.
    let mut claims: Vec<(ResName, UiOwner)> = Vec::new();
    let mut rest = &inflated[..];
    while let Some(&(name, _)) = rest.first() {
        let (run, tail) = rest.split_at(rest.iter().take_while(|(l, _)| *l == name).count());
        rest = tail;
        let inflaters = || run.iter().map(|&(_, i)| &units[i]);
        layout_users.push((name.clone(), inflaters().map(|(o, _)| o.class().clone()).collect()));
        let Some(layout) = app.layouts.get(name) else { continue };
        for widget in layout.root.iter() {
            let Some(id) = &widget.id else { continue };
            if let Some((owner, _)) = inflaters().find(|(_, unit)| unit.references_id(id)) {
                claims.push((id.clone(), owner.clone()));
            }
            // else: a non-interaction widget not declared in code — ruled out.
        }
    }
    ResourceDependency {
        owners: claims.into_iter().collect(),
        layout_users: layout_users.into_iter().collect(),
    }
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
        let candidates = effective::fragment_candidates(&gen.app);
        let index = CodeIndex::build(&gen.app, acts.iter().chain(candidates.iter().copied()));
        let frags = effective::effective_fragments(&index, &acts, &candidates);
        resource_dependency(&gen.app, &index, &acts, &frags)
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
