//! Algorithm 1: initial AFTM construction.
//!
//! The algorithm scans every effective activity's decompiled statements for
//! the paper's intent patterns (`new Intent(A0, A1)` / `setClass`,
//! `new Intent(action)` / `setAction` resolved through the manifest) and
//! fragment-instantiation patterns (`new F1()`, `F1.newInstance()`,
//! `instanceof F1`, plus the transaction calls that consume them); then
//! every effective fragment for `F → Fᵢ` edges between co-hosted
//! fragments.

use crate::index::CodeIndex;
use fd_aftm::{Aftm, RawTransition};
use fd_apk::AndroidApp;
use fd_smali::{ClassName, IntentTarget, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// Builds the initial AFTM from the decompiled app. `index` must cover
/// the activities and the fragments.
pub fn build_aftm(
    app: &AndroidApp,
    index: &CodeIndex<'_>,
    activities: &BTreeSet<ClassName>,
    fragments: &BTreeSet<ClassName>,
) -> Aftm {
    let mut aftm = Aftm::new();
    if let Some(entry) = app.manifest.launcher_activity() {
        aftm.set_entry(entry.name.clone());
    }

    // GetEdgeAtoA / GetEdgeAtoF — per effective activity (incl. inner
    // classes, which is where javac puts listener bodies).
    for activity in activities {
        for stmt in index.unit(activity.as_str()).stmts {
            scan_activity_stmt(app, activities, fragments, activity, stmt, &mut aftm);
        }
    }

    // GetEdgeFtoF — per effective fragment.
    let hosts = hosts_of(index, activities, fragments);
    let no_hosts = Vec::new();
    for fragment in fragments {
        let scan = FragmentScan {
            app,
            activities,
            fragments,
            hosts: &hosts,
            fragment,
            own_hosts: hosts.get(fragment.as_str()).unwrap_or(&no_hosts),
        };
        for stmt in index.unit(fragment.as_str()).stmts {
            scan.stmt(stmt, &mut aftm);
        }
    }
    aftm
}

/// Each fragment's hosts: the activities whose code (incl. inner
/// classes) states it — "if F1 ∈ A0" in Algorithm 1 — in name order.
fn hosts_of<'s>(
    index: &CodeIndex<'_>,
    activities: &'s BTreeSet<ClassName>,
    fragments: &'s BTreeSet<ClassName>,
) -> BTreeMap<&'s str, Vec<&'s ClassName>> {
    let mut hosts: BTreeMap<&str, Vec<&ClassName>> = BTreeMap::new();
    for activity in activities {
        for used in index.unit(activity.as_str()).classes {
            if let Some(fragment) = fragments.get(used.as_str()) {
                hosts.entry(fragment.as_str()).or_default().push(activity);
            }
        }
    }
    hosts
}

fn fragment_targets(stmt: &Stmt) -> Option<&ClassName> {
    match stmt {
        Stmt::NewInstance(c)
        | Stmt::NewInstanceStatic(c)
        | Stmt::InstanceOf(c)
        | Stmt::TxnAdd { fragment: c, .. }
        | Stmt::TxnReplace { fragment: c, .. }
        | Stmt::AttachDirect { fragment: c, .. } => Some(c),
        _ => None,
    }
}

fn scan_activity_stmt(
    app: &AndroidApp,
    activities: &BTreeSet<ClassName>,
    fragments: &BTreeSet<ClassName>,
    activity: &ClassName,
    stmt: &Stmt,
    aftm: &mut Aftm,
) {
    match stmt {
        // new Intent(Class A0, Class A1) / setClass(..)
        Stmt::NewIntent(IntentTarget::Class(target)) | Stmt::SetClass(target) => {
            if activities.contains(target) && target != activity {
                aftm.apply(RawTransition::ActivityToActivity {
                    from: activity.clone(),
                    to: target.clone(),
                });
            }
        }
        // new Intent(String action) / setAction(..) → manifest lookup
        Stmt::NewIntent(IntentTarget::Action(action)) | Stmt::SetAction(action) => {
            if let Some(decl) = app.manifest.resolve_action(action) {
                if activities.contains(&decl.name) && &decl.name != activity {
                    aftm.apply(RawTransition::ActivityToActivity {
                        from: activity.clone(),
                        to: decl.name.clone(),
                    });
                }
            }
        }
        other => {
            if let Some(f1) = fragment_targets(other) {
                if fragments.contains(f1) {
                    aftm.apply(RawTransition::ActivityToOwnFragment {
                        activity: activity.clone(),
                        fragment: f1.clone(),
                    });
                }
            }
        }
    }
}

/// One effective fragment's scan: what GetEdgeFtoF needs to know about
/// the fragment and the app.
struct FragmentScan<'s> {
    app: &'s AndroidApp,
    activities: &'s BTreeSet<ClassName>,
    fragments: &'s BTreeSet<ClassName>,
    hosts: &'s BTreeMap<&'s str, Vec<&'s ClassName>>,
    fragment: &'s ClassName,
    own_hosts: &'s [&'s ClassName],
}

impl FragmentScan<'_> {
    /// A fragment starting an activity: re-rooted at each host.
    fn to_activity(&self, target: &ClassName, aftm: &mut Aftm) {
        if !self.activities.contains(target) {
            return;
        }
        for &host in self.own_hosts {
            if host != target {
                aftm.apply(RawTransition::FragmentToActivity {
                    host: host.clone(),
                    fragment: self.fragment.clone(),
                    to: target.clone(),
                });
            }
        }
    }

    fn stmt(&self, stmt: &Stmt, aftm: &mut Aftm) {
        match stmt {
            Stmt::NewIntent(IntentTarget::Class(target)) | Stmt::SetClass(target) => {
                self.to_activity(target, aftm);
            }
            Stmt::NewIntent(IntentTarget::Action(action)) | Stmt::SetAction(action) => {
                if let Some(decl) = self.app.manifest.resolve_action(action) {
                    self.to_activity(&decl.name, aftm);
                }
            }
            other => {
                if let Some(f1) = fragment_targets(other) {
                    if self.fragments.contains(f1) && f1 != self.fragment {
                        // F0 → F1 only if both belong to one activity.
                        let Some(f1_hosts) = self.hosts.get(f1.as_str()) else { return };
                        for &host in self.own_hosts {
                            if f1_hosts.binary_search(&host).is_ok() {
                                aftm.apply(RawTransition::FragmentToFragment {
                                    host: host.clone(),
                                    from: self.fragment.clone(),
                                    to: f1.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effective;
    use fd_aftm::{EdgeKind, NodeId};
    use fd_appgen::{templates, ActivitySpec, AppBuilder, FragmentSpec};

    fn model_of(gen: &fd_appgen::GeneratedApp) -> (Aftm, BTreeSet<ClassName>, BTreeSet<ClassName>) {
        let acts = effective::effective_activities(&gen.app);
        let candidates = effective::fragment_candidates(&gen.app);
        let index = CodeIndex::build(&gen.app, acts.iter().chain(candidates.iter().copied()));
        let frags = effective::effective_fragments(&index, &acts, &candidates);
        let aftm = build_aftm(&gen.app, &index, &acts, &frags);
        (aftm, acts, frags)
    }

    #[test]
    fn quickstart_aftm_has_expected_edges() {
        let gen = templates::quickstart();
        let (aftm, ..) = model_of(&gen);
        let p = "com.example.quickstart";

        // A → A: Main → Settings (button), Settings → Account (gate),
        // and Home fragment's link re-rooted at its host: Main → Settings.
        assert!(aftm.edges().any(|e| e.kind == EdgeKind::E1
            && e.from == NodeId::Activity(format!("{p}.Main").into())
            && e.to == NodeId::Activity(format!("{p}.Settings").into())));
        assert!(aftm.edges().any(|e| e.kind == EdgeKind::E1
            && e.from == NodeId::Activity(format!("{p}.Settings").into())
            && e.to == NodeId::Activity(format!("{p}.Account").into())));

        // A → F: Main hosts Home and Stats.
        for frag in ["HomeFragment", "StatsFragment"] {
            assert!(
                aftm.edges().any(|e| e.kind == EdgeKind::E2
                    && e.to == NodeId::Fragment(format!("{p}.{frag}").into())),
                "missing E2 to {frag}"
            );
        }

        // F → F: Home switches to Stats inside Main.
        assert!(aftm.edges().any(|e| e.kind == EdgeKind::E3
            && e.from == NodeId::Fragment(format!("{p}.HomeFragment").into())
            && e.to == NodeId::Fragment(format!("{p}.StatsFragment").into())));
    }

    #[test]
    fn entry_is_launcher() {
        let gen = templates::quickstart();
        let (aftm, ..) = model_of(&gen);
        assert_eq!(aftm.entry().unwrap().as_str(), "com.example.quickstart.Main");
    }

    #[test]
    fn implicit_intent_edge_resolved_through_manifest() {
        let gen = AppBuilder::new("t.act")
            .activity(ActivitySpec::new("Main").launcher().action_link("t.act.OPEN", "Target"))
            .activity(ActivitySpec::new("Target"))
            .build();
        let (aftm, ..) = model_of(&gen);
        assert!(aftm
            .edges()
            .any(|e| e.kind == EdgeKind::E1 && e.to == NodeId::Activity("t.act.Target".into())));
    }

    #[test]
    fn fragment_to_fragment_requires_shared_host() {
        // F0 hosted by Main, F1 hosted only by Other: no E3 edge despite
        // the reference from F0 to F1.
        let gen = AppBuilder::new("t.nohost")
            .activity(
                ActivitySpec::new("Main").launcher().initial_fragment("F0").button_to("Other"),
            )
            .activity(ActivitySpec::new("Other").initial_fragment("F1"))
            .fragment(FragmentSpec::new("F0").switch_to("F1"))
            .fragment(FragmentSpec::new("F1"))
            .build();
        let (aftm, ..) = model_of(&gen);
        let e3: Vec<_> = aftm.edges().filter(|e| e.kind == EdgeKind::E3).collect();
        assert!(e3.is_empty(), "unexpected E3 edges: {e3:?}");
        // F0's reference still surfaces as an E2 (A → F) through Main's
        // dependency? No — F1 is stated only in F0/Other; the A→F edge for
        // F1 comes from Other.
        assert!(aftm.edges().any(|e| e.kind == EdgeKind::E2
            && e.from == NodeId::Activity("t.nohost.Other".into())
            && e.to == NodeId::Fragment("t.nohost.F1".into())));
    }

    #[test]
    fn gated_edges_inside_if_blocks_are_found() {
        // The gate's startActivity sits inside an If arm; Algorithm 1 must
        // still see the transition (flattened statement walk).
        let gen = templates::quickstart();
        let (aftm, ..) = model_of(&gen);
        assert!(aftm
            .edges()
            .any(|e| { e.to == NodeId::Activity("com.example.quickstart.Account".into()) }));
    }

    #[test]
    fn self_loops_are_not_created() {
        let gen = templates::quickstart();
        let (aftm, ..) = model_of(&gen);
        assert!(aftm.edges().all(|e| e.from != e.to));
    }
}
