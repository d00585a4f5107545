//! Algorithm 1: initial AFTM construction.
//!
//! The algorithm scans every effective activity's decompiled statements for
//! the paper's intent patterns (`new Intent(A0, A1)` / `setClass`,
//! `new Intent(action)` / `setAction` resolved through the manifest) and
//! fragment-instantiation patterns (`new F1()`, `F1.newInstance()`,
//! `instanceof F1`, plus the transaction calls that consume them); then
//! every effective fragment for `F → Fᵢ` edges between co-hosted
//! fragments.

use fd_aftm::{Aftm, RawTransition};
use fd_apk::AndroidApp;
use fd_smali::{visit, ClassDef, ClassName, IntentTarget, Stmt};
use std::collections::BTreeSet;

/// Builds the initial AFTM from the decompiled app.
pub fn build_aftm(
    app: &AndroidApp,
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
        for class in app.classes.with_inner_classes(activity.as_str()) {
            scan_activity_class(app, activities, fragments, activity, class, &mut aftm);
        }
    }

    // GetEdgeFtoF — per effective fragment.
    for fragment in fragments {
        let hosts = hosts_of(app, activities, fragment);
        for class in app.classes.with_inner_classes(fragment.as_str()) {
            scan_fragment_class(app, activities, fragments, fragment, &hosts, class, &mut aftm);
        }
    }
    aftm
}

/// The activities whose code (incl. inner classes) states `fragment` —
/// "if F1 ∈ A0" in Algorithm 1.
fn hosts_of(
    app: &AndroidApp,
    activities: &BTreeSet<ClassName>,
    fragment: &ClassName,
) -> BTreeSet<ClassName> {
    activities
        .iter()
        .filter(|a| {
            app.classes
                .with_inner_classes(a.as_str())
                .any(|c| visit::referenced_classes(c).contains(fragment))
        })
        .cloned()
        .collect()
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

fn scan_activity_class(
    app: &AndroidApp,
    activities: &BTreeSet<ClassName>,
    fragments: &BTreeSet<ClassName>,
    activity: &ClassName,
    class: &ClassDef,
    aftm: &mut Aftm,
) {
    visit::walk_class(class, &mut |stmt| {
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
    });
}

fn scan_fragment_class(
    app: &AndroidApp,
    activities: &BTreeSet<ClassName>,
    fragments: &BTreeSet<ClassName>,
    fragment: &ClassName,
    hosts: &BTreeSet<ClassName>,
    class: &ClassDef,
    aftm: &mut Aftm,
) {
    visit::walk_class(class, &mut |stmt| {
        match stmt {
            // A fragment starting an activity: re-rooted at its host.
            Stmt::NewIntent(IntentTarget::Class(target)) | Stmt::SetClass(target) => {
                if activities.contains(target) {
                    for host in hosts {
                        if host != target {
                            aftm.apply(RawTransition::FragmentToActivity {
                                host: host.clone(),
                                fragment: fragment.clone(),
                                to: target.clone(),
                            });
                        }
                    }
                }
            }
            Stmt::NewIntent(IntentTarget::Action(action)) | Stmt::SetAction(action) => {
                if let Some(decl) = app.manifest.resolve_action(action) {
                    if activities.contains(&decl.name) {
                        for host in hosts {
                            if host != &decl.name {
                                aftm.apply(RawTransition::FragmentToActivity {
                                    host: host.clone(),
                                    fragment: fragment.clone(),
                                    to: decl.name.clone(),
                                });
                            }
                        }
                    }
                }
            }
            other => {
                if let Some(f1) = fragment_targets(other) {
                    if fragments.contains(f1) && f1 != fragment {
                        // F0 → F1 only if both belong to one activity.
                        let f1_hosts = hosts_of(app, activities, f1);
                        for host in hosts.intersection(&f1_hosts) {
                            aftm.apply(RawTransition::FragmentToFragment {
                                host: host.clone(),
                                from: fragment.clone(),
                                to: f1.clone(),
                            });
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effective;
    use fd_aftm::{EdgeKind, NodeId};
    use fd_appgen::{templates, ActivitySpec, AppBuilder, FragmentSpec};

    fn model_of(gen: &fd_appgen::GeneratedApp) -> (Aftm, BTreeSet<ClassName>, BTreeSet<ClassName>) {
        let acts = effective::effective_activities(&gen.app);
        let frags = effective::effective_fragments(&gen.app, &acts);
        let aftm = build_aftm(&gen.app, &acts, &frags);
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
