//! A SmartDroid-style targeted explorer.
//!
//! SmartDroid (§IX) "creates an Activity switch path that leads to the
//! sensitive API calls" statically, then dynamically "traverses the view
//! tree … while waiting for each UI element to arise", *blocking* any
//! activity start that leaves the switch path. This baseline does the
//! same on the simulated device: static extraction finds the activities
//! whose code (or whose dependent fragments' code) contains sensitive
//! call sites, the AFTM provides the switch paths, and exploration only
//! follows transitions that stay on some path — going back immediately
//! when a click strays off it.

use crate::stats::ExplorationStats;
use crate::UiExplorer;
use fd_aftm::NodeId;
use fd_apk::AndroidApp;
use fd_droidsim::{Device, EventOutcome};
use fd_smali::{visit, ClassName, ResName, Stmt};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Configuration for the targeted explorer.
#[derive(Clone, Debug)]
pub struct TargetedExplorer {
    /// Event budget.
    pub event_budget: usize,
}

impl Default for TargetedExplorer {
    fn default() -> Self {
        TargetedExplorer { event_budget: 40_000 }
    }
}

impl TargetedExplorer {
    /// The activities that host sensitive call sites: their own classes
    /// (plus inner classes) or any dependent fragment's class contains an
    /// `invoke-api` of a catalog function.
    pub fn target_activities(
        app: &AndroidApp,
        info: &fd_static::StaticInfo,
    ) -> BTreeSet<ClassName> {
        let has_site = |class: &str| {
            app.classes.with_inner_classes(class).any(|c| {
                visit::any_stmt(c, |s| {
                    matches!(s, Stmt::InvokeApi { group, name }
                        if fd_droidsim::monitor::is_sensitive(group, name))
                })
            })
        };
        info.activities
            .iter()
            .filter(|a| {
                has_site(a.as_str())
                    || info
                        .af_dependency
                        .get(*a)
                        .map(|frags| frags.iter().any(|f| has_site(f.as_str())))
                        .unwrap_or(false)
            })
            .cloned()
            .collect()
    }

    /// The activities on any AFTM switch path from the entry to a target.
    fn on_path_activities(
        info: &fd_static::StaticInfo,
        targets: &BTreeSet<ClassName>,
    ) -> BTreeSet<ClassName> {
        let mut on_path = BTreeSet::new();
        for target in targets {
            let node = NodeId::Activity(target.clone());
            if let Some(path) = info.aftm.path_to(&node) {
                if let Some(entry) = info.aftm.entry() {
                    on_path.insert(entry.clone());
                }
                for edge in path {
                    for n in [&edge.from, &edge.to] {
                        if let NodeId::Activity(a) = n {
                            on_path.insert(a.clone());
                        }
                    }
                }
            }
        }
        on_path
    }
}

impl UiExplorer for TargetedExplorer {
    fn name(&self) -> &'static str {
        "Targeted (SmartDroid-style)"
    }

    fn explore(
        &self,
        app: &AndroidApp,
        provided_inputs: &BTreeMap<String, String>,
    ) -> ExplorationStats {
        let info = fd_static::extract(app, provided_inputs);
        let targets = Self::target_activities(app, &info);
        let on_path = Self::on_path_activities(&info, &targets);

        let mut device = Device::new(app.clone());
        let mut stats = ExplorationStats::default();
        let mut swept: BTreeSet<ClassName> = BTreeSet::new();
        let mut queue: VecDeque<ClassName> = VecDeque::new();

        stats.events += 1;
        if device.launch().is_err() {
            return stats;
        }
        stats.observe(&device);
        if let Some(screen) = device.current() {
            queue.push_back(screen.activity.clone());
        }

        // The sweep clicks the current activity's widgets; off-path
        // transitions are "blocked" by immediately backing out.
        while let Some(activity) = queue.pop_front() {
            if stats.events >= self.event_budget {
                break;
            }
            if !swept.insert(activity.clone()) {
                continue;
            }
            // (Re)launch and navigate is overkill for this baseline: the
            // app restarts and the sweep only runs on the entry-reachable
            // frontier, like SmartDroid's per-path traversal.
            if device.current().map(|s| s.activity != activity).unwrap_or(true) {
                stats.events += 1;
                if device.launch().is_err() {
                    break;
                }
                stats.observe(&device);
                if device.current().map(|s| s.activity != activity).unwrap_or(true) {
                    continue; // not directly reachable from entry: skip
                }
            }
            let widgets: Vec<ResName> = device
                .visible_widgets()
                .into_iter()
                .filter(|w| w.clickable)
                .filter_map(|w| w.id)
                .collect();
            for widget in widgets {
                if stats.events >= self.event_budget {
                    break;
                }
                stats.events += 1;
                let outcome = device.click(&widget);
                stats.observe(&device);
                match outcome {
                    Ok(EventOutcome::UiChanged { from, to }) if from.activity != to.activity => {
                        if on_path.contains(to.activity.as_str()) {
                            queue.push_back(to.activity.clone());
                        }
                        // Either way, return to keep sweeping this screen
                        // (the "block the call" behaviour for off-path
                        // starts; on-path ones are revisited from the
                        // queue).
                        stats.events += 1;
                        let _ = device.back();
                        stats.observe(&device);
                    }
                    Ok(EventOutcome::OverlayShown) => {
                        stats.events += 1;
                        let _ = device.dismiss_overlay();
                        stats.observe(&device);
                    }
                    Ok(EventOutcome::Crashed { .. }) => {
                        stats.crashes += 1;
                        stats.events += 1;
                        if device.launch().is_err() {
                            break;
                        }
                        stats.observe(&device);
                    }
                    _ => {}
                }
            }
        }
        stats.finish(&device);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_appgen::{templates, ActivitySpec, AppBuilder, FragmentSpec};

    #[test]
    fn finds_target_activities_including_fragment_sites() {
        let gen = templates::quickstart();
        let info = fd_static::extract(&gen.app, &gen.known_inputs);
        let targets = TargetedExplorer::target_activities(&gen.app, &info);
        // Main calls phone/getDeviceId itself AND hosts fragments with
        // sensitive sites.
        assert!(targets.contains("com.example.quickstart.Main"));
        // Settings has no sensitive site.
        assert!(!targets.contains("com.example.quickstart.Settings"));
    }

    #[test]
    fn stays_on_switch_paths() {
        // Main → Hot (sensitive) and Main → Cold (clean): the targeted
        // explorer must reach Hot; Cold is off-path and only brushed.
        let gen = AppBuilder::new("t.smart")
            .activity(ActivitySpec::new("Main").launcher().button_to("Hot").button_to("Cold"))
            .activity(
                ActivitySpec::new("Hot")
                    .api("location", "getAllProviders")
                    .initial_fragment("Leaky"),
            )
            .activity(ActivitySpec::new("Cold"))
            .fragment(FragmentSpec::new("Leaky").api("phone", "getDeviceId"))
            .build();
        let stats = TargetedExplorer::default().explore(&gen.app, &gen.known_inputs);
        assert!(stats.visited_activities.contains("t.smart.Hot"));
        // The sensitive APIs behind the target fired.
        assert!(stats.api_invocations.iter().any(|i| i.group == "location"));
        assert!(stats.api_invocations.iter().any(|i| i.group == "phone"));
    }
}
