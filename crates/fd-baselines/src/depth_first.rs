//! An A3E-style depth-first explorer.
//!
//! It "attempts to mimic user interactions to drive execution in a more
//! systematic, albeit slower, way": from the current screen it clicks the
//! first unexplored widget, recurses into whatever appears, and uses the
//! back button to return. Like A3E it is activity-level: exploration
//! state is tracked per activity, so fragment-level states are conflated.

use crate::stats::ExplorationStats;
use crate::UiExplorer;
use fd_apk::AndroidApp;
use fd_droidsim::{Device, EventOutcome};
use fd_smali::{ClassName, ResName};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for the depth-first explorer.
#[derive(Clone, Debug)]
pub struct DepthFirstExplorer {
    /// Event budget.
    pub event_budget: usize,
    /// Maximum recursion depth.
    pub max_depth: usize,
}

impl Default for DepthFirstExplorer {
    fn default() -> Self {
        DepthFirstExplorer { event_budget: 40_000, max_depth: 24 }
    }
}

struct Run {
    device: Device,
    stats: ExplorationStats,
    budget: usize,
    max_depth: usize,
    /// Widgets already clicked, per activity (activity-level state).
    clicked: BTreeMap<ClassName, BTreeSet<ResName>>,
}

impl Run {
    fn dfs(&mut self, depth: usize) {
        if depth >= self.max_depth {
            return;
        }
        loop {
            if self.stats.events >= self.budget {
                return;
            }
            let Some(screen) = self.device.current() else { return };
            let activity = screen.activity.clone();
            if screen.overlay.is_some() {
                self.stats.events += 1;
                let _ = self.device.dismiss_overlay();
                self.stats.observe(&self.device);
                continue;
            }
            let next = screen
                .visible_widgets()
                .into_iter()
                .filter(|w| w.clickable)
                .filter_map(|w| w.id)
                .find(|id| {
                    !self.clicked.get(&activity).map(|set| set.contains(id)).unwrap_or(false)
                });
            let Some(widget) = next else { return };
            self.clicked.entry(activity.clone()).or_default().insert(widget.clone());

            self.stats.events += 1;
            let outcome = self.device.click(&widget);
            self.stats.observe(&self.device);
            match outcome {
                Ok(EventOutcome::UiChanged { from, to }) => {
                    if from.activity != to.activity {
                        // Descend into the new activity, then come back.
                        self.dfs(depth + 1);
                        if self.stats.events >= self.budget {
                            return;
                        }
                        self.stats.events += 1;
                        let _ = self.device.back();
                        self.stats.observe(&self.device);
                    }
                    // Fragment-level change: same activity, keep clicking.
                }
                Ok(EventOutcome::Crashed { .. }) => {
                    self.stats.crashes += 1;
                    self.stats.events += 1;
                    if self.device.launch().is_err() {
                        return;
                    }
                    self.stats.observe(&self.device);
                    if depth > 0 {
                        return; // lost our position in the stack
                    }
                }
                Ok(EventOutcome::OverlayShown) => {
                    self.stats.events += 1;
                    let _ = self.device.dismiss_overlay();
                    self.stats.observe(&self.device);
                }
                Ok(EventOutcome::Finished) => {
                    if self.device.current().is_none() {
                        self.stats.events += 1;
                        if self.device.launch().is_err() {
                            return;
                        }
                        self.stats.observe(&self.device);
                    }
                    if depth > 0 {
                        return;
                    }
                }
                Ok(EventOutcome::NoChange) | Err(_) => {}
            }
        }
    }
}

impl UiExplorer for DepthFirstExplorer {
    fn name(&self) -> &'static str {
        "Depth-First"
    }

    fn explore(
        &self,
        app: &AndroidApp,
        _provided_inputs: &BTreeMap<String, String>,
    ) -> ExplorationStats {
        let mut run = Run {
            device: Device::new(app.clone()),
            stats: ExplorationStats::default(),
            budget: self.event_budget,
            max_depth: self.max_depth,
            clicked: BTreeMap::new(),
        };
        run.stats.events += 1;
        if run.device.launch().is_ok() {
            run.stats.observe(&run.device);
            run.dfs(0);
        }
        run.stats.finish(&run.device);
        run.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_appgen::templates;

    #[test]
    fn dfs_walks_activity_chain() {
        let gen = templates::quickstart();
        let stats = DepthFirstExplorer::default().explore(&gen.app, &gen.known_inputs);
        assert!(stats.visited_activities.contains("com.example.quickstart.Settings"));
        // No input generation at all: the PIN gate is never passed.
        assert!(!stats.visited_activities.contains("com.example.quickstart.Account"));
    }

    #[test]
    fn dfs_clicks_tabs_but_conflates_fragment_states() {
        let gen = templates::tabbed_categories();
        let stats = DepthFirstExplorer::default().explore(&gen.app, &gen.known_inputs);
        // Tabs are visible widgets, so both tab fragments get attached...
        assert!(!stats.visited_fragments.is_empty());
        // ...but exploration stays activity-keyed.
        assert!(stats.visited_activities.contains("fig1.manga.Reader"));
    }
}
