//! The activity-level model-based tester — the paper's "traditional
//! approach".
//!
//! It is deliberately a competent tool: it extracts the same static
//! information, fills inputs from the same input-dependency file, and
//! sweeps every reachable screen's widgets. Its one blindness is the
//! paper's Challenge 1: the *activity* is its unit of UI state. A click
//! that only transforms a fragment leaves the tool in "the same state",
//! so the transformed interface is never swept, hidden drawer content is
//! never enumerated, and no reflection or forced starts exist.

use crate::stats::ExplorationStats;
use crate::UiExplorer;
use fd_apk::AndroidApp;
use fd_droidsim::{Device, EventOutcome, Op};
use fd_smali::{ClassName, ResName};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Configuration for the activity-level explorer.
#[derive(Clone, Debug)]
pub struct ActivityExplorer {
    /// Event budget.
    pub event_budget: usize,
}

impl Default for ActivityExplorer {
    fn default() -> Self {
        ActivityExplorer { event_budget: 40_000 }
    }
}

struct Run<'a> {
    device: Device,
    inputs: &'a fd_static::InputDependency,
    stats: ExplorationStats,
    budget: usize,
    /// Activity → ops reaching it.
    paths: BTreeMap<ClassName, Vec<Op>>,
    queue: VecDeque<(ClassName, Vec<Op>)>,
    swept: BTreeSet<ClassName>,
}

impl<'a> Run<'a> {
    fn exec(&mut self, op: &Op) -> Option<EventOutcome> {
        if self.stats.events >= self.budget {
            return None;
        }
        self.stats.events += 1;
        let outcome = self.device.perform(op).ok()?;
        if matches!(outcome, EventOutcome::Crashed { .. }) {
            self.stats.crashes += 1;
        }
        self.stats.observe(&self.device);
        Some(outcome)
    }

    fn discover(&mut self, ops: &[Op]) {
        if let Some(screen) = self.device.current() {
            let activity = screen.activity.clone();
            if !self.paths.contains_key(&activity) {
                self.paths.insert(activity.clone(), ops.to_vec());
                self.queue.push_back((activity, ops.to_vec()));
            }
        }
    }

    fn fill_inputs(&mut self) -> Vec<Op> {
        let fields: Vec<ResName> = self
            .device
            .visible_widgets()
            .into_iter()
            .filter(|w| w.kind == fd_apk::WidgetKind::EditText)
            .filter_map(|w| w.id)
            .collect();
        let mut ops = Vec::new();
        for id in fields {
            let op = Op::EnterText { id: id.clone(), text: self.inputs.value_for(&id).to_string() };
            if self.exec(&op).is_some() {
                ops.push(op);
            }
        }
        ops
    }

    fn ensure_at(&mut self, activity: &ClassName, ops: &[Op]) -> bool {
        if self.device.current().map(|s| &s.activity == activity).unwrap_or(false) {
            return true;
        }
        for op in ops {
            if self.exec(op).is_none() {
                return false;
            }
        }
        self.device.current().map(|s| &s.activity == activity).unwrap_or(false)
    }

    fn sweep(&mut self, activity: ClassName, ops: Vec<Op>) {
        if !self.swept.insert(activity.clone()) {
            return;
        }
        let fills = self.fill_inputs();
        // The widget list is captured ONCE, at activity entry — fragment
        // transformations later in the sweep do not refresh it. This is
        // the activity-as-state blindness.
        let widgets: Vec<ResName> = self
            .device
            .visible_widgets()
            .into_iter()
            .filter(|w| w.clickable)
            .filter_map(|w| w.id)
            .collect();
        for widget in widgets {
            if self.stats.events >= self.budget {
                return;
            }
            if !self.ensure_at(&activity, &ops) {
                return;
            }
            for op in fills.clone() {
                self.exec(&op);
            }
            match self.exec(&Op::Click(widget.clone())) {
                None => return,
                Some(EventOutcome::OverlayShown) => {
                    self.exec(&Op::DismissOverlay);
                }
                Some(EventOutcome::UiChanged { from, to }) => {
                    if from.activity != to.activity {
                        let mut path = ops.clone();
                        path.extend(fills.iter().cloned());
                        path.push(Op::Click(widget));
                        self.discover(&path);
                    }
                    // Same activity → "same state": nothing new to do.
                }
                Some(_) => {}
            }
        }
    }
}

impl UiExplorer for ActivityExplorer {
    fn name(&self) -> &'static str {
        "Activity-MBT"
    }

    fn explore(
        &self,
        app: &AndroidApp,
        provided_inputs: &BTreeMap<String, String>,
    ) -> ExplorationStats {
        let info = fd_static::extract(app, provided_inputs);
        let mut run = Run {
            device: Device::new(app.clone()),
            inputs: &info.input_dep,
            stats: ExplorationStats::default(),
            budget: self.event_budget,
            paths: BTreeMap::new(),
            queue: VecDeque::new(),
            swept: BTreeSet::new(),
        };
        let entry_ops = vec![Op::Launch];
        if run.exec(&Op::Launch).is_some() {
            run.discover(&entry_ops);
        }
        while let Some((activity, ops)) = run.queue.pop_front() {
            if run.stats.events >= run.budget {
                break;
            }
            if !run.ensure_at(&activity, &ops) {
                continue;
            }
            run.sweep(activity, ops);
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
    fn misses_drawer_fragments_fragdroid_finds() {
        let gen = templates::nav_drawer_wallpapers();
        let stats = ActivityExplorer::default().explore(&gen.app, &gen.known_inputs);
        // It sees the initial fragment attach (app code runs) but never
        // reaches the drawer-only FavoritesFragment: opening the drawer
        // does not change the activity, so the revealed menu is never in
        // its widget list.
        assert!(!stats.visited_fragments.contains("fig2.wallpapers.FavoritesFragment"));
    }

    #[test]
    fn still_walks_activity_chains() {
        let gen = templates::quickstart();
        let stats = ActivityExplorer::default().explore(&gen.app, &gen.known_inputs);
        assert!(stats.visited_activities.contains("com.example.quickstart.Settings"));
        // Gate with known input works (it uses the same input file).
        assert!(stats.visited_activities.contains("com.example.quickstart.Account"));
    }
}
