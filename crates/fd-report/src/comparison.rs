//! Tool comparison: FragDroid vs the §IX baselines on the same apps.

use fd_appgen::GeneratedApp;
use fd_baselines::UiExplorer;
use serde::{Deserialize, Serialize};

/// Aggregated results for one tool over a set of apps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Tool name.
    pub tool: String,
    /// Activities visited, summed over apps.
    pub activities_visited: usize,
    /// Fragments (FragmentManager-confirmed) visited, summed.
    pub fragments_visited: usize,
    /// Sensitive-API relations detected, summed.
    pub api_relations: usize,
    /// Fragment-attributed relations among them.
    pub api_fragment_relations: usize,
    /// Events injected, summed.
    pub events: usize,
}

/// Runs every tool on every app and aggregates.
pub fn compare_tools(apps: &[GeneratedApp], tools: &[&dyn UiExplorer]) -> Vec<ComparisonRow> {
    tools
        .iter()
        .map(|tool| {
            let mut row = ComparisonRow {
                tool: tool.name().to_string(),
                activities_visited: 0,
                fragments_visited: 0,
                api_relations: 0,
                api_fragment_relations: 0,
                events: 0,
            };
            for gen in apps {
                let stats = tool.explore(&gen.app, &gen.known_inputs);
                row.activities_visited += stats.visited_activities.len();
                row.fragments_visited += stats.visited_fragments.len();
                let (total, frag) = stats.api_counts();
                row.api_relations += total;
                row.api_fragment_relations += frag;
                row.events += stats.events;
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_appgen::templates;
    use fd_baselines::{ActivityExplorer, DepthFirstExplorer, FragDroidExplorer, Monkey};

    #[test]
    fn fragdroid_dominates_fragment_coverage() {
        let apps = vec![
            templates::quickstart(),
            templates::nav_drawer_wallpapers(),
            templates::tabbed_categories(),
        ];
        let fragdroid = FragDroidExplorer(fragdroid::FragDroidConfig::default());
        let mbt = ActivityExplorer::default();
        let dfs = DepthFirstExplorer::default();
        let monkey = Monkey::new(7, 1_500);
        let tools: Vec<&dyn UiExplorer> = vec![&fragdroid, &mbt, &dfs, &monkey];
        let rows = compare_tools(&apps, &tools);

        assert_eq!(rows.len(), 4);
        let get = |name: &str| rows.iter().find(|r| r.tool == name).unwrap();
        let fd = get("FragDroid");
        // FragDroid visits at least as many fragments as every baseline,
        // and strictly more than the activity-level MBT (which misses the
        // drawer-only fragment in fig2).
        for other in &rows {
            assert!(
                fd.fragments_visited >= other.fragments_visited,
                "{} beat FragDroid on fragments",
                other.tool
            );
        }
        assert!(fd.fragments_visited > get("Activity-MBT").fragments_visited);
        // FragDroid's API relation detection is a superset in aggregate.
        for other in &rows {
            assert!(fd.api_relations >= other.api_relations, "{}", other.tool);
        }
    }
}
