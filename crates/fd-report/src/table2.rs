//! Table II: the sensitive-operations detection matrix.

use crate::table;
use fd_droidsim::{Caller, SENSITIVE_APIS};
use fragdroid::RunReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How an API is invoked within one app.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mark {
    /// Invoked by Activity only (●).
    Activity,
    /// Invoked by Fragment only (◗).
    Fragment,
    /// Invoked by both (⊙).
    Both,
}

impl Mark {
    /// The paper's cell symbol.
    pub fn symbol(self) -> char {
        match self {
            Mark::Activity => '●',
            Mark::Fragment => '◗',
            Mark::Both => '⊙',
        }
    }
}

/// The assembled matrix plus its aggregates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2 {
    /// Column order: package names.
    pub apps: Vec<String>,
    /// Row order: `(group, api)` in catalog order; only APIs with at least
    /// one mark are kept.
    pub cells: BTreeMap<(String, String), BTreeMap<String, Mark>>,
    /// Total invocation relations (counting ⊙ as two, as the paper's 269
    /// "invocations of sensitive APIs").
    pub total_invocations: usize,
    /// Relations whose caller is a fragment.
    pub fragment_invocations: usize,
    /// Relations observable only at the fragment level (◗ cells).
    pub fragment_only_invocations: usize,
}

impl Table2 {
    /// Distinct sensitive APIs detected across all apps.
    pub fn distinct_apis(&self) -> usize {
        self.cells.len()
    }

    /// Fragment-associated share of all invocations.
    pub fn fragment_share(&self) -> f64 {
        self.fragment_invocations as f64 / self.total_invocations.max(1) as f64
    }

    /// The share activity-level tools necessarily miss.
    pub fn missed_by_activity_tools(&self) -> f64 {
        self.fragment_only_invocations as f64 / self.total_invocations.max(1) as f64
    }
}

/// Builds the matrix from per-app run reports.
pub fn build_table2(reports: &[(String, RunReport)]) -> Table2 {
    let mut cells: BTreeMap<(String, String), BTreeMap<String, Mark>> = BTreeMap::new();
    let (mut total, mut frag, mut frag_only) = (0usize, 0usize, 0usize);

    for (package, report) in reports {
        // Per app: classify each API by its caller kinds.
        let mut by_api: BTreeMap<(String, String), (bool, bool)> = BTreeMap::new();
        for inv in &report.api_invocations {
            let entry = by_api.entry((inv.group.clone(), inv.name.clone())).or_default();
            match inv.caller {
                Caller::Activity(_) => entry.0 = true,
                Caller::Fragment { .. } => entry.1 = true,
            }
        }
        for (api, (by_activity, by_fragment)) in by_api {
            let mark = match (by_activity, by_fragment) {
                (true, true) => Mark::Both,
                (false, true) => Mark::Fragment,
                (true, false) => Mark::Activity,
                (false, false) => continue,
            };
            match mark {
                Mark::Both => {
                    total += 2;
                    frag += 1;
                }
                Mark::Fragment => {
                    total += 1;
                    frag += 1;
                    frag_only += 1;
                }
                Mark::Activity => total += 1,
            }
            cells.entry(api).or_default().insert(package.clone(), mark);
        }
    }

    Table2 {
        apps: reports.iter().map(|(p, _)| p.clone()).collect(),
        cells,
        total_invocations: total,
        fragment_invocations: frag,
        fragment_only_invocations: frag_only,
    }
}

/// Per-app mark counts: `(package, ● count, ◗ count, ⊙ count)` — the
/// column-density view of Table II.
pub fn per_app_counts(t: &Table2) -> Vec<(String, usize, usize, usize)> {
    t.apps
        .iter()
        .map(|app| {
            let (mut a, mut f, mut b) = (0, 0, 0);
            for marks in t.cells.values() {
                match marks.get(app) {
                    Some(Mark::Activity) => a += 1,
                    Some(Mark::Fragment) => f += 1,
                    Some(Mark::Both) => b += 1,
                    None => {}
                }
            }
            (app.clone(), a, f, b)
        })
        .collect()
}

/// Renders the matrix in catalog order with the paper's symbols, plus the
/// aggregate lines.
pub fn render_table2(t: &Table2) -> String {
    let mut headers: Vec<&str> = vec!["Sensitive API"];
    headers.extend(t.apps.iter().map(String::as_str));
    let mut rows = Vec::new();
    for (group, name) in SENSITIVE_APIS {
        let key = (group.to_string(), name.to_string());
        let Some(marks) = t.cells.get(&key) else { continue };
        let mut row = vec![format!("{group}/{name}")];
        for app in &t.apps {
            row.push(marks.get(app).map(|m| m.symbol().to_string()).unwrap_or_default());
        }
        rows.push(row);
    }
    let mut out = table::render(&headers, &rows);
    out.push_str(&format!(
        "\nDistinct sensitive APIs: {}\nTotal invocations: {}\nFragment-associated: {} ({:.1}%)\nFragment-only (missed by activity-level tools): {} ({:.1}%)\n",
        t.distinct_apis(),
        t.total_invocations,
        t.fragment_invocations,
        t.fragment_share() * 100.0,
        t.fragment_only_invocations,
        t.missed_by_activity_tools() * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::run_table1;

    #[test]
    fn table2_reproduces_paper_aggregates() {
        let reports: Vec<(String, RunReport)> =
            run_table1().into_iter().map(|(row, report)| (row.package, report)).collect();
        let t = build_table2(&reports);

        assert_eq!(t.distinct_apis(), 46, "paper: 46 sensitive APIs found");
        assert_eq!(t.total_invocations, 269, "paper: 269 invocations");
        let share = t.fragment_share();
        assert!((0.47..0.51).contains(&share), "fragment share {share:.3} ≉ 49%");
        assert!(t.missed_by_activity_tools() >= 0.096, "paper: at least 9.6% missed");

        let text = render_table2(&t);
        assert!(text.contains('⊙') && text.contains('●'));
        assert!(text.contains("Total invocations: 269"));
    }

    #[test]
    fn marks_classify_correctly() {
        assert_eq!(Mark::Activity.symbol(), '●');
        assert_eq!(Mark::Fragment.symbol(), '◗');
        assert_eq!(Mark::Both.symbol(), '⊙');
    }
}

#[cfg(test)]
mod per_app_tests {
    use super::*;
    use crate::table1::run_table1;

    #[test]
    fn per_app_counts_sum_to_the_aggregates() {
        let reports: Vec<(String, fragdroid::RunReport)> =
            run_table1().into_iter().map(|(row, report)| (row.package, report)).collect();
        let t = build_table2(&reports);
        let counts = per_app_counts(&t);
        assert_eq!(counts.len(), 15);
        let total: usize = counts.iter().map(|(_, a, f, b)| a + f + 2 * b).sum();
        assert_eq!(total, t.total_invocations);
        let frag: usize = counts.iter().map(|(_, _, f, b)| f + b).sum();
        assert_eq!(frag, t.fragment_invocations);
        // dubsmash's column is nearly empty (its fragments are invisible).
        let dub = counts.iter().find(|(p, ..)| p.contains("dubsmash")).unwrap();
        assert_eq!((dub.2, dub.3), (0, 0), "no fragment marks for dubsmash");
    }
}

#[cfg(test)]
mod spec_consistency_tests {
    use super::*;
    use crate::table1::run_table1;

    /// Every app's measured ●/◗/⊙ counts must equal its engineered
    /// api_marks — the placement is fully detected, nothing more.
    #[test]
    fn per_app_counts_match_the_engineered_specs() {
        let reports: Vec<(String, fragdroid::RunReport)> =
            run_table1().into_iter().map(|(row, report)| (row.package, report)).collect();
        let t = build_table2(&reports);
        for (package, a, f, b) in per_app_counts(&t) {
            let spec = fd_appgen::paper_apps::PAPER_APPS
                .iter()
                .find(|s| s.package == package)
                .expect("spec exists");
            assert_eq!((a, f, b), spec.api_marks, "{package}");
        }
    }
}
