//! Table I: coverage of Activities and Fragments detection on the 15
//! evaluation apps.

use crate::table;
use fd_appgen::paper_apps::{self, PaperAppSpec};
use fd_appgen::GeneratedApp;
use fragdroid::suite::SuiteContainer;
use fragdroid::{AppOutcome, Coverage, FragDroidConfig, RunReport, Suite};
use serde::{Deserialize, Serialize};

/// One row of Table I.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1Row {
    /// Package name.
    pub package: String,
    /// Download band lower bound.
    pub downloads: u64,
    /// Activities visited / sum.
    pub activities: Coverage,
    /// Fragments visited / sum.
    pub fragments: Coverage,
    /// Fragments in visited activities.
    pub fragments_in_visited: Coverage,
    /// Force-closes observed during the run. Device-infrastructure
    /// incidents (agent deaths, protocol timeouts) are never counted
    /// here — they land in the suite's `device_incidents` instead.
    #[serde(default)]
    pub crashes: usize,
    /// Crashes the recovery supervisor relaunched and replayed past.
    #[serde(default)]
    pub recovered: usize,
}

/// One paper row: `(package, activities V/S, fragments V/S, FiVA V/S)`.
pub type PaperRow = (&'static str, (usize, usize), (usize, usize), (usize, usize));

/// The paper's reported rows, for paper-vs-measured comparison.
pub const PAPER_TABLE1: &[PaperRow] = &[
    ("au.com.digitalstampede.formula", (1, 2), (2, 2), (1, 1)),
    ("com.adobe.reader", (7, 13), (5, 5), (2, 2)),
    ("com.advancedprocessmanager", (5, 7), (10, 10), (10, 10)),
    ("com.aircrunch.shopalerts", (7, 10), (8, 13), (4, 6)),
    ("com.c51", (28, 35), (2, 3), (2, 3)),
    ("com.cnn.mobile.android.phone", (16, 23), (3, 10), (2, 4)),
    ("com.happy2.bbmanga", (2, 5), (3, 5), (0, 2)),
    ("com.inditex.zara", (7, 9), (7, 15), (2, 10)),
    ("com.mobilemotion.dubsmash", (10, 11), (0, 3), (0, 3)),
    ("com.ovuline.pregnancy", (17, 27), (8, 37), (8, 26)),
    ("com.weather.Weather", (13, 17), (1, 1), (1, 1)),
    ("com.where2get.android.app", (9, 16), (4, 8), (0, 4)),
    ("imoblife.toolbox.full", (14, 14), (8, 9), (4, 5)),
    ("net.aviascanner.aviascanner", (7, 7), (4, 4), (4, 4)),
    ("org.rbc.odb", (4, 5), (5, 8), (2, 3)),
];

/// A full Table I run: the measured rows plus the ingestion accounting —
/// inputs the checked decoder quarantined never become rows, but they
/// are reported instead of silently vanishing.
#[derive(Debug, Default)]
pub struct Table1Run {
    /// Measured rows plus the full reports (the reports feed Table II).
    pub rows: Vec<(Table1Row, RunReport)>,
    /// `(package, reason)` for every quarantined input.
    pub rejected: Vec<(String, String)>,
}

/// The paper apps packed to FAPK bytes, as Table I's suite runs them.
fn table1_containers(apps: &[(&PaperAppSpec, GeneratedApp)]) -> Vec<SuiteContainer> {
    apps.iter().map(|(_, gen)| (fd_apk::pack(&gen.app), gen.known_inputs.clone())).collect()
}

/// Runs FragDroid on all 15 apps through the shared *container* suite —
/// every app is packed to FAPK bytes and decoded back on its worker, so
/// the table exercises the full ingestion frontier. A panicking app is
/// skipped with a warning; a rejected container is quarantined into
/// [`Table1Run::rejected`]. Neither aborts the whole table.
pub fn run_table1_full() -> Table1Run {
    let apps = paper_apps::all_paper_apps();
    let suite = table1_containers(&apps);
    let config = FragDroidConfig::default();
    let workers = fragdroid::suite::engine::default_workers(suite.len());
    let (run, _) = Suite::new(&config, workers).run(&suite);

    let mut out = Table1Run::default();
    for ((spec, _), outcome) in apps.iter().zip(run.outcomes) {
        match outcome {
            AppOutcome::Completed(report) | AppOutcome::DeadlineExceeded(report) => {
                let row = Table1Row {
                    package: spec.package.to_string(),
                    downloads: spec.downloads,
                    activities: report.activity_coverage(),
                    fragments: report.fragment_coverage(),
                    fragments_in_visited: report.fragments_in_visited_coverage(),
                    crashes: report.crashes,
                    recovered: report.recovered_crashes,
                };
                out.rows.push((row, report));
            }
            AppOutcome::Panicked { message } => {
                eprintln!("table1: skipping {} (run panicked: {message})", spec.package);
            }
            AppOutcome::Rejected { reason } => {
                eprintln!("table1: quarantining {} ({reason})", spec.package);
                out.rejected.push((spec.package.to_string(), reason));
            }
        }
    }
    out
}

/// [`run_table1_full`] reduced to the rows, for callers that only build
/// the table.
pub fn run_table1() -> Vec<(Table1Row, RunReport)> {
    run_table1_full().rows
}

/// Renders the quarantine appendix: one line per rejected input, or the
/// empty string when the whole dataset ingested cleanly.
pub fn render_rejections(rejected: &[(String, String)]) -> String {
    if rejected.is_empty() {
        return String::new();
    }
    let mut out = format!("quarantined inputs ({}):\n", rejected.len());
    for (package, reason) in rejected {
        out.push_str(&format!("  {package}: {reason}\n"));
    }
    out
}

/// Per-column averages `(activity %, fragment %, frags-in-visited %)`.
/// An empty table averages to zeros instead of NaN.
pub fn averages(rows: &[Table1Row]) -> (f64, f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.activities.rate()).sum::<f64>() / n,
        rows.iter().map(|r| r.fragments.rate()).sum::<f64>() / n,
        rows.iter().map(|r| r.fragments_in_visited.rate()).sum::<f64>() / n,
    )
}

fn cov_cells(c: &Coverage) -> [String; 3] {
    [c.visited.to_string(), c.sum.to_string(), format!("{:.2}%", c.rate())]
}

/// Renders the measured table in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let headers = [
        "Package Name",
        "Downloads",
        "A:Visited",
        "A:Sum",
        "A:Rate",
        "F:Visited",
        "F:Sum",
        "F:Rate",
        "FiVA:Visited",
        "FiVA:Sum",
        "FiVA:Rate",
        "FC",
        "Rec",
    ];
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![
                r.package.clone(),
                fd_apk::AppMeta { downloads: r.downloads, ..Default::default() }.downloads_band(),
            ];
            cells.extend(cov_cells(&r.activities));
            cells.extend(cov_cells(&r.fragments));
            cells.extend(cov_cells(&r.fragments_in_visited));
            cells.push(r.crashes.to_string());
            cells.push(r.recovered.to_string());
            cells
        })
        .collect();
    let (a, f, v) = averages(rows);
    body.push(vec![
        "AVERAGE".into(),
        String::new(),
        String::new(),
        String::new(),
        format!("{a:.2}%"),
        String::new(),
        String::new(),
        format!("{f:.2}%"),
        String::new(),
        String::new(),
        format!("{v:.2}%"),
        String::new(),
        String::new(),
    ]);
    table::render(&headers, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_cover_all_15_apps() {
        assert_eq!(PAPER_TABLE1.len(), 15);
        assert_eq!(PAPER_TABLE1.len(), paper_apps::PAPER_APPS.len());
        for (pkg, ..) in PAPER_TABLE1 {
            assert!(
                paper_apps::PAPER_APPS.iter().any(|s| s.package == *pkg),
                "{pkg} missing from specs"
            );
        }
    }

    #[test]
    fn paper_average_activity_rate_is_71_94() {
        let avg: f64 =
            PAPER_TABLE1.iter().map(|(_, (v, s), ..)| *v as f64 / *s as f64 * 100.0).sum::<f64>()
                / PAPER_TABLE1.len() as f64;
        assert!((avg - 71.94).abs() < 0.5, "paper activity average ≈ 71.94, got {avg:.2}");
    }

    #[test]
    fn all_paper_containers_ingest_cleanly() {
        let run = run_table1_full();
        assert!(run.rejected.is_empty(), "no paper app is quarantined: {:?}", run.rejected);
        assert_eq!(run.rows.len(), 15);
        assert_eq!(render_rejections(&run.rejected), "");
        let fake = vec![("com.example".to_string(), "bad magic".to_string())];
        let rendered = render_rejections(&fake);
        assert!(rendered.contains("quarantined inputs (1)"));
        assert!(rendered.contains("com.example: bad magic"));
    }

    #[test]
    fn table1_with_retries_triages_failures() {
        // Table I's containers through the suite with a flake-triage
        // budget: failed apps are re-run twice and classified.
        let suite = table1_containers(&paper_apps::all_paper_apps());
        let config = FragDroidConfig::default();
        let workers = fragdroid::suite::engine::default_workers(suite.len());
        let (run, _) = Suite { flake_retries: 2, ..Suite::new(&config, workers) }.run(&suite);
        let reports: Vec<&RunReport> = run.outcomes.iter().filter_map(|o| o.report()).collect();
        assert_eq!(reports.len(), 15);
        assert_eq!(run.metrics.device_incidents, 0, "in-process devices never fail infrastructure");
        let summary = run.metrics.flake_summary.as_ref().expect("retries produce a summary");
        assert_eq!(summary.retries, 2);
        assert_eq!(summary.deterministic + summary.flaky, summary.apps.len());
        // The triage candidates are exactly the crashing apps, and the
        // simulator is deterministic: every same-seed retry reproduces
        // its crash, so nothing is classified flaky.
        let crashing = reports.iter().filter(|report| report.crashes > 0).count();
        assert_eq!(summary.apps.len(), crashing);
        assert_eq!(summary.flaky, 0, "same-seed simulator reruns cannot flake");
        assert_eq!(summary.deterministic, crashing);
    }

    #[test]
    fn measured_table_matches_paper_shape() {
        let rows: Vec<Table1Row> = run_table1().into_iter().map(|(r, _)| r).collect();
        assert_eq!(rows.len(), 15);
        let (a, f, _) = averages(&rows);
        assert!((a - 71.94).abs() < 3.0, "activity avg {a:.2} ≉ 71.94");
        assert!((f - 66.0).abs() < 3.0, "fragment avg {f:.2} ≉ 66");
        // Sums match the paper exactly.
        for row in &rows {
            let paper = PAPER_TABLE1
                .iter()
                .find(|(p, ..)| *p == row.package)
                .expect("every measured row has a paper row");
            assert_eq!(row.activities.sum, paper.1 .1, "{}", row.package);
            assert_eq!(row.fragments.sum, paper.2 .1, "{}", row.package);
        }
        let text = render_table1(&rows);
        assert!(text.contains("com.adobe.reader"));
        assert!(text.contains("AVERAGE"));
    }
}
