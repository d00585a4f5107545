//! Table I: coverage of Activities and Fragments detection on the 15
//! evaluation apps.

use crate::table;
use fd_appgen::paper_apps;
use fragdroid::suite::SuiteContainer;
use fragdroid::{
    AppOutcome, Coverage, FlakeClass, FlakeSummary, FragDroidConfig, RunReport, Suite,
};
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
    /// here — they land in [`Table1Run::device_incidents`] instead.
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
    /// Flake-triage verdicts, when the table ran with retries.
    pub flake_summary: Option<FlakeSummary>,
    /// Device-infrastructure incidents the pool absorbed while the table
    /// ran — kept apart from the FC column so a dying device agent can
    /// never inflate an app's crash count.
    pub device_incidents: usize,
}

/// Runs FragDroid on all 15 apps through the shared *container* suite —
/// every app is packed to FAPK bytes and decoded back on its worker, so
/// the table exercises the full ingestion frontier. A panicking app is
/// skipped with a warning; a rejected container is quarantined into
/// [`Table1Run::rejected`]. Neither aborts the whole table.
pub fn run_table1_full() -> Table1Run {
    run_table1_with_retries(0)
}

/// [`run_table1_full`] with a flake-triage budget: failed apps
/// (panicked, deadline-limited, or crashing) are re-run `flake_retries`
/// times and classified deterministic vs flaky in
/// [`Table1Run::flake_summary`].
pub fn run_table1_with_retries(flake_retries: usize) -> Table1Run {
    let apps = paper_apps::all_paper_apps();
    let suite: Vec<SuiteContainer> =
        apps.iter().map(|(_, gen)| (fd_apk::pack(&gen.app), gen.known_inputs.clone())).collect();
    let config = FragDroidConfig::default();
    let workers = fragdroid::suite::engine::default_workers(suite.len());
    let (run, _) = Suite { flake_retries, ..Suite::new(&config, workers) }.run(&suite);

    let mut out = Table1Run {
        flake_summary: run.metrics.flake_summary.clone(),
        device_incidents: run.metrics.device_incidents,
        ..Default::default()
    };
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

/// Renders the device-incident appendix: how many infrastructure
/// failures the pool absorbed while the table ran, or the empty string
/// for a clean run. Kept out of the table body because an incident
/// belongs to the harness, not to any app row.
pub fn render_device_incidents(incidents: usize) -> String {
    if incidents == 0 {
        return String::new();
    }
    format!(
        "device incidents: {incidents} infrastructure failures absorbed by the pool \
         (excluded from every FC cell)\n"
    )
}

/// Renders the flake-triage appendix: one line per triaged app, or the
/// empty string when the run had no retries or no failures.
pub fn render_flake_summary(summary: Option<&FlakeSummary>) -> String {
    let Some(summary) = summary else {
        return String::new();
    };
    if summary.apps.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "flake triage ({} retries each): {} deterministic, {} flaky\n",
        summary.retries, summary.deterministic, summary.flaky
    );
    for record in &summary.apps {
        let verdict = match &record.classification {
            FlakeClass::Deterministic => "deterministic".to_string(),
            FlakeClass::Flaky { pass_rate } => {
                format!("flaky ({:.0}% pass rate)", pass_rate * 100.0)
            }
        };
        out.push_str(&format!(
            "  {}: {} — {} ({}/{} retries passed)\n",
            record.package, record.kind, verdict, record.passes, record.attempts
        ));
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

/// Renders the measured table as GitHub-flavored markdown (for reports
/// and EXPERIMENTS.md).
pub fn render_table1_markdown(rows: &[Table1Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.package.clone(),
                format!("{}/{}", r.activities.visited, r.activities.sum),
                format!("{:.2}%", r.activities.rate()),
                format!("{}/{}", r.fragments.visited, r.fragments.sum),
                format!("{:.2}%", r.fragments.rate()),
                format!("{}/{}", r.fragments_in_visited.visited, r.fragments_in_visited.sum),
                format!("{:.2}%", r.fragments_in_visited.rate()),
                r.crashes.to_string(),
                r.recovered.to_string(),
            ]
        })
        .collect();
    table::render_markdown(
        &["Package", "Activities", "Rate", "Fragments", "Rate", "FiVA", "Rate", "FC", "Rec"],
        &body,
    )
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
    fn device_incident_appendix_renders_only_when_nonzero() {
        assert_eq!(render_device_incidents(0), "");
        let rendered = render_device_incidents(3);
        assert!(rendered.contains("3 infrastructure failures"));
        assert!(rendered.contains("excluded from every FC cell"));
    }

    #[test]
    fn all_paper_containers_ingest_cleanly() {
        let run = run_table1_full();
        assert!(run.rejected.is_empty(), "no paper app is quarantined: {:?}", run.rejected);
        assert_eq!(run.rows.len(), 15);
        assert_eq!(run.device_incidents, 0, "in-process devices never fail infrastructure");
        assert_eq!(render_rejections(&run.rejected), "");
        let fake = vec![("com.example".to_string(), "bad magic".to_string())];
        let rendered = render_rejections(&fake);
        assert!(rendered.contains("quarantined inputs (1)"));
        assert!(rendered.contains("com.example: bad magic"));
    }

    #[test]
    fn table1_with_retries_triages_failures() {
        let run = run_table1_with_retries(2);
        assert_eq!(run.rows.len(), 15);
        let summary = run.flake_summary.as_ref().expect("retries produce a summary");
        assert_eq!(summary.retries, 2);
        assert_eq!(summary.deterministic + summary.flaky, summary.apps.len());
        // The triage candidates are exactly the crashing rows, and the
        // simulator is deterministic: every same-seed retry reproduces
        // its crash, so nothing is classified flaky.
        let crashing = run.rows.iter().filter(|(row, _)| row.crashes > 0).count();
        assert_eq!(summary.apps.len(), crashing);
        assert_eq!(summary.flaky, 0, "same-seed simulator reruns cannot flake");
        assert_eq!(summary.deterministic, crashing);
        let rendered = render_flake_summary(run.flake_summary.as_ref());
        if crashing > 0 {
            assert!(rendered.contains("deterministic"));
            assert!(rendered.contains("crashed"));
        } else {
            assert_eq!(rendered, "");
        }
        assert_eq!(render_flake_summary(None), "");
        let synthetic = FlakeSummary {
            retries: 3,
            deterministic: 1,
            flaky: 1,
            apps: vec![
                fragdroid::FlakeRecord {
                    index: 0,
                    package: "com.example.solid".into(),
                    kind: "panicked".into(),
                    attempts: 3,
                    passes: 0,
                    classification: FlakeClass::Deterministic,
                },
                fragdroid::FlakeRecord {
                    index: 4,
                    package: "com.example.heisen".into(),
                    kind: "crashed".into(),
                    attempts: 3,
                    passes: 2,
                    classification: FlakeClass::Flaky { pass_rate: 2.0 / 3.0 },
                },
            ],
        };
        let rendered = render_flake_summary(Some(&synthetic));
        assert!(rendered.contains("1 deterministic, 1 flaky"));
        assert!(rendered.contains("com.example.solid: panicked — deterministic"));
        assert!(rendered.contains("com.example.heisen: crashed — flaky (67% pass rate)"));
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
        let md = render_table1_markdown(&rows);
        assert!(md.starts_with("| Package |"));
        assert_eq!(md.lines().count(), rows.len() + 2);
    }
}
