//! Benchmark harness for the FragDroid reproduction.
//!
//! [`generate`] runs every deterministic experiment of the paper's
//! evaluation once: the §VII-A corpus study, Table I, Table II, the
//! quantified §IX tool comparison, the design-choice ablation, the
//! full-corpus run, the corpus AFTM structure and the event-budget
//! sweep. [`Experiments::markdown`] renders the result as
//! `EXPERIMENTS-generated.md`:
//!
//! ```text
//! cargo run -p fd-bench --release --bin write_experiments            # rewrite the file
//! cargo run -p fd-bench --release --bin write_experiments -- --json  # print it as JSON
//! ```
//!
//! No host-dependent value (wall time, worker count) is recorded, so the
//! file is byte-identical on every machine, and the root test
//! `tests/experiments.rs` fails when the committed copy differs from a
//! fresh [`generate`].
//!
//! The other binaries measure throughput: `bench_ingest` and
//! `bench_corpus_stream` write `BENCH_*.json`, and `bench_compare` gates
//! one such file against a baseline.

use fd_aftm::stats::{stats, AftmStats};
use fd_appgen::{templates, GeneratedApp};
use fd_baselines::{ActivityExplorer, DepthFirstExplorer, FragDroidExplorer, Monkey, UiExplorer};
use fd_report::table::render_markdown;
use fd_report::table1::{averages, run_table1_full, PAPER_TABLE1};
use fd_report::table2::{per_app_counts, render_table2};
use fd_report::{build_table2, compare_tools, corpus_study, ComparisonRow};
use fd_report::{StudyResult, Table1Row, Table2};
use fragdroid::suite::{engine, SuiteApp};
use fragdroid::{Coverage, FragDroidConfig, Suite};
use serde::Serialize;
use std::fmt::Write as _;

/// The committed file [`Experiments::markdown`] is written to, at the
/// workspace root whatever the working directory.
pub const GENERATED_FILE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS-generated.md");

/// The command that rewrites [`GENERATED_FILE`].
pub const REGENERATE: &str = "cargo run -p fd-bench --release --bin write_experiments";

/// The seed of the 217-app corpus every corpus-wide experiment reads.
const CORPUS_SEED: u64 = 1;

/// Monkey's seed, and its per-app event count in the tool comparison.
const MONKEY_SEED: u64 = 7;
const MONKEY_EVENTS: usize = 4_000;

/// The event budgets of the sweep.
const BUDGETS: [usize; 7] = [25, 50, 100, 200, 400, 800, 1_600];

/// Every deterministic experiment's result.
#[derive(Clone, Debug, Serialize)]
pub struct Experiments {
    /// §VII-A: fragment usage over the 217-app corpus.
    pub study: StudyResult,
    /// Table I rows, in paper order.
    pub table1: Vec<Table1Row>,
    /// `(package, reason)` for every Table I container refused at
    /// ingestion.
    pub rejected: Vec<(String, String)>,
    /// Table II, built from the Table I runs.
    pub table2: Table2,
    /// FragDroid vs the §IX baselines over the template apps and the 15
    /// evaluation apps.
    pub comparison: Vec<ComparisonRow>,
    /// FragDroid with design choices disabled, over the ablation suite
    /// and the 15 evaluation apps; `tool` names the variant.
    pub ablation: Vec<ComparisonRow>,
    /// FragDroid over every analyzable corpus app, through the suite
    /// runner.
    pub corpus: CorpusRun,
    /// AFTM structure over the analyzable corpus.
    pub aftm: AftmStructure,
    /// `(event budget, one row per tool)` over the template apps.
    pub budget_sweep: Vec<(usize, Vec<ComparisonRow>)>,
}

/// Corpus-wide coverage of one suite run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CorpusRun {
    /// Apps that went through the runner.
    pub apps: usize,
    /// Apps whose run panicked (isolated, not counted in the sums).
    pub panicked: usize,
    /// Activities visited / found, summed over apps.
    pub activities: Coverage,
    /// Fragments visited / found, summed over apps.
    pub fragments: Coverage,
    /// UI events injected, summed over apps.
    pub events: usize,
}

/// Statically extracted AFTMs, summed over the analyzable corpus.
#[derive(Clone, Debug, Default, Serialize)]
pub struct AftmStructure {
    /// Apps analyzed.
    pub apps: usize,
    /// Every count summed over apps, except `max_fragments_per_activity`,
    /// which is the corpus maximum.
    pub totals: AftmStats,
    /// The mean over apps of each app's fragment share of its nodes.
    pub mean_fragment_share: f64,
}

/// Runs every experiment once.
pub fn generate() -> Experiments {
    let corpus = fd_appgen::corpus::corpus_217(CORPUS_SEED);
    let study = corpus_study(&corpus);
    // Packer-protected apps are excluded from analysis, as in the paper.
    let analyzable: Vec<GeneratedApp> =
        corpus.into_iter().filter(|gen| !gen.app.meta.packed).collect();

    let table1_run = run_table1_full();
    let (table1, reports): (Vec<Table1Row>, Vec<_>) = table1_run
        .rows
        .into_iter()
        .map(|(row, report)| {
            let package = row.package.clone();
            (row, (package, report))
        })
        .unzip();
    let table2 = build_table2(&reports);

    let template_apps = vec![
        templates::quickstart(),
        templates::nav_drawer_wallpapers(),
        templates::tabbed_categories(),
    ];
    let paper_apps: Vec<GeneratedApp> =
        fd_appgen::paper_apps::all_paper_apps().into_iter().map(|(_, gen)| gen).collect();

    let comparison_apps = [template_apps.clone(), paper_apps.clone()].concat();
    let comparison = compare_tools(
        &comparison_apps,
        &[
            &FragDroidExplorer(FragDroidConfig::default()),
            &ActivityExplorer::default(),
            &DepthFirstExplorer::default(),
            &Monkey::new(MONKEY_SEED, MONKEY_EVENTS),
        ],
    );

    // The 15 evaluation apps engineer their blocked content to resist
    // every mechanism (to match Table I), so the ablation adds a suite
    // where each mechanism is load-bearing.
    let ablation_apps = [templates::ablation_suite(), paper_apps].concat();
    let full = FragDroidConfig::default();
    let variants = [
        ("full", full.clone()),
        ("full + harvesting", full.clone().with_input_harvesting()),
        ("no reflection", full.clone().without_reflection()),
        ("no forced start", full.clone().without_force_start()),
        ("no input deps", full.clone().without_input_deps()),
        ("clicking only", full.without_reflection().without_force_start().without_input_deps()),
    ];
    let ablation = variants
        .into_iter()
        .flat_map(|(variant, config)| {
            let mut rows = compare_tools(&ablation_apps, &[&FragDroidExplorer(config)]);
            rows[0].tool = variant.to_string();
            rows
        })
        .collect();

    let mut aftm = AftmStructure { apps: analyzable.len(), ..AftmStructure::default() };
    let mut share_sum = 0.0;
    for gen in &analyzable {
        let s = stats(&fd_static::extract(&gen.app, &gen.known_inputs).aftm);
        let t = &mut aftm.totals;
        t.activities += s.activities;
        t.fragments += s.fragments;
        t.e1 += s.e1;
        t.e2 += s.e2;
        t.e3 += s.e3;
        t.reachable += s.reachable;
        t.unreachable += s.unreachable;
        t.depth += s.depth;
        t.max_fragments_per_activity =
            t.max_fragments_per_activity.max(s.max_fragments_per_activity);
        share_sum += s.fragment_ratio();
    }
    aftm.mean_fragment_share = share_sum / aftm.apps.max(1) as f64;

    let suite: Vec<SuiteApp> =
        analyzable.into_iter().map(|gen| (gen.app, gen.known_inputs)).collect();
    let (run, _) =
        Suite::new(&FragDroidConfig::default(), engine::default_workers(suite.len())).run(&suite);
    let mut corpus_run = CorpusRun { apps: suite.len(), ..CorpusRun::default() };
    for outcome in &run.outcomes {
        let Some(report) = outcome.report() else {
            corpus_run.panicked += 1;
            continue;
        };
        let (a, f) = (report.activity_coverage(), report.fragment_coverage());
        corpus_run.activities.visited += a.visited;
        corpus_run.activities.sum += a.sum;
        corpus_run.fragments.visited += f.visited;
        corpus_run.fragments.sum += f.sum;
        corpus_run.events += report.events_injected;
    }

    let budget_sweep = BUDGETS
        .iter()
        .map(|&budget| {
            let fragdroid = FragDroidExplorer(FragDroidConfig {
                event_budget: budget,
                ..FragDroidConfig::default()
            });
            let tools: [&dyn UiExplorer; 4] = [
                &fragdroid,
                &ActivityExplorer { event_budget: budget },
                &DepthFirstExplorer { event_budget: budget, max_depth: 24 },
                &Monkey::new(MONKEY_SEED, budget),
            ];
            (budget, compare_tools(&template_apps, &tools))
        })
        .collect();

    Experiments {
        study,
        table1,
        rejected: table1_run.rejected,
        table2,
        comparison,
        ablation,
        corpus: corpus_run,
        aftm,
        budget_sweep,
    }
}

/// `visited/sum`.
fn ratio(c: &Coverage) -> String {
    format!("{}/{}", c.visited, c.sum)
}

/// One markdown row per tool (or variant, named in the `first` column):
/// what it reached, detected and spent.
fn tool_rows(first: &str, rows: &[ComparisonRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tool.clone(),
                r.activities_visited.to_string(),
                r.fragments_visited.to_string(),
                r.api_relations.to_string(),
                r.api_fragment_relations.to_string(),
                r.events.to_string(),
            ]
        })
        .collect();
    render_markdown(
        &[first, "Activities", "Fragments", "API relations", "Fragment-attributed", "Events"],
        &body,
    )
}

impl Experiments {
    /// Renders `EXPERIMENTS-generated.md`: one section per experiment,
    /// each with the paper's figure where the paper gives one.
    pub fn markdown(&self) -> String {
        let mut out = format!(
            "# EXPERIMENTS (generated)\n\n\
             Regenerate with `{REGENERATE}`\n\
             (append `-- --json` to print the same results as JSON). Every number is\n\
             deterministic, and `tests/experiments.rs` fails when this file differs\n\
             from a fresh run. `EXPERIMENTS.md` compares these numbers with the paper.\n\n"
        );

        let s = &self.study;
        let _ = writeln!(
            out,
            "## Corpus study\n\n\
             {} apps in {} categories, {} fragment users (**{:.0}%**; paper: \"nearly 91%\"), \
             {} packer-protected.\n",
            s.total,
            s.per_category.len(),
            s.fragment_users,
            s.usage_pct(),
            s.packed
        );
        let mut categories: Vec<_> = s.per_category.iter().collect();
        categories.sort_by_key(|(_, &(apps, _))| std::cmp::Reverse(apps));
        let body: Vec<Vec<String>> = categories
            .into_iter()
            .map(|(category, &(apps, users))| {
                vec![
                    category.clone(),
                    apps.to_string(),
                    users.to_string(),
                    format!("{:.0}%", users as f64 / apps.max(1) as f64 * 100.0),
                ]
            })
            .collect();
        out.push_str(&render_markdown(&["Category", "Apps", "Fragment users", "Usage"], &body));

        let _ = writeln!(out, "\n## Table I — coverage\n");
        let mut headers = vec!["Package"];
        for group in ["Activities", "Fragments", "FiVA"] {
            headers.extend([group, "(paper)", "Rate"]);
        }
        headers.extend(["FC", "Rec"]);
        let body: Vec<Vec<String>> = self
            .table1
            .iter()
            .map(|r| {
                let (_, pa, pf, pv) = PAPER_TABLE1
                    .iter()
                    .find(|(package, ..)| *package == r.package)
                    .expect("every Table I app has a paper row");
                let mut cells = vec![r.package.clone()];
                for (measured, (v, s)) in
                    [(&r.activities, pa), (&r.fragments, pf), (&r.fragments_in_visited, pv)]
                {
                    cells.extend([
                        ratio(measured),
                        format!("{v}/{s}"),
                        format!("{:.2}%", measured.rate()),
                    ]);
                }
                cells.extend([r.crashes.to_string(), r.recovered.to_string()]);
                cells
            })
            .collect();
        out.push_str(&render_markdown(&headers, &body));
        let (a, f, v) = averages(&self.table1);
        let full_fiva =
            self.table1.iter().filter(|r| r.fragments_in_visited.rate() >= 100.0).count();
        let _ = writeln!(
            out,
            "\nAverages: activities **{a:.2}%** (paper 71.94%), fragments **{f:.2}%** (paper 66%), \
             fragments-in-visited **{v:.2}%** (paper: \"more than 50%\"), 100% for {full_fiva}/{} apps. \
             {} of {} containers quarantined at ingestion.\n",
            self.table1.len(),
            self.rejected.len(),
            self.rejected.len() + self.table1.len(),
        );

        let t = &self.table2;
        let _ = writeln!(
            out,
            "## Table II — sensitive operations\n\n\
             {} distinct APIs (paper 46), {} invocation relations (paper 269), \
             {} fragment-associated ({:.1}%; paper 49%), {} fragment-only ({:.1}%; paper ≥ 9.6%).\n\n\
             Legend: ● invoked by Activity, ◗ invoked by Fragment, ⊙ invoked by both.\n\n```\n{}```\n",
            t.distinct_apis(),
            t.total_invocations,
            t.fragment_invocations,
            t.fragment_share() * 100.0,
            t.fragment_only_invocations,
            t.missed_by_activity_tools() * 100.0,
            render_table2(t),
        );
        let body: Vec<Vec<String>> = per_app_counts(t)
            .into_iter()
            .map(|(app, a, f, b)| {
                vec![app, a.to_string(), f.to_string(), b.to_string(), (a + f + 2 * b).to_string()]
            })
            .collect();
        out.push_str(&render_markdown(
            &["Package", "● activity", "◗ fragment", "⊙ both", "Invocations"],
            &body,
        ));

        let _ = writeln!(
            out,
            "\n## Tool comparison\n\n\
             Summed over 18 apps (3 templates + the 15 evaluation apps); Monkey injects \
             {MONKEY_EVENTS} events per app (seed {MONKEY_SEED}).\n"
        );
        out.push_str(&tool_rows("Tool", &self.comparison));

        let _ = writeln!(
            out,
            "\n## Ablation\n\nSummed over the ablation suite + the 15 evaluation apps.\n"
        );
        out.push_str(&tool_rows("Variant", &self.ablation));

        let c = &self.corpus;
        let _ = writeln!(
            out,
            "\n## Full-corpus run\n\n\
             FragDroid over the {} analyzable corpus apps, through the suite runner: \
             activities {} (**{:.1}%**), fragments {} (**{:.1}%**), {} events injected, \
             {} apps panicked.",
            c.apps,
            ratio(&c.activities),
            c.activities.rate(),
            ratio(&c.fragments),
            c.fragments.rate(),
            c.events,
            c.panicked,
        );

        let m = &self.aftm;
        let n = m.apps.max(1) as f64;
        let avg = |total: usize| format!("{:.2}", total as f64 / n);
        let pct = |share: f64| format!("{:.1}%", share * 100.0);
        let _ = writeln!(
            out,
            "\n## AFTM structure\n\nStatic AFTMs of the {} analyzable corpus apps.\n",
            m.apps
        );
        let rows = [
            ("Activities per app", avg(m.totals.activities)),
            ("Fragments per app", avg(m.totals.fragments)),
            ("E1 (A→A) edges per app", avg(m.totals.e1)),
            ("E2 (A→F) edges per app", avg(m.totals.e2)),
            ("E3 (F→F) edges per app", avg(m.totals.e3)),
            ("BFS depth from entry", avg(m.totals.depth)),
            ("Statically unreachable nodes per app", avg(m.totals.unreachable)),
            ("Max fragments in one activity", m.totals.max_fragments_per_activity.to_string()),
            ("Fragment share of an app's states (mean)", pct(m.mean_fragment_share)),
            ("Fragment share of all states (corpus-wide)", pct(m.totals.fragment_ratio())),
        ];
        let body: Vec<Vec<String>> =
            rows.into_iter().map(|(quantity, value)| vec![quantity.to_string(), value]).collect();
        out.push_str(&render_markdown(&["Quantity", "Value"], &body));

        let _ = writeln!(
            out,
            "\n## Budget sweep\n\n\
             Activities / fragments visited, summed over the 3 template apps, per event budget.\n"
        );
        let mut headers = vec!["Budget"];
        if let Some((_, rows)) = self.budget_sweep.first() {
            headers.extend(rows.iter().map(|r| r.tool.as_str()));
        }
        let body: Vec<Vec<String>> = self
            .budget_sweep
            .iter()
            .map(|(budget, rows)| {
                let mut cells = vec![budget.to_string()];
                cells.extend(
                    rows.iter()
                        .map(|r| format!("{}/{}", r.activities_visited, r.fragments_visited)),
                );
                cells
            })
            .collect();
        out.push_str(&render_markdown(&headers, &body));
        out
    }
}
