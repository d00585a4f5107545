//! Tracing must never change results: a disabled and an enabled tracer
//! are property-tested to produce byte-identical reports of one app, and
//! an enabled tracer's spans must agree with the suite's own wall-clock
//! metrics. That a traced suite run finds what an untraced one finds is
//! a cell of the `suite_differential` matrix.

use fragdroid::{FragDroid, FragDroidConfig, Suite, SuiteMetrics};

fn corpus_slice(seed: u64, n: usize) -> Vec<fragdroid::suite::SuiteApp> {
    fd_appgen::corpus::corpus_217(seed)
        .into_iter()
        .filter(|g| !g.app.meta.packed)
        .take(n)
        .map(|g| (g.app, g.known_inputs))
        .collect()
}

mod disabled_is_byte_identical {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// `run` (which routes through a disabled tracer) and an enabled
        /// traced run produce byte-identical reports: tracing observes,
        /// never steers. Fault injection is armed so the instrumented
        /// retry/crash/recovery paths are all exercised.
        #[test]
        fn traced_and_untraced_reports_match(seed in 0u64..32, rate in 0usize..2) {
            let gen = fd_appgen::templates::quickstart();
            let config = if rate == 0 {
                FragDroidConfig::default()
            } else {
                FragDroidConfig::default().with_faults(seed, 0.25)
            };
            let untraced = FragDroid::new(config.clone()).run(&gen.app, &gen.known_inputs);
            let disabled = FragDroid::new(config.clone()).run_traced(
                &gen.app,
                &gen.known_inputs,
                &fd_trace::Tracer::disabled(),
            );
            let enabled_tracer =
                fd_trace::Tracer::new(&fd_trace::TraceConfig::on(), fd_trace::TraceClock::start(), 0);
            let enabled = FragDroid::new(config).run_traced(
                &gen.app,
                &gen.known_inputs,
                &enabled_tracer,
            );
            let track = enabled_tracer.finish();

            let a = serde_json::to_string(&untraced).unwrap();
            let b = serde_json::to_string(&disabled).unwrap();
            let c = serde_json::to_string(&enabled).unwrap();
            prop_assert_eq!(&a, &b, "disabled tracer must be invisible");
            prop_assert_eq!(&a, &c, "enabled tracer must be invisible too");
            prop_assert!(!track.records.is_empty(), "enabled run did record");
        }
    }
}

/// The per-phase spans `fd-cli trace` reports must agree with the
/// suite's own accounting — checked *structurally* (span counts,
/// timestamp nesting, and a truncation-only stopwatch bound), never
/// against wall-clock coverage ratios: how much of an App span the
/// phases cover depends on scheduler preemption, so any duration-slack
/// assertion is flaky on a loaded host.
#[test]
fn phase_totals_agree_with_suite_metrics() {
    let apps = corpus_slice(3, 6);
    let config = FragDroidConfig::default().with_faults(9, 0.25);
    let (run, trace) =
        Suite { trace: fd_trace::TraceConfig::on(), ..Suite::new(&config, 2) }.run(&apps);
    let summary = fd_trace::TraceSummary::compute(&trace);

    let phase_total = summary.top_level_phase_total_us();
    let app_total = summary.app_total_us;
    assert!(phase_total <= app_total, "phases nest inside the App spans");

    // Structural containment: each worker track carries one App span
    // per app it ran, and every top-level phase span on a track nests
    // inside one of that track's App spans — the span guards enforce
    // this ordering in code, so the timestamps must agree no matter how
    // loaded the machine is.
    let mut app_spans: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    let mut total_app_spans = 0usize;
    for record in &trace.records {
        if let fd_trace::TraceRecord::Span(span) = record {
            if span.phase == fd_trace::Phase::App {
                let end = span.wall_start_us + span.wall_dur_us;
                app_spans.entry(span.track).or_default().push((span.wall_start_us, end));
                total_app_spans += 1;
            }
        }
    }
    assert_eq!(total_app_spans, run.metrics.apps.len(), "every app got an App span");

    let (mut static_spans, mut explore_spans) = (0usize, 0usize);
    for record in &trace.records {
        if let fd_trace::TraceRecord::Span(span) = record {
            if span.phase.is_top_level() {
                let intervals = app_spans.get(&span.track).expect("phase span on an app track");
                let (s, e) = (span.wall_start_us, span.wall_start_us + span.wall_dur_us);
                assert!(
                    intervals.iter().any(|&(start, end)| s >= start && e <= end),
                    "{} span [{s}..{e}]µs must nest inside an App span of its track \
                     (App spans: {intervals:?})",
                    span.phase.as_str(),
                );
                match span.phase {
                    fd_trace::Phase::Static => static_spans += 1,
                    fd_trace::Phase::Explore => explore_spans += 1,
                    _ => {}
                }
            }
        }
    }
    assert_eq!(static_spans, run.metrics.apps.len(), "one Static span per app");
    assert_eq!(explore_spans, run.metrics.apps.len(), "one Explore span per app");

    // The engine's stopwatch brackets each job (which contains the App
    // span), and `wall_ms` truncates to milliseconds — so the only
    // legitimate excess of span total over stopwatch total is that
    // sub-millisecond truncation, one per app. No load-dependent slack.
    let metrics_total_us: u64 = run.metrics.apps.iter().map(|m| m.wall_ms * 1000).sum();
    let truncation = 1_000 * run.metrics.apps.len() as u64;
    assert!(
        app_total <= metrics_total_us + truncation,
        "span total {app_total}µs vs engine total {metrics_total_us}µs"
    );

    // Every fault and retry the reports counted is on the trace.
    let (mut faults, mut retries, mut crashes) = (0u64, 0u64, 0u64);
    for outcome in &run.outcomes {
        let report = outcome.report().unwrap();
        faults += report.faults_injected as u64;
        retries += report.retries as u64;
        crashes += report.crashes as u64;
    }
    assert_eq!(summary.faults, faults, "every injected fault is traced");
    assert_eq!(summary.retries, retries, "every retry is traced");
    assert_eq!(summary.crashes, crashes, "every crash is traced");
}

/// The quantile fields added to [`SuiteMetrics`] survive a JSON roundtrip
/// and default to zero when parsing a record written before they existed.
#[test]
fn suite_metrics_quantiles_roundtrip_and_default() {
    let apps = corpus_slice(5, 5);
    let (run, _) = Suite::new(&FragDroidConfig::default(), 2).run(&apps);
    let metrics = &run.metrics;
    assert_eq!(metrics.app_wall_ms_max, metrics.apps.iter().map(|m| m.wall_ms).max().unwrap());
    assert!(metrics.app_wall_ms_p50 <= metrics.app_wall_ms_p95);
    assert!(metrics.app_wall_ms_p95 <= metrics.app_wall_ms_max);

    let json = metrics.to_json().expect("metrics serialize");
    let parsed = SuiteMetrics::from_json(&json).expect("roundtrip parses");
    assert_eq!(&parsed, metrics);

    // A pre-quantile record still parses; the new fields default to 0.
    let legacy = r#"{
        "workers": 2, "wall_ms": 10, "busy_ms": 9,
        "worker_utilization": 0.45, "apps": []
    }"#;
    let parsed = SuiteMetrics::from_json(legacy).expect("legacy record parses");
    assert_eq!(parsed.app_wall_ms_p50, 0);
    assert_eq!(parsed.app_wall_ms_p95, 0);
    assert_eq!(parsed.app_wall_ms_max, 0);
}
