//! Agent death must be contained: a subprocess-backend agent that dies
//! at *any* request boundary yields either a fully recovered run (via
//! the pool) or a typed infrastructure failure, never a hang, a panic, or
//! a phantom app crash. That a healthy subprocess backend reports
//! byte-identically to the in-process simulator is a cell of the
//! `suite_differential` matrix.

use fd_droidsim::{AgentOptions, DeviceApi, SubprocessDevice};
use fragdroid::{DevicePool, FragDroid, FragDroidConfig, RunReport};

fn report_on(
    config: &FragDroidConfig,
    app: &fd_apk::AndroidApp,
    inputs: &std::collections::BTreeMap<String, String>,
    device: &mut dyn DeviceApi,
) -> RunReport {
    FragDroid::new(config.clone()).run_traced_on(app, inputs, &fd_trace::Tracer::disabled(), device)
}

fn report_json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// How many agent requests one healthy run of `app` issues — the index
/// space the kill-injection sweep walks.
fn healthy_run(
    config: &FragDroidConfig,
    app: &fd_apk::AndroidApp,
    inputs: &std::collections::BTreeMap<String, String>,
) -> (RunReport, u64) {
    let mut device = SubprocessDevice::in_memory(AgentOptions { die_after: None });
    let report = report_on(config, app, inputs, &mut device);
    assert!(report.infra_failure.is_none(), "healthy agent, healthy run");
    (report, device.requests())
}

/// A bare `SubprocessDevice` whose agent dies at request `i` must end in
/// either the healthy report (the device self-respawned on install) or a
/// typed infrastructure failure with zero crashes — for every `i`.
#[test]
fn agent_death_at_every_request_boundary_is_contained() {
    let gen = fd_appgen::templates::tabbed_categories();
    let config = FragDroidConfig::default();
    let (healthy, requests) = healthy_run(&config, &gen.app, &gen.known_inputs);
    assert!(requests > 10, "the sweep needs a real request stream, got {requests}");

    for die_at in 0..=requests {
        let mut device = SubprocessDevice::in_memory(AgentOptions { die_after: Some(die_at) });
        let report = report_on(&config, &gen.app, &gen.known_inputs, &mut device);
        match &report.infra_failure {
            None => assert_eq!(
                report_json(&report),
                report_json(&healthy),
                "recovered run at boundary {die_at} must match the healthy run"
            ),
            Some(detail) => {
                assert!(!detail.is_empty(), "typed failure carries a detail");
                assert_eq!(report.crashes, 0, "boundary {die_at}: infra is never an app crash");
                assert!(report.crash_reports.is_empty(), "boundary {die_at}");
                // ≥ 1: the end-of-run summary queries also fail on the
                // poisoned session and are counted too.
                assert!(report.device_errors.infrastructure >= 1, "boundary {die_at}");
            }
        }
    }
}

/// The same sweep through the pool: generation 0 dies at request `i`,
/// the replacement is healthy, and the pool must always deliver the
/// healthy report while counting exactly the incidents it absorbed.
#[test]
fn pool_recovers_the_run_for_every_kill_boundary() {
    let gen = fd_appgen::templates::tabbed_categories();
    let config = FragDroidConfig::default();
    let (healthy, requests) = healthy_run(&config, &gen.app, &gen.known_inputs);

    // Sample the boundary space: the first requests (install/launch),
    // a mid-run stride, and the final boundary.
    let boundaries: Vec<u64> =
        (0..4).chain((4..=requests).step_by(7)).chain(std::iter::once(requests)).collect();
    for die_at in boundaries {
        let pool = DevicePool::with_factory(
            1,
            Box::new(move |_, generation| {
                let die_after = if generation == 0 { Some(die_at) } else { None };
                Box::new(SubprocessDevice::in_memory(AgentOptions { die_after }))
                    as Box<dyn DeviceApi>
            }),
        );
        let report = pool.run_app(0, &fd_trace::Tracer::disabled(), |device| {
            report_on(&config, &gen.app, &gen.known_inputs, device)
        });
        assert!(
            report.infra_failure.is_none(),
            "boundary {die_at}: the pool retries on a fresh device"
        );
        assert_eq!(
            report_json(&report),
            report_json(&healthy),
            "boundary {die_at}: the recovered run is byte-identical to a healthy one"
        );
        let expected_incidents = usize::from(die_at < requests);
        assert_eq!(
            pool.incidents(),
            expected_incidents,
            "boundary {die_at}: every absorbed death is counted, and only those"
        );
    }
}
