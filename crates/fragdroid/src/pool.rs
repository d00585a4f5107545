//! The fault-tolerant device-pool scheduler.
//!
//! The suite runner historically built one simulator per app inside the
//! run closure — fine in-process, wasteful and fragile for subprocess
//! backends, where "the device" is a child process that can die. The
//! pool owns one `DeviceLane` per worker and hands out *leases*:
//!
//! * a lease reuses the lane's live device when its health check
//!   ([`DeviceApi::ping`]) passes, and builds a fresh one (bumping the
//!   lane's generation counter) when it does not;
//! * a run that ends in [`RunReport::infra_failure`] counts as a
//!   *device incident* — the app is re-run on a fresh lease, up to 3
//!   attempts in all;
//! * 3 consecutive incidents on one lane trip its failure streak and
//!   retire the lane's device (it is dropped, which kills a subprocess
//!   agent), so a sick device cannot eat the whole suite.
//!
//! The streak is the shared retry and health policy (DESIGN.md §12).
//! Incidents are never misattributed to the app under test: an
//! infra-failed attempt keeps `crashes == 0` and is reported through
//! [`RunReport::infra_failure`] and the suite-level
//! `SuiteMetrics::device_incidents` counter instead.

use crate::config::FragDroidConfig;
use crate::health::Streak;
use crate::report::RunReport;
use fd_droidsim::{DeviceApi, DeviceBackend, InProcessDevice, MockAdbDevice, SubprocessDevice};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Builds a fresh backend of the configured kind. The subprocess
/// backend re-executes the current binary with the `device-agent`
/// argument, so it only works from binaries that route that argument to
/// [`fd_droidsim::serve`] (`fd-cli` does); library tests use
/// [`SubprocessDevice::in_memory`] instead.
pub fn build_backend(backend: DeviceBackend) -> Box<dyn DeviceApi> {
    match backend {
        DeviceBackend::InProcess => Box::new(InProcessDevice::new()),
        DeviceBackend::Subprocess => Box::new(SubprocessDevice::spawn_cli(Vec::new())),
        DeviceBackend::MockAdb => Box::new(MockAdbDevice::new()),
    }
}

/// How a pool builds a device for lane `lane` at generation
/// `generation` (0 for the lane's first device, bumped on every
/// rebuild). Tests inject factories that fail on purpose; the CLI
/// injects one whose generation-0 device dies after N requests.
pub type DeviceFactory = Box<dyn Fn(usize, u64) -> Box<dyn DeviceApi> + Send + Sync>;

/// Consecutive infra failures on one lane before its device is retired.
const QUARANTINE_THRESHOLD: u32 = 3;

/// Total attempts one app gets across leases before its infra failure
/// becomes the final outcome.
const MAX_ATTEMPTS: usize = 3;

/// One worker's device slot: the (possibly absent) live device, the
/// lane's device generation, and its consecutive-incident streak.
struct DeviceLane {
    device: Option<Box<dyn DeviceApi>>,
    /// Devices ever built for this lane; the live device's generation is
    /// `generation - 1`.
    generation: u64,
    incidents: Streak,
}

/// A fixed set of device lanes with lease/retry/quarantine scheduling.
/// One lane per suite worker: workers only ever lock their own lane, so
/// the mutexes are uncontended and exist to keep the pool `Sync`.
pub struct DevicePool {
    lanes: Vec<Mutex<DeviceLane>>,
    factory: DeviceFactory,
    incidents: AtomicUsize,
    retired: AtomicUsize,
}

impl std::fmt::Debug for DevicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevicePool")
            .field("lanes", &self.lanes.len())
            .field("incidents", &self.incidents())
            .field("retired", &self.retired())
            .finish()
    }
}

impl DevicePool {
    /// A pool of `lanes` lanes over an injected device factory.
    pub fn with_factory(lanes: usize, factory: DeviceFactory) -> Self {
        let lane = || {
            let incidents = Streak::new(QUARANTINE_THRESHOLD);
            Mutex::new(DeviceLane { device: None, generation: 0, incidents })
        };
        DevicePool {
            lanes: (0..lanes.max(1)).map(|_| lane()).collect(),
            factory,
            incidents: AtomicUsize::new(0),
            retired: AtomicUsize::new(0),
        }
    }

    /// A pool whose factory builds the backend named by
    /// [`FragDroidConfig::backend`].
    pub fn from_config(config: &FragDroidConfig, lanes: usize) -> Self {
        let backend = config.backend;
        DevicePool::with_factory(lanes, Box::new(move |_, _| build_backend(backend)))
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Device incidents so far: app attempts that ended in an
    /// infrastructure failure. A device retired by a failed health
    /// check before a run is not an incident.
    pub fn incidents(&self) -> usize {
        self.incidents.load(Ordering::Relaxed)
    }

    /// Devices retired so far (quarantine or failed health check).
    pub fn retired(&self) -> usize {
        self.retired.load(Ordering::Relaxed)
    }

    /// Runs one app on lane `lane` (wrapped modulo the lane count) with
    /// lease/retry/quarantine handling around the `run` closure. The
    /// closure is called with a leased device and must return the app's
    /// [`RunReport`]; an [`RunReport::infra_failure`] outcome is retried
    /// on a fresh lease up to the attempt cap, and the final report is
    /// returned either way.
    pub fn run_app(
        &self,
        lane: usize,
        tracer: &fd_trace::Tracer,
        mut run: impl FnMut(&mut dyn DeviceApi) -> RunReport,
    ) -> RunReport {
        let lane_index = lane % self.lanes.len();
        let mut slot = match self.lanes[lane_index].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            // Lease: health-check a reused device, build a fresh one when
            // the lane is empty or the check fails.
            if slot.device.as_mut().is_some_and(|device| device.ping().is_err()) {
                self.retire(&mut slot, lane_index, tracer);
            }
            let DeviceLane { device, generation, .. } = &mut *slot;
            let device = device.get_or_insert_with(|| {
                *generation += 1;
                (self.factory)(lane_index, *generation - 1)
            });
            let (lane_id, generation) = (lane_index as u64, *generation - 1);
            tracer.event(|| fd_trace::TraceEvent::DeviceLeased { lane: lane_id, generation });

            let report = run(device.as_mut());
            let Some(detail) = report.infra_failure.clone() else {
                slot.incidents.clear();
                return report;
            };
            self.incidents.fetch_add(1, Ordering::Relaxed);
            tracer.event(|| fd_trace::TraceEvent::DeviceIncident { detail });
            if slot.incidents.fail() {
                self.retire(&mut slot, lane_index, tracer);
            }
            if attempts == MAX_ATTEMPTS {
                return report;
            }
        }
    }

    /// Drops the lane's device (killing a subprocess agent) and resets
    /// its incident streak; the next lease builds a fresh generation.
    fn retire(&self, slot: &mut DeviceLane, lane_index: usize, tracer: &fd_trace::Tracer) {
        if slot.device.take().is_none() {
            return;
        }
        slot.incidents.clear();
        self.retired.fetch_add(1, Ordering::Relaxed);
        let lane_id = lane_index as u64;
        tracer.event(|| fd_trace::TraceEvent::DeviceRetired { lane: lane_id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DeviceErrorStats;
    use fd_droidsim::{DeviceConfig, DeviceError};
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    fn infra_report(detail: &str) -> RunReport {
        let mut report = ok_report();
        report.infra_failure = Some(detail.to_string());
        report.device_errors = DeviceErrorStats { infrastructure: 1, ..Default::default() };
        report
    }

    fn ok_report() -> RunReport {
        let gen = fd_appgen::templates::quickstart();
        let info = fd_static::extract(&gen.app, &std::collections::BTreeMap::new());
        RunReport {
            aftm: info.aftm.clone(),
            static_info: info,
            visited_activities: Default::default(),
            visited_fragments: Default::default(),
            api_invocations: Vec::new(),
            scripts: Vec::new(),
            timeline: Vec::new(),
            events_injected: 0,
            test_cases_run: 0,
            test_cases_generated: 0,
            crashes: 0,
            deadline_exceeded: false,
            crash_reports: Vec::new(),
            recovered_crashes: 0,
            retries: 0,
            faults_injected: 0,
            fault_log: Default::default(),
            device_errors: Default::default(),
            infra_failure: None,
        }
    }

    /// A device whose ping fails after being marked sick.
    struct Sickly {
        inner: InProcessDevice,
        sick: bool,
    }

    impl DeviceApi for Sickly {
        fn install_app(
            &mut self,
            app: &fd_apk::AndroidApp,
            config: DeviceConfig,
        ) -> Result<(), DeviceError> {
            self.inner.install_app(app, config)
        }
        fn launch(&mut self) -> Result<fd_droidsim::EventOutcome, DeviceError> {
            self.inner.launch()
        }
        fn am_start(&mut self, c: &str) -> Result<fd_droidsim::EventOutcome, DeviceError> {
            self.inner.am_start(c)
        }
        fn click(&mut self, id: &str) -> Result<fd_droidsim::EventOutcome, DeviceError> {
            self.inner.click(id)
        }
        fn enter_text(&mut self, id: &str, text: &str) -> Result<(), DeviceError> {
            self.inner.enter_text(id, text)
        }
        fn dismiss_overlay(&mut self) -> Result<fd_droidsim::EventOutcome, DeviceError> {
            self.inner.dismiss_overlay()
        }
        fn back(&mut self) -> Result<fd_droidsim::EventOutcome, DeviceError> {
            self.inner.back()
        }
        fn swipe_open_drawer(&mut self) -> Result<fd_droidsim::EventOutcome, DeviceError> {
            self.inner.swipe_open_drawer()
        }
        fn reflect_switch_fragment(
            &mut self,
            f: &str,
        ) -> Result<fd_droidsim::EventOutcome, DeviceError> {
            self.inner.reflect_switch_fragment(f)
        }
        fn observe(&mut self) -> Result<Option<fd_droidsim::ScreenObservation>, DeviceError> {
            self.inner.observe()
        }
        fn signature(&mut self) -> Result<Option<fd_droidsim::UiSignature>, DeviceError> {
            self.inner.signature()
        }
        fn visible_widgets(&mut self) -> Result<Vec<fd_droidsim::VisibleWidget>, DeviceError> {
            self.inner.visible_widgets()
        }
        fn stack_depth(&mut self) -> Result<usize, DeviceError> {
            self.inner.stack_depth()
        }
        fn is_crashed(&mut self) -> Result<bool, DeviceError> {
            self.inner.is_crashed()
        }
        fn crash_site(&mut self) -> Result<Option<fd_droidsim::UiSignature>, DeviceError> {
            self.inner.crash_site()
        }
        fn invocations(&mut self) -> Result<Vec<fd_droidsim::ApiInvocation>, DeviceError> {
            self.inner.invocations()
        }
        fn fault_records_since(
            &mut self,
            from: usize,
        ) -> Result<Vec<fd_droidsim::FaultRecord>, DeviceError> {
            self.inner.fault_records_since(from)
        }
        fn fault_log(&mut self) -> Result<fd_droidsim::FaultLog, DeviceError> {
            self.inner.fault_log()
        }
        fn faults_injected(&mut self) -> Result<usize, DeviceError> {
            self.inner.faults_injected()
        }
        fn clock(&mut self) -> Result<u64, DeviceError> {
            self.inner.clock()
        }
        fn advance_clock(&mut self, ticks: u64) -> Result<(), DeviceError> {
            self.inner.advance_clock(ticks)
        }
        fn reset(&mut self) -> Result<(), DeviceError> {
            self.inner.reset()
        }
        fn grant(&mut self, p: &str) -> Result<(), DeviceError> {
            self.inner.grant(p)
        }
        fn revoke(&mut self, p: &str) -> Result<(), DeviceError> {
            self.inner.revoke(p)
        }
        fn ping(&mut self) -> Result<(), DeviceError> {
            if self.sick {
                Err(DeviceError::AgentDied { detail: "sick".to_string() })
            } else {
                Ok(())
            }
        }
        fn backend_name(&self) -> &'static str {
            "sickly"
        }
    }

    #[test]
    fn healthy_runs_reuse_the_same_device_generation() {
        let built = Arc::new(Counter::new(0));
        let built_in_factory = Arc::clone(&built);
        let pool = DevicePool::with_factory(
            1,
            Box::new(move |_, _| {
                built_in_factory.fetch_add(1, Ordering::Relaxed);
                Box::new(InProcessDevice::new())
            }),
        );
        let tracer = fd_trace::Tracer::disabled();
        for _ in 0..3 {
            let report = pool.run_app(0, &tracer, |_| ok_report());
            assert!(report.infra_failure.is_none());
        }
        assert_eq!(built.load(Ordering::Relaxed), 1, "one device serves consecutive apps");
        assert_eq!(pool.incidents(), 0);
        assert_eq!(pool.retired(), 0);
    }

    #[test]
    fn infra_failures_are_retried_and_counted_never_as_crashes() {
        let pool = DevicePool::with_factory(1, Box::new(|_, _| Box::new(InProcessDevice::new())));
        let tracer = fd_trace::Tracer::disabled();
        let attempts = Counter::new(0);
        let report = pool.run_app(0, &tracer, |_| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                infra_report("agent died")
            } else {
                ok_report()
            }
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "app re-ran after the incident");
        assert!(report.infra_failure.is_none(), "final outcome is the successful retry");
        assert_eq!(report.crashes, 0);
        assert_eq!(pool.incidents(), 1);
        assert_eq!(pool.retired(), 0, "one incident is below the threshold");
    }

    #[test]
    fn quarantine_retires_a_sick_device_and_final_outcome_stays_infra() {
        let built = Arc::new(Counter::new(0));
        let built_in_factory = Arc::clone(&built);
        let pool = DevicePool::with_factory(
            1,
            Box::new(move |_, generation| {
                built_in_factory.fetch_add(1, Ordering::Relaxed);
                assert!(generation < 2);
                Box::new(InProcessDevice::new())
            }),
        );
        let tracer = fd_trace::Tracer::disabled();
        for app in 0..2 {
            // What each attempt saw: devices built and retired so far.
            let mut seen = Vec::new();
            let report = pool.run_app(0, &tracer, |_| {
                seen.push((built.load(Ordering::Relaxed), pool.retired()));
                infra_report("agent died")
            });
            assert_eq!(report.infra_failure.as_deref(), Some("agent died"));
            assert_eq!(report.crashes, 0, "an infra failure is never an app crash");
            assert_eq!(
                seen,
                vec![(app + 1, app); MAX_ATTEMPTS],
                "generation {app} served all {MAX_ATTEMPTS} attempts before retiring"
            );
            assert_eq!(pool.incidents(), MAX_ATTEMPTS * (app + 1), "every attempt was an incident");
            assert_eq!(pool.retired(), app + 1, "the 3rd straight incident retired the device");
        }
        assert_eq!(built.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn failed_health_check_replaces_the_device_before_the_run() {
        let pool = DevicePool::with_factory(
            1,
            Box::new(|_, _| Box::new(Sickly { inner: InProcessDevice::new(), sick: false })),
        );
        let tracer = fd_trace::Tracer::disabled();
        let report = pool.run_app(0, &tracer, |device| {
            assert_eq!(device.backend_name(), "sickly");
            ok_report()
        });
        assert!(report.infra_failure.is_none());
        // Swap in a device that fails its health check; the next lease
        // must retire it and build a replacement before running the app.
        {
            let mut slot = pool.lanes[0].lock().unwrap();
            slot.device = Some(Box::new(Sickly { inner: InProcessDevice::new(), sick: true }));
        }
        let report = pool.run_app(0, &tracer, |device| {
            assert!(device.ping().is_ok(), "the lease replaced the sick device");
            ok_report()
        });
        assert!(report.infra_failure.is_none());
        assert_eq!(pool.retired(), 1, "the failed health check retired the sick device");
        assert_eq!(pool.incidents(), 0, "a failed health check is not an incident");
    }

    #[test]
    fn from_config_builds_the_configured_backend() {
        let config = FragDroidConfig::default().with_backend(DeviceBackend::MockAdb);
        let pool = DevicePool::from_config(&config, 2);
        assert_eq!(pool.lanes(), 2);
        let tracer = fd_trace::Tracer::disabled();
        let report = pool.run_app(0, &tracer, |device| {
            assert_eq!(device.backend_name(), "mock-adb");
            ok_report()
        });
        assert!(report.infra_failure.is_none());
    }
}
