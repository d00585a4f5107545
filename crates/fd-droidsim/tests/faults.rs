//! Fault-injection integration tests: zero-rate identity, deterministic
//! replay of the fault log, and crash/reset semantics.

use fd_appgen::{ActivitySpec, AppBuilder, FragmentSpec};
use fd_droidsim::{
    Device, DeviceConfig, DeviceError, EventOutcome, FaultConfig, FaultKind, FaultSite,
};
use proptest::prelude::*;

/// A gated activity crashes organically when force-started with an empty
/// intent (its required extra is missing).
fn crashing_app() -> fd_apk::AndroidApp {
    let gen = AppBuilder::new("ft.crash")
        .activity(
            ActivitySpec::new("Main")
                .launcher()
                .initial_fragment("Home")
                .api("phone", "getDeviceId"),
        )
        .activity(ActivitySpec::new("Gated").requires_extra("session"))
        .fragment(FragmentSpec::new("Home"))
        .build();
    let mut app = gen.app;
    app.manifest.add_main_action_everywhere();
    app
}

#[test]
fn click_after_crash_errors_until_reset_then_launch_works() {
    let mut d = Device::new(crashing_app());
    d.launch().unwrap();
    let invocations_before = d.monitor().sequence().len();
    assert!(invocations_before > 0, "launch fires the sensitive API");

    let out = d.am_start("ft.crash.Gated").unwrap();
    assert!(matches!(out, EventOutcome::Crashed { .. }), "missing extra must FC");
    assert!(d.is_crashed());
    let site = d.crash_site().cloned();
    assert!(site.is_some(), "crash site captured before the task cleared");
    assert_eq!(site.unwrap().activity.as_str(), "ft.crash.Gated");

    // The regression this guards: events on a crashed device must error,
    // not silently no-op.
    assert!(matches!(d.click("anything"), Err(DeviceError::NotRunning)));
    assert!(matches!(d.back(), Err(DeviceError::NotRunning)));

    // `reset` clears the Force-Close without reinstalling: the monitor
    // log survives and a plain launch brings the app back.
    d.reset();
    assert!(!d.is_crashed());
    assert!(d.crash_site().is_none());
    d.launch().unwrap();
    assert_eq!(d.signature().unwrap().activity.as_str(), "ft.crash.Main");
    assert!(
        d.monitor().sequence().len() > invocations_before,
        "monitor kept the pre-crash invocations and appended the relaunch"
    );
}

#[test]
fn process_kill_fault_reports_the_synthetic_reason_and_site() {
    // Rate 1.0 forces a fault on the very first event; seeds are scanned
    // until the launch fault comes out as a ProcessKill so the test does
    // not depend on one seed's draw order.
    for seed in 0..64u64 {
        let config =
            DeviceConfig { faults: Some(FaultConfig::new(seed, 1.0)), ..DeviceConfig::default() };
        let mut d = Device::with_config(crashing_app(), config);
        // At rate 1.0 the launch may instead fault as an ANR or transient
        // start failure (an Err) — scan on until the kill comes up.
        let Ok(out) = d.launch() else { continue };
        if let EventOutcome::Crashed { reason } = out {
            assert_eq!(reason, fd_droidsim::faults::KILL_REASON);
            assert!(d.is_crashed());
            assert!(d
                .fault_log()
                .records
                .iter()
                .any(|r| matches!(r.kind, FaultKind::ProcessKill) && r.site == FaultSite::Launch));
            return;
        }
    }
    panic!("no seed in 0..64 produced a launch-site ProcessKill at rate 1.0");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A zero-rate fault plan is bit-for-bit inert: the device behaves
    /// identically to one built without any fault config, injects
    /// nothing, and logs nothing.
    #[test]
    fn zero_rate_plan_is_bit_identical_to_no_plan(
        seed in 0u64..16,
        picks in prop::collection::vec(0usize..10, 0..60),
    ) {
        let gen = fd_appgen::random::generate(
            "zr.app",
            &fd_appgen::random::GenConfig::default(),
            seed,
        );
        let run = |mut device: Device| {
            let _ = device.launch();
            for i in &picks {
                let widgets: Vec<_> =
                    device.visible_widgets().into_iter().filter_map(|w| w.id).collect();
                if widgets.is_empty() {
                    let _ = device.back();
                } else {
                    let _ = device.click(&widgets[i % widgets.len()]);
                }
            }
            (device.signature(), device.monitor().sequence().to_vec(), device.faults_injected())
        };
        let plain = run(Device::new(gen.app.clone()));
        let zero_rate = run(Device::with_config(
            gen.app,
            DeviceConfig { faults: Some(FaultConfig::new(99, 0.0)), ..DeviceConfig::default() },
        ));
        prop_assert_eq!(&plain.0, &zero_rate.0, "final state diverged");
        prop_assert_eq!(&plain.1, &zero_rate.1, "monitor sequence diverged");
        prop_assert_eq!(plain.2, 0);
        prop_assert_eq!(zero_rate.2, 0, "zero-rate plan injected a fault");
    }

    /// The same (seed, rate) pair replays the identical fault log over the
    /// identical event sequence — the property the whole layer exists for.
    #[test]
    fn same_seed_replays_the_identical_fault_log(
        app_seed in 0u64..8,
        fault_seed in 0u64..1000,
        picks in prop::collection::vec(0usize..10, 1..40),
    ) {
        let gen = fd_appgen::random::generate(
            "fr.app",
            &fd_appgen::random::GenConfig::default(),
            app_seed,
        );
        let run = |app: fd_apk::AndroidApp| {
            let config = DeviceConfig {
                faults: Some(FaultConfig::new(fault_seed, 0.3)),
                ..DeviceConfig::default()
            };
            let mut device = Device::with_config(app, config);
            let _ = device.launch();
            for i in &picks {
                if device.is_crashed() {
                    device.reset();
                    let _ = device.launch();
                    continue;
                }
                let widgets: Vec<_> =
                    device.visible_widgets().into_iter().filter_map(|w| w.id).collect();
                if widgets.is_empty() {
                    let _ = device.back();
                } else {
                    let _ = device.click(&widgets[i % widgets.len()]);
                }
            }
            (device.fault_log().clone(), device.clock())
        };
        let a = run(gen.app.clone());
        let b = run(gen.app);
        prop_assert_eq!(&a.0, &b.0, "fault logs diverged for the same seed");
        prop_assert_eq!(a.1, b.1, "simulated clocks diverged");
    }
}
