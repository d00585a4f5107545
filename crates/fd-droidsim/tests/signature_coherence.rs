//! Coherence oracle for the signature the device holds. `Device` builds
//! the foreground [`UiSignature`] once, when an event settles, and hands
//! that held value out from `signature()`, `observe()` and the next
//! event's `before`. This walk checks, after every operation on seeded
//! random apps, that the held value equals one built fresh from the
//! live screen, across launches, force-starts, clicks that finish or
//! crash their activity, overlays, drawers, reflection, resets and
//! fault-armed devices.
//!
//! Crash sites get their own oracle. Some click handlers are rewritten
//! to end in a crash, and a twin device runs the same app with those
//! crashes left out, in lockstep. When a rewritten handler crashes the
//! device, the crash site must be the screen the handler left behind,
//! which is exactly where the twin settles.

use fd_apk::AndroidApp;
use fd_droidsim::{Device, DeviceConfig, EventOutcome, FaultConfig, Op, Screen, ScreenObservation};
use fd_smali::{ClassName, Stmt};
use std::collections::BTreeSet;

/// The crash reason the rewritten handlers throw.
const PLANTED: &str = "IllegalStateException: planted";

/// A tiny deterministic generator, so the walk needs no RNG crate.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

/// The random app for `seed` with some click handlers rewritten to end
/// in `finish()` and others in a planted crash, and its twin: the same
/// rewrite without the planted crashes.
fn apps(seed: u64) -> (AndroidApp, AndroidApp) {
    let config = fd_appgen::random::GenConfig::default();
    let mut app = fd_appgen::random::generate("coherence.app", &config, seed).app;
    app.manifest.add_main_action_everywhere();
    let mut twin = app.clone();
    let mut rng = XorShift(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
    let classes: Vec<_> = app.classes.iter().cloned().collect();
    for class in classes {
        let mut handlers = BTreeSet::new();
        for method in &class.methods {
            for stmt in &method.body {
                if let Stmt::SetOnClick { handler, .. } = stmt {
                    handlers.insert(handler.clone());
                }
            }
        }
        let (mut planted, mut finishing) = (class.clone(), class.clone());
        let mut touched = false;
        for (i, method) in class.methods.iter().enumerate() {
            if !handlers.contains(&method.name) {
                continue;
            }
            match rng.below(5) {
                0 => {
                    planted.methods[i].body.push(Stmt::Crash { reason: PLANTED.to_string() });
                    touched = true;
                }
                1 => {
                    planted.methods[i].body.push(Stmt::Finish);
                    finishing.methods[i].body.push(Stmt::Finish);
                    touched = true;
                }
                _ => {}
            }
        }
        if touched {
            app.classes.insert(planted);
            twin.classes.insert(finishing);
        }
    }
    (app, twin)
}

/// What the walk reached, summed over every seed.
#[derive(Default)]
struct Reached {
    checks: usize,
    planted_crashes: usize,
    other_crashes: usize,
    finishes: usize,
    overlays: usize,
    drawers: usize,
    reflections: usize,
    resets: usize,
}

/// The held signature and observation equal fresh ones built from the
/// live screen.
fn assert_coherent(device: &Device, context: &str) {
    let fresh = device.current().map(Screen::signature);
    assert_eq!(device.signature(), fresh, "held signature is stale {context}");
    let observed = device.current().map(ScreenObservation::of);
    assert_eq!(device.observe(), observed, "held observation is stale {context}");
}

fn pick(device: &Device, rng: &mut XorShift, inputs: bool) -> Option<fd_smali::ResName> {
    let ids: Vec<_> = device
        .visible_widgets()
        .into_iter()
        .filter(|w| if inputs { w.kind.is_input() } else { w.clickable })
        .filter_map(|w| w.id)
        .collect();
    ids.get(rng.below(ids.len())).cloned()
}

#[test]
fn the_held_signature_matches_a_fresh_one_after_every_operation() {
    let mut reached = Reached::default();
    for seed in 0..48u64 {
        let (app, twin_app) = apps(seed);
        let activities: Vec<ClassName> =
            app.manifest.activities.iter().map(|d| d.name.clone()).collect();
        let fragments: Vec<ClassName> = app
            .classes
            .iter()
            .filter(|c| app.classes.is_fragment_class(c.name.as_str()))
            .map(|c| c.name.clone())
            .collect();
        // Every other seed runs on fault-armed devices; the twin shares
        // the fault seed, so both roll the same faults.
        let config = DeviceConfig {
            faults: (seed % 2 == 1).then(|| FaultConfig::new(seed, 0.05)),
            ..DeviceConfig::default()
        };
        let mut device = Device::with_config(app, config.clone());
        let mut twin = Device::with_config(twin_app, config);
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        assert_coherent(&device, "on a fresh device");
        for step in 0..300 {
            let op = match rng.below(14) {
                0 => Op::Launch,
                1..=5 => match pick(&device, &mut rng, false) {
                    Some(id) => Op::Click(id),
                    None => Op::Launch,
                },
                6 => match pick(&device, &mut rng, true) {
                    Some(id) => Op::EnterText { id, text: "secret".to_string() },
                    None => Op::Back,
                },
                7 => Op::Back,
                8 => Op::SwipeOpenDrawer,
                9 => Op::DismissOverlay,
                10 if !fragments.is_empty() => {
                    Op::ReflectSwitch(fragments[rng.below(fragments.len())].clone())
                }
                11 => {
                    device.reset();
                    twin.reset();
                    reached.resets += 1;
                    assert_coherent(&device, &format!("after reset (seed {seed}, step {step})"));
                    assert!(device.crash_site().is_none(), "reset clears the crash site");
                    continue;
                }
                _ => Op::ForceStart(activities[rng.below(activities.len())].clone()),
            };
            let before = device.signature();
            let depth = device.stack_depth();
            // Errors (no widget, not running, failed reflection, a
            // transient fault) are part of the walk: the device stays
            // where it is.
            let result = device.perform(&op);
            let twin_result = twin.perform(&op);
            let context = format!("after {op} (seed {seed}, step {step})");
            assert_coherent(&device, &context);
            assert_coherent(&twin, &context);
            reached.checks += 1;
            match &result {
                Ok(EventOutcome::Crashed { reason }) if reason == PLANTED => {
                    // The handler ran to its planted crash; the twin ran
                    // the same handler without it and settled where the
                    // crash struck.
                    reached.planted_crashes += 1;
                    assert!(twin_result.is_ok(), "the twin ran the handler {context}");
                    assert_eq!(device.crash_site(), twin.signature().as_ref(), "{context}");
                    // Bring the pair back into lockstep.
                    twin.reset();
                }
                Ok(EventOutcome::Crashed { reason }) => {
                    reached.other_crashes += 1;
                    assert_eq!(result, twin_result, "{context}");
                    assert_eq!(device.crash_site(), twin.crash_site(), "{context}");
                    if reason == fd_droidsim::faults::KILL_REASON {
                        // A killed process crashed before the event ran.
                        assert_eq!(device.crash_site(), before.as_ref(), "{context}");
                    }
                }
                _ => {
                    assert_eq!(result, twin_result, "the twin stays in lockstep {context}");
                    assert_eq!(device.signature(), twin.signature(), "{context}");
                }
            }
            if matches!(op, Op::Click(_)) && result.is_ok() && device.stack_depth() < depth {
                reached.finishes += 1;
            }
            if matches!(op, Op::ReflectSwitch(_))
                && matches!(result, Ok(EventOutcome::UiChanged { .. }))
            {
                reached.reflections += 1;
            }
            if let Some(sig) = device.signature() {
                reached.overlays += usize::from(sig.overlay.is_some());
                reached.drawers += usize::from(!sig.open_drawers.is_empty());
            }
        }
    }
    // The walk must actually reach every refresh point.
    assert!(reached.checks > 12_000, "operations checked: {}", reached.checks);
    assert!(reached.planted_crashes > 300, "planted crashes: {}", reached.planted_crashes);
    assert!(reached.other_crashes > 100, "other crashes: {}", reached.other_crashes);
    assert!(reached.finishes > 400, "finished activities: {}", reached.finishes);
    assert!(reached.overlays > 300, "states under an overlay: {}", reached.overlays);
    assert!(reached.drawers > 200, "states with an open drawer: {}", reached.drawers);
    assert!(reached.reflections > 200, "reflective switches: {}", reached.reflections);
    assert!(reached.resets > 800, "resets: {}", reached.resets);
}
