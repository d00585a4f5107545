//! Property tests: the device never panics and keeps its invariants under
//! arbitrary event sequences on arbitrary generated apps.

use fd_droidsim::{Device, EventOutcome};
use proptest::prelude::*;

/// An abstract random event; widget indices are resolved against whatever
/// is on screen when the event fires.
#[derive(Clone, Debug)]
enum Ev {
    Launch,
    ClickNth(usize),
    TypeNth(usize, String),
    Back,
    Swipe,
    Dismiss,
    ReflectNth(usize),
    ForceNth(usize),
}

fn event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        1 => Just(Ev::Launch),
        6 => (0usize..12).prop_map(Ev::ClickNth),
        2 => ((0usize..6), "[a-z]{0,8}").prop_map(|(i, s)| Ev::TypeNth(i, s)),
        2 => Just(Ev::Back),
        1 => Just(Ev::Swipe),
        1 => Just(Ev::Dismiss),
        1 => (0usize..6).prop_map(Ev::ReflectNth),
        1 => (0usize..8).prop_map(Ev::ForceNth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No event sequence can panic the device, and after every event the
    /// basic invariants hold: a crashed device has no current screen, a
    /// running one has a signature consistent with its top screen, and the
    /// monitor's relation view stays a subset of its sequence view.
    #[test]
    fn device_survives_arbitrary_event_storms(
        seed in 0u64..32,
        events in prop::collection::vec(event(), 0..120),
    ) {
        let gen = fd_appgen::random::generate(
            "storm.app",
            &fd_appgen::random::GenConfig::default(),
            seed,
        );
        // Include the manifest rewrite so ForceStart events are plausible.
        let mut app = gen.app;
        app.manifest.add_main_action_everywhere();
        let activities: Vec<String> =
            app.manifest.activities.iter().map(|d| d.name.as_str().to_string()).collect();
        let fragments: Vec<String> = app
            .classes
            .iter()
            .filter(|c| app.classes.is_fragment_class(c.name.as_str()))
            .map(|c| c.name.as_str().to_string())
            .collect();

        let mut device = Device::new(app);
        let _ = device.launch();

        for ev in events {
            let widgets: Vec<_> = device
                .visible_widgets()
                .into_iter()
                .filter_map(|w| w.id)
                .collect();
            let result: Result<EventOutcome, _> = match ev {
                Ev::Launch => device.launch(),
                Ev::ClickNth(i) if !widgets.is_empty() => {
                    device.click(&widgets[i % widgets.len()])
                }
                Ev::TypeNth(i, text) if !widgets.is_empty() => device
                    .enter_text(&widgets[i % widgets.len()], &text)
                    .map(|()| EventOutcome::NoChange),
                Ev::Back => device.back(),
                Ev::Swipe => device.swipe_open_drawer(),
                Ev::Dismiss => device.dismiss_overlay(),
                Ev::ReflectNth(i) if !fragments.is_empty() => {
                    device.reflect_switch_fragment(&fragments[i % fragments.len()])
                }
                Ev::ForceNth(i) if !activities.is_empty() => {
                    device.am_start(&activities[i % activities.len()])
                }
                _ => continue,
            };
            let _ = result;

            // Invariants.
            if device.is_crashed() {
                prop_assert!(device.current().is_none(), "crashed device shows a screen");
                prop_assert_eq!(device.stack_depth(), 0);
            }
            if let Some(sig) = device.signature() {
                let screen = device.current().expect("signature implies screen");
                prop_assert_eq!(&sig.activity, &screen.activity);
            }
            prop_assert!(
                device.monitor().invocations().count() <= device.monitor().sequence().len(),
                "relation view larger than sequence view"
            );
        }
    }

    /// Event handling is deterministic: the same storm twice produces the
    /// same final state and the same monitor sequence.
    #[test]
    fn device_is_deterministic(
        seed in 0u64..16,
        events in prop::collection::vec(event(), 0..60),
    ) {
        let gen = fd_appgen::random::generate(
            "det.app",
            &fd_appgen::random::GenConfig::default(),
            seed,
        );
        let run = |app: fd_apk::AndroidApp| {
            let mut device = Device::new(app);
            let _ = device.launch();
            for ev in &events {
                let widgets: Vec<_> =
                    device.visible_widgets().into_iter().filter_map(|w| w.id).collect();
                match ev {
                    Ev::Launch => { let _ = device.launch(); }
                    Ev::ClickNth(i) if !widgets.is_empty() => {
                        let _ = device.click(&widgets[i % widgets.len()]);
                    }
                    Ev::TypeNth(i, text) if !widgets.is_empty() => {
                        let _ = device.enter_text(&widgets[i % widgets.len()], text);
                    }
                    Ev::Back => { let _ = device.back(); }
                    Ev::Swipe => { let _ = device.swipe_open_drawer(); }
                    Ev::Dismiss => { let _ = device.dismiss_overlay(); }
                    _ => {}
                }
            }
            (device.signature(), device.monitor().sequence().to_vec())
        };
        let a = run(gen.app.clone());
        let b = run(gen.app);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any recorded random session replays faithfully on a fresh device —
    /// the foundation of both the R&R baseline and FragDroid's re-reach.
    #[test]
    fn recorded_sessions_replay_faithfully(
        seed in 0u64..24,
        picks in prop::collection::vec((0usize..10, "[a-z]{0,6}"), 0..40),
    ) {
        let gen = fd_appgen::random::generate(
            "rr.app",
            &fd_appgen::random::GenConfig::default(),
            seed,
        );
        let mut rec = fd_droidsim::Recorder::new(Device::new(gen.app.clone()));
        let _ = rec.step(fd_droidsim::Op::Launch);
        for (i, text) in picks {
            let widgets: Vec<_> = rec
                .device()
                .visible_widgets()
                .into_iter()
                .filter(|w| w.clickable || w.kind == fd_apk::WidgetKind::EditText)
                .filter_map(|w| w.id.map(|id| (id, w.kind)))
                .collect();
            if widgets.is_empty() {
                let _ = rec.step(fd_droidsim::Op::Back);
                continue;
            }
            let (id, kind) = widgets[i % widgets.len()].clone();
            let op = if kind == fd_apk::WidgetKind::EditText && !text.is_empty() {
                fd_droidsim::Op::EnterText { id, text }
            } else {
                fd_droidsim::Op::Click(id)
            };
            let _ = rec.step(op);
            if rec.device().is_crashed() {
                break;
            }
        }
        let trace = rec.finish();
        let mut fresh = Device::new(gen.app);
        prop_assert_eq!(
            fd_droidsim::replay(&mut fresh, &trace),
            fd_droidsim::ReplayOutcome::Faithful
        );
    }
}
