//! End-to-end exploration tests: FragDroid on the template apps and on
//! hand-built apps exercising every case of §VI.

use fd_appgen::{templates, ActivitySpec, AppBuilder, FragmentSpec, GatedLink};
use fd_droidsim::Caller;
use fragdroid::{FragDroid, FragDroidConfig};

fn run(gen: &fd_appgen::GeneratedApp) -> fragdroid::RunReport {
    FragDroid::new(FragDroidConfig::default()).run(&gen.app, &gen.known_inputs)
}

#[test]
fn quickstart_reaches_everything() {
    let gen = templates::quickstart();
    let report = run(&gen);
    assert_eq!(report.activity_coverage().visited, 3, "{:?}", report.visited_activities);
    assert_eq!(report.fragment_coverage().visited, 2, "{:?}", report.visited_fragments);
    assert_eq!(report.activity_coverage().rate(), 100.0);
}

#[test]
fn fig1_tabs_both_fragments_visited() {
    let gen = templates::tabbed_categories();
    let report = run(&gen);
    assert_eq!(report.fragment_coverage().visited, 2);
    // The Detail activity behind the CategoryFragment's button is reached,
    // proving fragment-internal widgets are exercised.
    assert!(report.visited_activities.contains("fig1.manga.Detail"));
}

#[test]
fn fig2_hidden_drawer_fragments_visited() {
    let gen = templates::nav_drawer_wallpapers();
    let report = run(&gen);
    assert_eq!(
        report.fragment_coverage().visited,
        2,
        "drawer-only fragments must be reached: {:?}",
        report.visited_fragments
    );
}

#[test]
fn unknown_gate_blocks_and_forced_start_crashes() {
    // Gated behind an unknown secret AND requiring an extra: unreachable
    // by both clicking and forced start.
    let gen = AppBuilder::new("t.blocked")
        .activity(ActivitySpec::new("Main").launcher().gate(GatedLink {
            target: "Vault".into(),
            secret: "you'll never guess".into(),
            input_known: false,
        }))
        .activity(ActivitySpec::new("Vault").requires_extra("token"))
        .build();
    let report = run(&gen);
    assert!(!report.visited_activities.contains("t.blocked.Vault"));
    assert_eq!(report.activity_coverage().visited, 1);
    assert_eq!(report.activity_coverage().sum, 2);
    assert!(report.crashes >= 1, "the forced start must have crashed");
}

#[test]
fn forced_start_rescues_gated_activity_without_extras() {
    // Unknown secret but NO required extra: normal clicking fails, the
    // §VI-C forced start succeeds.
    let gen = AppBuilder::new("t.rescue")
        .activity(ActivitySpec::new("Main").launcher().gate(GatedLink {
            target: "Hidden".into(),
            secret: "nope".into(),
            input_known: false,
        }))
        .activity(ActivitySpec::new("Hidden").initial_fragment("HiddenFrag"))
        .fragment(FragmentSpec::new("HiddenFrag"))
        .build();
    let report = run(&gen);
    assert!(report.visited_activities.contains("t.rescue.Hidden"));
    // Its fragment gets visited too, through the forced start's onCreate.
    assert!(report.visited_fragments.contains("t.rescue.HiddenFrag"));

    // Ablation: without the forced-start phase the activity stays hidden.
    let ablated = FragDroid::new(FragDroidConfig::default().without_force_start())
        .run(&gen.app, &gen.known_inputs);
    assert!(!ablated.visited_activities.contains("t.rescue.Hidden"));
}

#[test]
fn reflection_reaches_dead_code_fragment() {
    // A fragment referenced only from a method no widget triggers:
    // clicking can never reach it; reflection can.
    let gen = AppBuilder::new("t.refl")
        .activity(
            ActivitySpec::new("Main")
                .launcher()
                .initial_fragment("Visible")
                .hidden_fragment("Hidden"),
        )
        .fragment(FragmentSpec::new("Visible"))
        .fragment(FragmentSpec::new("Hidden"))
        .build();
    let report = run(&gen);
    assert!(report.visited_fragments.contains("t.refl.Hidden"));

    let ablated = FragDroid::new(FragDroidConfig::default().without_reflection())
        .run(&gen.app, &gen.known_inputs);
    assert!(
        !ablated.visited_fragments.contains("t.refl.Hidden"),
        "without reflection the hidden fragment must stay unvisited"
    );
}

#[test]
fn zara_style_ctor_args_defeat_reflection() {
    let gen = AppBuilder::new("t.zara")
        .activity(
            ActivitySpec::new("Main")
                .launcher()
                .initial_fragment("Visible")
                .hidden_fragment("Param"),
        )
        .fragment(FragmentSpec::new("Visible"))
        .fragment(FragmentSpec::new("Param").ctor_requires_args())
        .build();
    let report = run(&gen);
    assert!(!report.visited_fragments.contains("t.zara.Param"));
    assert_eq!(report.fragment_coverage().sum, 2);
    assert_eq!(report.fragment_coverage().visited, 1);
}

#[test]
fn dubsmash_style_direct_loads_are_not_confirmed() {
    let gen = AppBuilder::new("t.dub")
        .activity(ActivitySpec::new("Main").launcher().direct_fragment("Raw"))
        .fragment(FragmentSpec::new("Raw"))
        .build();
    let report = run(&gen);
    assert_eq!(
        report.fragment_coverage().visited,
        0,
        "direct-attached fragments cannot be confirmed via the FragmentManager"
    );
    assert_eq!(report.fragment_coverage().sum, 1, "static analysis still finds it");
}

#[test]
fn known_inputs_open_gates_and_ablation_closes_them() {
    let gen = templates::quickstart();
    let report = run(&gen);
    assert!(report.visited_activities.contains("com.example.quickstart.Account"));

    let ablated = FragDroid::new(FragDroidConfig::default().without_input_deps())
        .run(&gen.app, &gen.known_inputs);
    assert!(
        !ablated
            .visited_activities
            .contains("com.example.quickstart.Account"),
        "without input deps the login gate stays shut (Account requires an extra, so forced start FCs)"
    );
}

#[test]
fn api_attribution_covers_both_levels() {
    let gen = templates::quickstart();
    let report = run(&gen);
    // Main's phone API is activity-attributed; the fragments' APIs are
    // fragment-attributed.
    assert!(report.api_invocations.iter().any(|i| i.group == "phone"
        && matches!(&i.caller, Caller::Activity(a) if a.as_str().ends_with(".Main"))));
    assert!(report.api_invocations.iter().any(|i| i.group == "location"
        && matches!(&i.caller, Caller::Fragment { fragment, .. }
            if fragment.as_str().ends_with(".StatsFragment"))));
    let (total, frag_assoc, _) = report.api_relation_counts();
    assert!(total >= 3);
    assert!(frag_assoc >= 2);
}

#[test]
fn evolved_aftm_marks_visited_nodes_and_gains_edges() {
    let gen = templates::quickstart();
    let report = run(&gen);
    let initial_edges = report.static_info.aftm.edges().count();
    let final_edges = report.aftm.edges().count();
    assert!(final_edges >= initial_edges, "evolution only adds");
    // Every visited activity is marked in the final AFTM.
    for a in &report.visited_activities {
        assert!(report.aftm.is_visited(&fd_aftm::NodeId::Activity(a.clone())), "{a}");
    }
}

#[test]
fn event_budget_is_respected() {
    let gen = templates::quickstart();
    let tiny = FragDroidConfig { event_budget: 10, ..FragDroidConfig::default() };
    let report = FragDroid::new(tiny).run(&gen.app, &gen.known_inputs);
    assert!(report.events_injected <= 10);
}

#[test]
fn run_apk_decompiles_then_runs() {
    let gen = templates::quickstart();
    let bytes = fd_apk::pack(&gen.app);
    let report = FragDroid::new(FragDroidConfig::default())
        .run_apk(&bytes, &gen.known_inputs)
        .expect("decompile + run");
    assert_eq!(report.activity_coverage().visited, 3);

    // Packed apps refuse analysis, as in the paper's dataset filtering.
    let mut packed_app = gen.app.clone();
    packed_app.meta.packed = true;
    let packed_bytes = fd_apk::pack(&packed_app);
    assert!(FragDroid::new(FragDroidConfig::default())
        .run_apk(&packed_bytes, &gen.known_inputs)
        .is_err());
}

#[test]
fn deterministic_runs() {
    let gen = templates::quickstart();
    let a = run(&gen);
    let b = run(&gen);
    assert_eq!(a.visited_activities, b.visited_activities);
    assert_eq!(a.visited_fragments, b.visited_fragments);
    assert_eq!(a.events_injected, b.events_injected);
    assert_eq!(a.api_invocations, b.api_invocations);
}

#[test]
fn scripts_and_timeline_are_recorded() {
    let gen = templates::quickstart();
    let report = run(&gen);
    assert_eq!(report.scripts.len(), report.test_cases_run);
    assert_eq!(report.scripts[0].name, "entry");
    // The timeline is sampled at every new visit and is monotone in all
    // three components.
    assert!(!report.timeline.is_empty());
    for w in report.timeline.windows(2) {
        assert!(w[0].0 <= w[1].0, "events monotone");
        assert!(w[0].1 <= w[1].1 && w[0].2 <= w[1].2, "coverage monotone");
    }
    let last = report.timeline.last().unwrap();
    assert_eq!(last.1, report.visited_activities.len());
    assert_eq!(last.2, report.visited_fragments.len());
}

#[test]
fn robotium_java_is_emitted_for_the_whole_run() {
    let gen = AppBuilder::new("t.java")
        .activity(
            ActivitySpec::new("Main")
                .launcher()
                .initial_fragment("Visible")
                .hidden_fragment("Hidden"),
        )
        .fragment(FragmentSpec::new("Visible"))
        .fragment(FragmentSpec::new("Hidden"))
        .build();
    let report = run(&gen);
    let java = report.to_robotium_java();
    assert!(java.starts_with("package t.java.test;"));
    // The hidden fragment needed reflection, so the §VI-B template shows up.
    assert!(java.contains("getSupportFragmentManager"), "reflection template:\n{java}");
    assert!(java.contains("Class.forName(\"t.java.Hidden\")"));
    // Every executed test case became a method.
    assert_eq!(java.matches("public void test").count(), report.test_cases_run);
}

#[test]
fn target_api_mode_stops_early_with_a_witness_script() {
    // The media API only fires in the drawer-hidden MediaFragment-like
    // flow of fig2's FavoritesFragment (storage/sdcard).
    let gen = templates::nav_drawer_wallpapers();
    let full = run(&gen);
    let targeted = FragDroid::new(FragDroidConfig::default().find_api("storage", "sdcard"))
        .run(&gen.app, &gen.known_inputs);
    // The target was found…
    assert!(targeted.api_invocations.iter().any(|i| i.name == "sdcard"));
    // …with no more work than the full run.
    assert!(targeted.events_injected <= full.events_injected);
    // The last executed script is a concrete witness an analyst can replay.
    assert!(!targeted.scripts.is_empty());

    // A target that never fires degrades to the full run.
    let missing = FragDroid::new(FragDroidConfig::default().find_api("ipc", "Binder"))
        .run(&gen.app, &gen.known_inputs);
    assert!(!missing.api_invocations.iter().any(|i| i.group == "ipc"));
    assert_eq!(missing.visited_fragments, full.visited_fragments);
}

#[test]
fn evolution_delta_counts_dynamic_discoveries() {
    let gen = templates::quickstart();
    let report = run(&gen);
    let delta = report.evolution_delta();
    // Everything visited is newly visited (the static model marks nothing).
    assert_eq!(
        delta.newly_visited.len(),
        report.visited_activities.len() + report.visited_fragments.len()
    );
    // Nothing statically known was lost; the delta only adds.
    for node in &delta.added_nodes {
        assert!(report.aftm.contains(node));
    }
}

#[test]
fn launcherless_app_is_still_explored_through_forced_starts() {
    // No launcher activity at all: normal launching fails, but the
    // manifest rewrite lets the §VI-C phase force-start every activity.
    // Side is statically linked (a gate) so it stays effective, but the
    // secret is unknown — only a forced start can reach it.
    let mut gen = AppBuilder::new("t.nolaunch")
        .activity(ActivitySpec::new("Main").initial_fragment("F").gate(GatedLink {
            target: "Side".into(),
            secret: "???".into(),
            input_known: false,
        }))
        .activity(ActivitySpec::new("Side"))
        .fragment(FragmentSpec::new("F"))
        .build();
    // Strip all launcher filters.
    for decl in &mut gen.app.manifest.activities {
        decl.intent_filters.clear();
    }
    let report = run(&gen);
    assert_eq!(report.activity_coverage().visited, 2, "{:?}", report.visited_activities);
    assert!(report.visited_fragments.contains("t.nolaunch.F"));

    // Without the forced-start phase nothing at all is reachable.
    let ablated = FragDroid::new(FragDroidConfig::default().without_force_start())
        .run(&gen.app, &gen.known_inputs);
    assert_eq!(ablated.visited_activities.len(), 0);
}

#[test]
fn sweep_recovers_from_mid_sweep_crashes() {
    // Main has a crashing button alphabetically between two good ones;
    // Case-3 recovery must restart and keep sweeping, so both targets
    // behind the good buttons are reached despite the FC in between.
    use fd_smali::{MethodDef, Stmt};
    let gen = AppBuilder::new("t.crashy")
        .activity(ActivitySpec::new("Main").launcher().button_to("Alpha").button_to("Zeta"))
        .activity(ActivitySpec::new("Alpha"))
        .activity(ActivitySpec::new("Zeta"))
        .build();
    let mut app = gen.app;
    // Inject a crash button wired in Main's onCreate.
    let mut main = app.classes.get("t.crashy.Main").unwrap().clone();
    main.methods[0]
        .body
        .push(Stmt::SetOnClick { widget: fd_smali::ResRef::id("boom"), handler: "onBoom".into() });
    main = main
        .with_method(MethodDef::new("onBoom").push(Stmt::Crash { reason: "mid-sweep NPE".into() }));
    app.classes.insert(main);
    let layout = std::sync::Arc::make_mut(app.layouts.get_mut("lay_main").unwrap());
    layout.root.children.insert(1, fd_apk::Widget::new(fd_apk::WidgetKind::Button).with_id("boom"));

    let report = FragDroid::new(FragDroidConfig::default()).run(&app, &gen.known_inputs);
    assert!(report.crashes >= 1, "the crash button fired");
    assert!(report.visited_activities.contains("t.crashy.Alpha"));
    assert!(report.visited_activities.contains("t.crashy.Zeta"), "sweep resumed after the FC");
    assert_eq!(report.activity_coverage().rate(), 100.0);
}

#[test]
fn max_test_cases_bounds_the_run() {
    let gen = templates::quickstart();
    let capped = FragDroidConfig { max_test_cases: 3, ..FragDroidConfig::default() };
    let report = FragDroid::new(capped).run(&gen.app, &gen.known_inputs);
    assert!(report.test_cases_run <= 3);
    assert_eq!(report.scripts.len(), report.test_cases_run);
}

#[test]
fn harvested_inputs_open_ui_leaked_gates() {
    // The app shows its own access code in a TextView (onboarding-style
    // leak); nobody filled an input file. The §VIII extension harvests
    // the string and opens the gate.
    let gen = AppBuilder::new("t.hint")
        .activity(ActivitySpec::new("Main").launcher().hinted_gate(GatedLink {
            target: "Vault".into(),
            secret: "ACCESS-2018".into(),
            input_known: false,
        }))
        .activity(ActivitySpec::new("Vault").requires_extra("session"))
        .build();
    assert!(gen.known_inputs.is_empty());

    // Baseline FragDroid: gate shut, forced start FCs → unvisited.
    let plain = run(&gen);
    assert!(!plain.visited_activities.contains("t.hint.Vault"));

    // With harvesting: the leaked string opens the gate.
    let harvesting = FragDroid::new(FragDroidConfig::default().with_input_harvesting())
        .run(&gen.app, &gen.known_inputs);
    assert!(
        harvesting.visited_activities.contains("t.hint.Vault"),
        "harvested UI string must open the gate: {:?}",
        harvesting.visited_activities
    );
}
