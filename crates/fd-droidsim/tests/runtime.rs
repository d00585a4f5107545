//! End-to-end runtime tests: a hand-built demo app exercising launch,
//! fragment transactions, drawers, dialogs, input gates, crashes,
//! reflection (including the paper's failure modes), forced starts and
//! sensitive-API attribution.

use fd_apk::{ActivityDecl, AndroidApp, Layout, Manifest, Widget, WidgetKind};
use fd_droidsim::{
    Caller, Device, DeviceConfig, DeviceError, EventOutcome, Op, Screen, TestScript,
};
use fd_smali::{
    well_known, ClassDef, ClassName, Cond, IntentTarget, MethodDef, MethodName, ResRef, Stmt,
};
use std::sync::Arc;

/// Builds the demo app:
///
/// * `Main` (launcher): layout with a hamburger (opens drawer), a drawer
///   holding `menu_news`/`menu_media` items that switch `NewsFragment` /
///   `MediaFragment` through the FragmentManager, a "go settings" button,
///   an "about" button that pops a dialog, `onCreate` attaches
///   `NewsFragment` and calls a location API.
/// * `NewsFragment`: layout with a button starting `DetailActivity`
///   (via host), its `onCreateView` calls an internet API.
/// * `MediaFragment`: calls a media API in `onCreateView`.
/// * `Settings`: a login gate (correct password → `Secret`), wrong →
///   dialog.
/// * `DetailActivity`: requires extra `"item"` (crashes without).
/// * `Secret`: plain.
/// * `Crashy`: crashes in a click handler.
fn demo_app() -> AndroidApp {
    let p = "com.demo";
    let cls = |n: &str| ClassName::new(format!("{p}.{n}"));

    let manifest = Manifest::new(p)
        .with_permission("android.permission.ACCESS_FINE_LOCATION")
        .with_activity(ActivityDecl::new(cls("Main")).launcher())
        .with_activity(ActivityDecl::new(cls("Settings")))
        .with_activity(ActivityDecl::new(cls("DetailActivity")))
        .with_activity(ActivityDecl::new(cls("Secret")))
        .with_activity(ActivityDecl::new(cls("Crashy")));

    let main_layout = Layout::new(
        "main",
        Widget::new(WidgetKind::Group)
            .with_child(Widget::new(WidgetKind::ImageButton).with_id("hamburger"))
            .with_child(
                Widget::new(WidgetKind::Button).with_id("go_settings").with_text("Settings"),
            )
            .with_child(Widget::new(WidgetKind::Button).with_id("about").with_text("About"))
            .with_child(Widget::new(WidgetKind::Button).with_id("go_crashy"))
            .with_child(
                Widget::new(WidgetKind::Drawer)
                    .with_id("drawer")
                    .with_child(
                        Widget::new(WidgetKind::TextView).with_id("menu_news").clickable(true),
                    )
                    .with_child(
                        Widget::new(WidgetKind::TextView).with_id("menu_media").clickable(true),
                    ),
            )
            .with_child(Widget::new(WidgetKind::FragmentContainer).with_id("content")),
    );
    let news_layout = Layout::new(
        "frag_news",
        Widget::new(WidgetKind::Group)
            .with_child(Widget::new(WidgetKind::Button).with_id("open_detail")),
    );
    let media_layout = Layout::new(
        "frag_media",
        Widget::new(WidgetKind::Group)
            .with_child(Widget::new(WidgetKind::TextView).with_id("media_label")),
    );
    let settings_layout = Layout::new(
        "settings",
        Widget::new(WidgetKind::Group)
            .with_child(Widget::new(WidgetKind::EditText).with_id("password"))
            .with_child(Widget::new(WidgetKind::Button).with_id("login")),
    );
    let detail_layout = Layout::new("detail", Widget::new(WidgetKind::Group));
    let secret_layout = Layout::new("secret", Widget::new(WidgetKind::Group));
    let crashy_layout = Layout::new(
        "crashy",
        Widget::new(WidgetKind::Group).with_child(Widget::new(WidgetKind::Button).with_id("boom")),
    );

    let main = ClassDef::new(cls("Main"), well_known::ACTIVITY)
        .with_method(
            MethodDef::new("onCreate")
                .push(Stmt::SetContentView(ResRef::layout("main")))
                .push(Stmt::InvokeApi { group: "location".into(), name: "getAllProviders".into() })
                .push(Stmt::GetFragmentManager { support: true })
                .push(Stmt::BeginTransaction)
                .push(Stmt::TxnAdd {
                    container: ResRef::id("content"),
                    fragment: cls("NewsFragment"),
                })
                .push(Stmt::TxnCommit)
                .push(Stmt::SetOnClick {
                    widget: ResRef::id("hamburger"),
                    handler: "onHamburger".into(),
                })
                .push(Stmt::SetOnClick {
                    widget: ResRef::id("menu_news"),
                    handler: "onMenuNews".into(),
                })
                .push(Stmt::SetOnClick {
                    widget: ResRef::id("menu_media"),
                    handler: "onMenuMedia".into(),
                })
                .push(Stmt::SetOnClick {
                    widget: ResRef::id("go_settings"),
                    handler: "onSettings".into(),
                })
                .push(Stmt::SetOnClick { widget: ResRef::id("about"), handler: "onAbout".into() })
                .push(Stmt::SetOnClick {
                    widget: ResRef::id("go_crashy"),
                    handler: "onCrashy".into(),
                }),
        )
        .with_method(
            MethodDef::new("onHamburger").push(Stmt::ToggleDrawer { drawer: ResRef::id("drawer") }),
        )
        .with_method(
            MethodDef::new("onMenuNews")
                .push(Stmt::GetFragmentManager { support: true })
                .push(Stmt::BeginTransaction)
                .push(Stmt::TxnReplace {
                    container: ResRef::id("content"),
                    fragment: cls("NewsFragment"),
                })
                .push(Stmt::TxnCommit)
                .push(Stmt::ToggleDrawer { drawer: ResRef::id("drawer") }),
        )
        .with_method(
            MethodDef::new("onMenuMedia")
                .push(Stmt::GetFragmentManager { support: true })
                .push(Stmt::BeginTransaction)
                .push(Stmt::TxnReplace {
                    container: ResRef::id("content"),
                    fragment: cls("MediaFragment"),
                })
                .push(Stmt::TxnCommit)
                .push(Stmt::ToggleDrawer { drawer: ResRef::id("drawer") }),
        )
        .with_method(
            MethodDef::new("onSettings")
                .push(Stmt::NewIntent(IntentTarget::Class(cls("Settings"))))
                .push(Stmt::StartActivity { via_host: false }),
        )
        .with_method(MethodDef::new("onAbout").push(Stmt::ShowDialog { id: "about".into() }))
        .with_method(
            MethodDef::new("onCrashy")
                .push(Stmt::NewIntent(IntentTarget::Class(cls("Crashy"))))
                .push(Stmt::StartActivity { via_host: false }),
        );

    let news = ClassDef::new(cls("NewsFragment"), well_known::SUPPORT_FRAGMENT)
        .with_method(
            MethodDef::new("onCreateView")
                .push(Stmt::InflateLayout(ResRef::layout("frag_news")))
                .push(Stmt::InvokeApi { group: "internet".into(), name: "connect".into() })
                .push(Stmt::SetOnClick {
                    widget: ResRef::id("open_detail"),
                    handler: "onOpenDetail".into(),
                }),
        )
        .with_method(
            MethodDef::new("onOpenDetail")
                .push(Stmt::NewIntent(IntentTarget::Class(cls("DetailActivity"))))
                .push(Stmt::PutExtra { key: "item".into(), value: "42".into() })
                .push(Stmt::StartActivity { via_host: true }),
        );

    let media = ClassDef::new(cls("MediaFragment"), well_known::SUPPORT_FRAGMENT).with_method(
        MethodDef::new("onCreateView")
            .push(Stmt::InflateLayout(ResRef::layout("frag_media")))
            .push(Stmt::InvokeApi { group: "media".into(), name: "Camera.startPreview".into() }),
    );

    let settings = ClassDef::new(cls("Settings"), well_known::ACTIVITY)
        .with_method(
            MethodDef::new("onCreate")
                .push(Stmt::SetContentView(ResRef::layout("settings")))
                .push(Stmt::SetOnClick { widget: ResRef::id("login"), handler: "onLogin".into() }),
        )
        .with_method(MethodDef::new("onLogin").push(Stmt::If {
            cond: Cond::InputEquals { field: ResRef::id("password"), expected: "hunter2".into() },
            then: vec![
                Stmt::NewIntent(IntentTarget::Class(cls("Secret"))),
                Stmt::StartActivity { via_host: false },
            ],
            els: vec![Stmt::ShowDialog { id: "wrong password".into() }],
        }));

    let detail = ClassDef::new(cls("DetailActivity"), well_known::ACTIVITY).with_method(
        MethodDef::new("onCreate")
            .push(Stmt::RequireExtra { key: "item".into() })
            .push(Stmt::SetContentView(ResRef::layout("detail"))),
    );

    let secret = ClassDef::new(cls("Secret"), well_known::ACTIVITY).with_method(
        MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("secret"))),
    );

    let crashy = ClassDef::new(cls("Crashy"), well_known::ACTIVITY)
        .with_method(
            MethodDef::new("onCreate")
                .push(Stmt::SetContentView(ResRef::layout("crashy")))
                .push(Stmt::SetOnClick { widget: ResRef::id("boom"), handler: "onBoom".into() }),
        )
        .with_method(
            MethodDef::new("onBoom").push(Stmt::Crash { reason: "NullPointerException".into() }),
        );

    let mut app = AndroidApp::new(manifest);
    for layout in [
        main_layout,
        news_layout,
        media_layout,
        settings_layout,
        detail_layout,
        secret_layout,
        crashy_layout,
    ] {
        app.layouts.insert(layout.name.clone(), Arc::new(layout));
    }
    for class in [main, news, media, settings, detail, secret, crashy] {
        app.classes.insert(class);
    }
    app.finalize_resources();
    assert!(app.validate().is_empty(), "demo app must be well-formed: {:?}", app.validate());
    app
}

fn launched() -> Device {
    let mut d = Device::new(demo_app());
    d.launch().expect("launch");
    d
}

#[test]
fn launch_attaches_initial_fragment_and_records_apis() {
    let d = launched();
    let sig = d.signature().expect("running");
    assert_eq!(sig.activity.as_str(), "com.demo.Main");
    assert_eq!(sig.fragments.get("content").unwrap().as_str(), "com.demo.NewsFragment");

    // onCreate's location call is attributed to the activity; the
    // fragment's onCreateView internet call to the fragment.
    let invs: Vec<_> = d.invocations().collect();
    assert!(invs.iter().any(|i| i.group == "location"
        && matches!(&i.caller, Caller::Activity(a) if a.as_str() == "com.demo.Main")));
    assert!(invs.iter().any(|i| i.group == "internet"
        && matches!(&i.caller, Caller::Fragment { fragment, host }
            if fragment.as_str() == "com.demo.NewsFragment" && host.as_str() == "com.demo.Main")));
}

#[test]
fn relaunching_shares_layouts_instead_of_copying_them() {
    let mut d = launched();
    let first = d.current().expect("running").clone();
    d.launch().expect("relaunch");
    let second = d.current().expect("running");
    let layout = |s: &Screen| s.layout.clone().expect("main inflated");
    let pane = |s: &Screen| s.fragments["content"].layout.clone().expect("news inflated");
    assert!(Arc::ptr_eq(&layout(&first), &layout(second)), "activity layout deep-cloned");
    assert!(Arc::ptr_eq(&pane(&first), &pane(second)), "fragment layout deep-cloned");
}

#[test]
fn installing_and_inflating_share_the_apps_own_layouts() {
    let app = demo_app();
    let mut d = Device::new(app.clone());
    d.launch().expect("launch");
    let screen = d.current().expect("running");
    let main = screen.layout.clone().expect("main inflated");
    let news = screen.fragments["content"].layout.clone().expect("news inflated");
    for (inflated, name) in [(&main, main.name.as_str()), (&news, news.name.as_str())] {
        assert!(Arc::ptr_eq(inflated, &d.app().layouts[name]), "{name}: not the installed app's");
        assert!(Arc::ptr_eq(inflated, &app.layouts[name]), "{name}: copied at install");
    }
}

#[test]
fn hidden_drawer_items_are_unreachable_until_opened() {
    let mut d = launched();
    assert!(matches!(d.click("menu_media"), Err(DeviceError::NoSuchWidget(_))));
    let out = d.click("hamburger").unwrap();
    assert!(out.changed_ui(), "drawer toggle changes UI state: {out:?}");
    let out = d.click("menu_media").unwrap();
    let EventOutcome::UiChanged { to, .. } = out else { panic!("expected change, got {out:?}") };
    assert_eq!(to.fragments.get("content").unwrap().as_str(), "com.demo.MediaFragment");
    // The media fragment's sensitive call was recorded with fragment attribution.
    assert!(d.invocations().any(|i| i.group == "media" && i.caller.is_fragment()));
}

#[test]
fn swipe_also_opens_the_drawer() {
    let mut d = launched();
    let out = d.swipe_open_drawer().unwrap();
    assert!(out.changed_ui());
    assert!(d.current().unwrap().visible_widget("menu_news").is_some());
}

#[test]
fn fragment_handler_starts_activity_via_host() {
    let mut d = launched();
    let out = d.click("open_detail").unwrap();
    let EventOutcome::UiChanged { to, .. } = out else { panic!("{out:?}") };
    assert_eq!(to.activity.as_str(), "com.demo.DetailActivity");
    assert_eq!(d.stack_depth(), 2);
}

#[test]
fn dialog_blocks_then_dismisses() {
    let mut d = launched();
    let out = d.click("about").unwrap();
    assert_eq!(out, EventOutcome::OverlayShown);
    // Everything else is masked.
    assert!(matches!(d.click("go_settings"), Err(DeviceError::NoSuchWidget(_))));
    let out = d.dismiss_overlay().unwrap();
    assert!(out.changed_ui());
    assert!(d.click("go_settings").unwrap().changed_ui());
}

#[test]
fn login_gate_requires_exact_input() {
    let mut d = launched();
    d.click("go_settings").unwrap();
    // Wrong password → dialog.
    d.enter_text("password", "abc").unwrap();
    assert_eq!(d.click("login").unwrap(), EventOutcome::OverlayShown);
    d.dismiss_overlay().unwrap();
    // Correct password → Secret.
    d.enter_text("password", "hunter2").unwrap();
    let EventOutcome::UiChanged { to, .. } = d.click("login").unwrap() else { panic!() };
    assert_eq!(to.activity.as_str(), "com.demo.Secret");
}

#[test]
fn entering_text_into_non_input_fails() {
    let mut d = launched();
    assert!(matches!(d.enter_text("about", "x"), Err(DeviceError::NotEditable(_))));
    assert!(matches!(d.enter_text("ghost", "x"), Err(DeviceError::NoSuchWidget(_))));
}

#[test]
fn crash_kills_process_and_restart_recovers() {
    let mut d = launched();
    d.click("go_crashy").unwrap();
    let out = d.click("boom").unwrap();
    assert!(matches!(out, EventOutcome::Crashed { ref reason } if reason.contains("NullPointer")));
    assert!(d.is_crashed());
    assert!(d.current().is_none());
    assert!(matches!(d.click("boom"), Err(DeviceError::NotRunning)));
    d.launch().unwrap();
    assert!(!d.is_crashed());
    assert_eq!(d.signature().unwrap().activity.as_str(), "com.demo.Main");
}

#[test]
fn back_pops_overlay_then_drawer_then_activity() {
    let mut d = launched();
    d.click("go_settings").unwrap();
    assert_eq!(d.stack_depth(), 2);
    // Back pops the settings screen.
    d.back().unwrap();
    assert_eq!(d.signature().unwrap().activity.as_str(), "com.demo.Main");
    // Open drawer; back closes it before popping the activity.
    d.click("hamburger").unwrap();
    d.back().unwrap();
    assert_eq!(d.stack_depth(), 1);
    assert!(d.current().unwrap().open_drawers.is_empty());
    // Dialog; back dismisses it first.
    d.click("about").unwrap();
    d.back().unwrap();
    assert_eq!(d.stack_depth(), 1);
    assert!(d.current().unwrap().overlay.is_none());
}

#[test]
fn am_start_requires_main_action_rewrite() {
    let mut d = launched();
    // Without the rewrite only the launcher has a MAIN action.
    assert!(matches!(d.am_start("com.demo.Secret"), Err(DeviceError::NotForceStartable(_))));

    // Apply FragDroid's manifest rewrite and retry.
    let mut app = demo_app();
    app.manifest.add_main_action_everywhere();
    let mut d = Device::new(app);
    let out = d.am_start("com.demo.Secret").unwrap();
    assert!(out.changed_ui());
    assert_eq!(d.signature().unwrap().activity.as_str(), "com.demo.Secret");

    // DetailActivity needs an intent extra: the empty forced intent FCs —
    // the paper's "this operation does not take the context and Intent
    // into account".
    let out = d.am_start("com.demo.DetailActivity").unwrap();
    assert!(matches!(out, EventOutcome::Crashed { .. }));
}

#[test]
fn reflection_switches_unvisited_fragment() {
    let mut d = launched();
    let out = d.reflect_switch_fragment("com.demo.MediaFragment").unwrap();
    let EventOutcome::UiChanged { to, .. } = out else { panic!("{out:?}") };
    assert_eq!(to.fragments.get("content").unwrap().as_str(), "com.demo.MediaFragment");
}

#[test]
fn reflection_failure_modes() {
    // Unknown class / not a fragment.
    let mut d = launched();
    assert!(matches!(
        d.reflect_switch_fragment("com.demo.Nope"),
        Err(DeviceError::ReflectionFailed {
            why: fd_droidsim::error::ReflectError::UnknownClass,
            ..
        })
    ));
    assert!(matches!(
        d.reflect_switch_fragment("com.demo.Settings"),
        Err(DeviceError::ReflectionFailed {
            why: fd_droidsim::error::ReflectError::NotAFragment,
            ..
        })
    ));

    // The zara case: ctor with parameters.
    let mut app = demo_app();
    app.classes.insert(
        ClassDef::new("com.demo.ParamFragment", well_known::SUPPORT_FRAGMENT)
            .with_method(MethodDef::new(MethodName::ctor()).with_param("java.lang.String")),
    );
    let mut d = Device::new(app);
    d.launch().unwrap();
    assert!(matches!(
        d.reflect_switch_fragment("com.demo.ParamFragment"),
        Err(DeviceError::ReflectionFailed {
            why: fd_droidsim::error::ReflectError::MissingCtorParameters,
            ..
        })
    ));

    // The dubsmash case: host activity never obtains a FragmentManager.
    let mut app = demo_app();
    let direct = ClassDef::new("com.demo.DirectHost", well_known::ACTIVITY).with_method(
        MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("main"))).push(
            Stmt::AttachDirect {
                container: ResRef::id("content"),
                fragment: "com.demo.MediaFragment".into(),
            },
        ),
    );
    app.classes.insert(direct);
    app.manifest.activities.push(ActivityDecl::new("com.demo.DirectHost").launcher());
    // Make DirectHost the launcher by removing Main's launcher filter.
    app.manifest.activities[0].intent_filters.clear();
    let mut d = Device::new(app);
    d.launch().unwrap();
    assert_eq!(d.signature().unwrap().activity.as_str(), "com.demo.DirectHost");
    // The direct-attached fragment is visible but not via a manager.
    assert!(!d.current().unwrap().fragments["content"].via_manager);
    assert!(matches!(
        d.reflect_switch_fragment("com.demo.NewsFragment"),
        Err(DeviceError::ReflectionFailed {
            why: fd_droidsim::error::ReflectError::NoFragmentManager,
            ..
        })
    ));
}

#[test]
fn denied_permission_crashes_the_gated_app() {
    let mut app = demo_app();
    // Gate Main's onCreate on a permission.
    let main = app.classes.get("com.demo.Main").unwrap().clone();
    let mut gated = main.clone();
    gated.methods[0].body.insert(
        0,
        Stmt::RequirePermission { permission: "android.permission.ACCESS_FINE_LOCATION".into() },
    );
    app.classes.insert(gated);

    // Granted (default): launches fine.
    let mut ok = Device::new(app.clone());
    assert!(ok.launch().unwrap().changed_ui());

    // Denied: FC at launch — the paper's permission-failure apps.
    let mut config = DeviceConfig::default();
    config.denied_permissions.insert("android.permission.ACCESS_FINE_LOCATION".into());
    let mut denied = Device::with_config(app, config);
    assert!(matches!(denied.launch().unwrap(), EventOutcome::Crashed { .. }));
}

#[test]
fn script_runner_reports_steps_and_stops_on_crash() {
    let mut d = Device::new(demo_app());
    let script = TestScript::new(
        "reach crashy and boom",
        vec![
            Op::Launch,
            Op::Click("go_crashy".into()),
            Op::Click("boom".into()),
            Op::Click("never_reached".into()),
        ],
    );
    let report = fd_droidsim::script::run_script(&mut d, &script);
    assert!(report.crashed);
    assert_eq!(report.steps.len(), 3, "execution stops at the crash");
    assert!(!report.is_clean());
    assert_eq!(report.final_signature, None);

    // A clean run reports every step and the final signature.
    let script =
        TestScript::new("reach settings", vec![Op::Launch, Op::Click("go_settings".into())]);
    let report = fd_droidsim::script::run_script(&mut d, &script);
    assert!(report.is_clean());
    assert_eq!(report.final_signature.unwrap().activity.as_str(), "com.demo.Settings");
}

#[test]
fn checkbox_toggles_its_state() {
    let mut app = demo_app();
    let layout = Layout::new(
        "boxed",
        Widget::new(WidgetKind::Group).with_child(Widget::new(WidgetKind::CheckBox).with_id("opt")),
    );
    app.layouts.insert("boxed".into(), Arc::new(layout));
    app.classes.insert(ClassDef::new("com.demo.Boxed", well_known::ACTIVITY).with_method(
        MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("boxed"))),
    ));
    app.manifest.activities.push(ActivityDecl::new("com.demo.Boxed").launcher());
    app.manifest.activities[0].intent_filters.clear();
    let mut d = Device::new(app);
    d.launch().unwrap();
    d.click("opt").unwrap();
    assert_eq!(d.current().unwrap().inputs.get("opt").map(String::as_str), Some("true"));
    d.click("opt").unwrap();
    assert_eq!(d.current().unwrap().inputs.get("opt").map(String::as_str), Some(""));
}

#[test]
fn pack_install_roundtrip_behaves_identically() {
    // Install through the container: decompile → same runtime behaviour.
    let bytes = fd_apk::pack(&demo_app());
    let mut d = Device::install(&bytes).expect("install");
    d.launch().unwrap();
    let sig = d.signature().unwrap();
    assert_eq!(sig.activity.as_str(), "com.demo.Main");
    assert_eq!(sig.fragments.len(), 1);
}
