//! Edge-case runtime tests: multi-pane + reflection interplay, mixed
//! navigation (drawer and tabs in one activity), deep chains, intent
//! extra flow, and stack boundary conditions.

use fd_appgen::{ActivitySpec, AppBuilder, FragmentSpec};
use fd_droidsim::{Device, DeviceError, EventOutcome};
use std::sync::Arc;

#[test]
fn reflection_prefers_the_container_that_mentions_the_fragment() {
    // Two panes; the hidden fragment's dead-code switch targets the main
    // container. Reflection must land it in the container its transaction
    // names, not the first pane.
    let gen = AppBuilder::new("ec.panes")
        .activity(
            ActivitySpec::new("Main")
                .launcher()
                .pane("Left")
                .pane("Right")
                .hidden_fragment("Extra"),
        )
        .fragment(FragmentSpec::new("Left"))
        .fragment(FragmentSpec::new("Right"))
        .fragment(FragmentSpec::new("Extra"))
        .build();
    let mut d = Device::new(gen.app);
    d.launch().unwrap();
    assert_eq!(d.signature().unwrap().fragments.len(), 2);
    let out = d.reflect_switch_fragment("ec.panes.Extra").unwrap();
    assert!(out.changed_ui());
    let sig = d.signature().unwrap();
    // The hidden-switch transaction targets content_main.
    assert_eq!(sig.fragments["content_main"].as_str(), "ec.panes.Extra");
    // The panes are untouched.
    assert_eq!(sig.fragments["pane0_main"].as_str(), "ec.panes.Left");
    assert_eq!(sig.fragments["pane1_main"].as_str(), "ec.panes.Right");
}

#[test]
fn drawer_and_tabs_coexist_in_one_activity() {
    let gen = AppBuilder::new("ec.mixed")
        .activity(ActivitySpec::new("Main").launcher().tabs(["TabA", "TabB"]).drawer(["Hidden"]))
        .fragment(FragmentSpec::new("TabA"))
        .fragment(FragmentSpec::new("TabB"))
        .fragment(FragmentSpec::new("Hidden"))
        .build();
    let mut d = Device::new(gen.app);
    d.launch().unwrap();
    // Tabs visible immediately; drawer item not.
    assert!(d.current().unwrap().visible_widget("tab_taba").is_some());
    assert!(d.current().unwrap().visible_widget("menu_hidden").is_none());
    d.click("tab_taba").unwrap();
    assert_eq!(d.signature().unwrap().fragments["content_main"].as_str(), "ec.mixed.TabA");
    // Open drawer and switch to the hidden one.
    d.click("hamburger_main").unwrap();
    d.click("menu_hidden").unwrap();
    assert_eq!(d.signature().unwrap().fragments["content_main"].as_str(), "ec.mixed.Hidden");
    // The drawer closed itself after the menu click.
    assert!(d.current().unwrap().open_drawers.is_empty());
}

#[test]
fn deep_activity_chain_and_back_unwinds_in_order() {
    let mut builder = AppBuilder::new("ec.deep");
    for i in 0..8 {
        let mut spec = ActivitySpec::new(format!("S{i}"));
        if i == 0 {
            spec = spec.launcher();
        }
        if i < 7 {
            spec = spec.button_to(format!("S{}", i + 1));
        }
        builder = builder.activity(spec);
    }
    let mut d = Device::new(builder.build().app);
    d.launch().unwrap();
    for i in 0..7 {
        d.click(&format!("btn_s{}", i + 1)).unwrap();
    }
    assert_eq!(d.stack_depth(), 8);
    assert_eq!(d.signature().unwrap().activity.as_str(), "ec.deep.S7");
    for i in (0..7).rev() {
        d.back().unwrap();
        assert_eq!(
            d.signature().unwrap().activity.as_str(),
            format!("ec.deep.S{i}"),
            "back must unwind one frame"
        );
    }
    // One more back exits the app.
    let out = d.back().unwrap();
    assert_eq!(out, EventOutcome::Finished);
    assert!(d.current().is_none());
    assert!(matches!(d.back(), Err(DeviceError::NotRunning)));
}

#[test]
fn extras_supplied_by_buttons_flow_into_the_started_activity() {
    let gen = AppBuilder::new("ec.extras")
        .activity(ActivitySpec::new("Main").launcher().button_to("Detail"))
        .activity(ActivitySpec::new("Detail").requires_extra("id"))
        .build();
    let mut d = Device::new(gen.app);
    d.launch().unwrap();
    d.click("btn_detail").unwrap();
    let screen = d.current().unwrap();
    assert_eq!(screen.activity.as_str(), "ec.extras.Detail");
    assert!(screen.intent.has_extra("id"), "the generated handler put-extras the key");
}

#[test]
fn overlay_swallows_reflection_targets_but_not_state() {
    let gen = AppBuilder::new("ec.overlay")
        .activity(ActivitySpec::new("Main").launcher().initial_fragment("F").with_dialog())
        .fragment(FragmentSpec::new("F"))
        .build();
    let mut d = Device::new(gen.app);
    d.launch().unwrap();
    d.click("dlg_main").unwrap();
    // The overlay masks widgets but the fragment pane is still attached.
    assert!(d.visible_widgets().iter().all(|w| w.id.is_none()));
    assert_eq!(d.current().unwrap().fragments.len(), 1);
    d.dismiss_overlay().unwrap();
    assert!(d.current().unwrap().visible_widget("dlg_main").is_some());
}

#[test]
fn relaunch_resets_ui_state_but_keeps_monitor_log() {
    let gen = AppBuilder::new("ec.relaunch")
        .activity(ActivitySpec::new("Main").launcher().drawer(["F"]).api("phone", "getDeviceId"))
        .fragment(FragmentSpec::new("F"))
        .build();
    let mut d = Device::new(gen.app);
    d.launch().unwrap();
    d.click("hamburger_main").unwrap();
    assert!(!d.current().unwrap().open_drawers.is_empty());
    let recorded = d.monitor().sequence().len();
    d.launch().unwrap();
    assert!(d.current().unwrap().open_drawers.is_empty(), "fresh task");
    assert!(
        d.monitor().sequence().len() > recorded,
        "monitor log persists across restarts (the analyst's hook does not reset)"
    );
}

#[test]
fn reflection_falls_back_to_the_layout_container() {
    // The activity obtains a FragmentManager but its code has no
    // transactions at all; reflection must fall back to the first
    // FragmentContainer of the inflated layout.
    use fd_smali::{well_known, ClassDef, MethodDef, ResRef, Stmt};
    let mut app = fd_apk::AndroidApp::new(
        fd_apk::Manifest::new("fb").with_activity(fd_apk::ActivityDecl::new("fb.Main").launcher()),
    );
    app.layouts.insert(
        "m".into(),
        Arc::new(fd_apk::Layout::new(
            "m",
            fd_apk::Widget::new(fd_apk::WidgetKind::Group).with_child(
                fd_apk::Widget::new(fd_apk::WidgetKind::FragmentContainer).with_id("slot"),
            ),
        )),
    );
    app.classes.insert(
        ClassDef::new("fb.Main", well_known::ACTIVITY).with_method(
            MethodDef::new("onCreate")
                .push(Stmt::SetContentView(ResRef::layout("m")))
                .push(Stmt::GetFragmentManager { support: true })
                .push(Stmt::NewInstance("fb.Frag".into())),
        ),
    );
    app.classes.insert(ClassDef::new("fb.Frag", well_known::SUPPORT_FRAGMENT));
    app.finalize_resources();

    let mut d = Device::new(app);
    d.launch().unwrap();
    let out = d.reflect_switch_fragment("fb.Frag").unwrap();
    assert!(out.changed_ui());
    assert_eq!(
        d.signature().unwrap().fragments["slot"].as_str(),
        "fb.Frag",
        "fragment landed in the layout's container"
    );
}
