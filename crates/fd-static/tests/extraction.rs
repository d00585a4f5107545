//! Static-extraction integration tests: shared layouts, fragment reuse,
//! intermediate classes, and the paper-app suite's static shape.

use fd_appgen::{paper_apps, ActivitySpec, AppBuilder, FragmentSpec};
use fd_smali::{well_known, ClassDef, ClassName, MethodDef, ResRef, Stmt};
use std::sync::Arc;

#[test]
fn fragment_reused_across_activities_is_a_dependency_of_both() {
    let gen = AppBuilder::new("sx.reuse")
        .activity(
            ActivitySpec::new("Main").launcher().initial_fragment("Shared").button_to("Other"),
        )
        .activity(ActivitySpec::new("Other").initial_fragment("Shared"))
        .fragment(FragmentSpec::new("Shared"))
        .build();
    let info = fd_static::extract(&gen.app, &gen.known_inputs);
    let shared = ClassName::new("sx.reuse.Shared");
    assert!(info.af_dependency[&ClassName::new("sx.reuse.Main")].contains(&shared));
    assert!(info.af_dependency[&ClassName::new("sx.reuse.Other")].contains(&shared));
    // The AFTM has E2 edges from both hosts.
    let hosts = info.aftm.hosts_of_fragment("sx.reuse.Shared");
    assert_eq!(hosts.len(), 2);
}

#[test]
fn intermediate_abstract_base_activities_are_not_effective() {
    // A BaseActivity that is subclassed but never declared in the
    // manifest: the paper's "Activities involved in intermediate classes"
    // must not appear in the effective list.
    let gen = AppBuilder::new("sx.base").activity(ActivitySpec::new("Main").launcher()).build();
    let mut app = gen.app;
    app.classes.insert(ClassDef::new("sx.base.BaseActivity", well_known::ACTIVITY).abstract_());
    // Re-parent Main under the base.
    let mut main = app.classes.get("sx.base.Main").unwrap().clone();
    main.super_class = "sx.base.BaseActivity".into();
    app.classes.insert(main);

    let info = fd_static::extract(&app, &Default::default());
    assert!(info.activities.contains("sx.base.Main"));
    assert!(
        !info.activities.contains("sx.base.BaseActivity"),
        "intermediate class leaked into the effective set"
    );
    // The subclass is still recognized as an activity through the chain.
    assert!(app.classes.is_activity_class("sx.base.Main"));
}

#[test]
fn widgets_in_a_layout_shared_by_two_activities_resolve_to_the_referencing_one() {
    // Both activities inflate "shared", but only Main wires the button.
    let mut app = fd_apk::AndroidApp::new(
        fd_apk::Manifest::new("sx.shared")
            .with_activity(fd_apk::ActivityDecl::new("sx.shared.Main").launcher())
            .with_activity(fd_apk::ActivityDecl::new("sx.shared.Twin")),
    );
    app.layouts.insert(
        "shared".into(),
        Arc::new(fd_apk::Layout::new(
            "shared",
            fd_apk::Widget::new(fd_apk::WidgetKind::Group)
                .with_child(fd_apk::Widget::new(fd_apk::WidgetKind::Button).with_id("go")),
        )),
    );
    app.classes.insert(
        ClassDef::new("sx.shared.Main", well_known::ACTIVITY)
            .with_method(
                MethodDef::new("onCreate")
                    .push(Stmt::SetContentView(ResRef::layout("shared")))
                    .push(Stmt::SetOnClick { widget: ResRef::id("go"), handler: "onGo".into() }),
            )
            .with_method(
                MethodDef::new("onGo")
                    .push(Stmt::NewIntent(fd_smali::IntentTarget::Class("sx.shared.Twin".into())))
                    .push(Stmt::StartActivity { via_host: false }),
            ),
    );
    app.classes.insert(ClassDef::new("sx.shared.Twin", well_known::ACTIVITY).with_method(
        MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("shared"))),
    ));
    app.finalize_resources();

    let info = fd_static::extract(&app, &Default::default());
    match info.resource_dep.owner_of("go") {
        Some(fd_static::UiOwner::Activity(a)) => assert_eq!(a.as_str(), "sx.shared.Main"),
        other => panic!("expected Main to own 'go', got {other:?}"),
    }
    // Both activities register as users of the layout.
    assert_eq!(info.resource_dep.layout_users["shared"].len(), 2);
}

#[test]
fn paper_apps_static_counts_match_their_specs() {
    for (spec, gen) in paper_apps::all_paper_apps() {
        let info = fd_static::extract(&gen.app, &gen.known_inputs);
        let (a, f) = info.counts();
        assert_eq!(a, spec.activities, "{}: activity sum", spec.package);
        assert_eq!(f, spec.fragments, "{}: fragment sum", spec.package);
        // The AFTM's entry is the launcher and is reachable.
        assert!(info.aftm.entry().is_some(), "{}", spec.package);
        // Input widgets exist iff the app has gates.
        let has_gates = gen
            .app
            .layouts
            .values()
            .any(|l| l.root.iter().any(|w| w.kind == fd_apk::WidgetKind::EditText));
        assert_eq!(!info.input_dep.input_widgets.is_empty(), has_gates, "{}", spec.package);
    }
}

#[test]
fn static_info_serializes_and_restores() {
    let gen = fd_appgen::templates::quickstart();
    let info = fd_static::extract(&gen.app, &gen.known_inputs);
    let json = serde_json::to_string(&info).unwrap();
    let back: fd_static::StaticInfo = serde_json::from_str(&json).unwrap();
    assert_eq!(back.activities, info.activities);
    assert_eq!(back.fragments, info.fragments);
    assert_eq!(back.aftm, info.aftm);
    assert_eq!(back.input_dep, info.input_dep);
}
