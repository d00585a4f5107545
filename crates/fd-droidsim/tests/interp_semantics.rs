//! Interpreter-semantics tests: runtime protocol violations crash like
//! real Android, recursion is bounded, and permission grants gate guarded
//! code.

use fd_apk::{ActivityDecl, AndroidApp, Layout, Manifest, Widget, WidgetKind};
use fd_droidsim::{Device, DeviceConfig, EventOutcome};
use fd_smali::{well_known, ClassDef, ClassName, IntentTarget, MethodDef, ResRef, Stmt};
use std::sync::Arc;

fn shell(on_create: MethodDef) -> AndroidApp {
    let mut app =
        AndroidApp::new(Manifest::new("is").with_activity(ActivityDecl::new("is.Main").launcher()));
    app.layouts.insert("m".into(), Arc::new(Layout::new("m", Widget::new(WidgetKind::Group))));
    app.classes.insert(ClassDef::new("is.Main", well_known::ACTIVITY).with_method(on_create));
    app.finalize_resources();
    app
}

#[test]
fn commit_without_begin_is_an_illegal_state_crash() {
    let app = shell(
        MethodDef::new("onCreate")
            .push(Stmt::SetContentView(ResRef::layout("m")))
            .push(Stmt::TxnCommit),
    );
    let mut d = Device::new(app);
    let out = d.launch().unwrap();
    assert!(matches!(out, EventOutcome::Crashed { ref reason } if reason.contains("IllegalState")));
}

#[test]
fn txn_op_without_begin_is_an_illegal_state_crash() {
    let app = shell(
        MethodDef::new("onCreate")
            .push(Stmt::SetContentView(ResRef::layout("m")))
            .push(Stmt::TxnAdd { container: ResRef::id("c"), fragment: ClassName::new("is.F") }),
    );
    let mut d = Device::new(app);
    assert!(matches!(d.launch().unwrap(), EventOutcome::Crashed { .. }));
}

#[test]
fn inflating_a_missing_layout_crashes_with_inflate_exception() {
    let app = shell(MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("ghost"))));
    let mut d = Device::new(app);
    let out = d.launch().unwrap();
    assert!(
        matches!(out, EventOutcome::Crashed { ref reason } if reason.contains("InflateException"))
    );
}

#[test]
fn attaching_an_unknown_fragment_class_crashes() {
    let app = shell(
        MethodDef::new("onCreate")
            .push(Stmt::SetContentView(ResRef::layout("m")))
            .push(Stmt::GetFragmentManager { support: true })
            .push(Stmt::BeginTransaction)
            .push(Stmt::TxnAdd { container: ResRef::id("c"), fragment: ClassName::new("is.Ghost") })
            .push(Stmt::TxnCommit),
    );
    let mut d = Device::new(app);
    let out = d.launch().unwrap();
    assert!(
        matches!(out, EventOutcome::Crashed { ref reason } if reason.contains("ClassNotFound"))
    );
}

#[test]
fn start_activity_cycle_in_oncreate_overflows() {
    // Main starts Loop; Loop's onCreate starts Loop again, forever.
    let mut app = shell(
        MethodDef::new("onCreate")
            .push(Stmt::SetContentView(ResRef::layout("m")))
            .push(Stmt::NewIntent(IntentTarget::Class("is.Loop".into())))
            .push(Stmt::StartActivity { via_host: false }),
    );
    app.manifest.activities.push(ActivityDecl::new("is.Loop"));
    app.classes.insert(
        ClassDef::new("is.Loop", well_known::ACTIVITY).with_method(
            MethodDef::new("onCreate")
                .push(Stmt::NewIntent(IntentTarget::Class("is.Loop".into())))
                .push(Stmt::StartActivity { via_host: false }),
        ),
    );
    let mut d = Device::new(app);
    let out = d.launch().unwrap();
    assert!(
        matches!(out, EventOutcome::Crashed { ref reason } if reason.contains("StackOverflow")),
        "got {out:?}"
    );
}

#[test]
fn unresolvable_intent_crashes_with_activity_not_found() {
    let app = shell(
        MethodDef::new("onCreate")
            .push(Stmt::SetContentView(ResRef::layout("m")))
            .push(Stmt::NewIntent(IntentTarget::Action("is.NOBODY_HANDLES_THIS".into())))
            .push(Stmt::StartActivity { via_host: false }),
    );
    let mut d = Device::new(app);
    let out = d.launch().unwrap();
    assert!(
        matches!(out, EventOutcome::Crashed { ref reason } if reason.contains("ActivityNotFound"))
    );
}

#[test]
fn runtime_permission_grant_unblocks_a_guarded_launch() {
    let mut app = shell(
        MethodDef::new("onCreate")
            .push(Stmt::RequirePermission { permission: "android.permission.CAMERA".into() })
            .push(Stmt::SetContentView(ResRef::layout("m"))),
    );
    app.manifest.permissions.push("android.permission.CAMERA".into());

    // Denied at install: FC. Grant at runtime: relaunch succeeds.
    let mut config = DeviceConfig::default();
    config.denied_permissions.insert("android.permission.CAMERA".into());
    let mut d = Device::with_config(app, config);
    assert!(matches!(d.launch().unwrap(), EventOutcome::Crashed { .. }));
    d.grant("android.permission.CAMERA");
    assert!(d.launch().unwrap().changed_ui());
    // And revoking breaks it again.
    d.revoke("android.permission.CAMERA");
    assert!(matches!(d.launch().unwrap(), EventOutcome::Crashed { .. }));
}

#[test]
fn set_class_and_put_extra_build_an_intent_without_new_intent() {
    // setClass on a fresh register implicitly creates the intent — the
    // lint flags it as unusual, but the runtime accepts it like Android.
    let mut app = shell(
        MethodDef::new("onCreate")
            .push(Stmt::SetContentView(ResRef::layout("m")))
            .push(Stmt::SetClass("is.Second".into()))
            .push(Stmt::PutExtra { key: "k".into(), value: "v".into() })
            .push(Stmt::StartActivity { via_host: false }),
    );
    app.manifest.activities.push(ActivityDecl::new("is.Second"));
    app.classes.insert(
        ClassDef::new("is.Second", well_known::ACTIVITY)
            .with_method(MethodDef::new("onCreate").push(Stmt::RequireExtra { key: "k".into() })),
    );
    let mut d = Device::new(app);
    assert!(d.launch().unwrap().changed_ui());
    assert_eq!(d.signature().unwrap().activity.as_str(), "is.Second");
}
