//! Activity lifecycle tests: callbacks fire in the real Android order,
//! observed through sensitive-API calls placed in each callback.

use fd_apk::{ActivityDecl, AndroidApp, Layout, Manifest, Widget, WidgetKind};
use fd_droidsim::{Caller, Device};
use fd_smali::{well_known, ClassDef, IntentTarget, MethodDef, ResRef, Stmt};
use std::sync::Arc;

/// Builds an app whose lifecycle callbacks each call a distinct catalog
/// API, so the monitor's ordered sequence exposes the callback order.
fn lifecycle_app() -> AndroidApp {
    let api = |name: &str| Stmt::InvokeApi { group: "internet".into(), name: name.into() };

    // Marker APIs per (activity, callback).
    let a = ClassDef::new("lc.A", well_known::ACTIVITY)
        .with_method(
            MethodDef::new("onCreate")
                .push(Stmt::SetContentView(ResRef::layout("a")))
                .push(api("connect")) // A.onCreate
                .push(Stmt::SetOnClick { widget: ResRef::id("go"), handler: "onGo".into() }),
        )
        .with_method(MethodDef::new("onStart").push(api("inet"))) // A.onStart
        .with_method(MethodDef::new("onResume").push(api("InetAddress.getByName"))) // A.onResume
        .with_method(MethodDef::new("onPause").push(api("InetAddress.getAllByName"))) // A.onPause
        .with_method(MethodDef::new("onStop").push(api("InetAddress.getByAddress"))) // A.onStop
        .with_method(
            MethodDef::new("onGo")
                .push(Stmt::NewIntent(IntentTarget::Class("lc.B".into())))
                .push(Stmt::StartActivity { via_host: false }),
        );

    let b = ClassDef::new("lc.B", well_known::ACTIVITY)
        .with_method(
            MethodDef::new("onCreate")
                .push(Stmt::SetContentView(ResRef::layout("b")))
                .push(api("Connectivity.getNetworkInfo")), // B.onCreate
        )
        .with_method(MethodDef::new("onPause").push(api("NetworkInfo.isConnected")))
        .with_method(MethodDef::new("onStop").push(api("NetworkInfo.getDetailedState")))
        .with_method(MethodDef::new("onDestroy").push(api("IpPrefix.getAddress")));

    let mut app = AndroidApp::new(
        Manifest::new("lc")
            .with_activity(ActivityDecl::new("lc.A").launcher())
            .with_activity(ActivityDecl::new("lc.B")),
    );
    app.layouts.insert(
        "a".into(),
        Arc::new(Layout::new(
            "a",
            Widget::new(WidgetKind::Group)
                .with_child(Widget::new(WidgetKind::Button).with_id("go")),
        )),
    );
    app.layouts.insert("b".into(), Arc::new(Layout::new("b", Widget::new(WidgetKind::Group))));
    app.classes.insert(a);
    app.classes.insert(b);
    app.finalize_resources();
    app
}

fn names(device: &Device) -> Vec<(String, String)> {
    device
        .monitor()
        .sequence()
        .iter()
        .map(|i| {
            let who = match &i.caller {
                Caller::Activity(a) => a.simple_name().to_string(),
                Caller::Fragment { fragment, .. } => fragment.simple_name().to_string(),
            };
            (who, i.name.clone())
        })
        .collect()
}

#[test]
fn launch_runs_create_start_resume_in_order() {
    let mut d = Device::new(lifecycle_app());
    d.launch().unwrap();
    let seq = names(&d);
    assert_eq!(
        seq,
        vec![
            ("A".to_string(), "connect".to_string()),
            ("A".to_string(), "inet".to_string()),
            ("A".to_string(), "InetAddress.getByName".to_string()),
        ]
    );
}

#[test]
fn starting_b_pauses_a_then_creates_b_then_stops_a() {
    let mut d = Device::new(lifecycle_app());
    d.launch().unwrap();
    d.click("go").unwrap();
    let seq = names(&d);
    let tail = &seq[3..];
    assert_eq!(
        tail,
        &[
            ("A".to_string(), "InetAddress.getAllByName".to_string()), // A.onPause
            ("B".to_string(), "Connectivity.getNetworkInfo".to_string()), // B.onCreate
            ("A".to_string(), "InetAddress.getByAddress".to_string()), // A.onStop
        ],
        "real Android order: A.onPause → B.onCreate → … → A.onStop"
    );
}

#[test]
fn back_destroys_b_and_resumes_a() {
    let mut d = Device::new(lifecycle_app());
    d.launch().unwrap();
    d.click("go").unwrap();
    d.back().unwrap();
    let seq = names(&d);
    let tail = &seq[6..];
    assert_eq!(
        tail,
        &[
            ("B".to_string(), "NetworkInfo.isConnected".to_string()), // B.onPause
            ("B".to_string(), "NetworkInfo.getDetailedState".to_string()), // B.onStop
            ("B".to_string(), "IpPrefix.getAddress".to_string()),     // B.onDestroy
            ("A".to_string(), "InetAddress.getByName".to_string()),   // A.onResume
        ]
    );
    assert_eq!(d.signature().unwrap().activity.as_str(), "lc.A");
}

#[test]
fn crash_in_lifecycle_callback_force_closes() {
    let mut app = lifecycle_app();
    let crashy = ClassDef::new("lc.B", well_known::ACTIVITY)
        .with_method(MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("b"))))
        .with_method(
            MethodDef::new("onStart").push(Stmt::Crash { reason: "boom in onStart".into() }),
        );
    app.classes.insert(crashy);
    let mut d = Device::new(app);
    d.launch().unwrap();
    let out = d.click("go").unwrap();
    assert!(
        matches!(out, fd_droidsim::EventOutcome::Crashed { ref reason } if reason.contains("onStart"))
    );
    assert!(d.is_crashed());
}

#[test]
fn finish_inside_lifecycle_callback_is_ignored() {
    let mut app = lifecycle_app();
    let weird = ClassDef::new("lc.B", well_known::ACTIVITY)
        .with_method(MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("b"))))
        .with_method(MethodDef::new("onResume").push(Stmt::Finish));
    app.classes.insert(weird);
    let mut d = Device::new(app);
    d.launch().unwrap();
    d.click("go").unwrap();
    assert_eq!(d.signature().unwrap().activity.as_str(), "lc.B", "finish in onResume ignored");
}
