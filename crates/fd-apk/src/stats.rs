//! App-size statistics — the numbers `fragdroid info` and the corpus
//! study report about each app's code and UI volume.

use crate::app::AndroidApp;
use fd_smali::{visit, Stmt};
use serde::{Deserialize, Serialize};

/// Code and UI volume of one app.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppStats {
    /// Classes in the pool.
    pub classes: usize,
    /// Activity subclasses among them.
    pub activity_classes: usize,
    /// Fragment subclasses among them.
    pub fragment_classes: usize,
    /// Methods across all classes.
    pub methods: usize,
    /// Statements across all method bodies (including `If` arms).
    pub statements: usize,
    /// Sensitive-API call sites in code.
    pub sensitive_call_sites: usize,
    /// Layout files.
    pub layouts: usize,
    /// Widgets across all layouts.
    pub widgets: usize,
    /// Widgets that accept clicks.
    pub clickable_widgets: usize,
    /// Interned resources.
    pub resources: usize,
}

/// Computes the statistics for one app.
pub fn app_stats(app: &AndroidApp) -> AppStats {
    let mut s = AppStats {
        classes: app.classes.len(),
        layouts: app.layouts.len(),
        resources: app.resources.len(),
        ..AppStats::default()
    };
    for class in app.classes.iter() {
        if app.classes.is_activity_class(class.name.as_str()) {
            s.activity_classes += 1;
        }
        if app.classes.is_fragment_class(class.name.as_str()) {
            s.fragment_classes += 1;
        }
        s.methods += class.methods.len();
        visit::walk_class(class, &mut |stmt| {
            s.statements += 1;
            if matches!(stmt, Stmt::InvokeApi { .. }) {
                s.sensitive_call_sites += 1;
            }
        });
    }
    for layout in app.layouts.values() {
        for widget in layout.root.iter() {
            s.widgets += 1;
            if widget.clickable {
                s.clickable_widgets += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Layout, Widget, WidgetKind};
    use crate::manifest::{ActivityDecl, Manifest};
    use fd_smali::{well_known, ClassDef, MethodDef, ResRef};
    use std::sync::Arc;

    #[test]
    fn counts_every_dimension() {
        let mut app = AndroidApp::new(
            Manifest::new("st").with_activity(ActivityDecl::new("st.Main").launcher()),
        );
        app.layouts.insert(
            "m".into(),
            Arc::new(Layout::new(
                "m",
                Widget::new(WidgetKind::Group)
                    .with_child(Widget::new(WidgetKind::Button).with_id("b"))
                    .with_child(Widget::new(WidgetKind::TextView)),
            )),
        );
        app.classes.insert(
            ClassDef::new("st.Main", well_known::ACTIVITY).with_method(
                MethodDef::new("onCreate")
                    .push(Stmt::SetContentView(ResRef::layout("m")))
                    .push(Stmt::InvokeApi { group: "ipc".into(), name: "Binder".into() })
                    .push(Stmt::if_then(
                        fd_smali::Cond::HasExtra { key: "k".into() },
                        vec![Stmt::Finish],
                    )),
            ),
        );
        app.classes.insert(ClassDef::new("st.F", well_known::FRAGMENT));
        app.finalize_resources();

        let s = app_stats(&app);
        assert_eq!(s.classes, 2);
        assert_eq!(s.activity_classes, 1);
        assert_eq!(s.fragment_classes, 1);
        assert_eq!(s.methods, 1);
        assert_eq!(s.statements, 4, "set-content-view, invoke-api, if, finish");
        assert_eq!(s.sensitive_call_sites, 1);
        assert_eq!(s.layouts, 1);
        assert_eq!(s.widgets, 3);
        assert_eq!(s.clickable_widgets, 1);
        assert!(s.resources >= 2);
    }
}
