//! A whole synthetic Android app.

use crate::layout::Layout;
use crate::manifest::Manifest;
use crate::resources::ResourceTable;
use fd_smali::{visit, ClassPool, ResKind, ResName};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Store metadata used by the corpus study (category, download band).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppMeta {
    /// Google-Play category, e.g. `"Tools"`.
    pub category: String,
    /// Download count lower bound, e.g. `100_000_000` for "100,000,000+".
    pub downloads: u64,
    /// Whether the app is protected by a packer (excluded from analysis,
    /// as in the paper's dataset section).
    pub packed: bool,
}

impl AppMeta {
    /// Formats the download band the way Google Play displays it
    /// (`"100,000,000+"`).
    pub fn downloads_band(&self) -> String {
        let mut digits = self.downloads.to_string();
        let mut grouped = String::new();
        while digits.len() > 3 {
            let split = digits.len() - 3;
            grouped = format!(",{}{}", &digits[split..], grouped);
            digits.truncate(split);
        }
        format!("{digits}{grouped}+")
    }
}

/// A complete app: manifest, code, layouts, resources, metadata.
///
/// This plays the role of the unpacked APK contents. [`crate::pack`] turns
/// it into the binary container; [`crate::decompile`] recovers it.
///
/// The program text is shared, not owned: the class pool and every
/// layout sit behind `Arc`s, so a clone (the explorer's manifest-rewritten
/// copy, a device's installed copy) costs a manifest, a resource table and
/// the metadata, and a device inflates the app's own layouts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AndroidApp {
    /// The manifest.
    pub manifest: Manifest,
    /// All classes.
    pub classes: ClassPool,
    /// Layout files keyed by layout resource name, each shared by every
    /// clone of the app and every screen showing it.
    pub layouts: BTreeMap<ResName, Arc<Layout>>,
    /// The numeric resource table.
    pub resources: ResourceTable,
    /// Store metadata.
    pub meta: AppMeta,
}

impl AndroidApp {
    /// Creates an app with the given manifest and nothing else.
    pub fn new(manifest: Manifest) -> Self {
        AndroidApp {
            manifest,
            classes: ClassPool::new(),
            layouts: BTreeMap::new(),
            resources: ResourceTable::new(),
            meta: AppMeta::default(),
        }
    }

    /// The app's package name.
    pub fn package(&self) -> &str {
        &self.manifest.package
    }

    /// Adds a layout (builder style).
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layouts.insert(layout.name.clone(), Arc::new(layout));
        self
    }

    /// Looks up a layout by resource name.
    pub fn layout(&self, name: &str) -> Option<&Layout> {
        self.layouts.get(name).map(|layout| &**layout)
    }

    /// Re-interns every resource referenced by layouts or code into the
    /// numeric table, the way `aapt` finalizes `R.java`. Call after the
    /// app's content is complete.
    pub fn finalize_resources(&mut self) {
        // The references borrow the layouts' and the code's names; the
        // table numbers them in this order in one bulk pass.
        let mut refs = Vec::new();
        for layout in self.layouts.values() {
            refs.push((ResKind::Layout, &layout.name));
            for widget in layout.root.iter() {
                if let Some(id) = &widget.id {
                    refs.push((ResKind::Id, id));
                }
            }
        }
        for class in self.classes.iter() {
            visit::walk_class(class, &mut |stmt| {
                if let Some(r) = stmt.res_ref() {
                    refs.push((r.kind, &r.name));
                }
            });
        }
        self.resources.intern_all(refs);
    }

    /// Structural sanity-check: every layout referenced from code exists
    /// and every activity declared in the manifest has a class. Returns a
    /// list of human-readable problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for decl in &self.manifest.activities {
            if !self.classes.contains(decl.name.as_str()) {
                problems.push(format!("manifest declares missing class {}", decl.name));
            }
        }
        for class in self.classes.iter() {
            for r in visit::referenced_resources(class) {
                if r.kind == ResKind::Layout && !self.layouts.contains_key(&r.name) {
                    problems.push(format!("{} inflates missing layout {}", class.name, r.name));
                }
            }
            // Fragment transactions must target classes that exist — the
            // runtime would throw ClassNotFoundException at commit.
            visit::walk_class(class, &mut |stmt| {
                if let fd_smali::Stmt::TxnAdd { fragment, .. }
                | fd_smali::Stmt::TxnReplace { fragment, .. }
                | fd_smali::Stmt::AttachDirect { fragment, .. } = stmt
                {
                    if !self.classes.contains(fragment.as_str()) {
                        problems.push(format!(
                            "{} commits missing fragment class {fragment}",
                            class.name
                        ));
                    }
                }
            });
            for lint in fd_smali::lint::lint_class(class) {
                problems.push(format!("{}.{}: {}", class.name, lint.method, lint.kind));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Widget, WidgetKind};
    use crate::manifest::ActivityDecl;
    use fd_smali::{ClassDef, MethodDef, ResRef, Stmt};

    fn app() -> AndroidApp {
        let mut app = AndroidApp::new(
            Manifest::new("com.example").with_activity(ActivityDecl::new("com.example.Main")),
        )
        .with_layout(Layout::new(
            "main",
            Widget::new(WidgetKind::Group)
                .with_child(Widget::new(WidgetKind::Button).with_id("go")),
        ));
        app.classes.insert(
            ClassDef::new("com.example.Main", fd_smali::well_known::ACTIVITY).with_method(
                MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("main"))),
            ),
        );
        app
    }

    #[test]
    fn finalize_interns_layout_and_widget_ids() {
        let mut a = app();
        a.finalize_resources();
        assert!(a.resources.id_of(&ResRef::layout("main")).is_some());
        assert!(a.resources.id_of(&ResRef::id("go")).is_some());
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(app().validate().is_empty());
    }

    #[test]
    fn validate_reports_missing_class_and_layout() {
        let mut a = app();
        a.manifest.activities.push(ActivityDecl::new("com.example.Ghost"));
        a.classes.insert(
            ClassDef::new("com.example.Broken", fd_smali::well_known::ACTIVITY).with_method(
                MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("nope"))),
            ),
        );
        let problems = a.validate();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn downloads_band_formatting() {
        let meta = AppMeta { downloads: 100_000_000, ..Default::default() };
        assert_eq!(meta.downloads_band(), "100,000,000+");
        let small = AppMeta { downloads: 500, ..Default::default() };
        assert_eq!(small.downloads_band(), "500+");
        let mid = AppMeta { downloads: 50_000, ..Default::default() };
        assert_eq!(mid.downloads_band(), "50,000+");
    }
}
