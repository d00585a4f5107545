//! The per-app code index: every analysis pass reads an app's code
//! through it, so each class is walked once per extraction.
//!
//! The passes of §IV–§V all ask the same questions of the same code
//! units — an activity or fragment class plus its inner classes (javac
//! puts listener bodies in `Foo$1`, …): which classes it names
//! (*getUsedClass*), which widget ids it references and which layouts it
//! inflates (Algorithm 3), and which statements it holds (Algorithm 1).
//! [`CodeIndex::build`] answers all four in one walk per unit.

use fd_apk::AndroidApp;
use fd_smali::{visit, ClassName, ResKind, ResName, Stmt};
use std::collections::BTreeMap;
use std::ops::Range;

/// What one code unit — a class plus its inner classes — holds: slices
/// of its index's shared lists.
#[derive(Clone, Copy, Debug)]
pub struct Unit<'i, 'a> {
    /// Every statement, in the order [`visit::walk_class`] visits them
    /// (classes in name order, `If` arms included).
    pub stmts: &'i [&'a Stmt],
    /// The classes the statements name, sorted and deduplicated.
    pub classes: &'i [&'a ClassName],
    /// The widget ids (`@id/…`) the statements reference, sorted and
    /// deduplicated.
    pub ids: &'i [&'a ResName],
    /// The layouts the unit inflates (`setContentView` / `inflate`),
    /// sorted and deduplicated.
    pub layouts: &'i [&'a ResName],
}

impl Unit<'_, '_> {
    /// Whether the unit's code references widget id `id`.
    pub fn references_id(&self, id: &str) -> bool {
        self.ids.binary_search_by(|n| n.as_str().cmp(id)).is_ok()
    }
}

/// Where one unit's entries sit in the index's lists.
#[derive(Clone, Debug, Default)]
struct Spans {
    stmts: Range<usize>,
    classes: Range<usize>,
    ids: Range<usize>,
    layouts: Range<usize>,
}

/// The code units of one app, keyed by their outer class. All units
/// share four lists, so building the index allocates a handful of
/// buffers, not four per unit.
#[derive(Debug, Default)]
pub struct CodeIndex<'a> {
    units: BTreeMap<&'a str, Spans>,
    stmts: Vec<&'a Stmt>,
    classes: Vec<&'a ClassName>,
    ids: Vec<&'a ResName>,
    layouts: Vec<&'a ResName>,
}

impl<'a> CodeIndex<'a> {
    /// Indexes the unit of each class in `roots`, walking each class of
    /// the unit once.
    pub fn build(app: &'a AndroidApp, roots: impl IntoIterator<Item = &'a ClassName>) -> Self {
        let mut index = CodeIndex::default();
        for root in roots {
            if !index.units.contains_key(root.as_str()) {
                let spans = index.add_unit(app, root.as_str());
                index.units.insert(root.as_str(), spans);
            }
        }
        index
    }

    /// The unit of `class`; empty if the index was not built for it.
    pub fn unit(&self, class: &str) -> Unit<'_, 'a> {
        let spans = self.units.get(class).cloned().unwrap_or_default();
        Unit {
            stmts: &self.stmts[spans.stmts],
            classes: &self.classes[spans.classes],
            ids: &self.ids[spans.ids],
            layouts: &self.layouts[spans.layouts],
        }
    }

    /// Walks `class` and its inner classes once, appending the unit's
    /// entries to the lists.
    fn add_unit(&mut self, app: &'a AndroidApp, class: &'a str) -> Spans {
        let starts = (self.stmts.len(), self.classes.len(), self.ids.len(), self.layouts.len());
        for def in app.classes.with_inner_classes(class) {
            visit::walk_class(def, &mut |stmt| {
                self.stmts.push(stmt);
                if let Some(c) = stmt.class_ref() {
                    self.classes.push(c);
                }
                if let Stmt::SetContentView(r) | Stmt::InflateLayout(r) = stmt {
                    self.layouts.push(&r.name);
                }
                if let Some(r) = stmt.res_ref() {
                    if r.kind == ResKind::Id {
                        self.ids.push(&r.name);
                    }
                }
            });
        }
        Spans {
            stmts: starts.0..self.stmts.len(),
            classes: sorted_tail(&mut self.classes, starts.1),
            ids: sorted_tail(&mut self.ids, starts.2),
            layouts: sorted_tail(&mut self.layouts, starts.3),
        }
    }
}

/// Sorts and deduplicates `list[start..]` in place; returns its range.
fn sorted_tail<T: Ord>(list: &mut Vec<T>, start: usize) -> Range<usize> {
    list[start..].sort_unstable();
    let mut end = start;
    for i in start..list.len() {
        if end == start || list[i] != list[end - 1] {
            list.swap(end, i);
            end += 1;
        }
    }
    list.truncate(end);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_apk::{ActivityDecl, Manifest};
    use fd_smali::{well_known, ClassDef, Cond, MethodDef, ResRef};

    #[test]
    fn a_unit_gathers_its_inner_classes_and_if_arms() {
        let mut app =
            AndroidApp::new(Manifest::new("t").with_activity(ActivityDecl::new("t.Main")));
        app.classes.insert(ClassDef::new("t.Main", well_known::ACTIVITY).with_method(
            MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("main"))).push(
                Stmt::if_then(
                    Cond::InputNonEmpty { field: ResRef::id("name") },
                    vec![Stmt::NewInstance("t.F".into())],
                ),
            ),
        ));
        app.classes.insert(
            ClassDef::new("t.Main$1", well_known::OBJECT).with_method(
                MethodDef::new("onClick")
                    .push(Stmt::FindViewById(ResRef::id("go")))
                    .push(Stmt::NewInstance("t.F".into())),
            ),
        );
        app.classes.insert(
            ClassDef::new("t.Main2", well_known::ACTIVITY)
                .with_method(MethodDef::new("onCreate").push(Stmt::NewInstance("t.Other".into()))),
        );
        let main = ClassName::new("t.Main");
        let index = CodeIndex::build(&app, [&main]);
        let unit = index.unit("t.Main");
        assert_eq!(unit.stmts.len(), 5, "both classes, the `if` and its arm");
        assert_eq!(
            unit.classes,
            [&ClassName::new("t.F")],
            "deduplicated; t.Main2 is no inner class"
        );
        assert_eq!(unit.ids, [&ResName::new("go"), &ResName::new("name")]);
        assert!(unit.references_id("name") && !unit.references_id("main"));
        assert_eq!(unit.layouts, [&ResName::new("main")]);
        assert!(index.unit("t.Main2").stmts.is_empty(), "not indexed");
    }
}
