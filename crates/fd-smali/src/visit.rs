//! Statement walkers used by the static-analysis passes.

use crate::class::{ClassDef, MethodDef};
use crate::name::ClassName;
use crate::res::ResRef;
use crate::stmt::Stmt;
use std::collections::BTreeSet;

/// Calls `f` on every statement of `body`, descending into both arms of
/// `If` blocks, in source order.
pub fn walk_stmts<'a>(body: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for stmt in body {
        f(stmt);
        if let Stmt::If { then, els, .. } = stmt {
            walk_stmts(then, f);
            walk_stmts(els, f);
        }
    }
}

/// Calls `f` on every statement of every method of `class`.
pub fn walk_class<'a>(class: &'a ClassDef, f: &mut dyn FnMut(&'a Stmt)) {
    for method in &class.methods {
        walk_stmts(&method.body, f);
    }
}

/// All statements of a method, flattened in source order (including the
/// bodies of `If` arms).
pub fn flatten(method: &MethodDef) -> Vec<&Stmt> {
    let mut out = Vec::new();
    walk_stmts(&method.body, &mut |s| out.push(s));
    out
}

/// Every class name referenced anywhere in `class` — the paper's
/// *getUsedClass* primitive from Algorithm 2.
pub fn referenced_classes(class: &ClassDef) -> BTreeSet<ClassName> {
    let mut out = BTreeSet::new();
    walk_class(class, &mut |s| {
        if let Some(c) = s.class_ref() {
            out.insert(c.clone());
        }
    });
    out
}

/// Every resource reference mentioned in `class`'s code — one side of the
/// repeated-ID match in Algorithm 3 (the other side is the layout files).
pub fn referenced_resources(class: &ClassDef) -> BTreeSet<ResRef> {
    let mut out = BTreeSet::new();
    walk_class(class, &mut |s| {
        if let Some(r) = s.res_ref() {
            out.insert(r.clone());
        }
    });
    out
}

/// Returns `true` if any statement of `class` satisfies the predicate.
pub fn any_stmt(class: &ClassDef, pred: impl Fn(&Stmt) -> bool) -> bool {
    let mut found = false;
    walk_class(class, &mut |s| {
        if !found && pred(s) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::MethodDef;
    use crate::stmt::Cond;

    fn nested_class() -> ClassDef {
        ClassDef::new("a.Main", "android.app.Activity").with_method(
            MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("main"))).push(
                Stmt::If {
                    cond: Cond::InputNonEmpty { field: ResRef::id("edit") },
                    then: vec![Stmt::NewInstance(ClassName::new("a.F1"))],
                    els: vec![Stmt::If {
                        cond: Cond::HasExtra { key: "k".into() },
                        then: vec![Stmt::NewInstance(ClassName::new("a.F2"))],
                        els: vec![],
                    }],
                },
            ),
        )
    }

    #[test]
    fn walk_descends_into_both_arms() {
        let class = nested_class();
        let mut count = 0;
        walk_class(&class, &mut |_| count += 1);
        // set-content-view, outer if, new F1, inner if, new F2
        assert_eq!(count, 5);
    }

    #[test]
    fn referenced_classes_sees_nested_instances() {
        let refs = referenced_classes(&nested_class());
        assert!(refs.contains("a.F1"));
        assert!(refs.contains("a.F2"));
        assert_eq!(refs.len(), 2);
    }

    #[test]
    fn referenced_resources_includes_cond_fields() {
        let refs = referenced_resources(&nested_class());
        assert!(refs.contains(&ResRef::layout("main")));
        assert!(refs.contains(&ResRef::id("edit")));
    }

    #[test]
    fn any_stmt_short_circuit_semantics() {
        let class = nested_class();
        assert!(any_stmt(&class, |s| matches!(s, Stmt::NewInstance(c) if c.as_str() == "a.F2")));
        assert!(!any_stmt(&class, |s| matches!(s, Stmt::Finish)));
    }
}
