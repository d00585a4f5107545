//! A pool of decompiled classes with the hierarchy queries the paper's
//! Algorithm 2 needs: super chains (*getSuperChain*), used classes
//! (*getUsedClass*), inner classes (*getInnerClass*), and subclass tests.

use crate::class::ClassDef;
use crate::name::ClassName;
use crate::visit;
use crate::well_known;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// All classes of one decompiled app, keyed by fully-qualified name.
///
/// The map sits behind an `Arc`, so cloning a pool is a refcount bump
/// and clones share every class body; [`ClassPool::insert`] copies the
/// map first only while it is shared.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassPool {
    classes: Arc<BTreeMap<ClassName, ClassDef>>,
}

impl ClassPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a class, replacing any previous definition with the same
    /// name, and returns the pool (builder style).
    pub fn with(mut self, class: ClassDef) -> Self {
        self.insert(class);
        self
    }

    /// Inserts a class, replacing any previous definition with the same name.
    pub fn insert(&mut self, class: ClassDef) {
        Arc::make_mut(&mut self.classes).insert(class.name.clone(), class);
    }

    /// Looks up a class by name.
    pub fn get(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// Whether the pool defines `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.classes.contains_key(name)
    }

    /// Number of classes in the pool.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterates over all classes in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values()
    }

    /// Iterates over all class names in order.
    pub fn names(&self) -> impl Iterator<Item = &ClassName> {
        self.classes.keys()
    }

    /// The inheritance chain of `name`, starting at `name` itself and
    /// walking `super_class` links until a framework class or an unknown
    /// class terminates the walk (the terminator is included). Cycles are
    /// broken by stopping at the first repeated name.
    ///
    /// This is the paper's *getSuperChain*.
    pub fn super_chain(&self, name: &str) -> Vec<ClassName> {
        let mut chain: Vec<ClassName> = Vec::new();
        let mut current = ClassName::new(name);
        loop {
            if chain.contains(&current) {
                break; // inheritance cycle in malformed input
            }
            chain.push(current.clone());
            match self.classes.get(current.as_str()) {
                Some(def) => current = def.super_class.clone(),
                None => break, // framework or unknown class terminates
            }
        }
        chain
    }

    /// Whether any name on `name`'s [`super_chain`](Self::super_chain)
    /// satisfies `hit`, walking the `super_class` links without building
    /// the chain. A chain that repeats no name visits at most
    /// `len() + 1` names, so stopping there is the chain's cycle guard:
    /// by then a cyclic chain has shown every name it holds.
    fn chain_any(&self, name: &str, hit: impl Fn(&str) -> bool) -> bool {
        let mut current = name;
        for _ in 0..=self.classes.len() {
            if hit(current) {
                return true;
            }
            match self.classes.get(current) {
                Some(def) => current = def.super_class.as_str(),
                None => return false, // framework or unknown class terminates
            }
        }
        false
    }

    /// Whether `name`'s inheritance chain contains `ancestor`.
    pub fn is_subclass_of(&self, name: &str, ancestor: &str) -> bool {
        self.chain_any(name, |link| link == ancestor)
    }

    /// Whether `name` is a fragment: its chain reaches
    /// `android.app.Fragment` or `android.support.v4.app.Fragment`.
    pub fn is_fragment_class(&self, name: &str) -> bool {
        self.chain_any(name, |link| {
            link == well_known::FRAGMENT || link == well_known::SUPPORT_FRAGMENT
        })
    }

    /// Whether `name` is an activity: its chain reaches
    /// `android.app.Activity` (directly or via the support-library
    /// `FragmentActivity`, which itself extends `Activity`).
    pub fn is_activity_class(&self, name: &str) -> bool {
        self.chain_any(name, |link| {
            link == well_known::ACTIVITY || link == well_known::SUPPORT_ACTIVITY
        })
    }

    /// `class` plus all of its inner classes (`Foo$1`, `Foo$Inner`, …) that
    /// exist in the pool, in name order — the paper's *getInnerClass*.
    /// The names that extend `class` form one sorted run right after it,
    /// and within that run the inner classes (the byte after `class` is
    /// `$`) are one contiguous stretch: this skips the names whose next
    /// byte sorts before `$` (`Foo!x`), takes the `$` stretch and stops,
    /// without building the `"{class}$"` prefix.
    pub fn with_inner_classes<'a>(
        &'a self,
        class: &'a str,
    ) -> impl Iterator<Item = &'a ClassDef> + 'a {
        // A name in the run is longer than `class`, so the index is in
        // bounds.
        let next_byte = move |name: &ClassName| name.as_str().as_bytes()[class.len()];
        let inner = self
            .classes
            .range::<str, _>((Bound::Excluded(class), Bound::Unbounded))
            .skip_while(move |(name, _)| name.as_str().starts_with(class) && next_byte(name) < b'$')
            .take_while(move |(name, _)| {
                name.as_str().starts_with(class) && next_byte(name) == b'$'
            })
            .map(|(_, def)| def);
        self.classes.get(class).into_iter().chain(inner)
    }

    /// Every class referenced from `class`'s code — the paper's
    /// *getUsedClass*.
    pub fn used_classes(&self, class: &str) -> BTreeSet<ClassName> {
        match self.classes.get(class) {
            Some(def) => visit::referenced_classes(def),
            None => BTreeSet::new(),
        }
    }

    /// All classes in the pool whose inheritance chain reaches any name in
    /// `bases`, in name order. Used for the paper's two-pass fragment
    /// discovery ("scan all smali files again to find out all derived
    /// classes").
    pub fn subclasses_of_any<'a>(
        &self,
        bases: impl IntoIterator<Item = &'a str>,
    ) -> Vec<&ClassDef> {
        let bases: Vec<&str> = bases.into_iter().collect();
        self.classes
            .values()
            .filter(|c| self.chain_any(c.name.as_str(), |link| bases.contains(&link)))
            .collect()
    }
}

impl FromIterator<ClassDef> for ClassPool {
    /// Builds the map in bulk. A later class replaces an earlier one of
    /// the same name, as [`ClassPool::insert`] would.
    fn from_iter<T: IntoIterator<Item = ClassDef>>(iter: T) -> Self {
        let classes = iter.into_iter().map(|class| (class.name.clone(), class)).collect();
        ClassPool { classes: Arc::new(classes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::MethodDef;
    use crate::stmt::Stmt;

    fn pool() -> ClassPool {
        ClassPool::new()
            .with(ClassDef::new("a.BaseFrag", well_known::SUPPORT_FRAGMENT))
            .with(ClassDef::new("a.NewsFrag", "a.BaseFrag"))
            .with(ClassDef::new("a.Main", well_known::ACTIVITY).with_method(
                MethodDef::new("onCreate").push(Stmt::NewInstance(ClassName::new("a.NewsFrag"))),
            ))
            .with(ClassDef::new("a.Main$1", well_known::OBJECT))
    }

    #[test]
    fn super_chain_walks_to_framework() {
        let p = pool();
        let chain = p.super_chain("a.NewsFrag");
        let names: Vec<&str> = chain.iter().map(|c| c.as_str()).collect();
        assert_eq!(names, vec!["a.NewsFrag", "a.BaseFrag", well_known::SUPPORT_FRAGMENT]);
    }

    #[test]
    fn super_chain_of_unknown_class_is_singleton() {
        let chain = pool().super_chain("not.There");
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn super_chain_breaks_cycles() {
        let p =
            ClassPool::new().with(ClassDef::new("a.A", "a.B")).with(ClassDef::new("a.B", "a.A"));
        let chain = p.super_chain("a.A");
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn fragment_and_activity_classification() {
        let p = pool();
        assert!(p.is_fragment_class("a.NewsFrag"));
        assert!(p.is_fragment_class("a.BaseFrag"));
        assert!(!p.is_fragment_class("a.Main"));
        assert!(p.is_activity_class("a.Main"));
        assert!(!p.is_activity_class("a.NewsFrag"));
    }

    #[test]
    fn inner_classes_found_by_prefix() {
        let p = pool();
        let names: Vec<&str> = p.with_inner_classes("a.Main").map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.Main", "a.Main$1"]);
    }

    #[test]
    fn inner_class_prefix_does_not_match_similar_names() {
        let p = pool().with(ClassDef::new("a.Main2", well_known::OBJECT));
        assert!(p.with_inner_classes("a.Main").all(|c| c.name.as_str() != "a.Main2"));
    }

    /// The whole-pool filter `with_inner_classes` replaced, kept as its
    /// oracle.
    fn inner_by_filter<'a>(p: &'a ClassPool, class: &str) -> Vec<&'a str> {
        let prefix = format!("{class}$");
        p.names().map(ClassName::as_str).filter(|n| *n == class || n.starts_with(&prefix)).collect()
    }

    #[test]
    fn inner_classes_agree_with_the_whole_pool_filter_among_neighbours() {
        // `!` sorts before `$` and `X` after it, so `a.Main!x` and
        // `a.MainX` sit on either side of `a.Main`'s inner classes.
        let names = ["a.Mai", "a.Main", "a.Main!x", "a.Main$1", "a.Main$1$2", "a.MainX"];
        let p: ClassPool = names.iter().map(|n| ClassDef::new(*n, well_known::OBJECT)).collect();
        for class in names.into_iter().chain(["", "a.Ma", "a.Main$", "a.Nope", "b.Main"]) {
            let got: Vec<&str> = p.with_inner_classes(class).map(|c| c.name.as_str()).collect();
            assert_eq!(got, inner_by_filter(&p, class), "inner classes of {class:?}");
        }
        let main: Vec<&str> = p.with_inner_classes("a.Main").map(|c| c.name.as_str()).collect();
        assert_eq!(main, ["a.Main", "a.Main$1", "a.Main$1$2"]);
    }

    #[test]
    fn insert_on_a_clone_leaves_the_original_unchanged() {
        let original = pool();
        let mut copy = original.clone();
        assert!(
            std::ptr::eq(original.get("a.Main").unwrap(), copy.get("a.Main").unwrap()),
            "a clone shares the class bodies"
        );
        copy.insert(ClassDef::new("a.Extra", well_known::OBJECT));
        copy.insert(ClassDef::new("a.Main", well_known::OBJECT));
        assert_eq!(original, pool());
        assert!(!original.contains("a.Extra"));
        assert!(original.is_activity_class("a.Main"));
        assert!(!copy.is_activity_class("a.Main"));
        assert_eq!(copy.len(), original.len() + 1);
    }

    #[test]
    fn used_classes_from_code() {
        let p = pool();
        let used = p.used_classes("a.Main");
        assert!(used.contains("a.NewsFrag"));
    }

    #[test]
    fn subclasses_of_any_finds_transitive() {
        let p = pool();
        let frags = p.subclasses_of_any([well_known::SUPPORT_FRAGMENT]);
        let names: Vec<&str> = frags.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.BaseFrag", "a.NewsFrag"]);
    }
}
