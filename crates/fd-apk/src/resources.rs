//! The resource table: numeric resource-ID assignment.
//!
//! Android's `aapt` assigns every resource a unique `0x7fTTEEEE` integer
//! (package `7f`, type byte, entry index). The paper's resource dependency
//! (§V-B) is keyed on these numbers; here the table maps the symbolic
//! [`ResRef`]s used throughout the IR to their numeric IDs and back.

use fd_smali::{ResKind, ResName, ResRef};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

const PACKAGE_BYTE: u32 = 0x7f;

fn type_byte(kind: ResKind) -> u32 {
    match kind {
        ResKind::Id => 0x01,
        ResKind::Layout => 0x02,
        ResKind::Menu => 0x03,
        ResKind::String => 0x04,
    }
}

/// A bidirectional symbolic-name ⇄ numeric-ID table.
///
/// The forward map is the table; the reverse index is derived from it on
/// the first [`ResourceTable::res_of`], since decoding an app interns
/// every resource but the pipeline seldom looks one up by number.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ResourceTable {
    /// Serialized as a list of pairs — JSON maps need string keys.
    #[serde(with = "pairs")]
    forward: BTreeMap<ResRef, u32>,
    #[serde(skip)]
    reverse: OnceLock<BTreeMap<u32, ResRef>>,
}

impl PartialEq for ResourceTable {
    /// Tables are equal when their forward maps are: the reverse index is
    /// a cache of the forward map.
    fn eq(&self, other: &Self) -> bool {
        self.forward == other.forward
    }
}

impl Eq for ResourceTable {}

mod pairs {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<ResRef, u32>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        let entries: Vec<(&ResRef, u32)> = map.iter().map(|(r, &id)| (r, id)).collect();
        serde::Serialize::serialize(&entries, ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<BTreeMap<ResRef, u32>, D::Error> {
        let entries: Vec<(ResRef, u32)> = serde::Deserialize::deserialize(de)?;
        Ok(entries.into_iter().collect())
    }
}

impl ResourceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a resource, assigning the next free numeric ID in its type
    /// block; returns the (possibly pre-existing) numeric ID.
    pub fn intern(&mut self, res: &ResRef) -> u32 {
        if let Some(&id) = self.forward.get(res) {
            return id;
        }
        self.intern_all([(res.kind, &res.name)]);
        self.forward[res]
    }

    /// Interns every `(kind, name)` reference of `refs` not yet in the
    /// table, exactly as [`ResourceTable::intern`] on each in turn would:
    /// the new references of one type block get the entries after the
    /// block's highest, in order of first appearance. The table grows in
    /// bulk — one sort of the borrowed references, and a name is cloned
    /// only once it is known to be new — instead of a probe and a tree
    /// insert per reference.
    pub fn intern_all<'r>(&mut self, refs: impl IntoIterator<Item = (ResKind, &'r ResName)>) {
        // (kind, name, first appearance), then sorted so each reference's
        // first appearance leads its run.
        let mut fresh: Vec<(ResKind, &ResName, usize)> =
            refs.into_iter().zip(0..).map(|((kind, name), seen)| (kind, name, seen)).collect();
        fresh.sort_unstable();
        fresh.dedup_by(|later, first| later.0 == first.0 && later.1 == first.1);
        if !self.forward.is_empty() {
            fresh.retain(|&(kind, name, _)| {
                !self.forward.contains_key(&ResRef::new(kind, name.clone()))
            });
        }
        if fresh.is_empty() {
            return;
        }
        // Blocks ascend with the kind, so numbering in (kind, first
        // appearance) order hands out ascending IDs.
        let mut by_id: Vec<usize> = (0..fresh.len()).collect();
        by_id.sort_unstable_by_key(|&i| (fresh[i].0, fresh[i].2));
        let mut ids = vec![0u32; fresh.len()];
        let mut block = u32::MAX;
        let mut next = 0;
        for &i in &by_id {
            let res_block = (PACKAGE_BYTE << 24) | (type_byte(fresh[i].0) << 16);
            if res_block != block {
                block = res_block;
                // The highest ID already assigned in this block
                // determines its next entry.
                let high = self.forward.values().filter(|&&id| id & !0xffff == block).max();
                next = high.map_or(block, |&high| high + 1);
            }
            ids[i] = next;
            next += 1;
        }
        // The old entries, then the new ones in key order: two sorted
        // runs, which `collect` merges and builds in bulk.
        let fresh = fresh
            .into_iter()
            .zip(ids)
            .map(|((kind, name, _), id)| (ResRef::new(kind, name.clone()), id));
        self.forward = std::mem::take(&mut self.forward).into_iter().chain(fresh).collect();
        self.reverse = OnceLock::new();
    }

    /// Looks up the numeric ID of a symbolic reference.
    pub fn id_of(&self, res: &ResRef) -> Option<u32> {
        self.forward.get(res).copied()
    }

    /// Looks up the symbolic reference behind a numeric ID.
    pub fn res_of(&self, id: u32) -> Option<&ResRef> {
        let reverse = self
            .reverse
            .get_or_init(|| self.forward.iter().map(|(r, &id)| (id, r.clone())).collect());
        reverse.get(&id)
    }

    /// Number of interned resources.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Iterates over `(symbolic, numeric)` pairs in symbolic order.
    pub fn iter(&self) -> impl Iterator<Item = (&ResRef, u32)> {
        self.forward.iter().map(|(r, &id)| (r, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = ResourceTable::new();
        let a = t.intern(&ResRef::id("go"));
        let b = t.intern(&ResRef::id("go"));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_unique_across_kinds_and_names() {
        let mut t = ResourceTable::new();
        let ids = [
            t.intern(&ResRef::id("a")),
            t.intern(&ResRef::id("b")),
            t.intern(&ResRef::layout("a")),
            t.intern(&ResRef::menu("a")),
        ];
        let mut dedup = ids.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn numeric_format_is_aapt_like() {
        let mut t = ResourceTable::new();
        assert_eq!(t.intern(&ResRef::id("x")), 0x7f01_0000);
        assert_eq!(t.intern(&ResRef::id("y")), 0x7f01_0001);
        assert_eq!(t.intern(&ResRef::layout("main")), 0x7f02_0000);
    }

    #[test]
    fn bulk_interning_numbers_like_one_at_a_time() {
        let refs = |names: &[(ResKind, &str)]| -> Vec<ResRef> {
            names.iter().map(|&(kind, name)| ResRef::new(kind, name)).collect()
        };
        let first = refs(&[
            (ResKind::Layout, "main"),
            (ResKind::Id, "go"),
            (ResKind::Id, "back"),
            (ResKind::Layout, "main"),
            (ResKind::Menu, "more"),
        ]);
        let second = refs(&[
            (ResKind::Id, "zeta"),
            (ResKind::Id, "go"),
            (ResKind::Layout, "aux"),
            (ResKind::Id, "alpha"),
            (ResKind::Id, "zeta"),
        ]);
        let mut one_by_one = ResourceTable::new();
        for r in first.iter().chain(&second) {
            one_by_one.intern(r);
        }
        let mut bulk = ResourceTable::new();
        // A lookup caches the (empty) reverse index; interning drops it.
        assert_eq!(bulk.res_of(0x7f01_0000), None);
        bulk.intern_all(first.iter().map(|r| (r.kind, &r.name)));
        bulk.intern_all(second.iter().map(|r| (r.kind, &r.name)));
        assert_eq!(bulk, one_by_one);
        // Per block, in order of first appearance across both calls.
        let expected = [
            (ResRef::id("go"), 0x7f01_0000),
            (ResRef::id("back"), 0x7f01_0001),
            (ResRef::id("zeta"), 0x7f01_0002),
            (ResRef::id("alpha"), 0x7f01_0003),
            (ResRef::layout("main"), 0x7f02_0000),
            (ResRef::layout("aux"), 0x7f02_0001),
            (ResRef::menu("more"), 0x7f03_0000),
        ];
        assert_eq!(bulk.len(), expected.len());
        for (r, id) in expected {
            assert_eq!(bulk.id_of(&r), Some(id), "{r}");
        }
        for (r, id) in bulk.iter() {
            assert_eq!(bulk.res_of(id), Some(r));
        }
    }

    #[test]
    fn reverse_lookup() {
        let mut t = ResourceTable::new();
        let r = ResRef::layout("main");
        let id = t.intern(&r);
        assert_eq!(t.res_of(id), Some(&r));
        assert_eq!(t.id_of(&r), Some(id));
    }

    #[test]
    fn intern_after_deserialize_self_heals_reverse_index() {
        let mut t = ResourceTable::new();
        t.intern(&ResRef::id("a"));
        t.intern(&ResRef::id("b"));
        let json = serde_json::to_string(&t).unwrap();
        let mut back: ResourceTable = serde_json::from_str(&json).unwrap();
        // The reverse index is skipped in JSON; numbering reads the
        // forward map, so no colliding ID is handed out.
        assert_eq!(back.intern(&ResRef::id("c")), 0x7f01_0002);
        assert_eq!(back.res_of(0x7f01_0000), Some(&ResRef::id("a")));
    }

    #[test]
    fn serde_roundtrip_derives_the_reverse_index() {
        let mut t = ResourceTable::new();
        let id = t.intern(&ResRef::id("go"));
        let json = serde_json::to_string(&t).unwrap();
        let back: ResourceTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.res_of(id), Some(&ResRef::id("go")));
        assert_eq!(back, t);
    }
}
