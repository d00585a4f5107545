//! The decoded app is shared, not copied: a clone of an
//! [`AndroidApp`](apk::AndroidApp) shares its class bodies and every
//! layout, and sharing changes no byte the app serializes to. The
//! hierarchy walk that replaced the materialized super chain is checked
//! against it on every Table I class.

use fragdroid_repro::apk::{
    self,
    corpus::{fnv1a, DIGEST_SEED},
};
use fragdroid_repro::appgen::paper_apps::all_paper_apps;
use fragdroid_repro::smali::{well_known, ClassDef};
use std::sync::Arc;

#[test]
fn app_clones_share_the_pool_and_every_layout() {
    for (spec, gen) in all_paper_apps() {
        let app = gen.app;
        let copy = app.clone();
        assert!(!app.classes.is_empty() && !app.layouts.is_empty(), "{}", spec.package);
        for (original, cloned) in app.classes.iter().zip(copy.classes.iter()) {
            assert!(
                std::ptr::eq(original, cloned),
                "{}: {} was copied",
                spec.package,
                original.name
            );
        }
        for (name, layout) in &app.layouts {
            assert!(Arc::ptr_eq(layout, &copy.layouts[name]), "{}: layout {name}", spec.package);
        }
    }
}

/// FNV digests over every Table I app's `pack` bytes, and over the JSON
/// of the app and of its decompiled copy, as the owned (unshared) app
/// produced them.
const PACK_DIGEST: u64 = 0xc6dc_e0a7_9f6b_987c;
const JSON_DIGEST: u64 = 0x8a44_369c_2a3f_fab5;

#[test]
fn shared_apps_pack_and_serialize_to_the_pinned_bytes() {
    let mut pack = DIGEST_SEED;
    let mut json = DIGEST_SEED;
    for (_, gen) in all_paper_apps() {
        let bytes = apk::pack(&gen.app);
        pack = fnv1a(pack, &bytes);
        json = fnv1a(json, serde_json::to_string(&gen.app).unwrap().as_bytes());
        let decoded = apk::decompile(&bytes).expect("Table I apps decode");
        json = fnv1a(json, serde_json::to_string(&decoded).unwrap().as_bytes());
    }
    assert_eq!(pack, PACK_DIGEST, "container bytes drifted: {pack:#018x}");
    assert_eq!(json, JSON_DIGEST, "app JSON drifted: {json:#018x}");
}

#[test]
fn subclass_walk_agrees_with_the_super_chain_on_every_table1_class() {
    let unknown = "not.a.Class";
    for (spec, gen) in all_paper_apps() {
        let mut pool = gen.app.classes.clone();
        // Malformed hierarchies the generated apps never contain: a
        // two-cycle, a tail into it, a self-loop, and a chain ending in
        // an unknown class.
        pool.insert(ClassDef::new("z.CycleA", "z.CycleB"));
        pool.insert(ClassDef::new("z.CycleB", "z.CycleA"));
        pool.insert(ClassDef::new("z.Tail", "z.CycleA"));
        pool.insert(ClassDef::new("z.Self", "z.Self"));
        pool.insert(ClassDef::new("z.Orphan", unknown));
        let framework = [
            well_known::ACTIVITY,
            well_known::SUPPORT_ACTIVITY,
            well_known::FRAGMENT,
            well_known::SUPPORT_FRAGMENT,
            well_known::OBJECT,
            unknown,
        ];
        let names: Vec<&str> = pool.names().map(|n| n.as_str()).chain([unknown]).collect();
        for &name in &names {
            let chain = pool.super_chain(name);
            for &ancestor in names.iter().chain(&framework) {
                assert_eq!(
                    pool.is_subclass_of(name, ancestor),
                    chain.iter().any(|link| link.as_str() == ancestor),
                    "{}: {name} <: {ancestor}",
                    spec.package
                );
            }
        }
    }
}
