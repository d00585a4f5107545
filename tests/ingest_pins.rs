//! Ingest pins: the decoded app and the static phase's output, as JSON,
//! hashed over the 15 Table I apps and the first 300 apps of the seeded
//! `paper` corpus profile. Decode and static extraction may change how
//! they work, never what they produce: the resource table's numeric
//! IDs, every class body, the AFTM and the dependency maps all land in
//! these bytes. A decode that is refused (the packer-protected apps)
//! contributes its error text instead, so rejection reasons are pinned
//! too.

use fragdroid_repro::apk::{
    self,
    corpus::{fnv1a, DIGEST_SEED},
};
use fragdroid_repro::appgen::paper_apps::all_paper_apps;
use fragdroid_repro::appgen::stream::{generate_stream_app, Profile};
use fragdroid_repro::appgen::GeneratedApp;
use fragdroid_repro::stat;

/// Apps of the seeded `paper` profile folded into the digests.
const PAPER_APPS: usize = 300;
/// The corpus seed those apps come from.
const PAPER_SEED: u64 = 1;

/// FNV digest over each decompiled app's JSON (or its decode error).
const DECODED_DIGEST: u64 = 0x2e37_c8ff_6313_6991;
/// FNV digest over each decodable app's `StaticInfo` JSON.
const STATIC_DIGEST: u64 = 0xdabd_c71b_d004_2c63;

/// Folds one generated app into the two digests.
fn fold(gen: &GeneratedApp, decoded: &mut u64, statics: &mut u64) {
    let bytes = apk::pack(&gen.app);
    match apk::decompile(&bytes) {
        Ok(app) => {
            *decoded = fnv1a(*decoded, serde_json::to_string(&app).unwrap().as_bytes());
            let info = stat::extract(&app, &gen.known_inputs);
            *statics = fnv1a(*statics, serde_json::to_string(&info).unwrap().as_bytes());
        }
        Err(error) => *decoded = fnv1a(*decoded, error.to_string().as_bytes()),
    }
}

#[test]
fn decoded_apps_and_static_info_match_the_pinned_digests() {
    let (mut decoded, mut statics) = (DIGEST_SEED, DIGEST_SEED);
    for (_, gen) in all_paper_apps() {
        fold(&gen, &mut decoded, &mut statics);
    }
    for index in 0..PAPER_APPS {
        fold(&generate_stream_app(Profile::Paper, PAPER_SEED, index), &mut decoded, &mut statics);
    }
    assert_eq!(decoded, DECODED_DIGEST, "decoded app JSON drifted: {decoded:#018x}");
    assert_eq!(statics, STATIC_DIGEST, "StaticInfo JSON drifted: {statics:#018x}");
}
