//! Cross-crate ingestion properties: structure-aware mutants never
//! panic the decode → extract pipeline, and well-formed containers
//! produce byte-identical reports however (and how often) they are run.

use bytes::Bytes;
use fragdroid_repro::appgen::random::{generate, GenConfig};
use fragdroid_repro::tool::{FragDroid, FragDroidConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn small_gen_config() -> GenConfig {
    GenConfig { activities: 3, fragments: 3, ..GenConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fd-fuzz byte-level mutator thrown at freshly packed apps
    /// never panics decompile, and whatever still decodes never panics
    /// static extraction — the same invariant the campaign driver
    /// asserts, here over per-seed random apps instead of templates.
    #[test]
    fn structure_aware_mutants_never_panic_decode_or_extract(seed in 0u64..300) {
        let gen = generate("prop.ingest", &small_gen_config(), seed);
        let packed = fragdroid_repro::apk::pack(&gen.app).to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mutant = fragdroid_repro::fuzz::mutate_bytes(&packed, &mut rng);
        if let Ok(app) = fragdroid_repro::apk::decompile(&Bytes::from(mutant)) {
            let _ = fragdroid_repro::stat::extract(&app, &Default::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A well-formed container reports byte-identically run after run,
    /// and identically whether it enters through the container suite
    /// (decode at the frontier) or as an already-decoded app.
    #[test]
    fn well_formed_containers_report_byte_identically(seed in 0u64..1000) {
        let gen = generate("prop.ingest", &small_gen_config(), seed);
        let config = FragDroidConfig { event_budget: 2_000, ..FragDroidConfig::default() };

        let containers =
            vec![(fragdroid_repro::apk::pack(&gen.app), gen.known_inputs.clone())];
        let suite = fragdroid_repro::tool::Suite::new(&config, 1);
        let (first, _) = suite.run(&containers);
        let (second, _) = suite.run(&containers);
        let first_report = first.outcomes[0].report().expect("well-formed input completes");
        let second_report = second.outcomes[0].report().expect("well-formed input completes");
        let first_json = serde_json::to_string(first_report).expect("report serializes");
        prop_assert_eq!(
            &first_json,
            &serde_json::to_string(second_report).expect("report serializes")
        );

        let direct = FragDroid::new(config).run(&gen.app, &gen.known_inputs);
        prop_assert_eq!(
            &first_json,
            &serde_json::to_string(&direct).expect("report serializes")
        );
    }
}
