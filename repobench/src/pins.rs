//! Pinned per-seed results: the outcome digest and coverage sums of both
//! corpus workloads and the digest of the first served reports. A run
//! whose seed is in a table must reproduce it exactly; other seeds are
//! still checked for self-consistency by each workload.
//!
//! Regenerate after an intended behaviour change with
//! `cargo test --release --manifest-path repobench/Cargo.toml -- --ignored --nocapture`.

use fd_appgen::stream::Profile;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `(seed, outcome digest, visited activities, visited fragments)` of the
/// `corpus-paper` corpus.
const PAPER: &[(u64, u64, usize, usize)] = &[
    (0, 0x222857652b013863, 6513, 3422),
    (1, 0x1a04bdd2bd109228, 6515, 3402),
    (2, 0x3eb18235484ff6e7, 6511, 3397),
    (3, 0xa2eeff279b0230c1, 6502, 3400),
    (4, 0x54e5431ab72736c6, 6523, 3424),
    (5, 0x51e17ce2782caefd, 6504, 3380),
    (6, 0x4a3322bedd56c3d1, 6509, 3403),
    (7, 0xf4e90aa27c3ce173, 6514, 3429),
    (8, 0xe7b45f7889f642c7, 6520, 3414),
    (9, 0x759a572f557ccc59, 6509, 3398),
    (10, 0x4137c7262577c8d3, 6496, 3378),
    (11, 0x3a7bdcedaf43430a, 6502, 3401),
    (12, 0xc33ee858ca3ff32e, 6500, 3388),
    (13, 0x68bf72c4eb2a01c4, 6523, 3403),
    (14, 0x3993c58753f205c6, 6509, 3392),
    (15, 0xf76e605878fde6f5, 6522, 3406),
    (16, 0xd01307666870b683, 6508, 3429),
    (17, 0x9fb25fe8d6ba4eab, 6523, 3407),
    (18, 0xde717e4a7d1481e0, 6496, 3416),
    (19, 0xdd14886b4c094b67, 6509, 3398),
    (20, 0x750111f7f411fbda, 6518, 3389),
    (21, 0x3d2662ac5ae96c17, 6506, 3399),
    (22, 0x298697d25cb1d178, 6522, 3429),
    (23, 0xc574179e7f07f99b, 6503, 3411),
    (24, 0x41215f6a178638f0, 6510, 3407),
    (25, 0xab0a05916526b242, 6511, 3418),
    (26, 0x852675e1cff2b21d, 6523, 3433),
    (27, 0x1bdcee30abf1c3c1, 6515, 3432),
    (28, 0xec020d1f04053758, 6514, 3414),
    (29, 0x0643394bee513483, 6514, 3424),
    (30, 0x156ce1fcdd15734c, 6500, 3410),
    (31, 0x17f609a2deb261b8, 6524, 3436),
    (32, 0xbb5453faac8f66dd, 6499, 3408),
    (33, 0xb7ca22bdfe234d9d, 6521, 3403),
    (34, 0x3b57e9c1e80d380a, 6513, 3431),
    (35, 0xde323e89b1442ab9, 6534, 3428),
    (36, 0xeefa8530f70f64b6, 6516, 3437),
    (37, 0x2117451708f89d31, 6514, 3405),
    (38, 0x8de4f632308d846e, 6512, 3420),
    (39, 0xdaf6454e6b332aa3, 6511, 3399),
    (40, 0xf6652f8941948be7, 6522, 3423),
    (41, 0xc85002da1098afeb, 6514, 3400),
    (42, 0x3672b701e087b869, 6534, 3422),
    (43, 0x9a1f8baf19a11fba, 6503, 3425),
    (44, 0x03b7f45db35f5038, 6532, 3412),
    (45, 0x83ff5fa856dae320, 6521, 3437),
    (46, 0xe5ad8816c5d82868, 6508, 3406),
    (47, 0xf3d2d3de7029ac65, 6512, 3385),
    (48, 0x8931c3a632f71105, 6501, 3407),
    (49, 0xdf8cd6e3104d1a67, 6523, 3435),
    (50, 0xe9dfcd8b70f7a9e1, 6509, 3399),
    (51, 0x94f6dabba0149a4b, 6524, 3400),
    (52, 0x95fe84a18570f8a4, 6505, 3418),
    (53, 0x8c2700e92a37bde3, 6525, 3412),
    (54, 0x1b1e39f25f3650e4, 6510, 3430),
    (55, 0x53141e570f043dd1, 6496, 3380),
    (56, 0xa3fd70d97231e819, 6501, 3390),
    (57, 0xef19c41c4ef653f0, 6503, 3404),
    (58, 0x299f2116de00cd92, 6514, 3414),
    (59, 0x1535422947346778, 6514, 3398),
    (60, 0x07e7bd6ca5d47bf0, 6532, 3403),
    (61, 0x3340dd8234d943d5, 6526, 3435),
    (62, 0x15c95610b62b185c, 6528, 3418),
    (63, 0x826d0853c1176699, 6516, 3424),
];

/// The same for the `corpus-tiny-journal` corpus.
const TINY: &[(u64, u64, usize, usize)] = &[
    (0, 0xca845690fca3c6e1, 7673, 6575),
    (1, 0xfb71f303a9e1cbea, 7687, 6590),
    (2, 0x18d58b6818823d5e, 7692, 6584),
    (3, 0xb7c8408f8ea0ec9a, 7669, 6594),
    (4, 0xf0e419112f7df1d6, 7690, 6580),
    (5, 0x52df7e52cf696aad, 7688, 6591),
    (6, 0x8ab7793e62334343, 7679, 6599),
    (7, 0xc4d1d71bdd5b8500, 7694, 6583),
    (8, 0x59bcae6545db58dd, 7690, 6585),
    (9, 0xe9e5b2000ca00ca5, 7674, 6579),
    (10, 0x0064ff3fba631d7b, 7685, 6577),
    (11, 0x552f1f0901e05f6f, 7703, 6599),
    (12, 0x8dcde69ecb03bc04, 7673, 6587),
    (13, 0xbab7310fe251e0da, 7686, 6565),
    (14, 0xf373c89875f7313e, 7689, 6569),
    (15, 0xab14954a1115981d, 7680, 6580),
    (16, 0x6d18e7a63f216825, 7688, 6565),
    (17, 0xe10fd4337aac933a, 7689, 6584),
    (18, 0xd9a2f6315331e2ce, 7686, 6581),
    (19, 0x193eb951903072c2, 7688, 6570),
    (20, 0xa6a47ce6d2e50657, 7691, 6590),
    (21, 0x2f37e11432a356d3, 7695, 6590),
    (22, 0x1c76e7950b5ee498, 7684, 6571),
    (23, 0xed272aa7a4c816b1, 7696, 6587),
    (24, 0x9fe162699a1630c1, 7686, 6598),
    (25, 0x081a827b807b1ee5, 7687, 6581),
    (26, 0x5da8b6e81945cdac, 7681, 6595),
    (27, 0xc2d85409feac15f1, 7684, 6590),
    (28, 0xf68225ec4825c222, 7690, 6583),
    (29, 0x725b3ce78eb47ed0, 7687, 6585),
    (30, 0x5d1f99de1a296bc3, 7688, 6595),
    (31, 0x457cd16bf2cc7382, 7681, 6568),
    (32, 0x6521029ea673e5cf, 7683, 6585),
    (33, 0x09676461e8049843, 7687, 6596),
    (34, 0x1f8b2a4666d96173, 7689, 6581),
    (35, 0x0ce4aad2135d09c5, 7682, 6585),
    (36, 0x8ae8ef54feaae515, 7687, 6600),
    (37, 0xcde2d4c3d8f640e7, 7693, 6575),
    (38, 0x80ace624d745151d, 7687, 6583),
    (39, 0x1ceab06cd27fc992, 7684, 6596),
    (40, 0xb8d2e0ba1dfe6b04, 7698, 6591),
    (41, 0x13bd2471755f74e1, 7689, 6589),
    (42, 0x4f2083e3ebed65c1, 7690, 6588),
    (43, 0x74835eac66496eff, 7692, 6583),
    (44, 0x653c3a5860406d9f, 7687, 6592),
    (45, 0xc127b2b3b0c2f0cc, 7692, 6595),
    (46, 0x1d66fb15704d4701, 7693, 6573),
    (47, 0x73a3d3e8212b5be4, 7691, 6600),
    (48, 0x9f5b8523944623fa, 7693, 6588),
    (49, 0xa43b065aad95b134, 7693, 6554),
    (50, 0x992576746d008745, 7693, 6604),
    (51, 0x5959da20237a6024, 7688, 6586),
    (52, 0x81952626af28c077, 7693, 6552),
    (53, 0xc6c53115044afc0a, 7696, 6593),
    (54, 0xc58099964852207f, 7685, 6597),
    (55, 0x07b9372063de3e2c, 7694, 6581),
    (56, 0xb1f2e25f9ff55009, 7691, 6575),
    (57, 0x48a2b4806c2c6158, 7672, 6570),
    (58, 0x42b57d61efa71ee5, 7691, 6573),
    (59, 0x4d397f3c962ddaf0, 7691, 6587),
    (60, 0xc544443cbe1c607b, 7680, 6569),
    (61, 0x3ea58985f280b76e, 7698, 6585),
    (62, 0x355cd7d8d1f9d191, 7694, 6609),
    (63, 0xde8968410ad7db26, 7680, 6583),
];

/// `(seed, digest of the first served replies)` for `serve-open`.
const SERVE: &[(u64, u64)] = &[
    (0, 0x17beac2e721fbd6b),
    (1, 0xb1d5bc3edd547f36),
    (2, 0x811efd468214e9bd),
    (3, 0x4bf1882831427fa9),
    (4, 0x4ababee0ce6247ba),
    (5, 0xcce7e0f28018778a),
    (6, 0xebc8faa2eb55df55),
    (7, 0x4aea2f96fc0d4223),
    (8, 0x8706029aef125c3c),
    (9, 0x0f72eb9a0ecfc8de),
    (10, 0x67c8ac662c068491),
    (11, 0x5df108922f5444ba),
    (12, 0xfdc76edfe4f027a5),
    (13, 0x70191cff6352e3d1),
    (14, 0x2929943dce43a86c),
    (15, 0xa5ec22b23046b812),
    (16, 0x5343271ff0b5f642),
    (17, 0xa5d8ad6eb7334ee5),
    (18, 0x3fd3271c8f5d0b90),
    (19, 0x08fb342623469d04),
    (20, 0x34f2792f14aca6ab),
    (21, 0xfcb01c7fd90a1576),
    (22, 0x3fab001a2f594a36),
    (23, 0x580e8b7b497a2a89),
    (24, 0x91a12e7623af6528),
    (25, 0xd6f1074fb3f21a42),
    (26, 0x65b4a33e1deda1de),
    (27, 0x5373f296c64b76f4),
    (28, 0x9d348bfdb01f7456),
    (29, 0x66bed721edbbc307),
    (30, 0xd62e7ea5d1599b80),
    (31, 0x4d20025d3b8ff9ac),
    (32, 0x2302e69d17478fa9),
    (33, 0xb1a4bd37816a4aad),
    (34, 0x85087e034e36c07b),
    (35, 0x0ceeb5e18de7a512),
    (36, 0x7b92b2a01c403bdb),
    (37, 0xab7003845f7f81fb),
    (38, 0x72087ae513553564),
    (39, 0xf855058794088ef0),
    (40, 0x1dc8592de4f1e77f),
    (41, 0x3f7095324a26cb80),
    (42, 0x6d20d61488f6c86a),
    (43, 0x5c6b6df3bbca7ce8),
    (44, 0xaad91c8304a7367a),
    (45, 0x668674df82626110),
    (46, 0x2c3b2fc642fc2429),
    (47, 0xb77056b1abc0134f),
    (48, 0xaa36b70f7cc8748b),
    (49, 0xf27f1e4423192de5),
    (50, 0xc4bc17c56c411691),
    (51, 0x5f11d040221d5fe4),
    (52, 0x0ece3c7a5c498c7d),
    (53, 0x32440c30c58c897c),
    (54, 0x53a23cb00b4b0472),
    (55, 0xb0d3b3daf61f778b),
    (56, 0xec9432267fcb6d14),
    (57, 0x2fc91ed7dfdc9d8c),
    (58, 0x4796d74f08963471),
    (59, 0xfdf40c215d028d0a),
    (60, 0x57da990310625ecc),
    (61, 0x0b0210dc4aeb48be),
    (62, 0xd4ca95728bbad8f3),
    (63, 0xa98dab9a4eea7e44),
];

/// Compares a corpus result with its pin; `Some(problem)` on mismatch.
pub fn check(profile: Profile, seed: u64, digest: u64, coverage: (usize, usize)) -> Option<String> {
    let table = match profile {
        Profile::Paper => PAPER,
        Profile::Tiny => TINY,
    };
    let &(_, want, activities, fragments) = table.iter().find(|row| row.0 == seed)?;
    (digest != want || coverage != (activities, fragments)).then(|| {
        format!(
            "{} seed {seed}: digest {digest:#018x} coverage {coverage:?} != pinned \
             {want:#018x} ({activities}, {fragments})",
            profile.name()
        )
    })
}

/// Compares the served-report digest with its pin.
pub fn check_serve(seed: u64, digest: u64) -> Option<String> {
    let &(_, want) = SERVE.iter().find(|row| row.0 == seed)?;
    (digest != want)
        .then(|| format!("serve seed {seed}: report digest {digest:#018x} != pinned {want:#018x}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{coverage, ensure_corpus, PAPER_APPS, TINY_APPS};
    use crate::serve::{load_entries, pinned_digest, Server};

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// Prints the pin tables for seeds 0..64.
    #[test]
    #[ignore]
    fn print_pin_tables() {
        let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_data");
        std::fs::create_dir_all(data.join("tmp")).expect("data dir");
        let workers = crate::host::workers();
        let config = fragdroid::FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        for (profile, apps) in [(Profile::Paper, PAPER_APPS), (Profile::Tiny, TINY_APPS)] {
            println!("{}:", profile.name());
            for seed in 0..64 {
                let dir = ensure_corpus(&data, profile, apps, seed).expect("corpus");
                let reader = fd_apk::corpus::CorpusReader::open(&dir).expect("open");
                let (run, _) = fragdroid::run_corpus_suite_traced(&reader, &config, workers, &off);
                let (a, f) = coverage(&run.outcomes);
                println!("    ({seed}, {:#018x}, {a}, {f}),", run.outcome_digest());
            }
        }
        println!("serve:");
        for seed in 0..64 {
            let entries = load_entries(&data, seed).expect("entries");
            let server = Server::start(workers, None).expect("server");
            server.wait_ready().expect("ready");
            let digest = pinned_digest(&server.addr, &entries, workers).expect("digest");
            server.stop().expect("stop");
            println!("    ({seed}, {digest:#018x}),");
        }
    }
}
