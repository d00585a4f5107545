//! Streaming-serializer identity: `serde_json::to_string` now streams
//! through `Serialize::write_json` instead of building a `Value` tree,
//! and the two must stay byte-identical — the checkpoint journal's
//! checksummed lines and the container fingerprint both hash these
//! bytes. Each case here compares the streamed string against the tree
//! render (`to_value().render_json(false)`) on an edge the fast path
//! could plausibly get wrong, and the re-indented pretty text
//! (`serde_json::to_string_pretty`, which every `--json` printer and
//! serve's reports use) against the pretty tree render, and
//! `serde_json::compact` of it, which serve's journal recovery uses,
//! against the compact text.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

fn assert_stream_matches_tree<T: Serialize>(value: &T) {
    let mut streamed = String::new();
    value.write_json(&mut streamed);
    let tree = value.to_value().render_json(false);
    assert_eq!(streamed, tree);
    assert_eq!(serde_json::to_string(value).expect("serializes"), tree);
    let pretty = serde_json::to_string_pretty(value).expect("serializes");
    assert_eq!(pretty, value.to_value().render_json(true));
    assert_eq!(serde_json::compact(&pretty), tree, "compact undoes the re-indent");
}

#[test]
fn numbers_stream_identically() {
    assert_stream_matches_tree(&0u8);
    assert_stream_matches_tree(&u64::MAX);
    assert_stream_matches_tree(&i64::MIN);
    assert_stream_matches_tree(&-1i32);
    // u128/i128 beyond the u64/i64 range fall back to the float render.
    assert_stream_matches_tree(&(u64::MAX as u128 + 1));
    assert_stream_matches_tree(&(i64::MIN as i128 - 1));
    // Float formatting: integral values keep a trailing ".1"-style
    // fraction, non-integral print shortest-roundtrip, non-finite are
    // null — all three shapes must match the tree exactly.
    assert_stream_matches_tree(&1.0f64);
    assert_stream_matches_tree(&-0.0f64);
    assert_stream_matches_tree(&1.5f64);
    assert_stream_matches_tree(&0.1f32);
    assert_stream_matches_tree(&f64::NAN);
    assert_stream_matches_tree(&f64::INFINITY);
    assert_stream_matches_tree(&f64::NEG_INFINITY);
    assert_stream_matches_tree(&2.0f64.powi(63));
}

#[test]
fn strings_and_chars_stream_identically() {
    assert_stream_matches_tree(&"");
    assert_stream_matches_tree(&"plain");
    assert_stream_matches_tree(&"quote\" backslash\\ newline\n tab\t nul\0");
    assert_stream_matches_tree(&"\u{1}\u{1f}\u{7f} é 漢 🦀");
    assert_stream_matches_tree(&String::from("owned \"s\""));
    assert_stream_matches_tree(&'a');
    assert_stream_matches_tree(&'"');
    assert_stream_matches_tree(&'\n');
    assert_stream_matches_tree(&'🦀');
}

#[test]
fn containers_stream_identically() {
    assert_stream_matches_tree(&Vec::<u32>::new());
    assert_stream_matches_tree(&vec![1u32, 2, 3]);
    assert_stream_matches_tree(&[1.5f64, f64::NAN]);
    assert_stream_matches_tree(&Option::<u32>::None);
    assert_stream_matches_tree(&Some(7u32));
    assert_stream_matches_tree(&Some(Option::<u32>::None));
    assert_stream_matches_tree(&(1u8, "two", 3.0f64));
    assert_stream_matches_tree(&BTreeSet::from(["b", "a"]));
    assert_stream_matches_tree(&Box::new(vec![Some(1u8), None]));
}

#[test]
fn integer_keyed_maps_sort_by_rendered_key() {
    // The tree path renders keys to strings and sorts lexically, so
    // integer keys order as "10" < "2" — the stream must reproduce that,
    // not the BTreeMap's numeric order.
    let map: BTreeMap<u32, &str> = BTreeMap::from([(2, "two"), (10, "ten"), (1, "one")]);
    assert_stream_matches_tree(&map);
    let tree = map.to_value().render_json(false);
    assert_eq!(tree, r#"{"1":"one","10":"ten","2":"two"}"#);
    // String keys needing escapes still render as JSON string keys.
    let escaped: BTreeMap<String, u8> = BTreeMap::from([("a\"b".to_string(), 1)]);
    assert_stream_matches_tree(&escaped);
    assert_stream_matches_tree(&BTreeMap::<String, u8>::new());
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Record {
    // Declared out of key order on purpose: the derive must emit sorted
    // keys to match the sorted `Map` the tree path builds.
    zeta: f64,
    alpha: String,
    middle: Vec<u8>,
    #[serde(skip)]
    #[allow(dead_code)]
    skipped: u64,
    nested: Option<Box<Record>>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Shape {
    Unit,
    Tuple(u32),
    Wide(u32, String),
    Named { y: f64, x: f64 },
}

#[test]
fn derived_types_stream_identically() {
    let record = Record {
        zeta: 2.0,
        alpha: "a\"b".into(),
        middle: vec![1, 2],
        skipped: 99,
        nested: Some(Box::new(Record {
            zeta: f64::NAN,
            alpha: String::new(),
            middle: vec![],
            skipped: 0,
            nested: None,
        })),
    };
    assert_stream_matches_tree(&record);
    // Keys come out sorted and the skipped field is absent.
    let json = serde_json::to_string(&record).expect("serializes");
    assert!(json.starts_with(r#"{"alpha":"#), "got {json}");
    assert!(!json.contains("skipped"));
    // And the streamed bytes still parse back to the same value.
    let back: Record = serde_json::from_str(&json).expect("roundtrips");
    assert_eq!(back.alpha, record.alpha);

    for shape in [
        Shape::Unit,
        Shape::Tuple(7),
        Shape::Wide(1, "w\"ide".into()),
        Shape::Named { y: 1.0, x: f64::INFINITY },
    ] {
        assert_stream_matches_tree(&shape);
    }
}

#[test]
fn pretty_reindent_skips_string_contents_and_keeps_empty_containers() {
    // Structural bytes inside strings, and escapes right before the
    // closing quote, must not move the indent.
    for text in ["{ } [ ] , :", "{\"a\":[1,2]}", "ends in quote\"", "ends in backslash\\", "\\\""] {
        assert_stream_matches_tree(&text);
        assert_stream_matches_tree(&vec![text, text]);
        assert_stream_matches_tree(&BTreeMap::from([(text, text)]));
    }
    assert_stream_matches_tree(&vec![Vec::<u8>::new(), vec![], vec![1]]);
    assert_stream_matches_tree(&vec![vec![Vec::<u8>::new()]]);
    let empty_value: BTreeMap<&str, BTreeMap<&str, u8>> =
        BTreeMap::from([("empty", BTreeMap::new()), ("one", BTreeMap::from([("k", 1)]))]);
    assert_stream_matches_tree(&empty_value);
    assert_stream_matches_tree(&vec![BTreeMap::<String, Vec<u8>>::new()]);
    assert_stream_matches_tree(&BTreeMap::from([("", BTreeMap::from([("", Vec::<u8>::new())]))]));
}

#[test]
fn run_reports_pretty_print_identically() {
    use fragdroid_repro::tool::{FragDroid, FragDroidConfig};
    let gen = fragdroid_repro::appgen::templates::quickstart();
    let report = FragDroid::new(FragDroidConfig::default()).run(&gen.app, &gen.known_inputs);
    assert_stream_matches_tree(&report);
}
