//! Edge-case coverage for `telemetry::json::JsonWriter` — the single
//! JSON emitter every manifest, trace export and the dashboard lean on.

use telemetry::json::{escape, validate, JsonWriter};

#[test]
fn every_control_character_is_escaped() {
    // All 32 C0 control characters must come out as escapes, never raw.
    let raw: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
    let escaped = escape(&raw);
    assert!(escaped.chars().all(|c| (c as u32) >= 0x20), "{escaped:?}");
    // The short forms are used where JSON defines them.
    assert!(escaped.contains("\\n"));
    assert!(escaped.contains("\\r"));
    assert!(escaped.contains("\\t"));
    assert!(escaped.contains("\\u0000"));
    assert!(escaped.contains("\\u001f"));
    // And the result embeds into a valid document.
    let mut w = JsonWriter::new();
    w.string(&raw);
    validate(&w.finish()).unwrap();
}

#[test]
fn quotes_and_backslashes_round_trip_in_keys_and_values() {
    let nasty = r#"a"b\c"\"#;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key(nasty).string(nasty);
    w.end_object();
    let doc = w.finish();
    validate(&doc).unwrap();
    assert_eq!(doc, r#"{"a\"b\\c\"\\": "a\"b\\c\"\\"}"#);
}

#[test]
fn windows_paths_survive() {
    let path = r"C:\bench\results\BENCH_engine.json";
    let mut w = JsonWriter::new();
    w.string(path);
    let doc = w.finish();
    validate(&doc).unwrap();
    assert_eq!(doc, r#""C:\\bench\\results\\BENCH_engine.json""#);
}

#[test]
fn non_finite_numbers_become_null_everywhere() {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("nan").number(f64::NAN);
    w.key("inf").number(f64::INFINITY);
    w.key("ninf").number(f64::NEG_INFINITY);
    w.key("fine").number(-0.0);
    w.end_object();
    let doc = w.finish();
    validate(&doc).unwrap();
    assert_eq!(
        doc,
        r#"{"nan": null, "inf": null, "ninf": null, "fine": -0}"#
    );
}

#[test]
fn extreme_but_finite_numbers_stay_numbers() {
    let mut w = JsonWriter::new();
    w.begin_array();
    for v in [f64::MAX, f64::MIN_POSITIVE, 5e-324, -1.7e308] {
        w.number(v);
    }
    w.end_array();
    let doc = w.finish();
    validate(&doc).unwrap();
    assert!(!doc.contains("null"));
}

#[test]
fn deep_nesting_writes_and_validates() {
    let nest = |depth: usize| {
        let mut w = JsonWriter::new();
        for _ in 0..depth {
            w.begin_object();
            w.key("a").begin_array();
            w.int(1);
        }
        for _ in 0..depth {
            w.end_array();
            w.end_object();
        }
        w.finish()
    };
    // 48 object/array pairs = 96 levels, the reader's nesting limit.
    let doc = nest(48);
    validate(&doc).unwrap();
    assert_eq!(doc.matches('{').count(), 48);
    // The writer nests without limit; the reader refuses past 96 levels.
    let deep = nest(200);
    assert_eq!(deep.matches('{').count(), 200);
    assert_eq!(deep.matches('[').count(), 200);
    assert!(validate(&deep).unwrap_err().msg.contains("too deep"));
}

#[test]
fn empty_containers_and_empty_strings() {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("").string("");
    w.key("o").begin_object();
    w.end_object();
    w.key("a").begin_array();
    w.end_array();
    w.end_object();
    let doc = w.finish();
    validate(&doc).unwrap();
    assert_eq!(doc, r#"{"": "", "o": {}, "a": []}"#);
}

#[test]
fn unicode_passes_through_unescaped() {
    let mut w = JsonWriter::new();
    w.string("héllo 世界 😀 — ∞");
    let doc = w.finish();
    validate(&doc).unwrap();
    assert_eq!(doc, "\"héllo 世界 😀 — ∞\"");
}

#[test]
fn comma_logic_survives_mixed_scalars_after_containers() {
    let mut w = JsonWriter::new();
    w.begin_array();
    w.begin_object();
    w.end_object();
    w.int(1);
    w.begin_array();
    w.end_array();
    w.bool(false);
    w.string("s");
    w.end_array();
    let doc = w.finish();
    validate(&doc).unwrap();
    assert_eq!(doc, r#"[{}, 1, [], false, "s"]"#);
}
