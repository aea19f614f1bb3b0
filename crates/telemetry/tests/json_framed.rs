//! `telemetry::json::parse` against hostile framed input.
//!
//! The study runner's worker protocol ships JSON documents over pipes
//! in length-prefixed frames. A crashing or killed worker can leave the
//! orchestrator holding *partially received* bytes, and a buggy peer
//! can claim absurd lengths — so the value parser must reject every
//! truncation of a valid document with an error (never a panic or a
//! wrong value), and must stay robust when fed oversized-but-valid
//! payloads.

use telemetry::json::{self, Json, JsonWriter};

/// A realistic study-cell document: escapes, provenance, samples.
fn wire_doc(samples: &[f64]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("sycl-study/v1");
    w.key("name")
        .string("study/cloverleaf2d@a100/DPC++ \"ndrange\"");
    w.key("worker").int(2);
    w.key("attempt").int(3);
    w.key("trace").int(41);
    w.key("simSecs").number(2.75);
    w.key("bytes").number(1.9e11);
    w.key("samples").begin_array();
    for &s in samples {
        w.number(s);
    }
    w.end_array();
    w.key("counters").begin_object();
    w.key("launches").int(88);
    w.key("bytes_moved").int(1 << 33);
    w.end_object();
    w.end_object();
    w.finish()
}

const SAMPLES: [f64; 4] = [1.25e-3, 9.0e-4, 1.5e-3, 1.1e-3];

fn samples_of(doc: &Json) -> Vec<f64> {
    doc.get("samples")
        .and_then(Json::as_arr)
        .expect("samples array")
        .iter()
        .map(|v| v.as_f64().expect("numeric sample"))
        .collect()
}

#[test]
fn every_truncation_of_a_manifest_errors_cleanly() {
    let doc = wire_doc(&SAMPLES);
    // Cut at every byte boundary (skip cuts inside multi-byte UTF-8 —
    // the frame layer delivers whole UTF-8 strings or nothing).
    for cut in 0..doc.len() {
        if !doc.is_char_boundary(cut) {
            continue;
        }
        let partial = &doc[..cut];
        // A truncated JSON document is never a complete object.
        let err = json::parse(partial).expect_err("truncated doc must not parse");
        assert!(
            err.at <= partial.len(),
            "error offset {} beyond input length {}",
            err.at,
            partial.len()
        );
    }
    // The untruncated document parses back to what was written.
    let back = json::parse(&doc).unwrap();
    assert_eq!(
        back.str_of("name"),
        Some("study/cloverleaf2d@a100/DPC++ \"ndrange\"")
    );
    assert_eq!(back.u64_of("trace"), Some(41));
    assert_eq!(
        back.get("counters").and_then(|c| c.u64_of("bytes_moved")),
        Some(1 << 33)
    );
    assert_eq!(samples_of(&back), SAMPLES);
}

#[test]
fn truncation_inside_escapes_is_an_error_not_a_panic() {
    // Strings ending mid-escape are the nastiest cut points; exercise
    // them directly rather than relying on the sweep above to hit one.
    for bad in [
        "{\"name\": \"a\\",
        "{\"name\": \"a\\u",
        "{\"name\": \"a\\u00",
        "{\"name\": \"a\\ud83d",
        "{\"name\": \"a\\ud83d\\u",
        "{\"name\": \"a\\ud83d\\ude0",
    ] {
        assert!(json::parse(bad).is_err(), "should reject {bad:?}");
    }
}

#[test]
fn oversized_sample_arrays_parse_without_issue() {
    // A worker streaming a large unit (100k repetition samples) is
    // legitimate; size alone must not break the parser.
    let big: Vec<f64> = (0..100_000).map(|i| 1e-6 + i as f64 * 1e-9).collect();
    let doc = wire_doc(&big);
    assert!(doc.len() > 1_000_000, "document is actually large");
    assert_eq!(samples_of(&json::parse(&doc).unwrap()), big);
}

#[test]
fn oversized_strings_and_numbers_are_handled() {
    // A 4 MiB kernel name (hostile but valid JSON) round-trips...
    let long = "k".repeat(4 << 20);
    let doc = format!("{{\"name\": \"{long}\"}}");
    assert_eq!(json::parse(&doc).unwrap().str_of("name"), Some(&long[..]));
    // ...while an enormous exponent is rejected as out of range, and a
    // kilometre of digits parses to a finite value without slowdown.
    assert!(json::parse("1e99999").is_err());
    let digits = "9".repeat(1000);
    assert!(json::parse(&digits).is_err(), "overflows to non-finite");
    let frac = format!("0.{}", "3".repeat(1000));
    assert_eq!(
        json::parse(&frac).unwrap(),
        Json::Num(frac.parse::<f64>().unwrap())
    );
}

#[test]
fn nesting_bombs_error_instead_of_overflowing_the_stack() {
    // A worker replaced by a fork bomb of '[' must not take the
    // orchestrator down with it. (the parser's own unit test covers 2000
    // levels; a frame-sized payload is ~16 MiB of nesting.)
    for n in [200usize, 100_000, 1 << 22] {
        let bomb = "[".repeat(n);
        assert!(json::parse(&bomb).is_err());
        let closed = format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(json::parse(&closed).is_err(), "depth {n} must be rejected");
    }
}

#[test]
fn garbage_prefixes_and_suffixes_error() {
    let doc = wire_doc(&SAMPLES);
    for mangled in [
        format!("SYF1{doc}"),            // magic bytes leaked into payload
        format!("{doc}{doc}"),           // two frames glued together
        format!("{doc}\u{0}"),           // NUL-padded short read
        doc.replace("schema", "\u{8}x"), // control chars mid-document
    ] {
        assert!(json::parse(&mangled).is_err(), "should reject {mangled:?}");
    }
}
