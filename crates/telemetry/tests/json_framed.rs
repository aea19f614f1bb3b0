//! `telemetry::json::parse` against hostile framed input.
//!
//! The study runner's worker protocol ships JSON documents over pipes
//! in length-prefixed frames. A crashing or killed worker can leave the
//! orchestrator holding *partially received* bytes, and a buggy peer
//! can claim absurd lengths — so the value parser behind
//! `RunManifest::parse` must reject every truncation of a valid
//! document with an error (never a panic or a wrong value), and must
//! stay robust when fed oversized-but-valid payloads.

use metrics::{Histogram, KernelSummary, Provenance, RunManifest};
use telemetry::json::{self, Json};
use telemetry::CounterSnapshot;

/// A realistic study-cell manifest: escapes, provenance, samples.
fn wire_manifest() -> RunManifest {
    let samples = vec![1.25e-3, 9.0e-4, 1.5e-3, 1.1e-3];
    let mut h = Histogram::new();
    for &s in &samples {
        h.record(s);
    }
    RunManifest {
        name: "study-shard1of2".into(),
        git_rev: "abc1234".into(),
        platform: "cross-product".into(),
        threads: 4,
        repetitions: 4,
        created_unix_secs: 1_750_000_000,
        kernels: vec![KernelSummary {
            name: "study/cloverleaf2d@a100/DPC++ \"ndrange\"".into(),
            wall: h.summary(),
            samples,
            sim_secs: 2.75,
            bytes: 1.9e11,
            gbps: 69.0,
            origin: Some(Provenance {
                worker: 2,
                attempt: 3,
                trace: 41,
            }),
        }],
        counters: CounterSnapshot {
            launches: 88,
            bytes_moved: 1 << 33,
            ..Default::default()
        },
    }
}

#[test]
fn every_truncation_of_a_manifest_errors_cleanly() {
    let doc = wire_manifest().to_json();
    // Cut at every byte boundary (skip cuts inside multi-byte UTF-8 —
    // the frame layer delivers whole UTF-8 strings or nothing).
    for cut in 0..doc.len() {
        if !doc.is_char_boundary(cut) {
            continue;
        }
        let partial = &doc[..cut];
        // The value parser must error (a truncated JSON document is
        // never a complete object)...
        let err = json::parse(partial).expect_err("truncated doc must not parse");
        assert!(
            err.at <= partial.len(),
            "error offset {} beyond input length {}",
            err.at,
            partial.len()
        );
        // ...and the manifest layer must surface an error, not panic.
        assert!(RunManifest::parse(partial).is_err());
    }
    // The untruncated document still round-trips exactly.
    assert_eq!(RunManifest::parse(&doc).unwrap(), wire_manifest());
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
    let mut m = wire_manifest();
    let big: Vec<f64> = (0..100_000).map(|i| 1e-6 + i as f64 * 1e-9).collect();
    let mut h = Histogram::new();
    for &s in &big {
        h.record(s);
    }
    m.kernels[0].wall = h.summary();
    m.kernels[0].samples = big;
    let doc = m.to_json();
    assert!(doc.len() > 1_000_000, "document is actually large");
    let back = RunManifest::parse(&doc).unwrap();
    assert_eq!(back.kernels[0].samples.len(), 100_000);
    assert_eq!(back, m);
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
    let doc = wire_manifest().to_json();
    for mangled in [
        format!("SYF1{doc}"),            // magic bytes leaked into payload
        format!("{doc}{doc}"),           // two frames glued together
        format!("{doc}\u{0}"),           // NUL-padded short read
        doc.replace("schema", "\u{8}x"), // control chars mid-document
    ] {
        assert!(RunManifest::parse(&mangled).is_err());
    }
}
