//! Torn-recording torture tests for `telemetry::flight`.
//!
//! The flight recorder's whole reason to exist is that a SIGKILL can
//! land between any two bytes and the file must still be readable up
//! to the tear. These tests prove that byte-exactly: a real recording
//! is produced through the public writer API, then truncated at
//! *every* byte offset — each cut must either be rejected as a
//! non-recording (header cuts) or decode as a clean prefix of the
//! full event stream with `torn` set appropriately. Hostile bytes
//! (alien magic, future versions, unknown tags) get the same
//! treatment.
//!
//! The writer is process-global, so the recording is built exactly
//! once behind a `OnceLock` and every test reads the same bytes.

use std::sync::OnceLock;
use telemetry::flight::{self, VERSION};
use telemetry::{FlightEvent, FlightRecording, SpanKind};

const LABEL: &str = "torn-suite";
const WORKER: u32 = 9;

/// Magic + version + worker + pid + start + u16 label length.
const HEADER_LEN: usize = 4 + 2 + 4 + 4 + 8 + 2 + LABEL.len();

/// One real recording, produced through the public writer API.
fn bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("flight-torn-{}.bin", std::process::id()));
        flight::start(&path, WORKER, LABEL).expect("start recorder");
        flight::span_open(SpanKind::Unit, "spmv@cpu");
        flight::span_open(SpanKind::Phase, "measure");
        flight::span_open(SpanKind::Launch, "spmv");
        flight::span_close(SpanKind::Launch, "spmv");
        flight::span_close(SpanKind::Phase, "measure");
        flight::span_close(SpanKind::Unit, "spmv@cpu");
        flight::stop().expect("recorder was on");
        let raw = std::fs::read(&path).expect("read recording");
        std::fs::remove_file(&path).ok();
        raw
    })
}

fn full() -> FlightRecording {
    FlightRecording::parse(bytes()).expect("full recording parses")
}

#[test]
fn full_recording_round_trips() {
    let rec = full();
    assert!(!rec.torn, "an intact file is not torn");
    assert_eq!(rec.worker, WORKER);
    assert_eq!(rec.pid, std::process::id());
    assert_eq!(rec.label, LABEL);
    assert_eq!(rec.events.len(), 6, "every event made it to disk");
    assert!(matches!(
        &rec.events[0],
        FlightEvent::SpanOpen {
            kind: SpanKind::Unit,
            name,
            ..
        } if name == "spmv@cpu"
    ));
    assert!(matches!(
        rec.events[2],
        FlightEvent::SpanOpen {
            kind: SpanKind::Launch,
            ..
        }
    ));
    assert!(matches!(
        rec.events[5],
        FlightEvent::SpanClose {
            kind: SpanKind::Unit,
            ..
        }
    ));
    // Timestamps are unix-epoch and monotone within the recording.
    let ts: Vec<u64> = rec.events.iter().map(|e| e.t_ns()).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps regress");
}

/// The central claim: cut the file at EVERY byte offset. Header cuts
/// are hard errors (the file is not a recording); record-region cuts
/// decode to a prefix of the full stream, torn only when the cut
/// lands mid-record.
#[test]
fn every_truncation_is_a_hard_error_or_a_clean_prefix() {
    let raw = bytes();
    let whole = full();
    let mut prev_len = 0usize;
    for cut in 0..=raw.len() {
        let sliced = &raw[..cut];
        if cut < HEADER_LEN {
            assert!(
                FlightRecording::parse(sliced).is_err(),
                "cut at {cut}: a partial header must not parse"
            );
            continue;
        }
        let rec = FlightRecording::parse(sliced)
            .unwrap_or_else(|e| panic!("cut at {cut}: torn tail must still parse: {e}"));
        assert_eq!(
            rec.events,
            whole.events[..rec.events.len()],
            "cut at {cut}: decoded events are not a prefix"
        );
        assert!(
            rec.events.len() >= prev_len,
            "cut at {cut}: longer file decoded fewer events"
        );
        prev_len = rec.events.len();
        if cut == raw.len() {
            assert!(!rec.torn, "the intact file reported a tear");
        }
        // A tear can only land mid-record, so a torn decode never
        // claims the complete stream.
        if rec.torn {
            assert!(
                rec.events.len() < whole.events.len(),
                "cut at {cut}: torn recording claims all events"
            );
        }
    }
    assert_eq!(prev_len, whole.events.len());
}

#[test]
fn alien_magic_and_future_versions_are_rejected() {
    let raw = bytes();

    let mut bad_magic = raw.to_vec();
    bad_magic[0] = b'X';
    let err = FlightRecording::parse(&bad_magic).expect_err("alien magic accepted");
    assert!(err.contains("magic"), "unhelpful error: {err}");

    let mut future = raw.to_vec();
    let v = (VERSION + 1).to_le_bytes();
    future[4] = v[0];
    future[5] = v[1];
    let err = FlightRecording::parse(&future).expect_err("future version accepted");
    assert!(err.contains("version"), "unhelpful error: {err}");

    assert!(FlightRecording::parse(&[]).is_err());
    assert!(FlightRecording::parse(b"SYFR").is_err());
}

/// An unknown record tag (newer writer, or corruption) cannot be
/// framed, so it ends the recording at the last good event — served
/// as torn, never as an error and never as garbage events.
#[test]
fn unknown_tags_end_the_recording_at_the_last_good_event() {
    let raw = bytes();
    let whole = full();

    // Appended garbage after the final record.
    let mut appended = raw.to_vec();
    appended.extend_from_slice(&[0xFF; 9]);
    let rec = FlightRecording::parse(&appended).expect("tail garbage tolerated");
    assert!(rec.torn);
    assert_eq!(rec.events, whole.events, "good events survive tail garbage");

    // A corrupted tag byte mid-stream: everything before it is served.
    let mut corrupt = raw.to_vec();
    corrupt[HEADER_LEN] = 0xEE;
    let rec = FlightRecording::parse(&corrupt).expect("mid-stream corruption tolerated");
    assert!(rec.torn);
    assert!(rec.events.is_empty(), "no event precedes the corrupt tag");
}
