//! Telemetry must observe, never perturb: a session priced with
//! telemetry disabled is bit-identical to one priced with telemetry
//! never attached at all — and to one priced with telemetry *enabled*.
//! The subsystem reads the engine; nothing in the engine reads it back.

use std::sync::{Arc, Mutex, PoisonError};
use sycl_sim::{Kernel, LaunchRecord, PlatformId, Session, SessionConfig, Toolchain};
use telemetry::TelemetryConfig;

/// Telemetry state (enabled flag, counters, flight recorder) is
/// process-global; the tests in this file must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

/// A launch mix covering the cache paths: repeated hits on two hot
/// kernels, a boundary loop, and a reduction, on both cached and
/// uncached sessions, plus one replayed graph with a phase around its
/// launch; on executing sessions, or on dry-run ones.
fn run_workload_on(dry_run: bool) -> (Vec<LaunchRecord>, f64, Vec<LaunchRecord>, f64) {
    let config = || {
        let cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("equiv");
        if dry_run {
            cfg.dry_run()
        } else {
            cfg
        }
    };
    let cached = Session::create(config()).unwrap();
    let uncached = Session::create(config().no_pricing_cache()).unwrap();
    for s in [&cached, &uncached] {
        let triad = Kernel::streaming("triad", 1 << 20, 3.0 * 8.0 * (1 << 20) as f64, 2e6);
        let copy = Kernel::streaming("copy", 1 << 18, 2.0 * 8.0 * (1 << 18) as f64, 0.0);
        let halo = Kernel::streaming("halo", 256, 2.0 * 8.0 * 256.0, 0.0);
        let mut reduce = Kernel::streaming("norm", 1 << 18, 8.0 * (1 << 18) as f64, 2e5);
        reduce.footprint.reductions = 1;
        for _ in 0..7 {
            // The triad body runs a pool region, so an observed run
            // records the pool's Region spans.
            s.launch(&triad, || {
                parkit::global_pool().run_region(4, |_, _| ());
            });
            s.launch(&copy, || ());
            s.launch(&halo, || ());
        }
        s.launch(&reduce, || ());
        s.transfer(1e8);
        s.exchange(1e6, 8);
        let stencil = Kernel::streaming("stencil", 1 << 16, 5.0 * 8.0 * (1 << 16) as f64, 0.0);
        let mut g = s.record();
        g.phase("equiv.step");
        g.launch(&stencil, |_| ());
        g.end_phase();
        g.finish().replay(s);
    }
    // One guard per statement: a `Records` guard held across `elapsed()`
    // would deadlock on the ledger lock.
    let cached_records: Vec<LaunchRecord> = cached.records().iter().cloned().collect();
    let uncached_records: Vec<LaunchRecord> = uncached.records().iter().cloned().collect();
    (
        cached_records,
        cached.elapsed(),
        uncached_records,
        uncached.elapsed(),
    )
}

fn assert_bit_identical(
    (ar, ae, aur, aue): &(Vec<LaunchRecord>, f64, Vec<LaunchRecord>, f64),
    (br, be, bur, bue): &(Vec<LaunchRecord>, f64, Vec<LaunchRecord>, f64),
    label: &str,
) {
    assert_eq!(ae.to_bits(), be.to_bits(), "{label}: cached elapsed");
    assert_eq!(aue.to_bits(), bue.to_bits(), "{label}: uncached elapsed");
    for (x, y) in [(ar, br), (aur, bur)] {
        assert_eq!(x.len(), y.len(), "{label}: record count");
        for (a, b) in x.iter().zip(y.iter()) {
            assert_eq!(a.name, b.name, "{label}");
            assert_eq!(a.items, b.items, "{label}: {}", a.name);
            assert_eq!(
                a.time.total.to_bits(),
                b.time.total.to_bits(),
                "{label}: {}",
                a.name
            );
            assert_eq!(
                a.effective_bytes.to_bits(),
                b.effective_bytes.to_bits(),
                "{label}: {}",
                a.name
            );
            assert_eq!(a.boundary, b.boundary, "{label}: {}", a.name);
        }
    }
}

#[test]
fn disabled_and_enabled_telemetry_leave_ledgers_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // 1. Telemetry never attached: the process default (no install).
    let never = run_workload_on(false);

    // 2. Explicitly disabled.
    TelemetryConfig::disabled().install();
    let disabled = run_workload_on(false);

    // 3. Enabled, recording every span and counter.
    TelemetryConfig::enabled().install();
    let counters_before = telemetry::counters().snapshot();
    let enabled = run_workload_on(false);
    let delta = telemetry::counters().snapshot().since(&counters_before);
    TelemetryConfig::disabled().install();
    let events = telemetry::flush();

    assert_bit_identical(&never, &disabled, "never-attached vs disabled");
    assert_bit_identical(&never, &enabled, "never-attached vs enabled");

    // The enabled run really was observed: one launch span per ledger
    // record, cache hits for the repeat launches, and interned names.
    assert_eq!(
        count(&events, telemetry::SpanKind::Launch),
        enabled.0.len() + enabled.2.len()
    );
    assert!(delta.pricing_cache_hits >= 7, "{delta:?}");

    // Launch records still intern names per session (telemetry holds
    // clones, it does not steal the session's Arcs).
    let triads: Vec<&Arc<str>> = enabled
        .0
        .iter()
        .filter(|r| &*r.name == "triad")
        .map(|r| &r.name)
        .collect();
    assert!(triads.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));

    // The production pool recorded a Region span for every region the
    // triad bodies ran.
    assert!(
        events.iter().any(|e| e.kind == telemetry::SpanKind::Region),
        "no pool region reached the span rings"
    );
}

/// Spans of `kind` among `events`.
fn count(events: &[telemetry::Event], kind: telemetry::SpanKind) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

#[test]
fn traced_dry_runs_write_only_replay_spans() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let never = run_workload_on(true);
    TelemetryConfig::enabled().install();
    let before = telemetry::counters().snapshot();
    let executing = run_workload_on(false);
    let between = telemetry::counters().snapshot();
    telemetry::flush();
    let traced = run_workload_on(true);
    let dry = telemetry::counters().snapshot().since(&between);
    TelemetryConfig::disabled().install();
    let events = telemetry::flush();

    // A dry launch runs no work, eager or replayed, so it times nothing:
    // each of the two sessions writes one Replay span for its one
    // replay, and no Launch or Phase span.
    assert_bit_identical(&never, &traced, "dry: never-attached vs traced");
    assert_eq!(count(&events, telemetry::SpanKind::Launch), 0);
    assert_eq!(count(&events, telemetry::SpanKind::Phase), 0);
    assert_eq!(count(&events, telemetry::SpanKind::Replay), 2);

    // Pricing does not depend on execution: the dry run hits and misses
    // the pricing cache exactly as the executing run does.
    let wet = between.since(&before);
    assert!(dry.pricing_cache_hits > 0, "{dry:?}");
    assert_eq!(dry.pricing_cache_hits, wet.pricing_cache_hits);
    assert_eq!(dry.pricing_cache_misses, wet.pricing_cache_misses);
    assert_eq!(traced.0.len(), executing.0.len());
}

/// Runs the workload once unobserved and once inside a flight recording
/// that holds only an enclosing unit span, and checks that the ledgers are
/// bit-identical and that the launch core wrote nothing into the recording.
fn assert_flight_brackets_only_the_unit(dry_run: bool) {
    let label = if dry_run { "dry" } else { "executing" };
    let never = run_workload_on(dry_run);
    assert!(!never.0.is_empty(), "{label}: the run prices every launch");

    let path =
        std::env::temp_dir().join(format!("flight-equiv-{label}-{}.bin", std::process::id()));
    telemetry::flight::start(&path, 0, "equiv").unwrap();
    telemetry::flight::span_open(telemetry::SpanKind::Unit, "equiv-unit");
    let with_flight = run_workload_on(dry_run);
    telemetry::flight::span_close(telemetry::SpanKind::Unit, "equiv-unit");
    telemetry::flight::stop();

    assert_bit_identical(
        &never,
        &with_flight,
        &format!("{label}: never-attached vs flight-recorded"),
    );
    let rec = telemetry::FlightRecording::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!rec.torn, "{label}: clean stop must not leave a torn tail");
    let spans: Vec<(bool, telemetry::SpanKind)> = rec
        .events
        .iter()
        .map(|e| match e {
            telemetry::FlightEvent::SpanOpen { kind, .. } => (true, *kind),
            telemetry::FlightEvent::SpanClose { kind, .. } => (false, *kind),
        })
        .collect();
    assert_eq!(
        spans,
        [
            (true, telemetry::SpanKind::Unit),
            (false, telemetry::SpanKind::Unit)
        ],
        "{label}: one unit open and close, no launch or phase span"
    );
}

#[test]
fn flight_recorder_leaves_ledgers_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // The launch core writes no flight records for an executing session.
    assert_flight_brackets_only_the_unit(false);
}

#[test]
fn dry_run_flight_recording_brackets_only_the_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // A dry-run session runs only empty bodies: with flight on it leaves
    // its launches and phases unbracketed and its ledger unmoved.
    assert_flight_brackets_only_the_unit(true);
}
