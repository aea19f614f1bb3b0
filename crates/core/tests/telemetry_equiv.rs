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
/// launch.
fn run_workload() -> (Vec<LaunchRecord>, f64, Vec<LaunchRecord>, f64) {
    run_workload_on(false)
}

/// [`run_workload`] on executing sessions, or on dry-run ones.
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
            // The triad body runs a pool region, so the run reaches the
            // pool's production registry series.
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
    let never = run_workload();

    // 2. Explicitly disabled.
    TelemetryConfig::disabled().install();
    let disabled = run_workload();

    // 3. Enabled, recording every span and counter.
    TelemetryConfig::enabled().install();
    let counters_before = telemetry::counters().snapshot();
    let enabled = run_workload();
    let delta = telemetry::counters().snapshot().since(&counters_before);
    TelemetryConfig::disabled().install();
    let events = telemetry::flush();

    assert_bit_identical(&never, &disabled, "never-attached vs disabled");
    assert_bit_identical(&never, &enabled, "never-attached vs enabled");

    // The enabled run really was observed: one launch span per ledger
    // record, cache hits for the repeat launches, and interned names.
    let per_session = never.0.len() as u64;
    assert_eq!(delta.launches, 2 * per_session);
    assert!(delta.pricing_cache_hits >= 7, "{delta:?}");
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == telemetry::SpanKind::Launch)
            .count() as u64,
        delta.launches
    );

    // Launch records still intern names per session (telemetry holds
    // clones, it does not steal the session's Arcs).
    let triads: Vec<&Arc<str>> = enabled
        .0
        .iter()
        .filter(|r| &*r.name == "triad")
        .map(|r| &r.name)
        .collect();
    assert!(triads.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));

    // 4. Enabled with the metrics registry actively recording: the
    // histogram layer above telemetry must be just as invisible to the
    // engine as the span layer itself.
    TelemetryConfig::enabled().install();
    metrics::registry().flush(); // drop anything earlier tests shed
    let with_metrics = run_workload();
    TelemetryConfig::disabled().install();
    telemetry::flush();
    let snap = metrics::registry().flush();

    assert_bit_identical(&never, &with_metrics, "never-attached vs metrics-enabled");

    // The registry really observed the run, through a series the
    // production pool records for every region it runs.
    let chunks: u64 = snap
        .hists
        .iter()
        .filter(|((name, _), _)| name == "pool.chunks_per_region")
        .map(|(_, h)| h.count())
        .sum();
    assert!(chunks > 0, "no pool region reached the registry");
}

#[test]
fn flight_recorder_leaves_ledgers_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Baseline: no observation of any kind.
    let never = run_workload();

    // Same workload with the flight recorder writing every launch to
    // disk (the span rings stay off — flight is an independent switch).
    let path = std::env::temp_dir().join(format!("flight-equiv-{}.bin", std::process::id()));
    telemetry::flight::start(&path, 0, "equiv").unwrap();
    telemetry::flight::span_open(telemetry::SpanKind::Unit, "equiv-unit");
    let with_flight = run_workload();
    telemetry::flight::span_close(telemetry::SpanKind::Unit, "equiv-unit");
    telemetry::flight::stop();

    assert_bit_identical(&never, &with_flight, "never-attached vs flight-recorded");

    // The recording really observed the run: one open/close pair per
    // ledger record across both sessions, nothing left open.
    let rec = telemetry::FlightRecording::read(&path).unwrap();
    assert!(!rec.torn, "clean stop must not leave a torn tail");
    let opens = rec
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                telemetry::FlightEvent::SpanOpen {
                    kind: telemetry::SpanKind::Launch,
                    ..
                }
            )
        })
        .count();
    let per_session = never.0.len();
    assert_eq!(opens, 2 * per_session);
    assert_eq!(flight_opens(&rec, telemetry::SpanKind::Phase), 2);
    assert_eq!(unclosed(&rec), 0);
    std::fs::remove_file(&path).ok();
}

/// Span opens minus span closes in a flight recording.
fn unclosed(rec: &telemetry::FlightRecording) -> usize {
    let opens = rec
        .events
        .iter()
        .filter(|e| matches!(e, telemetry::FlightEvent::SpanOpen { .. }))
        .count();
    opens - (rec.events.len() - opens)
}

/// Span opens of one kind in a flight recording.
fn flight_opens(rec: &telemetry::FlightRecording, kind: telemetry::SpanKind) -> usize {
    rec.events
        .iter()
        .filter(|e| matches!(e, telemetry::FlightEvent::SpanOpen { kind: k, .. } if *k == kind))
        .count()
}

#[test]
fn dry_run_flight_recording_brackets_only_the_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let never = run_workload_on(true);

    // A dry-run session runs only empty bodies: with flight on it must
    // leave its launches and phases unbracketed and its ledger unmoved.
    let path = std::env::temp_dir().join(format!("flight-equiv-dry-{}.bin", std::process::id()));
    telemetry::flight::start(&path, 0, "equiv-dry").unwrap();
    telemetry::flight::span_open(telemetry::SpanKind::Unit, "equiv-unit");
    let with_flight = run_workload_on(true);
    telemetry::flight::span_close(telemetry::SpanKind::Unit, "equiv-unit");
    telemetry::flight::stop();

    assert_bit_identical(
        &never,
        &with_flight,
        "dry run: never-attached vs flight-recorded",
    );
    assert!(!never.0.is_empty(), "the dry run still prices every launch");

    let rec = telemetry::FlightRecording::read(&path).unwrap();
    assert!(!rec.torn, "clean stop must not leave a torn tail");
    assert_eq!(flight_opens(&rec, telemetry::SpanKind::Launch), 0);
    assert_eq!(flight_opens(&rec, telemetry::SpanKind::Phase), 0);
    // The enclosing unit span is present, and closed (nothing open).
    assert_eq!(flight_opens(&rec, telemetry::SpanKind::Unit), 1);
    assert_eq!(unclosed(&rec), 0);
    std::fs::remove_file(&path).ok();
}
