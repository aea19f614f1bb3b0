//! Acceptance tests for the telemetry subsystem end-to-end: profiling a
//! functional CloverLeaf 2D run must yield a valid Chrome-trace document
//! with one launch span per ledger record, a non-empty per-kernel
//! aggregate, and achieved-GB/s figures consistent with the footprints;
//! profiling a dry paper-size run must time no launch, since none runs.

use machine_model::{KernelFootprint, Precision};
use miniapps::{App, AppRun, CloverLeaf2d};
use std::collections::HashSet;
use std::sync::{Mutex, PoisonError};
use sycl_sim::{PlatformId, Session, SessionConfig, Toolchain};
use telemetry::{CounterSnapshot, Event, SpanKind, TelemetryConfig};

/// Telemetry is process-global; traced runs in this file must not
/// interleave.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `app` on an A100 session (a dry one for `cfg` = `dry_run`) with
/// telemetry on: the session, the run, the counter delta and the trace.
fn traced(
    app: &CloverLeaf2d,
    cfg: impl FnOnce(SessionConfig) -> SessionConfig,
) -> (Session, AppRun, CounterSnapshot, Vec<Event>) {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let config = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app.name());
    let session = Session::create(cfg(config)).unwrap();
    TelemetryConfig::enabled().install();
    let before = telemetry::counters().snapshot();
    let run = app.run(&session);
    let delta = telemetry::counters().snapshot().since(&before);
    TelemetryConfig::disabled().install();
    (session, run, delta, telemetry::flush())
}

#[test]
fn profiling_cloverleaf2d_yields_a_complete_trace() {
    let (session, run, delta, events) = traced(&CloverLeaf2d::test(), |c| c);

    // The run did real work and the trace saw all of it: exactly one
    // launch span per ledger record, in the same order.
    let records = session.records();
    assert!(run.validation.is_finite());
    assert!(!records.is_empty());
    let launches: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Launch)
        .collect();
    assert_eq!(launches.len(), records.len());
    for (span, rec) in launches.iter().zip(records.iter()) {
        assert_eq!(span.name.as_str(), &*rec.name);
        assert_eq!(span.items, rec.items);
        assert_eq!(span.sim_secs.to_bits(), rec.time.total.to_bits());
        assert_eq!(span.bytes.to_bits(), rec.effective_bytes.to_bits());
    }
    // Flush ordering is the launch order (seq is strictly increasing).
    assert!(launches.windows(2).all(|w| w[0].seq < w[1].seq));

    // Engine spans rode along: pool regions and tree reductions.
    assert!(events.iter().any(|e| e.kind == SpanKind::Region));
    assert!(events.iter().any(|e| e.kind == SpanKind::Reduce));
    assert!(delta.pricing_cache_hits > 0);

    // The Chrome-trace document is valid JSON with one event per span.
    let doc = telemetry::export::chrome_trace(&events);
    telemetry::json::validate(&doc).unwrap();
    assert_eq!(doc.matches("\"ph\": \"X\"").count(), events.len());
    assert!(doc.contains("\"traceEvents\""));

    // The aggregate table covers every kernel, and its achieved-GB/s
    // column is exactly the footprint rule (bytes over priced seconds).
    let aggs = telemetry::export::aggregate(&events);
    assert!(!aggs.is_empty());
    let names: HashSet<&str> = records.iter().map(|r| &*r.name).collect();
    assert_eq!(aggs.len(), names.len());
    let total: usize = aggs.iter().map(|a| a.count).sum();
    assert_eq!(total, records.len());
    for a in &aggs {
        let fp = KernelFootprint::streaming(a.name.clone(), 1, a.bytes, 0.0, Precision::F64);
        assert_eq!(
            a.sim_gbps().to_bits(),
            fp.achieved_gbps(a.sim_secs).to_bits(),
            "{}",
            a.name
        );
    }
}

#[test]
fn profiling_a_dry_paper_run_times_no_launch() {
    let (session, _, _, events) = traced(&CloverLeaf2d::paper(), SessionConfig::dry_run);

    // No launch ran a body, so none was timed: the trace holds the
    // graph replays and the app's own Region and Phase spans, and far
    // fewer spans than the ledger holds launches.
    let records = session.records();
    let count = |kind: SpanKind| events.iter().filter(|e| e.kind == kind).count();
    let (replays, launches) = (count(SpanKind::Replay), count(SpanKind::Launch));
    assert!(
        replays >= 1 && launches == 0,
        "{replays} replays, {launches} launches"
    );
    assert!(events.len() <= replays + count(SpanKind::Region) + count(SpanKind::Phase));
    assert!(events.len() < records.len(), "{} spans", events.len());

    // The ledger still explains the run: one row per kernel it holds.
    let kernels: HashSet<String> = records.iter().map(|r| r.name.to_string()).collect();
    drop(records);
    let table = session.explain();
    let rows: HashSet<String> = table
        .lines()
        .skip(2)
        .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
        .collect();
    assert_eq!(rows, kernels, "{table}");
}
