//! # telemetry — tracing, counters and profile export for the engine
//!
//! A lock-light, std-only observability layer threaded through the whole
//! stack (`core::session`, `parkit::pool`, the OPS/OP2 DSLs, the apps).
//! The paper's argument rests on *measured* runtimes and achieved-
//! bandwidth fractions, so the execution engine records where its time
//! goes as a first-class artifact instead of a black box.
//!
//! Four pieces:
//!
//! * **Spans** ([`SpanTimer`], [`Event`]) — nanosecond wall-clock spans
//!   recorded into per-thread ring buffers ([`ring`]). A span is one
//!   kernel launch that ran its body ([`SpanKind::Launch`], eager or
//!   replayed on an executing session, carrying the kernel name, item
//!   count, effective bytes and simulated seconds), one pool or app
//!   region ([`SpanKind::Region`]), one deterministic reduction
//!   ([`SpanKind::Reduce`]), one named phase ([`SpanKind::Phase`]) or
//!   one graph replay ([`SpanKind::Replay`], written by dry replays
//!   too). A dry-run launch times nothing and writes no span.
//!   [`flush`] drains every thread's ring into one
//!   monotonically-ordered event list (ordered by a global finish
//!   sequence, so cross-thread ordering is exact, not approximate).
//! * **Counters** ([`counters()`]) — process-wide relaxed atomics:
//!   pricing-cache hits/misses, pool regions, steals, parks/wakes and
//!   spans dropped on ring wrap. Launches and their effective bytes
//!   are counted by the session ledger, not here.
//! * **Exporters** ([`export`]) — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) and a per-kernel aggregate table
//!   (count, total/mean/p99 wall time, achieved GB/s from the footprint
//!   bytes), built on the shared [`json`] writer.
//! * **Flight recorder** ([`flight`]) — the study worker's unit log: a
//!   crash-surviving binary append-only file of unit span opens and
//!   closes, each written straight through, so a SIGKILL'd worker still
//!   leaves a readable, torn-tail-tolerant record of the unit it died
//!   in. The launch core writes nothing to it.
//!
//! ## Overhead budget
//!
//! Telemetry is compiled in everywhere but **disabled by default**. The
//! disabled path costs exactly one branch per instrumentation site: a
//! relaxed atomic load ([`enabled`]) guarding both span capture and
//! counter bumps. No allocation, no lock, no timestamp is taken unless a
//! [`TelemetryConfig`] with `enabled = true` has been installed — and
//! telemetry never feeds back into pricing or scheduling, so enabling it
//! cannot change a session ledger bit (`crates/core/tests/
//! telemetry_equiv.rs` proves this).

pub mod counters;
pub mod export;
pub mod flight;
pub mod json;
pub mod ring;
pub mod shadow;

pub use counters::{counters, CounterSnapshot, Counters};
pub use export::{aggregate, chrome_trace, chrome_trace_events};
pub use flight::{FlightEvent, FlightRecording};
pub use ring::{flush, now_ns, reduce_span, Event, Name, SpanKind, SpanTimer};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide on/off switch. Relaxed is enough: the flag is a pure
/// hint — a racing reader at worst records or skips one span.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry recording? This is the single branch the disabled path
/// pays at every instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How telemetry behaves once [installed](TelemetryConfig::install).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    enabled: bool,
    ring_capacity: usize,
}

impl TelemetryConfig {
    /// Recording off (the process default). Instrumentation sites cost
    /// one branch; ledgers and numerics are bit-identical to a build
    /// where telemetry was never attached.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            ring_capacity: ring::DEFAULT_RING_CAPACITY,
        }
    }

    /// Recording on with the default ring capacity.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ring_capacity: ring::DEFAULT_RING_CAPACITY,
        }
    }

    /// Per-thread ring capacity in events. Applies to rings created
    /// after install (each thread allocates its ring on first record);
    /// when a ring wraps, the oldest events are overwritten and counted
    /// in [`Counters::spans_dropped`].
    pub fn ring_capacity(mut self, events: usize) -> Self {
        self.ring_capacity = events.max(1);
        self
    }

    /// Make this configuration the live one.
    pub fn install(self) {
        ring::set_default_capacity(self.ring_capacity);
        ENABLED.store(self.enabled, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_start_returns_none() {
        // The process default is disabled; a SpanTimer must not even
        // take a timestamp.
        assert!(!enabled());
        assert!(SpanTimer::start().is_none());
    }

    #[test]
    fn config_builder_clamps_capacity() {
        let cfg = TelemetryConfig::disabled().ring_capacity(0);
        assert_eq!(cfg.ring_capacity, 1);
    }
}
