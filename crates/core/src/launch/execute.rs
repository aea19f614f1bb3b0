//! Layer 3 — **execute**: run the functional body (on parkit, via the
//! caller's closure) and emit the launch telemetry that goes with it.
//! This layer owns the wall-clock span and the `launches`/`bytes_moved`
//! counters; it never touches the ledger or the pricing cache.

use crate::session::LaunchRecord;
use std::sync::Arc;

/// Execute one priced launch: run `body` inside the launch span. The
/// one execute stage behind both [`Session::launch`](crate::Session::launch)
/// and graph replay. The span observes only and never feeds back into
/// the ledger.
pub(crate) fn execute<R>(p: &LaunchRecord, body: impl FnOnce() -> R) -> R {
    let span = LaunchSpan::start();
    let r = body();
    span.finish(&p.name, p.items, p.effective_bytes, p.time.total);
    r
}

/// Wall-clock span plus counters around one launch. Construction is the
/// single branch the disabled path pays.
struct LaunchSpan(Option<telemetry::SpanTimer>);

impl LaunchSpan {
    /// Start timing a launch (no-op when telemetry is disabled).
    fn start() -> LaunchSpan {
        LaunchSpan(telemetry::SpanTimer::start())
    }

    /// Finish the span: bump the launch counters and record a
    /// `LaunchSpan` carrying the kernel name, iteration count, effective
    /// bytes and the simulated seconds, so traces can report achieved
    /// GB/s per kernel. The name is cloned only for a recorded span.
    fn finish(self, name: &Arc<str>, items: u64, effective_bytes: f64, sim_secs: f64) {
        if let Some(t) = self.0 {
            telemetry::Counters::add(&telemetry::counters().launches, 1);
            telemetry::Counters::add(&telemetry::counters().bytes_moved, effective_bytes as u64);
            t.finish_timed(
                telemetry::SpanKind::Launch,
                Arc::clone(name),
                items,
                effective_bytes,
                sim_secs,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_free_and_silent() {
        // Telemetry is off by default in tests: the span must be None
        // and finishing it must not record anything.
        let s = LaunchSpan::start();
        assert!(s.0.is_none());
        let name: Arc<str> = Arc::from("k");
        s.finish(&name, 1, 8.0, 1e-6);
        assert_eq!(
            Arc::strong_count(&name),
            1,
            "no clone for an unrecorded span"
        );
    }
}
