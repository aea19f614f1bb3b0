//! Layer 3 — **execute**: run the functional body (on parkit, via the
//! caller's closure) and emit the launch telemetry that goes with it.
//! This layer owns the wall-clock span, the flight bracket and the
//! `launches`/`bytes_moved` counters; it never touches the ledger or the
//! pricing cache. The flight bracket is written for executing sessions
//! only: a dry-run launch runs an empty body, and timestamping it would
//! cost more than the launch itself.

use crate::launch::price::Priced;
use std::sync::Arc;

/// Execute one priced launch: run `body` inside the launch span and,
/// when the session executes its bodies, the flight bracket. The one
/// execute stage behind both [`Session::launch`](crate::Session::launch)
/// and graph replay.
///
/// Flight events bracket the body so a crash mid-kernel leaves the
/// launch open on disk — that open is the post-mortem attribution. A
/// dry-run session (`executes == false`) runs only empty bodies, so it
/// writes no bracket: a crash there is attributed to the enclosing unit
/// span instead. Like the span, the bracket observes only and never
/// feeds back into the ledger.
pub(crate) fn execute<R>(p: &Priced, executes: bool, body: impl FnOnce() -> R) -> R {
    let span = LaunchSpan::start();
    let flight = executes && telemetry::flight::recording();
    if flight {
        telemetry::flight::span_open(telemetry::SpanKind::Launch, &p.name);
    }
    let r = body();
    if flight {
        telemetry::flight::span_close(telemetry::SpanKind::Launch, &p.name);
    }
    span.finish(
        Arc::clone(&p.name),
        p.items,
        p.effective_bytes,
        p.time.total,
    );
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
    /// GB/s per kernel.
    fn finish(self, name: Arc<str>, items: u64, effective_bytes: f64, sim_secs: f64) {
        if let Some(t) = self.0 {
            telemetry::Counters::add(&telemetry::counters().launches, 1);
            telemetry::Counters::add(&telemetry::counters().bytes_moved, effective_bytes as u64);
            t.finish_timed(
                telemetry::SpanKind::Launch,
                name,
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
        s.finish(Arc::from("k"), 1, 8.0, 1e-6);
    }
}
