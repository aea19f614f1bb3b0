//! Layer 3 — **execute**: run the functional body (on parkit, via the
//! caller's closure) and time it as one `Launch` span. A launch writes
//! its span only when telemetry is on and its session executes: a
//! dry-run body does no work, so there is nothing to time. This layer
//! never touches the ledger or the pricing cache; the ledger is the
//! one record of launches and their effective bytes.

use crate::session::LaunchRecord;
use std::sync::Arc;

/// Execute one priced launch: run `body`, inside a `Launch` span when
/// telemetry is on and `executes` holds. The one execute stage behind
/// both [`Session::launch`](crate::Session::launch) and a traced
/// executing graph replay. The span carries the kernel name, iteration
/// count, effective bytes and simulated seconds, so traces can report
/// achieved GB/s per kernel; it observes only and never feeds back
/// into the ledger. The untraced path pays one branch.
pub(crate) fn execute<R>(p: &LaunchRecord, executes: bool, body: impl FnOnce() -> R) -> R {
    let span = if telemetry::enabled() && executes {
        telemetry::SpanTimer::start()
    } else {
        None
    };
    let r = body();
    if let Some(t) = span {
        t.finish_timed(
            telemetry::SpanKind::Launch,
            Arc::clone(&p.name),
            p.items,
            p.effective_bytes,
            p.time.total,
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_free_and_silent() {
        // Telemetry is off by default in tests, and a dry launch writes
        // no span either way: neither clones the record's name.
        let p = crate::launch::commit::tests::record("k", 1e-6);
        assert_eq!(execute(&p, true, || 7), 7);
        assert_eq!(execute(&p, false, || 8), 8);
        assert_eq!(Arc::strong_count(&p.name), 1, "no clone without a span");
    }
}
