//! Per-thread ring-buffer trace recorders.
//!
//! Every thread that records a span owns one `Ring`: a bounded
//! `VecDeque` of [`Event`]s behind its own mutex. Recording locks only
//! the recorder's *own* ring — uncontended in the steady state, since
//! the only other party that ever touches it is [`flush`] — so the
//! enabled path is one timestamp, one uncontended lock, one push.
//! Rings are registered in a process-wide list and outlive their
//! threads (the registry holds an `Arc`), so worker-thread events are
//! never lost to thread exit.
//!
//! When a ring is full the oldest event is overwritten (and counted in
//! [`Counters::spans_dropped`](crate::Counters::spans_dropped)): tracing
//! a long run degrades to "most recent window" instead of unbounded
//! memory.
//!
//! ## Ordering
//!
//! Each event takes a ticket from one global atomic sequence when it is
//! recorded (= when its span *finishes*). [`flush`] drains every ring
//! and sorts by that sequence, so the returned list is monotonically
//! ordered by real finish order even across threads — a span that
//! happened-after another is always later in the flush.

use crate::counters::{counters, Counters};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Capacity applied to rings created from now on.
static DEFAULT_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Global finish-order sequence (0 is reserved as "unset").
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Swallow poison: a panicked recorder leaves a structurally intact
/// ring, and span data carries no invariants beyond its own fields.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Nanoseconds since the process-wide trace epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One kernel launch that ran its functional body: an eager or
    /// replayed launch on an executing session. A dry-run launch writes
    /// none.
    Launch,
    /// One parallel region on the thread pool.
    Region,
    /// One deterministic tree reduction.
    Reduce,
    /// One named application phase (e.g. a CloverLeaf `advec_cell`
    /// sweep): a group of launches under one algorithmic step.
    Phase,
    /// One launch-graph replay (a batch of launches priced from the
    /// session's plan for the graph and committed under a single ledger
    /// lock), on a dry-run session too.
    Replay,
    /// One study unit executing on a worker (the span a worker's flight
    /// recording opens and closes — the crash-attribution anchor).
    Unit,
}

impl SpanKind {
    /// Lower-case label (Chrome-trace category, table rows).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Launch => "launch",
            SpanKind::Region => "region",
            SpanKind::Reduce => "reduce",
            SpanKind::Phase => "phase",
            SpanKind::Replay => "replay",
            SpanKind::Unit => "unit",
        }
    }
}

/// A span name that avoids allocating on the hot path: kernel names are
/// already interned `Arc<str>`s in the session, engine-internal spans
/// are static strings.
#[derive(Debug, Clone)]
pub enum Name {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Name {
    /// The name text.
    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Shared(s) => s,
        }
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Name {
        Name::Static(s)
    }
}

impl From<Arc<str>> for Name {
    fn from(s: Arc<str>) -> Name {
        Name::Shared(s)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global finish-order ticket (strictly increasing across threads).
    pub seq: u64,
    pub kind: SpanKind,
    pub name: Name,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread (ring registration index).
    pub thread: u32,
    /// Items processed (loop points, chunks, set elements; 0 if n/a).
    pub items: u64,
    /// Effective footprint bytes attached to the span (0.0 if n/a).
    pub bytes: f64,
    /// Simulated seconds the launch was priced at (0.0 if n/a).
    pub sim_secs: f64,
}

/// Bounded event buffer for one thread.
struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
    thread: u32,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            Counters::add(&counters().spans_dropped, 1);
        }
        self.buf.push_back(ev);
    }
}

/// Every ring ever created, in registration order.
static REGISTRY: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

thread_local! {
    static TL_RING: Arc<Mutex<Ring>> = {
        let mut reg = lock(&REGISTRY);
        let ring = Arc::new(Mutex::new(Ring {
            buf: VecDeque::new(),
            cap: DEFAULT_CAPACITY.load(Ordering::Relaxed),
            thread: reg.len() as u32,
        }));
        reg.push(Arc::clone(&ring));
        ring
    };
}

/// Set the capacity used by rings created after this call (existing
/// rings keep theirs — capacity is fixed at first record per thread).
pub(crate) fn set_default_capacity(cap: usize) {
    DEFAULT_CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Append a finished span to the calling thread's ring.
fn record(kind: SpanKind, name: Name, start_ns: u64, items: u64, bytes: f64, sim_secs: f64) {
    let end = now_ns();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    TL_RING.with(|ring| {
        let mut r = lock(ring);
        let thread = r.thread;
        r.push(Event {
            seq,
            kind,
            name,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            thread,
            items,
            bytes,
            sim_secs,
        });
    });
}

/// A running span. Construction is the *single branch* instrumentation
/// sites pay when telemetry is disabled: [`SpanTimer::start`] returns
/// `None` without taking a timestamp.
#[derive(Debug)]
pub struct SpanTimer {
    start: u64,
}

impl SpanTimer {
    /// Begin a span if telemetry is enabled.
    #[inline]
    pub fn start() -> Option<SpanTimer> {
        if !crate::enabled() {
            return None;
        }
        Some(SpanTimer { start: now_ns() })
    }

    /// Finish the span and record it on the calling thread's ring.
    pub fn finish(self, kind: SpanKind, name: impl Into<Name>, items: u64, bytes: f64) {
        record(kind, name.into(), self.start, items, bytes, 0.0);
    }

    /// [`SpanTimer::finish`] also attaching the simulated seconds the
    /// launch was priced at.
    pub fn finish_timed(
        self,
        kind: SpanKind,
        name: impl Into<Name>,
        items: u64,
        bytes: f64,
        sim_secs: f64,
    ) {
        record(kind, name.into(), self.start, items, bytes, sim_secs);
    }
}

/// Run the deterministic reduction `f` of `kernel` over `units` chunks,
/// recording it as a [`SpanKind::Reduce`] span named `<kernel>.reduce`
/// carrying the kernel's footprint `bytes`. The label is formatted only
/// when a span was actually taken (telemetry enabled).
pub fn reduce_span<T>(kernel: &str, units: usize, bytes: f64, f: impl FnOnce() -> T) -> T {
    let span = SpanTimer::start();
    let out = f();
    if let Some(t) = span {
        let label: Arc<str> = format!("{kernel}.reduce").into();
        t.finish(SpanKind::Reduce, label, units as u64, bytes);
    }
    out
}

/// Drain every thread's ring into one list, monotonically ordered by
/// the global finish sequence. Flushed events are removed from their
/// rings; counters are left untouched.
pub fn flush() -> Vec<Event> {
    let rings: Vec<Arc<Mutex<Ring>>> = lock(&REGISTRY).iter().map(Arc::clone).collect();
    let mut out = Vec::new();
    for ring in rings {
        let mut r = lock(&ring);
        out.extend(r.buf.drain(..));
    }
    out.sort_by_key(|e| e.seq);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_avoid_allocation_for_the_two_hot_cases() {
        let s: Name = "static".into();
        assert_eq!(s.as_str(), "static");
        let a: Arc<str> = Arc::from("shared");
        let n: Name = Name::Shared(Arc::clone(&a));
        assert_eq!(n.as_str(), "shared");
        // Cloning a shared name bumps a refcount, it does not copy text.
        let n2 = n.clone();
        assert_eq!(Arc::strong_count(&a), 3);
        drop((n, n2));
    }

    #[test]
    fn span_kind_labels() {
        assert_eq!(SpanKind::Launch.label(), "launch");
        assert_eq!(SpanKind::Region.label(), "region");
        assert_eq!(SpanKind::Reduce.label(), "reduce");
        assert_eq!(SpanKind::Phase.label(), "phase");
        assert_eq!(SpanKind::Replay.label(), "replay");
        assert_eq!(SpanKind::Unit.label(), "unit");
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
