//! The process-wide metrics registry: named histograms and labelled
//! counters, recorded into per-thread shards.
//!
//! Recording follows the same discipline as the telemetry rings: each
//! recording thread owns one shard behind its own mutex, uncontended in
//! the steady state because the only other party that ever locks it is
//! [`Registry::flush`]. Every recording entry point is guarded by
//! [`telemetry::enabled`], so with telemetry off a call site costs one
//! relaxed atomic load and branch — nothing is hashed, locked or
//! allocated, and nothing in the engine ever reads the registry back,
//! so enabling metrics cannot perturb a session ledger.
//!
//! [`ingest_events`] folds a flushed telemetry trace into the registry
//! (per-kernel launch-wall histograms, region/reduce/phase timings).

use crate::hist::Histogram;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use telemetry::{Event, SpanKind};

/// Swallow poison, as the telemetry rings do: a panicked recorder
/// leaves a structurally intact shard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Metric identity: a name plus an optional label (kernel, phase,
/// platform, ... — empty when unlabelled).
pub type Key = (String, String);

#[derive(Default)]
struct Shard {
    hists: HashMap<Key, Histogram>,
    counters: HashMap<Key, u64>,
}

impl Shard {
    fn merge_into(&mut self, out: &mut Snapshot) {
        for (k, h) in self.hists.drain() {
            out.hists.entry(k).or_default().merge(&h);
        }
        for (k, n) in self.counters.drain() {
            *out.counters.entry(k).or_default() += n;
        }
    }
}

/// A merged, plain-value view of the registry at one flush.
#[derive(Default)]
pub struct Snapshot {
    pub hists: HashMap<Key, Histogram>,
    pub counters: HashMap<Key, u64>,
}

impl Snapshot {
    /// Histogram for (name, label), if recorded.
    pub fn hist(&self, name: &str, label: &str) -> Option<&Histogram> {
        self.hists.get(&(name.to_owned(), label.to_owned()))
    }

    /// Counter value for (name, label), 0 when never bumped.
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters
            .get(&(name.to_owned(), label.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    /// All histogram keys, sorted (for deterministic rendering).
    pub fn hist_keys(&self) -> Vec<&Key> {
        let mut keys: Vec<&Key> = self.hists.keys().collect();
        keys.sort();
        keys
    }
}

/// The registry: a list of per-thread shards.
pub struct Registry {
    shards: Mutex<Vec<Arc<Mutex<Shard>>>>,
}

thread_local! {
    static TL_SHARD: Arc<Mutex<Shard>> = {
        let shard = Arc::new(Mutex::new(Shard::default()));
        let mut reg = lock(&registry().shards);
        reg.push(Arc::clone(&shard));
        shard
    };
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: Registry = Registry {
        shards: Mutex::new(Vec::new()),
    };
    &REGISTRY
}

impl Registry {
    /// Record `value` into the histogram `name` (unlabelled). One
    /// branch when telemetry is disabled.
    #[inline]
    pub fn record(&self, name: &str, value: f64) {
        self.record_labelled(name, "", value);
    }

    /// Record `value` into the histogram (`name`, `label`).
    #[inline]
    pub fn record_labelled(&self, name: &str, label: &str, value: f64) {
        if !telemetry::enabled() {
            return;
        }
        self.record_always(name, label, value);
    }

    /// Record unconditionally (used when folding in an already-captured
    /// trace, where the enabled check happened at capture time).
    pub fn record_always(&self, name: &str, label: &str, value: f64) {
        TL_SHARD.with(|shard| {
            lock(shard)
                .hists
                .entry((name.to_owned(), label.to_owned()))
                .or_default()
                .record(value);
        });
    }

    /// Add `n` to the counter (`name`, `label`).
    #[inline]
    pub fn add(&self, name: &str, label: &str, n: u64) {
        if !telemetry::enabled() {
            return;
        }
        TL_SHARD.with(|shard| {
            *lock(shard)
                .counters
                .entry((name.to_owned(), label.to_owned()))
                .or_default() += n;
        });
    }

    /// Drain every thread's shard into one merged [`Snapshot`].
    /// Flushed values are removed from the shards (counters restart at
    /// zero), mirroring `telemetry::flush`.
    pub fn flush(&self) -> Snapshot {
        let shards: Vec<Arc<Mutex<Shard>>> = lock(&self.shards).iter().map(Arc::clone).collect();
        let mut out = Snapshot::default();
        for shard in shards {
            lock(&shard).merge_into(&mut out);
        }
        out
    }
}

/// Fold a flushed telemetry trace into the registry: wall-clock
/// histograms per span kind, labelled by kernel / phase name for
/// launches and phases.
pub fn ingest_events(events: &[Event]) {
    let r = registry();
    for e in events {
        let secs = e.dur_ns as f64 / 1e9;
        match e.kind {
            SpanKind::Launch => {
                r.record_always("launch.wall_secs", e.name.as_str(), secs);
                if e.sim_secs > 0.0 {
                    r.record_always("launch.sim_secs", e.name.as_str(), e.sim_secs);
                }
            }
            SpanKind::Region => r.record_always("region.wall_secs", "", secs),
            SpanKind::Reduce => r.record_always("reduce.wall_secs", "", secs),
            SpanKind::Phase => r.record_always("phase.wall_secs", e.name.as_str(), secs),
            SpanKind::Replay => r.record_always("replay.wall_secs", e.name.as_str(), secs),
            SpanKind::Unit => r.record_always("unit.wall_secs", e.name.as_str(), secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Name, TelemetryConfig};

    /// The registry and the telemetry enabled flag are process-global;
    /// serialise the tests that install configs or flush.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn ev(name: &'static str, kind: SpanKind, dur_ns: u64, bytes: f64, sim: f64) -> Event {
        Event {
            seq: 1,
            kind,
            name: Name::Static(name),
            start_ns: 0,
            dur_ns,
            thread: 0,
            items: 1,
            bytes,
            sim_secs: sim,
        }
    }

    #[test]
    fn disabled_recording_is_dropped_enabled_is_kept() {
        let _serial = lock(&SERIAL);
        TelemetryConfig::disabled().install();
        registry().record("t.disabled", 1.0);
        registry().add("t.disabled", "", 5);
        let snap = registry().flush();
        assert!(snap.hist("t.disabled", "").is_none());
        assert_eq!(snap.counter("t.disabled", ""), 0);

        TelemetryConfig::enabled().install();
        registry().record("t.enabled", 2.5);
        registry().add("t.enabled", "x", 5);
        TelemetryConfig::disabled().install();
        let snap = registry().flush();
        assert_eq!(snap.hist("t.enabled", "").unwrap().count(), 1);
        assert_eq!(snap.counter("t.enabled", "x"), 5);
        // Flush drained the shards.
        let again = registry().flush();
        assert!(again.hist("t.enabled", "").is_none());
    }

    #[test]
    fn shards_merge_across_threads() {
        let _serial = lock(&SERIAL);
        TelemetryConfig::enabled().install();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..100 {
                        registry().record_labelled("t.sharded", "k", (t * 100 + i) as f64 + 1.0);
                        registry().add("t.sharded.n", "", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        TelemetryConfig::disabled().install();
        let snap = registry().flush();
        let h = snap.hist("t.sharded", "k").unwrap();
        assert_eq!(h.count(), 400);
        assert_eq!(h.max(), 400.0);
        assert_eq!(snap.counter("t.sharded.n", ""), 400);
    }

    #[test]
    fn ingest_routes_span_kinds() {
        let _serial = lock(&SERIAL);
        let events = vec![
            ev("k1", SpanKind::Launch, 1000, 8e6, 1e-4),
            ev("k1", SpanKind::Launch, 2000, 8e6, 1e-4),
            ev("p", SpanKind::Phase, 5000, 0.0, 0.0),
            ev("r", SpanKind::Region, 100, 0.0, 0.0),
            ev("d", SpanKind::Reduce, 100, 0.0, 0.0),
        ];
        ingest_events(&events);
        let snap = registry().flush();
        assert_eq!(snap.hist("launch.wall_secs", "k1").unwrap().count(), 2);
        assert_eq!(snap.hist("launch.sim_secs", "k1").unwrap().count(), 2);
        assert_eq!(snap.hist("phase.wall_secs", "p").unwrap().count(), 1);
        assert_eq!(snap.hist("region.wall_secs", "").unwrap().count(), 1);
        assert_eq!(snap.hist("reduce.wall_secs", "").unwrap().count(), 1);
    }
}
