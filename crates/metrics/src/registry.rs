//! The process-wide metrics registry: named, optionally labelled
//! histograms, recorded into per-thread shards.
//!
//! Recording follows the same discipline as the telemetry rings: each
//! recording thread owns one shard behind its own mutex, uncontended in
//! the steady state because the only other party that ever locks it is
//! [`Registry::flush`]. Every recording entry point is guarded by
//! [`telemetry::enabled`], so with telemetry off a call site costs one
//! relaxed atomic load and branch — nothing is hashed, locked or
//! allocated, and nothing in the engine ever reads the registry back,
//! so enabling metrics cannot perturb a session ledger.

use crate::hist::Histogram;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
}

impl Shard {
    fn merge_into(&mut self, out: &mut Snapshot) {
        for (k, h) in self.hists.drain() {
            out.hists.entry(k).or_default().merge(&h);
        }
    }
}

/// A merged, plain-value view of the registry at one flush.
#[derive(Default)]
pub struct Snapshot {
    pub hists: HashMap<Key, Histogram>,
}

impl Snapshot {
    /// Histogram for (name, label), if recorded.
    pub fn hist(&self, name: &str, label: &str) -> Option<&Histogram> {
        self.hists.get(&(name.to_owned(), label.to_owned()))
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
        TL_SHARD.with(|shard| {
            lock(shard)
                .hists
                .entry((name.to_owned(), label.to_owned()))
                .or_default()
                .record(value);
        });
    }

    /// Drain every thread's shard into one merged [`Snapshot`].
    /// Flushed values are removed from the shards, mirroring
    /// `telemetry::flush`.
    pub fn flush(&self) -> Snapshot {
        let shards: Vec<Arc<Mutex<Shard>>> = lock(&self.shards).iter().map(Arc::clone).collect();
        let mut out = Snapshot::default();
        for shard in shards {
            lock(&shard).merge_into(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TelemetryConfig;

    /// The registry and the telemetry enabled flag are process-global;
    /// serialise the tests that install configs or flush.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_dropped_enabled_is_kept() {
        let _serial = lock(&SERIAL);
        TelemetryConfig::disabled().install();
        registry().record("t.disabled", 1.0);
        registry().record_labelled("t.disabled", "x", 1.0);
        let snap = registry().flush();
        assert!(snap.hist("t.disabled", "").is_none());
        assert!(snap.hist("t.disabled", "x").is_none());

        TelemetryConfig::enabled().install();
        registry().record("t.enabled", 2.5);
        for _ in 0..5 {
            registry().record_labelled("t.enabled", "x", 1.0);
        }
        TelemetryConfig::disabled().install();
        let snap = registry().flush();
        assert_eq!(snap.hist("t.enabled", "").unwrap().count(), 1);
        assert_eq!(snap.hist("t.enabled", "x").unwrap().count(), 5);
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
                        registry().record("t.sharded.n", 1.0);
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
        assert_eq!(snap.hist("t.sharded.n", "").unwrap().count(), 400);
    }
}
