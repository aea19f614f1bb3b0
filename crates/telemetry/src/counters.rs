//! Process-wide engine counters: pricing-cache traffic, pool
//! scheduling and dropped spans. Launches and their effective bytes
//! are not counted here: a session's ledger is their one record.
//!
//! Plain relaxed `AtomicU64`s: increments never order against anything —
//! they are statistics, not synchronisation. Every bump site is guarded
//! by [`crate::enabled`], so the disabled path costs one branch.

use std::sync::atomic::{AtomicU64, Ordering};

/// The engine's counter set. All fields count monotonically from
/// process start (counters are never reset — diff two
/// [snapshots](Counters::snapshot) to measure an interval).
#[derive(Debug, Default)]
pub struct Counters {
    /// Launch-pricing cache hits (fingerprint found and field-verified).
    pub pricing_cache_hits: AtomicU64,
    /// Launch-pricing cache misses (cache enabled, but a full
    /// toolchain-model walk was needed).
    pub pricing_cache_misses: AtomicU64,
    /// Parallel regions executed by the pool (inline fast path included).
    pub regions: AtomicU64,
    /// Chunks claimed from a dynamic region's shared cursor by a worker
    /// lane (i.e. taken off the calling thread's plate).
    pub steals: AtomicU64,
    /// Times a worker gave up spinning and parked on the condvar.
    pub parks: AtomicU64,
    /// Times a parked worker woke to adopt a region.
    pub wakes: AtomicU64,
    /// Span events overwritten by ring wrap before they were flushed.
    pub spans_dropped: AtomicU64,
}

impl Counters {
    /// Add `n` to a counter — call sites pick the field.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A coherent-enough copy of every counter (each field is read
    /// relaxed; the set is not a consistent cut, which is fine for
    /// statistics).
    pub fn snapshot(&self) -> CounterSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CounterSnapshot {
            pricing_cache_hits: g(&self.pricing_cache_hits),
            pricing_cache_misses: g(&self.pricing_cache_misses),
            regions: g(&self.regions),
            steals: g(&self.steals),
            parks: g(&self.parks),
            wakes: g(&self.wakes),
            spans_dropped: g(&self.spans_dropped),
        }
    }
}

/// Plain-value copy of [`Counters`] at one moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    pub pricing_cache_hits: u64,
    pub pricing_cache_misses: u64,
    pub regions: u64,
    pub steals: u64,
    pub parks: u64,
    pub wakes: u64,
    pub spans_dropped: u64,
}

impl CounterSnapshot {
    /// Field-by-field difference against an earlier snapshot.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            pricing_cache_hits: self.pricing_cache_hits - earlier.pricing_cache_hits,
            pricing_cache_misses: self.pricing_cache_misses - earlier.pricing_cache_misses,
            regions: self.regions - earlier.regions,
            steals: self.steals - earlier.steals,
            parks: self.parks - earlier.parks,
            wakes: self.wakes - earlier.wakes,
            spans_dropped: self.spans_dropped - earlier.spans_dropped,
        }
    }
}

/// The process-wide counter set.
pub fn counters() -> &'static Counters {
    static COUNTERS: Counters = Counters {
        pricing_cache_hits: AtomicU64::new(0),
        pricing_cache_misses: AtomicU64::new(0),
        regions: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        parks: AtomicU64::new(0),
        wakes: AtomicU64::new(0),
        spans_dropped: AtomicU64::new(0),
    };
    &COUNTERS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_is_per_field() {
        let a = CounterSnapshot {
            regions: 10,
            steals: 3,
            ..Default::default()
        };
        let b = CounterSnapshot {
            regions: 25,
            steals: 7,
            wakes: 2,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.regions, 15);
        assert_eq!(d.steals, 4);
        assert_eq!(d.wakes, 2);
        assert_eq!(d.parks, 0);
    }

    #[test]
    fn global_counters_accumulate() {
        let before = counters().snapshot();
        Counters::add(&counters().pricing_cache_hits, 128);
        Counters::add(&counters().pricing_cache_hits, 72);
        let after = counters().snapshot();
        assert!(after.since(&before).pricing_cache_hits >= 200);
    }
}
