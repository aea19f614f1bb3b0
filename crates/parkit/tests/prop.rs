//! Property-style tests of the pool, driven by
//! deterministic parameter sweeps (no external property-test framework:
//! the workspace builds offline with the standard library alone).

use parkit::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic xorshift64* stream for test inputs.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

#[test]
fn for_range_touches_every_index_exactly_once() {
    let mut rng = XorShift::new(17);
    for case in 0..24 {
        let total = rng.in_range(1, 5000);
        let grain = rng.in_range(1, 700);
        let lanes = rng.in_range(1, 9);
        let pool = ThreadPool::new(lanes);
        let marks: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        pool.for_range(total, grain, |s, e| {
            for m in &marks[s..e] {
                m.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            marks.iter().all(|m| m.load(Ordering::Relaxed) == 1),
            "case {case}: total={total} grain={grain} lanes={lanes}"
        );
    }
}

#[test]
fn reduce_matches_sequential_sum() {
    let mut rng = XorShift::new(23);
    for _ in 0..16 {
        let total = rng.in_range(1, 20_000);
        let grain = rng.in_range(1, 2000);
        let lanes = rng.in_range(1, 9);
        let data: Vec<u64> = (0..total).map(|_| rng.next_u64() % 1000).collect();
        let expect: u64 = data.iter().sum();
        let pool = ThreadPool::new(lanes);
        let got = pool.reduce(
            total,
            grain,
            0u64,
            |a, b| a + b,
            |r| r.map(|i| data[i]).sum::<u64>(),
        );
        assert_eq!(got, expect, "total={total} grain={grain} lanes={lanes}");
    }
}

#[test]
fn float_reduction_is_bit_stable_across_lane_counts() {
    let mut rng = XorShift::new(41);
    for _ in 0..8 {
        let total = rng.in_range(100, 30_000);
        let grain = rng.in_range(7, 999);
        let data: Vec<f64> = (0..total)
            .map(|_| (rng.next_u64() % 100_000) as f64 * 1e-3 - 50.0)
            .collect();
        let mut bits = Vec::new();
        for lanes in [1usize, 2, 5] {
            let pool = ThreadPool::new(lanes);
            let s = pool.reduce(
                total,
                grain,
                0.0f64,
                |a, b| a + b,
                |r| r.map(|i| data[i]).sum::<f64>(),
            );
            bits.push(s.to_bits());
        }
        assert!(
            bits.windows(2).all(|w| w[0] == w[1]),
            "bit drift across lane counts: total={total} grain={grain}"
        );
    }
}

#[test]
fn run_region_covers_every_chunk_exactly_once() {
    let mut rng = XorShift::new(59);
    for _ in 0..12 {
        let n_chunks = rng.in_range(1, 300);
        let lanes = rng.in_range(1, 9);
        let pool = ThreadPool::new(lanes);
        let marks: Vec<AtomicUsize> = (0..n_chunks).map(|_| AtomicUsize::new(0)).collect();
        pool.run_region(n_chunks, |_l, c| {
            marks[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            marks.iter().all(|m| m.load(Ordering::Relaxed) == 1),
            "n_chunks={n_chunks} lanes={lanes}"
        );
    }
}
