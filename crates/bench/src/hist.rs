//! Log-bucketed histograms.
//!
//! A [`Histogram`] sketches a distribution of positive values in
//! logarithmic buckets: 8 sub-buckets per octave, covering 2⁻⁴⁰..2⁴⁰
//! (≈ 1e-12 .. 1e12), so a bucketed quantile is within ~9 % of the true
//! value (half a sub-bucket) at any scale — nanoseconds or gigabytes.
//! Count, sum, sum-of-squares, min and max are tracked exactly, so mean
//! and the 95 % confidence interval carry no bucketing error.

/// Sub-buckets per power of two.
const SUB: usize = 8;
/// Lowest representable octave (2^MIN_OCT is the left edge of bucket 0).
const MIN_OCT: i64 = -40;
/// Octaves covered.
const OCTAVES: usize = 80;
/// Total bucket count.
const BUCKETS: usize = SUB * OCTAVES;

/// A log-bucketed distribution sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket occupancy; allocated on first record (empty = all zero).
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a positive finite value.
fn bucket_of(v: f64) -> usize {
    let oct = v.log2();
    let idx = (oct * SUB as f64).floor() as i64 - MIN_OCT * SUB as i64;
    idx.clamp(0, BUCKETS as i64 - 1) as usize
}

/// Geometric midpoint of a bucket.
fn representative(idx: usize) -> f64 {
    let oct = (idx as f64 + 0.5) / SUB as f64 + MIN_OCT as f64;
    oct.exp2()
}

impl Histogram {
    /// An empty histogram (no allocation until the first record).
    pub fn new() -> Histogram {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one value. Non-finite values are dropped; zero and
    /// negative values land in the lowest bucket (they still count
    /// exactly in mean/min/max).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        let idx = if v > 0.0 { bucket_of(v) } else { 0 };
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum / maximum (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample standard deviation (0.0 for n < 2).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
        var.max(0.0).sqrt()
    }

    /// Half-width of the 95 % confidence interval on the mean
    /// (1.96·σ/√n; 0.0 for n < 2).
    pub fn ci95(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.std_dev() / (self.count as f64).sqrt()
    }

    /// Bucketed quantile, `q` in [0, 1]: the geometric midpoint of the
    /// bucket holding the ⌈q·n⌉-th value, clamped into [min, max] so a
    /// one-value histogram reports that value exactly.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return representative(idx).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Summarise for a manifest / table row.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            ci95: self.ci95(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            min: self.min(),
            max: self.max(),
            sum: self.sum(),
        }
    }
}

/// Plain-value summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub count: u64,
    pub mean: f64,
    /// Half-width of the 95 % CI on the mean.
    pub ci95: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    pub min: f64,
    pub max: f64,
    pub sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.summary(), Summary::default());
    }

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-6); // 1µs .. 1ms
        }
        // Half a sub-bucket of slack either way: 2^(1/8) ≈ 1.09.
        let tol = 1.10;
        for (q, exact) in [(0.5, 500e-6), (0.9, 900e-6), (0.99, 990e-6)] {
            let got = h.quantile(q);
            assert!(
                got > exact / tol && got < exact * tol,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.max(), 1000e-6);
        assert!((h.mean() - 500.5e-6).abs() < 1e-12);
    }

    #[test]
    fn single_value_reports_exactly() {
        let mut h = Histogram::new();
        h.record(42.0);
        // Clamped into [min, max] — exact despite bucketing.
        assert_eq!(h.quantile(0.5), 42.0);
        assert_eq!(h.quantile(0.99), 42.0);
        assert_eq!(h.mean(), 42.0);
        assert_eq!(h.ci95(), 0.0);
    }

    #[test]
    fn extreme_and_bad_values_are_safe() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0, "non-finite values are dropped");
        h.record(0.0);
        h.record(-1.0);
        h.record(1e300); // clamps to the top bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 1e300);
    }

    #[test]
    fn ci_shrinks_with_sample_count() {
        let mut small = Histogram::new();
        let mut large = Histogram::new();
        for i in 0..10 {
            small.record(1.0 + (i % 3) as f64 * 0.1);
        }
        for i in 0..1000 {
            large.record(1.0 + (i % 3) as f64 * 0.1);
        }
        assert!(large.ci95() < small.ci95());
        assert!(small.ci95() > 0.0);
    }
}
