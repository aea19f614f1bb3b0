//! Summaries of timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, with the
//! sample count. A tail read off fewer samples is one or two outliers,
//! not a percentile, so small sample sets report no tail at all.

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median, optional tail and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`, when enough samples support one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let tail = TAIL_LADDER
            .iter()
            .find(|&&p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
            .map(|&p| (p, nearest_rank(&s, p)));
        Some(Summary {
            n,
            median: median_sorted(&s),
            tail,
        })
    }

    /// `median 1.23 ms, p99 4.56 ms (n=1234)`, values scaled by `scale`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {:.4} {unit}", v * scale),
            None => ", no tail percentile (too few samples)".to_owned(),
        };
        format!(
            "median {:.4} {unit}{tail} (n={})",
            self.median * scale,
            self.n
        )
    }
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// A uniform sample of at most `cap` of the values pushed into it
/// (Vitter's algorithm R with a fixed seed). Its memory stops growing once
/// it is full, so a run that pushes more values, because the host ran
/// faster, does not end with a higher peak RSS.
pub struct Reservoir<T> {
    kept: Vec<T>,
    seen: u64,
    state: u64,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize) -> Reservoir<T> {
        Reservoir {
            kept: Vec::with_capacity(cap),
            seen: 0,
            state: 0x7265_7365_7276, // "reserv"
        }
    }

    pub fn push(&mut self, value: T) {
        self.seen += 1;
        if self.kept.len() < self.kept.capacity() {
            self.kept.push(value);
            return;
        }
        // splitmix64
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let slot = ((z ^ (z >> 31)) % self.seen) as usize;
        if let Some(kept) = self.kept.get_mut(slot) {
            *kept = value;
        }
    }

    /// The kept values and how many were pushed.
    pub fn into_parts(self) -> (Vec<T>, u64) {
        (self.kept, self.seen)
    }
}

/// Nearest-rank percentile of sorted samples.
fn nearest_rank(s: &[f64], p: f64) -> f64 {
    // The epsilon keeps float noise (99.9 × 10 000 / 100 = 9990.000…2)
    // from bumping an exact rank to the next sample.
    let rank = (p * s.len() as f64 / 100.0 - 1e-6).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the summary has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn empty_input_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        for n in [1, 2, 9, 10, 50, 99] {
            let s = Summary::of(&ramp(n)).unwrap();
            assert_eq!(s.n, n);
            assert_eq!(s.tail, None, "n={n} cannot support a p90");
        }
    }

    #[test]
    fn the_highest_supported_percentile_is_chosen() {
        // 100 samples: exactly 10 lie beyond p90.
        assert_eq!(Summary::of(&ramp(100)).unwrap().tail, Some((90.0, 90.0)));
        // 999 samples: p99 would leave only 9.99 beyond it.
        assert_eq!(Summary::of(&ramp(999)).unwrap().tail.unwrap().0, 90.0);
        assert_eq!(Summary::of(&ramp(1000)).unwrap().tail, Some((99.0, 990.0)));
        assert_eq!(
            Summary::of(&ramp(10_000)).unwrap().tail,
            Some((99.9, 9990.0))
        );
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(Summary::of(&[5.0]).unwrap().median, 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_reservoir_keeps_all_until_full_then_a_fixed_sample() {
        let mut r = Reservoir::new(100);
        for i in 0..50 {
            r.push(i);
        }
        let (kept, seen) = r.into_parts();
        assert_eq!((kept, seen), ((0..50).collect::<Vec<_>>(), 50));

        let mut r = Reservoir::new(1000);
        for i in 0..100_000u32 {
            r.push(i);
        }
        let (kept, seen) = r.into_parts();
        assert_eq!((kept.len(), kept.capacity(), seen), (1000, 1000, 100_000));
        // Uniform over the whole stream: its median is near the middle.
        let m = median(&kept.iter().map(|&v| v as f64).collect::<Vec<_>>());
        assert!((m - 50_000.0).abs() < 5_000.0, "median {m}");
    }

    #[test]
    fn description_names_the_tail_and_count() {
        let d = Summary::of(&ramp(100)).unwrap().describe(1.0, "ms");
        assert!(d.contains("p90 90.0000 ms") && d.contains("n=100"), "{d}");
        let d = Summary::of(&ramp(3)).unwrap().describe(1.0, "ms");
        assert!(d.contains("no tail"), "{d}");
    }
}
