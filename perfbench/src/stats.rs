//! Percentile and quartile helpers.
//!
//! Percentiles are nearest-rank and given in per-mille (500 = p50), so the
//! rank is exact integer arithmetic. A percentile is only reported when at
//! least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn rank(n: usize, pm: u32) -> usize {
    (n * pm as usize).div_ceil(1000).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `pm` percentile.
pub fn beyond(n: usize, pm: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pm)
}

/// The nearest-rank `pm` percentile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], pm: u32) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), pm) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), pm) - 1])
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (its default, exclusive method). Needs two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let s = sorted(values);
    let (ld, m) = (s.len(), s.len() + 1);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples kept for percentiles: a uniform reservoir of at most this many,
/// so the benchmark's own memory does not grow with run length.
pub const RESERVOIR: usize = 1 << 16;

/// Timing samples: every sample is counted, and a uniform random subset
/// of up to [`RESERVOIR`] is kept (Vitter's algorithm R, fixed seed).
#[derive(Clone, Debug)]
pub struct Samples {
    kept: Vec<f64>,
    seen: u64,
    rng: crate::rng::Rng,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            kept: Vec::new(),
            seen: 0,
            rng: crate::rng::Rng::new(0, "stats.reservoir"),
        }
    }
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(v);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < RESERVOIR {
                self.kept[j] = v;
            }
        }
    }

    /// Records `n` copies of one sample (one per operation that shared it).
    pub fn push_n(&mut self, v: f64, n: usize) {
        for _ in 0..n {
            self.push(v);
        }
    }

    /// Samples recorded, kept or not.
    pub fn len(&self) -> u64 {
        self.seen
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// The reportable `pm` percentile of the kept samples (see
    /// [`percentile`]).
    pub fn percentile(&self, pm: u32) -> Option<f64> {
        percentile(&sorted(&self.kept), pm)
    }

    /// The kept samples.
    pub fn values(&self) -> &[f64] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 500), Some(500.0));
        assert_eq!(percentile(&s, 900), Some(900.0));
        assert_eq!(percentile(&s, 990), Some(990.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&ramp(100), 900), Some(90.0));
        assert_eq!(percentile(&ramp(99), 900), None);
        assert_eq!(percentile(&ramp(19), 500), None);
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
        assert_eq!(percentile(&[], 500), None);
        let mut samples = Samples::default();
        samples.push_n(2.5, 99);
        assert_eq!(samples.percentile(900), None);
        samples.push(4.0);
        assert_eq!(samples.percentile(900), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: it
        // extrapolates beyond the data for tiny samples.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        let s = spread(&ramp(10));
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_reservoir_stays_bounded_and_uniform() {
        let mut s = Samples::default();
        let n = 4 * RESERVOIR;
        for i in 0..n {
            s.push(i as f64);
        }
        assert_eq!(s.len(), n as u64);
        assert_eq!(s.values().len(), RESERVOIR);
        let p50 = s.percentile(500).expect("plenty beyond");
        let rel = (p50 - n as f64 / 2.0).abs() / n as f64;
        assert!(rel < 0.01, "reservoir median {p50} of 0..{n}");
    }
}
