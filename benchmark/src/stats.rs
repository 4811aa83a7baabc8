//! The benchmark's arithmetic: the fast-decile rate estimator and its
//! noise diagnostic, medians, best-of-k, and shares.
//!
//! Noise on a deterministic CPU-bound loop is additive and positive (a
//! descheduled or cache-polluted slice only ever takes longer), so the
//! fastest tenth of many equal slices estimates the undisturbed cost far
//! more steadily than their mean or median does.

/// One timed slice: units of work retired and the nanoseconds it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub work: u64,
    pub ns: u64,
}

impl Sample {
    fn rate(&self) -> f64 {
        self.work as f64 / self.ns.max(1) as f64
    }
}

/// Work per nanosecond over the fastest tenth of `samples` (at least one):
/// their summed work over their summed time.
pub fn fast_decile(samples: &[Sample]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut by_rate: Vec<&Sample> = samples.iter().collect();
    by_rate.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let keep = samples.len().div_ceil(10);
    let (work, ns) = by_rate[..keep]
        .iter()
        .fold((0u64, 0u64), |(w, t), s| (w + s.work, t + s.ns));
    work as f64 / ns.max(1) as f64
}

/// The `p`-th percentile (0–100) of `values`, by linear interpolation
/// between closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median slice rate over fast-decile rate: 1.0 on a silent host, lower the
/// noisier the run. Reported as a diagnostic, never gated.
pub fn median_over_fast(samples: &[Sample]) -> f64 {
    let rates: Vec<f64> = samples.iter().map(Sample::rate).collect();
    median(&rates) / fast_decile(samples)
}

/// The smallest of `values` (best of k repeats of a lower-is-better time).
pub fn best_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Each part as a share of the parts' sum (all zero when the sum is zero).
pub fn shares(parts: &[f64]) -> Vec<f64> {
    let total: f64 = parts.iter().sum();
    parts
        .iter()
        .map(|p| if total > 0.0 { p / total } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(work: u64, ns: u64) -> Sample {
        Sample { work, ns }
    }

    #[test]
    fn fast_decile_takes_the_fastest_tenth_by_rate() {
        // 20 slices of 100 units: two fast ones (50 and 40 ns), the rest 100 ns.
        let mut v = vec![s(100, 100); 18];
        v.push(s(100, 50));
        v.push(s(100, 40));
        assert_eq!(fast_decile(&v), 200.0 / 90.0);
        // Rate, not time, decides: a short slice with little work is not fast.
        let v = [s(10, 20), s(100, 100), s(100, 100)];
        assert_eq!(fast_decile(&v), 1.0);
    }

    #[test]
    fn fast_decile_of_fewer_than_ten_samples_is_the_best_one() {
        assert_eq!(fast_decile(&[s(10, 10), s(10, 5), s(10, 20)]), 2.0);
        assert_eq!(fast_decile(&[s(7, 7)]), 1.0);
        // 11 samples keep two.
        let mut v = vec![s(10, 100); 9];
        v.extend([s(10, 10), s(10, 30)]);
        assert_eq!(fast_decile(&v), 20.0 / 40.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn median_over_fast_is_one_without_noise_and_below_one_with_it() {
        assert_eq!(median_over_fast(&vec![s(100, 100); 30]), 1.0);
        let mut noisy = vec![s(100, 125); 27];
        noisy.extend(vec![s(100, 100); 3]);
        assert_eq!(median_over_fast(&noisy), 0.8);
    }

    #[test]
    fn best_of_is_the_minimum() {
        assert_eq!(best_of(&[8.4, 8.1, 9.0]), 8.1);
    }

    #[test]
    fn shares_sum_to_one() {
        let sh = shares(&[3.0, 1.0, 4.0, 0.0]);
        assert_eq!(sh, vec![0.375, 0.125, 0.5, 0.0]);
        assert!((sh.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(shares(&[0.0, 0.0]), vec![0.0, 0.0]);
    }
}
