//! Summary statistics: mean, standard deviation, percentiles.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Interpolated percentile `p` in `[0, 100]` of an **unsorted** slice.
///
/// Uses the linear-interpolation definition (R-7 / NumPy default).
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut v: Vec<f64> = xs.to_vec();
    assert!(v.iter().all(|s| !s.is_nan()), "NaN in percentile input");
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// A one-shot summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub(crate) n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of empty slice");
        Summary {
            n: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            min: percentile(xs, 0.0),
            p10: percentile(xs, 10.0),
            p25: percentile(xs, 25.0),
            median: percentile(xs, 50.0),
            p75: percentile(xs, 75.0),
            p90: percentile(xs, 90.0),
            max: percentile(xs, 100.0),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p10={:.3} p25={:.3} med={:.3} p75={:.3} p90={:.3} max={:.3}",
            self.n, self.mean, self.std_dev, self.min, self.p10, self.p25,
            self.median, self.p75, self.p90, self.max
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ~2.138.
        assert!((std_dev(&xs) - 2.138).abs() < 0.001);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // Unsorted input works.
        let ys = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&ys, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let xs = [7.5];
        assert_eq!(percentile(&xs, 0.0), 7.5);
        assert_eq!(percentile(&xs, 50.0), 7.5);
        assert_eq!(percentile(&xs, 100.0), 7.5);
    }

    #[test]
    fn summary_is_consistent() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(s.p10 < s.p25 && s.p25 < s.median);
        assert!(s.median < s.p75 && s.p75 < s.p90);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
