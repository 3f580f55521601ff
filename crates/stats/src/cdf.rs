//! Empirical cumulative distribution functions.
//!
//! Most of the paper's figures are CDFs of per-configuration throughput.
//! [`Cdf`] wraps a sorted sample and answers the questions the paper asks of
//! them: "what fraction of pairs exceed X Mbit/s", "what is the median",
//! "where does curve A sit relative to curve B at quantile q".

/// An empirical CDF over a non-empty sample.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from any sample order. Panics on empty input or NaNs.
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        assert!(!samples.is_empty(), "CDF of empty sample");
        assert!(samples.iter().all(|s| !s.is_nan()), "NaN in CDF input");
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty samples); provided for
    /// clippy-idiomatic pairing with [`Cdf::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x)`: fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly above `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// Quantile `q` in `[0, 1]` with linear interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::summary::percentile(&self.sorted, q * 100.0)
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Step points `(x, F(x))` of the CDF — one per sample — for plotting or
    /// textual rendering.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Evaluate the CDF on a fixed grid of `bins` points spanning
    /// `[lo, hi]` — used to print aligned multi-curve figures.
    pub fn on_grid(&self, lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
        assert!(bins >= 2 && hi > lo);
        (0..bins)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (bins - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn basic_fractions() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(1.0), 0.25);
        assert_eq!(c.fraction_at_or_below(2.5), 0.5);
        assert_eq!(c.fraction_at_or_below(10.0), 1.0);
        assert_eq!(c.fraction_above(2.5), 0.5);
    }

    #[test]
    fn quantiles() {
        let c = Cdf::new((1..=5).map(f64::from).collect());
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.median(), 3.0);
    }

    #[test]
    fn ties_are_counted_inclusively() {
        let c = Cdf::new(vec![2.0, 2.0, 2.0, 5.0]);
        assert_eq!(c.fraction_at_or_below(2.0), 0.75);
        assert_eq!(c.fraction_at_or_below(1.999), 0.0);
    }

    #[test]
    fn points_are_a_step_function() {
        let c = Cdf::new(vec![10.0, 20.0]);
        assert_eq!(c.points(), vec![(10.0, 0.5), (20.0, 1.0)]);
    }

    #[test]
    fn grid_spans_inclusive() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0]);
        let g = c.on_grid(0.0, 4.0, 5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], (0.0, 0.0));
        assert_eq!(g[4], (4.0, 1.0));
        assert_eq!(g[2].0, 2.0);
        assert!((g[2].1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        Cdf::new(vec![]);
    }
}
