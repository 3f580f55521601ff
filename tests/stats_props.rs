//! Property-based tests for the statistics the figure harness reports:
//! the R-7 percentile the §5.1 link thresholds share, the mean and
//! standard deviation, and the CDF tables.

use proptest::prelude::*;

use cmap_suite::bench::exposed::Curve;
use cmap_suite::bench::{mean, render_cdfs, std_dev};
use cmap_suite::topo::percentile;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..200)
}

fn min_max(samples: &[f64]) -> (f64, f64) {
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

/// The CDF values of a one-curve table rendered with `bins` rows over
/// `[lo, hi]`, read back from its text.
fn table_fractions(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<f64> {
    let curve = Curve {
        label: "c".into(),
        samples: samples.to_vec(),
    };
    render_cdfs("x", &[curve], lo, hi, bins)
        .lines()
        .skip(1)
        .map(|row| row.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect()
}

proptest! {
    #[test]
    #[allow(clippy::float_cmp, reason = "the table's 0 and 1 cells are exact")]
    fn cdf_fractions_are_monotone_and_bounded(samples in finite_samples(), x in -2e6f64..2e6, y in -2e6f64..2e6) {
        // A table needs `hi > lo`.
        let (lo, hi) = (x.min(y), x.max(y) + 1.0);
        let f = table_fractions(&samples, lo, hi, 2);
        let (flo, fhi) = (f[0], f[1]);
        prop_assert!((0.0..=1.0).contains(&flo));
        prop_assert!((0.0..=1.0).contains(&fhi));
        prop_assert!(flo <= fhi);
        // No mass below the smallest sample; all of it from the largest on.
        // The table's last row sits at `lo + (hi - lo)`, which may round
        // away from `hi`.
        let (min, max) = min_max(&samples);
        prop_assert!(lo >= min || flo == 0.0, "{flo} below the smallest sample");
        prop_assert!(lo + (hi - lo) < max || fhi == 1.0, "{fhi} at or past the largest sample");
    }

    #[test]
    fn quantiles_are_monotone_and_within_range(samples in finite_samples(), p1 in 0.0f64..=100.0, p2 in 0.0f64..=100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let vlo = percentile(&samples, lo);
        let vhi = percentile(&samples, hi);
        prop_assert!(vlo <= vhi + 1e-9);
        let (min, max) = min_max(&samples);
        prop_assert!(vlo >= min - 1e-9 && vhi <= max + 1e-9);
    }

    #[test]
    fn summary_orderings_hold(samples in finite_samples()) {
        // The summary Fig 19's table prints: min, the 10/25/50/75/90th
        // percentiles and max in order, the mean between min and max.
        let (min, max) = min_max(&samples);
        let mut prev = min;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
            let v = percentile(&samples, p);
            prop_assert!(prev <= v + 1e-9, "p{p} = {v} below {prev}");
            prev = v;
        }
        prop_assert!(prev <= max + 1e-9);
        let m = mean(&samples);
        prop_assert!(min <= m + 1e-9 && m <= max + 1e-9);
        prop_assert!(std_dev(&samples) >= 0.0);
    }

    #[test]
    fn mean_shift_invariance(samples in finite_samples(), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - (mean(&samples) + shift)).abs() < 1e-6);
        // Standard deviation is shift-invariant.
        prop_assert!((std_dev(&shifted) - std_dev(&samples)).abs() < 1e-6);
    }

    #[test]
    fn percentile_of_constant_is_constant(c in -1e6f64..1e6, n in 1usize..50, p in 0.0f64..=100.0) {
        let samples = vec![c; n];
        // Interpolation between equal values may differ by an ULP.
        let got = percentile(&samples, p);
        prop_assert!((got - c).abs() <= c.abs() * 1e-12, "{got} vs {c}");
    }
}
