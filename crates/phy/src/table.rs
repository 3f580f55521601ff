//! Precomputed BER-vs-SINR interpolation tables for the grading hot path.
//!
//! Frame grading evaluates the decode BER once per interference segment of
//! every reception — tens of millions of calls per benchmark suite. The
//! direct evaluator ([`crate::error_model::ber`]) walks `erfc` plus a
//! Horner union-bound per call; measurement showed the old `(sinr.to_bits(),
//! rate)` memo cache in front of it almost never hit (suite-wide 3.3%),
//! because fading makes nearly every SINR bit pattern unique. This module
//! replaces both with per-rate tables sampled once per process:
//!
//! * **Grid**: [`GRID_POINTS`] nodes per rate, uniform in `log2(sinr)` over
//!   `[LOG2_SINR_LO, LOG2_SINR_HI]` (−60 dB … +90 dB, ~0.037 dB
//!   spacing). Every node stores the *exact* `f64` the direct evaluator
//!   produces — bit-exact on the sampled grid by construction.
//! * **Lookup**: linear interpolation between the two surrounding nodes.
//!   Outside the grid the curve is flat to double precision (0.5 below,
//!   ~0 above), so lookups clamp. Piecewise-linear interpolation through
//!   monotone nodes preserves the monotonicity the PHY proptests pin.
//! * **Error mode**: this is the *versioned, error-bounded* mode of the
//!   tentpole spec ([`TABLE_VERSION`]). The builder measures the deviation
//!   against the direct evaluator at every segment midpoint — the worst
//!   case for linear interpolation — and [`BerTable::max_abs_err`] is
//!   recorded in the suite report (`BENCH_repro.json`, `ber_table` block).
//!   [`ERR_BOUND`] is the documented ceiling, property-tested per rate in
//!   `tests/phy_props.rs`.
//!
//! The table is immutable after construction and shared process-wide
//! ([`BerTable::shared`]): it is a pure function of nothing — no
//! configuration, seed or ambient state reaches the builder — so sharing
//! cannot couple runs, and per-`World` construction cost (8 × 4097 direct
//! evaluations ≈ milliseconds) would otherwise dominate short runs.

use std::sync::OnceLock;

use crate::rate::Rate;

/// Version tag of the error-bounded table mode, recorded in suite reports
/// alongside the measured max error. Bump on any change to the grid or
/// interpolation scheme.
pub const TABLE_VERSION: &str = "ber-table/v1";

/// `log2` of the smallest tabulated SINR (−60 dB). Below this every rate's
/// BER has saturated at 0.5 to double precision.
pub(crate) const LOG2_SINR_LO: f64 = -20.0;

/// `log2` of the largest tabulated SINR (+90 dB). Above this every rate's
/// BER has underflowed to 0 to double precision.
pub(crate) const LOG2_SINR_HI: f64 = 30.0;

/// Grid nodes per rate (`GRID_SEGMENTS` + 1).
pub const GRID_POINTS: usize = GRID_SEGMENTS + 1;

/// Interpolation segments per rate. A power of two so the grid step
/// (50/4096 in log2-SINR) is exactly representable.
const GRID_SEGMENTS: usize = 4096;

/// Documented ceiling on `|table − direct|` for any in-range lookup,
/// enforced by the per-rate bounded-error proptest. Measured midpoint
/// maxima ([`BerTable::max_abs_err`]) sit near 1.1e-3, all of it in the
/// never-decodes shoulder (BER > 0.4); where frames can actually decode
/// (direct BER < 0.1) the measured maximum is under 2.5e-4.
pub const ERR_BOUND: f64 = 2e-3;

/// Grid step in `log2(sinr)`.
const STEP: f64 = (LOG2_SINR_HI - LOG2_SINR_LO) / GRID_SEGMENTS as f64;

/// Per-rate BER-vs-SINR interpolation tables, built once per process:
/// [`BerTable::shared`].
#[derive(Debug)]
pub struct BerTable {
    /// `Rate::ALL.len() * GRID_POINTS` node values, rate-major. Nodes hold
    /// the *unsaturated* union bound ([`crate::error_model::ber_union_bound`]);
    /// lookups saturate at 0.5 after interpolating, so the clamp kink is
    /// reproduced exactly instead of being smeared across a segment.
    values: Vec<f64>,
    /// Largest `|table − direct|` observed at any segment midpoint during
    /// construction, across all rates.
    max_abs_err: f64,
}

impl BerTable {
    /// The process-wide shared table, built on first use.
    pub fn shared() -> &'static BerTable {
        // Write-once immutable table of a pure function; cannot couple runs
        static SHARED: OnceLock<BerTable> = OnceLock::new();
        SHARED.get_or_init(BerTable::build)
    }

    /// Sample the direct evaluator at every grid node and measure the
    /// interpolation error at every segment midpoint.
    pub(crate) fn build() -> BerTable {
        let n_rates = Rate::ALL.len();
        let mut values = vec![0.0; n_rates * GRID_POINTS];
        let mut max_abs_err = 0.0_f64;
        for (r, &rate) in Rate::ALL.iter().enumerate() {
            let row = &mut values[r * GRID_POINTS..(r + 1) * GRID_POINTS];
            for (i, v) in row.iter_mut().enumerate() {
                *v = crate::error_model::ber_union_bound(Self::grid_sinr(i), rate);
            }
            for i in 0..GRID_SEGMENTS {
                let mid = (LOG2_SINR_LO + (i as f64 + 0.5) * STEP).exp2();
                let direct = crate::error_model::ber(mid, rate);
                let interp = ((row[i] + row[i + 1]) * 0.5).min(0.5);
                max_abs_err = max_abs_err.max((interp - direct).abs());
            }
        }
        BerTable {
            values,
            max_abs_err,
        }
    }

    /// The linear SINR of grid node `i` (same for every rate).
    pub fn grid_sinr(i: usize) -> f64 {
        (LOG2_SINR_LO + i as f64 * STEP).exp2()
    }

    /// The exact direct-evaluator value stored at grid node `i` for `rate`
    /// — bit-exactness on the sampled grid is tested against this.
    pub fn grid_value(&self, rate: Rate, i: usize) -> f64 {
        self.values[rate.to_u8() as usize * GRID_POINTS + i].min(0.5)
    }

    /// Largest midpoint deviation from the direct evaluator measured at
    /// construction (recorded in `BENCH_repro.json`).
    pub fn max_abs_err(&self) -> f64 {
        self.max_abs_err
    }

    /// The information-bit error rate at linear `sinr` and `rate`,
    /// interpolated. Non-positive (or NaN) SINR saturates at 0.5, matching
    /// the direct evaluator's clamp.
    #[inline]
    pub fn ber(&self, sinr: f64, rate: Rate) -> f64 {
        if sinr <= 0.0 || sinr.is_nan() {
            return 0.5;
        }
        let x = sinr.log2();
        let row = rate.to_u8() as usize * GRID_POINTS;
        if x <= LOG2_SINR_LO {
            return self.values[row].min(0.5);
        }
        if x >= LOG2_SINR_HI {
            return self.values[row + GRID_SEGMENTS].min(0.5);
        }
        let f = (x - LOG2_SINR_LO) * (1.0 / STEP);
        let i = (f as usize).min(GRID_SEGMENTS - 1);
        let frac = f - i as f64;
        let lo = self.values[row + i];
        let hi = self.values[row + i + 1];
        (lo + (hi - lo) * frac).min(0.5)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;
    use crate::error_model::ber;

    #[test]
    fn grid_nodes_are_exact_direct_values() {
        let t = BerTable::build();
        for rate in Rate::ALL {
            for i in [0, 1, GRID_SEGMENTS / 2, GRID_SEGMENTS - 1, GRID_SEGMENTS] {
                assert_eq!(
                    t.grid_value(rate, i).to_bits(),
                    ber(BerTable::grid_sinr(i), rate).to_bits(),
                    "{rate} node {i}"
                );
            }
        }
    }

    #[test]
    fn lookups_stay_probabilities_and_monotone() {
        let t = BerTable::shared();
        for rate in Rate::ALL {
            let mut last = f64::INFINITY;
            for db in -700..=1000 {
                let sinr = 10f64.powf(f64::from(db) / 10.0 / 10.0);
                let v = t.ber(sinr, rate);
                assert!((0.0..=0.5).contains(&v), "{rate} ber({sinr}) = {v}");
                assert!(v <= last + 1e-15, "{rate} not monotone at {db}");
                last = v;
            }
        }
    }

    #[test]
    fn out_of_range_and_degenerate_inputs_clamp() {
        let t = BerTable::shared();
        for rate in Rate::ALL {
            assert_eq!(t.ber(0.0, rate), 0.5);
            assert_eq!(t.ber(-1.0, rate), 0.5);
            assert_eq!(t.ber(f64::NAN, rate), 0.5);
            assert_eq!(t.ber(1e-30, rate), 0.5, "{rate} deep below grid");
            assert!(t.ber(1e30, rate) < 1e-300, "{rate} far above grid");
        }
    }

    #[test]
    fn measured_midpoint_error_is_within_the_documented_bound() {
        let t = BerTable::shared();
        assert!(t.max_abs_err() > 0.0, "builder measured nothing");
        assert!(
            t.max_abs_err() < ERR_BOUND,
            "midpoint error {} exceeds documented bound {ERR_BOUND}",
            t.max_abs_err()
        );
    }

    #[test]
    fn shared_table_is_one_instance() {
        let a: *const BerTable = BerTable::shared();
        let b: *const BerTable = BerTable::shared();
        assert_eq!(a, b);
    }
}
