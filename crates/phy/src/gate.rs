//! Brackets that let a uniform draw settle a reception without evaluating
//! the probability it is compared with.
//!
//! The simulator asks two Bernoulli questions per reception — does the
//! radio lock the preamble ([`preamble_success_prob`]), does the payload
//! decode at the recorded SINR profile — and both probabilities exist only
//! to be compared with one uniform draw: `unit < p`. Both curves are
//! monotone in SINR, so a cheap bracket `lo <= p <= hi` settles every draw
//! outside `[lo, hi)` to the same outcome the exact formula gives, and the
//! caller evaluates the formula only for draws inside.
//!
//! * **Cells.** A SINR's cell is `sinr.to_bits() >> 48`: sign, exponent and
//!   the top four mantissa bits, i.e. 16 cells per octave (~0.19 dB) found
//!   with a shift instead of a `log`. Every cell stores the curve at its two
//!   edges, widened by [`SLACK`]; the cells below and above the tabulated
//!   span store the curve's bound on that side (0 and 1 for a probability),
//!   so the bracket holds everywhere and the span is only a matter of how
//!   tight it is.
//! * **Soundness.** The real-valued curves are monotone and their float
//!   evaluations are within a few ulp of them; [`SLACK`] (1e-9 relative)
//!   is six orders above that. `tests/phy_props.rs` holds every cell to it
//!   and debug builds assert every bracketed decision equal to the exact
//!   one. The error bound is zero: outcomes, not approximations.
//! * **Off the grid** (zero, negative, subnormal, infinite or NaN SINR)
//!   there is no bracket and the caller takes the exact path.
//!
//! Like [`BerTable`], the gate is an immutable once-per-process sampling of
//! pure functions ([`DrawGate::shared`]).

use std::sync::OnceLock;

use crate::preamble::preamble_success_prob;
use crate::rate::Rate;
use crate::table::BerTable;

/// Relative widening of every stored edge value, and of the bit total and
/// the `exp` in [`DrawGate::decode_bracket`].
pub const SLACK: f64 = 1e-9;

/// `log2` of the SINR span the lock curve is tabulated over: it is exactly
/// 0.0 at the bottom edge and exactly 1.0 from the top edge up.
pub const LOCK_LOG2_SPAN: (i32, i32) = (-10, 7);

/// `log2` of the SINR span the per-rate decode curves are tabulated over.
pub const DECODE_LOG2_SPAN: (i32, i32) = (-12, 14);

/// The cell of `x`; cells of positive normal floats ascend with `x`.
#[inline]
fn cell(x: f64) -> usize {
    (x.to_bits() >> 48) as usize
}

/// Cells of the positive normal floats: the grid.
const GRID: std::ops::Range<usize> = 0x0010..0x7FF0;

/// One monotone non-decreasing curve, bracketed per cell.
#[derive(Debug)]
struct Curve {
    /// Cell of the bottom of the tabulated span.
    first: usize,
    /// `(lo, hi)` for the cells below the span (one entry), each cell of
    /// the span, and the cells above it (one entry).
    cells: Vec<(f64, f64)>,
}

impl Curve {
    /// Sample `f` at every cell edge of `2^span.0 .. 2^span.1`; `bounds`
    /// are the values `f` never leaves.
    fn build(span: (i32, i32), bounds: (f64, f64), f: impl Fn(f64) -> f64) -> Curve {
        let (first, end) = (cell(2f64.powi(span.0)), cell(2f64.powi(span.1)));
        let mut edges = vec![bounds.0];
        edges.extend((first..=end).map(|c| f(f64::from_bits((c as u64) << 48))));
        edges.push(bounds.1);
        let cells = edges
            .windows(2)
            .map(|w| (w[0] - w[0].abs() * SLACK, w[1] + w[1].abs() * SLACK))
            .collect();
        Curve { first, cells }
    }

    /// The bracket of the curve over `x`'s cell; `None` off the grid.
    #[inline]
    fn bracket(&self, x: f64) -> Option<(f64, f64)> {
        let c = cell(x);
        if !GRID.contains(&c) {
            return None;
        }
        let i = (c + 1).saturating_sub(self.first).min(self.cells.len() - 1);
        Some(self.cells[i])
    }
}

/// The outcome of `unit < p` for any `p` in `bracket`, when the draw lies
/// outside it; `None` when only the exact `p` can tell.
#[inline]
pub fn decide(bracket: (f64, f64), unit: f64) -> Option<bool> {
    if unit < bracket.0 {
        Some(true)
    } else if unit >= bracket.1 {
        Some(false)
    } else {
        None
    }
}

/// Per-cell brackets of the preamble-lock probability and of each rate's
/// per-bit log survival `ln(1 − BER)`. Construct via [`DrawGate::shared`].
#[derive(Debug)]
pub struct DrawGate {
    lock: Curve,
    /// `L(s) = ln_1p(−BerTable::ber(s, rate))`, indexed by `Rate::to_u8`.
    keep: Vec<Curve>,
}

impl DrawGate {
    /// The process-wide shared gate over [`BerTable::shared`], built on
    /// first use.
    pub fn shared() -> &'static DrawGate {
        // cmap-analyze: allow(shared-state) — write-once immutable brackets of pure functions; cannot couple runs
        static SHARED: OnceLock<DrawGate> = OnceLock::new();
        SHARED.get_or_init(|| DrawGate::build(BerTable::shared()))
    }

    /// Bracket the lock curve and, for every rate, the decode curve as
    /// `table` evaluates it.
    fn build(table: &BerTable) -> DrawGate {
        let keep = |rate: Rate| move |s: f64| (-table.ber(s, rate)).ln_1p();
        DrawGate {
            lock: Curve::build(LOCK_LOG2_SPAN, (0.0, 1.0), preamble_success_prob),
            keep: Rate::ALL
                .iter()
                .map(|&rate| Curve::build(DECODE_LOG2_SPAN, ((-0.5f64).ln_1p(), 0.0), keep(rate)))
                .collect(),
        }
    }

    /// `(lo, hi)` with `lo <= preamble_success_prob(sinr) <= hi`.
    #[inline]
    pub fn lock_bracket(&self, sinr: f64) -> Option<(f64, f64)> {
        self.lock.bracket(sinr)
    }

    /// `(lo, hi)` around `L(sinr)` for `rate` (both non-positive).
    #[inline]
    pub fn keep_bracket(&self, sinr: f64, rate: Rate) -> Option<(f64, f64)> {
        self.keep[rate.to_u8() as usize].bracket(sinr)
    }

    /// `(lo, hi)` around `exp(Σ bitsᵢ · L(sᵢ))` for any split of
    /// `total_bits` over SINRs within `s_worst ..= s_best`: the sum lies in
    /// `[y_lo, y_hi] = [T·L_lo(s_worst), T·L_hi(s_best)]`, and
    /// `1 + y <= eʸ <= 1 / (1 − y)` needs no `exp`.
    #[inline]
    pub fn decode_bracket(
        &self,
        rate: Rate,
        s_worst: f64,
        s_best: f64,
        total_bits: f64,
    ) -> Option<(f64, f64)> {
        let (l_lo, _) = self.keep_bracket(s_worst, rate)?;
        let (_, l_hi) = self.keep_bracket(s_best, rate)?;
        let y_lo = total_bits * (1.0 + SLACK) * l_lo;
        let y_hi = total_bits * (1.0 - SLACK) * l_hi;
        Some(((1.0 + y_lo) * (1.0 - SLACK), (1.0 + SLACK) / (1.0 - y_hi)))
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "edge facts are exact IEEE values")]
mod tests {
    use super::*;

    #[test]
    fn cells_are_sixteen_per_octave_and_ascend() {
        assert_eq!(cell(2.0) - cell(1.0), 16);
        assert_eq!(cell(1.0), cell(1.06));
        assert_eq!(cell(1.07) - cell(1.0), 1);
        assert!(GRID.contains(&cell(f64::MIN_POSITIVE)) && GRID.contains(&cell(f64::MAX)));
        for off in [0.0, -1.0, 1e-310, f64::INFINITY, f64::NAN, -f64::NAN] {
            assert!(!GRID.contains(&cell(off)), "{off}");
        }
    }

    #[test]
    fn outside_the_span_the_curve_bounds_stand_in() {
        let g = DrawGate::shared();
        // The span ends are where the lock curve saturates, so beyond them
        // the bracket is as tight as inside: never below, always above
        // (short of a draw within SLACK of 1, which the exact 1.0 settles).
        assert_eq!(g.lock_bracket(1e-30), Some((0.0, 0.0)));
        assert_eq!(decide((0.0, 0.0), 0.0), Some(false));
        let (lo, hi) = g.lock_bracket(1e30).expect("on the grid");
        assert!(lo == 1.0 - SLACK && hi > 1.0);
        assert_eq!(decide((lo, hi), 0.999), Some(true));
        for rate in Rate::ALL {
            let (lo, hi) = g.keep_bracket(1e-30, rate).expect("on the grid");
            assert!(lo < (-0.5f64).ln_1p() && hi < -0.69, "{rate}");
            let (lo, hi) = g.keep_bracket(1e30, rate).expect("on the grid");
            assert!(lo <= 0.0 && hi == 0.0, "{rate}");
        }
        assert_eq!(g.lock_bracket(0.0), None);
        assert_eq!(g.decode_bracket(Rate::R6, f64::NAN, 1.0, 100.0), None);
        assert_eq!(g.decode_bracket(Rate::R6, 1.0, f64::INFINITY, 100.0), None);
    }

    #[test]
    fn decide_is_half_open_like_the_comparison() {
        assert_eq!(decide((0.25, 0.5), 0.2), Some(true));
        assert_eq!(decide((0.25, 0.5), 0.25), None);
        assert_eq!(decide((0.25, 0.5), 0.4), None);
        assert_eq!(decide((0.25, 0.5), 0.5), Some(false));
    }
}
