//! The per-frame lognormal fading multiplier, drawn by table lookup.
//!
//! Every frame arrival scales its frozen link gain by a multiplier whose dB
//! value is `N(0, σ²)` — and, with probability `boost_prob`, by a fixed
//! upfade `boost_ratio` on top. Drawing the Gaussian (Box–Muller: `ln`,
//! `sqrt`, `cos`) and exponentiating it (`powf`) was the largest line of
//! every engine profile, and all of it only turns one uniform variate into
//! one linear factor. [`FadingTable`] is that map, tabulated once per world
//! from `σ` (the [`crate::BerTable`] idiom):
//!
//! * **Cells**: [`CELLS`] equiprobable cells of the unit interval. Edge `i`
//!   is the closed-form quantile `10^(σ·Φ⁻¹(i/CELLS)/10)`, with `Φ⁻¹` by
//!   [`inv_norm_cdf`] (full double precision, no iteration).
//! * **Draw**: one 64-bit word. Its top 10 bits pick the cell, the rest
//!   interpolate linearly between the cell's two edges. The word is the
//!   only randomness: one `u64` per arrival replaces two `f64` draws.
//! * **Tail rule**: the outermost [`TAIL_CELLS`] cells on each side, where
//!   the quantile curve bends hardest, evaluate the closed form at the
//!   draw's own uniform value, so the tails are the lognormal's, out to the
//!   2⁻⁶³ quantile. `2·TAIL_CELLS/CELLS` of draws (0.8 %) pay a `ln`, a
//!   `sqrt` and a `powf`.
//! * **Error bound**: an interpolated draw sits within
//!   [`FADING_TABLE_ERR_BOUND`]`·σ` dB of the closed-form quantile of the
//!   same uniform value (0.01 dB at the default σ = 2 dB), for every
//!   accepted σ; `tests/phy_props.rs` checks it at 64 points per cell and
//!   holds 10⁶ draws to the lognormal's CDF and first four moments through
//!   an independent `erfc`.
//!
//! The table is immutable and a pure function of the three configuration
//! values, so it adds no simulation state: nothing of it is checkpointed.

use crate::units::db_to_ratio;

/// Equiprobable cells of the table (2¹⁰: the top ten bits of a draw).
pub const CELLS: usize = 1 << CELL_BITS;

const CELL_BITS: u32 = 10;

/// Cells at each end of the table that evaluate the closed-form quantile
/// instead of interpolating; the smallest count that meets
/// [`FADING_TABLE_ERR_BOUND`].
pub const TAIL_CELLS: usize = 4;

/// Ceiling on the distance between an interpolated draw and the exact
/// quantile of the same uniform value, in dB per dB of σ (equivalently: in
/// standard-normal units). Measured maxima: 0.0020 at σ = 0.5 dB, 0.0022 at
/// 2 dB, 0.0029 at 6 dB, 0.0039 at [`MAX_SIGMA_DB`] — all in the last
/// interpolated cell below the upper tail, where the curvature of the
/// exponential adds to that of `Φ⁻¹`.
pub const FADING_TABLE_ERR_BOUND: f64 = 0.005;

/// Largest accepted `fading_sigma_db`. Twice any measured indoor shadowing
/// spread, and the domain over which the error bound is held: the curvature
/// of `10^(σz/10)` across a cell grows with σ².
pub const MAX_SIGMA_DB: f64 = 12.0;

/// A fading configuration [`FadingTable::new`] refuses, naming the field.
#[derive(Debug, Clone, PartialEq)]
pub struct FadingConfigError {
    /// The `PhyConfig` field at fault.
    pub(crate) field: &'static str,
    /// The refused value.
    pub(crate) value: f64,
    /// What the field must satisfy.
    pub(crate) must_be: &'static str,
}

impl std::fmt::Display for FadingConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} = {} must be {}",
            self.field, self.value, self.must_be
        )
    }
}

impl std::error::Error for FadingConfigError {}

/// The validated fading parameters of a world and the inverse-CDF table of
/// its lognormal multiplier (see the module docs).
#[derive(Debug, Clone)]
pub struct FadingTable {
    sigma_db: f64,
    boost_prob: f64,
    boost_ratio: f64,
    /// `CELLS + 1` ascending quantiles, edge `i` at probability `i/CELLS`;
    /// the two outermost (0 and ∞) are never read. Empty when σ = 0.
    edges: Vec<f64>,
}

impl FadingTable {
    /// Validate the three fading fields of a PHY configuration and tabulate
    /// the multiplier for `sigma_db`. A value that would poison every power
    /// sum downstream (NaN, infinite, negative σ) or trip the boost draw's
    /// `[0, 1]` assertion mid-run is refused here, naming its field.
    pub fn new(
        sigma_db: f64,
        boost_prob: f64,
        boost_db: f64,
    ) -> Result<FadingTable, FadingConfigError> {
        let refuse = |field, value, must_be| FadingConfigError {
            field,
            value,
            must_be,
        };
        if !(0.0..=MAX_SIGMA_DB).contains(&sigma_db) {
            return Err(refuse(
                "fading_sigma_db",
                sigma_db,
                "within 0..=12 dB (MAX_SIGMA_DB)",
            ));
        }
        if !(0.0..=1.0).contains(&boost_prob) {
            return Err(refuse(
                "fading_boost_prob",
                boost_prob,
                "a probability in 0..=1",
            ));
        }
        if !boost_db.is_finite() {
            return Err(refuse("fading_boost_db", boost_db, "finite"));
        }
        let mut table = FadingTable {
            sigma_db,
            boost_prob,
            boost_ratio: db_to_ratio(boost_db),
            edges: Vec::new(),
        };
        if sigma_db > 0.0 {
            table.edges = (0..=CELLS)
                .map(|i| table.quantile(i as f64 / CELLS as f64))
                .collect();
        }
        Ok(table)
    }

    /// Probability that an arrival is also scaled by [`Self::boost_ratio`].
    #[inline]
    pub fn boost_prob(&self) -> f64 {
        self.boost_prob
    }

    /// The upfade as a linear factor (`10^(fading_boost_db/10)`).
    #[inline]
    pub fn boost_ratio(&self) -> f64 {
        self.boost_ratio
    }

    /// Whether arrivals draw a multiplier at all: `false` at σ = 0, where
    /// the caller must not spend a word on [`Self::mult`].
    #[inline]
    pub fn draws(&self) -> bool {
        !self.edges.is_empty()
    }

    /// Edge `i` of the table (`0..=CELLS`): the multiplier's `i/CELLS`
    /// quantile. Panics at σ = 0, which has no table.
    pub fn edge(&self, i: usize) -> f64 {
        self.edges[i]
    }

    /// The closed form the table samples: the multiplier's `p`-quantile,
    /// `10^(σ·Φ⁻¹(p)/10)`.
    pub fn quantile(&self, p: f64) -> f64 {
        db_to_ratio(self.sigma_db * inv_norm_cdf(p))
    }

    /// The cell and the position inside it, in (0, 1), that the word `bits`
    /// selects: the top `CELL_BITS` bits, then the next 52 centred in
    /// their step so neither end of the cell — and so neither 0 nor 1 as a
    /// probability — is ever reached.
    #[inline]
    pub fn split(bits: u64) -> (usize, f64) {
        let cell = (bits >> (64 - CELL_BITS)) as usize;
        let frac = (((bits << CELL_BITS) >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64);
        (cell, frac)
    }

    /// The fading multiplier for one uniformly drawn 64-bit word. Finite
    /// and positive for every word. Requires [`Self::draws`].
    #[inline]
    pub fn mult(&self, bits: u64) -> f64 {
        let (cell, frac) = FadingTable::split(bits);
        if cell < TAIL_CELLS {
            return self.quantile((cell as f64 + frac) * (1.0 / CELLS as f64));
        }
        if cell >= CELLS - TAIL_CELLS {
            // Measured from the top, where the probability left above the
            // draw keeps the precision `1 - p` would round away.
            let above = ((CELLS - 1 - cell) as f64 + (1.0 - frac)) * (1.0 / CELLS as f64);
            return db_to_ratio(-self.sigma_db * inv_norm_cdf(above));
        }
        let lo = self.edges[cell];
        lo + (self.edges[cell + 1] - lo) * frac
    }
}

/// The standard normal quantile `Φ⁻¹(p)`: Wichura's algorithm AS 241
/// (`PPND16`), rational approximations in three ranges with relative error
/// near 1e-16. `-∞` at 0, `+∞` at 1, NaN outside `[0, 1]`.
///
/// For `p` near 1 the argument itself has lost the tail (`1 - 1e-20` is 1);
/// callers there pass the mass *above* the point and negate, as
/// [`FadingTable::mult`] does.
pub fn inv_norm_cdf(p: f64) -> f64 {
    /// Horner evaluation, highest coefficient first.
    fn poly(coef: &[f64], x: f64) -> f64 {
        coef.iter().fold(0.0, |acc, c| acc * x + c)
    }
    let q = p - 0.5;
    if q.abs() <= 0.425 {
        let r = 0.180625 - q * q;
        return q * poly(&CENTRAL_NUM, r) / poly(&CENTRAL_DEN, r);
    }
    let tail = if q < 0.0 { p } else { 1.0 - p };
    let r = (-tail.ln()).sqrt();
    let z = if r <= 5.0 {
        let r = r - 1.6;
        poly(&NEAR_TAIL_NUM, r) / poly(&NEAR_TAIL_DEN, r)
    } else if r.is_finite() {
        let r = r - 5.0;
        poly(&FAR_TAIL_NUM, r) / poly(&FAR_TAIL_DEN, r)
    } else {
        // No mass left beyond the point: ∞. NaN for a `p` outside [0, 1].
        r
    };
    if q < 0.0 {
        -z
    } else {
        z
    }
}

// AS 241's coefficient tables (Wichura 1988, double-precision variant),
// highest degree first.
const CENTRAL_NUM: [f64; 8] = [
    2_509.080_928_730_122_7,
    33_430.575_583_588_13,
    67_265.770_927_008_7,
    45_921.953_931_549_87,
    13_731.693_765_509_46,
    1_971.590_950_306_551_3,
    133.141_667_891_784_38,
    3.387_132_872_796_366_5,
];
const CENTRAL_DEN: [f64; 8] = [
    5_226.495_278_852_854,
    28_729.085_735_721_943,
    39_307.895_800_092_71,
    21_213.794_301_586_597,
    5_394.196_021_424_751,
    687.187_007_492_057_9,
    42.313_330_701_600_91,
    1.0,
];
const NEAR_TAIL_NUM: [f64; 8] = [
    0.000_774_545_014_278_341_4,
    0.022_723_844_989_269_184,
    0.241_780_725_177_450_6,
    1.270_458_252_452_368_4,
    3.647_848_324_763_204_5,
    5.769_497_221_460_691,
    4.630_337_846_156_546,
    1.423_437_110_749_683_5,
];
const NEAR_TAIL_DEN: [f64; 8] = [
    1.050_750_071_644_416_9e-9,
    0.000_547_593_808_499_534_5,
    0.015_198_666_563_616_457,
    0.148_103_976_427_480_08,
    0.689_767_334_985_1,
    1.676_384_830_183_803_8,
    2.053_191_626_637_759,
    1.0,
];
const FAR_TAIL_NUM: [f64; 8] = [
    2.010_334_399_292_288_1e-7,
    2.711_555_568_743_487_6e-5,
    0.001_242_660_947_388_078_4,
    0.026_532_189_526_576_124,
    0.296_560_571_828_504_87,
    1.784_826_539_917_291_3,
    5.463_784_911_164_114,
    6.657_904_643_501_103,
];
const FAR_TAIL_DEN: [f64; 8] = [
    2.044_263_103_389_939_7e-15,
    1.421_511_758_316_446e-7,
    1.846_318_317_510_054_8e-5,
    0.000_786_869_131_145_613_3,
    0.014_875_361_290_850_615,
    0.136_929_880_922_735_8,
    0.599_832_206_555_888,
    1.0,
];

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn quantile_function_hits_reference_values_and_is_odd() {
        // Φ⁻¹ at textbook probabilities, to the digits the tables print.
        for (p, z) in [
            (0.5, 0.0),
            (0.841_344_746_068_543, 1.0),
            (0.975, 1.959_963_984_540_054),
            (0.001, -3.090_232_306_167_813),
            (1e-10, -6.361_340_902_404_056),
            (1e-19, -9.013_271_153_126_675),
        ] {
            assert!((inv_norm_cdf(p) - z).abs() < 1e-12, "Φ⁻¹({p})");
        }
        for i in 1..512 {
            let p = f64::from(i) / 1024.0;
            assert_eq!(
                inv_norm_cdf(p),
                -inv_norm_cdf(1.0 - p),
                "odd about 1/2 at {p}"
            );
        }
        assert_eq!(inv_norm_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_norm_cdf(1.0), f64::INFINITY);
        assert!(inv_norm_cdf(-0.1).is_nan() && inv_norm_cdf(1.1).is_nan());
        assert!(inv_norm_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn each_bad_field_is_refused_by_name() {
        let field = |s, p, b| FadingTable::new(s, p, b).unwrap_err().field;
        for bad in [f64::NAN, -0.5, f64::INFINITY, MAX_SIGMA_DB + 0.5] {
            assert_eq!(field(bad, 0.08, 18.0), "fading_sigma_db", "{bad}");
        }
        for bad in [f64::NAN, -0.01, 1.01, f64::INFINITY] {
            assert_eq!(field(2.0, bad, 18.0), "fading_boost_prob", "{bad}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(field(2.0, 0.08, bad), "fading_boost_db", "{bad}");
        }
        // The first bad field in declaration order is the one named.
        assert_eq!(field(f64::NAN, 2.0, f64::NAN), "fading_sigma_db");
        let msg = FadingTable::new(2.0, 1.5, 18.0).unwrap_err().to_string();
        assert_eq!(
            msg,
            "fading_boost_prob = 1.5 must be a probability in 0..=1"
        );
    }

    #[test]
    fn the_accepted_range_includes_its_ends_and_a_negative_boost() {
        let t = FadingTable::new(MAX_SIGMA_DB, 1.0, -6.0).expect("ends are valid");
        assert!(t.draws());
        assert_eq!(t.boost_prob(), 1.0);
        assert!((t.boost_ratio() - 0.251_188_643_150_958).abs() < 1e-15);
        let flat = FadingTable::new(0.0, 0.0, 18.0).expect("σ = 0 is valid");
        assert!(!flat.draws(), "σ = 0 draws nothing");
    }

    #[test]
    fn a_word_splits_into_its_cell_and_a_strictly_interior_position() {
        assert_eq!(FadingTable::split(0), (0, 0.5 / (1u64 << 52) as f64));
        let (cell, frac) = FadingTable::split(u64::MAX);
        assert_eq!(cell, CELLS - 1);
        assert!(frac < 1.0 && 1.0 - frac == 0.5 / (1u64 << 52) as f64);
        assert_eq!(
            FadingTable::split(0x8000_0000_0000_0000),
            (CELLS / 2, 0.5 / (1u64 << 52) as f64)
        );
        assert_eq!(
            FadingTable::split(0x8020_0000_0000_0000).1,
            0.5 + 0.5 / (1u64 << 52) as f64
        );
    }

    #[test]
    fn draws_are_monotone_in_the_word_and_centred_on_one() {
        let t = FadingTable::new(2.0, 0.08, 18.0).expect("defaults are valid");
        assert_eq!(t.edge(CELLS / 2), 1.0, "the median multiplier is exactly 1");
        let mut last = 0.0;
        for i in 0..=(1u64 << 16) {
            let bits = if i == 1 << 16 { u64::MAX } else { i << 48 };
            let m = t.mult(bits);
            assert!(
                m.is_finite() && m > last,
                "word {bits:#x}: {m} after {last}"
            );
            last = m;
        }
    }
}
