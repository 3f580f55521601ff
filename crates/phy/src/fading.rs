//! The validated per-frame fading parameters of a world.
//!
//! Every frame arrival scales its frozen link gain by a lognormal
//! multiplier (`N(0, σ²)` in dB) and, with probability `boost_prob`, by a
//! fixed upfade on top. [`FadingTable::new`] checks the three configuration
//! values behind that once, at world construction: a bad one used to surface
//! as a `gen_bool` assertion at the first arrival some node heard, or not at
//! all — a NaN power makes every carrier-sense comparison read false.

use crate::units::db_to_ratio;

/// Largest accepted `fading_sigma_db`: twice any measured indoor shadowing
/// spread.
pub const MAX_SIGMA_DB: f64 = 12.0;

/// A fading configuration [`FadingTable::new`] refuses, naming the field.
#[derive(Debug, Clone, PartialEq)]
pub struct FadingConfigError {
    /// The `PhyConfig` field at fault.
    pub field: &'static str,
    /// The refused value.
    pub value: f64,
    /// What the field must satisfy.
    pub must_be: &'static str,
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

/// The validated fading parameters of a world.
#[derive(Debug, Clone)]
pub struct FadingTable {
    sigma_db: f64,
    boost_prob: f64,
    boost_ratio: f64,
}

impl FadingTable {
    /// Validate the three fading fields of a PHY configuration. A value
    /// that would poison every power sum downstream (NaN, infinite,
    /// negative σ) or trip the boost draw's `[0, 1]` assertion mid-run is
    /// refused here, naming its field.
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
        Ok(FadingTable {
            sigma_db,
            boost_prob,
            boost_ratio: db_to_ratio(boost_db),
        })
    }

    /// Standard deviation of the multiplier in dB.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// Probability that an arrival is also scaled by [`Self::boost_ratio`].
    pub fn boost_prob(&self) -> f64 {
        self.boost_prob
    }

    /// The upfade as a linear factor (`10^(fading_boost_db/10)`).
    pub fn boost_ratio(&self) -> f64 {
        self.boost_ratio
    }
}

#[cfg(test)]
// Exact values are the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

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
        assert_eq!((t.sigma_db(), t.boost_prob()), (MAX_SIGMA_DB, 1.0));
        assert!((t.boost_ratio() - 0.251_188_643_150_958).abs() < 1e-15);
        FadingTable::new(0.0, 0.0, 18.0).expect("σ = 0 is valid");
    }
}
