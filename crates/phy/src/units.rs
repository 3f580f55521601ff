//! Power unit conversions and radio constants.
//!
//! All medium-level arithmetic in the simulator is done in **linear
//! milliwatts** (sums of interferer powers are linear); human-facing
//! configuration is in **dBm**. These helpers convert between the two and
//! define the thermal-noise floor of a 20 MHz 802.11a receiver.

/// Thermal noise floor of a 20 MHz 802.11a channel in dBm.
///
/// kTB at 290 K is -174 dBm/Hz; a 20 MHz channel adds
/// `10·log10(20e6) ≈ 73 dB`, and we budget a 7 dB receiver noise figure
/// (typical for the Atheros AR5212 used in the paper's testbed):
/// `-174 + 73 + 7 = -94 dBm`.
pub const NOISE_FLOOR_DBM: f64 = -94.0;

/// Speed of light in metres per second, used for propagation delay.
pub(crate) const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// Convert a power in dBm to linear milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Convert a power in linear milliwatts to dBm.
///
/// Zero or negative inputs (an "off" signal) map to `f64::NEG_INFINITY`
/// rather than NaN so comparisons against thresholds behave sensibly.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    if mw <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * mw.log10()
    }
}

/// Convert a dimensionless gain/loss in dB to a linear ratio.
#[inline]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear ratio to dB (`NEG_INFINITY` for non-positive ratios).
#[inline]
pub fn ratio_to_db(ratio: f64) -> f64 {
    if ratio <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * ratio.log10()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn dbm_mw_roundtrip() {
        for dbm in [-120.0, -94.0, -60.0, 0.0, 20.0] {
            let back = mw_to_dbm(dbm_to_mw(dbm));
            assert!((back - dbm).abs() < 1e-9, "{dbm} -> {back}");
        }
    }

    #[test]
    fn zero_mw_is_negative_infinity_dbm() {
        assert_eq!(mw_to_dbm(0.0), f64::NEG_INFINITY);
        assert_eq!(mw_to_dbm(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn reference_points() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-9);
        assert!((dbm_to_mw(-30.0) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn db_ratio_roundtrip() {
        for db in [-40.0, -3.0, 0.0, 3.0, 40.0] {
            assert!((ratio_to_db(db_to_ratio(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_sum_dominates_correctly() {
        // Two equal interferers add 3 dB.
        let one = dbm_to_mw(-80.0);
        let sum_dbm = mw_to_dbm(one + one);
        assert!((sum_dbm - (-77.0)).abs() < 0.02);
    }
}
