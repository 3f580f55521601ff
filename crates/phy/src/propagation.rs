//! Large-scale propagation: log-distance path loss for the 5 GHz indoor band.
//!
//! The paper's testbed is one large office floor (Fig 10) in the 5 GHz
//! 802.11a band. We model the *median* path loss here; per-link lognormal
//! shadowing (which produces the testbed's highly irregular link-quality
//! population, §5.1) is added by `cmap-topo` so it can be frozen per link
//! and made slightly asymmetric.

/// Carrier frequency of 802.11a channel 48, in Hz.
pub(crate) const CARRIER_HZ: f64 = 5.24e9;

/// Reference distance for the log-distance model, metres.
pub const REF_DISTANCE_M: f64 = 1.0;

/// Free-space path loss at [`REF_DISTANCE_M`] for `CARRIER_HZ`, in dB:
/// `20·log10(4π·d0·f/c)`.
pub fn reference_loss_db() -> f64 {
    let c = crate::units::SPEED_OF_LIGHT_M_PER_S;
    20.0 * (4.0 * std::f64::consts::PI * REF_DISTANCE_M * CARRIER_HZ / c).log10()
}

/// Median path loss in dB over `distance_m` metres with the given exponent.
///
/// Distances below the reference distance clamp to the reference loss (the
/// model is not meant for near-field geometry).
pub fn path_loss_db(distance_m: f64, exponent: f64) -> f64 {
    let d = distance_m.max(REF_DISTANCE_M);
    reference_loss_db() + 10.0 * exponent * (d / REF_DISTANCE_M).log10()
}

/// Received signal strength in dBm for a transmit power and distance.
pub fn rss_dbm(tx_power_dbm: f64, distance_m: f64, exponent: f64) -> f64 {
    tx_power_dbm - path_loss_db(distance_m, exponent)
}

/// One-way propagation delay over `distance_m`, in nanoseconds (rounded up so
/// that a nonzero distance never yields a zero delay).
pub fn propagation_delay_ns(distance_m: f64) -> u64 {
    let secs = distance_m / crate::units::SPEED_OF_LIGHT_M_PER_S;
    (secs * 1e9).ceil() as u64
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    /// A path-loss exponent for a cluttered office floor.
    const OFFICE_EXPONENT: f64 = 3.3;

    #[test]
    fn reference_loss_is_about_47_db() {
        let l = reference_loss_db();
        assert!((46.0..48.0).contains(&l), "{l}");
    }

    #[test]
    fn path_loss_monotone_in_distance() {
        let mut last = 0.0;
        for d in [1.0, 2.0, 5.0, 10.0, 30.0, 60.0] {
            let l = path_loss_db(d, OFFICE_EXPONENT);
            assert!(l > last);
            last = l;
        }
    }

    #[test]
    fn exponent_slope() {
        // Doubling distance with exponent n adds 10·n·log10(2) ≈ 3.01·n dB.
        let a = path_loss_db(10.0, 3.0);
        let b = path_loss_db(20.0, 3.0);
        assert!((b - a - 9.03).abs() < 0.01);
    }

    #[test]
    fn near_field_clamps() {
        assert_eq!(
            path_loss_db(0.1, OFFICE_EXPONENT),
            path_loss_db(1.0, OFFICE_EXPONENT)
        );
    }

    #[test]
    fn typical_office_link_budget() {
        // At 15 dBm tx power and 20 m, the RSS should land in the usable
        // range for 6 Mbit/s (noise floor -94 dBm, threshold a few dB above).
        let rss = rss_dbm(15.0, 20.0, OFFICE_EXPONENT);
        assert!((-94.0..-60.0).contains(&rss), "{rss}");
    }

    #[test]
    fn delay_rounds_up() {
        assert!(propagation_delay_ns(1.0) >= 3);
        assert_eq!(propagation_delay_ns(0.0), 0);
        // 30 m is about 100 ns.
        let d = propagation_delay_ns(30.0);
        assert!((100..=101).contains(&d), "{d}");
    }
}
