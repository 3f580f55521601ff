//! PLCP preamble and SIGNAL-field reception.
//!
//! A receiver can only lock onto a frame whose PLCP preamble it detects and
//! whose SIGNAL field it decodes; otherwise the frame is just interference
//! energy. 802.11a sends a 16 µs preamble followed by one 4 µs SIGNAL symbol
//! at BPSK rate-1/2 regardless of the payload rate. CMAP's note 1 observes
//! that commodity chipsets use *preamble detection* for carrier sense — this
//! module is therefore also the basis of the DCF carrier-sense model in
//! `cmap-mac80211`.

use crate::error_model::{coded_ber, modulation_ber};
use crate::rate::{CodeRate, Modulation};

/// Duration of the PLCP preamble (short+long training sequences): 16 µs.
pub const PLCP_PREAMBLE_NS: u64 = 16_000;

/// Duration of the SIGNAL field: one OFDM symbol, 4 µs.
pub const PLCP_SIG_NS: u64 = 4_000;

/// SIGNAL field payload: RATE(4) + reserved(1) + LENGTH(12) + parity(1) +
/// tail(6) = 24 bits, BPSK rate-1/2.
pub const SIG_BITS: u64 = 24;

/// Per-coded-bit SNR of the SIGNAL field given the linear SINR over the
/// 20 MHz channel. The SIGNAL symbol carries 48 coded bits in 4 µs, i.e. a
/// 12 Mbit/s coded stream.
#[inline]
fn sig_gamma(sinr: f64) -> f64 {
    sinr * crate::error_model::BANDWIDTH_HZ / 12e6
}

/// Probability that a receiver detects the preamble and decodes the SIGNAL
/// field at the given linear SINR, thereby locking onto the frame.
///
/// Model: the synchronisation itself is assumed to succeed whenever the
/// SIGNAL field would decode (training sequences are at least as robust as
/// BPSK-1/2 data), so the gate is the 24 SIGNAL bits surviving Viterbi
/// decoding at the preamble-time SINR.
pub fn preamble_success_prob(sinr: f64) -> f64 {
    if sinr <= 0.0 {
        return 0.0;
    }
    let raw = modulation_ber(Modulation::Bpsk, sig_gamma(sinr));
    let ber = coded_ber(raw, CodeRate::Half);
    if ber >= 0.5 {
        return 0.0;
    }
    ((SIG_BITS as f64) * (-ber).ln_1p()).exp()
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;
    use crate::units::db_to_ratio;

    #[test]
    fn preamble_detection_is_monotone() {
        let mut last = 0.0;
        for db in -10..20 {
            let p = preamble_success_prob(db_to_ratio(f64::from(db)));
            assert!(p >= last - 1e-12);
            last = p;
        }
    }

    #[test]
    fn preamble_robust_at_low_snr() {
        // The SIGNAL field must decode a couple of dB below the 6 Mbit/s
        // payload threshold: headers are salvaged where payloads die.
        assert!(preamble_success_prob(db_to_ratio(3.0)) > 0.99);
        assert!(preamble_success_prob(db_to_ratio(-5.0)) < 0.2);
        assert_eq!(preamble_success_prob(0.0), 0.0);
    }

    #[test]
    fn timing_constants() {
        assert_eq!(PLCP_PREAMBLE_NS + PLCP_SIG_NS, 20_000);
    }
}
