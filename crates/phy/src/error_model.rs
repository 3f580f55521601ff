//! SINR → bit-error-rate → packet-error-rate chain for 802.11a OFDM.
//!
//! The model follows the approach of the widely used NIST error-rate model
//! (Pal, Miller et al.; also the default in ns-3): per-modulation uncoded
//! BER from the per-coded-bit SNR, then a union bound over the weight
//! spectrum of the IEEE K=7 convolutional code using the Bhattacharyya
//! parameter `D = sqrt(4p(1-p))`, and finally
//! `PER = 1 - (1 - BER_coded)^bits`.
//!
//! Absolute accuracy of a fraction of a dB is irrelevant for the CMAP
//! reproduction — what matters is the *relative* shape: each rate has a sharp
//! SINR threshold, higher rates need higher SINR (this drives Fig 20's
//! "fewer exposed-terminal opportunities at higher bit-rates"), and longer
//! frames are more fragile (this drives header/trailer salvage, Fig 5/16).

use crate::rate::{CodeRate, Modulation, Rate};

/// Receiver channel bandwidth in Hz (802.11a, 20 MHz).
pub(crate) const BANDWIDTH_HZ: f64 = 20e6;

/// Complementary error function.
///
/// Rational approximation from Abramowitz & Stegun 7.1.26 (max absolute
/// error 1.5e-7), extended to negative arguments via `erfc(-x) = 2 - erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Gaussian tail probability `Q(x) = P[N(0,1) > x]`.
#[inline]
pub(crate) fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Uncoded BER of a modulation at a given SNR **per coded bit** (linear).
///
/// Standard Gray-coded AWGN approximations:
/// * BPSK/QPSK: `Q(sqrt(2γ))`
/// * 16-QAM:    `(3/4)·Q(sqrt(4γ/5))`
/// * 64-QAM:    `(7/12)·Q(sqrt(2γ/7))`
pub(crate) fn modulation_ber(modulation: Modulation, gamma_bit: f64) -> f64 {
    if gamma_bit <= 0.0 {
        return 0.5;
    }
    let ber = match modulation {
        Modulation::Bpsk | Modulation::Qpsk => q_func((2.0 * gamma_bit).sqrt()),
        Modulation::Qam16 => 0.75 * q_func((0.8 * gamma_bit).sqrt()),
        Modulation::Qam64 => (7.0 / 12.0) * q_func((2.0 * gamma_bit / 7.0).sqrt()),
    };
    ber.min(0.5)
}

/// Union-bound weight spectrum of the K=7 convolutional code at one
/// puncturing, pre-arranged for Horner evaluation: every tabulated distance
/// is `first + i * step`, so the bound
/// `Σ coeffs[i] · D^(first + i·step)` factors into
/// `D^first · P(D^step)` with `P` an ordinary polynomial. This turns the
/// per-call loop of `powi(dist)` calls (the old shape, ~10 `powi` per BER
/// evaluation on the reception hot path) into exactly two `powi` plus a
/// fused multiply-add chain, with no per-call table construction.
struct CodeSpectrum {
    /// Free distance of the code (lowest tabulated distance).
    first: i32,
    /// Distance increment between consecutive coefficients.
    step: i32,
    /// Error-weight coefficients, lowest distance first.
    coeffs: &'static [f64],
    /// Union-bound normalisation (1 / puncturing-period input bits).
    scale: f64,
}

/// The standard tabulated spectra (Frenger et al.), also used by the NIST
/// model. Rate 1/2 has only even distances; the punctured rates step by 1.
fn code_spectrum(code: CodeRate) -> &'static CodeSpectrum {
    const HALF: CodeSpectrum = CodeSpectrum {
        first: 10,
        step: 2,
        coeffs: &[
            36.0,
            211.0,
            1404.0,
            11633.0,
            77433.0,
            502_690.0,
            3_322_763.0,
            21_292_910.0,
            134_365_911.0,
        ],
        scale: 0.5,
    };
    const TWO_THIRDS: CodeSpectrum = CodeSpectrum {
        first: 6,
        step: 1,
        coeffs: &[
            3.0,
            70.0,
            285.0,
            1276.0,
            6160.0,
            27128.0,
            117_019.0,
            498_860.0,
            2_103_891.0,
            8_784_123.0,
        ],
        scale: 1.0 / 4.0,
    };
    const THREE_QUARTERS: CodeSpectrum = CodeSpectrum {
        first: 5,
        step: 1,
        coeffs: &[
            42.0,
            201.0,
            1492.0,
            10469.0,
            62935.0,
            379_644.0,
            2_253_373.0,
            13_073_811.0,
            75_152_755.0,
            428_005_675.0,
        ],
        scale: 1.0 / 6.0,
    };
    match code {
        CodeRate::Half => &HALF,
        CodeRate::TwoThirds => &TWO_THIRDS,
        CodeRate::ThreeQuarters => &THREE_QUARTERS,
    }
}

/// Post-Viterbi BER given the raw channel BER `p` and the code rate, via the
/// Bhattacharyya union bound. Saturates at 0.5.
///
/// `D = sqrt(4p(1-p)) ∈ (0, 1]`, so the Horner accumulation below is
/// numerically benign (every partial result is bounded by the coefficient
/// sum) and needs no early-exit guard: the 0.5 clamp already absorbs the
/// saturated regime.
pub(crate) fn coded_ber(p: f64, code: CodeRate) -> f64 {
    coded_ber_union_bound(p, code).min(0.5)
}

/// The raw union-bound sum behind [`coded_ber`], *before* the 0.5
/// saturation (it can exceed 0.5 by orders of magnitude near `p = 0.5`).
///
/// Exposed so the BER interpolation tables (`cmap_phy::table`) can sample
/// the smooth unsaturated curve: interpolating across the saturation kink
/// would cost ~1e-2 absolute error at the corner, while interpolating the
/// smooth bound and saturating *after* reproduces the clamp exactly.
pub(crate) fn coded_ber_union_bound(p: f64, code: CodeRate) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    let p = p.min(0.5);
    let d = (4.0 * p * (1.0 - p)).sqrt();
    let sp = code_spectrum(code);
    let x = d.powi(sp.step);
    let mut acc = 0.0;
    for &c in sp.coeffs.iter().rev() {
        acc = acc * x + c;
    }
    sp.scale * acc * d.powi(sp.first)
}

/// Per-coded-bit SNR for a transmission at `rate` received with linear `sinr`.
///
/// Coded bits stream at `bit_rate / code_rate`; despreading the 20 MHz channel
/// onto that stream gives `γ_c = SINR · B / R_coded`.
#[inline]
pub(crate) fn gamma_per_coded_bit(sinr: f64, rate: Rate) -> f64 {
    let coded_bit_rate = rate.bits_per_sec() as f64 / rate.code_rate().ratio();
    sinr * BANDWIDTH_HZ / coded_bit_rate
}

/// Information-bit error rate after decoding, for a given linear SINR.
pub fn ber(sinr: f64, rate: Rate) -> f64 {
    ber_union_bound(sinr, rate).min(0.5)
}

/// [`ber`] before its final 0.5 saturation — the smooth curve the BER
/// interpolation tables sample (see [`coded_ber_union_bound`]).
pub(crate) fn ber_union_bound(sinr: f64, rate: Rate) -> f64 {
    let gamma = gamma_per_coded_bit(sinr, rate);
    let raw = modulation_ber(rate.modulation(), gamma);
    coded_ber_union_bound(raw, rate.code_rate())
}

/// Probability that `bits` information bits all decode correctly at the given
/// linear SINR (i.e. the complement of the PER for that span of bits).
///
/// Computed in log space so very small error rates don't underflow to 1.
pub(crate) fn bits_success_prob(sinr: f64, rate: Rate, bits: u64) -> f64 {
    if bits == 0 {
        return 1.0;
    }
    let b = ber(sinr, rate);
    if b >= 0.5 {
        // Channel is pure noise for this span; a frame of any real length dies.
        return 0.5f64.powf(bits.min(64) as f64);
    }
    ((bits as f64) * (-b).ln_1p()).exp()
}

/// Packet error rate of a PSDU of `psdu_bytes` at the given linear SINR,
/// counting SERVICE and tail bits like the real PLCP does.
pub fn per(sinr: f64, rate: Rate, psdu_bytes: usize) -> f64 {
    let bits = crate::rate::SERVICE_BITS + 8 * psdu_bytes as u64 + crate::rate::TAIL_BITS;
    1.0 - bits_success_prob(sinr, rate, bits)
}

/// Packet success probability; convenience complement of [`per`].
pub fn packet_success_prob(sinr: f64, rate: Rate, psdu_bytes: usize) -> f64 {
    1.0 - per(sinr, rate, psdu_bytes)
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;
    use crate::units::{db_to_ratio, ratio_to_db};

    /// Linear SINR required to achieve a target packet success probability
    /// for a given frame, found by bisection.
    fn sinr_for_success_prob(target: f64, rate: Rate, psdu_bytes: usize) -> f64 {
        assert!((0.0..1.0).contains(&target) && target > 0.0);
        let (mut lo, mut hi) = (1e-3f64, 1e6f64);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if packet_success_prob(mid, rate, psdu_bytes) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo * hi).sqrt()
    }

    #[test]
    fn erfc_reference_values() {
        // erfc(0) = 1, erfc(1) ~ 0.15730, erfc(2) ~ 0.004678
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!((erfc(2.0) - 0.004678).abs() < 1e-5);
        assert!((erfc(-1.0) - (2.0 - 0.157299)).abs() < 1e-5);
    }

    #[test]
    fn q_func_reference_values() {
        assert!((q_func(0.0) - 0.5).abs() < 1e-9);
        assert!((q_func(1.0) - 0.158655).abs() < 1e-4);
        assert!((q_func(3.0) - 0.001350).abs() < 1e-5);
    }

    #[test]
    fn ber_monotonic_in_sinr() {
        for rate in Rate::ALL {
            let mut last = f64::INFINITY;
            for db in -10..30 {
                let b = ber(db_to_ratio(f64::from(db)), rate);
                assert!(b <= last + 1e-15, "{rate} BER not monotone at {db} dB");
                last = b;
            }
        }
    }

    #[test]
    fn higher_rates_need_more_sinr() {
        // The SINR needed for 90% success of a 1400-byte frame must strictly
        // increase along the rate ladder (this is what shrinks the set of
        // exposed-terminal opportunities at higher bit-rates, Fig 20).
        let mut last = 0.0;
        for rate in Rate::ALL {
            let s = sinr_for_success_prob(0.9, rate, 1400);
            assert!(s > last, "{rate} threshold {s} not above previous {last}");
            last = s;
        }
    }

    #[test]
    fn rate_thresholds_are_plausible() {
        // 6 Mbit/s should decode a 1400-byte frame around a few dB of SINR;
        // 54 Mbit/s should need roughly 17-26 dB. Wide tolerances: this pins
        // the model to reality without over-fitting.
        let s6 = ratio_to_db(sinr_for_success_prob(0.9, Rate::R6, 1400));
        let s54 = ratio_to_db(sinr_for_success_prob(0.9, Rate::R54, 1400));
        assert!((0.0..6.0).contains(&s6), "R6 threshold {s6} dB");
        assert!((15.0..28.0).contains(&s54), "R54 threshold {s54} dB");
    }

    #[test]
    fn per_increases_with_length() {
        let sinr = db_to_ratio(2.0);
        let mut last = 0.0;
        for len in [24, 100, 500, 1400] {
            let p = per(sinr, Rate::R6, len);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn short_frames_survive_where_long_frames_die() {
        // Core premise of header/trailer salvage (Fig 5): pick the SINR where
        // a 1400-byte frame is mostly lost and check a 24-byte header still
        // mostly gets through.
        let sinr = sinr_for_success_prob(0.10, Rate::R6, 1400);
        let hdr = packet_success_prob(sinr, Rate::R6, 24);
        assert!(hdr > 0.85, "24-byte success only {hdr}");
    }

    #[test]
    fn zero_sinr_kills_everything() {
        assert!(per(0.0, Rate::R6, 100) > 0.999999);
        assert!(bits_success_prob(0.0, Rate::R6, 0) == 1.0);
    }

    #[test]
    fn high_sinr_is_clean() {
        let sinr = db_to_ratio(30.0);
        for rate in Rate::ALL {
            assert!(per(sinr, rate, 1400) < 1e-9, "{rate}");
        }
    }

    #[test]
    fn coded_ber_saturates_and_vanishes() {
        for code in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            assert_eq!(coded_ber(0.0, code), 0.0);
            assert!(coded_ber(0.5, code) <= 0.5);
            assert!(coded_ber(0.4, code) > coded_ber(1e-4, code));
        }
    }

    #[test]
    fn horner_matches_naive_union_bound() {
        // The factored Horner evaluation must agree with the textbook
        // per-distance powi sum it replaced.
        for code in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let sp = code_spectrum(code);
            for p in [1e-8f64, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5] {
                let d = (4.0 * p * (1.0 - p)).sqrt();
                let naive: f64 = sp
                    .coeffs
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| c * d.powi(sp.first + i as i32 * sp.step))
                    .sum();
                let naive = (sp.scale * naive).min(0.5);
                let got = coded_ber(p, code);
                assert!(
                    (got - naive).abs() <= 1e-12 * naive.max(1e-300),
                    "{code:?} p={p}: horner {got} vs naive {naive}"
                );
            }
        }
    }

    #[test]
    fn coding_helps_at_moderate_snr() {
        // At the same per-coded-bit SNR, rate 1/2 must beat rate 3/4.
        let p = 0.01;
        assert!(coded_ber(p, CodeRate::Half) < coded_ber(p, CodeRate::ThreeQuarters));
    }

    #[test]
    fn bisection_inverts_per() {
        for rate in [Rate::R6, Rate::R18, Rate::R54] {
            let s = sinr_for_success_prob(0.5, rate, 1400);
            let got = packet_success_prob(s, rate, 1400);
            assert!((got - 0.5).abs() < 0.01, "{rate}: {got}");
        }
    }
}
