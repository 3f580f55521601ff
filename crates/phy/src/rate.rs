//! 802.11a OFDM bit-rates, modulations and airtime computation.
//!
//! 802.11a transmits OFDM symbols of 4 µs carrying `n_dbps` data bits each,
//! preceded by a 16 µs PLCP preamble and a 4 µs SIGNAL field (always BPSK
//! rate-1/2). The PSDU is wrapped with a 16-bit SERVICE field and 6 tail
//! bits before being split into symbols (IEEE 802.11-2007 §17.3.2).

/// Subcarrier modulation of an 802.11a rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Modulation {
    /// Binary phase-shift keying, 1 coded bit per subcarrier.
    Bpsk,
    /// Quadrature phase-shift keying, 2 coded bits per subcarrier.
    Qpsk,
    /// 16-point quadrature amplitude modulation, 4 coded bits per subcarrier.
    Qam16,
    /// 64-point quadrature amplitude modulation, 6 coded bits per subcarrier.
    Qam64,
}

/// Convolutional code rate of an 802.11a rate (IEEE K=7 code, punctured).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CodeRate {
    /// Rate 1/2 (mother code).
    Half,
    /// Rate 2/3 (punctured).
    TwoThirds,
    /// Rate 3/4 (punctured).
    ThreeQuarters,
}

impl CodeRate {
    /// The fraction of coded bits that carry data.
    pub(crate) fn ratio(self) -> f64 {
        match self {
            CodeRate::Half => 0.5,
            CodeRate::TwoThirds => 2.0 / 3.0,
            CodeRate::ThreeQuarters => 0.75,
        }
    }
}

/// One of the eight 802.11a OFDM bit-rates.
///
/// The paper's experiments use [`Rate::R6`], [`Rate::R12`] and [`Rate::R18`]
/// (§5.8); the full set is modelled so the library generalises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rate {
    /// 6 Mbit/s — BPSK, rate 1/2.
    R6,
    /// 9 Mbit/s — BPSK, rate 3/4.
    R9,
    /// 12 Mbit/s — QPSK, rate 1/2.
    R12,
    /// 18 Mbit/s — QPSK, rate 3/4.
    R18,
    /// 24 Mbit/s — 16-QAM, rate 1/2.
    R24,
    /// 36 Mbit/s — 16-QAM, rate 3/4.
    R36,
    /// 48 Mbit/s — 64-QAM, rate 2/3.
    R48,
    /// 54 Mbit/s — 64-QAM, rate 3/4.
    R54,
}

/// Duration of one OFDM symbol in nanoseconds.
pub(crate) const OFDM_SYMBOL_NS: u64 = 4_000;

/// SERVICE field bits prepended to the PSDU before encoding.
pub const SERVICE_BITS: u64 = 16;

/// Convolutional-encoder tail bits appended after the PSDU.
pub const TAIL_BITS: u64 = 6;

impl Rate {
    /// All rates, slowest first.
    pub const ALL: [Rate; 8] = [
        Rate::R6,
        Rate::R9,
        Rate::R12,
        Rate::R18,
        Rate::R24,
        Rate::R36,
        Rate::R48,
        Rate::R54,
    ];

    /// The lowest (most robust) rate; control frames and CMAP header/trailer,
    /// interferer-list and ACK packets are always sent at this rate (§5.8).
    pub const BASE: Rate = Rate::R6;

    /// Net data rate in bits per second.
    pub fn bits_per_sec(self) -> u64 {
        match self {
            Rate::R6 => 6_000_000,
            Rate::R9 => 9_000_000,
            Rate::R12 => 12_000_000,
            Rate::R18 => 18_000_000,
            Rate::R24 => 24_000_000,
            Rate::R36 => 36_000_000,
            Rate::R48 => 48_000_000,
            Rate::R54 => 54_000_000,
        }
    }

    /// Subcarrier modulation.
    pub(crate) fn modulation(self) -> Modulation {
        match self {
            Rate::R6 | Rate::R9 => Modulation::Bpsk,
            Rate::R12 | Rate::R18 => Modulation::Qpsk,
            Rate::R24 | Rate::R36 => Modulation::Qam16,
            Rate::R48 | Rate::R54 => Modulation::Qam64,
        }
    }

    /// Convolutional code rate.
    pub(crate) fn code_rate(self) -> CodeRate {
        match self {
            Rate::R6 | Rate::R12 | Rate::R24 => CodeRate::Half,
            Rate::R48 => CodeRate::TwoThirds,
            Rate::R9 | Rate::R18 | Rate::R36 | Rate::R54 => CodeRate::ThreeQuarters,
        }
    }

    /// Data bits per OFDM symbol (`N_DBPS`).
    pub fn n_dbps(self) -> u64 {
        match self {
            Rate::R6 => 24,
            Rate::R9 => 36,
            Rate::R12 => 48,
            Rate::R18 => 72,
            Rate::R24 => 96,
            Rate::R36 => 144,
            Rate::R48 => 192,
            Rate::R54 => 216,
        }
    }

    /// Airtime of the PSDU portion only (SERVICE + payload + tail, padded to
    /// whole OFDM symbols), in nanoseconds. Excludes preamble and SIGNAL.
    pub(crate) fn psdu_airtime_ns(self, psdu_bytes: usize) -> u64 {
        let bits = SERVICE_BITS + 8 * psdu_bytes as u64 + TAIL_BITS;
        let symbols = bits.div_ceil(self.n_dbps());
        symbols * OFDM_SYMBOL_NS
    }

    /// Total airtime of a frame carrying `psdu_bytes` of MAC-layer bytes at
    /// this rate, including the 16 µs PLCP preamble and 4 µs SIGNAL field.
    pub fn frame_airtime_ns(self, psdu_bytes: usize) -> u64 {
        crate::preamble::PLCP_PREAMBLE_NS
            + crate::preamble::PLCP_SIG_NS
            + self.psdu_airtime_ns(psdu_bytes)
    }

    /// Compact wire encoding (3 bits used); see `cmap-wire`.
    pub fn to_u8(self) -> u8 {
        Rate::ALL
            .iter()
            .position(|&r| r == self)
            .expect("Rate::ALL lists every variant") as u8
    }

    /// Inverse of [`Rate::to_u8`]; `None` for out-of-range values.
    pub fn from_u8(v: u8) -> Option<Rate> {
        Rate::ALL.get(v as usize).copied()
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} Mbit/s", self.bits_per_sec() / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbps_consistent_with_rate() {
        // n_dbps * symbols/sec (250k) == bit rate
        for r in Rate::ALL {
            assert_eq!(r.n_dbps() * 250_000, r.bits_per_sec());
        }
    }

    #[test]
    fn airtime_1400_bytes_at_6mbps() {
        // 16 + 11200 + 6 = 11222 bits / 24 = 467.58 -> 468 symbols = 1872 us.
        assert_eq!(Rate::R6.psdu_airtime_ns(1400), 468 * 4_000);
        // plus 20 us PLCP
        assert_eq!(Rate::R6.frame_airtime_ns(1400), 1_872_000 + 20_000);
    }

    #[test]
    fn airtime_monotonic_in_length() {
        for r in Rate::ALL {
            let mut last = 0;
            for len in [0, 1, 24, 100, 512, 1400, 2304] {
                let t = r.frame_airtime_ns(len);
                assert!(t >= last);
                last = t;
            }
        }
    }

    #[test]
    fn airtime_decreases_with_rate() {
        let mut last = u64::MAX;
        for r in Rate::ALL {
            let t = r.frame_airtime_ns(1400);
            assert!(t < last, "{r} not faster than previous");
            last = t;
        }
    }

    #[test]
    fn empty_psdu_still_costs_one_symbol() {
        // SERVICE+tail = 22 bits, always at least 1 symbol.
        assert_eq!(Rate::R6.psdu_airtime_ns(0), 4_000);
        assert_eq!(Rate::R54.psdu_airtime_ns(0), 4_000);
    }

    #[test]
    fn u8_roundtrip() {
        for r in Rate::ALL {
            assert_eq!(Rate::from_u8(r.to_u8()), Some(r));
        }
        assert_eq!(Rate::from_u8(8), None);
    }

    #[test]
    fn code_rate_ratios() {
        assert!((CodeRate::Half.ratio() - 0.5).abs() < 1e-12);
        assert!((CodeRate::TwoThirds.ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((CodeRate::ThreeQuarters.ratio() - 0.75).abs() < 1e-12);
    }
}
