//! 802.11a MAC timing constants.

use cmap_phy::Rate;
use cmap_sim::time::{micros, Time};

/// Slot time: 9 µs.
pub const SLOT_NS: Time = micros(9);

/// Short interframe space: 16 µs.
pub(crate) const SIFS_NS: Time = micros(16);

/// DCF interframe space: SIFS + 2 slots = 34 µs.
pub const DIFS_NS: Time = SIFS_NS + 2 * SLOT_NS;

/// Minimum contention window (slots) for 802.11a.
pub const CW_MIN: u32 = 15;

/// Maximum contention window (slots).
pub(crate) const CW_MAX: u32 = 1023;

/// Retransmission attempts before a frame is dropped.
pub(crate) const RETRY_LIMIT: u32 = 7;

/// Bit-rate for ACK control frames (the base rate, like real cards).
pub(crate) const ACK_RATE: Rate = Rate::BASE;

/// How long after a data frame's end to wait for the ACK before declaring
/// a timeout: SIFS + ACK airtime at the base rate (~44 µs) + PHY slack.
pub(crate) const ACK_TIMEOUT_NS: Time = SIFS_NS + micros(44) + micros(15);

// The window doubles as `(cw + 1) · 2 − 1` after a loss, capped at
// `CW_MAX`: it never shrinks below `CW_MIN`, and the doubling fits a `u32`.
const _: () = assert!(CW_MIN <= CW_MAX && CW_MAX < (1 << 31) - 1);

/// Extended interframe space: used instead of DIFS after a reception the
/// PHY could not decode, protecting a possible ACK exchange the station
/// missed. `EIFS = SIFS + ACK airtime at the base rate + DIFS` ≈ 94 µs.
pub(crate) const EIFS_NS: Time = SIFS_NS + micros(44) + DIFS_NS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(DIFS_NS, 34_000);
        assert_eq!(SIFS_NS, 16_000);
        assert_eq!(SLOT_NS, 9_000);
    }

    #[test]
    #[allow(clippy::assertions_on_constants, reason = "documents the invariant")]
    fn eifs_exceeds_difs() {
        assert!(EIFS_NS > DIFS_NS);
        assert_eq!(EIFS_NS, 16_000 + 44_000 + 34_000);
    }

    #[test]
    fn cw_bounds_are_powers_of_two_minus_one() {
        assert_eq!((CW_MIN + 1).count_ones(), 1);
        assert_eq!((CW_MAX + 1).count_ones(), 1);
        const { assert!(CW_MIN < CW_MAX) };
    }

    #[test]
    fn ack_timeout_covers_sifs_plus_ack() {
        // ACK frame: 14 bytes at 6 Mbit/s = 20 us PLCP + 6 symbols = 44 us.
        let ack_air = ACK_RATE.frame_airtime_ns(cmap_wire::dot11::ACK_LEN);
        assert!(ACK_TIMEOUT_NS >= SIFS_NS + ack_air);
    }
}
