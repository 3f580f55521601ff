//! Simulation time.
//!
//! Time is a `u64` count of **nanoseconds** since the start of the run —
//! fine enough to resolve propagation delays (a metre is ~3.3 ns) and wide
//! enough for ~584 years of simulation. Durations use the same unit.

/// Absolute simulation time or a duration, in nanoseconds.
pub type Time = u64;

/// `n` microseconds as a [`Time`] duration.
#[inline]
pub const fn micros(n: u64) -> Time {
    n * 1_000
}

/// `n` milliseconds as a [`Time`] duration.
#[inline]
pub const fn millis(n: u64) -> Time {
    n * 1_000_000
}

/// `n` seconds as a [`Time`] duration.
#[inline]
pub const fn secs(n: u64) -> Time {
    n * 1_000_000_000
}

/// Render a time as fractional seconds for reports.
pub fn as_secs_f64(t: Time) -> f64 {
    t as f64 / 1e9
}

/// A duration in whole microseconds, rounded up — the quantisation used by
/// the `tx_time_us` field of CMAP headers/trailers. Saturates at
/// `u32::MAX` µs (~71 minutes, far beyond any legal airtime).
#[inline]
pub const fn ns_to_us_ceil(ns: Time) -> u32 {
    let us = ns.div_ceil(1_000);
    if us > u32::MAX as u64 {
        u32::MAX
    } else {
        us as u32
    }
}

/// Narrow a nanosecond duration into a `u32` wire field (saturating at
/// ~4.29 s — far beyond any frame's NAV reservation).
#[inline]
pub const fn ns_to_u32_saturating(ns: Time) -> u32 {
    if ns > u32::MAX as u64 {
        u32::MAX
    } else {
        ns as u32
    }
}

/// Number of whole `slot`-length periods contained in `span` (saturating):
/// how many backoff slots elapsed, for slotted-MAC countdowns.
#[inline]
pub const fn whole_slots(span: Time, slot: Time) -> u32 {
    let n = span / slot;
    if n > u32::MAX as u64 {
        u32::MAX
    } else {
        n as u32
    }
}

/// `frac` of a duration, truncated to whole nanoseconds. `frac` must be in
/// `[0, 1]` — this scales *within* a duration (e.g. a warm-up cut-off), it
/// does not extend one.
#[inline]
pub fn scale(t: Time, frac: f64) -> Time {
    debug_assert!(
        (0.0..=1.0).contains(&frac),
        "scale fraction {frac} out of [0,1]"
    );
    (t as f64 * frac) as Time
}

/// Airtime of `bits` at `bits_per_sec`, rounded up to whole nanoseconds.
pub fn bits_duration(bits: u64, bits_per_sec: u64) -> Time {
    // bits / bps seconds = bits * 1e9 / bps ns; u128 avoids overflow.
    ((u128::from(bits) * 1_000_000_000).div_ceil(u128::from(bits_per_sec))) as u64
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn unit_helpers() {
        assert_eq!(micros(5), 5_000);
        assert_eq!(millis(5), 5_000_000);
        assert_eq!(secs(5), 5_000_000_000);
        assert_eq!(as_secs_f64(secs(2)), 2.0);
    }

    #[test]
    fn bits_duration_exact_and_rounded() {
        // 6 Mbit/s: one bit is 166.66 ns -> rounds up to 167.
        assert_eq!(bits_duration(1, 6_000_000), 167);
        // A window of 8*32*1400*8 bits at 6 Mbit/s is about 478 ms; this is
        // the paper's tau_max formula (§3.3).
        let bits = 8 * 32 * 1400 * 8;
        let d = bits_duration(bits, 6_000_000);
        assert!((d as i64 - 477_866_667).abs() < 2, "{d}");
    }
}
