//! Deterministic randomness.
//!
//! Every run derives all of its randomness from a single `u64` master seed:
//! one [`SmallRng`] per node plus one for the world itself, split with a
//! SplitMix64 expansion so that adding a node never perturbs the streams of
//! existing nodes. Identical seed + identical configuration ⇒ bit-identical
//! runs, which the determinism integration test pins down.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step — the standard seed-expansion permutation.
pub fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
}

/// Finalise a SplitMix64 state into an output value.
pub(crate) fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent sub-seed from a master seed and a stream index.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut s = master;
    for _ in 0..=stream % 4 {
        splitmix64(&mut s);
    }
    splitmix64_mix(s ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// A [`SmallRng`] for the given stream of a master seed.
pub fn stream_rng(master: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(master, stream))
}

/// Draw from a standard normal via Box–Muller (avoids a `rand_distr`
/// dependency; called at most once per frame arrival).
pub fn normal(rng: &mut SmallRng, mean: f64, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return mean;
    }
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sigma * z
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_across_streams() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        let mut r1 = stream_rng(7, 3);
        let mut r2 = stream_rng(7, 3);
        for _ in 0..10 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    /// The identity the draw-first gates rest on: `gen_bool(p)` consumes
    /// one `f64` draw and is `draw < p`, so taking the draw first and
    /// comparing later leaves outcome and stream position unchanged.
    #[test]
    fn gen_bool_is_one_f64_draw_compared_with_p() {
        let (mut a, mut b) = (stream_rng(19, 1), stream_rng(19, 1));
        for i in 0..10_000u32 {
            let p = [0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9, f64::from(i) / 1e4][i as usize % 6];
            assert_eq!(a.gen_bool(p), b.gen::<f64>() < p, "draw {i}, p {p}");
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams in step");
    }

    #[test]
    fn normal_moments_roughly_right() {
        let mut rng = stream_rng(1, 0);
        let n = 20_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = normal(&mut rng, 2.0, 3.0);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / f64::from(n);
        let var = sumsq / f64::from(n) - mean * mean;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn zero_sigma_is_exact() {
        let mut rng = stream_rng(1, 0);
        assert_eq!(normal(&mut rng, 5.0, 0.0), 5.0);
    }
}
