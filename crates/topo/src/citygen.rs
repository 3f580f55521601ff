//! City-scale deployment generators: parametric node layouts far beyond
//! the 50-node office floor.
//!
//! [`Testbed`](crate::Testbed) freezes an O(N²) gain matrix at generation
//! time, which stops being a sane representation somewhere around a few
//! thousand nodes (a 10k-node matrix is 800 MB of `f64`). City-scale
//! deployments therefore hand out *positions plus a channel model
//! function* instead: the sparse medium evaluates the model only for
//! pairs inside its interference range, and everything outside folds into
//! the accumulated-error bound.
//!
//! Determinism contract: every gain drawn by [`ChannelModel`] is a pure
//! function of `(salt, min(a, b), max(a, b), distance)` — no generator
//! RNG state leaks into the channel, so gains are stable under node
//! reordering of the evaluation and identical whichever engine asks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cmap_phy::propagation;

use crate::testbed::gaussian;

/// Distance-plus-shadowing channel for generated deployments.
///
/// The median loss is log-distance path loss with a fixed offset; on top
/// of that each unordered pair gets a frozen lognormal shadowing draw
/// derived by hashing `(salt, min, max)` — symmetric by construction and
/// reproducible without storing per-link state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelModel {
    /// Path-loss exponent (urban outdoor runs 2.7–4).
    pub path_loss_exponent: f64,
    /// Fixed extra loss in dB on every link (antennas, enclosures).
    pub fixed_loss_db: f64,
    /// Standard deviation of the symmetric lognormal shadowing, dB.
    pub shadow_sigma_db: f64,
    /// Hash salt; two models with different salts draw independent
    /// shadowing fields over the same positions.
    pub salt: u64,
}

impl Default for ChannelModel {
    fn default() -> ChannelModel {
        ChannelModel {
            path_loss_exponent: 3.0,
            fixed_loss_db: 5.0,
            shadow_sigma_db: 4.0,
            salt: 0,
        }
    }
}

/// splitmix64 step — the standard finalizer used for hash-derived draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map a u64 to the open unit interval (never exactly 0 or 1, so it is
/// safe under `ln`).
fn unit_open(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0) + f64::MIN_POSITIVE
}

impl ChannelModel {
    /// Directed link gain in dB for nodes `a -> b` at `distance_m`.
    ///
    /// Symmetric in `(a, b)`: the shadowing hash keys on the unordered
    /// pair. Self-links are silent (`-inf`).
    pub fn link_gain_db(&self, a: usize, b: usize, distance_m: f64) -> f64 {
        if a == b {
            return f64::NEG_INFINITY;
        }
        let median =
            propagation::path_loss_db(distance_m, self.path_loss_exponent) + self.fixed_loss_db;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let h1 =
            splitmix64(self.salt ^ (lo as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi as u64);
        let h2 = splitmix64(h1);
        // Box–Muller over two hash-derived uniforms: a frozen standard
        // normal per unordered pair.
        let u1 = unit_open(h1);
        let u2 = unit_open(h2);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        -(median + z * self.shadow_sigma_db)
    }

    /// Distance at which the *median* gain falls to `min_gain_db` — the
    /// natural evaluation radius for a sparse medium over this model.
    /// Shadowing can push individual links past the median, so callers
    /// should add margin (3 sigma covers 99.9% of draws).
    pub fn range_for_gain_db(&self, min_gain_db: f64) -> f64 {
        // Invert median: -min_gain = ref_loss + 10·n·log10(d) + fixed.
        let budget = -min_gain_db - propagation::reference_loss_db() - self.fixed_loss_db;
        if budget <= 0.0 {
            return propagation::REF_DISTANCE_M;
        }
        propagation::REF_DISTANCE_M * 10f64.powf(budget / (10.0 * self.path_loss_exponent))
    }

    /// Evaluation radius covering every link whose gain reaches
    /// `min_gain_db` with a shadowing boost of up to `3 sigma`: the
    /// distance where the median is `3 sigma` *below* the target. A
    /// shadowing draw past `3 sigma` (one draw in 740) can still lift a
    /// pair beyond it above the target; see
    /// [`tail_gain_db`](Self::tail_gain_db).
    pub fn eval_range_m(&self, min_gain_db: f64) -> f64 {
        self.range_for_gain_db(min_gain_db - 3.0 * self.shadow_sigma_db)
    }

    /// The gain to charge each pair beyond
    /// [`eval_range_m`](Self::eval_range_m): `min_gain_db` itself. It is
    /// *not* a per-pair upper bound — the Box–Muller draw is unbounded, so
    /// a few excluded pairs beat it (126 of the 8.6 M out-of-range pairs
    /// of the benchmark's 3,000-node city, by up to 4.4 dB). What the
    /// sparse medium's error bound rests on is the per-*receiver* sum: a
    /// receiver's out-of-range pairs, each charged this gain, are charged
    /// far more than they carry (at most 0.9 % of the charge in that
    /// city), so feeding this as `tail_gain_db` keeps the error bound an
    /// upper bound.
    pub fn tail_gain_db(&self, min_gain_db: f64) -> f64 {
        min_gain_db
    }
}

/// A generated city-scale deployment: positions plus the channel model
/// that prices its links on demand.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Node positions in metres.
    pub positions: Vec<(f64, f64)>,
    /// The channel model all link gains derive from.
    pub channel: ChannelModel,
    /// The seed the layout was generated from.
    pub seed: u64,
}

impl Deployment {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the deployment has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The channel model as a pair-indexed gain function over these
    /// positions, in the shape sparse-medium construction consumes. It is
    /// reciprocal — `f(a, b, d)` and `f(b, a, d)` are the same bits, the
    /// shadowing being keyed on the unordered pair — which is what
    /// `MediumBuilder::positions` requires: it calls the function once per
    /// unordered pair and uses the value for both directions.
    pub fn gain_fn(&self) -> impl Fn(usize, usize, f64) -> f64 + '_ {
        let ch = self.channel;
        move |a, b, d| ch.link_gain_db(a, b, d)
    }
}

/// Manhattan-style grid city: nodes on a jittered street grid.
///
/// Nodes sit near the intersections of a `cols x rows` grid with
/// `block_m` spacing, each displaced by a uniform jitter of up to
/// `jitter_m` in both axes. `n` caps the population (row-major order).
pub fn grid_city(
    n: usize,
    block_m: f64,
    jitter_m: f64,
    channel: ChannelModel,
    seed: u64,
) -> Deployment {
    assert!(n > 0, "grid_city: need at least one node");
    assert!(block_m > 0.0, "grid_city: block size must be positive");
    let side = (n as f64).sqrt().ceil() as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c1d_c17e_0000_0001);
    let mut positions = Vec::with_capacity(n);
    'outer: for row in 0..side {
        for col in 0..side {
            if positions.len() == n {
                break 'outer;
            }
            let jx = rng.gen_range(-jitter_m..=jitter_m);
            let jy = rng.gen_range(-jitter_m..=jitter_m);
            positions.push((col as f64 * block_m + jx, row as f64 * block_m + jy));
        }
    }
    Deployment {
        positions,
        channel,
        seed,
    }
}

/// Clustered deployment: `clusters` hotspot centres scattered over a
/// `width_m x depth_m` area, nodes Gaussian-scattered around a uniformly
/// chosen centre with standard deviation `spread_m`.
pub fn clustered(
    n: usize,
    clusters: usize,
    width_m: f64,
    depth_m: f64,
    spread_m: f64,
    channel: ChannelModel,
    seed: u64,
) -> Deployment {
    assert!(n > 0 && clusters > 0, "clustered: need nodes and clusters");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc105_7e2e_0000_0002);
    let centres: Vec<(f64, f64)> = (0..clusters)
        .map(|_| (rng.gen_range(0.0..width_m), rng.gen_range(0.0..depth_m)))
        .collect();
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let (cx, cy) = centres[rng.gen_range(0..clusters)];
        let x = (cx + gaussian(&mut rng) * spread_m).clamp(0.0, width_m);
        let y = (cy + gaussian(&mut rng) * spread_m).clamp(0.0, depth_m);
        positions.push((x, y));
    }
    Deployment {
        positions,
        channel,
        seed,
    }
}

/// Poisson-disk-style deployment: uniform scatter over
/// `width_m x depth_m` with a minimum pairwise separation, via dart
/// throwing against an occupancy grid (O(N) per dart, fine for 100k).
pub fn poisson_disk(
    n: usize,
    width_m: f64,
    depth_m: f64,
    min_separation_m: f64,
    channel: ChannelModel,
    seed: u64,
) -> Deployment {
    assert!(n > 0, "poisson_disk: need at least one node");
    assert!(
        min_separation_m >= 0.0,
        "poisson_disk: separation must be nonnegative"
    );
    // Capacity sanity: densest packing of r-separated points is ~area/r².
    if min_separation_m > 0.0 {
        let capacity = (width_m / min_separation_m + 1.0) * (depth_m / min_separation_m + 1.0);
        assert!(
            (n as f64) < 0.6 * capacity,
            "poisson_disk: {n} nodes cannot fit {width_m}x{depth_m} m at {min_separation_m} m separation"
        );
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xd15c_0000_0000_0003);
    let cell = if min_separation_m > 0.0 {
        min_separation_m / std::f64::consts::SQRT_2
    } else {
        1.0
    };
    let cols = (width_m / cell).ceil() as usize + 1;
    let rows = (depth_m / cell).ceil() as usize + 1;
    // One point fits per cell of side r/sqrt(2); neighbors within 2 cells
    // cover every conflicting candidate.
    let mut occupancy: Vec<Option<(f64, f64)>> = vec![None; cols * rows];
    let mut positions = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while positions.len() < n {
        attempts += 1;
        assert!(
            attempts < 200 * n + 100_000,
            "poisson_disk: giving up after {attempts} darts at {} of {n} placed",
            positions.len()
        );
        let p = (rng.gen_range(0.0..width_m), rng.gen_range(0.0..depth_m));
        let (cx, cy) = ((p.0 / cell) as usize, (p.1 / cell) as usize);
        let mut ok = true;
        if min_separation_m > 0.0 {
            'scan: for gy in cy.saturating_sub(2)..=(cy + 2).min(rows - 1) {
                for gx in cx.saturating_sub(2)..=(cx + 2).min(cols - 1) {
                    if let Some(q) = occupancy[gy * cols + gx] {
                        let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
                        if d2 < min_separation_m * min_separation_m {
                            ok = false;
                            break 'scan;
                        }
                    }
                }
            }
        }
        if ok {
            occupancy[cy * cols + cx] = Some(p);
            positions.push(p);
        }
    }
    Deployment {
        positions,
        channel,
        seed,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "bit equality is the determinism test")]
mod tests {
    use super::*;

    #[test]
    fn channel_is_symmetric_and_deterministic() {
        let ch = ChannelModel::default();
        for (a, b, d) in [(0usize, 1usize, 10.0), (7, 3, 55.5), (100, 4242, 240.0)] {
            assert_eq!(ch.link_gain_db(a, b, d), ch.link_gain_db(b, a, d));
            assert_eq!(ch.link_gain_db(a, b, d), ch.link_gain_db(a, b, d));
        }
        assert_eq!(ch.link_gain_db(5, 5, 0.0), f64::NEG_INFINITY);
        let salted = ChannelModel {
            salt: 99,
            ..ChannelModel::default()
        };
        assert_ne!(ch.link_gain_db(0, 1, 10.0), salted.link_gain_db(0, 1, 10.0));
    }

    #[test]
    fn range_inverts_median_path_loss() {
        let ch = ChannelModel {
            shadow_sigma_db: 0.0,
            ..ChannelModel::default()
        };
        let r = ch.range_for_gain_db(-100.0);
        let back = -(propagation::path_loss_db(r, ch.path_loss_exponent) + ch.fixed_loss_db);
        assert!((back - -100.0).abs() < 1e-9, "{back}");
        // eval_range adds shadowing margin: with sigma 0 they coincide.
        assert_eq!(ch.eval_range_m(-100.0), r);
        let shadowed = ChannelModel::default();
        assert!(shadowed.eval_range_m(-100.0) > shadowed.range_for_gain_db(-100.0));
    }

    #[test]
    fn grid_city_shape_and_determinism() {
        let d = grid_city(100, 50.0, 5.0, ChannelModel::default(), 7);
        assert_eq!(d.len(), 100);
        let d2 = grid_city(100, 50.0, 5.0, ChannelModel::default(), 7);
        assert_eq!(d.positions, d2.positions);
        // 10x10 grid at 50 m blocks with 5 m jitter spans ~[-5, 455].
        for &(x, y) in &d.positions {
            assert!((-5.0..=455.0).contains(&x) && (-5.0..=455.0).contains(&y));
        }
    }

    #[test]
    fn clustered_stays_in_bounds() {
        let d = clustered(500, 8, 1000.0, 600.0, 30.0, ChannelModel::default(), 11);
        assert_eq!(d.len(), 500);
        for &(x, y) in &d.positions {
            assert!((0.0..=1000.0).contains(&x) && (0.0..=600.0).contains(&y));
        }
    }

    #[test]
    fn poisson_disk_respects_separation() {
        let d = poisson_disk(300, 400.0, 400.0, 12.0, ChannelModel::default(), 5);
        assert_eq!(d.len(), 300);
        for a in 0..d.len() {
            for b in (a + 1)..d.len() {
                let (ax, ay) = d.positions[a];
                let (bx, by) = d.positions[b];
                let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                assert!(dist >= 12.0 - 1e-9, "{a},{b} at {dist}");
            }
        }
    }

    #[test]
    fn gain_fn_matches_channel() {
        let d = grid_city(16, 40.0, 0.0, ChannelModel::default(), 1);
        let f = d.gain_fn();
        assert_eq!(f(0, 5, 33.0), d.channel.link_gain_db(0, 5, 33.0));
    }
}
