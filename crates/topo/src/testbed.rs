//! Testbed generation: node placement and frozen link gains.
//!
//! Nodes are scattered over a rectangular office floor with a minimum
//! separation (no two testbed boxes share a desk). Each *directed* link gain
//! is median log-distance path loss plus lognormal shadowing, where the
//! shadowing has a symmetric per-pair component and a smaller per-direction
//! component — producing the asymmetric links §3.1 warns about.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cmap_phy::propagation;

/// Parameters of a generated testbed.
#[derive(Debug, Clone)]
pub struct TestbedParams {
    /// Number of nodes.
    pub(crate) nodes: usize,
    /// Floor width in metres.
    pub width_m: f64,
    /// Floor depth in metres.
    pub depth_m: f64,
    /// Minimum node separation in metres.
    pub(crate) min_separation_m: f64,
    /// Path-loss exponent. Office floors with interior walls run well above
    /// free space; this is the main knob that sets how far links reach.
    pub(crate) path_loss_exponent: f64,
    /// Extra fixed loss in dB applied to every link (walls, antennas,
    /// enclosure) — the second calibration knob for the §5.1 link bands.
    pub(crate) fixed_loss_db: f64,
    /// Standard deviation of the symmetric (per-pair) lognormal shadowing.
    pub(crate) shadowing_sigma_db: f64,
    /// Standard deviation of the per-direction shadowing component.
    pub(crate) asymmetry_sigma_db: f64,
    /// Attenuation per interior wall in dB (multi-wall model). Walls are
    /// drawn per pair as `Poisson(distance / wall_every_m)`: this heavy
    /// right tail of extra loss is what produces the large population of
    /// barely-connected links the paper reports (68% of connected pairs
    /// with PRR < 0.1) — plain lognormal shadowing cannot.
    pub(crate) wall_attenuation_db: f64,
    /// Mean distance between wall crossings in metres.
    pub(crate) wall_every_m: f64,
}

impl Default for TestbedParams {
    /// Calibrated so the generated link population lands in the §5.1 bands
    /// (see `connectivity_matches_paper_bands` in `measure.rs` and the
    /// `testbed_stats` bench binary).
    fn default() -> TestbedParams {
        TestbedParams {
            nodes: 50,
            width_m: 70.0,
            depth_m: 40.0,
            min_separation_m: 4.0,
            path_loss_exponent: 4.0,
            fixed_loss_db: 5.0,
            shadowing_sigma_db: 3.5,
            asymmetry_sigma_db: 1.5,
            wall_attenuation_db: 2.0,
            wall_every_m: 8.0,
        }
    }
}

/// A generated testbed: positions plus the frozen directed gain matrix.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Generation parameters.
    pub params: TestbedParams,
    /// Node positions in metres.
    pub positions: Vec<(f64, f64)>,
    /// Directed link gains in dB (negative; `[tx * n + rx]`, diagonal
    /// `-inf`).
    pub gains_db: Vec<f64>,
    /// Propagation delays in ns, same layout.
    pub delay_ns: Vec<u64>,
}

impl Testbed {
    /// Generate a testbed with the given parameters and seed.
    pub(crate) fn generate(params: TestbedParams, seed: u64) -> Testbed {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e57_bed0_0000_0000);
        let positions = place_nodes(&params, &mut rng);
        let n = params.nodes;
        let mut gains_db = vec![f64::NEG_INFINITY; n * n];
        let mut delay_ns = vec![0u64; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let (ax, ay) = positions[a];
                let (bx, by) = positions[b];
                let d = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                let walls = if params.wall_attenuation_db > 0.0 && params.wall_every_m > 0.0 {
                    f64::from(poisson(&mut rng, d / params.wall_every_m).min(10))
                } else {
                    0.0
                };
                let median_loss = propagation::path_loss_db(d, params.path_loss_exponent)
                    + params.fixed_loss_db
                    + walls * params.wall_attenuation_db;
                let sym = gaussian(&mut rng) * params.shadowing_sigma_db;
                let asym_ab = gaussian(&mut rng) * params.asymmetry_sigma_db;
                let asym_ba = gaussian(&mut rng) * params.asymmetry_sigma_db;
                gains_db[a * n + b] = -(median_loss + sym + asym_ab);
                gains_db[b * n + a] = -(median_loss + sym + asym_ba);
                let delay = propagation::propagation_delay_ns(d);
                delay_ns[a * n + b] = delay;
                delay_ns[b * n + a] = delay;
            }
        }
        Testbed {
            params,
            positions,
            gains_db,
            delay_ns,
        }
    }

    /// The default 50-node office floor with the given seed.
    pub fn office_floor(seed: u64) -> Testbed {
        Testbed::generate(TestbedParams::default(), seed)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.params.nodes
    }

    /// True when the testbed has no nodes (never, for generated testbeds).
    pub fn is_empty(&self) -> bool {
        self.params.nodes == 0
    }

    /// Directed gain in dB from `a` to `b`.
    pub(crate) fn gain_db(&self, a: usize, b: usize) -> f64 {
        self.gains_db[a * self.len() + b]
    }
}

/// Rejection-sample positions with minimum separation.
fn place_nodes(params: &TestbedParams, rng: &mut SmallRng) -> Vec<(f64, f64)> {
    let mut positions: Vec<(f64, f64)> = Vec::with_capacity(params.nodes);
    let mut attempts = 0usize;
    while positions.len() < params.nodes {
        attempts += 1;
        assert!(
            attempts < 100_000,
            "cannot place {} nodes with {} m separation on {}x{} m",
            params.nodes,
            params.min_separation_m,
            params.width_m,
            params.depth_m
        );
        let p = (
            rng.gen_range(0.0..params.width_m),
            rng.gen_range(0.0..params.depth_m),
        );
        let ok = positions.iter().all(|q| {
            let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
            d2 >= params.min_separation_m * params.min_separation_m
        });
        if ok {
            positions.push(p);
        }
    }
    positions
}

/// Poisson draw via inversion (small means only).
fn poisson(rng: &mut SmallRng, lambda: f64) -> u32 {
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l || k >= 50 {
            return k;
        }
        k += 1;
    }
}

/// Standard normal draw (Box–Muller), the one the testbed and the city
/// generators share (local to keep this crate free of a `cmap-sim`
/// dependency).
pub(crate) fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    /// Euclidean distance between two nodes in metres.
    fn distance_m(tb: &Testbed, a: usize, b: usize) -> f64 {
        let (ax, ay) = tb.positions[a];
        let (bx, by) = tb.positions[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Testbed::office_floor(3);
        let b = Testbed::office_floor(3);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.gains_db, b.gains_db);
        let c = Testbed::office_floor(4);
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn separation_respected() {
        let tb = Testbed::office_floor(1);
        for a in 0..tb.len() {
            for b in (a + 1)..tb.len() {
                assert!(
                    distance_m(&tb, a, b) >= tb.params.min_separation_m - 1e-9,
                    "{a},{b} too close"
                );
            }
        }
    }

    #[test]
    fn gains_mostly_symmetric_but_not_exactly() {
        let tb = Testbed::office_floor(2);
        let mut asym_total = 0.0;
        let mut count = 0;
        for a in 0..tb.len() {
            for b in (a + 1)..tb.len() {
                let diff = (tb.gain_db(a, b) - tb.gain_db(b, a)).abs();
                assert!(diff < 15.0, "wildly asymmetric: {diff}");
                asym_total += diff;
                count += 1;
            }
        }
        let mean_asym = asym_total / f64::from(count);
        // Per-direction sigma 1.5 dB -> mean |diff| ~ 1.7 dB.
        assert!((0.5..4.0).contains(&mean_asym), "{mean_asym}");
    }

    #[test]
    fn diagonal_is_silent() {
        let tb = Testbed::office_floor(5);
        for a in 0..tb.len() {
            assert_eq!(tb.gain_db(a, a), f64::NEG_INFINITY);
        }
    }

    #[test]
    fn closer_nodes_have_stronger_links_on_average() {
        let tb = Testbed::office_floor(6);
        let (mut near, mut far) = (Vec::new(), Vec::new());
        for a in 0..tb.len() {
            for b in 0..tb.len() {
                if a == b {
                    continue;
                }
                let d = distance_m(&tb, a, b);
                if d < 15.0 {
                    near.push(tb.gain_db(a, b));
                } else if d > 40.0 {
                    far.push(tb.gain_db(a, b));
                }
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&near) > avg(&far) + 10.0);
    }
}
