//! Link measurement and classification (§5.1).
//!
//! The authors measured per-link PRR and signal strength "shortly before
//! running the corresponding experiment" and classified links as *in range*
//! or *potential transmission links*. We compute the same quantities
//! analytically from the PHY model: PRR is the clean-channel packet success
//! probability averaged over the per-frame fading distribution — exactly
//! what an empirical packet count estimates, without the sampling noise.

use cmap_phy::{dbm_to_mw, packet_success_prob, preamble_success_prob, Rate};

use crate::testbed::Testbed;

/// Radio environment assumed for measurement; mirrors the defaults of
/// `cmap_sim::PhyConfig` (kept separate so this crate stays below the
/// simulator in the dependency graph).
#[derive(Debug, Clone)]
pub struct RadioEnv {
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Noise floor in dBm.
    pub noise_floor_dbm: f64,
    /// Per-frame lognormal fading sigma in dB.
    pub fading_sigma_db: f64,
    /// Probability of an upfade burst (see `cmap_sim::PhyConfig`).
    pub fading_boost_prob: f64,
    /// Mean of the upfade component in dB.
    pub fading_boost_db: f64,
    /// Receiver sensitivity in dBm (below it, no preamble lock).
    pub sensitivity_dbm: f64,
}

impl Default for RadioEnv {
    fn default() -> RadioEnv {
        RadioEnv {
            tx_power_dbm: 15.0,
            noise_floor_dbm: cmap_phy::NOISE_FLOOR_DBM,
            fading_sigma_db: 2.0,
            fading_boost_prob: 0.08,
            fading_boost_db: 18.0,
            sensitivity_dbm: -95.0,
        }
    }
}

/// Probability that a clean (interference-free) frame of `psdu_bytes` at
/// `rate` is received over a link with the given mean RSS, averaged over
/// lognormal fading.
pub(crate) fn clean_prr(rss_dbm: f64, rate: Rate, psdu_bytes: usize, env: &RadioEnv) -> f64 {
    let noise = dbm_to_mw(env.noise_floor_dbm);
    if env.fading_sigma_db <= 0.0 {
        return clean_prr_at(rss_dbm, noise, rate, psdu_bytes, env);
    }
    let base = gaussian_average(rss_dbm, env.fading_sigma_db, |rss| {
        clean_prr_at(rss, noise, rate, psdu_bytes, env)
    });
    if env.fading_boost_prob <= 0.0 {
        return base;
    }
    let boosted = gaussian_average(rss_dbm + env.fading_boost_db, env.fading_sigma_db, |rss| {
        clean_prr_at(rss, noise, rate, psdu_bytes, env)
    });
    (1.0 - env.fading_boost_prob) * base + env.fading_boost_prob * boosted
}

/// 33-point quadrature of `f` over a +/- 4 sigma Gaussian around `mean`.
fn gaussian_average(mean: f64, sigma: f64, f: impl Fn(f64) -> f64) -> f64 {
    const POINTS: usize = 33;
    let (mut num, mut den) = (0.0, 0.0);
    for i in 0..POINTS {
        let z = -4.0 + 8.0 * i as f64 / (POINTS - 1) as f64;
        let w = (-0.5 * z * z).exp();
        num += w * f(mean + z * sigma);
        den += w;
    }
    num / den
}

fn clean_prr_at(rss_dbm: f64, noise_mw: f64, rate: Rate, psdu_bytes: usize, env: &RadioEnv) -> f64 {
    if rss_dbm < env.sensitivity_dbm {
        return 0.0;
    }
    let snr = dbm_to_mw(rss_dbm) / noise_mw;
    preamble_success_prob(snr) * packet_success_prob(snr, rate, psdu_bytes)
}

/// §5.1 connectivity bands over pairs with any connectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectivityStats {
    /// Directed pairs with PRR above the "any connectivity" floor.
    pub connected_pairs: usize,
    /// Of those: fraction with PRR < 0.1.
    pub frac_weak: f64,
    /// Of those: fraction with 0.1 <= PRR < ~1.
    pub frac_intermediate: f64,
    /// Of those: fraction with PRR ~= 1.
    pub frac_perfect: f64,
    /// Mean node degree counting links with PRR >= 0.1 in both directions.
    pub mean_degree: f64,
    /// Median node degree on the same definition.
    pub median_degree: f64,
}

/// Per-link measurements for a whole testbed, plus the network-wide signal
/// strength percentiles that the §5.1 link predicates reference.
#[derive(Debug, Clone)]
pub struct LinkMeasurements {
    n: usize,
    prr: Vec<f64>,
    rss_dbm: Vec<f64>,
    /// 10th / 90th percentile of RSS over connected directed links.
    sig_p10: f64,
    sig_p90: f64,
}

/// PRR below which a directed pair counts as having no connectivity at all.
pub(crate) const ANY_CONNECTIVITY_PRR: f64 = 1e-5;

/// PRR at or above which a link counts as "PRR of 1" (a 100-packet
/// measurement would round it to 1).
pub(crate) const PERFECT_PRR: f64 = 0.995;

impl LinkMeasurements {
    /// Measure every directed link of `tb` at `rate` with `payload`-byte
    /// packets (the paper uses 6 Mbit/s and 1400 bytes for classification).
    pub fn analyze(tb: &Testbed, env: &RadioEnv, rate: Rate, payload: usize) -> LinkMeasurements {
        let n = tb.len();
        let mut prr = vec![0.0; n * n];
        let mut rss = vec![f64::NEG_INFINITY; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let r = env.tx_power_dbm + tb.gain_db(a, b);
                rss[a * n + b] = r;
                prr[a * n + b] = clean_prr(r, rate, payload, env);
            }
        }
        let connected_rss: Vec<f64> = (0..n * n)
            .filter(|&i| prr[i] >= ANY_CONNECTIVITY_PRR)
            .map(|i| rss[i])
            .collect();
        let (sig_p10, sig_p90) = if connected_rss.is_empty() {
            (f64::NEG_INFINITY, f64::NEG_INFINITY)
        } else {
            (
                percentile(&connected_rss, 10.0),
                percentile(&connected_rss, 90.0),
            )
        };
        LinkMeasurements {
            n,
            prr,
            rss_dbm: rss,
            sig_p10,
            sig_p90,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the measurement covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Directed PRR from `a` to `b`.
    pub fn prr(&self, a: usize, b: usize) -> f64 {
        self.prr[a * self.n + b]
    }

    /// Directed RSS in dBm from `a` to `b`.
    pub fn rss_dbm(&self, a: usize, b: usize) -> f64 {
        self.rss_dbm[a * self.n + b]
    }

    /// Network-wide 10th percentile of connected-link RSS.
    pub fn signal_p10(&self) -> f64 {
        self.sig_p10
    }

    /// Network-wide 90th percentile of connected-link RSS.
    pub fn signal_p90(&self) -> f64 {
        self.sig_p90
    }

    /// §5.1 "in range": both directions have PRR above 0.2 and signal above
    /// the network-wide 10th percentile.
    pub fn in_range(&self, a: usize, b: usize) -> bool {
        self.prr(a, b) > 0.2
            && self.prr(b, a) > 0.2
            && self.rss_dbm(a, b) >= self.sig_p10
            && self.rss_dbm(b, a) >= self.sig_p10
    }

    /// §5.1 "potential transmission link" `a -> b`: both directions have
    /// PRR above 0.9 and signal above the 10th percentile.
    pub fn potential_link(&self, a: usize, b: usize) -> bool {
        self.prr(a, b) > 0.9
            && self.prr(b, a) > 0.9
            && self.rss_dbm(a, b) >= self.sig_p10
            && self.rss_dbm(b, a) >= self.sig_p10
    }

    /// §5.2 "strong signal": directed RSS in the top decile network-wide.
    pub fn strong(&self, a: usize, b: usize) -> bool {
        self.rss_dbm(a, b) >= self.sig_p90
    }

    /// §5.2 "weak signal": directed RSS below the 90th percentile.
    pub(crate) fn weak(&self, a: usize, b: usize) -> bool {
        self.rss_dbm(a, b) < self.sig_p90
    }

    /// Compute the §5.1 connectivity bands and degrees.
    pub fn connectivity(&self) -> ConnectivityStats {
        let n = self.n;
        let mut connected = 0usize;
        let (mut weak, mut mid, mut perfect) = (0usize, 0usize, 0usize);
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let p = self.prr(a, b);
                if p < ANY_CONNECTIVITY_PRR {
                    continue;
                }
                connected += 1;
                if p < 0.1 {
                    weak += 1;
                } else if p < PERFECT_PRR {
                    mid += 1;
                } else {
                    perfect += 1;
                }
            }
        }
        let mut degrees: Vec<f64> = Vec::with_capacity(n);
        for a in 0..n {
            let deg = (0..n)
                .filter(|&b| b != a && self.prr(a, b) >= 0.1 && self.prr(b, a) >= 0.1)
                .count();
            degrees.push(deg as f64);
        }
        let c = connected.max(1) as f64;
        ConnectivityStats {
            connected_pairs: connected,
            frac_weak: weak as f64 / c,
            frac_intermediate: mid as f64 / c,
            frac_perfect: perfect as f64 / c,
            mean_degree: degrees.iter().sum::<f64>() / n as f64,
            median_degree: percentile(&degrees, 50.0),
        }
    }
}

/// Interpolated percentile `p` in `[0, 100]` of an **unsorted** slice.
///
/// Uses the linear-interpolation definition (R-7 / NumPy default).
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut v: Vec<f64> = xs.to_vec();
    assert!(v.iter().all(|s| !s.is_nan()), "NaN in percentile input");
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn clean_prr_is_monotone_in_rss() {
        let env = RadioEnv::default();
        // With the upfade mixture, a -100 dBm link keeps trace connectivity;
        // that is the §5.1 weak-band behaviour the mixture exists for.
        assert!(clean_prr(-100.0, Rate::R6, 1400, &env) > 0.001);
        assert!(clean_prr(-100.0, Rate::R6, 1400, &env) < 0.1);
        let env = RadioEnv {
            fading_boost_prob: 0.0,
            ..RadioEnv::default()
        };
        let mut last = 0.0;
        for rss in (-100..-80).map(f64::from) {
            let p = clean_prr(rss, Rate::R6, 1400, &env);
            assert!(p >= last - 1e-9, "not monotone at {rss}");
            last = p;
        }
        assert!(clean_prr(-80.0, Rate::R6, 1400, &env) > 0.999);
        assert!(clean_prr(-100.0, Rate::R6, 1400, &env) < 0.05);
    }

    #[test]
    fn fading_smooths_the_cliff() {
        // Without fading the PER curve is a cliff; with fading there is a
        // genuine intermediate region.
        let sharp = RadioEnv {
            fading_sigma_db: 0.0,
            ..RadioEnv::default()
        };
        let soft = RadioEnv::default();
        let mut sharp_mid = 0;
        let mut soft_mid = 0;
        for tenth in -940..-880 {
            let rss = f64::from(tenth) / 10.0;
            let ps = clean_prr(rss, Rate::R6, 1400, &sharp);
            let pf = clean_prr(rss, Rate::R6, 1400, &soft);
            if (0.1..0.9).contains(&ps) {
                sharp_mid += 1;
            }
            if (0.1..0.9).contains(&pf) {
                soft_mid += 1;
            }
        }
        assert!(soft_mid > sharp_mid, "{soft_mid} vs {sharp_mid}");
    }

    #[test]
    fn connectivity_matches_paper_bands() {
        // The default testbed parameters must land in the neighbourhood of
        // the §5.1 population: 68% weak / 12% intermediate / 20% perfect,
        // mean degree 15.2, median 17. Averaged over several seeds with
        // generous tolerances — this pins calibration, not luck.
        let env = RadioEnv::default();
        let mut weak = 0.0;
        let mut mid = 0.0;
        let mut perfect = 0.0;
        let mut mean_deg = 0.0;
        let seeds = [1u64, 2, 3, 4, 5];
        for &s in &seeds {
            let tb = Testbed::office_floor(s);
            let lm = LinkMeasurements::analyze(&tb, &env, Rate::R6, 1400);
            let c = lm.connectivity();
            weak += c.frac_weak;
            mid += c.frac_intermediate;
            perfect += c.frac_perfect;
            mean_deg += c.mean_degree;
        }
        let k = seeds.len() as f64;
        let (weak, mid, perfect, mean_deg) = (weak / k, mid / k, perfect / k, mean_deg / k);
        assert!((0.45..0.70).contains(&weak), "weak {weak}");
        assert!((0.10..0.30).contains(&mid), "intermediate {mid}");
        assert!((0.12..0.35).contains(&perfect), "perfect {perfect}");
        assert!((12.0..19.0).contains(&mean_deg), "mean degree {mean_deg}");
    }

    #[test]
    fn predicates_are_consistent() {
        let tb = Testbed::office_floor(7);
        let lm = LinkMeasurements::analyze(&tb, &RadioEnv::default(), Rate::R6, 1400);
        let mut potential = 0;
        for a in 0..tb.len() {
            for b in 0..tb.len() {
                if a == b {
                    continue;
                }
                // A potential transmission link is necessarily in range.
                if lm.potential_link(a, b) {
                    potential += 1;
                    assert!(lm.in_range(a, b), "{a}->{b}");
                }
                assert_eq!(lm.weak(a, b), !lm.strong(a, b));
            }
        }
        assert!(potential > 20, "need usable links, got {potential}");
    }

    #[test]
    fn higher_rate_has_fewer_usable_links() {
        let tb = Testbed::office_floor(8);
        let env = RadioEnv::default();
        let count = |rate| {
            let lm = LinkMeasurements::analyze(&tb, &env, rate, 1400);
            (0..tb.len())
                .flat_map(|a| (0..tb.len()).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && lm.potential_link(a, b))
                .count()
        };
        let at6 = count(Rate::R6);
        let at18 = count(Rate::R18);
        let at54 = count(Rate::R54);
        assert!(at6 >= at18 && at18 >= at54, "{at6} {at18} {at54}");
        assert!(at54 < at6);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // Unsorted input works.
        let ys = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&ys, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let xs = [7.5];
        assert_eq!(percentile(&xs, 0.0), 7.5);
        assert_eq!(percentile(&xs, 50.0), 7.5);
        assert_eq!(percentile(&xs, 100.0), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
