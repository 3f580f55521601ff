//! Property-based tests for the PHY model: the orderings every experiment
//! implicitly relies on.

use proptest::prelude::*;

use cmap_suite::phy::db_to_ratio;
use cmap_suite::phy::{ber, packet_success_prob, per, preamble_success_prob, Rate};

fn arb_rate() -> impl Strategy<Value = Rate> {
    (0u8..8).prop_map(|v| Rate::from_u8(v).expect("rate"))
}

proptest! {
    /// More SINR never hurts.
    #[test]
    fn per_monotone_in_sinr(rate in arb_rate(), db1 in -10.0f64..35.0, db2 in -10.0f64..35.0, len in 1usize..2000) {
        let (lo, hi) = if db1 <= db2 { (db1, db2) } else { (db2, db1) };
        let p_lo = per(db_to_ratio(lo), rate, len);
        let p_hi = per(db_to_ratio(hi), rate, len);
        prop_assert!(p_hi <= p_lo + 1e-12, "{rate}: PER({hi}) {p_hi} > PER({lo}) {p_lo}");
    }

    /// Longer frames never do better.
    #[test]
    fn per_monotone_in_length(rate in arb_rate(), db in -5.0f64..30.0, l1 in 1usize..2000, l2 in 1usize..2000) {
        let (sm, lg) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let p_sm = per(db_to_ratio(db), rate, sm);
        let p_lg = per(db_to_ratio(db), rate, lg);
        prop_assert!(p_sm <= p_lg + 1e-12);
    }

    /// Probabilities are probabilities.
    #[test]
    fn all_outputs_are_probabilities(rate in arb_rate(), db in -40.0f64..60.0, len in 0usize..3000) {
        let sinr = db_to_ratio(db);
        for v in [
            per(sinr, rate, len),
            packet_success_prob(sinr, rate, len),
            ber(sinr, rate),
            preamble_success_prob(sinr),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "{v} out of [0,1]");
            prop_assert!(v.is_finite());
        }
    }

    /// The preamble (24 bits of BPSK-1/2) is always at least as robust as a
    /// full frame at any payload rate.
    #[test]
    fn preamble_at_least_as_robust_as_payload(rate in arb_rate(), db in -5.0f64..30.0, len in 24usize..2000) {
        let sinr = db_to_ratio(db);
        let pre = preamble_success_prob(sinr);
        let pay = packet_success_prob(sinr, rate, len);
        prop_assert!(pre >= pay - 1e-9, "preamble {pre} < payload {pay}");
    }

    /// Airtime is consistent: frame = PLCP + whole symbols, and symbols
    /// carry exactly n_dbps bits each.
    #[test]
    fn airtime_symbol_accounting(rate in arb_rate(), len in 0usize..3000) {
        let t = rate.frame_airtime_ns(len);
        let plcp = cmap_suite::phy::PLCP_PREAMBLE_NS + cmap_suite::phy::PLCP_SIG_NS;
        let psdu = t - plcp;
        prop_assert_eq!(psdu % 4_000, 0, "not whole OFDM symbols");
        let symbols = psdu / 4_000;
        let bits = 16 + 8 * len as u64 + 6;
        prop_assert_eq!(symbols, bits.div_ceil(rate.n_dbps()));
    }

    /// The BER interpolation table is **bit-exact on its sampled grid**:
    /// every stored node is the very `f64` the direct evaluator produces
    /// (the transparency contract the old memo cache carried, restricted
    /// to the grid the table actually samples).
    #[test]
    fn ber_table_is_bit_exact_on_the_grid(
        rate in arb_rate(),
        nodes in prop::collection::vec(0usize..=4096, 1..50),
    ) {
        let t = cmap_suite::phy::BerTable::shared();
        for &i in &nodes {
            let sinr = cmap_suite::phy::BerTable::grid_sinr(i);
            prop_assert_eq!(
                t.grid_value(rate, i).to_bits(),
                ber(sinr, rate).to_bits(),
                "table node {} diverged at sinr={} rate={}", i, sinr, rate);
        }
    }

    /// Off the grid the table is in its versioned error-bounded mode:
    /// every lookup — any rate, SINRs spanning well past both grid edges —
    /// is a probability within `ERR_BOUND` of the direct evaluator.
    #[test]
    fn ber_table_is_error_bounded_everywhere(
        lookups in prop::collection::vec((0u8..8, -120.0f64..60.0), 1..200),
    ) {
        let t = cmap_suite::phy::BerTable::shared();
        for &(r, db) in &lookups {
            let rate = Rate::from_u8(r).expect("rate");
            let sinr = db_to_ratio(db);
            let interp = t.ber(sinr, rate);
            let direct = ber(sinr, rate);
            prop_assert!((0.0..=0.5).contains(&interp),
                "table left [0, 0.5] at sinr={} rate={}: {}", sinr, rate, interp);
            prop_assert!((interp - direct).abs() <= cmap_suite::phy::table::ERR_BOUND,
                "error {} beyond bound at sinr={} rate={}",
                (interp - direct).abs(), sinr, rate);
        }
    }
}

/// The draw-first gates (`cmap_phy::gate`): every stored bracket contains
/// the curve it stands for, and a draw it settles is settled the way the
/// exact probability settles it.
#[allow(clippy::float_cmp, reason = "bit equality with the formula is tested")]
mod gate {
    use cmap_suite::phy::gate::{decide, DECODE_LOG2_SPAN, LOCK_LOG2_SPAN};
    use cmap_suite::phy::{gate::DrawGate, preamble_success_prob, BerTable, Rate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cell_of(x: f64) -> u64 {
        x.to_bits() >> 48
    }

    fn edge(cell: u64) -> f64 {
        f64::from_bits(cell << 48)
    }

    /// The per-bit log survival the decode gate brackets.
    fn keep(sinr: f64, rate: Rate) -> f64 {
        (-BerTable::shared().ber(sinr, rate)).ln_1p()
    }

    /// `f` at both edges, the midpoint and 64 random points of every cell
    /// from an octave below `span` to an octave above it (plus the ends of
    /// the grid) lies inside the bracket stored for that cell, and the
    /// brackets ascend with the cell.
    fn every_cell_contains(
        what: &str,
        span: (i32, i32),
        f: impl Fn(f64) -> f64,
        bracket: impl Fn(f64) -> Option<(f64, f64)>,
    ) {
        let mut rng = SmallRng::seed_from_u64(19);
        let span_cells = cell_of(2f64.powi(span.0 - 1))..cell_of(2f64.powi(span.1 + 1));
        let ends = [cell_of(f64::MIN_POSITIVE), cell_of(f64::MAX)];
        let mut last = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for cell in span_cells.chain(ends) {
            let (lo, hi) = bracket(edge(cell)).expect("on the grid");
            if cell != ends[0] {
                assert!(
                    lo >= last.0 && hi >= last.1,
                    "{what}: cell {cell:#x} descends"
                );
                last = (lo, hi);
            }
            let top = if cell == ends[1] {
                f64::MAX
            } else {
                edge(cell + 1)
            };
            let mid = f64::from_bits((cell << 48) | (1 << 47));
            let inside = (0..64).map(|_| f64::from_bits((cell << 48) | (rng.gen::<u64>() >> 16)));
            for x in [edge(cell), top, mid].into_iter().chain(inside) {
                if x != top {
                    assert_eq!(
                        bracket(x),
                        Some((lo, hi)),
                        "{what}: {x:e} is in cell {cell:#x}"
                    );
                }
                let v = f(x);
                assert!(
                    lo <= v && v <= hi,
                    "{what}: f({x:e}) = {v:e} outside [{lo:e}, {hi:e}]"
                );
            }
        }
    }

    #[test]
    fn every_lock_cell_brackets_the_preamble_curve() {
        let g = DrawGate::shared();
        every_cell_contains("lock", LOCK_LOG2_SPAN, preamble_success_prob, |s| {
            g.lock_bracket(s)
        });
    }

    #[test]
    fn every_decode_cell_brackets_the_log_survival_curve_at_every_rate() {
        let g = DrawGate::shared();
        for rate in Rate::ALL {
            every_cell_contains(
                &format!("decode {rate}"),
                DECODE_LOG2_SPAN,
                |s| keep(s, rate),
                |s| g.keep_bracket(s, rate),
            );
        }
    }

    /// The lock span's ends are where the curve saturates, to the bit —
    /// which is what makes the gate settle every draw beyond them.
    #[test]
    fn the_lock_curve_saturates_at_its_span_ends() {
        assert_eq!(
            preamble_success_prob(2f64.powi(LOCK_LOG2_SPAN.0)).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            preamble_success_prob(2f64.powi(LOCK_LOG2_SPAN.1)).to_bits(),
            1.0f64.to_bits()
        );
    }

    /// SINRs the engine can and cannot produce: log-uniform across and
    /// beyond both spans, and every kind of value off the grid.
    fn arb_sinr(rng: &mut SmallRng) -> f64 {
        const OFF_GRID: [f64; 8] = [
            0.0,
            -0.0,
            -1.0,
            5e-324,
            1e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        match rng.gen_range(0..16u32) {
            0 => OFF_GRID[rng.gen_range(0..OFF_GRID.len())],
            1 => [f64::MIN_POSITIVE, f64::MAX, 1e-30, 1e30][rng.gen_range(0..4usize)],
            _ => 2f64.powf(rng.gen_range(-14.0..16.0)),
        }
    }

    fn on_grid(sinr: f64) -> bool {
        sinr.is_normal() && sinr > 0.0
    }

    /// A random draw, and the draws within one ulp of each bracket end.
    fn units_around(bracket: Option<(f64, f64)>, rng: &mut SmallRng) -> Vec<f64> {
        let mut units = vec![rng.gen::<f64>()];
        for end in bracket.map_or([0.0, 1.0], |(lo, hi)| [lo, hi]) {
            units.extend([end.next_down(), end, end.next_up()]);
        }
        units
    }

    /// The decision as the engine takes it: from the bracket when the draw
    /// is outside it, from the exact probability otherwise.
    fn gated(bracket: Option<(f64, f64)>, unit: f64, exact: f64) -> bool {
        bracket
            .and_then(|b| decide(b, unit))
            .unwrap_or(unit < exact.clamp(0.0, 1.0))
    }

    #[test]
    fn gated_lock_decisions_equal_the_exact_comparison() {
        let g = DrawGate::shared();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut settled = 0u32;
        for _ in 0..200_000 {
            let sinr = arb_sinr(&mut rng);
            let bracket = g.lock_bracket(sinr);
            assert_eq!(bracket.is_some(), on_grid(sinr), "{sinr:e}");
            let exact = preamble_success_prob(sinr);
            for unit in units_around(bracket, &mut rng) {
                settled += u32::from(bracket.and_then(|b| decide(b, unit)).is_some());
                assert_eq!(
                    gated(bracket, unit, exact),
                    unit < exact.clamp(0.0, 1.0),
                    "sinr {sinr:e} unit {unit:e} exact {exact:e} bracket {bracket:?}"
                );
            }
        }
        assert!(
            settled > 1_000_000,
            "the bracket settled only {settled} draws"
        );
    }

    #[test]
    fn gated_decode_decisions_equal_the_exact_comparison() {
        let g = DrawGate::shared();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut settled = 0u32;
        for _ in 0..200_000 {
            let rate = Rate::ALL[rng.gen_range(0..Rate::ALL.len())];
            let total_bits = f64::from(rng.gen_range(22..20_000u32));
            // Two interference levels sharing the bits: one, when equal.
            let s1 = arb_sinr(&mut rng);
            let s2 = if rng.gen_bool(0.5) {
                s1
            } else {
                s1 * 2f64.powf(rng.gen_range(-3.0..3.0))
            };
            let share: f64 = rng.gen();
            let exact = (total_bits * share * keep(s1, rate)
                + total_bits * (1.0 - share) * keep(s2, rate))
            .exp();
            let bracket = g.decode_bracket(rate, s1.min(s2), s1.max(s2), total_bits);
            assert_eq!(
                bracket.is_some(),
                on_grid(s1) && on_grid(s2),
                "{s1:e} {s2:e}"
            );
            if let Some((lo, hi)) = bracket {
                assert!(
                    lo <= exact && exact <= hi,
                    "{exact:e} outside [{lo:e}, {hi:e}]"
                );
            }
            for unit in units_around(bracket, &mut rng) {
                settled += u32::from(bracket.and_then(|b| decide(b, unit)).is_some());
                assert_eq!(
                    gated(bracket, unit, exact),
                    unit < exact.clamp(0.0, 1.0),
                    "{rate} sinr {s1:e}/{s2:e} bits {total_bits} unit {unit:e} exact {exact:e} \
                     bracket {bracket:?}"
                );
            }
        }
        assert!(
            settled > 600_000,
            "the bracket settled only {settled} draws"
        );
    }

    /// The brackets' whole purpose is to settle most draws without the
    /// exact probability; no digest can notice if they stop (outcomes are
    /// equal by construction), only `sim_rate` would. So hold the settle
    /// rates on a 50-node office floor with disjoint saturated CMAP links.
    #[test]
    fn brackets_settle_most_draws_on_a_testbed_world() {
        use cmap_suite::bench::{
            runner::{self, Spec},
            Protocol,
        };
        use cmap_suite::sim::rng::stream_rng;
        use cmap_suite::sim::time::secs;
        use cmap_suite::topo::select;

        let spec = Spec::default();
        let ctx = runner::testbed_ctx(&spec);
        let mut rng = stream_rng(spec.run_seed, 0x6a7e);
        let mut world = runner::build_world(&ctx, 19);
        let mut busy = std::collections::BTreeSet::new();
        for pair in select::exposed_pairs(&ctx.lm, 12, &mut rng) {
            for (s, r) in [(pair.s1, pair.r1), (pair.s2, pair.r2)] {
                if !busy.contains(&s) && !busy.contains(&r) {
                    busy.extend([s, r]);
                    world.add_flow(s, r, runner::PAYLOAD);
                }
            }
        }
        assert!(busy.len() >= 12, "only {} nodes carry a flow", busy.len());
        Protocol::cmap().install(&mut world);
        world.run_until(secs(2));

        let c = world.bracket_counts();
        let share = |decided: u64, exact: u64| decided as f64 / (decided + exact) as f64;
        let (lock, decode) = (
            share(c.lock_decided, c.lock_exact),
            share(c.decode_decided, c.decode_exact),
        );
        assert!(c.lock_decided + c.lock_exact > 10_000, "{c:?}");
        assert!(c.decode_decided + c.decode_exact > 10_000, "{c:?}");
        // This world (12 flows, 68 k lock and 36 k decode draws) measures
        // lock 99.4 % and decode 81.2 %; EXPERIMENTS.md has 98.5–99.4 % and
        // 83–94 % on the benchmark workloads. The floors sit a few points
        // under, far above what a gate that stopped settling would read.
        assert!(
            lock >= 0.97,
            "lock bracket settled {lock:.4} of draws: {c:?}"
        );
        assert!(
            decode >= 0.75,
            "decode bracket settled {decode:.4} of draws: {c:?}"
        );
    }
}

/// The fading table against oracles it did not write: the lognormal's CDF
/// through `erfc`, and its quantiles through a series /
/// continued-fraction `erfc` inverted by bisection — neither shares a line
/// with the table's own `inv_norm_cdf`.
#[allow(clippy::float_cmp, reason = "bit equality with the formula is tested")]
mod fading {
    use cmap_suite::phy::erfc;
    use cmap_suite::phy::fading::{
        inv_norm_cdf, FadingTable, CELLS, FADING_TABLE_ERR_BOUND, MAX_SIGMA_DB, TAIL_CELLS,
    };
    use cmap_suite::phy::{db_to_ratio, ratio_to_db};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{PI, SQRT_2};

    const SIGMAS: [f64; 3] = [0.5, 2.0, 6.0];

    fn table(sigma_db: f64) -> FadingTable {
        FadingTable::new(sigma_db, 0.0, 0.0).expect("valid σ")
    }

    /// `erfc(x)` for `x >= 0` to ~1e-15 relative: the all-positive series
    /// of `erf` below 2, the continued fraction of `erfc` from there on.
    fn erfc_reference(x: f64) -> f64 {
        let gauss = (-x * x).exp();
        if x < 2.0 {
            let (mut term, mut sum, mut n) = (x, x, 0.0);
            while term > sum * 1e-18 {
                n += 1.0;
                term *= 2.0 * x * x / (2.0 * n + 1.0);
                sum += term;
            }
            return 1.0 - 2.0 / PI.sqrt() * gauss * sum;
        }
        let tail = (1..=300).rev().fold(x, |f, k| x + f64::from(k) / 2.0 / f);
        gauss / (PI.sqrt() * tail)
    }

    /// `Φ⁻¹(p)` by 100 bisections of `Φ(z) = erfc_reference(-z/√2)/2`.
    fn quantile_reference(p: f64) -> f64 {
        if p > 0.5 {
            return -quantile_reference(1.0 - p);
        }
        let (mut lo, mut hi) = (-10.0, 0.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if 0.5 * erfc_reference(-mid / SQRT_2) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn a_million_draws_follow_the_lognormal() {
        const N: usize = 1_000_000;
        for (s, &sigma) in SIGMAS.iter().enumerate() {
            let t = table(sigma);
            let mut rng = SmallRng::seed_from_u64(0xFAD1 + s as u64);
            // The draw in dB over σ is standard normal if the table is right.
            let mut z: Vec<f64> = (0..N)
                .map(|_| ratio_to_db(t.mult(rng.gen::<u64>())) / sigma)
                .collect();
            z.sort_by(f64::total_cmp);

            // Kolmogorov–Smirnov against Φ, 1 % critical value 1.628/√n.
            let n = N as f64;
            let ks = z
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let cdf = 0.5 * erfc(-x / SQRT_2);
                    (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
                })
                .fold(0.0, f64::max);
            assert!(ks < 1.628 / n.sqrt(), "σ {sigma}: KS distance {ks}");

            // First four moments, each within about five standard errors
            // (1/√n, 0.71/√n, √(6/n), √(24/n)).
            let mean = z.iter().sum::<f64>() / n;
            let central = |k: i32| z.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
            let sd = central(2).sqrt();
            let skew = central(3) / sd.powi(3);
            let kurtosis = central(4) / sd.powi(4);
            assert!(mean.abs() < 0.005, "σ {sigma}: mean {mean} σ");
            assert!((sd - 1.0).abs() < 0.004, "σ {sigma}: sd {sd} σ");
            assert!(skew.abs() < 0.012, "σ {sigma}: skew {skew}");
            assert!(
                (kurtosis - 3.0).abs() < 0.025,
                "σ {sigma}: kurtosis {kurtosis}"
            );
        }
    }

    #[test]
    fn every_edge_ascends_and_is_the_closed_form_quantile() {
        let z: Vec<f64> = (1..CELLS)
            .map(|i| quantile_reference(i as f64 / CELLS as f64))
            .collect();
        for sigma in SIGMAS {
            let t = table(sigma);
            for i in 1..CELLS {
                let closed = db_to_ratio(sigma * z[i - 1]);
                let rel = (t.edge(i) / closed - 1.0).abs();
                assert!(rel < 1e-12, "σ {sigma} edge {i}: {} vs {closed}", t.edge(i));
                assert!(
                    t.edge(i - 1) < t.edge(i),
                    "σ {sigma}: edge {i} does not ascend"
                );
            }
            assert!(t.edge(CELLS - 1) < t.edge(CELLS));
            assert_eq!(t.edge(CELLS / 2), 1.0);
        }
    }

    /// The word whose draw lands in `cell` at `j/64` (plus the half step
    /// `split` adds) of the way across it.
    fn word(cell: usize, j: u64) -> u64 {
        ((cell as u64) << 54) | (j << 48)
    }

    #[test]
    fn off_grid_draws_are_within_the_documented_bound_of_the_quantile() {
        for sigma in [0.5, 2.0, 6.0, MAX_SIGMA_DB] {
            let t = table(sigma);
            let mut worst = 0.0f64;
            for cell in TAIL_CELLS..CELLS - TAIL_CELLS {
                for j in 0..64 {
                    let bits = word(cell, j);
                    let (c, frac) = FadingTable::split(bits);
                    assert_eq!(c, cell);
                    let exact = t.quantile((cell as f64 + frac) / CELLS as f64);
                    let err_db = ratio_to_db(t.mult(bits) / exact).abs();
                    worst = worst.max(err_db / sigma);
                }
            }
            assert!(
                worst <= FADING_TABLE_ERR_BOUND,
                "σ {sigma}: interpolation is {worst} σ off the quantile"
            );
        }
    }

    #[test]
    fn tail_cells_are_the_direct_formula_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x7A11);
        for sigma in SIGMAS {
            let t = table(sigma);
            for _ in 0..20_000 {
                let low: u64 = rng.gen::<u64>() >> 10;
                let k = rng.gen_range(0..TAIL_CELLS);
                let (_, frac) = FadingTable::split(low);
                let below = (k as f64 + frac) / CELLS as f64;
                let direct = db_to_ratio(sigma * inv_norm_cdf(below));
                assert_eq!(t.mult(((k as u64) << 54) | low), direct, "lower cell {k}");
                let top = CELLS - 1 - k;
                let above = (k as f64 + (1.0 - frac)) / CELLS as f64;
                let direct = db_to_ratio(-sigma * inv_norm_cdf(above));
                assert_eq!(
                    t.mult(((top as u64) << 54) | low),
                    direct,
                    "upper cell {top}"
                );
            }
            // Continuous across the seam between the rules, to the bound.
            for (inner, outer) in [
                (
                    word(TAIL_CELLS, 0),
                    word(TAIL_CELLS - 1, 63) | 0xFFFF_FFFF_FFFF,
                ),
                (
                    word(CELLS - TAIL_CELLS - 1, 63) | 0xFFFF_FFFF_FFFF,
                    word(CELLS - TAIL_CELLS, 0),
                ),
            ] {
                let gap = ratio_to_db(t.mult(inner) / t.mult(outer)).abs();
                assert!(gap < 1e-9 * sigma, "σ {sigma}: {gap} dB across the seam");
            }
        }
    }

    #[test]
    fn every_word_yields_a_finite_positive_multiplier() {
        let mut rng = SmallRng::seed_from_u64(0xB175);
        for sigma in [0.5, 2.0, 6.0, MAX_SIGMA_DB] {
            let t = table(sigma);
            // The two extreme words are the 2⁻⁶³ quantiles: ∓9.1 σ.
            let (lo, hi) = (t.mult(0), t.mult(u64::MAX));
            assert!(lo > 0.0 && hi.is_finite(), "σ {sigma}: {lo} .. {hi}");
            assert!((ratio_to_db(lo) / sigma + 9.1).abs() < 0.1, "{lo}");
            assert!((ratio_to_db(hi) / sigma - 9.1).abs() < 0.1, "{hi}");
            for _ in 0..100_000 {
                let bits = rng.gen::<u64>();
                let m = t.mult(bits);
                assert!(
                    m.is_finite() && m >= lo && m <= hi,
                    "σ {sigma} {bits:#x}: {m}"
                );
            }
        }
    }
}
