//! Hidden interferers and hidden terminals: Fig 14 (§5.4) and Fig 15 (§5.5).

use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_topo::select;
use rand::Rng;

use crate::exposed::Curve;
use crate::protocol::Protocol;
use crate::runner::{pair_curves, run_links, run_pairs, testbed_ctx, Spec, TestbedCtx};

/// One point of the Fig 14 scatter.
#[derive(Debug, Clone, Copy)]
pub struct Fig14Point {
    /// `min(PRR(I→R), PRR(I→S))` — how audible the interferer is.
    pub min_prr: f64,
    /// Throughput of S→R under interference, normalised by its clean
    /// throughput.
    pub normalized: f64,
    /// Lower bound on the probability both S and R hear I:
    /// `max(PRR(I→R) + PRR(I→S) − 1, 0)` (§5.4).
    pub(crate) p_heard: f64,
}

/// Fig 14 output: the scatter plus the paper's two summary numbers.
#[derive(Debug, Clone)]
pub struct Fig14Output {
    /// The scatter points.
    pub points: Vec<Fig14Point>,
    /// Fraction of points in the "hidden interferer" quadrant
    /// (normalised throughput < 0.5 *and* min PRR < 0.5); the paper
    /// reports ~8%.
    pub hidden_fraction: f64,
    /// Expected CMAP normalised throughput `E[p·1 + (1−p)·T]`; the paper
    /// computes 0.896.
    pub expected_cmap: f64,
}

/// Run the §5.4 hidden-interferer study over `spec.configs` random
/// (link, interferer) triples (the paper uses 500).
pub fn fig14(spec: &Spec) -> Fig14Output {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF14);
    let triples = select::interferer_triples(&ctx.lm, spec.configs, &mut rng);
    // Interferer destinations: random distinct node (traffic needs an
    // address; with ACKs disabled the destination only shapes geometry).
    let with_dst: Vec<(select::InterfererTriple, usize)> = triples
        .into_iter()
        .map(|t| {
            let dst = loop {
                let d = rng.gen_range(0..ctx.lm.len());
                if d != t.s && d != t.r && d != t.i {
                    break d;
                }
            };
            (t, dst)
        })
        .collect();

    let blast = Protocol::cs_off_no_acks();
    let points = cmap_exec::map(spec.jobs, &with_dst, |&(t, i_dst)| {
        let stream = 0xF14_0000u64 ^ ((t.s as u64) << 14) ^ ((t.r as u64) << 7) ^ t.i as u64;
        let seed = derive_seed(spec.run_seed, stream);
        let alone = run_links(&ctx, &[(t.s, t.r)], &blast, spec, seed).per_flow_mbps[0];
        let both =
            run_links(&ctx, &[(t.s, t.r), (t.i, i_dst)], &blast, spec, seed ^ 1).per_flow_mbps[0];
        let normalized = if alone > 0.0 {
            (both / alone).min(1.0)
        } else {
            0.0
        };
        let (pr, ps) = (ctx.lm.prr(t.i, t.r), ctx.lm.prr(t.i, t.s));
        Fig14Point {
            min_prr: pr.min(ps),
            normalized,
            p_heard: (pr + ps - 1.0).max(0.0),
        }
    });

    let hidden = points
        .iter()
        .filter(|p| p.normalized < 0.5 && p.min_prr < 0.5)
        .count();
    let expected: f64 = points
        .iter()
        .map(|p| p.p_heard + (1.0 - p.p_heard) * p.normalized)
        .sum::<f64>()
        / points.len().max(1) as f64;
    Fig14Output {
        hidden_fraction: hidden as f64 / points.len().max(1) as f64,
        expected_cmap: expected,
        points,
    }
}

/// Fig 15: hidden-terminal pairs (Fig 11(c)) under CS-on, CS-off-with-ACKs
/// and CMAP — CMAP's loss-rate backoff must avoid degradation vs the
/// status quo.
pub fn fig15(spec: &Spec) -> Vec<Curve> {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF15);
    let pairs = select::hidden_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(!pairs.is_empty(), "no hidden-terminal pairs in testbed");
    let protocols = [Protocol::cs_on(), Protocol::cs_off_acks(), Protocol::cmap()];
    pair_curves(&ctx, spec, &protocols, &pairs, 0xF15_0000, |p| p.r2)
}

/// Shared helper for Fig 16: the CMAP runs over a pair set, returning
/// per-link `(header_rate, either_rate)` samples.
pub(crate) fn cmap_hdr_rates(
    ctx: &TestbedCtx,
    pairs: &[select::LinkPair],
    spec: &Spec,
    stream_tag: u64,
) -> Vec<(f64, f64)> {
    run_pairs(ctx, spec, &Protocol::cmap(), pairs, stream_tag, |p| p.r1)
        .iter()
        .flat_map(|out| out.hdr_rates.iter().map(|&(_, h, e)| (h, e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn fig14_summaries_in_range() {
        let spec = Spec {
            duration: secs(8),
            configs: 10,
            ..Spec::default()
        };
        let out = fig14(&spec);
        assert_eq!(out.points.len(), 10);
        assert!((0.0..=1.0).contains(&out.hidden_fraction));
        assert!((0.0..=1.0).contains(&out.expected_cmap));
        // Most interferers are audible or harmless; expectation well above 0.5.
        assert!(out.expected_cmap > 0.5, "{}", out.expected_cmap);
        for p in &out.points {
            assert!((0.0..=1.0).contains(&p.normalized));
            assert!((0.0..=1.0).contains(&p.min_prr));
            assert!(p.p_heard <= p.min_prr + 1e-9);
        }
    }

    #[test]
    fn fig15_cmap_not_degraded() {
        let spec = Spec {
            duration: secs(12),
            configs: 3,
            ..Spec::default()
        };
        let curves = fig15(&spec);
        let mean = |label: &str| {
            let c = curves.iter().find(|c| c.label == label).expect(label);
            c.samples.iter().sum::<f64>() / c.samples.len() as f64
        };
        let cs = mean("CS, acks");
        let cmap = mean("CMAP");
        assert!(
            cmap > 0.6 * cs,
            "CMAP hidden-terminal {cmap:.2} collapsed vs CS {cs:.2}"
        );
    }
}
