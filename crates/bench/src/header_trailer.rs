//! Header/trailer reception: Fig 16 (§5.5) and Fig 19 (§5.6).
//!
//! Fig 16 validates the design decision to transmit both headers *and*
//! trailers: the probability that a receiver gets at least one of the two
//! per virtual packet is what keeps the conflict map fed, and it stays high
//! even when data payloads are being destroyed. Fig 19 shows how that
//! probability behaves as concurrency grows.

use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_topo::{percentile, select};
use rand::seq::SliceRandom;

use crate::exposed::Curve;
use crate::figures::FigureOutput;
use crate::protocol::Protocol;
use crate::runner::{run_links, run_pairs, testbed_ctx, Spec, TestbedCtx};
use crate::{mean, render_cdfs, Cli, Effort};

/// The CMAP runs over a pair set, returning per-link
/// `(header_rate, either_rate)` samples.
fn cmap_hdr_rates(
    ctx: &TestbedCtx,
    pairs: &[select::LinkPair],
    spec: &Spec,
    stream_tag: u64,
) -> Vec<(f64, f64)> {
    run_pairs(ctx, spec, &Protocol::cmap(), pairs, stream_tag, |p| p.r1)
        .into_iter()
        .flat_map(|out| out.hdr_rates)
        .collect()
}

/// Recompute Fig 16 from fresh CMAP runs over the §5.3 and §5.5 pair sets:
/// per-link reception-rate samples for the four curves — in-range sender
/// pairs (§5.3), then out-of-range (hidden-terminal, §5.5) pairs, each
/// header-only then header-or-trailer.
fn fig16(spec: &Spec) -> [Curve; 4] {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF16);
    let in_range = select::in_range_pairs(&ctx.lm, spec.configs, &mut rng);
    let hidden = select::hidden_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(!in_range.is_empty() && !hidden.is_empty());

    let (ir_header, ir_either): (Vec<f64>, Vec<f64>) =
        cmap_hdr_rates(&ctx, &in_range, spec, 0xF16_1000)
            .into_iter()
            .unzip();
    let (oor_header, oor_either): (Vec<f64>, Vec<f64>) =
        cmap_hdr_rates(&ctx, &hidden, spec, 0xF16_2000)
            .into_iter()
            .unzip();
    [
        ("In-range, header", ir_header),
        ("In-range, hdr/trl", ir_either),
        ("OoR, header", oor_header),
        ("OoR, hdr/trl", oor_either),
    ]
    .map(|(label, samples)| Curve {
        label: label.into(),
        samples,
    })
}

/// Fig 16 (§5.5): header-or-trailer vs header-only reception per vpkt.
pub(crate) fn fig16_header_trailer(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let curves = fig16(spec);
    let mut out = FigureOutput::default();
    for c in &curves {
        out.line(format!("{}: mean {:.3}", c.label, mean(&c.samples)));
    }
    out.line("");
    out.text
        .push_str(&render_cdfs("rate", &curves, 0.0, 1.0, 21));
    out.metric("mean_in_range_header", mean(&curves[0].samples));
    out.metric("mean_in_range_either", mean(&curves[1].samples));
    out.metric("mean_oor_header", mean(&curves[2].samples));
    out.metric("mean_oor_either", mean(&curves[3].samples));
    out
}

/// Run `experiments_per_k` CMAP runs with `k` spatially spread concurrent
/// potential links, for `k` in `2..=7`, and collect the per-receiver
/// header-or-trailer reception probabilities: one `(senders, rates)` row
/// per concurrency level that ran.
fn fig19(spec: &Spec, experiments_per_k: usize) -> Vec<(usize, Vec<f64>)> {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF19);
    // All potential links, as (sender, receiver).
    let mut all_links: Vec<(usize, usize)> = Vec::new();
    for a in 0..ctx.lm.len() {
        for b in 0..ctx.lm.len() {
            if a != b && ctx.lm.potential_link(a, b) {
                all_links.push((a, b));
            }
        }
    }
    let cmap = Protocol::cmap();
    let mut rows = Vec::new();
    for k in 2..=7usize {
        // Build experiment link sets: random node-disjoint selections.
        let mut link_sets = Vec::new();
        'outer: for _ in 0..experiments_per_k * 8 {
            if link_sets.len() >= experiments_per_k {
                break 'outer;
            }
            let mut pool = all_links.clone();
            pool.shuffle(&mut rng);
            let mut used = Vec::new();
            let mut set = Vec::new();
            for (s, r) in pool {
                if used.contains(&s) || used.contains(&r) {
                    continue;
                }
                set.push((s, r));
                used.push(s);
                used.push(r);
                if set.len() == k {
                    break;
                }
            }
            if set.len() == k {
                link_sets.push(set);
            }
        }
        let rates: Vec<f64> = crate::exec::map(spec.jobs, &link_sets, |set| {
            let stream = 0xF19_0000u64
                ^ ((k as u64) << 16)
                ^ set.iter().fold(0u64, |acc, &(s, r)| {
                    acc.rotate_left(7) ^ ((s as u64) << 8) ^ r as u64
                });
            let out = run_links(&ctx, set, &cmap, spec, derive_seed(spec.run_seed, stream));
            out.hdr_rates.iter().map(|&(_, e)| e).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        if !rates.is_empty() {
            rows.push((k, rates));
        }
    }
    rows
}

/// Fig 19 (§5.6): header-or-trailer reception vs concurrent senders.
pub(crate) fn fig19_hdr_vs_senders(cli: &Cli, spec: &Spec) -> FigureOutput {
    let per_k = match cli.effort {
        Effort::Quick => 2,
        _ => 5,
    };
    let rows = fig19(spec, per_k);
    let mut out = FigureOutput::default();
    out.line(format!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "senders", "mean", "median", "p10", "p25", "p75", "p90"
    ));
    for (senders, rates) in &rows {
        let p = |q| percentile(rates, q);
        let (median, p10) = (p(50.0), p(10.0));
        out.line(format!(
            "{:>8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            senders,
            mean(rates),
            median,
            p10,
            p(25.0),
            p(75.0),
            p(90.0)
        ));
        out.metric(format!("s{senders}_median"), median);
        out.metric(format!("s{senders}_p10"), p10);
    }
    out.metric("rows", rows.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn trailers_add_to_headers() {
        let spec = Spec {
            duration: secs(12),
            configs: 3,
            ..Spec::default()
        };
        let [in_range_header, in_range_either, out_of_range_header, out_of_range_either] =
            fig16(&spec).map(|c| c.samples);
        // header-or-trailer >= header-only, pointwise by construction;
        // check the aggregate and that the out-of-range case benefits more
        // (the paper's observation).
        assert!(mean(&in_range_either) >= mean(&in_range_header) - 1e-9);
        assert!(mean(&out_of_range_either) >= mean(&out_of_range_header) - 1e-9);
        // On in-range pairs the either-rate should be high.
        assert!(
            mean(&in_range_either) > 0.6,
            "in-range either rate {}",
            mean(&in_range_either)
        );
    }

    #[test]
    fn fig19_rows_cover_concurrency_levels() {
        let spec = Spec {
            duration: secs(8),
            configs: 2,
            ..Spec::default()
        };
        let rows = fig19(&spec, 1);
        assert!(rows.len() >= 4, "got {} rows", rows.len());
        for (senders, rates) in &rows {
            assert!((2..=7).contains(senders));
            assert!(mean(rates) >= 0.0 && mean(rates) <= 1.0);
        }
    }
}
