//! Header/trailer reception: Fig 16 (§5.5) and Fig 19 (§5.6).
//!
//! Fig 16 validates the design decision to transmit both headers *and*
//! trailers: the probability that a receiver gets at least one of the two
//! per virtual packet is what keeps the conflict map fed, and it stays high
//! even when data payloads are being destroyed. Fig 19 shows how that
//! probability behaves as concurrency grows.

use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_stats::Summary;
use cmap_topo::select;
use rand::seq::SliceRandom;

use crate::hidden::cmap_hdr_rates;
use crate::protocol::Protocol;
use crate::runner::{run_links, testbed_ctx, Spec};

/// Fig 16 output: per-link reception-rate samples for the four curves.
#[derive(Debug, Clone)]
pub struct Fig16Output {
    /// In-range sender pairs (§5.3 experiment): header-only rates.
    pub in_range_header: Vec<f64>,
    /// In-range pairs: header-or-trailer rates.
    pub in_range_either: Vec<f64>,
    /// Out-of-range (hidden-terminal, §5.5) pairs: header-only rates.
    pub out_of_range_header: Vec<f64>,
    /// Out-of-range pairs: header-or-trailer rates.
    pub out_of_range_either: Vec<f64>,
}

/// Recompute Fig 16 from fresh CMAP runs over the §5.3 and §5.5 pair sets.
pub fn fig16(spec: &Spec) -> Fig16Output {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF16);
    let in_range = select::in_range_pairs(&ctx.lm, spec.configs, &mut rng);
    let hidden = select::hidden_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(!in_range.is_empty() && !hidden.is_empty());

    let ir = cmap_hdr_rates(&ctx, &in_range, spec, 0xF16_1000);
    let oor = cmap_hdr_rates(&ctx, &hidden, spec, 0xF16_2000);
    Fig16Output {
        in_range_header: ir.iter().map(|&(h, _)| h).collect(),
        in_range_either: ir.iter().map(|&(_, e)| e).collect(),
        out_of_range_header: oor.iter().map(|&(h, _)| h).collect(),
        out_of_range_either: oor.iter().map(|&(_, e)| e).collect(),
    }
}

/// Fig 19 output: header-or-trailer reception statistics per concurrency
/// level.
#[derive(Debug, Clone)]
pub struct Fig19Row {
    /// Number of concurrent senders.
    pub senders: usize,
    /// Distribution of per-receiver header-or-trailer reception rates.
    pub summary: Summary,
}

/// Run `experiments_per_k` CMAP runs with `k` spatially spread concurrent
/// potential links, for `k` in `2..=7`, and summarise the per-receiver
/// header-or-trailer reception probability.
pub fn fig19(spec: &Spec, experiments_per_k: usize) -> Vec<Fig19Row> {
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
        let rates: Vec<f64> = cmap_exec::map(spec.jobs, &link_sets, |set| {
            let stream = 0xF19_0000u64
                ^ ((k as u64) << 16)
                ^ set.iter().fold(0u64, |acc, &(s, r)| {
                    acc.rotate_left(7) ^ ((s as u64) << 8) ^ r as u64
                });
            let out = run_links(&ctx, set, &cmap, spec, derive_seed(spec.run_seed, stream));
            out.hdr_rates.iter().map(|&(_, _, e)| e).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        if !rates.is_empty() {
            rows.push(Fig19Row {
                senders: k,
                summary: Summary::of(&rates),
            });
        }
    }
    rows
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
        let out = fig16(&spec);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        // header-or-trailer >= header-only, pointwise by construction;
        // check the aggregate and that the out-of-range case benefits more
        // (the paper's observation).
        assert!(mean(&out.in_range_either) >= mean(&out.in_range_header) - 1e-9);
        assert!(mean(&out.out_of_range_either) >= mean(&out.out_of_range_header) - 1e-9);
        // On in-range pairs the either-rate should be high.
        assert!(
            mean(&out.in_range_either) > 0.6,
            "in-range either rate {}",
            mean(&out.in_range_either)
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
        for r in &rows {
            assert!((2..=7).contains(&r.senders));
            assert!(r.summary.mean >= 0.0 && r.summary.mean <= 1.0);
        }
    }
}
