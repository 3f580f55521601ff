//! Single-link calibration (§4.2).
//!
//! The paper tunes `N_vpkt` so that CMAP's single-link throughput matches
//! commodity 802.11 (5.04 vs 5.07 Mbit/s at 6 Mbit/s), making the
//! comparisons fair. This module reproduces that check.

use cmap_sim::rng::{derive_seed, stream_rng};
use rand::seq::SliceRandom;

use crate::figures::FigureOutput;
use crate::protocol::Protocol;
use crate::runner::{run_links, testbed_ctx, Spec};
use crate::Cli;

/// Measure both protocols on a randomly chosen strong potential link:
/// the link as (sender, receiver), then CMAP's and 802.11's (CS + ACKs)
/// single-link Mbit/s.
fn single_link(spec: &Spec) -> ((usize, usize), f64, f64) {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xCA1);
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for a in 0..ctx.lm.len() {
        for b in 0..ctx.lm.len() {
            if a != b && ctx.lm.potential_link(a, b) && ctx.lm.strong(a, b) {
                candidates.push((a, b));
            }
        }
    }
    assert!(!candidates.is_empty(), "no strong potential links");
    let link = *candidates.choose(&mut rng).expect("non-empty");

    let [cmap, dot11] =
        [(Protocol::cmap(), 0xCA11), (Protocol::cs_on(), 0xCA12)].map(|(proto, stream)| {
            run_links(
                &ctx,
                &[link],
                &proto,
                spec,
                derive_seed(spec.run_seed, stream),
            )
            .per_flow_mbps[0]
        });
    (link, cmap, dot11)
}

/// §4.2 single-link calibration.
pub(crate) fn calib_single_link(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let ((s, r), cmap, dot11) = single_link(spec);
    let mut out = FigureOutput::default();
    out.line(format!(
        "link {s} -> {r}: CMAP {cmap:.2} Mbit/s | 802.11 (CS, acks) {dot11:.2} Mbit/s | ratio {:.3}",
        cmap / dot11
    ));
    out.metric("cmap_mbps", cmap);
    out.metric("dot11_mbps", dot11);
    out.metric("ratio", cmap / dot11);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn single_link_rates_are_comparable() {
        let spec = Spec {
            duration: secs(10),
            configs: 6,
            ..Spec::default()
        };
        let (_, cmap, dot11) = single_link(&spec);
        assert!((4.4..6.0).contains(&cmap), "CMAP {cmap} Mbit/s");
        assert!((4.4..6.0).contains(&dot11), "802.11 {dot11} Mbit/s");
        // §4.2's point: the two are within a few percent of each other.
        assert!((cmap - dot11).abs() < 0.7, "CMAP {cmap} vs 802.11 {dot11}");
    }
}
