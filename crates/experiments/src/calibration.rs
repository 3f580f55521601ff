//! Single-link calibration (§4.2).
//!
//! The paper tunes `N_vpkt` so that CMAP's single-link throughput matches
//! commodity 802.11 (5.04 vs 5.07 Mbit/s at 6 Mbit/s), making the
//! comparisons fair. This module reproduces that check.

use cmap_sim::rng::{derive_seed, stream_rng};
use rand::seq::SliceRandom;

use crate::protocol::Protocol;
use crate::runner::{run_links, testbed_ctx, Spec};

/// Single-link throughputs for the calibration table.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// CMAP single-link throughput, Mbit/s.
    pub cmap_mbps: f64,
    /// 802.11 (CS + ACKs) single-link throughput, Mbit/s.
    pub dot11_mbps: f64,
    /// The link used, as (sender, receiver).
    pub link: (usize, usize),
}

/// Measure both protocols on a randomly chosen strong potential link.
pub fn single_link(spec: &Spec) -> Calibration {
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

    let cmap = run_links(
        &ctx,
        &[link],
        &Protocol::cmap(),
        spec,
        derive_seed(spec.run_seed, 0xCA11),
    )
    .per_flow_mbps[0];
    let dot11 = run_links(
        &ctx,
        &[link],
        &Protocol::cs_on(),
        spec,
        derive_seed(spec.run_seed, 0xCA12),
    )
    .per_flow_mbps[0];
    Calibration {
        cmap_mbps: cmap,
        dot11_mbps: dot11,
        link,
    }
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
        let c = single_link(&spec);
        assert!(
            (4.4..6.0).contains(&c.cmap_mbps),
            "CMAP {} Mbit/s",
            c.cmap_mbps
        );
        assert!(
            (4.4..6.0).contains(&c.dot11_mbps),
            "802.11 {} Mbit/s",
            c.dot11_mbps
        );
        // §4.2's point: the two are within a few percent of each other.
        assert!(
            (c.cmap_mbps - c.dot11_mbps).abs() < 0.7,
            "CMAP {} vs 802.11 {}",
            c.cmap_mbps,
            c.dot11_mbps
        );
    }
}
