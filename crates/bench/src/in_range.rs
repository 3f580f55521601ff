//! Two senders in range of each other: Fig 13 (§5.3).
//!
//! Unlike the exposed-terminal selection, the cross-link signal strengths
//! are unconstrained: some pairs conflict (carrier sense was right), some
//! are exposed terminals (carrier sense was wasteful). The figure shows
//! CMAP tracking whichever of CS-on / CS-off is better per pair — it
//! *discriminates* instead of guessing.

use cmap_sim::rng::stream_rng;
use cmap_topo::select;

use crate::exposed::Curve;
use crate::figures::FigureOutput;
use crate::protocol::Protocol;
use crate::runner::{pair_curves, testbed_ctx, Spec};
use crate::{cdf_figure, median_of, Cli};

/// The Fig 13 line-up over in-range sender pairs.
fn fig13(spec: &Spec) -> Vec<Curve> {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF13);
    let pairs = select::in_range_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(!pairs.is_empty(), "no in-range pairs in testbed");
    let protocols = [
        Protocol::cs_on(),
        Protocol::cs_off_acks(),
        Protocol::cs_off_no_acks(),
        Protocol::cmap(),
    ];
    pair_curves(&ctx, spec, &protocols, &pairs, 0xF13_0000, |p| p.r1)
}

/// Fig 13 (§5.3): two senders in range — CMAP discriminates.
pub(crate) fn fig13_in_range(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let curves = fig13(spec);
    let mut out = FigureOutput::text(cdf_figure(&curves, &[], 12.5));
    out.metric("median_cs_mbps", median_of(&curves, "CS, acks"));
    out.metric("median_cmap_mbps", median_of(&curves, "CMAP"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn cmap_is_never_much_worse_than_the_best_baseline() {
        let spec = Spec {
            duration: secs(12),
            configs: 3,
            ..Spec::default()
        };
        let curves = fig13(&spec);
        assert_eq!(curves.len(), 4);
        let mean = |label: &str| {
            let c = curves.iter().find(|c| c.label == label).expect(label);
            c.samples.iter().sum::<f64>() / c.samples.len() as f64
        };
        let cs_on = mean("CS, acks");
        let cmap = mean("CMAP");
        // CMAP should at least roughly match carrier sense on mixed pairs
        // (it converges to it when pairs conflict, §5.3).
        assert!(
            cmap > 0.7 * cs_on,
            "CMAP {cmap:.2} collapsed vs CS {cs_on:.2}"
        );
    }
}
