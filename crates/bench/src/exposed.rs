//! Exposed-terminal experiments: Fig 12 (§5.2) and Fig 20 (§5.8).
//!
//! Pairs of strong potential transmission links whose senders are in range
//! of each other while everything else is weak (Fig 11(a)). The paper's
//! headline: CMAP lets ~82% of such pairs transmit concurrently for a ~2×
//! gain over carrier sense, and the windowed ACK protocol (vs win=1) is
//! what protects that gain from ACK loss.

use cmap_phy::Rate;
use cmap_sim::rng::stream_rng;
use cmap_topo::select;

use crate::figures::FigureOutput;
use crate::protocol::Protocol;
use crate::runner::{pair_curves, testbed_ctx, Spec, TestbedCtx};
use crate::{cdf_figure, median_of, Cli};

/// Stream tag of the exposed-pair runs (Fig 12 and Fig 20 share it).
const STREAM: u64 = 0xF12_0000;

/// One labelled sample set (a CDF curve's raw data).
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// One sample per evaluated configuration (aggregate Mbit/s).
    pub samples: Vec<f64>,
}

/// Run the Fig 12 protocol line-up over randomly selected exposed-terminal
/// pairs. Returns one curve per protocol, each with `spec.configs` samples.
pub fn fig12(spec: &Spec) -> Vec<Curve> {
    let ctx = testbed_ctx(spec);
    let protocols = [
        Protocol::cs_on(),
        Protocol::cs_off_no_acks(),
        Protocol::cmap(),
        Protocol::cmap_win1(),
    ];
    let pairs = select_exposed(&ctx, spec);
    pair_curves(&ctx, spec, &protocols, &pairs, STREAM, |p| p.r1)
}

/// Fig 12 (§5.2): exposed terminals — CMAP's headline 2x gain.
pub(crate) fn fig12_exposed(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let curves = fig12(spec);
    let [cs, cmap, win1, blast] =
        ["CS, acks", "CMAP", "CMAP, win=1", "CS off, no acks"].map(|l| median_of(&curves, l));
    let gain = format!(
        "median gain: CMAP/CS = {:.2}x (paper ~2x), win1/CS = {:.2}x (paper ~1.5x)",
        cmap / cs,
        win1 / cs
    );
    let mut out = FigureOutput::text(cdf_figure(&curves, &[gain], 12.5));
    out.metric("median_cs_mbps", cs);
    out.metric("median_cmap_mbps", cmap);
    out.metric("median_win1_mbps", win1);
    out.metric("median_blast_mbps", blast);
    out.metric("gain_cmap_vs_cs", cmap / cs);
    out.metric("gain_win1_vs_cs", win1 / cs);
    out
}

/// Fig 20: exposed terminals at 6, 12 and 18 Mbit/s, CMAP vs the status quo.
/// Curve labels are `"CS@<rate>"` / `"CMAP@<rate>"`.
fn fig20(spec: &Spec) -> Vec<Curve> {
    let ctx = testbed_ctx(spec);
    let pairs = select_exposed(&ctx, spec);
    let mut curves = Vec::new();
    for rate in [Rate::R6, Rate::R12, Rate::R18] {
        let mbps = rate.bits_per_sec() / 1_000_000;
        for (proto, tag) in [
            (Protocol::cs_on().at_rate(rate), "CS"),
            (Protocol::cmap().at_rate(rate), "CMAP"),
        ] {
            let mut only = pair_curves(&ctx, spec, &[proto], &pairs, STREAM, |p| p.r1)
                .pop()
                .expect("one curve");
            only.label = format!("{tag}@{mbps}");
            curves.push(only);
        }
    }
    curves
}

/// Fig 20 (§5.8): exposed terminals at 6, 12 and 18 Mbit/s.
pub(crate) fn fig20_bitrates(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let curves = fig20(spec);
    let medians = [6u64, 12, 18].map(|mbps| {
        let [cs, cmap] = ["CS", "CMAP"].map(|p| median_of(&curves, &format!("{p}@{mbps}")));
        (mbps, cs, cmap)
    });
    let gains = medians.map(|(_, cs, cmap)| cmap / cs);
    let notes =
        medians.map(|(mbps, cs, cmap)| format!("@{mbps} Mbit/s: CMAP/CS = {:.2}x", cmap / cs));
    let mut out = FigureOutput::text(cdf_figure(&curves, &notes, 25.0));
    for (mbps, cs, cmap) in medians {
        out.metric(format!("at{mbps}_cs_mbps"), cs);
        out.metric(format!("at{mbps}_cmap_mbps"), cmap);
        out.metric(format!("at{mbps}_gain"), cmap / cs);
    }
    // The smallest step down the ladder: negative where the gain rises.
    let step = gains
        .windows(2)
        .map(|w| w[0] - w[1])
        .fold(f64::NAN, f64::min);
    out.metric("min_gain_step", step);
    out
}

fn select_exposed(ctx: &TestbedCtx, spec: &Spec) -> Vec<select::LinkPair> {
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(
        !pairs.is_empty(),
        "testbed seed {} yields no exposed-terminal pairs",
        spec.testbed_seed
    );
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn exposed_cmap_beats_carrier_sense() {
        let spec = Spec {
            duration: secs(12),
            configs: 3,
            ..Spec::default()
        };
        let curves = fig12(&spec);
        assert_eq!(curves.len(), 4);
        let get = |label: &str| {
            curves
                .iter()
                .find(|c| c.label == label)
                .unwrap_or_else(|| panic!("missing curve {label}"))
        };
        let mean = |c: &Curve| c.samples.iter().sum::<f64>() / c.samples.len() as f64;
        let cs = mean(get("CS, acks"));
        let cmap = mean(get("CMAP"));
        // The headline claim, with slack for the tiny quick-spec sample.
        assert!(
            cmap > 1.4 * cs,
            "CMAP {cmap:.2} not clearly above CS {cs:.2} on exposed pairs"
        );
        assert!(cs > 3.0, "carrier-sense baseline implausibly low: {cs:.2}");
    }
}
