//! Exposed-terminal experiments: Fig 12 (§5.2) and Fig 20 (§5.8).
//!
//! Pairs of strong potential transmission links whose senders are in range
//! of each other while everything else is weak (Fig 11(a)). The paper's
//! headline: CMAP lets ~82% of such pairs transmit concurrently for a ~2×
//! gain over carrier sense, and the windowed ACK protocol (vs win=1) is
//! what protects that gain from ACK loss.

use cmap_phy::Rate;
use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_topo::select;

use crate::protocol::Protocol;
use crate::runner::{parallel_map, run_links, testbed_ctx, Spec};

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
    let protocols = vec![
        Protocol::cs_on(),
        Protocol::cs_off_no_acks(),
        Protocol::cmap(),
        Protocol::cmap_win1(),
    ];
    run_pairs(spec, &protocols, select_exposed(spec))
}

/// Fig 20: exposed terminals at 6, 12 and 18 Mbit/s, CMAP vs the status quo.
/// Curve labels are `"CS@<rate>"` / `"CMAP@<rate>"`.
pub fn fig20(spec: &Spec) -> Vec<Curve> {
    let pairs = select_exposed(spec);
    let mut curves = Vec::new();
    for rate in [Rate::R6, Rate::R12, Rate::R18] {
        let mbps = rate.bits_per_sec() / 1_000_000;
        for (proto, tag) in [
            (Protocol::cs_on().at_rate(rate), "CS"),
            (Protocol::cmap().at_rate(rate), "CMAP"),
        ] {
            let mut c = run_pairs(spec, &[proto], pairs.clone());
            let mut only = c.pop().expect("one curve");
            only.label = format!("{tag}@{mbps}");
            curves.push(only);
        }
    }
    curves
}

fn select_exposed(spec: &Spec) -> Vec<select::LinkPair> {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(
        !pairs.is_empty(),
        "testbed seed {} yields no exposed-terminal pairs",
        spec.testbed_seed
    );
    pairs
}

fn run_pairs(spec: &Spec, protocols: &[Protocol], pairs: Vec<select::LinkPair>) -> Vec<Curve> {
    let ctx = testbed_ctx(spec);
    protocols
        .iter()
        .enumerate()
        .map(|(pi, proto)| {
            let samples = parallel_map(spec.jobs, &pairs, |pair| {
                let links = [(pair.s1, pair.r1), (pair.s2, pair.r2)];
                let stream = 0xF12_0000u64
                    ^ ((pi as u64) << 20)
                    ^ ((pair.s1 as u64) << 12)
                    ^ ((pair.s2 as u64) << 4)
                    ^ pair.r1 as u64;
                let seed = derive_seed(spec.run_seed, stream);
                run_links(&ctx, &links, proto, spec, seed).aggregate_mbps()
            });
            Curve {
                label: proto.label(),
                samples,
            }
        })
        .collect()
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
