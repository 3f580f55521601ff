//! Access-point topologies: Fig 17 and Fig 18 (§5.6).
//!
//! The floor is divided into six regions; one AP per region (mutually out
//! of range), one random client per AP, random transfer direction. The
//! paper sweeps N = 3..6 concurrent cells with 10 experiments per N: CMAP
//! improves aggregate throughput by 21–47% and median per-sender
//! throughput by 1.8× over the status quo.

use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_topo::select;

use crate::exposed::Curve;
use crate::figures::FigureOutput;
use crate::protocol::Protocol;
use crate::runner::{run_links, testbed_ctx, Spec};
use crate::{mean, median, median_of, render_cdfs, std_dev, Cli, Effort};

/// Fig 17's cells: `(N, protocol label, aggregate Mbit/s per experiment)`;
/// its bars are the means of the sample vectors.
type Cells = Vec<(usize, String, Vec<f64>)>;

/// Protocols compared in §5.6.
fn protocols() -> Vec<Protocol> {
    vec![Protocol::cs_on(), Protocol::cs_off_acks(), Protocol::cmap()]
}

/// Run the Fig 17/18 sweep: `experiments_per_n` topologies for each
/// N in `3..=max_aps`. Returns Fig 17's cells and, per protocol, the
/// per-sender Mbit/s pooled over all experiments (Fig 18's CDFs).
fn ap_sweep(spec: &Spec, max_aps: usize, experiments_per_n: usize) -> (Cells, Vec<Curve>) {
    assert!((3..=6).contains(&max_aps));
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF17);

    // Pre-draw all topologies (selection must not consume run randomness).
    let mut jobs: Vec<(usize, usize, select::ApTopology)> = Vec::new();
    for n in 3..=max_aps {
        let mut found = 0;
        let mut attempts = 0;
        while found < experiments_per_n && attempts < experiments_per_n * 30 {
            attempts += 1;
            if let Some(topo) = select::ap_topology(&ctx.tb, &ctx.lm, n, &mut rng) {
                jobs.push((n, found, topo));
                found += 1;
            }
        }
        assert!(
            found > 0,
            "no AP topology with {n} APs on testbed seed {}",
            spec.testbed_seed
        );
    }

    let mut aggregates = Vec::new();
    let mut per_sender = Vec::new();
    for (pi, proto) in protocols().iter().enumerate() {
        let outs = crate::exec::map(spec.jobs, &jobs, |(n, idx, topo)| {
            let stream = 0xF17_0000u64
                ^ ((pi as u64) << 24)
                ^ ((*n as u64) << 16)
                ^ ((*idx as u64) << 8)
                ^ topo
                    .aps
                    .iter()
                    .fold(0u64, |a, &x| a.rotate_left(5) ^ x as u64);
            let out = run_links(
                &ctx,
                &topo.links,
                proto,
                spec,
                derive_seed(spec.run_seed, stream),
            );
            (*n, out)
        });
        let mut pooled = Vec::new();
        for n in 3..=max_aps {
            let samples: Vec<f64> = outs
                .iter()
                .filter(|(on, _)| *on == n)
                .map(|(_, o)| o.aggregate_mbps())
                .collect();
            aggregates.push((n, proto.label(), samples));
        }
        for (_, o) in &outs {
            pooled.extend(o.per_flow_mbps.iter().copied());
        }
        per_sender.push(Curve {
            label: proto.label(),
            samples: pooled,
        });
    }
    (aggregates, per_sender)
}

/// Figs 17+18 (§5.6): N APs and N clients — aggregate and per-sender
/// throughput from one `ap_sweep` run.
pub(crate) fn fig17_18_ap(cli: &Cli, spec: &Spec) -> FigureOutput {
    let per_n = match cli.effort {
        Effort::Quick => 3,
        _ => 10, // the paper's 10 experiments per N
    };
    let (aggregates, curves) = ap_sweep(spec, 6, per_n);
    let mut out = FigureOutput::default();
    out.line(format!(
        "{:>4} {:>18} {:>10} {:>8}",
        "N", "protocol", "mean", "sd"
    ));
    for (n, label, samples) in &aggregates {
        out.line(format!(
            "{n:>4} {label:>18} {:>10.2} {:>8.2}",
            mean(samples),
            std_dev(samples)
        ));
    }
    for n in 3..=6 {
        let get = |l: &str| {
            aggregates
                .iter()
                .find(|(on, ol, _)| *on == n && ol == l)
                .map(|(_, _, s)| mean(s))
        };
        if let (Some(cs), Some(cmap)) = (get("CS, acks"), get("CMAP")) {
            out.line(format!("N={n}: CMAP/CS = {:.2}x", cmap / cs));
            out.metric(format!("n{n}_cs_mbps"), cs);
            out.metric(format!("n{n}_cmap_mbps"), cmap);
            out.metric(format!("n{n}_gain"), cmap / cs);
        }
    }
    out.line("");
    out.line("per-sender throughput across the AP experiments (Fig 18):");
    for c in &curves {
        out.line(format!("{}: median {:.2} Mbit/s", c.label, median(c)));
    }
    let [cs, cmap] = ["CS, acks", "CMAP"].map(|l| median_of(&curves, l));
    out.line(format!(
        "CMAP/CS median ratio: {:.2}x (paper 1.8x)",
        cmap / cs
    ));
    out.line("");
    out.text
        .push_str(&render_cdfs("Mbit/s", &curves, 0.0, 6.0, 25));
    out.metric("median_cs_mbps", cs);
    out.metric("median_cmap_mbps", cmap);
    out.metric("median_gain", cmap / cs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn ap_sweep_produces_all_cells() {
        let spec = Spec {
            duration: secs(10),
            configs: 6,
            ..Spec::default()
        };
        let (aggregates, per_sender) = ap_sweep(&spec, 4, 2);
        // 2 Ns x 3 protocols rows.
        assert_eq!(aggregates.len(), 6);
        for (n, label, samples) in &aggregates {
            assert!((3..=4).contains(n));
            assert!(!samples.is_empty(), "{label} N={n} empty");
            for &s in samples {
                assert!((0.0..40.0).contains(&s), "{label} N={n}: {s}");
            }
        }
        assert_eq!(per_sender.len(), 3);
        for c in &per_sender {
            assert!(c.samples.len() >= 2 * 3); // >= experiments x min links
        }
    }
}
