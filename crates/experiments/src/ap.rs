//! Access-point topologies: Fig 17 and Fig 18 (§5.6).
//!
//! The floor is divided into six regions; one AP per region (mutually out
//! of range), one random client per AP, random transfer direction. The
//! paper sweeps N = 3..6 concurrent cells with 10 experiments per N: CMAP
//! improves aggregate throughput by 21–47% and median per-sender
//! throughput by 1.8× over the status quo.

use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_topo::select;

use crate::protocol::Protocol;
use crate::runner::{run_links, testbed_ctx, Spec};

/// Results of the AP sweep.
#[derive(Debug, Clone)]
pub struct ApOutput {
    /// `(N, protocol label, aggregate Mbit/s per experiment)` — Fig 17's
    /// bars are the means of the sample vectors.
    pub aggregates: Vec<(usize, String, Vec<f64>)>,
    /// `(protocol label, per-sender Mbit/s pooled over all experiments)` —
    /// Fig 18's CDFs.
    pub per_sender: Vec<(String, Vec<f64>)>,
}

/// Protocols compared in §5.6.
fn protocols() -> Vec<Protocol> {
    vec![Protocol::cs_on(), Protocol::cs_off_acks(), Protocol::cmap()]
}

/// Run the Fig 17/18 sweep: `experiments_per_n` topologies for each
/// N in `3..=max_aps`.
pub fn ap_sweep(spec: &Spec, max_aps: usize, experiments_per_n: usize) -> ApOutput {
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
        let outs = cmap_exec::map(spec.jobs, &jobs, |(n, idx, topo)| {
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
        per_sender.push((proto.label(), pooled));
    }
    ApOutput {
        aggregates,
        per_sender,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn ap_sweep_produces_all_cells() {
        let spec = Spec {
            duration: secs(10),
            ..Spec::quick()
        };
        let out = ap_sweep(&spec, 4, 2);
        // 2 Ns x 3 protocols rows.
        assert_eq!(out.aggregates.len(), 6);
        for (n, label, samples) in &out.aggregates {
            assert!((3..=4).contains(n));
            assert!(!samples.is_empty(), "{label} N={n} empty");
            for &s in samples {
                assert!((0.0..40.0).contains(&s), "{label} N={n}: {s}");
            }
        }
        assert_eq!(out.per_sender.len(), 3);
        for (_, samples) in &out.per_sender {
            assert!(samples.len() >= 2 * 3); // >= experiments x min links
        }
    }
}
