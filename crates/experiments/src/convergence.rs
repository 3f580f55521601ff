//! Conflict-map convergence dynamics.
//!
//! The paper notes that "flows under CMAP may experience transient packet
//! loss before conflict map entries converge" (§7) but does not quantify
//! it. This module does: over conflicting in-range pairs it measures
//!
//! * the time until both senders hold a defer-table entry, and
//! * the throughput of the pre-convergence transient vs. steady state,
//!
//! as a function of the interferer-list broadcast period — an ablation of
//! the feedback path's responsiveness.

use cmap_core::{CmapConfig, CmapMac};
use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_sim::time::{millis, secs, Time};
use cmap_topo::select;

use crate::runner::{build_world, testbed_ctx, Spec, PAYLOAD};

/// Convergence measurements for one pair.
#[derive(Debug, Clone, Copy)]
pub struct ConvergencePoint {
    /// Time (s) until both senders hold at least one defer entry;
    /// `None` if never within the run (e.g. the pair never conflicted).
    pub converged_at_s: Option<f64>,
    /// Aggregate Mbit/s over the first 5 seconds (the transient).
    pub transient_mbps: f64,
    /// Aggregate Mbit/s over the final 40% of the run (steady state).
    pub steady_mbps: f64,
}

/// Sweep output: one entry per broadcast period.
#[derive(Debug, Clone)]
pub struct ConvergenceSweep {
    /// Broadcast period in milliseconds.
    pub period_ms: u64,
    /// Per-pair measurements.
    pub points: Vec<ConvergencePoint>,
}

/// Run the sweep over `periods_ms` with `spec.configs` in-range pairs each.
pub fn sweep(spec: &Spec, periods_ms: &[u64]) -> Vec<ConvergenceSweep> {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xC0);
    let pairs = select::in_range_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(!pairs.is_empty());

    periods_ms
        .iter()
        .map(|&period_ms| {
            let points = pairs
                .iter()
                .map(|pair| {
                    let cfg = CmapConfig {
                        broadcast_period: millis(period_ms),
                        ..CmapConfig::default()
                    };
                    let stream = 0xC0_0000u64
                        ^ (period_ms << 24)
                        ^ ((pair.s1 as u64) << 12)
                        ^ pair.s2 as u64;
                    measure_pair(
                        &ctx,
                        (pair.s1, pair.r1),
                        (pair.s2, pair.r2),
                        &cfg,
                        spec,
                        derive_seed(spec.run_seed, stream),
                    )
                })
                .collect();
            ConvergenceSweep { period_ms, points }
        })
        .collect()
}

fn measure_pair(
    ctx: &crate::runner::TestbedCtx,
    l1: (usize, usize),
    l2: (usize, usize),
    cfg: &CmapConfig,
    spec: &Spec,
    seed: u64,
) -> ConvergencePoint {
    let mut world = build_world(ctx, seed);
    let f1 = world.add_flow(l1.0, l1.1, PAYLOAD);
    let f2 = world.add_flow(l2.0, l2.1, PAYLOAD);
    for node in 0..world.node_count() {
        world.set_mac(node, Box::new(CmapMac::new(cfg.clone())));
    }

    // Step in 100 ms increments watching the senders' defer tables.
    let step = millis(100);
    let mut converged_at: Option<Time> = None;
    let mut t = 0;
    while t < spec.duration {
        t += step;
        world.run_until(t);
        if converged_at.is_none() {
            let has = |node: usize| {
                world
                    .mac_ref(node)
                    .as_any()
                    .downcast_ref::<CmapMac>()
                    .expect("cmap mac")
                    .defer_table()
                    .len_at(world.now())
                    > 0
            };
            if has(l1.0) && has(l2.0) {
                converged_at = Some(t);
            }
        }
    }

    let tput =
        |f: u16, from: Time, to: Time| world.stats().flow_throughput_mbps(f, PAYLOAD, from, to);
    let transient_end = secs(5).min(spec.duration);
    ConvergencePoint {
        converged_at_s: converged_at.map(|t| t as f64 / 1e9),
        transient_mbps: tput(f1, 0, transient_end) + tput(f2, 0, transient_end),
        steady_mbps: tput(f1, spec.measure_from(), spec.duration)
            + tput(f2, spec.measure_from(), spec.duration),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_points_and_sane_values() {
        let spec = Spec {
            duration: secs(10),
            configs: 2,
            ..Spec::default()
        };
        let out = sweep(&spec, &[500, 2000]);
        assert_eq!(out.len(), 2);
        for s in &out {
            assert_eq!(s.points.len(), 2);
            for p in &s.points {
                assert!(p.transient_mbps >= 0.0 && p.transient_mbps < 25.0);
                assert!(p.steady_mbps >= 0.0 && p.steady_mbps < 25.0);
                if let Some(t) = p.converged_at_s {
                    assert!(t > 0.0 && t <= 10.0);
                }
            }
        }
    }
}
