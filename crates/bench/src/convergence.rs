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
use cmap_sim::time::{as_secs_f64, millis, secs, Time};
use cmap_topo::select::{self, LinkPair};

use crate::figures::FigureOutput;
use crate::protocol::Protocol;
use crate::runner::{build_world, testbed_ctx, Spec, TestbedCtx, PAYLOAD};
use crate::{mean, Cli};

/// Convergence measurements for one pair.
#[derive(Debug, Clone, Copy)]
struct ConvergencePoint {
    /// Time (s) until both senders hold at least one defer entry;
    /// `None` if never within the run (e.g. the pair never conflicted).
    converged_at_s: Option<f64>,
    /// Aggregate Mbit/s over the first 5 seconds (the transient).
    transient_mbps: f64,
    /// Aggregate Mbit/s over the final 40% of the run (steady state).
    steady_mbps: f64,
}

/// Run the sweep over `periods_ms` with `spec.configs` in-range pairs each:
/// per broadcast period in milliseconds, one point per pair.
fn sweep(spec: &Spec, periods_ms: &[u64]) -> Vec<(u64, Vec<ConvergencePoint>)> {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xC0);
    let pairs = select::in_range_pairs(&ctx.lm, spec.configs, &mut rng);
    assert!(!pairs.is_empty());

    periods_ms
        .iter()
        .map(|&period_ms| {
            let protocol = Protocol::Cmap(CmapConfig {
                broadcast_period: millis(period_ms),
                ..CmapConfig::default()
            });
            let points = crate::exec::map(spec.jobs, &pairs, |pair| {
                let senders = ((pair.s1 as u64) << 12) ^ pair.s2 as u64;
                let stream = 0xC0_0000u64 ^ (period_ms << 24) ^ senders;
                let seed = derive_seed(spec.run_seed, stream);
                measure_pair(&ctx, pair, &protocol, spec, seed)
            });
            (period_ms, points)
        })
        .collect()
}

fn measure_pair(
    ctx: &TestbedCtx,
    pair: &LinkPair,
    protocol: &Protocol,
    spec: &Spec,
    seed: u64,
) -> ConvergencePoint {
    let mut world = build_world(ctx, seed);
    let f1 = world.add_flow(pair.s1, pair.r1, PAYLOAD);
    let f2 = world.add_flow(pair.s2, pair.r2, PAYLOAD);
    protocol.install(&mut world);

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
            if has(pair.s1) && has(pair.s2) {
                converged_at = Some(t);
            }
        }
    }

    let tput =
        |f: u16, from: Time, to: Time| world.stats().flow_throughput_mbps(f, PAYLOAD, from, to);
    let transient_end = secs(5).min(spec.duration);
    ConvergencePoint {
        converged_at_s: converged_at.map(as_secs_f64),
        transient_mbps: tput(f1, 0, transient_end) + tput(f2, 0, transient_end),
        steady_mbps: tput(f1, spec.measure_from(), spec.duration)
            + tput(f2, spec.measure_from(), spec.duration),
    }
}

/// Extension: conflict-map convergence time vs IL broadcast period.
pub(crate) fn convergence_sweep(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let sweeps = sweep(spec, &[250, 500, 1000, 2000, 4000]);
    let mut out = FigureOutput::default();
    out.line(format!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "period ms", "conv rate", "mean conv s", "transient", "steady"
    ));
    for (period_ms, points) in &sweeps {
        let conv: Vec<f64> = points.iter().filter_map(|p| p.converged_at_s).collect();
        let transient = mean(&points.iter().map(|p| p.transient_mbps).collect::<Vec<_>>());
        let steady = mean(&points.iter().map(|p| p.steady_mbps).collect::<Vec<_>>());
        let rate = conv.len() as f64 / points.len() as f64;
        let mean_conv = if conv.is_empty() {
            f64::NAN
        } else {
            mean(&conv)
        };
        out.line(format!(
            "{period_ms:>10} {rate:>12.2} {mean_conv:>12.2} {transient:>12.2} {steady:>10.2}"
        ));
        out.metric(format!("p{period_ms}_conv_rate"), rate);
        out.metric(format!("p{period_ms}_mean_conv_s"), mean_conv);
        out.metric(format!("p{period_ms}_transient_mbps"), transient);
        out.metric(format!("p{period_ms}_steady_mbps"), steady);
    }
    out.line("");
    out.line("Faster broadcasts converge sooner; steady state is insensitive");
    out.line("(the ACK piggyback carries rule-1 entries regardless).");
    out
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
        for (_, points) in &out {
            assert_eq!(points.len(), 2);
            for p in points {
                assert!(p.transient_mbps >= 0.0 && p.transient_mbps < 25.0);
                assert!(p.steady_mbps >= 0.0 && p.steady_mbps < 25.0);
                if let Some(t) = p.converged_at_s {
                    assert!(t > 0.0 && t <= 10.0);
                }
            }
        }
    }
}
