//! Two-hop content-dissemination mesh: §5.7, Fig 11(d).
//!
//! A source S feeds three relays A1..A3 which forward to leaves B1..B3.
//! Relaying is real (relay flows forward only what arrived), so per-leaf
//! throughput is the emergent minimum of the two hops. The paper reports a
//! 52% aggregate gain for CMAP over the status quo, driven by the
//! `Ai → Bi` transfers being exposed terminals with respect to each other.

use cmap_sim::rng::{derive_seed, stream_rng};
use cmap_topo::select;

use crate::exposed::Curve;
use crate::figures::FigureOutput;
use crate::protocol::Protocol;
use crate::runner::{build_world, testbed_ctx, Spec, TestbedCtx, PAYLOAD};
use crate::{mean, Cli};

/// Run `spec.configs` (≤ selectable) mesh topologies under CS-on and CMAP:
/// per protocol, the aggregate leaf Mbit/s of each topology.
fn mesh(spec: &Spec, fanout: usize) -> Vec<Curve> {
    let ctx = testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0xF57);
    let topos = select::mesh_topologies(&ctx.lm, fanout, spec.configs, &mut rng);
    assert!(!topos.is_empty(), "no mesh topologies in testbed");

    let protocols = [Protocol::cs_on(), Protocol::cmap()];
    let mut aggregates = Vec::new();
    for (pi, proto) in protocols.iter().enumerate() {
        let samples = crate::exec::map(spec.jobs, &topos, |topo| {
            let stream = 0xF57_0000u64
                ^ ((pi as u64) << 20)
                ^ ((topo.source as u64) << 12)
                ^ topo
                    .relays
                    .iter()
                    .fold(0u64, |a, &x| a.rotate_left(6) ^ x as u64);
            run_mesh_once(&ctx, topo, proto, spec, derive_seed(spec.run_seed, stream))
        });
        aggregates.push(Curve {
            label: proto.label(),
            samples,
        });
    }
    aggregates
}

/// §5.7: two-hop content-dissemination mesh.
pub(crate) fn mesh_dissemination(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let aggregates = mesh(spec, 3);
    let get = |l: &str| {
        aggregates
            .iter()
            .find(|c| c.label == l)
            .map_or(f64::NAN, |c| mean(&c.samples))
    };
    let mut out = FigureOutput::default();
    for Curve { label, samples } in &aggregates {
        out.line(format!("{label}: per-topology aggregates {samples:?}"));
        out.line(format!("{label}: mean {:.2} Mbit/s", mean(samples)));
    }
    let (cs, cmap) = (get("CS, acks"), get("CMAP"));
    out.line(format!("CMAP/CS = {:.2}x (paper 1.52x)", cmap / cs));
    out.metric("cs_mbps", cs);
    out.metric("cmap_mbps", cmap);
    out.metric("gain", cmap / cs);
    out
}

/// One mesh run: S→Ai saturated flows, Ai→Bi relay flows; returns the
/// aggregate delivered rate at the leaves.
fn run_mesh_once(
    ctx: &TestbedCtx,
    topo: &select::MeshTopology,
    proto: &Protocol,
    spec: &Spec,
    seed: u64,
) -> f64 {
    let mut world = build_world(ctx, seed);
    let mut leaf_flows = Vec::new();
    for (k, &a) in topo.relays.iter().enumerate() {
        let up = world.add_flow(topo.source, a, PAYLOAD);
        let down = world.add_relay_flow(a, topo.leaves[k], PAYLOAD, up);
        leaf_flows.push(down);
    }
    proto.install(&mut world);
    world.run_until(spec.duration);
    let (from, to) = (spec.measure_from(), spec.duration);
    leaf_flows
        .iter()
        .map(|&f| world.stats().flow_throughput_mbps(f, PAYLOAD, from, to))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    #[test]
    fn mesh_delivers_end_to_end() {
        let spec = Spec {
            duration: secs(15),
            configs: 2,
            ..Spec::default()
        };
        let aggregates = mesh(&spec, 3);
        assert_eq!(aggregates.len(), 2);
        for Curve { label, samples } in &aggregates {
            assert_eq!(samples.len(), 2, "{label}");
            // Two-hop relaying must actually deliver something at leaves.
            assert!(samples.iter().any(|&s| s > 0.3), "{label}: {samples:?}");
        }
    }
}
