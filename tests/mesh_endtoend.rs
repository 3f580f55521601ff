//! End-to-end two-hop relay correctness on the generated testbed: leaves
//! only receive what relays received, duplicates are suppressed, and CMAP
//! sustains the pipeline.

use cmap_suite::bench::runner::{build_world, testbed_ctx, Spec, PAYLOAD};
use cmap_suite::prelude::*;
use cmap_suite::topo::select;

#[test]
fn relay_pipeline_is_causal_and_lossless_at_the_stats_layer() {
    let spec = Spec {
        duration: time::secs(15),
        ..Spec::default()
    };
    let ctx = testbed_ctx(&spec);

    let mut rng = cmap_suite::sim::rng::stream_rng(1, 0x315);
    let topo = select::mesh_topologies(&ctx.lm, 3, 1, &mut rng)
        .pop()
        .expect("mesh topology");

    let mut world = build_world(&ctx, 99);
    let mut pairs = Vec::new();
    for (k, &a) in topo.relays.iter().enumerate() {
        let up = world.add_flow(topo.source, a, PAYLOAD);
        let down = world.add_relay_flow(a, topo.leaves[k], PAYLOAD, up);
        pairs.push((up, down));
    }
    for n in 0..world.node_count() {
        world.set_mac(n, Box::new(CmapMac::new(CmapConfig::default())));
    }
    world.run_until(spec.duration);

    let mut total_leaf = 0;
    for &(up, down) in &pairs {
        let up_count = world.stats().flow(up).arrivals.len();
        let down_count = world.stats().flow(down).arrivals.len();
        // Causality: a relay can only forward what it received.
        assert!(
            down_count <= up_count,
            "leaf got {down_count} > relay's {up_count}"
        );
        // The pipeline actually moves data.
        assert!(up_count > 200, "first hop starved: {up_count}");
        assert!(
            down_count * 3 > up_count,
            "second hop too lossy: {down_count} of {up_count}"
        );
        total_leaf += down_count;
    }
    assert!(total_leaf > 600, "aggregate leaf deliveries {total_leaf}");
}
