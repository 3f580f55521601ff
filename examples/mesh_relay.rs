//! Two-hop content dissemination over a mesh (§5.7): a source feeds three
//! relays, which forward to three leaves. The relay legs are frequently
//! exposed terminals with respect to each other — CMAP lets them run
//! concurrently.
//!
//! ```text
//! cargo run --release --example mesh_relay [seed]
//! ```

use cmap_suite::bench::runner::{build_world, testbed_ctx, Spec, PAYLOAD};
use cmap_suite::bench::Protocol;
use cmap_suite::prelude::*;
use cmap_topo::select;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let spec = Spec {
        testbed_seed: seed,
        duration: time::secs(25),
        ..Spec::default()
    };
    let ctx = testbed_ctx(&spec);

    let mut rng = cmap_sim::rng::stream_rng(seed, 0x3e5);
    let topo = select::mesh_topologies(&ctx.lm, 3, 1, &mut rng)
        .pop()
        .expect("mesh topology exists on this seed");
    println!(
        "source {} -> relays {:?} -> leaves {:?}",
        topo.source, topo.relays, topo.leaves
    );

    for (label, protocol) in [
        ("802.11 (CS, acks)", Protocol::cs_on()),
        ("CMAP", Protocol::cmap()),
    ] {
        let mut world = build_world(&ctx, seed ^ 0x3e5);
        let mut leaf_flows = Vec::new();
        for (k, &a) in topo.relays.iter().enumerate() {
            let up = world.add_flow(topo.source, a, PAYLOAD);
            let down = world.add_relay_flow(a, topo.leaves[k], PAYLOAD, up);
            leaf_flows.push((k, up, down));
        }
        protocol.install(&mut world);
        world.run_until(spec.duration);

        println!("\n{label}:");
        let mut total = 0.0;
        for &(k, up, down) in &leaf_flows {
            let t_up =
                world
                    .stats()
                    .flow_throughput_mbps(up, PAYLOAD, spec.measure_from(), spec.duration);
            let t_down = world.stats().flow_throughput_mbps(
                down,
                PAYLOAD,
                spec.measure_from(),
                spec.duration,
            );
            total += t_down;
            println!("  branch {k}: hop1 {t_up:5.2}  leaf {t_down:5.2} Mbit/s");
        }
        println!("  aggregate at leaves: {total:5.2} Mbit/s");
    }
}
