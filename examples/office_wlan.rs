//! A realistic office WLAN: multiple access points on the 50-node testbed,
//! one active client each, CMAP vs the 802.11 status quo (the §5.6
//! scenario the paper's introduction motivates).
//!
//! ```text
//! cargo run --release --example office_wlan [seed]
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
        duration: time::secs(20),
        ..Spec::default()
    };
    // Generate the building and survey its links, like §5.1.
    let ctx = testbed_ctx(&spec);

    // Five APs in adjacent regions, one random client each.
    let mut rng = cmap_sim::rng::stream_rng(seed, 0xA9u64);
    let topo = select::ap_topology(&ctx.tb, &ctx.lm, 5, &mut rng)
        .expect("AP topology exists on this seed");
    println!("APs: {:?}", topo.aps);
    for (k, &(s, r)) in topo.links.iter().enumerate() {
        println!(
            "cell {k}: {} -> {} (PRR {:.2}, RSS {:.0} dBm)",
            s,
            r,
            ctx.lm.prr(s, r),
            ctx.lm.rss_dbm(s, r)
        );
    }

    for (label, protocol) in [
        ("802.11 (CS, acks)", Protocol::cs_on()),
        ("CMAP", Protocol::cmap()),
    ] {
        let mut world = build_world(&ctx, seed ^ 0xBEEF);
        let flows: Vec<u16> = topo
            .links
            .iter()
            .map(|&(s, r)| world.add_flow(s, r, PAYLOAD))
            .collect();
        protocol.install(&mut world);
        world.run_until(spec.duration);

        println!("\n{label}:");
        let mut total = 0.0;
        for (k, &f) in flows.iter().enumerate() {
            let t =
                world
                    .stats()
                    .flow_throughput_mbps(f, PAYLOAD, spec.measure_from(), spec.duration);
            total += t;
            println!("  cell {k}: {t:5.2} Mbit/s");
        }
        println!("  aggregate: {total:5.2} Mbit/s");
    }
}
