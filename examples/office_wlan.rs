//! A realistic office WLAN: multiple access points on the 50-node testbed,
//! one active client each, CMAP vs the 802.11 status quo (the §5.6
//! scenario the paper's introduction motivates).
//!
//! ```text
//! cargo run --release --example office_wlan [seed]
//! ```

use cmap_experiments::runner::{build_world, radio_env, Spec, TestbedCtx, PAYLOAD};
use cmap_phy::Rate;
use cmap_suite::prelude::*;
use cmap_topo::{select, LinkMeasurements};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // Generate the building and survey its links, like §5.1.
    let phy = PhyConfig::default();
    let tb = Testbed::office_floor(seed);
    let lm = LinkMeasurements::analyze(&tb, &radio_env(&phy), Rate::R6, 1400);
    let ctx = TestbedCtx { tb, lm, phy };
    let spec = Spec {
        testbed_seed: seed,
        duration: time::secs(20),
        ..Spec::default()
    };

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

    for (label, install) in [
        (
            "802.11 (CS, acks)",
            Box::new(|w: &mut World| {
                for n in 0..w.node_count() {
                    w.set_mac(n, Box::new(DcfMac::new(DcfConfig::status_quo())));
                }
            }) as Box<dyn Fn(&mut World)>,
        ),
        (
            "CMAP",
            Box::new(|w: &mut World| {
                for n in 0..w.node_count() {
                    w.set_mac(n, Box::new(CmapMac::new(CmapConfig::default())));
                }
            }),
        ),
    ] {
        let mut world = build_world(&ctx, seed ^ 0xBEEF);
        let flows: Vec<u16> = topo
            .links
            .iter()
            .map(|&(s, r)| world.add_flow(s, r, PAYLOAD))
            .collect();
        install(&mut world);
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
