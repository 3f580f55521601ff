//! The §3.5 extension in action: CMAP with conflict-map-informed bit-rate
//! adaptation, swept over link quality.
//!
//! For each link RSS, compares fixed 6 Mbit/s (the paper's setting), fixed
//! 54 Mbit/s (greedy), and the throughput-maximising adapter.
//!
//! ```text
//! cargo run --release --example rate_adaptation
//! ```

use cmap_suite::cmap::{CmapConfig, CmapMac, ThroughputRate};
use cmap_suite::prelude::*;

fn run(rss_dbm: f64, mode: &str, seed: u64) -> f64 {
    let phy = PhyConfig::default();
    let n = 2;
    let medium = MediumBuilder::new(&phy)
        .rss_links(n, &[(0, 1, rss_dbm)])
        .build();
    let mut w = World::builder().medium(medium).phy(phy).seed(seed).build();
    let f = w.add_flow(0, 1, 1400);
    for node in 0..n {
        let mac: Box<dyn Mac> = match mode {
            "fixed6" => Box::new(CmapMac::new(CmapConfig::default())),
            "fixed54" => Box::new(CmapMac::new(CmapConfig::default().at_rate(Rate::R54))),
            "adaptive" => Box::new(CmapMac::adaptive(
                CmapConfig::default(),
                ThroughputRate::full_ladder(),
            )),
            _ => unreachable!(),
        };
        w.set_mac(node, mac);
    }
    w.run_until(time::secs(12));
    w.stats()
        .flow_throughput_mbps(f, 1400, time::secs(6), time::secs(12))
}

fn main() {
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "RSS dBm", "fixed 6", "fixed 54", "adaptive"
    );
    for rss in [-60.0, -70.0, -78.0, -82.0, -86.0, -90.0] {
        let f6 = run(rss, "fixed6", 1);
        let f54 = run(rss, "fixed54", 2);
        let ad = run(rss, "adaptive", 3);
        println!("{rss:>10.0} {f6:>10.2} {f54:>10.2} {ad:>10.2}");
    }
    println!("\nThe adapter should track the upper envelope: 54 Mbit/s-class");
    println!("throughput on strong links without collapsing on weak ones.");
}
