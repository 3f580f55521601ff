//! Quickstart: build a hand-made exposed-terminal topology and watch CMAP
//! double throughput over carrier sense.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cmap_suite::prelude::*;
use cmap_suite::topo::micro::EXPOSED;

/// Build the canonical 4-node exposed-terminal world of the paper's Fig 1:
/// S→R and ES→ER, with the senders in range of each other but each receiver
/// out of range of the opposite sender.
fn exposed_world(phy: &PhyConfig, seed: u64) -> World {
    let medium = MediumBuilder::new(phy).rss_links(4, EXPOSED).build();
    World::builder()
        .medium(medium)
        .phy(phy.clone())
        .seed(seed)
        .build()
}

fn run(label: &str, install: impl Fn(&mut World)) -> (f64, f64) {
    let phy = PhyConfig::default();
    let mut world = exposed_world(&phy, 42);
    let f1 = world.add_flow(0, 1, 1400);
    let f2 = world.add_flow(2, 3, 1400);
    install(&mut world);
    world.run_until(time::secs(10));
    let w = |f| {
        world
            .stats()
            .flow_throughput_mbps(f, 1400, time::secs(3), time::secs(10))
    };
    let (t1, t2) = (w(f1), w(f2));
    println!(
        "{label:<28} S->R {t1:5.2}  ES->ER {t2:5.2}  aggregate {:5.2} Mbit/s",
        t1 + t2
    );
    (t1, t2)
}

fn main() {
    println!("Exposed terminals: two strong links whose senders hear each other.\n");

    let (a1, a2) = run("802.11 (carrier sense)", |w| {
        for node in 0..w.node_count() {
            w.set_mac(node, Box::new(DcfMac::new(DcfConfig::status_quo())));
        }
    });
    let (b1, b2) = run("CMAP", |w| {
        for node in 0..w.node_count() {
            w.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
        }
    });

    let gain = (b1 + b2) / (a1 + a2);
    println!("\nCMAP / 802.11 aggregate gain: {gain:.2}x (the paper reports ~2x, Fig 12)");
}
