//! Watch the conflict map converge: run a *conflicting* pair (both
//! receivers are blasted by the opposite sender) and print the evolution of
//! interferer lists, defer tables and per-second throughput.
//!
//! ```text
//! cargo run --release --example conflict_map_trace
//! ```

use cmap_suite::prelude::*;
use cmap_suite::topo::micro::CONFLICTING;

fn main() {
    let phy = PhyConfig::default();
    let n = 4;
    let medium = MediumBuilder::new(&phy).rss_links(n, CONFLICTING).build();
    let mut world = World::builder().medium(medium).phy(phy).seed(11).build();
    let f1 = world.add_flow(0, 1, 1400);
    let f2 = world.add_flow(2, 3, 1400);
    for node in 0..n {
        world.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
    }

    println!("conflicting pair: u(0)->v(1) and x(2)->y(3); per-second trace:\n");
    println!(
        "{:>4} {:>7} {:>7} {:>9} {:>11} {:>11}",
        "sec", "u->v", "x->y", "defers", "defer(u)", "defer(x)"
    );
    let mut last_defers = 0;
    for sec in 1..=15u64 {
        world.run_until(time::secs(sec));
        let t1 = world
            .stats()
            .flow_throughput_mbps(f1, 1400, time::secs(sec - 1), time::secs(sec));
        let t2 = world
            .stats()
            .flow_throughput_mbps(f2, 1400, time::secs(sec - 1), time::secs(sec));
        let defers = world.stats().counter(CounterId::CmapDefer);
        let table_len = |node: usize| {
            world
                .mac_ref(node)
                .as_any()
                .downcast_ref::<CmapMac>()
                .unwrap()
                .defer_table()
                .len_at(world.now())
        };
        println!(
            "{sec:>4} {t1:>7.2} {t2:>7.2} {:>9} {:>11} {:>11}",
            defers - last_defers,
            table_len(0),
            table_len(2)
        );
        last_defers = defers;
    }

    println!("\nreceiver v's interferer list:");
    let v = world.mac_ref(1).as_any().downcast_ref::<CmapMac>().unwrap();
    for (src, interferer, rate) in v.interferer_tracker().entries_at(world.now()) {
        println!("  ({src} suffers from {interferer}) at {rate}");
    }
    println!("\nAfter convergence the pair alternates: aggregate approaches the");
    println!("single-link rate instead of mutual destruction (compare Fig 13).");
}
