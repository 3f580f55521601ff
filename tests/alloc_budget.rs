//! Allocation budget of CMAP's steady state. Twelve saturated CMAP flows
//! on the 50-node testbed floor run past their warm-up; over the next
//! stretch of simulated time the heap allocations per delivered data
//! packet must stay under [`BOUND`]. Virtual packets recycle their packet
//! lists, ACK construction prunes its records in place and the feedback
//! and concurrent-source buffers are reused, so what is left is amortised
//! growth. A path that allocates per virtual packet or per ACK again shows
//! up here, long before it shows in a benchmark.
//!
//! The count is exact for a seed (single-threaded, seeded world; the
//! debug-assertion test profile). While each virtual packet got fresh
//! packet lists, each ACK rebuilt the receiver's maps and each ACK or
//! repack left a fresh feedback vector behind, the window read 2,654
//! allocations for 3,837 delivered packets, 0.692 per packet; with the
//! lists recycled and the maps pruned in place, 405, 0.106 per packet.
//! [`BOUND`] sits between the two.
//!
//! This test is its own binary because it installs a counting global
//! allocator, and it holds one `#[test]` so that no other test allocates
//! while it counts.

use cmap_suite::experiments::runner::{self, Spec};
use cmap_suite::experiments::Protocol;
use cmap_suite::obs::alloc::{allocations, CountingAlloc};
use cmap_suite::sim::time::secs;
use cmap_suite::sim::World;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations allowed per delivered data packet after warm-up.
const BOUND: f64 = 0.25;

/// Data packets delivered so far over `flows`.
fn delivered(world: &World, flows: &[u16]) -> usize {
    flows
        .iter()
        .map(|&f| world.stats().flow(f).arrivals.len())
        .sum()
}

#[test]
fn saturated_cmap_allocates_little_per_delivered_packet() {
    let spec = Spec::default();
    let ctx = runner::testbed_ctx(&spec);
    // Twelve node-disjoint links, the first potential links in index order.
    let n = ctx.tb.len();
    let mut used = vec![false; n];
    let mut links = Vec::new();
    for (s, d) in (0..n).flat_map(|s| (0..n).map(move |d| (s, d))) {
        if links.len() < 12 && s != d && !used[s] && !used[d] && ctx.lm.potential_link(s, d) {
            (used[s], used[d]) = (true, true);
            links.push((s, d));
        }
    }
    assert_eq!(links.len(), 12, "the floor has twelve disjoint links");
    let mut world = runner::build_world(&ctx, spec.run_seed);
    let flows: Vec<u16> = links
        .iter()
        .map(|&(s, d)| world.add_flow(s, d, runner::PAYLOAD))
        .collect();
    Protocol::cmap().install(&mut world);
    world.run_until(secs(3));

    let (pkts0, allocs0) = (delivered(&world, &flows), allocations());
    world.run_until(secs(6));
    let (pkts1, allocs1) = (delivered(&world, &flows), allocations());
    let pkts = pkts1 - pkts0;
    assert!(pkts > 1000, "the flows are saturated: {pkts} delivered");
    let per_pkt = (allocs1 - allocs0) as f64 / pkts as f64;
    assert!(
        per_pkt < BOUND,
        "{} allocations for {pkts} delivered packets: {per_pkt:.4} per packet, over {BOUND}",
        allocs1 - allocs0
    );
}
