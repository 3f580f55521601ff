//! Allocation budget of a saturated testbed run. Twelve saturated flows on
//! the 50-node testbed floor run under CMAP and then under DCF, each in a
//! fresh world. Two counts are held per protocol, and a third for CMAP:
//!
//! * **Warm-up:** every heap allocation from building the world through
//!   its first 3 s of simulated time, where first-use growth lives: the
//!   interferer tracker's activity windows, map nodes, arrival lists, the
//!   radios' interference-profile arena, the frame pool's slots.
//! * **Steady state:** allocations per delivered data packet over the next
//!   3 s. A sent or repacked virtual packet holds its packets inline and
//!   the one being sent reuses one list, ACK construction prunes its
//!   records in place, the feedback and concurrent-source buffers are
//!   reused and each receiver's activity windows live in one arena whose
//!   slots are reused, so what is left is amortised growth.
//! * **Restore:** the allocations of building a fresh CMAP world and
//!   restoring the 6 s checkpoint into it. A restore allocates per
//!   container, not per entry: each list arena is reserved once, and sent
//!   virtual packets own no list.
//!
//! A path that allocates per virtual packet, per ACK or per overheard
//! neighbour again shows up here, long before it shows in a benchmark.
//!
//! The counts are exact for a seed (single-threaded, seeded world; the
//! debug-assertion test profile). Each bound sits between two measured
//! states of the code:
//!
//! * CMAP steady state: 2,654 allocations for 3,837 delivered packets
//!   (0.692 per packet) while each virtual packet got fresh packet lists,
//!   each ACK rebuilt the receiver's maps and each ACK or repack left a
//!   fresh feedback vector behind; 405 (0.106) with those recycled, while
//!   each (receiver, neighbour) pair still grew its own activity deque;
//!   163 (0.042) with the activity arena; 105 (0.027) once sent and
//!   repacked virtual packets held their packets inline.
//! * CMAP warm-up: 2,739 allocations with the per-pair deques, 1,650 with
//!   the activity arena, 1,482 with the radios' profile arena too, 1,432
//!   without a boxed fixed-rate controller per MAC, 1,273 with inline
//!   packet lists, 1,189 once each frame is composed at its final length,
//!   1,168 with each pool slot's reception powers sized once to the widest
//!   arrival row. The bound sits between the last two, so a frame buffer
//!   or a powers list grown in steps fails it.
//! * CMAP restore: 937 allocations while each sent or repacked virtual
//!   packet loaded its own packet list and each list arena grew entry by
//!   entry, 610 with inline packet lists and one reserve per arena.
//! * DCF, the control (it has no interferer tracker): 12 allocations for
//!   4,850 packets (0.0025) after the warm-up, before and after either
//!   arena; 385 in the warm-up while each radio grew its own interference
//!   profile `Vec`, 265 with one profile arena per radio bank, 217 with
//!   frames composed at their final length, 210 with powers sized once.
//!   The per-packet bound sits between that count and CMAP's, so
//!   CMAP-sized growth on the DCF path fails here, and the warm-up bound
//!   between 210 and 217, as CMAP's.
//!
//! This test is its own binary because it installs a counting global
//! allocator, and it holds one `#[test]` so that no other test allocates
//! while it counts.

use cmap_suite::bench::runner::{self, Spec, TestbedCtx};
use cmap_suite::bench::Protocol;
use cmap_suite::obs::alloc::{allocations, CountingAlloc};
use cmap_suite::sim::time::secs;
use cmap_suite::sim::World;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations allowed per delivered data packet after warm-up:
/// (CMAP, DCF).
const BOUND: (f64, f64) = (0.07, 0.02);

/// Heap allocations allowed from building a world through 3 s: (CMAP, DCF).
const WARMUP_BOUND: (u64, u64) = (1_180, 214);

/// Heap allocations allowed to build a fresh CMAP world and restore the
/// 6 s checkpoint into it.
const RESTORE_BOUND: u64 = 780;

/// Data packets delivered so far over `flows`.
fn delivered(world: &World, flows: &[u16]) -> usize {
    flows
        .iter()
        .map(|&f| world.stats().flow(f).arrivals.len())
        .sum()
}

/// A fresh world saturating `links` under `protocol`, and its flows.
fn fresh(
    ctx: &TestbedCtx,
    spec: &Spec,
    links: &[(usize, usize)],
    protocol: &Protocol,
) -> (World, Vec<u16>) {
    let mut world = runner::build_world(ctx, spec.run_seed);
    let flows = links
        .iter()
        .map(|&(s, d)| world.add_flow(s, d, runner::PAYLOAD))
        .collect();
    protocol.install(&mut world);
    (world, flows)
}

/// Saturate `links` under `protocol` in a fresh world: the allocations
/// from the build through 3 s, then over 3–6 s the allocations per
/// delivered data packet and the packet count, and the world at 6 s.
fn run(
    ctx: &TestbedCtx,
    spec: &Spec,
    links: &[(usize, usize)],
    protocol: &Protocol,
) -> (u64, f64, usize, World) {
    let allocs0 = allocations();
    let (mut world, flows) = fresh(ctx, spec, links, protocol);
    world.run_until(secs(3));

    let (pkts0, allocs1) = (delivered(&world, &flows), allocations());
    world.run_until(secs(6));
    let (pkts1, allocs2) = (delivered(&world, &flows), allocations());
    let pkts = pkts1 - pkts0;
    (
        allocs1 - allocs0,
        (allocs2 - allocs1) as f64 / pkts as f64,
        pkts,
        world,
    )
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

    let runs = [
        ("CMAP", Protocol::cmap(), BOUND.0, WARMUP_BOUND.0),
        ("DCF", Protocol::cs_on(), BOUND.1, WARMUP_BOUND.1),
    ];
    for (name, protocol, bound, warmup_bound) in runs {
        let (warmup, per_pkt, pkts, world) = run(&ctx, &spec, &links, &protocol);
        assert!(
            pkts > 1000,
            "{name}: the flows are saturated: {pkts} delivered"
        );
        assert!(
            warmup < warmup_bound,
            "{name}: {warmup} allocations from the build through 3 s, over {warmup_bound}"
        );
        assert!(
            per_pkt < bound,
            "{name}: {per_pkt:.4} allocations per delivered packet over 3-6 s ({pkts} packets), over {bound}"
        );
        if name == "CMAP" {
            let image = world.checkpoint().expect("checkpoint at 6 s");
            let allocs0 = allocations();
            let (mut restored, _) = fresh(&ctx, &spec, &links, &protocol);
            restored.restore(&image).expect("restore");
            let restore = allocations() - allocs0;
            assert!(
                restore < RESTORE_BOUND,
                "CMAP: {restore} allocations to build a world and restore 6 s into it, over {RESTORE_BOUND}"
            );
        }
    }
}
