//! The exposed-pair testbed world, written once for the root tests that
//! run it: the checkpoint scenarios (`ckpt_scenarios`), the determinism
//! and fault-determinism snapshots, the `dense50_snapshot.fnv` pin and the
//! frame-pool soak. Each of them holds bytes taken over this world.

use cmap_suite::bench::runner::{self, Spec};
use cmap_suite::sim::rng::stream_rng;
use cmap_suite::sim::World;
use cmap_suite::topo::select;

/// A testbed world with two flows on the first exposed-terminal pair
/// `spec`'s selection stream draws, ready for a protocol install. Every
/// call with the same inputs configures identically — exactly the
/// contract `World::restore` checks.
pub(crate) fn exposed_pair_world(spec: &Spec, run_seed: u64) -> World {
    let ctx = runner::testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    let pair = pairs.first().expect("an exposed-terminal pair exists");
    let mut world = runner::build_world(&ctx, run_seed);
    world.add_flow(pair.s1, pair.r1, runner::PAYLOAD);
    world.add_flow(pair.s2, pair.r2, runner::PAYLOAD);
    world
}
