//! Byte-level determinism regression: two runs of the same exposed-terminal
//! scenario with the same seed must leave *identical* statistics — not just
//! matching summary numbers, but equal canonical serializations of every
//! arrival time, virtual-packet flag and counter (`Stats::snapshot`).
//!
//! This is the test the `clippy.toml` hash-container/wall-clock bans exist to
//! protect: any hash-ordered iteration or ambient-state leak on the packet
//! path eventually shifts one timestamp, and the snapshots stop matching.

use cmap_suite::experiments::{
    runner::{self, Spec},
    Protocol,
};
use cmap_suite::sim::rng::stream_rng;
use cmap_suite::sim::time::secs;
use cmap_suite::topo::select;

fn run_snapshot(spec: &Spec, run_seed: u64) -> String {
    let ctx = runner::testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    let pair = pairs.first().expect("an exposed-terminal pair exists");

    let mut world = runner::build_world(&ctx, run_seed);
    world.add_flow(pair.s1, pair.r1, spec.payload);
    world.add_flow(pair.s2, pair.r2, spec.payload);
    Protocol::cmap().install(&mut world);
    world.run_until(spec.duration);
    world.stats().snapshot()
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let spec = Spec {
        duration: secs(5),
        configs: 4,
        ..Spec::default()
    };
    let a = run_snapshot(&spec, 11);
    let b = run_snapshot(&spec, 11);
    assert!(!a.is_empty(), "snapshot recorded nothing");
    assert!(
        a.contains("vpkt") && a.contains("counter"),
        "snapshot missing sections:\n{a}"
    );
    assert_eq!(a, b, "same-seed runs diverged");
}

#[test]
fn different_seeds_change_the_snapshot() {
    let spec = Spec {
        duration: secs(5),
        configs: 4,
        ..Spec::default()
    };
    let a = run_snapshot(&spec, 11);
    let b = run_snapshot(&spec, 12);
    assert_ne!(a, b, "run seed had no effect on the statistics");
}
