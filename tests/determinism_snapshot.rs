//! Byte-level determinism regression: two runs of the same exposed-terminal
//! scenario with the same seed must leave *identical* statistics — not just
//! matching summary numbers, but equal canonical serializations of every
//! arrival time, virtual-packet flag and counter (`Stats::snapshot`).
//!
//! This is the test the `clippy.toml` hash-container/wall-clock bans exist to
//! protect: any hash-ordered iteration or ambient-state leak on the packet
//! path eventually shifts one timestamp, and the snapshots stop matching.

mod support;

use cmap_suite::bench::{runner::Spec, Protocol};
use cmap_suite::sim::time::secs;
use support::exposed_pair_world;

fn run_snapshot(spec: &Spec, run_seed: u64) -> String {
    let mut world = exposed_pair_world(spec, run_seed);
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
