//! Medium-engine equivalence gates.
//!
//! The sparse spatially-indexed medium is only allowed to be *faster*
//! than the dense matrix, never *different* where it claims exactness:
//!
//! 1. With `epsilon_db = 0` over the same gain matrix, every query the
//!    [`Medium`] API answers — gains, delays, reachability — must be
//!    bit-for-bit identical to the dense engine (property-tested over
//!    random topologies up to 64 nodes), and a full same-seed simulation
//!    over both engines must leave byte-identical statistics.
//! 2. The 50-node dense path itself is pinned: the office-floor
//!    scenario's `Stats::snapshot()` must hash to the committed baseline
//!    in `tests/data/dense50_snapshot.fnv`. Any byte drift on the
//!    testbed-scale path — however the medium internals are refactored —
//!    fails here before it can silently invalidate published figures.

use proptest::prelude::*;

use cmap_suite::experiments::{runner, Protocol, Spec};
use cmap_suite::obs::fnv1a64;
use cmap_suite::prelude::*;
use cmap_suite::sim::rng::stream_rng;
use cmap_suite::sim::time::{millis, secs};
use cmap_suite::topo::select;

/// A random directed gain/delay matrix: mostly disconnected, with a
/// band of plausible link gains where connected. (Built on the vendored
/// stub's `FnStrategy`, since the matrix size depends on the drawn `n`.)
fn topology() -> impl Strategy<Value = (usize, Vec<f64>, Vec<u64>)> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        let n = 2 + rng.below(63) as usize;
        let mut gains = Vec::with_capacity(n * n);
        let mut delays = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            // Draws below -120 dB stand in for "no link at all": roughly
            // half the pairs end up disconnected, like a real floor.
            let g = -200.0 + rng.unit_f64() * 160.0;
            gains.push(if g < -120.0 { f64::NEG_INFINITY } else { g });
            delays.push(rng.below(500));
        }
        for i in 0..n {
            gains[i * n + i] = f64::NEG_INFINITY;
            delays[i * n + i] = 0;
        }
        (n, gains, delays)
    })
}

fn engines(n: usize, gains: &[f64], delays: &[u64]) -> (Medium, Medium) {
    let phy = PhyConfig::default();
    let dense = MediumBuilder::new(&phy)
        .gains_db(n, gains, delays)
        .dense()
        .build();
    let sparse = MediumBuilder::new(&phy)
        .epsilon_db(0.0)
        .gains_db(n, gains, delays)
        .sparse()
        .build();
    (dense, sparse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_epsilon_zero_is_bitwise_dense((n, gains, delays) in topology()) {
        let (dense, sparse) = engines(n, &gains, &delays);
        prop_assert_eq!(dense.len(), n);
        prop_assert_eq!(sparse.len(), n);
        for tx in 0..n {
            let tx = NodeId::new(tx);
            // The exactness contract is over the kept link set: identical
            // reachability, and bit-identical gain/delay on every kept
            // link. (Sub-floor pairs are dropped by the sparse engine and
            // answered as gain 0 — the dense engine keeps the raw matrix
            // value there, but no simulation path consults it.)
            prop_assert_eq!(dense.reachable(tx), sparse.reachable(tx), "reachable({})", tx);
            for &rx in dense.reachable(tx) {
                prop_assert_eq!(
                    dense.gain(tx, rx).to_bits(),
                    sparse.gain(tx, rx).to_bits(),
                    "gain({}, {})", tx, rx
                );
                prop_assert_eq!(
                    dense.delay_ns(tx, rx),
                    sparse.delay_ns(tx, rx),
                    "delay({}, {})", tx, rx
                );
            }
        }
    }
}

/// Engineered 4-node exposed-terminal run over a given medium.
fn run_engine(medium: Medium, seed: u64) -> String {
    let phy = PhyConfig::default();
    let mut w = World::builder().medium(medium).phy(phy).seed(seed).build();
    w.add_flow(0, 1, 1400);
    w.add_flow(2, 3, 1400);
    for node in 0..4usize {
        w.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
    }
    w.run_until(millis(500));
    w.stats().snapshot()
}

#[test]
fn same_seed_sim_is_byte_identical_across_engines() {
    let phy = PhyConfig::default();
    let n = 4;
    let mut gains = vec![f64::NEG_INFINITY; n * n];
    let mut set = |a: usize, b: usize, rss_dbm: f64| {
        gains[a * n + b] = rss_dbm - phy.tx_power_dbm;
        gains[b * n + a] = rss_dbm - phy.tx_power_dbm;
    };
    set(0, 1, -60.0);
    set(2, 3, -60.0);
    set(0, 2, -75.0);
    set(0, 3, -93.0);
    set(2, 1, -93.0);
    let delays = vec![100u64; n * n];
    let (dense, sparse) = engines(n, &gains, &delays);
    let a = run_engine(dense, 7);
    let b = run_engine(sparse, 7);
    assert!(!a.is_empty(), "snapshot recorded nothing");
    assert_eq!(a, b, "engines diverged under identical seed and topology");
}

/// The 50-node office-floor scenario the committed baseline pins: the
/// same spec/seed/flows `determinism_snapshot.rs` exercises, run over
/// the dense testbed medium.
fn dense50_snapshot() -> String {
    let spec = Spec {
        duration: secs(5),
        configs: 4,
        ..Spec::default()
    };
    let ctx = runner::testbed_ctx(&spec);
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    let pair = pairs.first().expect("an exposed-terminal pair exists");
    let mut world = runner::build_world(&ctx, 11);
    world.add_flow(pair.s1, pair.r1, spec.payload);
    world.add_flow(pair.s2, pair.r2, spec.payload);
    Protocol::cmap().install(&mut world);
    world.run_until(spec.duration);
    world.stats().snapshot()
}

#[test]
fn dense50_snapshot_matches_committed_baseline() {
    let snap = dense50_snapshot();
    let got = fnv1a64(snap.as_bytes());
    let committed = include_str!("data/dense50_snapshot.fnv");
    let want = u64::from_str_radix(
        committed
            .lines()
            .find(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .expect("baseline file holds a hash line")
            .trim()
            .trim_start_matches("0x"),
        16,
    )
    .expect("baseline hash parses as hex");
    assert_eq!(
        got, want,
        "50-node dense-path snapshot drifted from the committed baseline \
         (got {got:#018x}). If the change is an intentional behavior change, \
         regenerate tests/data/dense50_snapshot.fnv; otherwise this is a \
         medium-refactor regression."
    );
}
