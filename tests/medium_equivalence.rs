//! Medium gates: the link list against an oracle it did not build, its
//! two sources against each other, and the testbed-scale outcome pin.
//!
//! 1. With `epsilon_db = 0` a matrix-fed [`Medium`] must answer every
//!    query — reachability, gains, delays — exactly as a naive walk of
//!    the matrix written here does (property-tested over random
//!    topologies up to 64 nodes).
//! 2. The two sources that feed it — a gain matrix, or positions plus a
//!    link model — must build the same medium from the same geometry:
//!    equal link sets bit for bit, equal fingerprints, byte-identical
//!    statistics under both MACs, and a checkpoint taken over one
//!    restores into a world over the other.
//! 3. The 50-node testbed path is pinned: the office-floor scenario's
//!    `Stats::snapshot()` must hash to the committed baseline in
//!    `tests/data/dense50_snapshot.fnv`. Any byte drift on the
//!    testbed-scale path — however the medium internals are refactored —
//!    fails here before it can silently invalidate published figures.

use proptest::prelude::*;

use cmap_suite::experiments::{runner, Protocol, Spec};
use cmap_suite::obs::fnv1a64;
use cmap_suite::phy::{dbm_to_mw, propagation};
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

/// One directed link: `(tx, rx, gain bits, delay ns)`.
type Link = (usize, usize, u64, u64);

/// The oracle: every ordered pair of the matrix whose received power
/// reaches the delivery floor, in row-major order.
fn naive_links(n: usize, gains_db: &[f64], delays: &[u64], phy: &PhyConfig) -> Vec<Link> {
    let tx_power_mw = dbm_to_mw(phy.tx_power_dbm);
    let floor_mw = dbm_to_mw(phy.delivery_floor_dbm);
    let mut links = Vec::new();
    for tx in 0..n {
        for rx in (0..n).filter(|&rx| rx != tx) {
            let gain = dbm_to_mw(gains_db[tx * n + rx]);
            if tx_power_mw * gain >= floor_mw {
                links.push((tx, rx, gain.to_bits(), delays[tx * n + rx]));
            }
        }
    }
    links
}

/// What `medium` answers for every ordered pair: the links it reports
/// reachable, and gain 0 / delay 0 everywhere else.
fn stored_links(medium: &Medium) -> Vec<Link> {
    let mut links = Vec::new();
    for tx in (0..medium.len()).map(NodeId::new) {
        let reach = medium.reachable(tx);
        for rx in (0..medium.len()).map(NodeId::new) {
            let (gain, delay) = (medium.gain(tx, rx), medium.delay_ns(tx, rx));
            if reach.contains(&rx) {
                links.push((tx.index(), rx.index(), gain.to_bits(), delay));
            } else {
                assert_eq!((gain.to_bits(), delay), (0, 0), "unreachable ({tx}, {rx})");
            }
        }
    }
    links
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_source_matches_the_naive_walk((n, gains, delays) in topology()) {
        let phy = PhyConfig::default();
        let medium = MediumBuilder::new(&phy).gains_db(n, &gains, &delays).build();
        prop_assert_eq!(medium.len(), n);
        prop_assert_eq!(stored_links(&medium), naive_links(n, &gains, &delays, &phy));
    }
}

/// Three sender→receiver pairs strung along a street, the far ends out
/// of each other's reach.
const STREET: [(f64, f64); 8] = [
    (0.0, 0.0),
    (12.0, 0.0),
    (55.0, 8.0),
    (66.0, 3.0),
    (140.0, 20.0),
    (150.0, 25.0),
    (230.0, 10.0),
    (240.0, 0.0),
];
const STREET_FLOWS: [(usize, usize); 3] = [(0, 1), (2, 3), (4, 5)];

fn street_model(_tx: usize, _rx: usize, dist_m: f64) -> f64 {
    -propagation::path_loss_db(dist_m, 3.3)
}

/// The street materialised pair by pair, as a caller without a spatial
/// index would hand it over.
fn street_matrix() -> (Vec<f64>, Vec<u64>) {
    let n = STREET.len();
    let mut gains = vec![f64::NEG_INFINITY; n * n];
    let mut delays = vec![0u64; n * n];
    for tx in 0..n {
        for rx in (0..n).filter(|&rx| rx != tx) {
            let (dx, dy) = (STREET[tx].0 - STREET[rx].0, STREET[tx].1 - STREET[rx].1);
            let dist = (dx.powi(2) + dy.powi(2)).sqrt();
            gains[tx * n + rx] = street_model(tx, rx, dist);
            delays[tx * n + rx] = propagation::propagation_delay_ns(dist);
        }
    }
    (gains, delays)
}

fn street_from_matrix(gains: &[f64], delays: &[u64]) -> Medium {
    MediumBuilder::new(&PhyConfig::default())
        .gains_db(STREET.len(), gains, delays)
        .build()
}

fn street_from_positions() -> Medium {
    MediumBuilder::new(&PhyConfig::default())
        .positions(STREET.to_vec(), 300.0, f64::NEG_INFINITY, street_model)
        .build()
}

/// A world over `medium` with the street's flows and `proto` installed.
fn street_world(medium: Medium, proto: &Protocol) -> World {
    let mut w = World::builder()
        .medium(medium)
        .phy(PhyConfig::default())
        .seed(7)
        .build();
    for (src, dst) in STREET_FLOWS {
        w.add_flow(src, dst, 1400);
    }
    proto.install(&mut w);
    w
}

#[test]
fn same_seed_sim_is_byte_identical_across_sources() {
    let (gains, delays) = street_matrix();
    let links = stored_links(&street_from_matrix(&gains, &delays));
    let n = STREET.len();
    assert!(
        links.len() > 2 * STREET_FLOWS.len() && links.len() < n * (n - 1),
        "the street should be neither disconnected nor a clique: {} links",
        links.len()
    );
    assert_eq!(links, stored_links(&street_from_positions()));
    assert_eq!(
        street_from_matrix(&gains, &delays).fingerprint(),
        street_from_positions().fingerprint()
    );
    for proto in [Protocol::cmap(), Protocol::cs_on()] {
        let mut straight = street_world(street_from_matrix(&gains, &delays), &proto);
        straight.run_until(millis(500));
        let want = straight.stats().snapshot();
        assert!(!want.is_empty(), "snapshot recorded nothing");

        let mut placed = street_world(street_from_positions(), &proto);
        placed.run_until(millis(500));
        assert_eq!(
            want,
            placed.stats().snapshot(),
            "{}: sources diverged under identical seed and geometry",
            proto.label()
        );

        // A checkpoint does not remember how its medium was fed.
        let mut first_half = street_world(street_from_matrix(&gains, &delays), &proto);
        first_half.run_until(millis(250));
        let ckpt = first_half.checkpoint().expect("checkpoint at mid-run");
        let mut resumed = street_world(street_from_positions(), &proto);
        resumed.restore(&ckpt).expect("restore across sources");
        resumed.run_until(millis(500));
        assert_eq!(
            want,
            resumed.stats().snapshot(),
            "{}: resumed run diverged",
            proto.label()
        );
    }
}

#[test]
fn fingerprint_sees_one_gain_bit_one_delay_and_one_link() {
    let (gains, delays) = street_matrix();
    let base = street_from_matrix(&gains, &delays).fingerprint();
    let link = 1; // 0→1, a stored link

    let mut nudged = gains.clone();
    nudged[link] = f64::from_bits(nudged[link].to_bits() + 1);
    assert_ne!(
        dbm_to_mw(nudged[link]).to_bits(),
        dbm_to_mw(gains[link]).to_bits(),
        "the nudge must survive the dB → linear conversion"
    );
    assert_ne!(street_from_matrix(&nudged, &delays).fingerprint(), base);

    let mut later = delays.clone();
    later[link] += 1;
    assert_ne!(street_from_matrix(&gains, &later).fingerprint(), base);

    let mut cut = gains.clone();
    cut[link] = f64::NEG_INFINITY;
    assert_ne!(street_from_matrix(&cut, &delays).fingerprint(), base);
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
