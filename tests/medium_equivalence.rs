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
//! 4. The benchmark's 3,000-node position-fed city is pinned the same
//!    way (`tests/data/city_medium.fnv`): its fingerprint, its pruning
//!    counts, the bits of its error bound, and a short CMAP run's
//!    snapshot.
//! 5. Position-fed builds over random geometry equal the matrix-fed build
//!    of the same range-cut geometry, and the tail charge a position-fed
//!    build records covers, per receiver, what the pairs it never
//!    evaluated actually carry.
//! 6. A world restored in the middle of a fan-out, over a fresh medium
//!    that has built no arrival row yet, runs on to the uninterrupted
//!    run's bytes.
//! 7. A clustered deployment's position-fed medium is pinned
//!    (`tests/data/clustered_medium.fnv`), and over random layouts from
//!    all three city generators, evaluated across their whole span, the
//!    position-fed build equals the matrix-fed build row for row.

mod support;

use proptest::prelude::*;

use cmap_suite::bench::{runner::Spec, Protocol};
use cmap_suite::obs::fnv1a64;
use cmap_suite::phy::{dbm_to_mw, propagation};
use cmap_suite::prelude::*;
use cmap_suite::sim::time::{millis, secs, Time};
use cmap_suite::sim::DELIVERY_FLOOR_DBM;
use support::exposed_pair_world;

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
    let floor_mw = dbm_to_mw(DELIVERY_FLOOR_DBM);
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

/// A geometry materialised pair by pair, as a caller without a spatial
/// index would hand it over: every ordered pair within `range_m` priced
/// by `model`, every other pair at −∞ dB.
fn geometry_matrix(
    pos: &[(f64, f64)],
    range_m: f64,
    model: impl Fn(usize, usize, f64) -> f64,
) -> (Vec<f64>, Vec<u64>) {
    let n = pos.len();
    let mut gains = vec![f64::NEG_INFINITY; n * n];
    let mut delays = vec![0u64; n * n];
    for tx in 0..n {
        for rx in (0..n).filter(|&rx| rx != tx) {
            let (dx, dy) = (pos[tx].0 - pos[rx].0, pos[tx].1 - pos[rx].1);
            let d2 = dx.powi(2) + dy.powi(2);
            if d2 <= range_m * range_m {
                let dist = d2.sqrt();
                gains[tx * n + rx] = model(tx, rx, dist);
                delays[tx * n + rx] = propagation::propagation_delay_ns(dist);
            }
        }
    }
    (gains, delays)
}

fn street_matrix() -> (Vec<f64>, Vec<u64>) {
    geometry_matrix(&STREET, 300.0, street_model)
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

/// A random deployment: 2–300 nodes scattered over a random box, a random
/// evaluation range, ε ∈ {0, 3} dB and a shadowing salt.
fn deployment() -> impl Strategy<Value = (Vec<(f64, f64)>, f64, f64, u64)> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        let n = 2 + rng.below(299) as usize;
        let (w, h) = (
            10.0 + rng.unit_f64() * 1990.0,
            10.0 + rng.unit_f64() * 1990.0,
        );
        let pos = (0..n)
            .map(|_| (rng.unit_f64() * w, rng.unit_f64() * h))
            .collect();
        let range_m = 5.0 + rng.unit_f64() * 595.0;
        let epsilon_db = if rng.below(2) == 0 { 0.0 } else { 3.0 };
        (pos, range_m, epsilon_db, rng.next_u64())
    })
}

/// Log-distance loss plus up to ±12 dB of shadowing hashed from `salt` and
/// the unordered pair: reciprocal, as a position-fed build requires.
fn shadowed(salt: u64) -> impl Fn(usize, usize, f64) -> f64 + Copy {
    move |a, b, dist_m| {
        let mut h = salt ^ ((a.min(b) as u64) << 32) ^ a.max(b) as u64;
        for _ in 0..2 {
            h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        -propagation::path_loss_db(dist_m, 3.0) + 24.0 * unit - 12.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The street test over random geometry: a position-fed medium (no
    /// tail charge) is the matrix-fed medium of the same geometry with
    /// every out-of-range pair at −∞ dB, down to the run it produces.
    #[test]
    fn position_source_matches_its_range_cut_matrix(
        (pos, range_m, epsilon_db, salt) in deployment()
    ) {
        let phy = PhyConfig::default();
        let model = shadowed(salt);
        let n = pos.len();
        let (gains, delays) = geometry_matrix(&pos, range_m, model);
        let matrix = MediumBuilder::new(&phy)
            .epsilon_db(epsilon_db)
            .gains_db(n, &gains, &delays)
            .build();
        let placed = MediumBuilder::new(&phy)
            .epsilon_db(epsilon_db)
            .positions(pos, range_m, f64::NEG_INFINITY, model)
            .build();
        prop_assert_eq!(stored_links(&placed), stored_links(&matrix));
        let got = placed.sparse_stats().expect("every medium records its pruning");
        let want = matrix.sparse_stats().expect("every medium records its pruning");
        prop_assert_eq!(got.pruned, want.pruned);
        prop_assert_eq!(got.error_bound_db.to_bits(), want.error_bound_db.to_bits());
        prop_assert_eq!(placed.fingerprint(), matrix.fingerprint());
        prop_assert_eq!(
            cmap_snapshot(placed, 4, millis(20)),
            cmap_snapshot(matrix, 4, millis(20))
        );
    }
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
    let mut world = exposed_pair_world(&spec, 11);
    Protocol::cmap().install(&mut world);
    world.run_until(spec.duration);
    world.stats().snapshot()
}

/// The benchmark's `city_cmap` / `city_dcf` medium at `n` nodes (3,000 in
/// the benchmark), built as `benchmark/src/workload.rs` builds it: a
/// jittered street grid, ε = 3 dB, evaluated out to where a 3σ up-fade
/// cannot lift a link above the noise floor.
fn benchmark_city(n: usize) -> Medium {
    let phy = PhyConfig::default();
    let dep =
        cmap_suite::topo::grid_city(n, 30.0, 5.0, cmap_suite::topo::ChannelModel::default(), 42);
    let min_gain_db = phy.noise_floor_dbm - phy.tx_power_dbm;
    MediumBuilder::new(&phy)
        .epsilon_db(3.0)
        .positions(
            dep.positions.clone(),
            dep.channel.eval_range_m(min_gain_db),
            dep.channel.tail_gain_db(min_gain_db),
            dep.gain_fn(),
        )
        .build()
}

/// `Stats::snapshot()` of a seed-1 CMAP run over `medium` until `until`
/// ([`cmap_world`]). Receptions are scheduled in the medium's arrival
/// order, so a row out of delay order moves the snapshot; the order among
/// equal delays does not reach it and is held by `cmap-sim`'s own medium
/// tests.
fn cmap_snapshot(medium: Medium, sources: usize, until: Time) -> String {
    let mut world = cmap_world(medium, sources);
    world.run_until(until);
    world.stats().snapshot()
}

/// A seed-1 CMAP world over `medium`: `sources` senders spread over the
/// node range, each sending to its strongest neighbour (a sender with none
/// sends nothing).
fn cmap_world(medium: Medium, sources: usize) -> World {
    let n = medium.len();
    let sources = sources.min(n);
    let flows: Vec<(NodeId, NodeId)> = (0..sources)
        .map(|k| NodeId::new(k * n / sources))
        .filter_map(|src| {
            let best = medium
                .reachable(src)
                .iter()
                .copied()
                .max_by(|&a, &b| medium.gain(src, a).total_cmp(&medium.gain(src, b)))?;
            Some((src, best))
        })
        .collect();
    let mut world = World::builder()
        .medium(medium)
        .phy(PhyConfig::default())
        .seed(1)
        .build();
    for (src, dst) in flows {
        world.add_flow(src, dst, 1400);
    }
    Protocol::cmap().install(&mut world);
    world
}

/// `key value` lines of a committed pin file, comments skipped.
fn pin_lines(committed: &str) -> Vec<(&str, &str)> {
    committed
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("pin line is `key value`"))
        .collect()
}

#[test]
fn city_medium_matches_committed_pin() {
    let medium = benchmark_city(3000);
    let st = *medium
        .sparse_stats()
        .expect("every medium records its pruning");
    let got = [
        ("fingerprint", format!("{:#018x}", medium.fingerprint())),
        ("links", st.links.to_string()),
        ("pruned", st.pruned.to_string()),
        ("tail_pairs", st.tail_pairs.to_string()),
        (
            "error_bound_db_bits",
            format!("{:#018x}", st.error_bound_db.to_bits()),
        ),
        (
            "snapshot",
            format!(
                "{:#018x}",
                fnv1a64(cmap_snapshot(medium, 64, millis(50)).as_bytes())
            ),
        ),
    ];
    let want = pin_lines(include_str!("data/city_medium.fnv"));
    let got: Vec<(&str, &str)> = got.iter().map(|(k, v)| (*k, v.as_str())).collect();
    assert_eq!(
        got, want,
        "the benchmark city's medium drifted from tests/data/city_medium.fnv \
         (error_bound_db {} dB)",
        st.error_bound_db
    );
}

/// A clustered deployment's medium — hotspots instead of a street grid, so
/// rows are long and a row's partners come from many grid cells — built
/// as [`benchmark_city`] builds the city (ε = 3 dB, the channel's
/// evaluation range and finite tail gain) and pinned the same way
/// (`tests/data/clustered_medium.fnv`): fingerprint, link and pruning
/// counts, tail pairs and the bits of the error bound.
#[test]
fn clustered_medium_matches_committed_pin() {
    let phy = PhyConfig::default();
    let channel = cmap_suite::topo::ChannelModel::default();
    let dep = cmap_suite::topo::clustered(2000, 12, 2500.0, 2500.0, 70.0, channel, 42);
    let min_gain_db = phy.noise_floor_dbm - phy.tx_power_dbm;
    let medium = MediumBuilder::new(&phy)
        .epsilon_db(3.0)
        .positions(
            dep.positions.clone(),
            channel.eval_range_m(min_gain_db),
            channel.tail_gain_db(min_gain_db),
            dep.gain_fn(),
        )
        .build();
    let st = *medium
        .sparse_stats()
        .expect("every medium records its pruning");
    let got = [
        ("fingerprint", format!("{:#018x}", medium.fingerprint())),
        ("links", st.links.to_string()),
        ("pruned", st.pruned.to_string()),
        ("tail_pairs", st.tail_pairs.to_string()),
        (
            "error_bound_db_bits",
            format!("{:#018x}", st.error_bound_db.to_bits()),
        ),
    ];
    let want = pin_lines(include_str!("data/clustered_medium.fnv"));
    let got: Vec<(&str, &str)> = got.iter().map(|(k, v)| (*k, v.as_str())).collect();
    assert_eq!(
        got, want,
        "the clustered medium drifted from tests/data/clustered_medium.fnv \
         (error_bound_db {} dB)",
        st.error_bound_db
    );
}

/// A random layout from one of the three generators the scale experiments
/// draw cities from — street grid, hotspots, dart-thrown scatter — with
/// 2–400 nodes, a random shadowing field and ε ∈ {0, 1.5, 3} dB.
fn generated_layout() -> impl Strategy<Value = (cmap_suite::topo::Deployment, f64)> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        use cmap_suite::topo::{clustered, grid_city, poisson_disk, ChannelModel};
        let n = 2 + rng.below(399) as usize;
        let channel = ChannelModel {
            salt: rng.next_u64(),
            ..ChannelModel::default()
        };
        let seed = rng.next_u64();
        // Block or spread, jitter or cluster count, and the square's side.
        let (a, b, side) = (
            rng.unit_f64(),
            rng.unit_f64(),
            20.0 + rng.unit_f64() * 980.0,
        );
        let dep = match rng.below(3) {
            0 => grid_city(n, 5.0 + a * 45.0, b * 10.0, channel, seed),
            1 => clustered(
                n,
                1 + (b * 8.0) as usize,
                side,
                side,
                5.0 + a * 95.0,
                channel,
                seed,
            ),
            // A separation of half the side over √n: a quarter of the
            // square packing, well short of where dart throwing jams.
            _ => poisson_disk(
                n,
                side,
                side,
                side / (2.0 * (n as f64).sqrt()),
                channel,
                seed,
            ),
        };
        let epsilon_db = [0.0, 1.5, 3.0][rng.below(3) as usize];
        (dep, epsilon_db)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every pair of a generated layout evaluated — the range spans the
    /// layout, the tail is −∞ — so the position-fed build, which prices
    /// each unordered pair once, must store exactly what the matrix-fed
    /// build of the same pairs stores: the same rows, gains to the bit and
    /// delays, the same pruned count and error-bound bits.
    #[test]
    fn position_build_equals_matrix_build_over_generated_layouts(
        (dep, epsilon_db) in generated_layout()
    ) {
        let phy = PhyConfig::default();
        let n = dep.len();
        let (mut lo, mut hi) = ((f64::INFINITY, f64::INFINITY), (f64::NEG_INFINITY, f64::NEG_INFINITY));
        for &(x, y) in &dep.positions {
            (lo, hi) = ((lo.0.min(x), lo.1.min(y)), (hi.0.max(x), hi.1.max(y)));
        }
        let range_m = 1.0 + (hi.0 - lo.0).hypot(hi.1 - lo.1);
        let (gains, delays) = geometry_matrix(&dep.positions, range_m, dep.gain_fn());
        let matrix = MediumBuilder::new(&phy)
            .epsilon_db(epsilon_db)
            .gains_db(n, &gains, &delays)
            .build();
        let placed = MediumBuilder::new(&phy)
            .epsilon_db(epsilon_db)
            .positions(dep.positions.clone(), range_m, f64::NEG_INFINITY, dep.gain_fn())
            .build();
        for tx in (0..n).map(NodeId::new) {
            prop_assert_eq!(placed.reachable(tx), matrix.reachable(tx));
            for &rx in matrix.reachable(tx) {
                prop_assert_eq!(placed.gain(tx, rx).to_bits(), matrix.gain(tx, rx).to_bits());
                prop_assert_eq!(placed.delay_ns(tx, rx), matrix.delay_ns(tx, rx));
            }
        }
        let got = placed.sparse_stats().expect("every medium records its pruning");
        let want = matrix.sparse_stats().expect("every medium records its pruning");
        prop_assert_eq!((got.links, got.pruned, got.tail_pairs), (want.links, want.pruned, 0));
        prop_assert_eq!(got.error_bound_db.to_bits(), want.error_bound_db.to_bits());
        prop_assert_eq!(placed.fingerprint(), matrix.fingerprint());
    }
}

/// A medium builds a transmitter's arrival row on its first frame, so a
/// world restored from a checkpoint has no rows while its transmissions
/// are partway through their fan-outs. Cut a 60-node city's CMAP run
/// every 50 ns over its first 20 µs, restore each cut into a fresh world
/// and run on: every resumed run ends on the uninterrupted run's bytes.
#[test]
fn restore_into_unbuilt_rows_mid_fanout_is_byte_identical() {
    use cmap_suite::obs::TraceEvent;

    let until = millis(10);
    let city = || cmap_world(benchmark_city(60), 8);
    let reference = {
        let mut w = city();
        w.run_until(until);
        w.stats().snapshot()
    };
    // Where the cuts must land: between a transmission's first and last
    // `FrameStart` (tracing observes without perturbing).
    let spans: Vec<(Time, Time)> = {
        let mut w = city();
        w.enable_trace(1 << 10);
        w.run_until(20_000);
        let trace = w.take_trace().expect("tracing was enabled");
        let medium = w.medium();
        trace
            .records()
            .filter_map(|r| match r.ev {
                TraceEvent::TxStart { node, .. } => {
                    let node = NodeId::new(node as usize);
                    let delays = medium
                        .reachable(node)
                        .iter()
                        .map(|&rx| medium.delay_ns(node, rx));
                    let (first, last) = (delays.clone().min()?, delays.max()?);
                    Some((r.at_ns + first, r.at_ns + last))
                }
                _ => None,
            })
            .collect()
    };
    let mut mid_fanout = 0;
    for cut in (50..=20_000).step_by(50) {
        let ckpt = {
            let mut w = city();
            w.run_until(cut);
            w.checkpoint().expect("checkpoint")
        };
        mid_fanout += usize::from(spans.iter().any(|&(a, b)| a <= cut && cut < b));
        let mut resumed = city();
        resumed.restore(&ckpt).expect("restore into unbuilt rows");
        resumed.run_until(until);
        assert_eq!(
            resumed.stats().snapshot(),
            reference,
            "run cut at {cut} ns diverged from the uninterrupted run"
        );
    }
    assert!(mid_fanout > 0, "no cut landed inside a fan-out");
}

/// `ChannelModel::tail_gain_db` is not a per-pair bound: a Box–Muller
/// shadowing draw can pass the 3σ margin `eval_range_m` leaves. What the
/// error bound rests on is the per-*receiver* charge — the receiver's
/// out-of-range pair count times the tail power — covering the exact
/// power of those pairs. Walk every out-of-range pair of a 600-node city:
/// each receiver's charge covers its exact sum, and the medium's bound
/// (ε = 0, so nothing but the tail is charged) is the worst charge.
#[test]
fn tail_charge_covers_each_receivers_out_of_range_power() {
    let phy = PhyConfig::default();
    let channel = cmap_suite::topo::ChannelModel::default();
    let dep = cmap_suite::topo::grid_city(600, 30.0, 5.0, channel, 42);
    let min_gain_db = phy.noise_floor_dbm - phy.tx_power_dbm;
    let (range_m, tail_db) = (
        channel.eval_range_m(min_gain_db),
        channel.tail_gain_db(min_gain_db),
    );
    let n = dep.len();
    let tx_mw = dbm_to_mw(phy.tx_power_dbm);
    let tail_mw = tx_mw * dbm_to_mw(tail_db);
    let (mut tail_pairs, mut above_tail, mut worst_charge_mw) = (0u64, 0u64, 0.0f64);
    for rx in 0..n {
        let (mut beyond, mut exact_mw) = (0u64, 0.0);
        for tx in (0..n).filter(|&tx| tx != rx) {
            let (p, q) = (dep.positions[tx], dep.positions[rx]);
            let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
            if d2 > range_m * range_m {
                let gain_db = channel.link_gain_db(tx, rx, d2.sqrt());
                beyond += 1;
                above_tail += u64::from(gain_db > tail_db);
                exact_mw += tx_mw * dbm_to_mw(gain_db);
            }
        }
        let charge_mw = beyond as f64 * tail_mw;
        assert!(
            charge_mw >= exact_mw,
            "rx {rx}: {beyond} out-of-range pairs charged {charge_mw:e} mW carry {exact_mw:e} mW"
        );
        tail_pairs += beyond;
        worst_charge_mw = worst_charge_mw.max(charge_mw);
    }
    assert!(
        above_tail > 0,
        "no out-of-range pair beat the tail gain; the per-pair caveat needs a bigger city"
    );
    let medium = MediumBuilder::new(&phy)
        .positions(dep.positions.clone(), range_m, tail_db, dep.gain_fn())
        .build();
    let st = medium
        .sparse_stats()
        .expect("every medium records its pruning");
    assert_eq!(st.tail_pairs, tail_pairs);
    let bound_db = 10.0 * (1.0 + worst_charge_mw / phy.noise_mw()).log10();
    assert_eq!(st.error_bound_db.to_bits(), bound_db.to_bits());
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
