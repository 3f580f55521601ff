//! Determinism under parallelism: the worker-pool executor must be
//! invisible in every artifact. The same figure run at `--jobs 1` and
//! `--jobs 4` has to produce bit-identical samples, byte-identical JSON
//! reports (outside the timing block) and byte-identical stats snapshots —
//! the pool may only change wall-clock, never bytes.

use cmap_suite::exec;
use cmap_suite::experiments::exposed::fig12;
use cmap_suite::experiments::runner::Spec;
use cmap_suite::obs::{SpecBlock, TimingBlock};
use cmap_suite::prelude::*;
use cmap_suite::sim::time::secs;

/// Fig 12 at a small quick-scale spec, at the given pool width.
fn fig12_at(jobs: usize) -> Vec<cmap_suite::experiments::exposed::Curve> {
    let spec = Spec {
        duration: secs(6),
        configs: 4,
        jobs,
        ..Spec::default()
    };
    fig12(&spec)
}

#[test]
fn figure_samples_are_bit_identical_across_widths() {
    let serial = fig12_at(1);
    let wide = fig12_at(4);
    assert_eq!(serial.len(), wide.len());
    for (a, b) in serial.iter().zip(wide.iter()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.samples.len(), b.samples.len());
        for (i, (x, y)) in a.samples.iter().zip(b.samples.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "curve {} sample {i} diverged across pool widths: {x} vs {y}",
                a.label
            );
        }
    }
}

/// Build the figure's RunReport the way a harness binary would.
fn report_at(jobs: usize, wall_secs: f64) -> RunReport {
    let curves = fig12_at(jobs);
    let spec = SpecBlock {
        testbed_seed: 42,
        run_seed: 42,
        effort: "quick".to_string(),
        configs: 4,
        duration_s: 6.0,
        payload: 1400,
    };
    // The spec block deliberately has no jobs field: pool width must never
    // reach report bytes.
    let mut r = RunReport::new("parallel_identity", "fig12 at a pool width", spec);
    for c in &curves {
        let mean = c.samples.iter().sum::<f64>() / c.samples.len() as f64;
        r.metric(&format!("mean_{}", c.label), mean);
    }
    r.timing = Some(TimingBlock { wall_secs });
    r
}

#[test]
fn figure_reports_are_byte_identical_across_widths() {
    // Different wall-clocks, as two real invocations would measure.
    let serial = report_at(1, 3.25);
    let wide = report_at(4, 1.125);
    assert_eq!(
        serial.to_json(false),
        wide.to_json(false),
        "pool width leaked into the deterministic report view"
    );
    // Only the timing block may differ in the full serialization.
    assert_ne!(serial.to_json(true), wide.to_json(true));
}

/// A small CMAP world per seed, returning the full stats snapshot.
fn snapshot_world(seed: u64) -> String {
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
    let medium = MediumBuilder::new(&phy)
        .gains_db(n, &gains, &vec![100; n * n])
        .build();
    let mut world = World::builder().medium(medium).phy(phy).seed(seed).build();
    world.add_flow(0, 1, 1400);
    world.add_flow(2, 3, 1400);
    for node in 0..n {
        world.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
    }
    world.run_until(secs(1));
    world.stats().snapshot()
}

#[test]
fn pooled_world_snapshots_match_serial_byte_for_byte() {
    let seeds: Vec<u64> = (100..110).collect();
    let serial = exec::map(1, &seeds, |&s| snapshot_world(s));
    let pooled = exec::map(4, &seeds, |&s| snapshot_world(s));
    assert_eq!(serial.len(), pooled.len());
    for (i, (a, b)) in serial.iter().zip(pooled.iter()).enumerate() {
        assert!(!a.is_empty());
        assert_eq!(a, b, "seed {} snapshot diverged under the pool", seeds[i]);
    }
    // Distinct seeds must still differ — the pool isn't collapsing runs.
    assert_ne!(serial[0], serial[1]);
}
