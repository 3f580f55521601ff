//! Determinism of the observability artifacts: the same seed must produce
//! byte-identical trace JSONL dumps and byte-identical run reports (the
//! `timing` block is excluded by construction — it is the only place
//! wall-clock-derived numbers may appear).

use cmap_suite::bench::runner::Spec;
use cmap_suite::bench::Effort;
use cmap_suite::prelude::*;
use cmap_suite::sim::time::secs;
use cmap_suite::topo::micro::EXPOSED;

/// The Fig 12 exposed-terminal configuration: two pairs whose senders hear
/// each other but whose receivers don't hear the other sender.
fn exposed_world(seed: u64) -> (World, u16, u16) {
    let phy = PhyConfig::default();
    let n = 4;
    let medium = MediumBuilder::new(&phy).rss_links(n, EXPOSED).build();
    let mut world = World::builder().medium(medium).phy(phy).seed(seed).build();
    let f1 = world.add_flow(0, 1, 1400);
    let f2 = world.add_flow(2, 3, 1400);
    for node in 0..n {
        world.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
    }
    (world, f1, f2)
}

/// One traced run: returns the JSONL trace dump and the stats snapshot.
fn traced_run(seed: u64) -> (String, String) {
    let (mut world, _f1, _f2) = exposed_world(seed);
    world.enable_trace(1 << 16);
    world.run_until(secs(2));
    let snapshot = world.stats().snapshot();
    let trace = world.take_trace().expect("trace was enabled");
    assert!(
        trace.emitted() > 0,
        "a saturated CMAP run must emit trace events"
    );
    (trace.to_jsonl(), snapshot)
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let (jsonl_a, snap_a) = traced_run(11);
    let (jsonl_b, snap_b) = traced_run(11);
    assert!(!jsonl_a.is_empty());
    assert_eq!(snap_a, snap_b, "same-seed snapshots diverged");
    assert_eq!(jsonl_a, jsonl_b, "same-seed trace dumps diverged");
    // Every line is a self-contained JSON object with the fixed prefix.
    for line in jsonl_a.lines() {
        assert!(line.starts_with("{\"seq\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"ev\":"), "{line}");
    }
}

#[test]
fn different_seed_traces_differ() {
    let (jsonl_a, _) = traced_run(11);
    let (jsonl_b, _) = traced_run(12);
    assert_ne!(
        jsonl_a, jsonl_b,
        "different seeds produced identical traces"
    );
}

/// Build a RunReport from one run's counters, stamping a caller-supplied
/// wall-clock figure into the timing block (as the harness shell does).
fn report_from_run(seed: u64, wall_secs: f64) -> RunReport {
    let (mut world, f1, f2) = exposed_world(seed);
    world.run_until(secs(2));
    let spec = Spec {
        testbed_seed: 0,
        run_seed: seed,
        duration: secs(2),
        configs: 1,
        jobs: 1,
    };
    let mut r = RunReport::new(
        "trace_determinism",
        "exposed micro-topology",
        spec,
        Effort::Quick,
    );
    let stats = world.stats();
    r.metric("tx_frames", stats.counter(CounterId::SimTx));
    r.metric("defers", stats.counter(CounterId::CmapDefer));
    r.metric(
        "pair1_mbps",
        stats.flow_throughput_mbps(f1, 1400, secs(1), secs(2)),
    );
    r.metric(
        "pair2_mbps",
        stats.flow_throughput_mbps(f2, 1400, secs(1), secs(2)),
    );
    r.wall_secs = Some(wall_secs);
    r
}

#[test]
fn same_seed_reports_are_byte_identical_outside_timing() {
    // Different wall-clock timings — as two real runs would measure.
    let a = report_from_run(11, 1.25);
    let b = report_from_run(11, 7.5);
    // The deterministic view is byte-identical...
    assert_eq!(a.to_json(false), b.to_json(false));
    assert!(!a.to_json(false).contains("timing"));
    // ...and only the timing block separates the full serializations.
    assert_ne!(a.to_json(true), b.to_json(true));
    assert!(a
        .to_json(true)
        .ends_with("\"timing\":{\"wall_secs\":1.25}}"));
}
