//! Self-tests of the harness: the checks the benchmark's numbers rest on.
//! They run shortened copies of the real workloads (same worlds, same
//! flows, less simulated time).

use std::path::Path;

use cmap_benchmark::metrics::{benchmark_json, Better, END_TO_END, PER_LAYER};
use cmap_benchmark::replay::per_layer;
use cmap_benchmark::run::{end_to_end, reference_digest, run_rep, untouched};
use cmap_benchmark::traced::Recorder;
use cmap_benchmark::workload::{by_name, Workload, WORKLOADS};
use cmap_sim::time::millis;

fn short(name: &str, rep_ms: u64) -> &'static Workload {
    let w = by_name(name).expect("a declared workload");
    Box::leak(Box::new(Workload {
        rep_sim: millis(rep_ms),
        ..*w
    }))
}

#[test]
fn traced_mac_is_transparent_for_both_macs() {
    for name in ["testbed_cmap", "testbed_dcf"] {
        let w = short(name, 1500);
        let plain = run_rep(w, 3, None, true, &untouched);
        let recorder = Recorder::new(plain.world.node_count());
        let traced = run_rep(w, 3, Some(&recorder), true, &untouched);
        assert!(
            recorder.total_calls() > 1000,
            "{name}: the wrapper saw no calls"
        );
        assert_eq!(
            plain.world.stats().snapshot(),
            traced.world.stats().snapshot(),
            "{name}: tracing changed the simulation"
        );
        assert_eq!(
            plain.world.events_processed(),
            traced.world.events_processed()
        );
    }
}

#[test]
fn the_seed_changes_the_run_and_not_the_flow_set() {
    for name in ["testbed_cmap", "city_dcf"] {
        let w = short(name, 50);
        let run = |seed| {
            let rep = run_rep(w, seed, None, true, &untouched);
            let links: Vec<_> = rep.world.flows().iter().map(|f| (f.src, f.dst)).collect();
            (links, rep.digest)
        };
        let (links1, digest1) = run(1);
        let (links2, digest2) = run(2);
        assert_eq!(links1.len(), w.flows);
        assert_eq!(
            links1, links2,
            "{name}: the flow set belongs to the workload"
        );
        assert_ne!(digest1, digest2, "{name}: seeds 1 and 2 ran identically");
        assert_eq!(run(1), (links1, digest1), "{name}: same seed, other run");
    }
}

#[test]
fn truncated_checkpoint_is_a_failed_op_not_a_panic() {
    let w = short("ckpt_cycle", 500);
    let mut failures = Vec::new();
    let reference = reference_digest(w, 5, &mut failures);
    let rep = run_rep(w, 5, None, true, &|cycle, blob: &mut Vec<u8>| {
        if cycle == 2 {
            blob.truncate(blob.len() / 2);
        }
    });
    assert_eq!(rep.attempted, 10, "one rep and nine cycles");
    assert_eq!(rep.failures.len(), 1, "{:?}", rep.failures);
    assert!(rep.failures[0].contains("cycle 2"), "{:?}", rep.failures);
    // The run carried on in the world it had; the result is still right.
    assert_eq!(rep.digest, reference);
    assert!(failures.is_empty());
}

#[test]
fn cycled_run_equals_the_uninterrupted_one() {
    let w = short("ckpt_cycle", 500);
    let mut failures = Vec::new();
    let reference = reference_digest(w, 9, &mut failures);
    let rep = run_rep(w, 9, None, true, &untouched);
    assert_eq!(rep.digest, reference);
    assert_eq!(rep.ckpt.checkpoint_us.len(), 9);
    assert!(rep.failures.is_empty() && failures.is_empty());
}

/// Failures other than a starved flow: the shortened copies run for a
/// second or less, in which a hidden-terminal flow may deliver nothing.
fn unexpected(failures: &[String]) -> Vec<&String> {
    failures
        .iter()
        .filter(|f| !f.contains("delivered nothing"))
        .collect()
}

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_units_and_benchmark_json_meet_the_contract() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(name_ok(n), "bad name {n}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for u in units {
        let ok = !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(ok, "bad unit {u}");
    }
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains(['\n', '"']),
            "{}",
            w.name
        );
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(setup.unit == "s" && setup.better == Better::Lower);
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(committed).expect("BENCHMARK.json at the root");
    assert_eq!(
        committed,
        benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `cmap-benchmark --print-benchmark-json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let out = end_to_end(short("testbed_dcf", 1000), 2, 0.01);
    assert!(unexpected(&out.failures).is_empty(), "{:?}", out.failures);
    assert_eq!(out.reps, 5, "the minimum number of timed reps");
    assert_eq!(out.attempted, 5);
    for m in &END_TO_END {
        let v = out
            .report
            .get(m.name)
            .unwrap_or_else(|| panic!("{} not reported", m.name));
        assert!(v.value.is_finite(), "{}", m.name);
    }
}

#[test]
fn traced_run_reports_its_layers_and_the_ledger_sums_to_one() {
    let out_dir = std::env::temp_dir().join(format!("cmap-benchmark-test-{}", std::process::id()));
    for (name, ms) in [
        ("testbed_cmap", 1000),
        ("testbed_dcf", 1000),
        ("ckpt_cycle", 300),
    ] {
        let w = short(name, ms);
        let out = per_layer(w, 4, 0.01, &out_dir);
        assert!(
            unexpected(&out.failures).is_empty(),
            "{name}: {:?}",
            out.failures
        );
        let get = |m: &str| out.report.get(m).map(|v| v.value);
        let sum = get("ledger.attributed_share").expect("attributed")
            + get("ledger.unattributed_share").expect("unattributed");
        assert!((sum - 1.0).abs() < 1e-9, "{name}: ledger sums to {sum}");
        let (present, absent) = if name == "testbed_dcf" {
            ("mac80211.", "core.")
        } else {
            ("core.", "mac80211.")
        };
        for m in &PER_LAYER {
            let reported = get(m.name).is_some();
            let expected = !m.name.starts_with(absent)
                && (name == "ckpt_cycle" || !m.name.starts_with("ckpt."));
            assert_eq!(reported, expected, "{name}: {}", m.name);
        }
        assert!(get(&format!("{present}share")).expect("share") > 0.0);
        let trace = std::fs::read_to_string(out_dir.join(format!("{name}.trace.jsonl")))
            .expect("span dump");
        assert!(
            trace.lines().count() > 1000,
            "{name}: spans were not dumped"
        );
    }
    let _ = std::fs::remove_dir_all(out_dir);
}
