//! Fixture-based self-tests for the token-layer rules. (The
//! keep-the-tree-clean gate is `analyze_test::workspace_is_analyze_clean`.)

use std::path::PathBuf;

use cmap_analyze::analyze::{analyze, render_human, render_json};
use cmap_analyze::{Config, Rule};

/// Analyze one fixture and return its `(rule, line)` pairs, sorted.
fn findings(fixture: &str) -> Vec<(Rule, usize)> {
    let root = PathBuf::from(format!("tests/fixtures/{fixture}"));
    let report = analyze(&[root], &Config::default(), None).expect("fixture readable");
    let mut v: Vec<(Rule, usize)> = report.violations.iter().map(|f| (f.rule, f.line)).collect();
    v.sort();
    v
}

#[test]
fn hash_iter_fixture() {
    assert_eq!(
        findings("bad_hash_iter.rs"),
        vec![
            (Rule::HashIter, 12), // self.activity.values()
            (Rule::HashIter, 17), // chained .keys() (receiver on prev line)
            (Rule::HashIter, 23), // retain
            (Rule::HashIter, 28), // for _ in &self.members
        ]
    );
}

#[test]
fn wallclock_fixture() {
    assert_eq!(
        findings("bad_wallclock.rs"),
        vec![
            (Rule::WallClock, 4),  // Instant::now
            (Rule::WallClock, 9),  // SystemTime
            (Rule::WallClock, 14), // env-derived seed
        ]
    );
}

#[test]
fn float_cmp_fixture() {
    assert_eq!(
        findings("bad_float_cmp.rs"),
        vec![
            (Rule::FloatCmp, 4),  // == 0.0
            (Rule::FloatCmp, 8),  // partial_cmp chain
            (Rule::FloatCmp, 12), // != 1.0f64
        ]
    );
}

#[test]
fn unwrap_fixture() {
    // Lines 4 and 8 are hot-path unwraps; line 15 is inside #[cfg(test)]
    // and exempt.
    assert_eq!(
        findings("bad_unwrap.rs"),
        vec![(Rule::PanicBudget, 4), (Rule::PanicBudget, 8)]
    );
}

#[test]
fn unit_cast_fixture() {
    // `count as u64` on line 12 has no unit-bearing identifier: clean.
    assert_eq!(
        findings("bad_unit_cast.rs"),
        vec![(Rule::UnitCast, 4), (Rule::UnitCast, 8)]
    );
}

#[test]
fn thread_spawn_fixture() {
    assert_eq!(
        findings("bad_thread_spawn.rs"),
        vec![
            (Rule::ThreadSpawn, 4),  // available_parallelism
            (Rule::ThreadSpawn, 8),  // thread::spawn
            (Rule::ThreadSpawn, 10), // thread::scope
            (Rule::ThreadSpawn, 11), // thread::Builder
        ]
    );
}

/// The executor crate is the one sanctioned home for threads; the same
/// line is a violation anywhere else.
#[test]
fn executor_module_may_spawn() {
    let src = "pub fn go() {\n    std::thread::scope(|_s| {});\n}\n";
    let cfg = Config::default();
    let inside = cmap_analyze::scan_source("crates/exec/src/lib.rs", src, &cfg);
    assert!(inside.is_empty(), "executor path should be exempt");
    let outside = cmap_analyze::scan_source("crates/sim/src/world.rs", src, &cfg);
    assert_eq!(outside.len(), 1);
    assert_eq!(outside[0].rule, Rule::ThreadSpawn);
    assert_eq!(outside[0].line, 2);
}

#[test]
fn clean_fixture_has_no_findings() {
    assert_eq!(findings("clean.rs"), vec![]);
}

#[test]
fn justified_pragmas_silence_findings() {
    assert_eq!(findings("pragma_ok.rs"), vec![]);
}

#[test]
fn pragma_without_reason_is_flagged_and_silences_nothing() {
    assert_eq!(
        findings("pragma_missing_reason.rs"),
        vec![
            (Rule::FloatCmp, 5), // the reason-less pragma itself
            (Rule::FloatCmp, 6), // the comparison it failed to justify
        ]
    );
}

#[test]
fn diagnostics_carry_file_and_line() {
    let root = PathBuf::from("tests/fixtures/bad_wallclock.rs");
    let report = analyze(&[root], &Config::default(), None).expect("fixture readable");
    let human = render_human(&report);
    assert!(human.contains("tests/fixtures/bad_wallclock.rs:4: [wall-clock]"));
    let json = render_json(&report);
    assert!(json.contains("\"line\": 4"));
    assert!(json.contains("\"rule\": \"wall-clock\""));
    assert!(json.contains("\"violation_count\": 3"));
}
