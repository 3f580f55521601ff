//! Fixture-based self-tests for the token-layer rules and pragmas. (The
//! keep-the-tree-clean gate is `analyze_test::workspace_is_analyze_clean`;
//! `analyze_test::clippy_owns_the_path_hazards` pins the configuration
//! that checks the rest.)

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
fn unit_cast_fixture() {
    // `count as u64` on line 12 has no unit-bearing identifier: clean.
    assert_eq!(
        findings("bad_unit_cast.rs"),
        vec![(Rule::UnitCast, 4), (Rule::UnitCast, 8)]
    );
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

/// A name that is no rule's code — a typo, or a rule whose hazard moved to
/// `clippy.toml` — would silence nothing without a word; it is reported at
/// the pragma's line, and the known names beside it still work.
#[test]
fn pragma_naming_an_unknown_rule_is_reported() {
    let root = PathBuf::from("tests/fixtures/unknown_pragma.rs");
    let report = analyze(&[root], &Config::default(), None).expect("fixture readable");
    let found: Vec<(Rule, usize, &str)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.line, v.message.as_str()))
        .collect();
    assert_eq!(
        found,
        vec![
            (Rule::StalePragma, 6, "unknown rule `unit-cats`"),
            (Rule::StalePragma, 11, "unknown rule `thread-spawn`"),
        ]
    );
}

#[test]
fn diagnostics_carry_file_and_line() {
    let root = PathBuf::from("tests/fixtures/bad_float_cmp.rs");
    let report = analyze(&[root], &Config::default(), None).expect("fixture readable");
    let human = render_human(&report);
    assert!(human.contains("tests/fixtures/bad_float_cmp.rs:4: [float-cmp]"));
    let json = render_json(&report);
    assert!(json.contains("\"line\": 4"));
    assert!(json.contains("\"rule\": \"float-cmp\""));
    assert!(json.contains("\"violation_count\": 3"));
}
