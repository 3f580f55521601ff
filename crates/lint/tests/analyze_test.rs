//! Self-tests for the whole pipeline: the stale-pragma audit, the golden
//! SARIF snapshot, the clippy configuration that owns the path-named
//! hazards, and the command line: the analyze-clean workspace gate runs
//! the built binary from the repo root, exactly as CI does.

use std::path::PathBuf;
use std::process::{Command, Output};

use cmap_analyze::analyze::analyze;
use cmap_analyze::jsonv::{self, Val};
use cmap_analyze::{sarif, scan_source, Config, Rule};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(format!("tests/fixtures/{name}"))
}

/// Full-pipeline `(rule, line)` pairs for one fixture, sorted.
fn findings(name: &str) -> Vec<(Rule, usize)> {
    let report = analyze(&[fixture(name)], &Config::default()).expect("fixture analyzes");
    let mut v: Vec<(Rule, usize)> = report.violations.iter().map(|f| (f.rule, f.line)).collect();
    v.sort();
    v
}

// ---------------------------------------------------------------------------
// Stale pragmas and the R4 empty-expect gap
// ---------------------------------------------------------------------------

#[test]
fn pragma_suppressing_nothing_is_reported() {
    assert_eq!(
        findings("stale_pragma.rs"),
        vec![(Rule::StalePragma, 5)] // allow(float-cmp) over float-free code
    );
}

#[test]
fn justified_pragma_that_suppresses_is_not_stale() {
    // Each of pragma_ok.rs's pragmas silences a real token finding: with
    // the pragmas blanked the same lines are flagged, and with them in
    // place nothing is reported — not even as stale.
    let path = fixture("pragma_ok.rs");
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    let bare = source.replace("cmap-lint:", "          ");
    let found = scan_source(&path.to_string_lossy(), &bare, &Config::default());
    let found: Vec<(Rule, usize)> = found.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(found, vec![(Rule::UnitCast, 5), (Rule::FloatCmp, 10)]);
    assert_eq!(findings("pragma_ok.rs"), vec![]);
}

#[test]
fn empty_and_whitespace_expect_are_flagged() {
    assert_eq!(
        findings("bad_empty_expect.rs"),
        vec![(Rule::PanicBudget, 5), (Rule::PanicBudget, 9)]
    );
}

// ---------------------------------------------------------------------------
// Golden SARIF snapshot
// ---------------------------------------------------------------------------

/// The SARIF document must be byte-stable: no timestamps, no absolute
/// paths, deterministic ordering. Regenerate the snapshot with
/// `UPDATE_GOLDEN=1 cargo test -p cmap-analyze golden_sarif` after an
/// intentional format change.
#[test]
fn golden_sarif_snapshot() {
    let report = analyze(
        &[fixture("bad_float_cmp.rs"), fixture("bad_empty_expect.rs")],
        &Config::default(),
    )
    .expect("fixtures analyze");
    assert_eq!(
        report.violations.len(),
        5,
        "three float comparisons, two empty expects"
    );
    let doc = sarif::render(&report.violations);

    let golden_path = PathBuf::from("tests/golden/analyze.sarif");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("golden dir");
        std::fs::write(&golden_path, &doc).expect("golden written");
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "golden snapshot missing — run UPDATE_GOLDEN=1 cargo test -p cmap-analyze golden_sarif",
    );
    assert_eq!(
        doc, golden,
        "SARIF output drifted from tests/golden/analyze.sarif"
    );
}

// ---------------------------------------------------------------------------
// The command line
// ---------------------------------------------------------------------------

/// Run the built binary from `dir`, relative to the crate directory
/// integration tests start in.
fn run_cli_in(dir: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmap-analyze"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("cmap-analyze runs")
}

/// Run the built binary from the repo root, two levels up, so it sees
/// the path spellings CI's invocation sees.
fn run_cli(args: &[&str]) -> Output {
    run_cli_in("../..", args)
}

/// The real tree must stay analyze-clean: the token rules and the
/// stale-pragma audit together, with nothing to filter them through.
/// This is CI's command, so the gate and the command cannot disagree;
/// from the crate directory it reaches the same verdict, since no input
/// depends on the working directory.
#[test]
fn workspace_is_analyze_clean() {
    let from_root = run_cli(&["crates/", "src/", "tests/"]);
    let from_crate = run_cli_in(".", &["../../crates/", "../../src/", "../../tests/"]);
    for out in [&from_root, &from_crate] {
        let human = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "cmap-analyze found findings:\n{human}"
        );
        let summary = human.lines().last().expect("summary line");
        let files: usize = summary
            .strip_prefix("cmap-analyze: 0 new finding(s), ")
            .and_then(|rest| rest.strip_suffix(" file(s) scanned"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected summary line: {summary}"));
        assert!(files > 50, "walk looks truncated: {summary}");
    }
    assert_eq!(from_root.stdout, from_crate.stdout);
}

/// The hazards a resolved path names are clippy's, not this tool's: the
/// configuration that bans them is part of the gate, so it is pinned here
/// (read as text; the build has no TOML parser).
#[test]
fn clippy_owns_the_path_hazards() {
    let read = |path: &str| std::fs::read_to_string(format!("../../{path}")).expect(path);
    let clippy = read("clippy.toml");
    let (types, methods) = clippy
        .split_once("disallowed-methods")
        .expect("clippy.toml bans methods");
    let types = types
        .split_once("disallowed-types")
        .expect("clippy.toml bans types")
        .1;
    for ty in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
        "std::time::SystemTime",
    ] {
        assert!(types.contains(&format!("path = \"{ty}\"")), "{ty}");
    }
    for method in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::available_parallelism",
        "std::thread::Builder::new",
        "std::env::var",
    ] {
        assert!(
            methods.contains(&format!("path = \"{method}\"")),
            "{method}"
        );
    }
    assert!(clippy
        .lines()
        .any(|l| l.trim() == "allow-unwrap-in-tests = true"));
    for hot in ["crates/sim/src/lib.rs", "crates/core/src/mac.rs"] {
        let deny = read(hot)
            .lines()
            .any(|l| l == "#![deny(clippy::unwrap_used)]");
        assert!(deny, "{hot} denies clippy::unwrap_used");
    }
    let manifest = read("Cargo.toml");
    let lints = manifest
        .split_once("[workspace.lints.clippy]")
        .expect("workspace clippy lints")
        .1;
    let lints = lints.split("\n[").next().unwrap_or(lints);
    assert!(lints
        .lines()
        .any(|l| l.trim() == "allow_attributes_without_reason = \"deny\""));
}

/// `(path, line, rule)` of every finding in a `--json` report, with a
/// leading `./` dropped from the path.
fn json_findings(out: &Output) -> Vec<(String, i64, String)> {
    let doc = jsonv::parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON report");
    let field = |v: &Val, key: &str| v.get(key).and_then(Val::as_str).map(str::to_string);
    doc.get("violations")
        .and_then(Val::as_arr)
        .expect("violations array")
        .iter()
        .map(|v| {
            let path = field(v, "path").expect("path");
            (
                path.trim_start_matches("./").to_string(),
                v.get("line").and_then(Val::as_int).expect("line"),
                field(v, "rule").expect("rule"),
            )
        })
        .collect()
}

/// Whether a file is test code must not depend on how its root was
/// spelled: `tests/` and `./tests` are the same directory. A named
/// fixture keeps the compared list non-empty.
#[test]
fn findings_do_not_depend_on_root_spelling() {
    let fixture = "crates/lint/tests/fixtures/bad_unit_cast.rs";
    let dotted_fixture = format!("./{fixture}");
    let plain = run_cli(&["--json", fixture, "crates/", "src/", "tests/"]);
    let dotted = run_cli(&["--json", &dotted_fixture, "./crates", "./src", "./tests"]);
    assert_eq!(plain.status.code(), Some(1));
    assert_eq!(dotted.status.code(), Some(1));
    let findings = json_findings(&plain);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert_eq!(findings, json_findings(&dotted));
}

/// The incremental cache, the parse fan-out, the stats file and the
/// suppression baseline are gone; their options are unknown options now:
/// usage on stderr, exit 2.
#[test]
fn removed_options_are_usage_errors() {
    for option in [
        "--cache",
        "--jobs",
        "--stats-out",
        "--baseline",
        "--no-baseline",
        "--write-baseline",
    ] {
        let out = run_cli(&[option, "x", "crates/"]);
        assert_eq!(out.status.code(), Some(2), "{option}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option `{option}`")),
            "{option}: {err}"
        );
    }
}
