//! Self-tests for the symbol layer: interprocedural rules R7–R10 (each
//! with a bad fixture the token layer provably cannot catch and a clean
//! twin), the stale-pragma audit, the golden SARIF snapshot, the clippy
//! configuration that owns the path-named hazards, and the command line:
//! the analyze-clean workspace gate runs the built binary from the repo
//! root, exactly as CI does.

use std::path::PathBuf;
use std::process::{Command, Output};

use cmap_analyze::analyze::analyze;
use cmap_analyze::baseline::Baseline;
use cmap_analyze::jsonv::{self, Val};
use cmap_analyze::{sarif, scan_source, Config, Rule};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(format!("tests/fixtures/{name}"))
}

/// Full-engine `(rule, line)` pairs for one fixture, sorted.
fn flow_findings(name: &str) -> Vec<(Rule, usize)> {
    let report = analyze(&[fixture(name)], &Config::default(), None).expect("fixture analyzes");
    let mut v: Vec<(Rule, usize)> = report.violations.iter().map(|f| (f.rule, f.line)).collect();
    v.sort();
    v
}

/// Token-layer-only findings for the same fixture. The bad R7–R10
/// fixtures must come back empty here: that is the proof the flow layer
/// sees something the per-file lexer cannot.
fn token_findings(name: &str) -> Vec<(Rule, usize)> {
    let path = fixture(name);
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    let found = scan_source(&path.to_string_lossy(), &source, &Config::default());
    found.iter().map(|f| (f.rule, f.line)).collect()
}

// ---------------------------------------------------------------------------
// R7 det-taint
// ---------------------------------------------------------------------------

#[test]
fn det_taint_flows_through_helper() {
    // The wall-clock call is clippy's and carries an `#[expect]`, so the
    // token layer is silent — only call-graph taint connects `stamp` to
    // the sink.
    assert_eq!(token_findings("bad_det_taint.rs"), vec![]);
    assert_eq!(
        flow_findings("bad_det_taint.rs"),
        vec![
            (Rule::DetTaint, 12), // let started = stamp();
            (Rule::DetTaint, 13), // metric("run_started_secs", started + run_id)
        ]
    );
}

#[test]
fn det_taint_clean_twin_is_quiet() {
    assert_eq!(flow_findings("clean_det_taint.rs"), vec![]);
}

// ---------------------------------------------------------------------------
// R8 unit-flow
// ---------------------------------------------------------------------------

#[test]
fn unit_mismatch_crosses_call_boundary() {
    // No cast, no line with two unit suffixes: R5 has nothing to see.
    assert_eq!(token_findings("bad_unit_flow.rs"), vec![]);
    assert_eq!(
        flow_findings("bad_unit_flow.rs"),
        vec![(Rule::UnitFlow, 12)] // now_ns + wait (wait is us via backoff_us)
    );
}

#[test]
fn unit_flow_clean_twin_converts_first() {
    assert_eq!(flow_findings("clean_unit_flow.rs"), vec![]);
}

// ---------------------------------------------------------------------------
// R9 shared-state
// ---------------------------------------------------------------------------

#[test]
fn shared_static_and_its_flow_into_sink() {
    // The token layer has no rule for static items at all.
    assert_eq!(token_findings("bad_shared_state.rs"), vec![]);
    assert_eq!(
        flow_findings("bad_shared_state.rs"),
        vec![
            (Rule::SharedState, 8),  // static DROPS: AtomicU64
            (Rule::SharedState, 16), // metric("drops", drops) via drained()
        ]
    );
}

#[test]
fn shared_state_clean_twin_threads_params() {
    assert_eq!(flow_findings("clean_shared_state.rs"), vec![]);
}

// ---------------------------------------------------------------------------
// R10 panic-reach
// ---------------------------------------------------------------------------

#[test]
fn panic_in_callee_reaches_hot_caller() {
    // The `panic!` lives in the callee; the caller's own lines are clean,
    // so R4's per-line token search cannot connect them.
    assert_eq!(token_findings("bad_panic_reach.rs"), vec![]);
    assert_eq!(
        flow_findings("bad_panic_reach.rs"),
        vec![(Rule::PanicReach, 14)] // pick(values, 3)
    );
}

#[test]
fn panic_reach_clean_twin_handles_none() {
    assert_eq!(flow_findings("clean_panic_reach.rs"), vec![]);
}

// ---------------------------------------------------------------------------
// Stale pragmas and the R4 empty-expect gap
// ---------------------------------------------------------------------------

#[test]
fn pragma_suppressing_nothing_is_reported() {
    assert_eq!(
        flow_findings("stale_pragma.rs"),
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
    assert_eq!(flow_findings("pragma_ok.rs"), vec![]);
}

#[test]
fn empty_and_whitespace_expect_are_flagged() {
    assert_eq!(
        token_findings("bad_empty_expect.rs"),
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
        &[fixture("bad_unit_flow.rs"), fixture("bad_empty_expect.rs")],
        &Config::default(),
        None,
    )
    .expect("fixtures analyze");
    let baseline = Baseline::parse(
        r#"{"schema":"cmap-analyze-baseline/v1","entries":[
            {"rule":"unit-flow","path":"tests/fixtures/bad_unit_flow.rs",
             "snippet":"now_ns + wait",
             "reason":"fixture pin exercising SARIF suppressions"}]}"#,
    )
    .expect("baseline parses");
    let split = baseline.split(report.violations);
    assert_eq!(split.new.len(), 2, "two empty-expect findings stay new");
    assert_eq!(split.pinned.len(), 1, "the unit-flow finding is pinned");
    let doc = sarif::render(&split.new, &split.pinned);

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

/// Run the built binary from the repo root (integration tests start in
/// the crate directory, two levels down), so it sees the path spellings
/// and the default baseline that CI's invocation sees.
fn run_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmap-analyze"))
        .current_dir("../..")
        .args(args)
        .output()
        .expect("cmap-analyze runs")
}

/// The real tree must stay analyze-clean: token rules, flow rules, and the
/// stale-pragma audit together, filtered only through the checked-in
/// baseline (whose every entry must also still match something). This is
/// CI's command, so the gate and the command cannot disagree.
#[test]
fn workspace_is_analyze_clean() {
    let out = run_cli(&["crates/", "src/", "tests/"]);
    let human = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "cmap-analyze found non-baselined findings:\n{human}"
    );
    assert!(
        !human.contains("stale baseline entry"),
        "baseline pins findings that no longer exist:\n{human}"
    );
    let summary = human.lines().last().expect("summary line");
    let counts: Vec<usize> = summary
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    let [_new, baselined, files] = counts[..] else {
        panic!("unexpected summary line: {summary}");
    };
    assert!(
        baselined > 0,
        "baseline should pin the two wall-time-into-timing-block flows: {summary}"
    );
    assert!(files > 50, "walk looks truncated: {summary}");
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
/// spelled: `tests/` and `./tests` are the same directory.
#[test]
fn findings_do_not_depend_on_root_spelling() {
    let plain = run_cli(&["--json", "--no-baseline", "crates/", "src/", "tests/"]);
    let dotted = run_cli(&["--json", "--no-baseline", "./crates", "./src", "./tests"]);
    assert_eq!(plain.status.code(), dotted.status.code());
    let findings = json_findings(&plain);
    assert!(
        !findings.is_empty(),
        "the baselined flows are findings here"
    );
    assert_eq!(findings, json_findings(&dotted));
}

/// The incremental cache, the parse fan-out and the stats file are gone;
/// their options are unknown options now: usage on stderr, exit 2.
#[test]
fn removed_options_are_usage_errors() {
    for option in ["--cache", "--jobs", "--stats-out"] {
        let out = run_cli(&[option, "x", "crates/"]);
        assert_eq!(out.status.code(), Some(2), "{option}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option `{option}`")),
            "{option}: {err}"
        );
    }
}
