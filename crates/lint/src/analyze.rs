//! The analysis pipeline, start to finish.
//!
//! One serial pass: walk the roots for `.rs` files → read each file and
//! build its token-layer scan and symbol model → run the interprocedural
//! flow rules over all models at once (a whole-program fixpoint) → audit
//! stale pragmas → split the findings through the suppression baseline.
//! The whole workspace takes about 0.2 s, so nothing is cached between
//! runs and nothing is fanned out (DESIGN.md §10).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::baseline::{Baseline, BaselineEntry};
use crate::flow::{self, FlowFile};
use crate::jsonv::{int, obj, s, Val};
use crate::model::{build_model, FileModel};
use crate::{collect_rs_files, scan_file, violation_to_val, Config, FileScan, Rule, Violation};

/// The full analysis result.
#[derive(Debug, Default)]
pub struct AnalyzeReport {
    /// Findings not pinned by the baseline, ordered by (path, line, rule).
    pub violations: Vec<Violation>,
    /// `(violation, reason)` pinned by the baseline.
    pub pinned: Vec<(Violation, String)>,
    /// Baseline entries that matched nothing (stale pins).
    pub stale_baseline: Vec<BaselineEntry>,
    /// Files analyzed.
    pub files_scanned: usize,
}

/// One file's per-file products, kept until the whole-program steps ran.
/// (`model.path` is the `/`-normalised path as given: root argument + walk.)
struct Parsed {
    text: String,
    scan: FileScan,
    model: FileModel,
}

/// Analyze a set of roots. Directories are walked recursively for `.rs`
/// files; `cfg.skip_markers` prune the walk but never an explicit root
/// argument. `baseline` names the suppression baseline; with `None` (or a
/// path that does not exist) every finding gates.
pub fn analyze(
    roots: &[PathBuf],
    cfg: &Config,
    baseline: Option<&Path>,
) -> io::Result<AnalyzeReport> {
    // ---- walk ------------------------------------------------------------
    let mut files = Vec::new();
    for root in roots {
        if root.is_dir() {
            collect_rs_files(root, cfg, &mut files)?;
        } else if root.is_file() {
            files.push(root.clone());
        } else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file or directory: {}", root.display()),
            ));
        }
    }
    files.sort();
    files.dedup();

    // ---- per file: read, token scan, symbol model ------------------------
    let mut parsed: Vec<Parsed> = Vec::with_capacity(files.len());
    for file in &files {
        let path = file.display().to_string().replace('\\', "/");
        let text = fs::read_to_string(file)?;
        let scan = scan_file(&path, &text, cfg);
        let model = build_model(&path, &text);
        parsed.push(Parsed { text, scan, model });
    }

    // ---- flow rules ------------------------------------------------------
    let flow_files: Vec<FlowFile> = parsed
        .iter()
        .map(|p| FlowFile {
            model: &p.model,
            scan: &p.scan,
            raw: p.text.lines().collect(),
        })
        .collect();
    let flow_out = flow::run(&flow_files, cfg);

    // ---- stale pragmas ---------------------------------------------------
    let mut violations: Vec<Violation> = Vec::new();
    for p in &parsed {
        violations.extend(p.scan.violations.iter().cloned());
    }
    violations.extend(flow_out.violations);

    let mut used: std::collections::BTreeSet<(usize, usize, Rule)> =
        std::collections::BTreeSet::new();
    for (i, p) in parsed.iter().enumerate() {
        for &(line, rule) in &p.scan.used_pragmas {
            used.insert((i, line, rule));
        }
    }
    for (i, line, rule) in flow_out.pragma_uses {
        used.insert((i, line, rule));
    }
    for (i, p) in parsed.iter().enumerate() {
        for pragma in &p.scan.pragmas {
            for &rule in &pragma.rules {
                if rule == Rule::StalePragma || used.contains(&(i, pragma.line, rule)) {
                    continue;
                }
                violations.push(Violation {
                    path: p.model.path.clone(),
                    line: pragma.line,
                    rule: Rule::StalePragma,
                    message: format!(
                        "allow({}) suppresses zero findings; remove the stale \
                         pragma (dead suppressions rot the audit trail)",
                        rule.code()
                    ),
                    snippet: p
                        .text
                        .lines()
                        .nth(pragma.line - 1)
                        .map_or("", str::trim)
                        .to_string(),
                    fix: None,
                });
            }
        }
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    // ---- baseline --------------------------------------------------------
    let mut report = AnalyzeReport {
        files_scanned: parsed.len(),
        ..AnalyzeReport::default()
    };
    match baseline {
        Some(p) if p.exists() => {
            let baseline = Baseline::load(p).map_err(io::Error::other)?;
            let split = baseline.split(violations);
            report.violations = split.new;
            report.pinned = split.pinned;
            report.stale_baseline = split.stale_entries;
        }
        _ => report.violations = violations,
    }
    Ok(report)
}

/// Render the analyze report for humans.
pub fn render_human(report: &AnalyzeReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            v.path, v.line, v.rule, v.message, v.snippet
        ));
        if let Some(fix) = &v.fix {
            out.push_str(&format!(
                "    fix: replace cols {}..{} with `{}` ({})\n",
                fix.col_start, fix.col_end, fix.replacement, fix.description
            ));
        }
    }
    for e in &report.stale_baseline {
        out.push_str(&format!(
            "warning: stale baseline entry [{}] {} `{}` matches nothing — remove it\n",
            e.rule.code(),
            e.path,
            e.snippet
        ));
    }
    out.push_str(&format!(
        "cmap-analyze: {} new finding(s), {} baselined, {} file(s) scanned\n",
        report.violations.len(),
        report.pinned.len(),
        report.files_scanned
    ));
    out
}

/// Render the analyze report as JSON (violations plus counters).
pub fn render_json(report: &AnalyzeReport) -> String {
    obj(vec![
        (
            "violations",
            Val::Arr(report.violations.iter().map(violation_to_val).collect()),
        ),
        (
            "baselined",
            Val::Arr(
                report
                    .pinned
                    .iter()
                    .map(|(v, reason)| {
                        let mut val = violation_to_val(v);
                        if let Val::Obj(pairs) = &mut val {
                            pairs.push(("reason".to_string(), s(reason)));
                        }
                        val
                    })
                    .collect(),
            ),
        ),
        ("files_scanned", int(report.files_scanned)),
        ("violation_count", int(report.violations.len())),
    ])
    .render_pretty()
}

/// Resolve the default baseline path: `ANALYZE_baseline.json` next to the
/// first root's enclosing repo (cwd), if present.
pub fn default_baseline() -> Option<PathBuf> {
    let p = Path::new("ANALYZE_baseline.json");
    p.exists().then(|| p.to_path_buf())
}
