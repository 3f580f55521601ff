//! The analysis pipeline, start to finish.
//!
//! One serial pass: walk the roots for `.rs` files → read and scan each
//! file (its stale pragmas included). A file's findings depend on that
//! file alone, so nothing is cached between runs and nothing is fanned
//! out (DESIGN.md §10).

use std::fs;
use std::io;
use std::path::PathBuf;

use crate::jsonv::{int, obj, Val};
use crate::{collect_rs_files, scan_source, violation_to_val, Config, Violation};

/// The full analysis result.
#[derive(Debug, Default)]
pub struct AnalyzeReport {
    /// Findings, ordered by (path, line, rule).
    pub violations: Vec<Violation>,
    /// Files analyzed.
    pub files_scanned: usize,
}

/// Analyze a set of roots. Directories are walked recursively for `.rs`
/// files; `cfg.skip_markers` prune the walk but never an explicit root
/// argument.
pub fn analyze(roots: &[PathBuf], cfg: &Config) -> io::Result<AnalyzeReport> {
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

    // ---- per file: read, scan -------------------------------------------
    let mut violations: Vec<Violation> = Vec::new();
    for file in &files {
        let path = file.display().to_string().replace('\\', "/");
        let text = fs::read_to_string(file)?;
        violations.extend(scan_source(&path, &text, cfg));
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(AnalyzeReport {
        violations,
        files_scanned: files.len(),
    })
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
    out.push_str(&format!(
        "cmap-analyze: {} new finding(s), {} file(s) scanned\n",
        report.violations.len(),
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
        ("files_scanned", int(report.files_scanned)),
        ("violation_count", int(report.violations.len())),
    ])
    .render_pretty()
}
