//! Command-line front end for the cmap-analyze static analysis engine.
//!
//! ```text
//! cargo run -p cmap-analyze -- crates/ src/ tests/
//! cargo run -p cmap-analyze -- --baseline ANALYZE_baseline.json \
//!     --sarif analyze.sarif crates/
//! ```
//!
//! Exit codes: 0 clean, 1 non-baselined findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cmap_analyze::analyze;
use cmap_analyze::{sarif, Config};

fn main() -> ExitCode {
    let mut json = false;
    let mut sarif_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut no_default_baseline = false;
    let mut roots: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| -> Result<PathBuf, ExitCode> {
            args.next().map(PathBuf::from).ok_or_else(|| {
                eprintln!("cmap-analyze: `{arg}` needs a path argument");
                ExitCode::from(2)
            })
        };
        match arg.as_str() {
            "--json" => json = true,
            "--sarif" => match path_arg(&mut args) {
                Ok(p) => sarif_path = Some(p),
                Err(c) => return c,
            },
            "--baseline" => match path_arg(&mut args) {
                Ok(p) => baseline = Some(p),
                Err(c) => return c,
            },
            "--no-baseline" => no_default_baseline = true,
            "--write-baseline" => match path_arg(&mut args) {
                Ok(p) => write_baseline = Some(p),
                Err(c) => return c,
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("cmap-analyze: unknown option `{arg}`");
                print_usage();
                return ExitCode::from(2);
            }
            _ => roots.push(PathBuf::from(arg)),
        }
    }
    if roots.is_empty() {
        eprintln!("cmap-analyze: no paths given");
        print_usage();
        return ExitCode::from(2);
    }
    if baseline.is_none() && !no_default_baseline {
        baseline = analyze::default_baseline();
    }

    let cfg = Config::default();
    let report = match analyze::analyze(&roots, &cfg, baseline.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmap-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(p) = &sarif_path {
        let doc = sarif::render(&report.violations, &report.pinned);
        if let Err(e) = std::fs::write(p, doc) {
            eprintln!("cmap-analyze: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if let Some(p) = &write_baseline {
        let doc = cmap_analyze::baseline::Baseline::render_for(&report.violations);
        if let Err(e) = std::fs::write(p, doc) {
            eprintln!("cmap-analyze: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "cmap-analyze: wrote {} entr{} to {} — fill in the reasons before \
             checking it in",
            report.violations.len(),
            if report.violations.len() == 1 {
                "y"
            } else {
                "ies"
            },
            p.display()
        );
    }

    if json {
        print!("{}", analyze::render_json(&report));
    } else {
        print!("{}", analyze::render_human(&report));
    }

    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_usage() {
    eprintln!(
        "usage: cmap-analyze [options] <path>...\n\
         \n\
         Workspace-aware determinism & unit-safety static analysis: a\n\
         per-file token layer (float-cmp, panic-budget, unit-cast) plus\n\
         interprocedural flow rules (det-taint, unit-flow, shared-state,\n\
         panic-reach) and a stale-pragma audit; clippy.toml owns the rest.\n\
         See DESIGN.md §10.\n\
         \n\
         options:\n\
           --json                 JSON report on stdout\n\
           --sarif <path>         write a SARIF 2.1.0 document\n\
           --baseline <path>      suppression baseline (default:\n\
                                  ANALYZE_baseline.json if present)\n\
           --no-baseline          ignore the default baseline\n\
           --write-baseline <p>   pin all current findings (fill reasons!)"
    );
}
