//! Command-line front end for the cmap-analyze static analysis engine.
//!
//! ```text
//! cargo run -p cmap-analyze -- crates/ src/ tests/
//! cargo run -p cmap-analyze -- --sarif analyze.sarif crates/
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cmap_analyze::analyze;
use cmap_analyze::{sarif, Config};

fn main() -> ExitCode {
    let mut json = false;
    let mut sarif_path: Option<PathBuf> = None;
    let mut roots: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sarif" => match args.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("cmap-analyze: `{arg}` needs a path argument");
                    return ExitCode::from(2);
                }
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

    let report = match analyze::analyze(&roots, &Config::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmap-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(p) = &sarif_path {
        if let Err(e) = std::fs::write(p, sarif::render(&report.violations)) {
            eprintln!("cmap-analyze: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
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
         Determinism & unit-safety static analysis: float-cmp, panic-budget\n\
         and unit-cast rules plus a stale-pragma audit; clippy.toml owns the\n\
         rest. See DESIGN.md §10.\n\
         \n\
         options:\n\
           --json                 JSON report on stdout\n\
           --sarif <path>         write a SARIF 2.1.0 document"
    );
}
