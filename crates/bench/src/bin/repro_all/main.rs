//! Run the figures of the evaluation — the registry's `in_repro` rows, or
//! the rows named by `--figure` — and write a paper-vs-measured report plus
//! a machine-readable suite manifest.
//!
//! ```text
//! cargo run --release -p cmap-bench --bin repro_all -- \
//!     [--quick|--full] [--seed N] [--runs N] [--jobs N] [--figure NAME]... \
//!     [--out PATH] [--json PATH] [--resume]
//! ```
//!
//! * stdout / `--out PATH`: the EXPERIMENTS-style text report, one section
//!   per figure run, in registry order,
//! * `--json PATH` (default `BENCH_repro.json`): a `SuiteReport` with the
//!   BER table's identity and measured error, the `fidelity` block (every
//!   paper-vs-measured predicate with its band, measured value and
//!   verdict; the text report ends with the same table), one `RunReport`
//!   per figure, the `failures` list (the `FAIL` lines the run printed) and,
//!   in `timing` blocks only, wall-clock.
//!
//! How fast the simulator runs is measured by `benchmark/`, not here.
//!
//! **Crash safety.** Each completed figure's text section and report JSON
//! are written to `<json>.work/` through the atomic writer, and recorded
//! in a `cmap-manifest/v1` completion ledger. All final
//! artifacts are also written atomically, so a SIGKILL at any instant
//! leaves either the old bytes or complete new bytes. `--resume` restarts
//! an interrupted suite: figures whose work-dir artifacts are present and
//! hash-valid are spliced verbatim instead of re-run — the final text and
//! deterministic JSON come out byte-identical to an uninterrupted run.
//!
//! **Failures.** Every figure goes through `figures::run_figure`, so a
//! panicking figure does not kill the suite: it comes back as a failed run
//! whose one failure string carries the panic (`cmap_bench`'s `exec::map`
//! re-raises a failed job as `job {i}: …`), that string lands in the suite
//! report's `failures` list, the remaining figures run to completion, and
//! the exit code is nonzero.
//!
//! The suite self-validates: every figure's report must contain its
//! declared required metrics, at the standard spec every fidelity
//! predicate must hold or carry a waiver (`--quick` reports the verdicts
//! without gating on them), and any figure failure makes the run exit
//! nonzero — CI gates on all three.

mod artifact;

use std::path::{Path, PathBuf};

use cmap_bench::figures::{fidelity_failures, fidelity_table, run_figure, Figure};
use cmap_bench::report::{metric_f64, SuiteReport};
use cmap_bench::Cli;

use artifact::{atomic_write, Manifest};

/// The two per-figure work-dir artifacts.
struct FigureArtifacts {
    /// Text-report section, exactly as a clean run would append it.
    text: String,
    /// `RunReport::to_json(true)` bytes.
    json: String,
}

fn text_name(fig: &str) -> String {
    format!("fig_{fig}.txt")
}
fn json_name(fig: &str) -> String {
    format!("fig_{fig}.json")
}
/// Load a figure's completed artifacts from the work dir, verifying each
/// against the manifest. `None` means "not complete — run it". Entries the
/// manifest carries beyond these two are ignored.
fn load_completed(work: &Path, manifest: &Manifest, fig: &str) -> Option<FigureArtifacts> {
    let load = |name: String| -> Option<Vec<u8>> {
        let bytes = std::fs::read(work.join(&name)).ok()?;
        manifest.verify(&name, &bytes).then_some(bytes)
    };
    let text = String::from_utf8(load(text_name(fig))?).ok()?;
    let json = String::from_utf8(load(json_name(fig))?).ok()?;
    Some(FigureArtifacts { text, json })
}

/// The manifest's run-identity line. Deliberately excludes `--jobs`: pool
/// width never changes artifact bytes, so resuming at a different width
/// is sound.
fn manifest_meta(cli: &Cli) -> String {
    format!(
        "suite=repro_all seed={} effort={} runs={}",
        cli.seed,
        cli.effort.label(),
        match cli.runs {
            Some(n) => n.to_string(),
            None => "default".to_string(),
        }
    )
}

/// Set up the work directory and completion manifest. On `--resume` an
/// existing manifest is honored if it parses and its meta line matches
/// this invocation; otherwise (and always without `--resume`) the work
/// dir is cleared and the suite starts from scratch.
fn init_work_dir(work: &Path, cli: &Cli) -> Manifest {
    let meta = manifest_meta(cli);
    if cli.resume {
        match std::fs::read_to_string(work.join("MANIFEST"))
            .map_err(|e| e.to_string())
            .and_then(|text| Manifest::parse(&text))
        {
            Ok(m) if m.meta == meta => {
                eprintln!("resuming from {} ({} artifacts)", work.display(), m.len());
                return m;
            }
            Ok(m) => {
                eprintln!(
                    "warning: work dir is from a different run ({} != {meta}); starting fresh",
                    m.meta
                );
            }
            Err(e) => {
                eprintln!(
                    "warning: no usable manifest in {} ({e}); starting fresh",
                    work.display()
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).expect("create work dir");
    Manifest::new(&meta)
}

/// Persist one completed figure: two artifacts plus the updated
/// manifest, all atomically, manifest last — a crash between any two
/// writes leaves at worst an unreferenced file that a resume re-runs.
fn record_figure(work: &Path, manifest: &mut Manifest, fig: &str, arts: &FigureArtifacts) {
    let files = [
        (text_name(fig), arts.text.as_bytes()),
        (json_name(fig), arts.json.as_bytes()),
    ];
    for (name, bytes) in files {
        atomic_write(work.join(&name), bytes).expect("write figure artifact");
        manifest.record(&name, bytes);
    }
    atomic_write(work.join("MANIFEST"), manifest.to_text().as_bytes()).expect("write manifest");
}

/// Run each of `figures` in turn, or restore it from the work dir when a
/// completed artifact of it is there: the text report, ending with the
/// fidelity table, and the suite report.
fn run_suite<'a>(
    cli: &Cli,
    figures: impl Iterator<Item = &'a Figure>,
    work: &Path,
    manifest: &mut Manifest,
) -> (String, SuiteReport) {
    let mut report = String::new();
    #[expect(clippy::disallowed_methods, reason = "progress lines and timing block")]
    let t0 = std::time::Instant::now();
    let mut suite = SuiteReport::new(cli);

    for fig in figures {
        if let Some(saved) = load_completed(work, manifest, fig.name) {
            report.push_str(&saved.text);
            // Held to its bands like a figure run now: the binary resuming
            // may carry bands newer than the one that recorded it.
            let rows = fig.fidelity_rows(|key| metric_f64(&saved.json, key));
            suite.failures.extend(fidelity_failures(&rows, cli));
            suite.fidelity.extend(rows);
            suite.push(saved.json);
            eprintln!(
                "[{}s] {} restored from work dir",
                t0.elapsed().as_secs(),
                fig.name
            );
            continue;
        }

        // A panicking figure comes back as a failed run, so the remaining
        // figures still execute.
        let run = run_figure(fig, cli);
        let section = format!("\n### {}\n\n{}", fig.title, run.text);
        report.push_str(&section);
        let failed = !run.failures.is_empty();
        let outcome = if failed { "FAILED" } else { "done" };
        eprintln!("[{}s] {} {outcome}", t0.elapsed().as_secs(), fig.name);
        if let Some(r) = run.report {
            let arts = FigureArtifacts {
                text: section,
                json: r.to_json(true),
            };
            if !failed {
                // Only clean, validated figures become resumable artifacts —
                // a resumed run must re-execute anything that failed.
                record_figure(work, manifest, fig.name, &arts);
            }
            suite.push(arts.json);
        }
        suite.fidelity.extend(run.fidelity);
        suite.failures.extend(run.failures);
    }
    report.push_str(&fidelity_table(&suite.fidelity, cli.is_standard_spec()));
    suite.wall_secs = t0.elapsed().as_secs_f64();
    (report, suite)
}

fn main() {
    let cli = Cli::parse();
    let json_path = cli
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_repro.json".to_string());
    let work = PathBuf::from(format!("{json_path}.work"));
    let mut manifest = init_work_dir(&work, &cli);
    let (report, suite) = run_suite(&cli, cli.selected(), &work, &mut manifest);

    println!("{report}");
    if let Some(path) = &cli.out {
        atomic_write(path, report.as_bytes()).expect("write text report");
        eprintln!("text report written to {path}");
    }
    atomic_write(&json_path, suite.to_json(true).as_bytes()).expect("write suite report");
    eprintln!("suite report written to {json_path}");
    eprintln!("total: {:.0}s", suite.wall_secs);

    if !suite.failures.is_empty() {
        eprintln!("suite completed with {} failure(s):", suite.failures.len());
        for f in &suite.failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_bench::report::RunReport;

    /// A suite killed under the binary that still wrote `fig_<name>.perf`
    /// must `--resume` under this one: the extra manifest entry (and file)
    /// is ignored, the two artifacts it still reads are verified as before.
    #[test]
    fn load_completed_accepts_a_work_dir_with_a_perf_entry() {
        let work = std::env::temp_dir().join(format!("cmap-repro-all-{}", std::process::id()));
        std::fs::create_dir_all(&work).expect("create work dir");
        let mut written = Manifest::new("suite=repro_all seed=42 effort=quick runs=default");
        for (name, bytes) in [
            ("fig_fig12_exposed.txt", &b"\n### Fig 12\n\nbody\n"[..]),
            ("fig_fig12_exposed.json", b"{\"schema\":\"cmap-obs/v1\"}"),
            (
                "fig_fig12_exposed.perf",
                b"wall_bits 3ff0000000000000\nevents 1\n",
            ),
        ] {
            atomic_write(work.join(name), bytes).expect("write artifact");
            written.record(name, bytes);
        }
        let manifest = Manifest::parse(&written.to_text()).expect("manifest parses");
        assert!(manifest.verify(
            "fig_fig12_exposed.perf",
            b"wall_bits 3ff0000000000000\nevents 1\n"
        ));

        let arts = load_completed(&work, &manifest, "fig12_exposed").expect("figure is complete");
        assert_eq!(arts.text, "\n### Fig 12\n\nbody\n");
        assert_eq!(arts.json, "{\"schema\":\"cmap-obs/v1\"}");
        // A figure the manifest does not name is still "run it".
        assert!(load_completed(&work, &manifest, "fig13_in_range").is_none());
        let _ = std::fs::remove_dir_all(&work);
    }

    /// A figure restored by `--resume` is held to its fidelity band at the
    /// standard spec, as the same figure run afresh would be: a recorded
    /// `fig12_exposed` whose gain is outside its band fails the suite.
    #[test]
    fn a_restored_figure_outside_its_band_fails_the_suite() {
        let work = std::env::temp_dir().join(format!("cmap-repro-all-band-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("create work dir");
        let cli = Cli::default();
        assert!(cli.is_standard_spec());
        let fig12 = cli
            .selected()
            .find(|f| f.name == "fig12_exposed")
            .expect("fig12_exposed runs by default");
        let mut recorded = RunReport::new(fig12.name, fig12.title, cli.spec(50), cli.effort);
        recorded.metric("median_cs_mbps", 4.0);
        recorded.metric("median_cmap_mbps", 12.0);
        recorded.metric("gain_cmap_vs_cs", 3.0);
        recorded.wall_secs = Some(1.5);
        let arts = FigureArtifacts {
            text: "\n### Fig 12\n\nrecorded\n".to_string(),
            json: recorded.to_json(true),
        };
        let mut manifest = Manifest::new(&manifest_meta(&cli));
        record_figure(&work, &mut manifest, fig12.name, &arts);

        let (text, suite) = run_suite(&cli, std::iter::once(fig12), &work, &mut manifest);
        assert_eq!(
            suite.failures,
            ["fidelity: fig12_exposed gain_cmap_vs_cs = 3 outside 1.5..2.1 (paper: ~2x over CS)"]
        );
        assert!(text.starts_with(&arts.text), "{text}");
        assert!(
            text.contains(
                "| fig12_exposed | gain_cmap_vs_cs | ~2x over CS | 1.5..2.1 | 3.0000 | fail |"
            ),
            "{text}"
        );
        assert!(suite
            .to_json(true)
            .contains(&format!("\"figures\":[{}]", arts.json)));
        let _ = std::fs::remove_dir_all(&work);
    }
}
