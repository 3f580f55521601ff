//! Run every figure of the evaluation (the registry's repro subset) and
//! write a paper-vs-measured report plus a machine-readable suite manifest.
//!
//! ```text
//! cargo run --release -p cmap-bench --bin repro_all -- \
//!     [--quick|--full] [--seed N] [--jobs N] [--out PATH] [--json PATH] \
//!     [--resume]
//! ```
//!
//! * stdout / `--out PATH`: the EXPERIMENTS-style text report,
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
//! **Failures.** Every figure goes through `figures::run_figure`, the run
//! path the per-figure binaries use too, so a panicking figure does not
//! kill the suite: it comes back as a failed run whose one failure string
//! carries the panic (`cmap_exec::map` re-raises a failed job as
//! `job {i}: …`), that string lands in the suite report's `failures` list,
//! the remaining figures run to completion, and the exit code is nonzero.
//!
//! The suite self-validates: every figure's report must contain its
//! declared required metrics, at the standard spec every fidelity
//! predicate must hold or carry a waiver (`--quick` reports the verdicts
//! without gating on them), and any figure failure makes the run exit
//! nonzero — CI gates on all three.

use std::path::{Path, PathBuf};

use cmap_bench::figures::{eprint_failures, fidelity_table, run_figure, spec_block, REGISTRY};
use cmap_bench::Cli;
use cmap_obs::{atomic_write, Manifest};
use cmap_obs::{BerTableBlock, SuiteReport, TimingBlock};

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

fn main() {
    let cli = Cli::parse();
    let json_path = cli
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_repro.json".to_string());
    let work = PathBuf::from(format!("{json_path}.work"));
    let mut manifest = init_work_dir(&work, &cli);

    let mut report = String::new();
    #[expect(clippy::disallowed_methods, reason = "progress lines and timing block")]
    let t0 = std::time::Instant::now();

    // The suite-level spec block: figures override configs/duration per
    // entry, so only the seed/effort fields are meaningful here.
    let mut suite_spec = spec_block(&cli, &cli.spec(0));
    suite_spec.configs = 0;
    let mut suite = SuiteReport::new("repro_all", suite_spec);
    suite.ber_table = Some(BerTableBlock {
        version: cmap_phy::table::TABLE_VERSION,
        grid_points: cmap_phy::table::GRID_POINTS as u64,
        max_abs_err: cmap_phy::BerTable::shared().max_abs_err(),
    });
    let mut failures: Vec<String> = Vec::new();
    let mut fidelity = Vec::new();

    for fig in REGISTRY.iter().filter(|f| f.in_repro) {
        if let Some(saved) = load_completed(&work, &manifest, fig.name) {
            report.push_str(&saved.text);
            suite.push_raw(saved.json);
            let entry = suite.figures.last().expect("just pushed");
            fidelity.extend(fig.fidelity_rows(|key| entry.metric_f64(key)));
            eprintln!(
                "[{}s] {} restored from work dir",
                t0.elapsed().as_secs(),
                fig.name
            );
            continue;
        }

        // A panicking figure comes back as a failed run, so the remaining
        // figures still execute.
        let run = run_figure(fig, &cli);
        let section = format!("\n### {}\n\n{}", fig.title, run.text);
        report.push_str(&section);
        let failed = !run.failures.is_empty();
        let outcome = if failed { "FAILED" } else { "done" };
        eprintln!("[{}s] {} {outcome}", t0.elapsed().as_secs(), fig.name);
        if let Some(r) = run.report {
            if !failed {
                // Only clean, validated figures become resumable artifacts —
                // a resumed run must re-execute anything that failed.
                let arts = FigureArtifacts {
                    text: section,
                    json: r.to_json(true),
                };
                record_figure(&work, &mut manifest, fig.name, &arts);
            }
            suite.push(r);
        }
        fidelity.extend(run.fidelity);
        failures.extend(run.failures);
    }
    report.push_str(&format!(
        "\n{}",
        fidelity_table(&fidelity, cli.is_standard_spec())
    ));
    suite.fidelity = Some(fidelity);
    suite.failures = Some(failures.clone());

    suite.timing = Some(TimingBlock {
        wall_secs: t0.elapsed().as_secs_f64(),
    });

    println!("{report}");
    if let Some(path) = &cli.out {
        atomic_write(path, report.as_bytes()).expect("write text report");
        eprintln!("text report written to {path}");
    }
    atomic_write(&json_path, suite.to_json(true).as_bytes()).expect("write suite report");
    eprintln!("suite report written to {json_path}");
    eprintln!("total: {}s", t0.elapsed().as_secs());

    if !failures.is_empty() {
        eprintln!("suite completed with {} failure(s):", failures.len());
        eprint_failures(&failures);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(manifest.contains("fig_fig12_exposed.perf"));

        let arts = load_completed(&work, &manifest, "fig12_exposed").expect("figure is complete");
        assert_eq!(arts.text, "\n### Fig 12\n\nbody\n");
        assert_eq!(arts.json, "{\"schema\":\"cmap-obs/v1\"}");
        // A figure the manifest does not name is still "run it".
        assert!(load_completed(&work, &manifest, "fig13_in_range").is_none());
        let _ = std::fs::remove_dir_all(&work);
    }
}
