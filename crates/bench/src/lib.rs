//! # cmap-bench — the paper's evaluation and its harness
//!
//! One module per experiment of §5 computes its figure and renders it, by
//! the paper's method: topology selection under the Fig 11 constraints
//! (via `cmap-topo`), saturated 1400-byte flows, runs measured over their
//! final fraction (§5.1 measures the last 60 of 100 seconds), and the same
//! protocol line-up — 802.11 with carrier sense on/off, ACKs on/off, CMAP,
//! and CMAP with a stop-and-wait window. One binary, `repro_all`, runs them
//! and prints each measured series next to the paper's reported numbers:
//!
//! ```text
//! cargo run --release -p cmap-bench --bin repro_all -- [--figure NAME]...
//! ```
//!
//! Each experiment is one row of the registry table in [`figures`]; with no
//! `--figure` the run is the rows marked `in_repro`, otherwise the named
//! rows, in registry order:
//!
//! | Row | Module | Reproduces |
//! |---|---|---|
//! | `calib_single_link` | `calibration` | §4.2 single-link calibration |
//! | `fig12_exposed` | [`exposed`] | Fig 12 — exposed terminals |
//! | `fig13_in_range` | `in_range` | Fig 13 — two senders in range |
//! | `fig14_hidden_interferers` | `hidden` | Fig 14 — hidden-interferer scatter |
//! | `fig15_hidden_terminals` | `hidden` | Fig 15 — hidden terminals |
//! | `fig16_header_trailer` | `header_trailer` | Fig 16 — header/trailer reception |
//! | `fig17_18_ap` | `ap` | Figs 17/18 — AP aggregate and per-sender throughput |
//! | `fig19_hdr_vs_senders` | `header_trailer` | Fig 19 — reception vs concurrency |
//! | `fig20_bitrates` | [`exposed`] | Fig 20 — exposed terminals at 6/12/18 Mbit/s |
//! | `mesh_dissemination` | `mesh` | §5.7 — two-hop mesh |
//! | `testbed_stats` | [`figures`] | §5.1 — link population |
//! | `convergence_sweep` | `convergence` | extension: conflict-map convergence vs IL broadcast period (`--figure` only) |
//! | `ablations` | [`figures`] | DESIGN.md §4.3 — CMAP's mechanisms switched off one at a time (`--figure` only) |
//! | `chaos_soak` | [`figures`] | robustness: fault plans × seeds, degradation bounds (`--figure` only) |
//! | `scale_sweep` | [`figures`] | extension: sparse medium vs node count (`--figure` only) |
//!
//! Every row runs through [`figures::run_figure`]. A panic there — a failed
//! pool job reaches it as `job {i}: …`, run once and never retried — is
//! the figure's one `FAIL` line. [`runner`] is the run machinery every
//! module shares (specs, world construction, measurement); it and
//! [`Protocol`] are public because the root tests and examples build their
//! worlds through them. [`exec::map`], [`render_cdfs`], [`mean`] and
//! [`std_dev`] are public because the root tests hold their properties.
//! [`report`] is the run report every row ends as: a [`report::RunReport`]
//! per figure, gathered into the [`report::SuiteReport`] that `--json`
//! writes.
//!
//! Flags: `--quick` (shorter runs, fewer configurations), `--full` (the
//! paper's 100-second runs and full configuration counts), `--seed N`
//! (testbed seed), `--runs N` (configuration count), `--jobs N` (pool
//! width), `--figure NAME` (repeatable row selection), `--json PATH` (the
//! machine-readable [`report::SuiteReport`]), `--out PATH` (the text
//! report) and `--resume`.

mod ap;
mod calibration;
mod convergence;
pub mod exec;
pub mod exposed;
pub mod figures;
mod header_trailer;
mod hidden;
mod in_range;
mod mesh;
mod protocol;
pub mod report;
pub mod runner;

use cmap_sim::time::secs;
use cmap_topo::percentile;

use exposed::Curve;
use figures::{Figure, REGISTRY};
use runner::Spec;

pub use protocol::Protocol;

/// Effort level selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Smoke-test scale.
    Quick,
    /// Default: statistically useful, minutes of wall-clock.
    Standard,
    /// The paper's scale (100 s runs, full configuration counts).
    Full,
}

impl Effort {
    /// Lower-case label for reports (`quick` / `standard` / `full`).
    pub fn label(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Standard => "standard",
            Effort::Full => "full",
        }
    }
}

/// The usage string printed on `--help` or a parse error.
pub(crate) const USAGE: &str = "usage: repro_all [--quick|--full] [--seed N] [--runs N] \
     [--jobs N] [--figure NAME]... [--json PATH] [--out PATH] [--resume]";

/// Why [`Cli::try_parse_from`] rejected a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CliError {
    /// `--help` was requested: print usage, exit 0.
    Help,
    /// Malformed arguments: print the message plus usage, exit 2.
    Bad(String),
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Effort level.
    pub effort: Effort,
    /// Testbed seed.
    pub seed: u64,
    /// Override for the number of configurations, if given.
    pub runs: Option<usize>,
    /// Worker-pool width (`--jobs N`); `None` means "probe the machine"
    /// (`exec::default_jobs`). Results are identical for every width.
    pub(crate) jobs: Option<usize>,
    /// The registry rows named by `--figure`, in command-line order; empty
    /// runs the `in_repro` rows (see [`Cli::selected`]).
    figures: Vec<&'static str>,
    /// Write the machine-readable `SuiteReport` to this path.
    pub json: Option<String>,
    /// Also write the text report to this path.
    pub out: Option<String>,
    /// Resume an interrupted suite — skip figures whose
    /// per-figure artifacts in the work directory are present and
    /// hash-valid against the completion manifest, and splice their saved
    /// reports into the final artifacts.
    pub resume: bool,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            effort: Effort::Standard,
            seed: 42,
            runs: None,
            jobs: None,
            figures: Vec::new(),
            json: None,
            out: None,
            resume: false,
        }
    }
}

impl Cli {
    /// Parse an argument list (without the program name). Pure function so
    /// error paths are unit-testable; [`Cli::parse`] is the exiting shell.
    pub(crate) fn try_parse_from<I>(args: I) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        let value = |flag: &str, v: Option<String>| {
            v.ok_or_else(|| CliError::Bad(format!("{flag} needs a value")))
        };
        let number = |flag: &str, v: Option<String>| {
            value(flag, v)?
                .parse::<usize>()
                .map_err(|_| CliError::Bad(format!("{flag} needs a number")))
        };
        let count = |flag: &str, v: Option<String>| match number(flag, v)? {
            0 => Err(CliError::Bad(format!("{flag} must be >= 1"))),
            n => Ok(n),
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.effort = Effort::Quick,
                "--full" => cli.effort = Effort::Full,
                "--seed" => cli.seed = number("--seed", args.next())? as u64,
                "--runs" => cli.runs = Some(count("--runs", args.next())?),
                "--jobs" => cli.jobs = Some(count("--jobs", args.next())?),
                "--figure" => {
                    let name = value("--figure", args.next())?;
                    let fig = REGISTRY.iter().find(|f| f.name == name).ok_or_else(|| {
                        let names: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
                        CliError::Bad(format!(
                            "unknown figure {name}; one of: {}",
                            names.join(", ")
                        ))
                    })?;
                    cli.figures.push(fig.name);
                }
                "--json" => cli.json = Some(value("--json", args.next())?),
                "--out" => cli.out = Some(value("--out", args.next())?),
                "--resume" => cli.resume = true,
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::Bad(format!("unknown flag {other}"))),
            }
        }
        Ok(cli)
    }

    /// Parse `std::env::args`; exits with usage on `--help` or bad flags.
    pub fn parse() -> Cli {
        match Cli::try_parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(CliError::Bad(msg)) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The registry rows this invocation runs, in registry order and each
    /// once: the rows named by `--figure`, or the `in_repro` rows if none
    /// was named.
    pub fn selected(&self) -> impl Iterator<Item = &'static Figure> + '_ {
        REGISTRY.iter().filter(|f| {
            if self.figures.is_empty() {
                f.in_repro
            } else {
                self.figures.contains(&f.name)
            }
        })
    }

    /// The worker-pool width this invocation runs with: `--jobs N` if
    /// given, otherwise the machine's available parallelism. The probed
    /// value sizes the pool only — it is never serialized into report
    /// bytes, so the same seeds produce byte-identical artifacts on any
    /// machine (see `exec::default_jobs`).
    pub(crate) fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(exec::default_jobs)
    }

    /// Whether this is the spec the fidelity bands were set on — default
    /// effort, each figure's default pair count — and so the one whose
    /// unwaived misses fail the run. `--quick` runs a quarter of the pairs
    /// for a third of the time; its verdicts are reported, not gated.
    pub fn is_standard_spec(&self) -> bool {
        self.effort == Effort::Standard && self.runs.is_none()
    }

    /// Build the experiment spec for this CLI at a given default
    /// configuration count.
    pub fn spec(&self, default_configs: usize) -> Spec {
        let (duration, configs) = match self.effort {
            Effort::Quick => (secs(10), (default_configs / 4).max(3)),
            Effort::Standard => (secs(30), default_configs),
            Effort::Full => (secs(100), default_configs),
        };
        Spec {
            testbed_seed: self.seed,
            duration,
            configs: self.runs.unwrap_or(configs),
            jobs: self.effective_jobs(),
            ..Spec::default()
        }
    }
}

/// Render labelled sample sets as a CDF table over `[lo, hi]`: a header,
/// then `bins` evenly spaced x values, each with every curve's CDF there —
/// linear between the curve's step points `(x_i, (i+1)/n)` of its sorted
/// samples.
pub fn render_cdfs(x_label: &str, curves: &[Curve], lo: f64, hi: f64, bins: usize) -> String {
    let sorted: Vec<Vec<f64>> = curves
        .iter()
        .map(|c| {
            assert!(!c.samples.is_empty(), "CDF of empty sample");
            assert!(c.samples.iter().all(|s| !s.is_nan()), "NaN in CDF input");
            let mut v = c.samples.clone();
            v.sort_by(f64::total_cmp);
            v
        })
        .collect();
    assert!(bins >= 2 && hi > lo);
    let mut out = format!("{x_label:>12}");
    for c in curves {
        out += &format!(" {:>14.14}", c.label);
    }
    out.push('\n');
    for i in 0..bins {
        let x = lo + (hi - lo) * i as f64 / (bins - 1) as f64;
        out += &format!("{x:>12.3}");
        for v in &sorted {
            out += &format!(" {:>14.4}", cdf_at(v, x));
        }
        out.push('\n');
    }
    out
}

/// The CDF of the non-empty ascending `sorted` at `x`: the fraction of
/// samples `<= x`, linear from there to the next step point.
fn cdf_at(sorted: &[f64], x: f64) -> f64 {
    let n = sorted.len() as f64;
    let k = sorted.partition_point(|&v| v <= x);
    if k == 0 {
        return 0.0;
    }
    if k == sorted.len() {
        return 1.0;
    }
    let (x0, y0) = (sorted[k - 1], k as f64 / n);
    let (x1, y1) = (sorted[k], (k + 1) as f64 / n);
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// One line of per-curve medians.
fn medians_line(curves: &[Curve]) -> String {
    curves
        .iter()
        .map(|c| format!("{} median {:.2}", c.label, median(c)))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Median of one curve.
pub(crate) fn median(c: &Curve) -> f64 {
    percentile(&c.samples, 50.0)
}

/// Median of the curve labelled `label`; NaN if there is none.
pub(crate) fn median_of(curves: &[Curve], label: &str) -> f64 {
    curves
        .iter()
        .find(|c| c.label == label)
        .map_or(f64::NAN, median)
}

/// The text of a CDF figure (Figs 12, 13, 15, 20): the per-curve medians
/// line, `notes`, a blank line and the CDF table over `[0, hi]` Mbit/s.
pub(crate) fn cdf_figure(curves: &[Curve], notes: &[String], hi: f64) -> String {
    let mut text = medians_line(curves) + "\n";
    for note in notes {
        text += note;
        text.push('\n');
    }
    text.push('\n');
    text + &render_cdfs("Mbit/s", curves, 0.0, hi, 26)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let cli = Cli::try_parse_from(args(&[])).unwrap();
        assert_eq!(cli.effort, Effort::Standard);
        assert_eq!(cli.seed, 42);
        assert!(cli.runs.is_none() && cli.json.is_none() && cli.out.is_none());

        let cli = Cli::try_parse_from(args(&[
            "--quick", "--seed", "7", "--runs", "9", "--json", "r.json", "--out", "r.md",
        ]))
        .unwrap();
        assert_eq!(cli.effort, Effort::Quick);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.runs, Some(9));
        assert_eq!(cli.json.as_deref(), Some("r.json"));
        assert_eq!(cli.out.as_deref(), Some("r.md"));

        assert!(!cli.resume);

        // The two flags of the deleted perf artifact are ordinary unknowns.
        for flag in ["--perf-out", "--perf-baseline"] {
            assert_eq!(
                Cli::try_parse_from(args(&[flag, "p.json"])).unwrap_err(),
                CliError::Bad(format!("unknown flag {flag}"))
            );
            assert!(!USAGE.contains(flag));
        }

        let cli = Cli::try_parse_from(args(&["--resume"])).unwrap();
        assert!(cli.resume);
        assert!(USAGE.contains("--resume"));
    }

    #[test]
    fn parse_errors_are_reportable_not_fatal() {
        let unknown = Cli::try_parse_from(args(&["--frobnicate"])).unwrap_err();
        assert_eq!(unknown, CliError::Bad("unknown flag --frobnicate".into()));

        let missing = Cli::try_parse_from(args(&["--seed"])).unwrap_err();
        assert_eq!(missing, CliError::Bad("--seed needs a value".into()));

        let non_numeric = Cli::try_parse_from(args(&["--runs", "many"])).unwrap_err();
        assert_eq!(non_numeric, CliError::Bad("--runs needs a number".into()));

        let bad_jobs = Cli::try_parse_from(args(&["--jobs", "zero"])).unwrap_err();
        assert_eq!(bad_jobs, CliError::Bad("--jobs needs a number".into()));

        let zero_jobs = Cli::try_parse_from(args(&["--jobs", "0"])).unwrap_err();
        assert_eq!(zero_jobs, CliError::Bad("--jobs must be >= 1".into()));

        let zero_runs = Cli::try_parse_from(args(&["--runs", "0"])).unwrap_err();
        assert_eq!(zero_runs, CliError::Bad("--runs must be >= 1".into()));

        let dangling = Cli::try_parse_from(args(&["--json"])).unwrap_err();
        assert_eq!(dangling, CliError::Bad("--json needs a value".into()));

        assert_eq!(
            Cli::try_parse_from(args(&["--help"])).unwrap_err(),
            CliError::Help
        );
        assert_eq!(
            Cli::try_parse_from(args(&["-h"])).unwrap_err(),
            CliError::Help
        );
    }

    #[test]
    fn figure_selects_named_rows_in_registry_order_each_once() {
        let names = |list: &[&str]| {
            let cli = Cli::try_parse_from(args(list)).unwrap();
            cli.selected().map(|f| f.name).collect::<Vec<_>>()
        };
        assert_eq!(
            names(&["--figure", "chaos_soak", "--figure", "chaos_soak"]),
            ["chaos_soak"]
        );
        assert_eq!(
            names(&["--figure", "scale_sweep", "--figure", "fig12_exposed"]),
            ["fig12_exposed", "scale_sweep"]
        );
        let repro: Vec<&str> = REGISTRY
            .iter()
            .filter(|f| f.in_repro)
            .map(|f| f.name)
            .collect();
        assert_eq!(names(&[]), repro);
        assert_eq!(names(&["--quick", "--jobs", "2"]), repro);
    }

    #[test]
    fn figure_errors_are_usage_errors() {
        let CliError::Bad(msg) =
            Cli::try_parse_from(args(&["--figure", "fig17_ap_aggregate"])).unwrap_err()
        else {
            panic!("an unknown figure is a usage error");
        };
        assert!(
            msg.starts_with("unknown figure fig17_ap_aggregate; one of: calib_single_link, "),
            "{msg}"
        );
        assert!(msg.ends_with(", chaos_soak, scale_sweep"), "{msg}");
        for f in &REGISTRY {
            assert!(msg.contains(f.name), "{msg}");
        }
        assert_eq!(
            Cli::try_parse_from(args(&["--figure"])).unwrap_err(),
            CliError::Bad("--figure needs a value".into())
        );
        assert!(USAGE.contains("--figure NAME"));
    }

    #[test]
    fn spec_scales_with_effort() {
        let quick = Cli {
            effort: Effort::Quick,
            seed: 1,
            ..Cli::default()
        }
        .spec(50);
        let full = Cli {
            effort: Effort::Full,
            seed: 1,
            ..Cli::default()
        }
        .spec(50);
        assert!(quick.duration < full.duration);
        assert!(quick.configs < full.configs);
        assert_eq!(full.duration, secs(100));
    }

    #[test]
    fn runs_override_wins() {
        let cli = Cli {
            runs: Some(7),
            ..Cli::default()
        };
        assert_eq!(cli.spec(50).configs, 7);
    }

    #[test]
    fn jobs_flag_reaches_the_spec() {
        let cli = Cli::try_parse_from(args(&["--jobs", "4"])).unwrap();
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.effective_jobs(), 4);
        assert_eq!(cli.spec(50).jobs, 4);
        // Unpinned: the probe only sizes the pool, so any positive width
        // is acceptable (and never appears in report bytes).
        assert!(Cli::default().effective_jobs() >= 1);
    }

    #[test]
    fn effort_labels_are_stable() {
        assert_eq!(Effort::Quick.label(), "quick");
        assert_eq!(Effort::Standard.label(), "standard");
        assert_eq!(Effort::Full.label(), "full");
    }

    #[test]
    fn render_cdfs_produces_rows() {
        let curves = vec![
            Curve {
                label: "a".into(),
                samples: vec![1.0, 2.0, 3.0],
            },
            Curve {
                label: "b".into(),
                samples: vec![2.0, 4.0],
            },
        ];
        let text = render_cdfs("Mbit/s", &curves, 0.0, 5.0, 6);
        assert_eq!(text.lines().count(), 7);
        assert!(text.contains('a') && text.contains('b'));
        assert!(medians_line(&curves).contains("median 2.00"));
        assert!((median_of(&curves, "a") - 2.0).abs() < 1e-12);
    }

    /// The rendered `(x, F(x))` cells of one curve's CDF table.
    fn cells(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
        let curve = Curve {
            label: "c".into(),
            samples: samples.to_vec(),
        };
        render_cdfs("x", &[curve], lo, hi, bins)
            .lines()
            .skip(1)
            .map(|row| {
                let mut cell = row.split_whitespace().map(|v| v.parse().unwrap());
                (cell.next().unwrap(), cell.next().unwrap())
            })
            .collect()
    }

    #[test]
    fn points_are_a_step_function() {
        // Step points (10, 0.5) and (20, 1.0), in any sample order.
        assert_eq!(
            cells(&[20.0, 10.0], 10.0, 20.0, 3),
            [(10.0, 0.5), (15.0, 0.75), (20.0, 1.0)]
        );
    }

    #[test]
    fn ties_are_counted_inclusively() {
        assert_eq!(
            cells(&[2.0, 2.0, 2.0, 5.0], 1.999, 2.0, 2),
            [(1.999, 0.0), (2.0, 0.75)]
        );
    }

    #[test]
    fn a_cdf_reads_zero_below_its_smallest_sample() {
        // Not the first step point's 1/n; and a 2-fold minimum is 2/3.
        assert_eq!(
            cells(&[2.0, 2.0, 5.0], 1.0, 2.0, 2),
            [(1.0, 0.0), (2.0, 0.6667)]
        );
    }

    #[test]
    fn interpolation() {
        // 0 below the smallest sample, linear between the step points, 1
        // from the largest sample on.
        assert_eq!(
            cells(&[0.0, 10.0], -5.0, 20.0, 6),
            [
                (-5.0, 0.0),
                (0.0, 0.5),
                (5.0, 0.75),
                (10.0, 1.0),
                (15.0, 1.0),
                (20.0, 1.0)
            ]
        );
    }

    #[test]
    fn grid_render_shape() {
        let curves = [
            Curve {
                label: "up".into(),
                samples: vec![0.0, 1.0],
            },
            Curve {
                label: "a label past fourteen".into(),
                samples: vec![0.5, 1.0],
            },
        ];
        let text = render_cdfs("x", &curves, 0.0, 1.0, 3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert_eq!(
            lines[0],
            format!("{:>12} {:>14} {:>14}", "x", "up", "a label past f")
        );
        for line in &lines {
            assert_eq!(line.len(), 12 + 2 * 15, "{line}");
        }
        // Middle row: x = 0.5, a quarter past the first curve's first step
        // and on the second curve's first step.
        assert_eq!(
            lines[2],
            format!("{:>12} {:>14} {:>14}", "0.500", "0.7500", "0.5000")
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        cells(&[], 0.0, 1.0, 2);
    }

    #[test]
    #[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ~2.138.
        assert!((std_dev(&xs) - 2.138).abs() < 0.001);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }
}
