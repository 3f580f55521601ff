//! # cmap-bench — figure regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (§5), each printing
//! the measured series next to the paper's reported numbers:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `calib_single_link` | §4.2 single-link calibration |
//! | `fig12_exposed` | Fig 12 — exposed terminals |
//! | `fig13_in_range` | Fig 13 — two senders in range |
//! | `fig14_hidden_interferers` | Fig 14 — hidden-interferer scatter |
//! | `fig15_hidden_terminals` | Fig 15 — hidden terminals |
//! | `fig16_header_trailer` | Fig 16 — header/trailer reception |
//! | `fig17_ap_aggregate` | Fig 17 — AP aggregate throughput |
//! | `fig18_ap_per_sender` | Fig 18 — AP per-sender CDF |
//! | `fig19_hdr_vs_senders` | Fig 19 — reception vs concurrency |
//! | `fig20_bitrates` | Fig 20 — exposed terminals at 6/12/18 Mbit/s |
//! | `mesh_dissemination` | §5.7 — two-hop mesh |
//! | `testbed_stats` | §5.1 — link population |
//! | `repro_all` | everything above, written to EXPERIMENTS-style text |
//! | `ablations` | DESIGN.md §4.3 — CMAP's mechanisms switched off one at a time |
//! | `convergence_sweep` | extension: conflict-map convergence vs IL broadcast period |
//! | `scale_sweep` | extension: sparse medium vs node count (events/s, peak RSS) |
//! | `chaos_soak` | robustness: fault plans × seeds, degradation bounds |
//!
//! Every binary but `repro_all` is `figure_main(env!("CARGO_BIN_NAME"))`: it
//! resolves its own name to a row of the registry table in [`figures`] and
//! runs it through [`figures::run_figure`], the same path `repro_all` runs
//! the suite's rows through. A panic there — a failed pool job reaches it
//! as `job {i}: …`, run once and never retried — is the figure's one
//! `FAIL` line.
//!
//! All binaries accept `--quick` (shorter runs, fewer configurations),
//! `--full` (the paper's 100-second runs and full configuration counts),
//! `--seed N` (testbed seed), `--runs N` (configuration count), `--jobs N`
//! (pool width) and `--json PATH` (write a machine-readable
//! [`cmap_obs::RunReport`]); `--out PATH` and `--resume` are `repro_all`'s
//! alone and a usage error anywhere else.

pub mod figures;

use cmap_experiments::exposed::Curve;
use cmap_experiments::runner::Spec;
use cmap_sim::time::secs;
use cmap_stats::{Cdf, Series, Table};

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

/// The usage string every binary prints on `--help` or a parse error.
pub(crate) const USAGE: &str = "usage: <bin> [--quick|--full] [--seed N] [--runs N] [--jobs N] \
     [--json PATH] [--out PATH] [--resume]";

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
    /// (`cmap_exec::default_jobs`). Results are identical for every width.
    pub(crate) jobs: Option<usize>,
    /// Write a machine-readable report (`RunReport`, or `SuiteReport` for
    /// `repro_all`) to this path.
    pub json: Option<String>,
    /// `repro_all`: also write the text report to this path.
    pub out: Option<String>,
    /// `repro_all`: resume an interrupted suite — skip figures whose
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
                "--json" => cli.json = Some(value("--json", args.next())?),
                "--out" => cli.out = Some(value("--out", args.next())?),
                "--resume" => cli.resume = true,
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::Bad(format!("unknown flag {other}"))),
            }
        }
        Ok(cli)
    }

    /// What a per-figure binary accepts: any command line that does not
    /// carry `--out` or `--resume`, which only `repro_all` acts on.
    fn without_suite_flags(self) -> Result<Cli, CliError> {
        if self.out.is_some() || self.resume {
            return Err(CliError::Bad("--out/--resume are repro_all flags".into()));
        }
        Ok(self)
    }

    /// Parse `std::env::args`; exits with usage on `--help` or bad flags.
    pub fn parse() -> Cli {
        Cli::or_exit(Cli::try_parse_from(std::env::args().skip(1)))
    }

    /// [`Cli::parse`] for a per-figure binary.
    pub(crate) fn parse_figure() -> Cli {
        Cli::or_exit(
            Cli::try_parse_from(std::env::args().skip(1)).and_then(Cli::without_suite_flags),
        )
    }

    fn or_exit(parsed: Result<Cli, CliError>) -> Cli {
        match parsed {
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

    /// The worker-pool width this invocation runs with: `--jobs N` if
    /// given, otherwise the machine's available parallelism. The probed
    /// value sizes the pool only — it is never serialized into report
    /// bytes, so the same seeds produce byte-identical artifacts on any
    /// machine (see `cmap_exec::default_jobs`).
    pub(crate) fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(cmap_exec::default_jobs)
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

/// Render labelled sample sets as a CDF table over `[lo, hi]`.
pub(crate) fn render_cdfs(
    x_label: &str,
    curves: &[Curve],
    lo: f64,
    hi: f64,
    bins: usize,
) -> String {
    let mut table = Table::new(x_label);
    for c in curves {
        let cdf = Cdf::new(c.samples.clone());
        table.push(Series::new(c.label.clone(), cdf.points()));
    }
    // A CDF is a step function: interpolation on the grid is fine for a
    // textual rendering.
    table.render_grid(lo, hi, bins)
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
    Cdf::new(c.samples.clone()).median()
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

/// Standard figure preamble.
pub(crate) fn banner(figure: &str, paper_claim: &str, spec: &Spec) {
    println!("==================================================================");
    println!("{figure}");
    println!("paper: {paper_claim}");
    println!(
        "spec: testbed seed {}, {} configurations, {:.0}s runs (measuring the last {:.0}s)",
        spec.testbed_seed,
        spec.configs,
        spec.duration as f64 / 1e9,
        (spec.duration - spec.measure_from()) as f64 / 1e9,
    );
    println!("------------------------------------------------------------------");
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
    fn suite_flags_are_an_error_for_a_figure_binary() {
        let for_figure =
            |list: &[&str]| Cli::try_parse_from(args(list)).and_then(Cli::without_suite_flags);
        let rejected = CliError::Bad("--out/--resume are repro_all flags".into());
        assert_eq!(for_figure(&["--resume"]).unwrap_err(), rejected);
        assert_eq!(
            for_figure(&["--quick", "--out", "x.md"]).unwrap_err(),
            rejected
        );
        // Everything else a figure binary is documented to take passes through.
        let cli = for_figure(&[
            "--quick", "--seed", "7", "--runs", "9", "--jobs", "2", "--json", "r.json",
        ])
        .unwrap();
        assert_eq!((cli.seed, cli.runs, cli.jobs), (7, Some(9), Some(2)));
        assert_eq!(cli.json.as_deref(), Some("r.json"));
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
}
