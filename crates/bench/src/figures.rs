//! The scenario registry: every figure/table of the evaluation as one row
//! of `REGISTRY`.
//!
//! A [`Figure`] row names the figure, the metric keys its report must carry
//! and the band each paper-vs-measured number is held to (a `Predicate`),
//! and points at two functions: `spec` (the experiment spec for a command
//! line) and `run` (spec in, text and named metrics out). A paper figure's
//! `run` lives in the module that computes it (`exposed`, `hidden`, …);
//! the rows that run no §5 testbed experiment — `testbed_stats` (analysis
//! only), `ablations` and `chaos_soak` (micro-topologies), `scale_sweep`
//! (a city) — live here. [`run_figure`] is the one path a row is run
//! through: `repro_all` calls it for every row [`Cli::selected`] yields,
//! whether the default `in_repro` rows or the ones named by `--figure`.
//!
//! Figures 17 and 18 share one expensive `ap_sweep` run, so the registry
//! models them as a single combined row (`fig17_18_ap`) and the sweep runs
//! once.

use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;

use cmap_core::CmapConfig;
use cmap_sim::time::{as_secs_f64, millis, secs};
use cmap_sim::{FaultPlan, MediumBuilder, PhyConfig, SparseStats, World};
use cmap_topo::micro::{CONFLICTING, EXPOSED, HIDDEN};

use crate::report::{FidelityRow, MetricValue, Metrics, Predicate, RunReport, Verdict};
use crate::runner::{testbed_ctx, Spec};
use crate::{
    ap, calibration, convergence, exposed, header_trailer, hidden, in_range, mean, mesh, Cli,
    Effort, Protocol,
};

/// What one figure run produced: printable text, named metrics, and (for
/// gating figures like the chaos soak) hard failures.
#[derive(Debug, Default)]
pub(crate) struct FigureOutput {
    /// The human-readable body of the figure's report section.
    pub(crate) text: String,
    /// Named results; they become the report's `metrics`.
    pub(crate) metrics: Metrics,
    /// Invariant violations; non-empty makes `repro_all` exit nonzero.
    pub(crate) failures: Vec<String>,
}

impl FigureOutput {
    pub(crate) fn text(text: String) -> FigureOutput {
        FigureOutput {
            text,
            ..FigureOutput::default()
        }
    }

    pub(crate) fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    pub(crate) fn metric(&mut self, key: impl Into<String>, value: impl Into<MetricValue>) {
        self.metrics.insert(key.into(), value.into());
    }
}

/// A [`Predicate`] without a waiver. Bands are set from the paper's number
/// and from how far the standard run moves across testbed seeds —
/// EXPERIMENTS.md "Fidelity gate" records both — so a change that bends a
/// figure fails here, not in a reader's eye.
const fn band(metric: &'static str, paper: &'static str, lo: f64, hi: f64) -> Predicate {
    Predicate {
        metric,
        paper,
        lo,
        hi,
        waiver: None,
    }
}

/// One registered figure/experiment of the evaluation.
pub struct Figure {
    /// Registry name, as `--figure` takes it.
    pub name: &'static str,
    /// Heading of the figure's report section.
    pub title: &'static str,
    /// Metric keys every report of this figure must contain: at least the
    /// numbers EXPERIMENTS.md's paper-vs-measured rows quote.
    pub(crate) required_metrics: &'static [&'static str],
    /// The paper-vs-measured rows of EXPERIMENTS.md as predicates over
    /// `required_metrics`; empty for figures the paper gives no number for.
    pub(crate) fidelity: &'static [Predicate],
    /// Whether `repro_all` runs this figure when no `--figure` is given.
    /// Gating and extension experiments (chaos soak, ablations, the two
    /// sweeps) run only when named.
    pub(crate) in_repro: bool,
    /// The experiment spec this figure runs under.
    pub(crate) spec: fn(&Cli) -> Spec,
    /// Run the figure under the spec `spec` returned for the same `cli`.
    pub(crate) run: fn(&Cli, &Spec) -> FigureOutput,
}

/// Every registered figure, in suite order.
pub(crate) static REGISTRY: [Figure; 15] = [
    Figure {
        name: "calib_single_link",
        title: "§4.2 — single-link calibration",
        required_metrics: &["cmap_mbps", "dot11_mbps", "ratio"],
        fidelity: &[band(
            "ratio",
            "CMAP 5.04 vs 802.11 5.07 Mbit/s (0.994)",
            0.97,
            1.03,
        )],
        in_repro: true,
        spec: |cli| cli.spec(1),
        run: calibration::calib_single_link,
    },
    Figure {
        name: "fig12_exposed",
        title: "Fig 12 — exposed terminals",
        required_metrics: &["median_cs_mbps", "median_cmap_mbps", "gain_cmap_vs_cs"],
        fidelity: &[band("gain_cmap_vs_cs", "~2x over CS", 1.5, 2.1)],
        in_repro: true,
        spec: |cli| cli.spec(50),
        run: exposed::fig12_exposed,
    },
    Figure {
        name: "fig13_in_range",
        title: "Fig 13 — two senders in range of each other",
        required_metrics: &["median_cs_mbps", "median_cmap_mbps"],
        fidelity: &[],
        in_repro: true,
        spec: |cli| cli.spec(50),
        run: in_range::fig13_in_range,
    },
    Figure {
        name: "fig14_hidden_interferers",
        title: "Fig 14 — hidden interferers",
        required_metrics: &["hidden_fraction", "expected_cmap"],
        fidelity: &[
            band("expected_cmap", "0.896", 0.85, 0.95),
            band("hidden_fraction", "~8% of samples", 0.02, 0.12),
        ],
        in_repro: true,
        spec: hidden::fig14_spec,
        run: hidden::fig14_hidden_interferers,
    },
    Figure {
        name: "fig15_hidden_terminals",
        title: "Fig 15 — two senders out of range (hidden terminals)",
        required_metrics: &["median_cs_mbps", "median_cmap_mbps", "ratio"],
        fidelity: &[band("ratio", "comparable to CS (~1x)", 0.85, 1.25)],
        in_repro: true,
        spec: |cli| cli.spec(50),
        run: hidden::fig15_hidden_terminals,
    },
    Figure {
        name: "fig16_header_trailer",
        title: "Fig 16 — probability of receiving header and/or trailer",
        required_metrics: &["mean_in_range_either", "mean_oor_either"],
        fidelity: &[],
        in_repro: true,
        spec: |cli| cli.spec(25),
        run: header_trailer::fig16_header_trailer,
    },
    Figure {
        name: "fig17_18_ap",
        title: "Figs 17/18 — N APs and N clients: aggregate and per-sender throughput",
        required_metrics: &[
            "median_cs_mbps",
            "median_cmap_mbps",
            "median_gain",
            "n3_gain",
            "n4_gain",
            "n5_gain",
            "n6_gain",
        ],
        fidelity: &[
            band("n3_gain", "+21%..+47% over CS", 1.1, 1.6),
            band("n4_gain", "+21%..+47% over CS", 1.1, 1.6),
            band("n5_gain", "+21%..+47% over CS", 1.1, 1.6),
            band("n6_gain", "+21%..+47% over CS", 1.1, 1.6),
            band("median_gain", "1.8x per sender (2.5 -> 4.6)", 1.15, 2.0),
        ],
        in_repro: true,
        spec: |cli| cli.spec(10),
        run: ap::fig17_18_ap,
    },
    Figure {
        name: "fig19_hdr_vs_senders",
        title: "Fig 19 — header-or-trailer reception vs concurrent senders",
        required_metrics: &["rows"],
        fidelity: &[],
        in_repro: true,
        spec: |cli| cli.spec(10),
        run: header_trailer::fig19_hdr_vs_senders,
    },
    Figure {
        name: "fig20_bitrates",
        title: "Fig 20 — exposed terminals at higher bit-rates",
        required_metrics: &[
            "at6_cs_mbps",
            "at6_cmap_mbps",
            "at6_gain",
            "at12_gain",
            "at18_gain",
            "min_gain_step",
        ],
        fidelity: &[
            band("at6_gain", "gains persist at 6 Mbit/s", 1.4, 2.1),
            band("at12_gain", "gains persist at 12 Mbit/s", 1.4, 2.1),
            band("at18_gain", "gains persist at 18 Mbit/s", 1.4, 2.1),
            // The ordering 6 >= 12 >= 18 Mbit/s, to the re-draw noise of a
            // median over 25 pairs.
            band(
                "min_gain_step",
                "gain shrinks as the rate grows",
                -0.02,
                f64::INFINITY,
            ),
        ],
        in_repro: true,
        spec: |cli| cli.spec(25),
        run: exposed::fig20_bitrates,
    },
    Figure {
        name: "mesh_dissemination",
        title: "§5.7 — two-hop content dissemination mesh (S -> A1..A3 -> B1..B3)",
        required_metrics: &["cs_mbps", "cmap_mbps", "gain"],
        fidelity: &[Predicate {
            metric: "gain",
            paper: "+52% over CS",
            lo: 1.2,
            hi: 1.9,
            waiver: Some("relays time-share with the source; EXPERIMENTS.md Honest-gaps list"),
        }],
        in_repro: true,
        spec: |cli| cli.spec(10),
        run: mesh::mesh_dissemination,
    },
    Figure {
        name: "testbed_stats",
        title: "§5.1 — testbed link population",
        required_metrics: &["connected_pairs", "mean_degree"],
        fidelity: &[],
        in_repro: true,
        spec: |cli| Spec {
            testbed_seed: cli.seed,
            ..Spec::default()
        },
        run: testbed_stats,
    },
    Figure {
        name: "convergence_sweep",
        title: "Convergence sweep (extension)",
        required_metrics: &["p1000_conv_rate"],
        fidelity: &[],
        in_repro: false,
        spec: |cli| cli.spec(10),
        run: convergence::convergence_sweep,
    },
    Figure {
        name: "ablations",
        title: "Ablations — CMAP design choices on exposed/conflicting/hidden micro-topologies",
        required_metrics: &["cmap_full_exposed_mbps"],
        fidelity: &[],
        in_repro: false,
        spec: ablations_spec,
        run: ablations,
    },
    Figure {
        name: "chaos_soak",
        title: "Chaos soak — fault plans × seeds, exposed-terminal topology",
        required_metrics: &["failures"],
        fidelity: &[],
        in_repro: false,
        spec: chaos_soak_spec,
        run: chaos_soak,
    },
    Figure {
        name: "scale_sweep",
        title: "Scale sweep — city-scale sparse medium vs node count",
        required_metrics: &["scale.cells", "scale.error_bound_db_max"],
        fidelity: &[],
        in_repro: false,
        spec: scale_sweep_spec,
        run: scale_sweep,
    },
];

impl Figure {
    /// Evaluate this row's predicates against `metric`, the lookup of a
    /// report's numeric metrics. A metric the report lacks reads NaN, which
    /// no band contains.
    pub fn fidelity_rows(&self, metric: impl Fn(&str) -> Option<f64>) -> Vec<FidelityRow> {
        self.fidelity
            .iter()
            .map(|predicate| FidelityRow {
                figure: self.name,
                predicate,
                measured: metric(predicate.metric).unwrap_or(f64::NAN),
            })
            .collect()
    }
}

/// The text report's last section, the fidelity table (nothing without
/// rows). Verdicts always show; `gated` says if a `fail` failed the run.
pub fn fidelity_table(rows: &[FidelityRow], gated: bool) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let gate = if gated {
        "gated"
    } else {
        "not gated: only the standard spec runs the pairs the bands were set on"
    };
    let mut t = format!(
        "\n### Fidelity — paper vs measured ({gate})\n\n\
         | figure | metric | paper | band | measured | verdict |\n|---|---|---|---|---|---|\n"
    );
    for r in rows {
        let p = r.predicate;
        let waiver = p.waiver.map_or(String::new(), |w| format!(" ({w})"));
        let _ = writeln!(
            t,
            "| {} | {} | {} | {}..{} | {:.4} | {}{waiver} |",
            r.figure,
            p.metric,
            p.paper,
            p.lo,
            p.hi,
            r.measured,
            r.verdict().label(),
        );
    }
    t
}

/// One failure line per unwaived miss among `rows` — at the standard
/// spec only, the one the bands were set on (see [`Cli::is_standard_spec`]).
/// A figure run this time and one restored by `--resume` are held to their
/// bands through this one function.
pub fn fidelity_failures(rows: &[FidelityRow], cli: &Cli) -> Vec<String> {
    if !cli.is_standard_spec() {
        return Vec::new();
    }
    rows.iter()
        .filter(|r| r.verdict() == Verdict::Fail)
        .map(|r| {
            let p = r.predicate;
            format!(
                "fidelity: {} {} = {} outside {}..{} (paper: {})",
                r.figure, p.metric, r.measured, p.lo, p.hi, p.paper
            )
        })
        .collect()
}

/// The spec of a figure that runs on its own micro-topology or analysis
/// rather than the testbed sweep [`Cli::spec`] scales.
fn micro_spec(cli: &Cli, duration: u64, configs: usize) -> Spec {
    Spec {
        testbed_seed: cli.seed,
        duration,
        configs,
        jobs: cli.effective_jobs(),
        ..Spec::default()
    }
}

/// What [`run_figure`] hands back to its caller.
pub struct FigureRun {
    /// The figure's text body followed by one `FAIL:` line per invariant
    /// violation — or, if the run panicked, the `FAIL: panicked:` line alone.
    pub text: String,
    /// The validated-or-not report; `None` when the run panicked.
    pub report: Option<RunReport>,
    /// The row's fidelity predicates against the report (against nothing,
    /// so all failing, when the run panicked).
    pub fidelity: Vec<FidelityRow>,
    /// Everything that makes the caller exit nonzero: the figure's own
    /// invariant violations, a panic, a required metric missing from the
    /// report, and — at the standard spec — an unwaived fidelity miss.
    pub failures: Vec<String>,
}

/// Run one figure: the one path from a registry row to its text, report
/// and failures. A panic anywhere in the run — in the figure itself or
/// re-raised by `exec::map` as `job {i}: …` — is caught here and
/// becomes one failure string, so the caller decides what still runs.
pub fn run_figure(fig: &Figure, cli: &Cli) -> FigureRun {
    let spec = (fig.spec)(cli);
    #[expect(clippy::disallowed_methods, reason = "figure wall time, timing block")]
    let t0 = std::time::Instant::now();
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| (fig.run)(cli, &spec)));
    let wall_secs = t0.elapsed().as_secs_f64();
    let FigureOutput {
        mut text,
        metrics,
        mut failures,
    } = match caught {
        Ok(out) => out,
        Err(payload) => {
            let msg = crate::exec::panic_message(&*payload);
            return FigureRun {
                text: format!("FAIL: panicked: {msg}\n"),
                report: None,
                fidelity: fig.fidelity_rows(|_| None),
                failures: vec![format!("{} panicked: {msg}", fig.name)],
            };
        }
    };
    let fidelity = fig.fidelity_rows(|key| metrics.get(key)?.as_f64());
    let mut report = RunReport::new(fig.name, fig.title, spec, cli.effort);
    report.metrics = metrics;
    report.wall_secs = Some(wall_secs);
    for f in &failures {
        let _ = writeln!(text, "FAIL: {f}");
    }
    if let Err(e) = report.validate(fig.required_metrics) {
        failures.push(e);
    }
    failures.extend(fidelity_failures(&fidelity, cli));
    FigureRun {
        text,
        report: Some(report),
        fidelity,
        failures,
    }
}

/// Metric-key slug of a human label (`"CS, acks"` → `cs_acks`).
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        let c = ch.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// §5.1: the testbed's link population (analysis only; no simulation).
fn testbed_stats(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let ctx = testbed_ctx(spec);
    let (tb, lm) = (&ctx.tb, &ctx.lm);
    let c = lm.connectivity();
    let mut out = FigureOutput::default();
    out.line(format!(
        "measured: {} connected pairs; {:.0}% weak, {:.0}% intermediate, {:.0}% perfect;",
        c.connected_pairs,
        100.0 * c.frac_weak,
        100.0 * c.frac_intermediate,
        100.0 * c.frac_perfect
    ));
    out.line(format!(
        "          mean degree {:.1}, median {:.1}",
        c.mean_degree, c.median_degree
    ));
    let mut potential = 0usize;
    let mut in_range = 0usize;
    for a in 0..tb.len() {
        for b in 0..tb.len() {
            if a == b {
                continue;
            }
            if lm.potential_link(a, b) {
                potential += 1;
            }
            if lm.in_range(a, b) {
                in_range += 1;
            }
        }
    }
    out.line(format!(
        "potential transmission links: {potential}; in-range pairs: {in_range}"
    ));
    out.metric("connected_pairs", c.connected_pairs);
    out.metric("frac_weak", c.frac_weak);
    out.metric("frac_intermediate", c.frac_intermediate);
    out.metric("frac_perfect", c.frac_perfect);
    out.metric("mean_degree", c.mean_degree);
    out.metric("median_degree", c.median_degree);
    out.metric("potential_links", potential);
    out.metric("in_range_pairs", in_range);
    out
}

/// Nodes of a two-pair micro-topology: senders 0 and 2, receivers 1 and 3.
const PAIR_NODES: usize = 4;

/// RSS in dBm of the links a two-pair micro-topology has, each in both
/// directions; any pair not listed is out of range.
type PairLinks = &'static [(usize, usize, f64)];

const SCENARIOS: [(&str, PairLinks); 3] = [
    ("exposed", EXPOSED),
    ("conflicting", CONFLICTING),
    ("hidden", HIDDEN),
];

/// A world over `links` with the two saturated 1400-byte flows 0→1 and
/// 2→3; returns it with their ids.
fn two_pair_world(links: PairLinks, phy: PhyConfig, seed: u64) -> (World, Vec<u16>) {
    let medium = MediumBuilder::new(&phy)
        .rss_links(PAIR_NODES, links)
        .build();
    let mut w = World::builder().medium(medium).phy(phy).seed(seed).build();
    let flows = vec![w.add_flow(0, 1, 1400), w.add_flow(2, 3, 1400)];
    (w, flows)
}

fn ablation_run(links: PairLinks, cfg: &CmapConfig, phy: PhyConfig, seed: u64, dur_s: u64) -> f64 {
    let (mut w, flows) = two_pair_world(links, phy, seed);
    Protocol::Cmap(cfg.clone()).install(&mut w);
    w.run_until(secs(dur_s));
    let from = secs(dur_s * 2 / 5);
    flows
        .iter()
        .map(|&f| w.stats().flow_throughput_mbps(f, 1400, from, secs(dur_s)))
        .sum()
}

fn ablations_spec(cli: &Cli) -> Spec {
    let dur_s = match cli.effort {
        Effort::Quick => 10,
        Effort::Standard => 25,
        Effort::Full => 60,
    };
    micro_spec(cli, secs(dur_s), 24) // 8 variants x 3 scenarios
}

/// Ablation study of CMAP's design choices on the three canonical
/// two-pair micro-topologies: exposed, conflicting, hidden.
fn ablations(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let dur = spec.duration / secs(1);
    let variants: Vec<(&str, CmapConfig, PhyConfig)> = vec![
        ("CMAP (full)", CmapConfig::default(), PhyConfig::default()),
        (
            "win=1",
            CmapConfig::default().stop_and_wait(),
            PhyConfig::default(),
        ),
        (
            "no trailers",
            CmapConfig::default().without_trailers(),
            PhyConfig::default(),
        ),
        (
            "no backoff",
            CmapConfig::default().without_backoff(),
            PhyConfig::default(),
        ),
        (
            "no IL-in-ACKs",
            CmapConfig {
                il_in_acks: false,
                ..CmapConfig::default()
            },
            PhyConfig::default(),
        ),
        (
            "no MIM capture",
            CmapConfig::default(),
            PhyConfig {
                mim_capture: false,
                ..PhyConfig::default()
            },
        ),
        (
            "l_interf=0.25",
            CmapConfig {
                l_interf: 0.25,
                ..CmapConfig::default()
            },
            PhyConfig::default(),
        ),
        (
            "l_interf=0.75",
            CmapConfig {
                l_interf: 0.75,
                ..CmapConfig::default()
            },
            PhyConfig::default(),
        ),
    ];
    let mut out = FigureOutput::default();
    out.line(format!(
        "Aggregate Mbit/s over two saturated pairs ({dur}s runs, seed {}):\n",
        spec.testbed_seed
    ));
    let mut header = format!("{:<16}", "variant");
    for (name, _) in &SCENARIOS {
        let _ = write!(header, " {name:>12}");
    }
    out.line(header);
    // The (variant × scenario) grid is embarrassingly parallel; the
    // pool returns results in grid order, so rows/metrics below read
    // back deterministically at any `--jobs` width.
    let grid: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|v| (0..SCENARIOS.len()).map(move |s| (v, s)))
        .collect();
    let aggs = crate::exec::map(spec.jobs, &grid, |&(v, s)| {
        let (_, cfg, phy) = &variants[v];
        ablation_run(
            SCENARIOS[s].1,
            cfg,
            phy.clone(),
            spec.testbed_seed ^ 0xAB1,
            dur,
        )
    });
    for (v, (name, _, _)) in variants.iter().enumerate() {
        let mut row = format!("{name:<16}");
        for (si, (scen, _)) in SCENARIOS.iter().enumerate() {
            let agg = aggs[v * SCENARIOS.len() + si];
            let _ = write!(row, " {agg:>12.2}");
            let key = match *name {
                "CMAP (full)" => format!("cmap_full_{scen}_mbps"),
                other => format!("{}_{scen}_mbps", slug(other)),
            };
            out.metric(key, agg);
        }
        out.line(row);
    }
    out.line("\nReference points: single link ~5.4; perfect exposed concurrency ~10.7.");
    out
}

/// CMAP goodput under a fault plan must stay within this factor of the
/// DCF baseline under the *same* plan.
const CMAP_VS_DCF_MIN: f64 = 0.5;
/// ... and within this factor of the clean CMAP reference.
const FAULT_VS_CLEAN_MIN: f64 = 0.25;

/// The world every soak run perturbs: the exposed pairs of [`EXPOSED`].
fn exposed_world(seed: u64) -> (World, Vec<u16>) {
    two_pair_world(EXPOSED, PhyConfig::default(), seed)
}

struct SoakRun {
    goodput: f64,
    violations: u64,
    snapshot: String,
}

fn soak_one(proto: &Protocol, plan: &FaultPlan, seed: u64, duration: u64) -> SoakRun {
    let (mut w, flows) = exposed_world(seed);
    proto.install(&mut w);
    if !plan.is_clean() {
        w.install_faults(plan.clone());
    }
    w.run_until(duration);
    let from = duration / 4;
    let goodput = flows
        .iter()
        .map(|&f| {
            w.stats()
                .flow_throughput_mbps(f, w.flow(f).payload_len, from, duration)
        })
        .sum();
    SoakRun {
        goodput,
        violations: w.watchdog_violations(),
        snapshot: w.stats().snapshot(),
    }
}

fn chaos_soak_spec(cli: &Cli) -> Spec {
    let (duration, seeds) = match cli.effort {
        Effort::Quick => (secs(4), 10),
        Effort::Standard => (secs(8), 10),
        Effort::Full => (secs(20), 25),
    };
    micro_spec(cli, duration, cli.runs.unwrap_or(seeds))
}

/// Robustness gauntlet: fault plans × seeds over the exposed-terminal
/// topology; violations land in `FigureOutput::failures`.
fn chaos_soak(_cli: &Cli, spec: &Spec) -> FigureOutput {
    let (duration, seeds) = (spec.duration, spec.configs);
    let plans = FaultPlan::canonical(PAIR_NODES, duration);
    let mut out = FigureOutput::default();
    out.line(format!(
        "{} fault plans x {seeds} seeds, {:.0}s runs, base seed {}",
        plans.len(),
        as_secs_f64(duration),
        spec.testbed_seed,
    ));
    out.line(format!(
        "bounds: cmap/dcf >= {CMAP_VS_DCF_MIN}, fault/clean >= {FAULT_VS_CLEAN_MIN}; \
         zero violations; byte-identical same-seed snapshots"
    ));
    for (name, plan) in &plans {
        let mut cmap_fault = Vec::new();
        let mut dcf_fault = Vec::new();
        let mut cmap_clean = Vec::new();
        // Each seed's four runs are independent of every other seed's;
        // the pool joins them back in seed order, so the text report
        // and failure list are identical at any `--jobs` width.
        let seed_list: Vec<u64> = (0..seeds).map(|i| spec.testbed_seed + i as u64).collect();
        let per_seed = crate::exec::map(spec.jobs, &seed_list, |&seed| {
            let a = soak_one(&Protocol::cmap(), plan, seed, duration);
            let b = soak_one(&Protocol::cmap(), plan, seed, duration);
            let d = soak_one(&Protocol::cs_on(), plan, seed, duration);
            let c = soak_one(&Protocol::cmap(), &FaultPlan::clean(), seed, duration);
            (seed, a, b, d, c)
        });
        for (seed, a, b, d, c) in per_seed {
            if a.snapshot != b.snapshot {
                out.failures
                    .push(format!("[{name}] seed {seed}: same-seed snapshots differ"));
            }
            let viol = a.violations + b.violations + d.violations + c.violations;
            if viol > 0 {
                out.failures
                    .push(format!("[{name}] seed {seed}: {viol} watchdog violations"));
            }
            cmap_fault.push(a.goodput);
            dcf_fault.push(d.goodput);
            cmap_clean.push(c.goodput);
        }
        let (cf, df, cc) = (mean(&cmap_fault), mean(&dcf_fault), mean(&cmap_clean));
        out.line(format!(
            "[{name:>14}] cmap {cf:5.2} | dcf {df:5.2} | cmap-clean {cc:5.2} Mbit/s \
             | cmap/dcf {:.2} | fault/clean {:.2}",
            cf / df.max(1e-9),
            cf / cc.max(1e-9),
        ));
        out.metric(format!("{}_cmap_mbps", slug(name)), cf);
        out.metric(format!("{}_dcf_mbps", slug(name)), df);
        out.metric(format!("{}_clean_mbps", slug(name)), cc);
        if cf < CMAP_VS_DCF_MIN * df {
            out.failures.push(format!(
                "[{name}]: cmap under faults {cf:.2} < {CMAP_VS_DCF_MIN} x dcf {df:.2}"
            ));
        }
        if cf < FAULT_VS_CLEAN_MIN * cc {
            out.failures.push(format!(
                "[{name}]: cmap under faults {cf:.2} < {FAULT_VS_CLEAN_MIN} x clean {cc:.2}"
            ));
        }
    }
    if out.failures.is_empty() {
        out.line("chaos soak: all invariants held");
    } else {
        out.line(format!("chaos soak: {} FAILURES", out.failures.len()));
    }
    out.metric("failures", out.failures.len());
    out
}

/// Interference-pruning threshold for sparse scale cells, dB above the
/// per-link pruning floor. The recorded error bound is deliberately
/// worst-case — it charges every out-of-range pair as if transmitting
/// simultaneously at the tail gain — so it grows with N; the chart
/// records it so regressions in the pruning geometry are visible.
const SCALE_EPSILON_DB: f64 = 3.0;

/// Street-grid block spacing for generated scale cities, metres.
const SCALE_BLOCK_M: f64 = 30.0;

/// Saturated flows per cell. Constant offered load across N isolates the
/// medium/engine cost of topology scale in the events/sec column.
const SCALE_FLOWS: usize = 16;

/// What one scale cell (node count × MAC) measured.
struct ScaleCell {
    events: u64,
    /// Wall time of the medium build alone.
    build_secs: f64,
    wall_secs: f64,
    peak_rss_bytes: u64,
    delivered: u64,
}

/// Run one city-scale cell: generate the city, build the pruned medium,
/// saturate [`SCALE_FLOWS`] nearest-neighbor flows, run, and measure.
fn scale_cell(n: usize, proto: &Protocol, seed: u64, duration: u64) -> (ScaleCell, SparseStats) {
    let phy = PhyConfig::default();
    let channel = cmap_topo::ChannelModel::default();
    let dep = cmap_topo::grid_city(n, SCALE_BLOCK_M, 5.0, channel, seed);
    // Evaluate out to where even a 3-sigma shadowing boost cannot lift a
    // link above the noise floor; everything beyond folds into the bound.
    let min_gain_db = phy.noise_floor_dbm - phy.tx_power_dbm;
    #[expect(clippy::disallowed_methods, reason = "medium build wall time")]
    let t_build = std::time::Instant::now();
    let medium = MediumBuilder::new(&phy)
        .epsilon_db(SCALE_EPSILON_DB)
        .positions(
            dep.positions.clone(),
            channel.eval_range_m(min_gain_db),
            channel.tail_gain_db(min_gain_db),
            dep.gain_fn(),
        )
        .build();
    let build_secs = t_build.elapsed().as_secs_f64();
    let sparse = *medium
        .sparse_stats()
        .expect("every medium records its pruning");
    cmap_obs::rss::reset_peak();
    let mut w = World::builder().medium(medium).phy(phy).seed(seed).build();
    let flows = SCALE_FLOWS.min(n / 2).max(1);
    let mut flow_ids = Vec::with_capacity(flows);
    for k in 0..flows {
        let src = cmap_sim::NodeId::new(k * n / flows);
        // Send to the strongest-gain neighbor; isolated sources (possible
        // under heavy shadowing at tiny N) simply contribute no flow.
        let dst = w
            .medium()
            .reachable(src)
            .iter()
            .copied()
            .max_by(|&a, &b| w.medium().gain(src, a).total_cmp(&w.medium().gain(src, b)));
        if let Some(dst) = dst {
            flow_ids.push(w.add_flow(src, dst, 1400));
        }
    }
    proto.install(&mut w);
    #[expect(clippy::disallowed_methods, reason = "cell wall time, for events/sec")]
    let t0 = std::time::Instant::now();
    w.run_until(duration);
    let wall_secs = t0.elapsed().as_secs_f64();
    let delivered = flow_ids
        .iter()
        .map(|&f| w.stats().flow(f).arrivals.len() as u64)
        .sum();
    let peak_rss_bytes = cmap_obs::rss::peak_rss_bytes()
        .or_else(cmap_obs::rss::current_rss_bytes)
        .unwrap_or(0);
    (
        ScaleCell {
            events: w.events_processed(),
            build_secs,
            wall_secs,
            peak_rss_bytes,
            delivered,
        },
        sparse,
    )
}

/// The node counts a scale sweep visits.
fn scale_node_counts(cli: &Cli) -> Vec<usize> {
    // `--runs N` narrows the sweep to one node count, which is how CI
    // charts per-N cells in separate processes (clean per-run RSS).
    if let Some(n) = cli.runs {
        return vec![n.max(2)];
    }
    match cli.effort {
        Effort::Quick => vec![50, 1_000, 10_000],
        Effort::Standard => vec![50, 1_000, 10_000, 30_000],
        // MAC addressing caps instantiated worlds at 65535 nodes.
        Effort::Full => vec![50, 1_000, 10_000, 60_000],
    }
}

fn scale_sweep_spec(cli: &Cli) -> Spec {
    let duration = match cli.effort {
        Effort::Quick => millis(200),
        Effort::Standard => secs(1),
        Effort::Full => secs(2),
    };
    micro_spec(cli, duration, scale_node_counts(cli).len())
}

/// City-scale sweep: events/sec and peak resident memory vs node count
/// under CMAP and DCF over the sparse spatially-indexed medium.
fn scale_sweep(cli: &Cli, spec: &Spec) -> FigureOutput {
    let counts = scale_node_counts(cli);
    let duration = spec.duration;
    let mut out = FigureOutput::default();
    out.line(format!(
        "{} node counts x 2 MACs, {:.1}s sim each, epsilon {SCALE_EPSILON_DB} dB, seed {}",
        counts.len(),
        as_secs_f64(duration),
        spec.testbed_seed,
    ));
    out.line(format!(
        "{:>7} {:>5} {:>12} {:>12}   build s {:>10} {:>9} {:>9} {:>12}",
        "nodes", "mac", "events", "events/s", "rss MiB", "links", "pruned", "err bound dB"
    ));
    // Cells run one at a time, which keeps per-cell peak-RSS readings honest.
    let seed = spec.testbed_seed;
    let mut err_bound_max = 0.0f64;
    for &n in &counts {
        for (mac, proto) in [("cmap", Protocol::cmap()), ("dcf", Protocol::cs_on())] {
            let (cell, sparse) = scale_cell(n, &proto, seed, duration);
            let eps = cell.events as f64 / cell.wall_secs.max(1e-9);
            err_bound_max = err_bound_max.max(sparse.error_bound_db);
            out.line(format!(
                "{n:>7} {mac:>5} {:>12} {:>12.0} {:>9.4} {:>10.1} {:>9} {:>9} {:>12.6}",
                cell.events,
                eps,
                cell.build_secs,
                cell.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                sparse.links,
                sparse.pruned,
                sparse.error_bound_db,
            ));
            let k = format!("scale.n{n}.{mac}");
            out.metric(format!("{k}.events"), cell.events);
            out.metric(format!("{k}.events_per_sec"), eps);
            out.metric(format!("{k}.build_s"), cell.build_secs);
            out.metric(format!("{k}.peak_rss_bytes"), cell.peak_rss_bytes);
            out.metric(format!("{k}.delivered"), cell.delivered);
            out.metric(format!("{k}.links"), sparse.links);
            out.metric(format!("{k}.pruned"), sparse.pruned);
            out.metric(format!("{k}.error_bound_db"), sparse.error_bound_db);
            if cell.events == 0 {
                out.failures
                    .push(format!("[n={n} {mac}] no events processed"));
            }
            if cell.delivered == 0 && n >= 50 {
                out.failures
                    .push(format!("[n={n} {mac}] nothing delivered"));
            }
        }
    }
    out.metric("scale.cells", 2 * counts.len());
    out.metric("scale.error_bound_db_max", err_bound_max);
    out.metric("scale.epsilon_db", SCALE_EPSILON_DB);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_repro_subset_is_stable() {
        let names: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            names.len(),
            "duplicate figure names: {names:?}"
        );
        let repro: Vec<&str> = REGISTRY
            .iter()
            .filter(|f| f.in_repro)
            .map(|f| f.name)
            .collect();
        assert_eq!(
            repro,
            [
                "calib_single_link",
                "fig12_exposed",
                "fig13_in_range",
                "fig14_hidden_interferers",
                "fig15_hidden_terminals",
                "fig16_header_trailer",
                "fig17_18_ap",
                "fig19_hdr_vs_senders",
                "fig20_bitrates",
                "mesh_dissemination",
                "testbed_stats",
            ]
        );
        for f in &REGISTRY {
            assert!(
                !f.required_metrics.is_empty(),
                "{} declares no required metrics",
                f.name
            );
        }
    }

    const NEVER_EMITTED: [Predicate; 1] = [band("never_emitted", "-", 0.0, 1.0)];

    #[test]
    fn run_figure_reports_a_panicking_row_and_returns() {
        let row = Figure {
            name: "always_panics",
            title: "a row whose run panics",
            required_metrics: &["never_emitted"],
            fidelity: &NEVER_EMITTED,
            in_repro: false,
            spec: |cli| cli.spec(1),
            run: |_, spec| panic!("boom at {} configs", spec.configs),
        };
        let run = run_figure(&row, &Cli::default());
        assert_eq!(run.failures, ["always_panics panicked: boom at 1 configs"]);
        assert_eq!(run.text, "FAIL: panicked: boom at 1 configs\n");
        assert!(run.report.is_none());
        // Nothing was measured, so the row's predicate fails.
        assert_eq!(run.fidelity.len(), 1);
        assert_eq!(run.fidelity[0].verdict(), Verdict::Fail);
    }

    /// Both rows of the concurrency test below have failed a pool job
    /// before either lets its panic reach `run_figure`.
    static BOTH_FAILED: std::sync::Barrier = std::sync::Barrier::new(2);

    /// A figure body whose one pool job panics with `msg`.
    fn fail_in_pool(msg: &'static str) -> FigureOutput {
        let payload = std::panic::catch_unwind(|| {
            crate::exec::map(1, &[()], |_| -> FigureOutput { panic!("{msg}") })
        })
        .unwrap_err();
        BOTH_FAILED.wait();
        std::panic::resume_unwind(payload)
    }

    fn failing_row(name: &'static str, run: fn(&Cli, &Spec) -> FigureOutput) -> Figure {
        Figure {
            name,
            title: "a row whose pool job panics",
            required_metrics: &["never_emitted"],
            fidelity: &[],
            in_repro: false,
            spec: |cli| cli.spec(1),
            run,
        }
    }

    #[test]
    fn concurrent_failing_figures_report_only_their_own_failure() {
        let a = failing_row("fig_a", |_, _| fail_in_pool("a down"));
        let b = failing_row("fig_b", |_, _| fail_in_pool("b down"));
        let cli = Cli::default();
        #[expect(clippy::disallowed_methods, reason = "two figures failing at once")]
        let (run_a, run_b) = std::thread::scope(|scope| {
            let run_a = scope.spawn(|| run_figure(&a, &cli));
            let run_b = scope.spawn(|| run_figure(&b, &cli));
            (run_a.join(), run_b.join())
        });
        let (run_a, run_b) = (run_a.expect("fig_a returns"), run_b.expect("fig_b returns"));
        assert_eq!(run_a.failures, ["fig_a panicked: job 0: a down"]);
        assert_eq!(run_b.failures, ["fig_b panicked: job 0: b down"]);
        assert_eq!(run_a.text, "FAIL: panicked: job 0: a down\n");
    }

    #[test]
    fn every_predicate_names_a_required_metric_and_a_sane_band() {
        for f in &REGISTRY {
            for p in f.fidelity {
                assert!(p.lo < p.hi, "{}: empty band {}..{}", f.name, p.lo, p.hi);
                assert!(
                    f.required_metrics.contains(&p.metric),
                    "{}: predicate on `{}`, which the row does not require",
                    f.name,
                    p.metric
                );
            }
            assert!(
                f.fidelity.is_empty() || f.in_repro,
                "{} has predicates but repro_all never evaluates them",
                f.name
            );
        }
    }

    const CANNED: [Predicate; 3] = [
        band("a", "about 3", 2.5, 3.5),
        band("b", "about 3", 2.5, f64::INFINITY),
        Predicate {
            metric: "c",
            paper: "about 3",
            lo: 2.5,
            hi: 3.5,
            waiver: Some("known miss"),
        },
    ];

    #[test]
    fn fidelity_is_always_reported_and_gated_only_at_the_standard_spec() {
        // Fixed metrics: one band holds, one misses unwaived, one waived.
        let row = Figure {
            name: "canned",
            title: "fixed metrics",
            required_metrics: &["a", "b", "c"],
            fidelity: &CANNED,
            in_repro: false,
            spec: |cli| cli.spec(1),
            run: |_, _| {
                let mut out = FigureOutput::default();
                out.metric("a", 3.0);
                out.metric("b", 2.0);
                out.metric("c", 1usize);
                out
            },
        };
        let standard = run_figure(&row, &Cli::default());
        let verdicts: Vec<Verdict> = standard.fidelity.iter().map(|r| r.verdict()).collect();
        assert_eq!(verdicts, [Verdict::Pass, Verdict::Fail, Verdict::Waived]);
        assert_eq!(
            standard.failures,
            ["fidelity: canned b = 2 outside 2.5..inf (paper: about 3)"]
        );
        for ungated in [
            Cli {
                effort: Effort::Quick,
                ..Cli::default()
            },
            Cli {
                runs: Some(3),
                ..Cli::default()
            },
        ] {
            assert!(!ungated.is_standard_spec());
            let run = run_figure(&row, &ungated);
            assert_eq!(run.fidelity, standard.fidelity);
            assert!(run.failures.is_empty(), "{:?}", run.failures);
        }
        let table = fidelity_table(&standard.fidelity, true);
        assert!(table.starts_with("\n### Fidelity — paper vs measured (gated)"));
        assert!(table.contains("| canned | b | about 3 | 2.5..inf | 2.0000 | fail |"));
        assert!(
            table.contains("| canned | c | about 3 | 2.5..3.5 | 1.0000 | waived (known miss) |")
        );
        assert!(fidelity_table(&standard.fidelity, false).contains("(not gated"));
    }

    #[test]
    fn no_fidelity_rows_print_no_table() {
        assert_eq!(fidelity_table(&[], true), "");
        assert_eq!(fidelity_table(&[], false), "");
    }

    #[test]
    fn testbed_stats_report_passes_its_own_validation() {
        let cli = Cli {
            effort: Effort::Quick,
            ..Cli::default()
        };
        let fig = REGISTRY
            .iter()
            .find(|f| f.name == "testbed_stats")
            .expect("registered");
        let run = run_figure(fig, &cli);
        assert!(run.text.contains("connected pairs"));
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        let report = run.report.expect("the run did not panic");
        report.validate(fig.required_metrics).unwrap();
        let det = report.to_json(false);
        assert!(det.contains("\"figure\":\"testbed_stats\""));
        assert!(det.contains("\"effort\":\"quick\""));
        assert!(!det.contains("timing"));
        assert!(report.to_json(true).contains("\"timing\""));
    }

    #[test]
    fn slug_compresses_labels_to_metric_keys() {
        assert_eq!(slug("CMAP (full)"), "cmap_full");
        assert_eq!(slug("no IL-in-ACKs"), "no_il_in_acks");
        assert_eq!(slug("l_interf=0.25"), "l_interf_0_25");
        assert_eq!(slug("CS, acks"), "cs_acks");
    }
}
