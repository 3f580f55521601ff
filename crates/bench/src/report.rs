//! Machine-readable run reports (the `--json PATH` artifact).
//!
//! A [`RunReport`] is one figure's manifest: what was run (its [`Spec`] and
//! [`Effort`]), what came out (named metric values), and how long it took
//! (the `timing` block). A [`SuiteReport`] aggregates the figures' reports
//! plus the identity of the BER table they were graded with and the
//! verdict of every paper-fidelity predicate ([`FidelityRow`]) —
//! `repro_all` writes one as `BENCH_repro.json`.
//!
//! **Determinism contract:** outside the `timing` blocks (always the *last*
//! key of their object) every value derives from simulation state, keys
//! serialize sorted (`BTreeMap`) and fields in fixed order, so two same-seed
//! runs produce byte-identical reports with `include_timing = false`. The
//! pool width (`Spec::jobs`) is never written. One row is exempt:
//! `scale_sweep`'s `scale.n*.{build_s,events_per_sec,peak_rss_bytes}`
//! measure the host, and no identity check runs that row.

use std::collections::BTreeMap;

use cmap_obs::json;
use cmap_sim::time::as_secs_f64;

use crate::runner::{Spec, PAYLOAD};
use crate::{Cli, Effort};

/// Report schema identifier (bump on breaking shape changes). A format
/// name, not a crate path.
const SCHEMA: &str = "cmap-obs/v1";

/// Append the `spec` object: seeds, effort, configurations, run length and
/// payload, in that order. `jobs` is deliberately absent.
fn push_spec(s: &mut String, spec: &Spec, effort: Effort) {
    s.push_str(&format!(
        "{{\"testbed_seed\":{},\"run_seed\":{},\"effort\":",
        spec.testbed_seed, spec.run_seed
    ));
    json::push_str_lit(s, effort.label());
    s.push_str(&format!(
        ",\"configs\":{},\"duration_s\":{},\"payload\":{PAYLOAD}}}",
        spec.configs,
        json::fmt_f64(as_secs_f64(spec.duration)),
    ));
}

/// Append the `timing` member, the last of its object by construction.
fn push_timing(s: &mut String, wall_secs: f64) {
    s.push_str(&format!(
        ",\"timing\":{{\"wall_secs\":{}}}",
        json::fmt_f64(wall_secs)
    ));
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Unsigned count.
    Uint(u64),
    /// Measurement.
    Float(f64),
    /// Label / enum-ish value.
    Text(String),
}

impl MetricValue {
    /// The value as a number, if it is one.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Uint(v) => Some(*v as f64),
            MetricValue::Float(v) => Some(*v),
            MetricValue::Text(_) => None,
        }
    }

    fn to_json(&self) -> String {
        match self {
            MetricValue::Uint(v) => v.to_string(),
            MetricValue::Float(v) => json::fmt_f64(*v),
            MetricValue::Text(v) => {
                let mut s = String::new();
                json::push_str_lit(&mut s, v);
                s
            }
        }
    }
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> MetricValue {
        MetricValue::Uint(v)
    }
}

impl From<usize> for MetricValue {
    fn from(v: usize) -> MetricValue {
        MetricValue::Uint(v as u64)
    }
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> MetricValue {
        MetricValue::Float(v)
    }
}

impl From<&str> for MetricValue {
    fn from(v: &str) -> MetricValue {
        MetricValue::Text(v.to_string())
    }
}

impl From<String> for MetricValue {
    fn from(v: String) -> MetricValue {
        MetricValue::Text(v)
    }
}

/// Named results, sorted by key at serialization; a second insert of a key
/// overwrites the first.
pub(crate) type Metrics = BTreeMap<String, MetricValue>;

/// One figure's machine-readable manifest.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Registry row name (e.g. `fig12_exposed`).
    figure: &'static str,
    /// Human title (the heading of its text section).
    title: &'static str,
    /// The spec the figure ran under.
    spec: Spec,
    /// The effort label the spec was scaled by.
    effort: Effort,
    /// Named results.
    pub(crate) metrics: Metrics,
    /// Wall-clock seconds of the run, written as the `timing` block (set by
    /// the harness shell; `None` in library contexts).
    pub wall_secs: Option<f64>,
}

impl RunReport {
    /// An empty report for `figure`, run under `spec` at `effort`.
    pub fn new(figure: &'static str, title: &'static str, spec: Spec, effort: Effort) -> RunReport {
        RunReport {
            figure,
            title,
            spec,
            effort,
            metrics: Metrics::new(),
            wall_secs: None,
        }
    }

    /// Insert (or overwrite) a metric.
    pub fn metric(&mut self, key: &str, value: impl Into<MetricValue>) {
        self.metrics.insert(key.to_string(), value.into());
    }

    /// Check that every required metric key is present.
    pub(crate) fn validate(&self, required: &[&str]) -> Result<(), String> {
        let missing: Vec<&str> = required
            .iter()
            .filter(|k| !self.metrics.contains_key(**k))
            .copied()
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "report `{}` is missing required metrics: {}",
                self.figure,
                missing.join(", ")
            ))
        }
    }

    /// Serialize; `include_timing = false` yields the deterministic view.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut s = String::from("{\"schema\":");
        json::push_str_lit(&mut s, SCHEMA);
        s.push_str(",\"figure\":");
        json::push_str_lit(&mut s, self.figure);
        s.push_str(",\"title\":");
        json::push_str_lit(&mut s, self.title);
        s.push_str(",\"spec\":");
        push_spec(&mut s, &self.spec, self.effort);
        s.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_key(&mut s, k);
            s.push_str(&v.to_json());
        }
        s.push('}');
        if include_timing {
            if let Some(wall_secs) = self.wall_secs {
                push_timing(&mut s, wall_secs);
            }
        }
        s.push('}');
        s
    }
}

/// The numeric metric `key` of a stored report — a [`RunReport::to_json`]
/// string — if it has one; a `null` (a non-finite measurement) or a label
/// reads as absent. Inside the `metrics` object `"key":` can only be the
/// key itself (a quote inside a string literal is escaped), and
/// `json::fmt_f64` wrote the shortest repr that parses back to the same
/// bits, so a stored figure yields the value the run measured.
pub fn metric_f64(report: &str, key: &str) -> Option<f64> {
    let report = strip_trailing_timing(report);
    let metrics = &report[report.find(",\"metrics\":{")?..];
    let mut needle = String::new();
    json::push_key(&mut needle, key);
    let value = &metrics[metrics.find(&needle)? + needle.len()..];
    value[..value.find([',', '}'])?].parse().ok()
}

/// Drop a trailing `,"timing":{...}` member from a serialized
/// [`RunReport`]. Sound because `timing` is the *last* key by construction
/// and the `"timing"` byte sequence cannot occur inside any string literal
/// (its quotes would be escaped), so the rightmost match is the real key.
fn strip_trailing_timing(report: &str) -> String {
    match report.rfind(",\"timing\":") {
        Some(pos) => {
            let mut s = report[..pos].to_string();
            s.push('}');
            s
        }
        None => report.to_string(),
    }
}

/// How one fidelity predicate came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The measured value is inside the band.
    Pass,
    /// Outside the band (or not measured), with no waiver.
    Fail,
    /// Outside the band, but the predicate carries a waiver.
    Waived,
}

impl Verdict {
    /// Lower-case label (`pass` / `fail` / `waived`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Waived => "waived",
        }
    }
}

/// One declared "paper vs measured" claim: `lo <= metric <= hi`.
#[derive(Debug, PartialEq)]
pub(crate) struct Predicate {
    /// Metric key of the figure's report.
    pub(crate) metric: &'static str,
    /// What the paper reports for it.
    pub(crate) paper: &'static str,
    /// Lower edge of the accepted band.
    pub(crate) lo: f64,
    /// Upper edge; infinite (serialized `null`) for a one-sided band.
    pub(crate) hi: f64,
    /// Why a miss is accepted for now; a waived miss is reported but does
    /// not fail the run.
    pub(crate) waiver: Option<&'static str>,
}

/// A predicate evaluated against one run. Derived from simulation state
/// only, so it serializes in both views.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityRow {
    /// Registry name of the figure the metric belongs to.
    pub(crate) figure: &'static str,
    /// The claim.
    pub(crate) predicate: &'static Predicate,
    /// The measured value; NaN (serialized `null`) if the report lacks it.
    pub(crate) measured: f64,
}

impl FidelityRow {
    /// Inside the band, waived, or failed. NaN is outside every band.
    pub(crate) fn verdict(&self) -> Verdict {
        let p = self.predicate;
        if p.lo <= self.measured && self.measured <= p.hi {
            Verdict::Pass
        } else if p.waiver.is_some() {
            Verdict::Waived
        } else {
            Verdict::Fail
        }
    }

    fn to_json(&self) -> String {
        let p = self.predicate;
        let mut s = String::from("{\"figure\":");
        json::push_str_lit(&mut s, self.figure);
        s.push_str(",\"metric\":");
        json::push_str_lit(&mut s, p.metric);
        s.push_str(",\"paper\":");
        json::push_str_lit(&mut s, p.paper);
        s.push_str(&format!(
            ",\"lo\":{},\"hi\":{},\"measured\":{},\"verdict\":\"{}\",\"waiver\":",
            json::fmt_f64(p.lo),
            json::fmt_f64(p.hi),
            json::fmt_f64(self.measured),
            self.verdict().label()
        ));
        match p.waiver {
            Some(w) => json::push_str_lit(&mut s, w),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

/// Aggregate of many figure reports (what `repro_all --json` writes).
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The CLI-level spec the suite ran under: seeds, effort and run
    /// length. Each figure sets its own configuration count, so this one
    /// holds none.
    spec: Spec,
    /// The effort label of every figure in the suite.
    effort: Effort,
    /// Every fidelity predicate of the figures run, in suite order.
    pub fidelity: Vec<FidelityRow>,
    /// Each figure's report as [`RunReport::to_json`]`(true)` wrote it —
    /// this run's, or one restored from a completed artifact — in run
    /// order.
    figures: Vec<String>,
    /// Every failure the run printed as a `FAIL` line, in suite order.
    /// Deterministic (no wall clock), so it serializes in both views,
    /// after `figures` and before `timing`.
    pub failures: Vec<String>,
    /// Suite wall-clock seconds.
    pub wall_secs: f64,
}

impl SuiteReport {
    /// The report of a suite run by `cli`, with no figures, fidelity rows
    /// or failures yet.
    pub fn new(cli: &Cli) -> SuiteReport {
        SuiteReport {
            spec: Spec {
                configs: 0,
                ..cli.spec(0)
            },
            effort: cli.effort,
            fidelity: Vec::new(),
            figures: Vec::new(),
            failures: Vec::new(),
            wall_secs: 0.0,
        }
    }

    /// Append a figure's report, as [`RunReport::to_json`]`(true)` wrote it.
    pub fn push(&mut self, report_json: String) {
        self.figures.push(report_json);
    }

    /// Serialize; `include_timing = false` yields the deterministic view
    /// (per-figure timing blocks are dropped too).
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut s = String::from("{\"schema\":");
        json::push_str_lit(&mut s, SCHEMA);
        s.push_str(",\"suite\":\"repro_all\",\"spec\":");
        push_spec(&mut s, &self.spec, self.effort);
        // Which BER interpolation table graded the suite's receptions, and
        // how far it sits from the closed form: fixed by the table's
        // construction, so in both views.
        s.push_str(",\"ber_table\":{\"version\":");
        json::push_str_lit(&mut s, cmap_phy::table::TABLE_VERSION);
        s.push_str(&format!(
            ",\"grid_points\":{},\"max_abs_err\":{}}}",
            cmap_phy::table::GRID_POINTS,
            json::fmt_f64(cmap_phy::BerTable::shared().max_abs_err())
        ));
        let rows: Vec<String> = self.fidelity.iter().map(FidelityRow::to_json).collect();
        s.push_str(&format!(",\"fidelity\":[{}]", rows.join(",")));
        s.push_str(",\"figures\":[");
        for (i, f) in self.figures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            if include_timing {
                s.push_str(f);
            } else {
                s.push_str(&strip_trailing_timing(f));
            }
        }
        s.push(']');
        s.push_str(",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_str_lit(&mut s, f);
        }
        s.push(']');
        if include_timing {
            push_timing(&mut s, self.wall_secs);
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;

    fn spec() -> Spec {
        Spec {
            testbed_seed: 42,
            run_seed: 1,
            duration: secs(10),
            configs: 12,
            jobs: 3,
        }
    }

    fn report(figure: &'static str, title: &'static str) -> RunReport {
        RunReport::new(figure, title, spec(), Effort::Quick)
    }

    fn suite() -> SuiteReport {
        SuiteReport::new(&Cli {
            effort: Effort::Quick,
            ..Cli::default()
        })
    }

    #[test]
    fn run_report_shape_and_key_order() {
        let mut r = report("fig12_exposed", "Fig 12");
        r.metric("median_cmap_mbps", 8.25);
        r.metric("median_cs_mbps", 4.0);
        r.metric("configs_run", 12usize);
        r.wall_secs = Some(3.5);
        let det = r.to_json(false);
        assert!(det.starts_with(
            "{\"schema\":\"cmap-obs/v1\",\"figure\":\"fig12_exposed\",\"title\":\"Fig 12\",\
             \"spec\":{\"testbed_seed\":42,\"run_seed\":1,\"effort\":\"quick\",\"configs\":12,\
             \"duration_s\":10,\"payload\":1400},\"metrics\":{"
        ));
        // BTreeMap: keys sorted regardless of insertion order.
        let a = det.find("configs_run").unwrap();
        let b = det.find("median_cmap_mbps").unwrap();
        let c = det.find("median_cs_mbps").unwrap();
        assert!(a < b && b < c, "{det}");
        assert!(!det.contains("timing") && !det.contains("jobs"));
        let full = r.to_json(true);
        assert!(full.contains("\"timing\":{\"wall_secs\":3.5}"));
        // Timing is the last key by construction.
        assert!(full.ends_with("\"timing\":{\"wall_secs\":3.5}}"));
    }

    #[test]
    fn validate_reports_missing_keys() {
        let mut r = report("f", "t");
        r.metric("present", 1u64);
        assert!(r.validate(&["present"]).is_ok());
        let err = r.validate(&["present", "absent"]).unwrap_err();
        assert!(err.contains("absent"), "{err}");
        assert!(!err.contains("present,"), "{err}");
    }

    #[test]
    fn suite_report_drops_all_timing_in_deterministic_view() {
        let mut s = suite();
        let mut f = report("fig12_exposed", "Fig 12");
        f.metric("m", 1.5);
        f.wall_secs = Some(2.0);
        s.push(f.to_json(true));
        s.wall_secs = 9.0;
        let det = s.to_json(false);
        assert!(!det.contains("timing"), "{det}");
        let full = s.to_json(true);
        assert!(full.ends_with(",\"timing\":{\"wall_secs\":9}}"), "{full}");
        assert!(full.contains("\"wall_secs\":2"));
        // The suite spec holds no configurations; the table block is
        // deterministic: after `spec` in both views.
        let table = format!(
            "\"configs\":0,\"duration_s\":10,\"payload\":1400}},\"ber_table\":{{\
             \"version\":\"ber-table/v1\",\"grid_points\":4097,\"max_abs_err\":{}}},\
             \"fidelity\":[],\"figures\":[",
            cmap_phy::BerTable::shared().max_abs_err()
        );
        for view in [&det, &full] {
            assert!(
                view.starts_with("{\"schema\":\"cmap-obs/v1\",\"suite\":\"repro_all\",\"spec\":"),
                "{view}"
            );
            assert!(view.contains(&table), "{view}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut r = report("f", "t");
        r.metric("nan", f64::NAN);
        assert!(r.to_json(false).contains("\"nan\":null"));
    }

    #[test]
    fn a_stored_figure_is_its_report_in_both_views() {
        let mut r = report("fig13_hidden", "Fig 13");
        r.metric("timing_label", "not,\"timing\": a decoy inside a string");
        r.metric("mbps", 5.04);
        r.wall_secs = Some(4.25);
        let full = r.to_json(true);
        let det = r.to_json(false);

        let mut s = suite();
        s.push(full.clone());
        // With timing: the stored bytes verbatim. Without: the trailing
        // timing member is stripped, leaving the report's own
        // deterministic view.
        let with = s.to_json(true);
        let without = s.to_json(false);
        assert!(with.contains(&format!("\"figures\":[{full}]")), "{with}");
        assert!(
            without.contains(&format!("\"figures\":[{det}]")),
            "{without}"
        );
        assert!(!without.contains("wall_secs"));

        // A stored report with no timing block passes through unchanged.
        assert_eq!(strip_trailing_timing(&det), det);
    }

    #[test]
    fn a_metric_reads_back_from_a_stored_figure_bit_for_bit() {
        let mut r = report("fig12_exposed", "a \"metrics\":{\"gain\":9} decoy");
        r.metric("gain", 1.0 / 3.0);
        r.metric("again", 7.5);
        r.metric("pairs", 50usize);
        r.metric("label", "\"gain\":2");
        r.metric("lost", f64::NAN);
        r.wall_secs = Some(4.25);
        let stored = r.to_json(true);
        let read = |key| metric_f64(&stored, key).map(f64::to_bits);
        for key in ["gain", "again", "pairs"] {
            let measured = r.metrics[key].as_f64().map(f64::to_bits);
            assert!(measured.is_some());
            assert_eq!(read(key), measured, "{key}");
        }
        assert_eq!(metric_f64(&stored, "gain"), Some(1.0 / 3.0));
        assert_eq!(metric_f64(&stored, "pairs"), Some(50.0));
        // A label, a `null` and a key outside `metrics` read as absent.
        for key in ["label", "lost", "absent", "wall_secs"] {
            assert_eq!(read(key), None, "{key}");
        }
    }

    const MESH_GAIN: Predicate = Predicate {
        metric: "gain",
        paper: "+52%",
        lo: 1.2,
        hi: f64::INFINITY,
        waiver: None,
    };
    const MESH_GAIN_WAIVED: Predicate = Predicate {
        waiver: Some("relays time-share"),
        ..MESH_GAIN
    };

    fn fidelity_row(measured: f64, waived: bool) -> FidelityRow {
        FidelityRow {
            figure: "mesh_dissemination",
            predicate: if waived {
                &MESH_GAIN_WAIVED
            } else {
                &MESH_GAIN
            },
            measured,
        }
    }

    #[test]
    fn fidelity_verdicts_follow_band_and_waiver() {
        assert_eq!(fidelity_row(1.5, false).verdict(), Verdict::Pass);
        assert_eq!(fidelity_row(1.2, true).verdict(), Verdict::Pass);
        assert_eq!(fidelity_row(0.9, false).verdict(), Verdict::Fail);
        assert_eq!(fidelity_row(0.9, true).verdict(), Verdict::Waived);
        // A metric the report lacks is outside every band.
        assert_eq!(fidelity_row(f64::NAN, false).verdict(), Verdict::Fail);
    }

    #[test]
    fn fidelity_block_serializes_after_ber_table_in_both_views() {
        let mut s = suite();
        s.fidelity = vec![fidelity_row(0.9, true), fidelity_row(f64::NAN, false)];
        s.wall_secs = 9.0;
        let block = format!(
            "\"max_abs_err\":{}}},\"fidelity\":[{{\"figure\":\"mesh_dissemination\",\
             \"metric\":\"gain\",\"paper\":\"+52%\",\"lo\":1.2,\"hi\":null,\
             \"measured\":0.9,\"verdict\":\"waived\",\"waiver\":\"relays time-share\"}},\
             {{\"figure\":\"mesh_dissemination\",\"metric\":\"gain\",\"paper\":\"+52%\",\
             \"lo\":1.2,\"hi\":null,\"measured\":null,\"verdict\":\"fail\",\
             \"waiver\":null}}],\"figures\":[",
            cmap_phy::BerTable::shared().max_abs_err()
        );
        for view in [s.to_json(false), s.to_json(true)] {
            assert!(view.contains(&block), "{view}");
        }
    }

    #[test]
    fn failures_list_serializes_after_figures() {
        let mut s = suite();
        assert!(s
            .to_json(false)
            .ends_with("\"figures\":[],\"failures\":[]}"));
        s.failures = vec![
            "fig12_exposed panicked: job 7: boom".to_string(),
            "fidelity: \"quoted\"".to_string(),
        ];
        s.wall_secs = 9.0;
        let full = s.to_json(true);
        let det = s.to_json(false);
        // Present in both views (the list is deterministic), between the
        // figures array and the timing region.
        for view in [&full, &det] {
            let f = view.find("\"figures\":").unwrap();
            let b = view.find("\"failures\":").unwrap();
            assert!(f < b, "{view}");
            assert!(view.contains(
                "\"failures\":[\"fig12_exposed panicked: job 7: boom\",\
                 \"fidelity: \\\"quoted\\\"\"]"
            ));
        }
        assert!(full.find("\"failures\":").unwrap() < full.find("\"timing\":").unwrap());
    }
}
