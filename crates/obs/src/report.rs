//! Machine-readable run reports (the `--json PATH` artifact).
//!
//! A [`RunReport`] is one figure/experiment's manifest: what was run (spec,
//! seeds, effort), what came out (named metric values), and how long it
//! took (the `timing` block). A [`SuiteReport`] aggregates many figure
//! reports plus the identity of the BER table they were graded with and the
//! verdict of every paper-fidelity predicate ([`FidelityRow`]) —
//! `repro_all` writes one as `BENCH_repro.json`.
//!
//! **Determinism contract:** everything outside the `timing` blocks derives
//! from simulation state only, keys serialize sorted (`BTreeMap`) and
//! fields in fixed order, so two same-seed runs produce byte-identical
//! reports when serialized with `include_timing = false`. The `timing`
//! block is always the *last* key of its object, and the only place
//! wall-clock-derived numbers may appear.

use std::collections::BTreeMap;

use crate::json;

/// Report schema identifier (bump on breaking shape changes).
pub(crate) const SCHEMA: &str = "cmap-obs/v1";

/// The run parameters block: which testbed, which seeds, how long.
#[derive(Debug, Clone, Default)]
pub struct SpecBlock {
    /// Testbed-generation seed (the "building").
    pub testbed_seed: u64,
    /// Run-randomness seed.
    pub run_seed: u64,
    /// Effort label (`quick` / `standard` / `full`).
    pub effort: String,
    /// Number of configurations evaluated (0 when not applicable).
    pub configs: u64,
    /// Simulated duration per run, seconds.
    pub duration_s: f64,
    /// Application payload bytes per packet.
    pub payload: u64,
}

impl SpecBlock {
    fn to_json(&self) -> String {
        format!(
            "{{\"testbed_seed\":{},\"run_seed\":{},\"effort\":{},\"configs\":{},\
             \"duration_s\":{},\"payload\":{}}}",
            self.testbed_seed,
            self.run_seed,
            {
                let mut s = String::new();
                json::push_str_lit(&mut s, &self.effort);
                s
            },
            self.configs,
            json::fmt_f64(self.duration_s),
            self.payload,
        )
    }
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
    pub fn as_f64(&self) -> Option<f64> {
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

/// Wall-clock timing of one figure run. Excluded from determinism
/// comparisons by construction (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TimingBlock {
    /// Wall-clock seconds the figure took.
    pub wall_secs: f64,
}

impl TimingBlock {
    fn to_json(&self) -> String {
        format!("{{\"wall_secs\":{}}}", json::fmt_f64(self.wall_secs))
    }
}

/// One figure/experiment's machine-readable manifest.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Registry/bin name (e.g. `fig12_exposed`).
    pub(crate) figure: String,
    /// Human title (the banner heading).
    pub(crate) title: String,
    /// Run parameters.
    pub(crate) spec: SpecBlock,
    /// Named results, sorted by key at serialization.
    pub(crate) metrics: BTreeMap<String, MetricValue>,
    /// Wall-clock block (filled by the harness shell; `None` in library
    /// contexts).
    pub timing: Option<TimingBlock>,
}

impl RunReport {
    /// An empty report for `figure`.
    pub fn new(figure: &str, title: &str, spec: SpecBlock) -> RunReport {
        RunReport {
            figure: figure.to_string(),
            title: title.to_string(),
            spec,
            metrics: BTreeMap::new(),
            timing: None,
        }
    }

    /// Insert (or overwrite) a metric.
    pub fn metric(&mut self, key: &str, value: impl Into<MetricValue>) {
        self.metrics.insert(key.to_string(), value.into());
    }

    /// Check that every required metric key is present.
    pub fn validate(&self, required: &[&str]) -> Result<(), String> {
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
        json::push_str_lit(&mut s, &self.figure);
        s.push_str(",\"title\":");
        json::push_str_lit(&mut s, &self.title);
        s.push_str(",\"spec\":");
        s.push_str(&self.spec.to_json());
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
            if let Some(t) = &self.timing {
                s.push_str(",\"timing\":");
                s.push_str(&t.to_json());
            }
        }
        s.push('}');
        s
    }
}

/// One entry of a suite's `figures` array: either a structured report
/// built this run, or the verbatim JSON of a figure restored from a
/// previous run's hash-valid artifact (`repro_all --resume`).
#[derive(Debug, Clone)]
pub enum FigureEntry {
    /// A report assembled in this process.
    Report(RunReport),
    /// Pre-serialized report JSON spliced from a completed artifact. Must
    /// be one JSON object in `RunReport::to_json(true)` shape.
    Raw(String),
}

impl From<RunReport> for FigureEntry {
    fn from(r: RunReport) -> FigureEntry {
        FigureEntry::Report(r)
    }
}

impl FigureEntry {
    /// The numeric metric `key` of this entry, if it has one. A raw entry
    /// is searched as text: inside its `metrics` object `"key":` can only
    /// be the key itself (a quote inside a string literal is escaped), and
    /// `json::fmt_f64` wrote the shortest repr that parses back to the
    /// same bits, so a restored figure yields the value the run measured.
    pub fn metric_f64(&self, key: &str) -> Option<f64> {
        match self {
            FigureEntry::Report(r) => r.metrics.get(key)?.as_f64(),
            FigureEntry::Raw(raw) => {
                let raw = strip_trailing_timing(raw);
                let metrics = &raw[raw.find(",\"metrics\":{")?..];
                let mut needle = String::new();
                json::push_key(&mut needle, key);
                let value = &metrics[metrics.find(&needle)? + needle.len()..];
                value[..value.find([',', '}'])?].parse().ok()
            }
        }
    }

    fn to_json(&self, include_timing: bool) -> String {
        match self {
            FigureEntry::Report(r) => r.to_json(include_timing),
            FigureEntry::Raw(raw) if include_timing => raw.clone(),
            FigureEntry::Raw(raw) => strip_trailing_timing(raw),
        }
    }
}

/// Drop a trailing `,"timing":{...}` member from a serialized
/// [`RunReport`]. Sound because `timing` is the *last* key by construction
/// and the `"timing"` byte sequence cannot occur inside any string literal
/// (its quotes would be escaped), so the rightmost match is the real key.
fn strip_trailing_timing(raw: &str) -> String {
    match raw.rfind(",\"timing\":") {
        Some(pos) => {
            let mut s = raw[..pos].to_string();
            s.push('}');
            s
        }
        None => raw.to_string(),
    }
}

/// Which BER interpolation table graded the suite's receptions, and how far
/// it sits from the closed form. All three values are fixed by the table's
/// construction, so the block serializes in both report views.
#[derive(Debug, Clone, PartialEq)]
pub struct BerTableBlock {
    /// Version tag of the table scheme.
    pub version: &'static str,
    /// Grid nodes per rate.
    pub grid_points: u64,
    /// Measured max |table − closed form| at construction.
    pub max_abs_err: f64,
}

impl BerTableBlock {
    fn to_json(&self) -> String {
        let mut s = String::from("{\"version\":");
        json::push_str_lit(&mut s, self.version);
        s.push_str(&format!(
            ",\"grid_points\":{},\"max_abs_err\":{}}}",
            self.grid_points,
            json::fmt_f64(self.max_abs_err)
        ));
        s
    }
}

/// How one fidelity predicate came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The measured value is inside the band.
    Pass,
    /// Outside the band (or not measured), with no waiver.
    Fail,
    /// Outside the band, but the predicate carries a waiver.
    Waived,
}

impl Verdict {
    /// Lower-case label (`pass` / `fail` / `waived`).
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Waived => "waived",
        }
    }
}

/// One declared "paper vs measured" claim: `lo <= metric <= hi`.
#[derive(Debug, PartialEq)]
pub struct Predicate {
    /// Metric key of the figure's report.
    pub metric: &'static str,
    /// What the paper reports for it.
    pub paper: &'static str,
    /// Lower edge of the accepted band.
    pub lo: f64,
    /// Upper edge; infinite (serialized `null`) for a one-sided band.
    pub hi: f64,
    /// Why a miss is accepted for now; a waived miss is reported but does
    /// not fail the run.
    pub waiver: Option<&'static str>,
}

/// A [`Predicate`] evaluated against one run. Derived from simulation
/// state only, so it serializes in both views.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityRow {
    /// Registry name of the figure the metric belongs to.
    pub figure: &'static str,
    /// The claim.
    pub predicate: &'static Predicate,
    /// The measured value; NaN (serialized `null`) if the report lacks it.
    pub measured: f64,
}

impl FidelityRow {
    /// Inside the band, waived, or failed. NaN is outside every band.
    pub fn verdict(&self) -> Verdict {
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
    /// Suite name (e.g. `repro_all`).
    pub(crate) suite: String,
    /// The shared CLI-level spec the suite ran under.
    pub(crate) spec: SpecBlock,
    /// The BER table in use; `None` omits the key (library contexts).
    pub ber_table: Option<BerTableBlock>,
    /// Every fidelity predicate of the figures run, in suite order;
    /// `None` omits the key (library contexts).
    pub fidelity: Option<Vec<FidelityRow>>,
    /// Per-figure entries, in run order.
    pub figures: Vec<FigureEntry>,
    /// Every failure the run printed as a `FAIL` line, in suite order.
    /// Deterministic (no wall clock), so it serializes in both views,
    /// after `figures` and before `timing`; `None` omits the key (library
    /// contexts).
    pub failures: Option<Vec<String>>,
    /// Suite wall-clock, if measured.
    pub timing: Option<TimingBlock>,
}

impl SuiteReport {
    /// An empty suite report.
    pub fn new(suite: &str, spec: SpecBlock) -> SuiteReport {
        SuiteReport {
            suite: suite.to_string(),
            spec,
            ber_table: None,
            fidelity: None,
            figures: Vec::new(),
            failures: None,
            timing: None,
        }
    }

    /// Append a figure report built this run.
    pub fn push(&mut self, report: RunReport) {
        self.figures.push(FigureEntry::Report(report));
    }

    /// Splice in a pre-serialized report restored from a completed
    /// artifact (see [`FigureEntry::Raw`]).
    pub fn push_raw(&mut self, raw_json: String) {
        self.figures.push(FigureEntry::Raw(raw_json));
    }

    /// Serialize; `include_timing = false` yields the deterministic view
    /// (per-figure timing blocks are dropped too).
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut s = String::from("{\"schema\":");
        json::push_str_lit(&mut s, SCHEMA);
        s.push_str(",\"suite\":");
        json::push_str_lit(&mut s, &self.suite);
        s.push_str(",\"spec\":");
        s.push_str(&self.spec.to_json());
        if let Some(b) = &self.ber_table {
            s.push_str(",\"ber_table\":");
            s.push_str(&b.to_json());
        }
        if let Some(rows) = &self.fidelity {
            let rows: Vec<String> = rows.iter().map(FidelityRow::to_json).collect();
            s.push_str(&format!(",\"fidelity\":[{}]", rows.join(",")));
        }
        s.push_str(",\"figures\":[");
        for (i, f) in self.figures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&f.to_json(include_timing));
        }
        s.push(']');
        if let Some(failures) = &self.failures {
            s.push_str(",\"failures\":[");
            for (i, f) in failures.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                json::push_str_lit(&mut s, f);
            }
            s.push(']');
        }
        if include_timing {
            if let Some(t) = &self.timing {
                s.push_str(",\"timing\":");
                s.push_str(&t.to_json());
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SpecBlock {
        SpecBlock {
            testbed_seed: 42,
            run_seed: 1,
            effort: "quick".to_string(),
            configs: 12,
            duration_s: 10.0,
            payload: 1400,
        }
    }

    #[test]
    fn run_report_shape_and_key_order() {
        let mut r = RunReport::new("fig12_exposed", "Fig 12", spec());
        r.metric("median_cmap_mbps", 8.25);
        r.metric("median_cs_mbps", 4.0);
        r.metric("configs_run", 12usize);
        r.timing = Some(TimingBlock { wall_secs: 3.5 });
        let det = r.to_json(false);
        assert!(det.starts_with("{\"schema\":\"cmap-obs/v1\",\"figure\":\"fig12_exposed\""));
        // BTreeMap: keys sorted regardless of insertion order.
        let a = det.find("configs_run").unwrap();
        let b = det.find("median_cmap_mbps").unwrap();
        let c = det.find("median_cs_mbps").unwrap();
        assert!(a < b && b < c, "{det}");
        assert!(!det.contains("timing"));
        let full = r.to_json(true);
        assert!(full.contains("\"timing\":{\"wall_secs\":3.5}"));
        // Timing is the last key by construction.
        assert!(full.ends_with("\"timing\":{\"wall_secs\":3.5}}"));
    }

    #[test]
    fn validate_reports_missing_keys() {
        let mut r = RunReport::new("f", "t", spec());
        r.metric("present", 1u64);
        assert!(r.validate(&["present"]).is_ok());
        let err = r.validate(&["present", "absent"]).unwrap_err();
        assert!(err.contains("absent"), "{err}");
        assert!(!err.contains("present,"), "{err}");
    }

    #[test]
    fn suite_report_drops_all_timing_in_deterministic_view() {
        let mut s = SuiteReport::new("repro_all", spec());
        let mut f = RunReport::new("fig12_exposed", "Fig 12", spec());
        f.metric("m", 1.5);
        f.timing = Some(TimingBlock { wall_secs: 2.0 });
        s.push(f);
        // A suite without timing omits the key: the figures array is last.
        assert!(s.to_json(true).ends_with("]}"));
        s.timing = Some(TimingBlock { wall_secs: 9.0 });
        s.ber_table = Some(BerTableBlock {
            version: "ber-table/v1",
            grid_points: 4097,
            max_abs_err: 0.00115,
        });
        let det = s.to_json(false);
        assert!(!det.contains("timing"), "{det}");
        let full = s.to_json(true);
        assert!(full.ends_with(",\"timing\":{\"wall_secs\":9}}"), "{full}");
        assert!(full.contains("\"wall_secs\":2"));
        // The table block is deterministic: after `spec` in both views.
        for view in [&det, &full] {
            assert!(
                view.contains(
                    "\"payload\":1400},\"ber_table\":{\"version\":\"ber-table/v1\",\
                     \"grid_points\":4097,\"max_abs_err\":0.00115},\"figures\":["
                ),
                "{view}"
            );
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut r = RunReport::new("f", "t", SpecBlock::default());
        r.metric("nan", f64::NAN);
        assert!(r.to_json(false).contains("\"nan\":null"));
    }

    #[test]
    fn raw_figure_entries_splice_verbatim_and_strip_timing() {
        let mut r = RunReport::new("fig13_hidden", "Fig 13", spec());
        r.metric("timing_label", "not,\"timing\": a decoy inside a string");
        r.timing = Some(TimingBlock { wall_secs: 4.25 });
        let full = r.to_json(true);
        let det = r.to_json(false);

        let mut s = SuiteReport::new("repro_all", spec());
        s.push_raw(full.clone());
        // With timing: the raw bytes appear verbatim. Without: the trailing
        // timing member is stripped, matching the structured serialization.
        assert!(s.to_json(true).contains(&full));
        assert!(s.to_json(false).contains(&det));
        assert!(!s.to_json(false).contains("wall_secs"));

        // A raw entry with no timing block passes through unchanged.
        assert_eq!(strip_trailing_timing(&det), det);
    }

    #[test]
    fn raw_and_structured_entries_serialize_identically() {
        let mut r = RunReport::new("calib_single_link", "§4.2", spec());
        r.metric("mbps", 5.04);
        r.timing = Some(TimingBlock { wall_secs: 1.0 });
        let mut structured = SuiteReport::new("repro_all", spec());
        structured.push(r.clone());
        let mut spliced = SuiteReport::new("repro_all", spec());
        spliced.push_raw(r.to_json(true));
        for include_timing in [false, true] {
            assert_eq!(
                structured.to_json(include_timing),
                spliced.to_json(include_timing)
            );
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
        let mut s = SuiteReport::new("repro_all", spec());
        assert!(!s.to_json(true).contains("\"fidelity\""));
        s.ber_table = Some(BerTableBlock {
            version: "ber-table/v1",
            grid_points: 4097,
            max_abs_err: 0.00115,
        });
        s.fidelity = Some(vec![fidelity_row(0.9, true), fidelity_row(f64::NAN, false)]);
        s.timing = Some(TimingBlock { wall_secs: 9.0 });
        for view in [s.to_json(false), s.to_json(true)] {
            assert!(
                view.contains(
                    "\"max_abs_err\":0.00115},\"fidelity\":[{\"figure\":\"mesh_dissemination\",\
                     \"metric\":\"gain\",\"paper\":\"+52%\",\"lo\":1.2,\"hi\":null,\
                     \"measured\":0.9,\"verdict\":\"waived\",\"waiver\":\"relays time-share\"},\
                     {\"figure\":\"mesh_dissemination\",\"metric\":\"gain\",\"paper\":\"+52%\",\
                     \"lo\":1.2,\"hi\":null,\"measured\":null,\"verdict\":\"fail\",\
                     \"waiver\":null}],\"figures\":["
                ),
                "{view}"
            );
        }
    }

    #[test]
    fn raw_and_structured_entries_yield_the_same_metric() {
        let mut r = RunReport::new("fig12_exposed", "a \"metrics\":{\"gain\":9} decoy", spec());
        r.metric("gain", 1.0 / 3.0);
        r.metric("again", 7.5);
        r.metric("pairs", 50usize);
        r.metric("label", "\"gain\":2");
        r.timing = Some(TimingBlock { wall_secs: 4.25 });
        let raw = FigureEntry::Raw(r.to_json(true));
        let structured = FigureEntry::Report(r);
        for key in ["gain", "again", "pairs", "label", "absent", "wall_secs"] {
            let got = raw.metric_f64(key).map(f64::to_bits);
            assert_eq!(got, structured.metric_f64(key).map(f64::to_bits), "{key}");
        }
        assert_eq!(structured.metric_f64("gain"), Some(1.0 / 3.0));
        assert_eq!(structured.metric_f64("pairs"), Some(50.0));
        assert_eq!(structured.metric_f64("label"), None);
    }

    #[test]
    fn failures_list_serializes_after_figures() {
        let mut s = SuiteReport::new("repro_all", spec());
        assert!(!s.to_json(true).contains("\"failures\""));
        s.failures = Some(Vec::new());
        assert!(s
            .to_json(false)
            .ends_with("\"figures\":[],\"failures\":[]}"));
        s.failures = Some(vec![
            "fig12_exposed panicked: job 7: boom".to_string(),
            "fidelity: \"quoted\"".to_string(),
        ]);
        s.timing = Some(TimingBlock { wall_secs: 9.0 });
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
