//! Comparing sets of runs: `repeat.sh` (two sets of one seed against the
//! declared bounds) and `spread.sh` (one set per seed, interquartile
//! spread per metric). Both read the `<workload>.e2e.txt` files `run.sh`
//! leaves in its output directory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::metrics::{median, Better, END_TO_END};
use crate::workload::WORKLOADS;

/// The end-to-end rows and digest of one `<workload>.e2e.txt`.
#[derive(Debug, Default, PartialEq)]
pub struct RunFile {
    pub metrics: BTreeMap<&'static str, f64>,
    pub digest: Option<String>,
}

/// Parse the text one untraced run printed.
pub fn parse_run(text: &str) -> RunFile {
    let mut run = RunFile::default();
    for line in text.lines() {
        let mut cols = line.split_whitespace();
        let Some(first) = cols.next() else { continue };
        if first == "stats_digest" {
            run.digest = cols.next().map(str::to_string);
        } else if let Some(m) = END_TO_END.iter().find(|m| m.name == first) {
            // name unit value n
            if let Some(v) = cols.nth(1).and_then(|v| v.parse().ok()) {
                run.metrics.insert(m.name, v);
            }
        }
    }
    run
}

/// Every workload's run file found in `dir`.
fn read_set(dir: &Path) -> Result<BTreeMap<&'static str, RunFile>, String> {
    let mut set = BTreeMap::new();
    for w in &WORKLOADS {
        let path = dir.join(format!("{}.e2e.txt", w.name));
        if let Ok(text) = fs::read_to_string(&path) {
            set.insert(w.name, parse_run(&text));
        }
    }
    if set.is_empty() {
        return Err(format!("no <workload>.e2e.txt in {}", dir.display()));
    }
    Ok(set)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// Check set `b` against set `a` (same commit, same seed): every
/// end-to-end metric within its bound, and the simulated quantities equal.
/// Returns the table and whether everything held.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (a, b) = (read_set(a)?, read_set(b)?);
    let mut out = format!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    let mut ok = true;
    for (name, ra) in &a {
        let Some(rb) = b.get(name) else {
            let _ = writeln!(out, "{name:<16} missing from set B");
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(&va), Some(&vb)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) else {
                let _ = writeln!(out, "{name:<16} {:<24} missing", m.name);
                ok = false;
                continue;
            };
            let worse = worsening(m.better, va, vb);
            let exact = matches!(m.name, "allocs_per_sim_s" | "goodput_mbps");
            let verdict = if exact && va.to_bits() != vb.to_bits() {
                "DIFFERS (must repeat exactly)"
            } else if worse > m.bound {
                "OUT OF BOUND"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            let _ = writeln!(
                out,
                "{name:<16} {:<24} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        if ra.digest != rb.digest || ra.digest.is_none() {
            let _ = writeln!(
                out,
                "{name:<16} stats_digest {:?} != {:?}",
                ra.digest, rb.digest
            );
            ok = false;
        }
    }
    Ok((out, ok))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (exclusive method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Per workload and end-to-end metric: the interquartile spread over the
/// sets in `dirs` as a share of their median, beside the declared bound.
/// Returns the table and whether every spread but `setup_s`'s is within
/// a third of its bound.
pub fn spread(dirs: &[&Path]) -> Result<(String, bool), String> {
    let sets: Vec<_> = dirs.iter().map(|d| read_set(d)).collect::<Result<_, _>>()?;
    let mut out = format!(
        "{:<16} {:<24} {:>3} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "n", "median", "spread", "bound"
    );
    let mut steady = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(w.name)?.metrics.get(m.name).copied())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let (q1, q3) = quartiles(&values);
            let med = median(&values);
            let spread = (q3 - q1) / med.abs();
            let verdict = if spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound, above a third of it"
            } else {
                "WIDER THAN BOUND"
            };
            steady &= verdict == "steady" || m.name == "setup_s";
            let _ = writeln!(
                out,
                "{:<16} {:<24} {:>3} {med:>14.6} {:>7.2}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                values.len(),
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok((out, steady))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!(
            (q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12,
            "{q1} {q3}"
        );
    }

    #[test]
    fn run_files_parse_table_rows_and_digest() {
        let run = parse_run(
            "metric unit value n\nsim_rate sim_s/s 28.25 8\nsetup_s s 0.0127 8\nstats_digest 3b218a45db190ab9\n",
        );
        assert_eq!(run.metrics["sim_rate"].to_bits(), 28.25f64.to_bits());
        assert_eq!(run.metrics.len(), 2);
        assert_eq!(run.digest.as_deref(), Some("3b218a45db190ab9"));
    }
}
