//! The metric registry: every name the benchmark reports, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] of this registry; a self-test
//! pins the two together, so a metric cannot be reported without being
//! declared or declared without being reported.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workload::WORKLOADS;

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 14;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub const fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric from the traced run. No bound: it explains an
/// end-to-end movement, it is never gated itself.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with tracing off. The failed/attempted
/// operation counts travel beside them as the result line's `failed` and
/// `attempted` keys. Why each bound is what it is: README.md, "Bounds".
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "sim_rate",
        unit: "sim_s/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_sim_s",
        unit: "1/sim_s",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "goodput_mbps",
        unit: "Mbit/s",
        better: Higher,
        bound: 0.10,
    },
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, named `<crate or module>.<what>`.
pub const PER_LAYER: [PerLayer; 81] = [
    // sim: the engine as a whole and its residual self-time.
    pl("sim.events", "count", Lower),
    pl("sim.events_per_s", "1/s", Higher),
    pl("sim.events_per_sim_s", "1/sim_s", Lower),
    pl("sim.events.timer", "count", Lower),
    pl("sim.events.tx_end", "count", Lower),
    pl("sim.events.frame_start", "count", Lower),
    pl("sim.events.frame_end", "count", Lower),
    pl("sim.ns_per_event", "ns", Lower),
    pl("sim.engine_self_ns_per_event", "ns", Lower),
    pl("sim.trace_overhead_ratio", "ratio", Lower),
    pl("sim.pool_high_water", "count", Lower),
    pl("sim.pool_recycled", "count", Higher),
    // event: the timing-wheel scheduler.
    pl("event.sched_ns_per_op", "ns", Lower),
    pl("event.cascades_per_kevent", "count", Lower),
    pl("event.max_occupancy", "count", Lower),
    pl("event.est_share", "ratio", Lower),
    // medium: propagation storage and fan-out.
    pl("medium.build_s", "s", Lower),
    pl("medium.links", "count", Lower),
    pl("medium.pruned", "count", Higher),
    pl("medium.error_bound_db", "dB", Lower),
    pl("medium.fanout_per_tx", "count", Lower),
    pl("medium.rss_lookup_ns", "ns", Lower),
    pl("medium.est_share", "ratio", Lower),
    // phy: BER table and the closed-form slow path.
    pl("phy.ber_lookups", "count", Lower),
    pl("phy.ber_lookups_per_event", "ratio", Lower),
    pl("phy.ber_ns_per_lookup", "ns", Lower),
    pl("phy.per_ns_per_call", "ns", Lower),
    pl("phy.est_share", "ratio", Lower),
    // core: CMAP (absent on DCF workloads).
    pl("core.calls.on_timer", "count", Lower),
    pl("core.calls.on_rx_frame", "count", Lower),
    pl("core.calls.on_rx_error", "count", Lower),
    pl("core.calls.on_tx_done", "count", Lower),
    pl("core.calls.on_channel_state", "count", Lower),
    pl("core.ns_per_call.on_timer", "ns", Lower),
    pl("core.ns_per_call.on_rx_frame", "ns", Lower),
    pl("core.ns_per_call.on_rx_error", "ns", Lower),
    pl("core.ns_per_call.on_tx_done", "ns", Lower),
    pl("core.ns_per_call.on_channel_state", "ns", Lower),
    pl("core.share", "ratio", Lower),
    pl("core.defers_per_tx", "ratio", Lower),
    pl("core.rtx_per_vpkt", "ratio", Lower),
    pl("core.il_broadcasts", "count", Lower),
    pl("core.state_bytes_per_node", "B", Lower),
    pl("core.defer_lookup_ns", "ns", Lower),
    // mac80211: DCF (absent on CMAP workloads).
    pl("mac80211.calls.on_timer", "count", Lower),
    pl("mac80211.calls.on_rx_frame", "count", Lower),
    pl("mac80211.calls.on_rx_error", "count", Lower),
    pl("mac80211.calls.on_tx_done", "count", Lower),
    pl("mac80211.calls.on_channel_state", "count", Lower),
    pl("mac80211.ns_per_call.on_timer", "ns", Lower),
    pl("mac80211.ns_per_call.on_rx_frame", "ns", Lower),
    pl("mac80211.ns_per_call.on_rx_error", "ns", Lower),
    pl("mac80211.ns_per_call.on_tx_done", "ns", Lower),
    pl("mac80211.ns_per_call.on_channel_state", "ns", Lower),
    pl("mac80211.share", "ratio", Lower),
    pl("mac80211.retx_per_tx", "ratio", Lower),
    pl("mac80211.eifs_per_rx_error", "ratio", Lower),
    // wire: frame views, composition, CRC.
    pl("wire.frames_rx", "count", Lower),
    pl("wire.bytes_per_frame", "B", Lower),
    pl("wire.parse_ns_per_frame", "ns", Lower),
    pl("wire.parse_checked_ns_per_frame", "ns", Lower),
    pl("wire.compose_ns_per_frame", "ns", Lower),
    pl("wire.crc_mb_per_s", "MB/s", Higher),
    pl("wire.est_share", "ratio", Lower),
    // ckpt: checkpoint/restore (ckpt_cycle only).
    pl("ckpt.checkpoint_us_p50", "us", Lower),
    pl("ckpt.checkpoint_us_p99", "us", Lower),
    pl("ckpt.restore_us_p50", "us", Lower),
    pl("ckpt.restore_us_p99", "us", Lower),
    pl("ckpt.bytes", "B", Lower),
    pl("ckpt.cycles", "count", Higher),
    pl("ckpt.share", "ratio", Lower),
    // topo: set-up phases.
    pl("topo.generate_s", "s", Lower),
    pl("topo.measure_s", "s", Lower),
    // mem: what worlds hold while alive and leave behind when dropped.
    pl("mem.peak_heap_mib", "MiB", Lower),
    pl("mem.heap_growth_mib_per_rep", "MiB", Lower),
    pl("mem.peak_rss_mib", "MiB", Lower),
    pl("mem.rss_growth_mib_per_rep", "MiB", Lower),
    // stats: the cost of the digest the checks rely on.
    pl("stats.snapshot_us", "us", Lower),
    pl("stats.nonzero_counters", "count", Lower),
    // ledger: how much of the wall the rows above account for.
    pl("ledger.attributed_share", "ratio", Higher),
    pl("ledger.unattributed_share", "ratio", Lower),
];

/// One reported value. `n` is the sample count behind a median (1 for a
/// count or a single measurement).
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

/// Metric values of one run, by name. A per-layer metric of a layer the
/// workload bypasses is simply not set: the table leaves it out, and the
/// result line (which must carry every declared name) reads 0 for it.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Record `name`, which must be in the registry.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let name = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&m| m == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        self.values.insert(name, Value { value, n });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// The human table: name, unit, value, n — declared order, absent
    /// metrics skipped.
    pub fn table(&self, traced: bool) -> String {
        let mut out = format!(
            "{:<40} {:<10} {:>18} {:>5}\n",
            "metric", "unit", "value", "n"
        );
        for (name, unit) in declared(traced) {
            if let Some(v) = self.get(name) {
                let _ = writeln!(
                    out,
                    "{name:<40} {unit:<10} {:>18} {:>5}",
                    fmt_value(v.value),
                    v.n
                );
            }
        }
        out
    }

    /// The result line's `metrics` object: every declared name of the mode.
    pub fn metrics_json(&self, traced: bool) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in declared(traced).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = self.get(name).map_or(0.0, |v| v.value);
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                fmt_value(value)
            );
        }
        out.push('}');
        out
    }
}

fn declared(traced: bool) -> Box<dyn Iterator<Item = (&'static str, &'static str)>> {
    if traced {
        Box::new(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    } else {
        Box::new(END_TO_END.iter().map(|m| (m.name, m.unit)))
    }
}

/// A number as JSON, with all the digits `f64` round-trips with. JSON has
/// no `NaN` or infinity; a value that is one reads 0.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile of `xs` by nearest rank.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
