//! # cmap-obs — structured observability for the CMAP reproduction
//!
//! The harness-wide backbone for everything a run can tell you about
//! itself, designed around three contracts:
//!
//! * **Typed, not stringly-typed.** Counters and gauges are enum keys
//!   ([`CounterId`], [`GaugeId`]) with static names; the hot path indexes a
//!   flat array instead of probing a string-keyed map, and a typo in a
//!   metric name is a compile error instead of a silent zero.
//! * **Deterministic by construction.** Trace dumps ([`TraceSink`]) and run
//!   reports ([`RunReport`], [`SuiteReport`]) serialize in a fixed field
//!   order with deterministic number formatting, so two same-seed runs
//!   produce byte-identical artifacts. Wall-clock derived data is confined
//!   to the `timing` block, which every writer can exclude.
//! * **Off the simulation path.** Nothing in this crate reads a clock or
//!   an entropy source (`clippy.toml`'s wall-clock ban holds crate-wide); a
//!   [`TimingBlock`] is *handed* its wall-clock seconds by the harness
//!   shell.
//!
//! | Module | Provides |
//! |---|---|
//! | [`alloc`] | opt-in counting global allocator (`benchmark/` installs it) |
//! | `metrics` | [`CounterId`] / [`GaugeId`] registries with static names |
//! | `trace` | typed ring-buffer [`TraceSink`] with deterministic JSONL dump |
//! | `report` | [`RunReport`] / [`SuiteReport`] manifest writers (`--json`) |
//! | `json` | minimal deterministic JSON encoding helpers |

pub mod alloc;
mod artifact;
mod json;
mod metrics;
mod report;
pub mod rss;
mod trace;

pub use artifact::{atomic_write, fnv1a64, Manifest};
pub use metrics::{CounterId, GaugeId};
pub use report::{
    BerTableBlock, FidelityRow, FigureEntry, MetricValue, Predicate, RunReport, SpecBlock,
    SuiteReport, TimingBlock, Verdict,
};
pub use trace::{TraceEvent, TraceRecord, TraceSink};
