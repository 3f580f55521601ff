//! # cmap-obs — structured observability for the CMAP reproduction
//!
//! The workspace-wide backbone for what a simulated run records about
//! itself, designed around three contracts:
//!
//! * **Typed, not stringly-typed.** Counters and gauges are enum keys
//!   ([`CounterId`], [`GaugeId`]) with static names; the hot path indexes a
//!   flat array instead of probing a string-keyed map, and a typo in a
//!   metric name is a compile error instead of a silent zero.
//! * **Deterministic by construction.** Trace dumps ([`TraceSink`])
//!   serialize in a fixed field order with one number format ([`json`]),
//!   so two same-seed runs produce byte-identical dumps. The run reports
//!   `cmap_bench` builds from these counters write through the same
//!   [`json`] encoder under the same contract.
//! * **Off the simulation path.** Nothing in this crate reads a clock or
//!   an entropy source (`clippy.toml`'s wall-clock ban holds crate-wide).
//!
//! | Module | Provides |
//! |---|---|
//! | [`alloc`] | opt-in counting global allocator (`benchmark/` installs it) |
//! | [`rss`] | resident-set-size probes (the scale sweep's memory column) |
//! | `metrics` | [`CounterId`] / [`GaugeId`] registries with static names |
//! | `trace` | typed ring-buffer [`TraceSink`] with deterministic JSONL dump |
//! | [`json`] | minimal deterministic JSON encoding helpers |
//!
//! plus [`fnv1a64`], the content hash of stats digests, checkpoint pins
//! and `repro_all`'s completion manifest.

pub mod alloc;
pub mod json;
mod metrics;
pub mod rss;
mod trace;

pub use metrics::{CounterId, GaugeId};
pub use trace::{TraceEvent, TraceRecord, TraceSink};

/// 64-bit FNV-1a content hash. Not cryptographic — this guards against
/// torn writes and stale artifacts, not adversaries — but deterministic,
/// dependency-free, and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
