//! The repository's benchmark: six named workloads, end-to-end metrics
//! with tracing off, and a per-layer ledger from a separate traced run.
//! Everything is driven through the simulator's public APIs; see
//! `README.md` beside this crate and `BENCHMARK.json` at the repository
//! root.

pub mod analyze;
pub mod calib;
pub mod heap;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod traced;
pub mod workload;

/// Counts every heap allocation and byte of the process, for
/// `allocs_per_sim_s` and the heap metrics. Declared in the library so the
/// binary and the self-tests measure with the same allocator.
#[global_allocator]
static ALLOC: heap::TrackingAlloc = heap::TrackingAlloc;
