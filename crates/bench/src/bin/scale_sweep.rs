//! City-scale sweep: events/sec and peak resident memory vs node count.
//!
//! Charts the sparse spatially-indexed medium against the node count —
//! 50 (testbed scale) through tens of thousands (city scale) — under
//! both CMAP and the 802.11 DCF baseline, recording each cell's
//! interference-pruning error bound in the report. `--runs N` narrows
//! the sweep to a single node count for per-process RSS accounting
//! (what the CI `scale-sweep` job does).

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
