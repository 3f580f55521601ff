//! Fig 18 (§5.6): per-sender throughput CDF across AP experiments.
//!
//! Figs 17 and 18 share one `ap_sweep` run; both binaries wrap the
//! combined `fig17_18_ap` registry entry.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
