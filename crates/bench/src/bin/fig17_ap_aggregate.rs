//! Fig 17 (§5.6): AP topologies — aggregate throughput vs N.
//!
//! Figs 17 and 18 share one `ap_sweep` run; both binaries wrap the
//! combined `fig17_18_ap` registry entry.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
