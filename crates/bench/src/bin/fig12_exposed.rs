//! Fig 12 (§5.2): exposed terminals — CMAP's headline 2x gain.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
