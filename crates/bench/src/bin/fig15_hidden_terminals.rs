//! Fig 15 (§5.5): hidden terminals — CMAP's backoff avoids degradation.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
