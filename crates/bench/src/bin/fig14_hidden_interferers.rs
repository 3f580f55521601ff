//! Fig 14 (§5.4): hidden-interferer scatter and the 0.896 expectation.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
