//! §5.1: the testbed's link population.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
