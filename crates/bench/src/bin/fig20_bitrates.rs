//! Fig 20 (§5.8): exposed terminals at 6, 12 and 18 Mbit/s.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
