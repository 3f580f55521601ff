//! Fig 13 (§5.3): two senders in range — CMAP discriminates.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
