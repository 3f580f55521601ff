//! Fig 19 (§5.6): header-or-trailer reception vs number of concurrent senders.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
