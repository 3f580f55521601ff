//! Fig 16 (§5.5): header-or-trailer vs header-only reception per vpkt.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
