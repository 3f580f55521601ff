//! §5.7: two-hop content-dissemination mesh.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
