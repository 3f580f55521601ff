//! §4.2 calibration: single-link CMAP vs 802.11 throughput.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
