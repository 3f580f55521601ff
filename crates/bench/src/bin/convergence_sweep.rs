//! Extension experiment: conflict-map convergence time and transient loss
//! vs. the interferer-list broadcast period (quantifying §7's "transient
//! packet loss before conflict map entries converge").

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
