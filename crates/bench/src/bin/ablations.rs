//! Ablation study of CMAP's design choices (DESIGN.md §4.3) on the three
//! canonical two-pair micro-topologies: exposed, conflicting, hidden.
//!
//! Variants: full CMAP, stop-and-wait window (Fig 12's ablation), no
//! trailers (Fig 16's motivation), no loss-rate backoff (Fig 15's
//! motivation), no interferer-list piggybacking on ACKs, and
//! message-in-message capture disabled at the PHY.

fn main() {
    cmap_bench::figures::figure_main(env!("CARGO_BIN_NAME"));
}
