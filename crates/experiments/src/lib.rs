//! # cmap-experiments — the paper's evaluation, as a library
//!
//! One module per experiment of §5, each reproducing the paper's method:
//! topology selection under the Fig 11 constraints (via `cmap-topo`),
//! saturated 1400-byte flows, runs measured over their final fraction
//! (§5.1 measures the last 60 of 100 seconds), and the same protocol
//! line-up — 802.11 with carrier sense on/off, ACKs on/off, CMAP, and
//! CMAP with a stop-and-wait window.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`calibration`] | §4.2 single-link CMAP vs 802.11 |
//! | [`exposed`] | Fig 12 (and Fig 20 at higher bit-rates) |
//! | [`in_range`] | Fig 13 |
//! | [`hidden`] | Fig 14 (hidden interferers) and Fig 15 (hidden terminals) |
//! | [`header_trailer`] | Fig 16 and Fig 19 |
//! | [`ap`] | Fig 17 and Fig 18 |
//! | [`mesh`] | §5.7 two-hop content dissemination |
//! | [`convergence`] | §7's transient-loss concern, quantified (extension) |
//!
//! Every function takes a [`Spec`](runner::Spec) so benchmark binaries can
//! trade run length for fidelity, and returns
//! plain data that the `cmap-bench` binaries render with `cmap-stats`.

pub mod ap;
pub mod calibration;
pub mod convergence;
pub mod exposed;
pub mod header_trailer;
pub mod hidden;
pub mod in_range;
pub mod mesh;
mod protocol;
pub mod runner;

pub use protocol::Protocol;
