//! # cmap-phy — 802.11a physical-layer model
//!
//! This crate models the physical layer of the Atheros 802.11a radios used by
//! the CMAP testbed (Vutukuru et al., NSDI 2008) well enough to reproduce the
//! paper's evaluation in simulation:
//!
//! * all eight 802.11a OFDM bit-rates with exact airtime computation
//!   ([`Rate`], [`Rate::frame_airtime_ns`]),
//! * a SINR → BER → packet-error-rate chain using textbook modulation BER
//!   formulas plus a union-bound model of the IEEE 802.11 rate-1/2 / 2/3 / 3/4
//!   convolutional codes ([`error_model`]),
//! * PLCP preamble / SIGNAL-field detection probabilities used for receiver
//!   frame lock and preamble capture ([`preamble`]),
//! * decibel/linear power conversions and the link-budget helpers shared by the
//!   propagation model in `cmap-topo` ([`units`], [`propagation`]).
//!
//! The crate is pure math: it owns no randomness and no mutable global
//! state. Reception *probabilities* are computed here; the simulator
//! (`cmap-sim`) draws the Bernoulli outcomes from its deterministic per-run
//! RNG. The two shared structures are immutable once-per-process samplings
//! of pure functions for the reception hot path: [`BerTable`] of [`ber`],
//! and [`DrawGate`], the per-cell brackets that let the simulator's draw
//! settle a lock or a decode without evaluating its probability ([`gate`]).

pub mod error_model;
pub mod fading;
pub mod gate;
pub mod preamble;
pub mod propagation;
pub mod rate;
pub mod table;
pub mod units;

pub use error_model::{ber, packet_success_prob, per};
pub use fading::FadingTable;
pub use gate::DrawGate;
pub use preamble::{preamble_success_prob, PLCP_PREAMBLE_NS, PLCP_SIG_NS};
pub use rate::{Modulation, Rate};
pub use table::BerTable;
pub use units::{dbm_to_mw, mw_to_dbm, NOISE_FLOOR_DBM};
