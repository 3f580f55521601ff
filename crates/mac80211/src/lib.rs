//! # cmap-mac80211 — the 802.11 DCF baseline MAC
//!
//! The paper compares CMAP against "the status quo": the 802.11 distributed
//! coordination function with physical carrier sense and stop-and-wait
//! link-layer ACKs, and against variants with carrier sense and/or ACKs
//! disabled (§5). This crate implements that baseline as a
//! [`cmap_sim::Mac`]:
//!
//! * physical carrier sense (preamble lock + energy detect, via the radio's
//!   CCA) plus virtual carrier sense (NAV from overheard data frames'
//!   duration fields),
//! * DIFS deferral and slotted binary-exponential backoff (CW 15 → 1023),
//!   with the countdown paused while the medium is busy,
//! * stop-and-wait ACK with retransmission up to a retry limit, CW doubling
//!   on ACK timeout and reset on success,
//! * switches to disable carrier sense ([`DcfConfig::carrier_sense`]) and
//!   ACKs/retransmissions ([`DcfConfig::acks`]), reproducing the paper's
//!   "CS off" / "no acks" baselines.
//!
//! Omissions (documented in DESIGN.md): EIFS and RTS/CTS, neither of which
//! the paper's experiments use.

mod config;
mod mac;
pub mod timing;

pub use config::DcfConfig;
pub use mac::DcfMac;
