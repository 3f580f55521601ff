//! # cmap-core — the CMAP link layer (Vutukuru, Jamieson, Balakrishnan, NSDI 2008)
//!
//! CMAP (Conflict Maps) is a reactive channel-access protocol that increases
//! the number of successful concurrent transmissions in a wireless network.
//! Instead of deferring whenever the carrier is busy (CSMA's proactive
//! guess), CMAP nodes transmit optimistically, observe which *pairs* of
//! transmissions actually conflict — from packet losses attributed to
//! overheard concurrent transmitters — and build a distributed **conflict
//! map** consulted before each transmission.
//!
//! This crate implements the full design of §2–§3:
//!
//! * the **defer table** with update rules 1 & 2 and defer patterns 1 & 2
//!   ([`DeferTable`]),
//! * receiver-side **interferer lists**: loss attribution against overheard
//!   transmission windows, the `l_interf` threshold, periodic broadcast
//!   ([`InterfererTracker`]),
//! * the **ongoing-transmissions list** maintained from overheard headers,
//!   trailers and data packets (`ongoing`),
//! * **virtual packets** (header + `N_vpkt` data packets + trailer, §4.1)
//!   with the **windowed cumulative-ACK retransmission protocol** of §3.3
//!   (send window `N_window`, bitmap ACKs, repacked retransmissions,
//!   τ_min/τ_max timeouts) ([`vpkt`]),
//! * the **loss-rate backoff** of §3.4 (CW doubling above `l_backoff`,
//!   reset below), and
//! * the [`CmapMac`] tying it all together as a [`cmap_sim::Mac`].
//!
//! All protocol constants default to the paper's values ([`CmapConfig`]).

mod config;
mod defer_table;
mod interferer;
mod mac;
mod ongoing;
mod rate_control;
pub mod vpkt;

pub use config::{CmapConfig, DEFER_ENTRY_TIMEOUT};
pub use defer_table::{DeferEntry, DeferTable};
pub use interferer::InterfererTracker;
pub use mac::CmapMac;
pub use rate_control::ThroughputRate;
