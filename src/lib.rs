//! # cmap-suite — harnessing exposed terminals in wireless networks
//!
//! A from-scratch Rust reproduction of **CMAP** (Vutukuru, Jamieson,
//! Balakrishnan — *"Harnessing Exposed Terminals in Wireless Networks"*,
//! NSDI 2008): a reactive wireless channel-access protocol that transmits
//! optimistically, learns which pairs of transmissions actually conflict
//! from observed packet loss, and consults that distributed *conflict map*
//! instead of carrier sense.
//!
//! This crate re-exports the whole workspace so applications can depend on
//! one crate:
//!
//! * [`phy`] — 802.11a OFDM rates and the SINR→BER→PER error model
//! * [`wire`] — frame formats (CMAP header/trailer/data/ACK, 802.11)
//! * [`sim`] — the deterministic discrete-event wireless simulator
//! * [`topo`] — 50-node office-testbed generation and link classification
//! * [`mac80211`] — the 802.11 DCF baseline (CS/ACK switches)
//! * [`cmap`] — the CMAP link layer itself
//! * [`experiments`] — the paper's evaluation scenarios (§5)
//! * [`stats`] — CDFs/percentiles used by the figure harness
//! * [`exec`] — the deterministic parallel run executor (`--jobs`)
//!
//! ## Quickstart
//!
//! ```
//! use cmap_suite::prelude::*;
//!
//! // Two strong links whose senders hear each other but whose receivers
//! // don't hear the other sender: the exposed-terminal configuration.
//! let phy = PhyConfig::default();
//! let n = 4;
//! let mut gains = vec![f64::NEG_INFINITY; n * n];
//! let mut set = |a: usize, b: usize, rss_dbm: f64| {
//!     gains[a * n + b] = rss_dbm - phy.tx_power_dbm;
//!     gains[b * n + a] = rss_dbm - phy.tx_power_dbm;
//! };
//! set(0, 1, -60.0); // sender 0 -> receiver 1
//! set(2, 3, -60.0); // sender 2 -> receiver 3
//! set(0, 2, -75.0); // senders in range of each other
//! set(0, 3, -93.0); // cross links weak
//! set(2, 1, -93.0);
//!
//! let medium = MediumBuilder::new(&phy)
//!     .gains_db(n, &gains, &vec![100; n * n])
//!     .build();
//! let mut world = World::builder().medium(medium).phy(phy).seed(7).build();
//! let f1 = world.add_flow(0, 1, 1400);
//! let f2 = world.add_flow(2, 3, 1400);
//! for node in 0..n {
//!     world.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
//! }
//! world.run_until(time::secs(3));
//!
//! let t1 = world.stats().flow_throughput_mbps(f1, 1400, time::secs(1), time::secs(3));
//! let t2 = world.stats().flow_throughput_mbps(f2, 1400, time::secs(1), time::secs(3));
//! assert!(t1 + t2 > 8.0, "exposed pair should run concurrently: {} + {}", t1, t2);
//! ```

pub use cmap_core as cmap;
pub use cmap_exec as exec;
pub use cmap_experiments as experiments;
pub use cmap_mac80211 as mac80211;
pub use cmap_obs as obs;
pub use cmap_phy as phy;
pub use cmap_sim as sim;
pub use cmap_stats as stats;
pub use cmap_topo as topo;
pub use cmap_wire as wire;

/// The names almost every user of the suite needs.
pub mod prelude {
    pub use cmap_core::{CmapConfig, CmapMac};
    pub use cmap_mac80211::{DcfConfig, DcfMac};
    pub use cmap_obs::{CounterId, RunReport};
    pub use cmap_phy::Rate;
    pub use cmap_sim::{time, Mac, Medium, MediumBuilder, NodeId, PhyConfig, World};
    pub use cmap_topo::{LinkMeasurements, Testbed};
}
