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
//! * [`obs`] — typed counters and gauges, the trace sink, allocation and
//!   RSS probes, `fnv1a64` and the deterministic JSON encoder
//! * [`mod@bench`] — the paper's evaluation (§5): one module per figure,
//!   the `repro_all` harness that runs them, its run report, its CDF
//!   tables and its deterministic parallel run executor (`--jobs`)
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
//! let links = [
//!     (0, 1, -60.0), // sender 0 -> receiver 1, RSS in dBm
//!     (2, 3, -60.0), // sender 2 -> receiver 3
//!     (0, 2, -75.0), // senders in range of each other
//!     (0, 3, -93.0), // cross links weak
//!     (2, 1, -93.0),
//! ];
//! // Each link in both directions; any pair not listed is out of range.
//! let medium = MediumBuilder::new(&phy).rss_links(n, &links).build();
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

pub use cmap_bench as bench;
pub use cmap_core as cmap;
pub use cmap_mac80211 as mac80211;
pub use cmap_obs as obs;
pub use cmap_phy as phy;
pub use cmap_sim as sim;
pub use cmap_topo as topo;
pub use cmap_wire as wire;

/// The names almost every user of the suite needs.
pub mod prelude {
    pub use cmap_bench::report::RunReport;
    pub use cmap_core::{CmapConfig, CmapMac};
    pub use cmap_mac80211::{DcfConfig, DcfMac};
    pub use cmap_obs::CounterId;
    pub use cmap_phy::Rate;
    pub use cmap_sim::{time, Mac, Medium, MediumBuilder, NodeId, PhyConfig, World};
    pub use cmap_topo::Testbed;
}
