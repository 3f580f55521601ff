//! # cmap-topo — testbed topologies for the CMAP reproduction
//!
//! The paper evaluates CMAP on a 50-node indoor 802.11a testbed spanning one
//! office floor (Fig 10), characterised in §5.1 by a highly irregular link
//! population: of the node pairs with any connectivity, ~68% have packet
//! reception rate (PRR) below 0.1, ~12% are intermediate, and ~20% are
//! perfect, with a mean degree of ~15 over the usable links.
//!
//! This crate generates statistically similar topologies: nodes placed on a
//! floor plan, link gains from log-distance path loss plus frozen lognormal
//! shadowing (with a small asymmetric component, since the paper calls out
//! asymmetric links), and the measurement/classification machinery of §5.1:
//!
//! * [`measure::LinkMeasurements`] — analytic per-link PRR and RSS, exactly
//!   the quantities the authors measured "shortly before running the
//!   corresponding experiment",
//! * link predicates: *in range* (PRR > 0.2 both ways, signal above the 10th
//!   percentile) and *potential transmission link* (PRR > 0.9 both ways),
//! * [`select`] — the topology constraints of Fig 11 (exposed-terminal
//!   pairs, in-range sender pairs, hidden-terminal pairs, interferer
//!   triples, mesh trees) and the region/AP partition of §5.6.

mod citygen;
mod measure;
pub mod select;
mod testbed;

pub use citygen::{clustered, grid_city, poisson_disk, ChannelModel, Deployment};
pub use measure::{ConnectivityStats, LinkMeasurements, RadioEnv};
pub use testbed::{Testbed, TestbedParams};
