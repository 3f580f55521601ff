//! # cmap-sim — discrete-event wireless network simulator
//!
//! The substrate that stands in for the paper's 50-node 802.11a testbed: a
//! deterministic discrete-event engine with
//!
//! * a nanosecond event queue with stable tie-breaking ([`event`]),
//! * a shared [`Medium`] of frozen link gains and propagation delays —
//!   one link list per transmitter, built from a gain matrix at testbed
//!   scale or from positions over a spatial index at city scale
//!   ([`MediumBuilder`]),
//! * a half-duplex radio per node with preamble locking, preamble
//!   capture, SINR-segmented reception grading and 802.11-style CCA,
//! * a [`Mac`] trait that link layers (`cmap-core`, `cmap-mac80211`)
//!   implement, with all effects funnelled through [`NodeCtx`],
//! * saturated and relay application flows ([`AppPacket`], [`NodeApp`]),
//! * run statistics ([`Stats`]): windowed per-flow throughput, virtual-packet
//!   header/trailer reception bookkeeping, typed counters/gauges from the
//!   `cmap-obs` registry, and an optional structured trace sink,
//! * deterministic fault injection ([`FaultPlan`]): node churn, radio lockups,
//!   Gilbert–Elliott burst loss, stepped shadowing, clock skew and frame
//!   corruption, plus a runtime invariant watchdog, and
//! * mid-run checkpoint/restore ([`ckpt`], [`World::checkpoint`],
//!   [`World::restore`]) in the versioned `cmap-ckpt/v8` format: a
//!   restored run continues byte-identically to an uninterrupted one.
//!
//! Runs are bit-deterministic for a given (topology, MACs, seed): every
//! random draw derives from the master seed via per-node streams.
//!
//! ## Example
//!
//! ```
//! use cmap_sim::{MediumBuilder, PhyConfig, World, time};
//!
//! let phy = PhyConfig::default();
//! let medium = MediumBuilder::new(&phy).uniform(2, -70.0).build();
//! let mut world = World::builder().medium(medium).phy(phy).seed(42).build();
//! let flow = world.add_flow(0, 1, 1400);
//! // (install MACs here; nodes default to a silent NullMac)
//! world.run_until(time::secs(1));
//! assert_eq!(world.stats().flow(flow).arrivals.len(), 0); // NullMac sent nothing
//! ```

#![deny(clippy::unwrap_used)]

mod app;
pub mod arena;
pub mod ckpt;
mod config;
pub mod event;
mod faults;
mod mac;
mod medium;
mod node;
mod pool;
mod radio;
pub mod rng;
mod stats;
pub mod time;
mod world;

pub use app::{AppPacket, NodeApp};
pub use ckpt::CkptError;
pub use config::{PhyConfig, DELIVERY_FLOOR_DBM};
pub use faults::{FaultPlan, GilbertElliott, Lockup, Outage, Shadowing};
pub use mac::{Mac, NodeCtx, RxErrorInfo, RxInfo};
pub use medium::{Medium, MediumBuilder, SparseStats};
pub use stats::{FlowStats, Stats, VpktStats};
pub use world::{BracketCounts, Flow, FlowKind, NodeId, World, WorldBuilder};
