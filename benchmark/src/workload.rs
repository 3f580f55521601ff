//! The six named workloads and how a world is set up for each.
//!
//! Sizes are constants of this file and are not retuned after the first
//! baseline (`BASELINE.json`): a later change is compared on the same
//! work. The building, the city and the flow set are part of a workload's
//! definition; `--seed` is the simulation seed, from which every random
//! draw inside the run (fading, backoff, timer jitter) derives. README.md,
//! "What the seed does", has the measurement behind that split.

use std::rc::Rc;
use std::time::Instant;

use cmap_core::{CmapConfig, CmapMac};
use cmap_mac80211::{DcfConfig, DcfMac};
use cmap_phy::Rate;
use cmap_sim::rng::stream_rng;
use cmap_sim::time::{millis, Time};
use cmap_sim::{Mac, MediumBuilder, NodeId, PhyConfig, World};
use cmap_topo::{ChannelModel, Deployment, LinkMeasurements, RadioEnv, Testbed};
use rand::seq::SliceRandom;

use crate::traced::{Recorder, TracedMac};

/// Seed of the fixed building / city every workload runs in.
const PLACE_SEED: u64 = 42;
/// Seed of the fixed choice of links among the candidates.
const FLOW_SEED: u64 = 1;
/// Payload the paper classifies links at (§5.1).
const MEASURE_PAYLOAD: usize = 1400;
/// Sparse-medium pruning margin for the city, dB above the delivery floor.
const CITY_EPSILON_DB: f64 = 3.0;
const CITY_NODES: usize = 3000;
const CITY_BLOCK_M: f64 = 30.0;
const CITY_JITTER_M: f64 = 5.0;
/// Share of each rep discarded before goodput is measured (the paper
/// measures the last 60 of 100 seconds).
pub const GOODPUT_WARMUP_FRAC: f64 = 0.4;

/// Which link layer runs on every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacKind {
    /// `cmap_core::CmapMac` with the paper's parameters.
    Cmap,
    /// `cmap_mac80211::DcfMac` in the status-quo configuration.
    Dcf,
}

/// Where the nodes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// The 50-node office floor over the dense medium.
    Testbed,
    /// The 3000-node grid city over the sparse medium.
    City,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub place: Place,
    pub mac: MacKind,
    /// Application payload per packet, bytes.
    pub payload: usize,
    /// Saturated flows.
    pub flows: usize,
    /// Simulated duration of one rep.
    pub rep_sim: Time,
    /// `Some(period)`: checkpoint → fresh world → restore every `period`
    /// of simulated time.
    pub ckpt_every: Option<Time>,
}

/// The workload set. Order is the order `run.sh` runs them in.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "testbed_cmap",
        why: "the paper's regime: 12 links on the 50-node floor, 1400 B, CMAP; scheduler, PHY grading and core do the work",
        place: Place::Testbed,
        mac: MacKind::Cmap,
        payload: 1400,
        flows: 12,
        rep_sim: millis(30_000),
        ckpt_every: None,
    },
    Workload {
        name: "testbed_dcf",
        why: "same world and links under DCF: bypasses core, timer- and CCA-edge-heavy; the no-change control for core work",
        place: Place::Testbed,
        mac: MacKind::Dcf,
        payload: 1400,
        flows: 12,
        rep_sim: millis(30_000),
        ckpt_every: None,
    },
    Workload {
        name: "smallframe_cmap",
        why: "testbed_cmap with 64 B payloads: 4.5x the frame rate, so per-frame cost (wire, pool, vpkt, ACKs) dominates",
        place: Place::Testbed,
        mac: MacKind::Cmap,
        payload: 64,
        flows: 12,
        rep_sim: millis(6_000),
        ckpt_every: None,
    },
    Workload {
        name: "city_cmap",
        why: "3000-node sparse city, 64 flows, CMAP: overlap-heavy, engine self-time per event is highest; set-up and memory matter",
        place: Place::City,
        mac: MacKind::Cmap,
        payload: 1400,
        flows: 64,
        rep_sim: millis(70),
        ckpt_every: None,
    },
    Workload {
        name: "city_dcf",
        why: "same city and flows under DCF: same fan-out with the air serialised; separates fan-out cost from overlap cost",
        place: Place::City,
        mac: MacKind::Dcf,
        payload: 1400,
        flows: 64,
        rep_sim: millis(500),
        ckpt_every: None,
    },
    Workload {
        name: "ckpt_cycle",
        why: "testbed_cmap checkpointed and restored into a fresh world every 50 ms simulated: the save/load path beside the run path",
        place: Place::Testbed,
        mac: MacKind::Cmap,
        payload: 1400,
        flows: 12,
        rep_sim: millis(10_000),
        ckpt_every: Some(millis(50)),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Wall-clock split of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    /// `Testbed::office_floor` / `grid_city`.
    pub generate_s: f64,
    /// `LinkMeasurements::analyze` (testbed workloads only).
    pub measure_s: f64,
    /// `MediumBuilder::build`.
    pub medium_build_s: f64,
}

enum Topology {
    Testbed(Testbed),
    City(Deployment),
}

/// Everything a rep needs that does not depend on the run itself:
/// topology, chosen links and the PHY configuration. Building it and
/// then a [`Scenario::world`] is the set-up a user pays before the first
/// `run_until`.
pub struct Scenario {
    pub workload: &'static Workload,
    /// The simulation seed (fading, backoff draws).
    pub run_seed: u64,
    pub phy: PhyConfig,
    topology: Topology,
    /// Testbed: the chosen `(src, dst)` links, in flow-id order. The city's
    /// are chosen on the built medium, in [`Scenario::world`].
    links: Vec<(usize, usize)>,
    /// `medium_build_s` is filled in by whoever calls [`Scenario::world`].
    pub phases: SetupPhases,
}

fn radio_env(phy: &PhyConfig) -> RadioEnv {
    RadioEnv {
        tx_power_dbm: phy.tx_power_dbm,
        noise_floor_dbm: phy.noise_floor_dbm,
        fading_sigma_db: phy.fading_sigma_db,
        fading_boost_prob: phy.fading_boost_prob,
        fading_boost_db: phy.fading_boost_db,
        sensitivity_dbm: phy.sensitivity_dbm,
    }
}

/// Up to `count` node-disjoint links from `candidates`, taken in the
/// order a [`FLOW_SEED`]-seeded shuffle puts them in.
fn disjoint_links(
    mut candidates: Vec<(usize, usize)>,
    nodes: usize,
    count: usize,
) -> Vec<(usize, usize)> {
    candidates.shuffle(&mut stream_rng(FLOW_SEED, 0xf10e5));
    let mut used = vec![false; nodes];
    let mut links = Vec::with_capacity(count);
    for (s, d) in candidates {
        if links.len() == count {
            break;
        }
        if !used[s] && !used[d] {
            used[s] = true;
            used[d] = true;
            links.push((s, d));
        }
    }
    links
}

impl Scenario {
    /// Generate the topology and choose the flow set; `seed` becomes the
    /// world's seed.
    pub fn prepare(workload: &'static Workload, seed: u64) -> Scenario {
        let phy = PhyConfig::default();
        let mut phases = SetupPhases::default();
        let t0 = Instant::now();
        let (topology, links) = match workload.place {
            Place::Testbed => {
                let tb = Testbed::office_floor(PLACE_SEED);
                phases.generate_s = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let lm =
                    LinkMeasurements::analyze(&tb, &radio_env(&phy), Rate::R6, MEASURE_PAYLOAD);
                phases.measure_s = t1.elapsed().as_secs_f64();
                let n = tb.len();
                let candidates = (0..n)
                    .flat_map(|a| (0..n).map(move |b| (a, b)))
                    .filter(|&(a, b)| a != b && lm.potential_link(a, b))
                    .collect();
                let links = disjoint_links(candidates, n, workload.flows);
                (Topology::Testbed(tb), links)
            }
            Place::City => {
                let dep = cmap_topo::grid_city(
                    CITY_NODES,
                    CITY_BLOCK_M,
                    CITY_JITTER_M,
                    ChannelModel::default(),
                    PLACE_SEED,
                );
                phases.generate_s = t0.elapsed().as_secs_f64();
                (Topology::City(dep), Vec::new())
            }
        };
        Scenario {
            workload,
            run_seed: seed,
            phy,
            topology,
            links,
            phases,
        }
    }

    /// Build the medium and a world over it, add the flows and install the
    /// MAC on every node. With `recorder`, every MAC is wrapped in a
    /// [`TracedMac`]. Also returns the seconds `MediumBuilder::build` took.
    pub fn world(&self, recorder: Option<&Rc<Recorder>>) -> (World, f64) {
        let t0 = Instant::now();
        let medium = match &self.topology {
            Topology::Testbed(tb) => MediumBuilder::new(&self.phy)
                .gains_db(tb.len(), &tb.gains_db, &tb.delay_ns)
                .build(),
            Topology::City(dep) => {
                // Evaluate out to where even a 3-sigma shadowing boost
                // cannot lift a link above the noise floor.
                let min_gain_db = self.phy.noise_floor_dbm - self.phy.tx_power_dbm;
                MediumBuilder::new(&self.phy)
                    .epsilon_db(CITY_EPSILON_DB)
                    .positions(
                        dep.positions.clone(),
                        dep.channel.eval_range_m(min_gain_db),
                        dep.channel.tail_gain_db(min_gain_db),
                        dep.gain_fn(),
                    )
                    .build()
            }
        };
        let medium_build_s = t0.elapsed().as_secs_f64();
        let city_links;
        let links = match self.topology {
            Topology::Testbed(_) => &self.links,
            // Every node's strongest neighbour is a candidate link.
            Topology::City(_) => {
                let n = medium.len();
                let candidates = (0..n)
                    .filter_map(|s| {
                        let src = NodeId::new(s);
                        medium
                            .reachable(src)
                            .iter()
                            .copied()
                            .max_by(|&a, &b| medium.gain(src, a).total_cmp(&medium.gain(src, b)))
                            .map(|dst| (s, dst.index()))
                    })
                    .collect();
                city_links = disjoint_links(candidates, n, self.workload.flows);
                &city_links
            }
        };
        assert_eq!(
            links.len(),
            self.workload.flows,
            "{}: too few disjoint links",
            self.workload.name
        );
        let mut world = World::builder()
            .medium(medium)
            .phy(self.phy.clone())
            .seed(self.run_seed)
            .build();
        for &(s, d) in links {
            world.add_flow(s, d, self.workload.payload);
        }
        for node in 0..world.node_count() {
            let mac: Box<dyn Mac> = match self.workload.mac {
                MacKind::Cmap => Box::new(CmapMac::new(CmapConfig::default())),
                MacKind::Dcf => Box::new(DcfMac::new(DcfConfig::status_quo())),
            };
            let mac = match recorder {
                Some(rec) => Box::new(TracedMac::new(mac, NodeId::new(node), Rc::clone(rec))),
                None => mac,
            };
            world.set_mac(node, mac);
        }
        (world, medium_build_s)
    }
}
