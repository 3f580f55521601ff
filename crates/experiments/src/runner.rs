//! Shared run machinery: specs, world construction, measurement.

use cmap_sim::rng::derive_seed;
use cmap_sim::time::{secs, Time};
use cmap_sim::{MediumBuilder, PhyConfig, World};
use cmap_topo::select::LinkPair;
use cmap_topo::{LinkMeasurements, RadioEnv, Testbed};

use crate::exposed::Curve;
use crate::protocol::Protocol;

/// Parameters every experiment takes.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seed for testbed generation (the "building").
    pub testbed_seed: u64,
    /// Seed for run randomness (fading, backoff draws, selection).
    pub run_seed: u64,
    /// Simulated duration of each run.
    pub duration: Time,
    /// Fraction of the run discarded as warm-up; throughput is measured
    /// over the rest (the paper measures the last 60 of 100 seconds).
    pub warmup_frac: f64,
    /// Application payload per packet (the paper uses 1400 bytes).
    pub payload: usize,
    /// Number of configurations (link pairs, topologies, ...) to evaluate.
    pub configs: usize,
    /// Worker-pool width for fanning independent runs across cores. `1`
    /// (the default) runs everything serially on the calling thread. Runs
    /// are joined in job-index order, so this knob never changes results —
    /// it is deliberately *not* serialized into report spec blocks.
    pub jobs: usize,
}

impl Default for Spec {
    fn default() -> Spec {
        Spec {
            testbed_seed: 42,
            run_seed: 1,
            duration: secs(30),
            warmup_frac: 0.4,
            payload: 1400,
            configs: 50,
            jobs: 1,
        }
    }
}

impl Spec {
    /// Start of the measurement window.
    pub fn measure_from(&self) -> Time {
        cmap_sim::time::scale(self.duration, self.warmup_frac)
    }
}

/// A generated testbed plus its pre-run link measurements.
pub struct TestbedCtx {
    /// The testbed.
    pub tb: Testbed,
    /// Analytic PRR/RSS measurements at the base rate.
    pub lm: LinkMeasurements,
    /// The PHY configuration all runs use.
    pub phy: PhyConfig,
}

/// Translate the simulator's PHY config into the measurement environment.
pub fn radio_env(phy: &PhyConfig) -> RadioEnv {
    RadioEnv {
        tx_power_dbm: phy.tx_power_dbm,
        noise_floor_dbm: phy.noise_floor_dbm,
        fading_sigma_db: phy.fading_sigma_db,
        fading_boost_prob: phy.fading_boost_prob,
        fading_boost_db: phy.fading_boost_db,
        sensitivity_dbm: phy.sensitivity_dbm,
    }
}

/// Generate the testbed for `spec` and measure its links (as the authors
/// did "shortly before running the corresponding experiment", §5.1).
pub fn testbed_ctx(spec: &Spec) -> TestbedCtx {
    let phy = PhyConfig::default();
    let tb = Testbed::office_floor(spec.testbed_seed);
    let lm = LinkMeasurements::analyze(&tb, &radio_env(&phy), cmap_phy::Rate::R6, spec.payload);
    TestbedCtx { tb, lm, phy }
}

/// Build a world over the testbed's medium.
pub fn build_world(ctx: &TestbedCtx, seed: u64) -> World {
    let medium = MediumBuilder::new(&ctx.phy)
        .gains_db(ctx.tb.len(), &ctx.tb.gains_db, &ctx.tb.delay_ns)
        .build();
    World::builder()
        .medium(medium)
        .phy(ctx.phy.clone())
        .seed(seed)
        .build()
}

/// What one run produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Throughput of each flow in Mbit/s over the measurement window, in
    /// the order the links were given.
    pub(crate) per_flow_mbps: Vec<f64>,
    /// Per intended link `(src, dst)`: virtual-packet header reception rate
    /// and header-or-trailer reception rate (CMAP runs only).
    pub(crate) hdr_rates: Vec<((usize, usize), f64, f64)>,
}

impl RunOutput {
    /// Sum of flow throughputs.
    pub(crate) fn aggregate_mbps(&self) -> f64 {
        self.per_flow_mbps.iter().sum()
    }
}

/// Run saturated flows over `links` under `protocol` and measure.
pub(crate) fn run_links(
    ctx: &TestbedCtx,
    links: &[(usize, usize)],
    protocol: &Protocol,
    spec: &Spec,
    run_seed: u64,
) -> RunOutput {
    let mut world = build_world(ctx, run_seed);
    let flows: Vec<u16> = links
        .iter()
        .map(|&(s, r)| world.add_flow(s, r, spec.payload))
        .collect();
    protocol.install(&mut world);
    world.run_until(spec.duration);

    let from = spec.measure_from();
    let to = spec.duration;
    let per_flow_mbps = flows
        .iter()
        .map(|&f| {
            world
                .stats()
                .flow_throughput_mbps(f, spec.payload, from, to)
        })
        .collect();
    let hdr_rates = links
        .iter()
        .filter_map(|&(s, r)| {
            world
                .stats()
                .vpkt_stats(s, r)
                .map(|v| ((s, r), v.header_rate(), v.either_rate()))
        })
        .collect();
    RunOutput {
        per_flow_mbps,
        hdr_rates,
    }
}

/// Run both links of every pair saturated under `protocol`, one run per
/// pair. A pair's run seed derives from `stream`, its two senders and the
/// receiver `key` picks — the formula every pair figure's samples are
/// pinned to.
pub(crate) fn run_pairs(
    ctx: &TestbedCtx,
    spec: &Spec,
    protocol: &Protocol,
    pairs: &[LinkPair],
    stream: u64,
    key: fn(&LinkPair) -> usize,
) -> Vec<RunOutput> {
    cmap_exec::map(spec.jobs, pairs, |pair| {
        let links = [(pair.s1, pair.r1), (pair.s2, pair.r2)];
        let stream = stream ^ ((pair.s1 as u64) << 12) ^ ((pair.s2 as u64) << 4) ^ key(pair) as u64;
        run_links(
            ctx,
            &links,
            protocol,
            spec,
            derive_seed(spec.run_seed, stream),
        )
    })
}

/// The protocols × pairs sweep behind Figs 12, 13, 15 and 20: one curve per
/// protocol, one aggregate-Mbit/s sample per pair. Protocol `pi` runs on
/// stream `tag ^ pi << 20`.
pub(crate) fn pair_curves(
    ctx: &TestbedCtx,
    spec: &Spec,
    protocols: &[Protocol],
    pairs: &[LinkPair],
    tag: u64,
    key: fn(&LinkPair) -> usize,
) -> Vec<Curve> {
    protocols
        .iter()
        .enumerate()
        .map(|(pi, proto)| Curve {
            label: proto.label(),
            samples: run_pairs(ctx, spec, proto, pairs, tag ^ ((pi as u64) << 20), key)
                .iter()
                .map(RunOutput::aggregate_mbps)
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_windows() {
        let s = Spec::default();
        assert_eq!(s.measure_from(), secs(12));
    }

    #[test]
    fn default_spec_is_serial() {
        assert_eq!(Spec::default().jobs, 1);
    }

    #[test]
    fn single_link_run_produces_throughput() {
        let spec = Spec {
            duration: secs(5),
            configs: 6,
            ..Spec::default()
        };
        let ctx = testbed_ctx(&spec);
        // Find any potential transmission link.
        let link = (0..ctx.tb.len())
            .flat_map(|a| (0..ctx.tb.len()).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && ctx.lm.potential_link(a, b))
            .expect("a potential link exists");
        let out = run_links(&ctx, &[link], &Protocol::cs_on(), &spec, 7);
        assert_eq!(out.per_flow_mbps.len(), 1);
        assert!(
            out.per_flow_mbps[0] > 3.0,
            "potential link only reached {} Mbit/s",
            out.per_flow_mbps[0]
        );
    }
}
