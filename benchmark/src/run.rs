//! Reps and the end-to-end run.
//!
//! A rep is what a user of the simulator does: set a world up, run it for
//! the workload's simulated duration, read the statistics, drop it. Each
//! rep of a run simulates a seed of its own, derived from `--seed`
//! ([`rep_seed`]); two reps of one seed have the same inputs, so their
//! simulated quantities (digest, goodput, allocation count) repeat exactly
//! and a rep that does not reproduce its reference is a failed operation.
//! Only the timings vary, and those are reported as medians over the reps.

use std::rc::Rc;
use std::time::Instant;

use cmap_obs::{alloc, fnv1a64};
use cmap_sim::rng::derive_seed;
use cmap_sim::time::{as_secs_f64, scale, secs, Time};
use cmap_sim::{CkptError, World};

use crate::calib::{host_speed, kernel_s};
use crate::heap;
use crate::metrics::{median, Report};
use crate::traced::Recorder;
use crate::workload::{Scenario, SetupPhases, Workload, GOODPUT_WARMUP_FRAC};

/// Fewest timed reps a run reports medians over, however slow the host.
pub const MIN_REPS: usize = 5;
/// Shortest rep in which every single flow must deliver.
const STARVATION_CHECK_FROM: Time = secs(1);

/// Wall-clock samples of the checkpoint cycles of one rep.
#[derive(Debug, Default, Clone)]
pub struct CkptSamples {
    pub checkpoint_us: Vec<f64>,
    pub restore_us: Vec<f64>,
    /// Everything a cycle adds to the run: checkpoint, fresh world,
    /// restore.
    pub total_ns: u64,
    /// Size of the last blob.
    pub bytes: usize,
}

/// What one rep measured, and its final world for inspection.
pub struct Rep {
    pub setup_s: f64,
    pub phases: SetupPhases,
    /// Wall of the timed region: every `run_until`, and for `ckpt_cycle`
    /// every checkpoint, fresh world and restore between them.
    pub wall_s: f64,
    /// Heap allocations inside the timed region.
    pub allocs: u64,
    /// Most heap bytes live at once from set-up to reading the statistics.
    pub peak_heap_bytes: usize,
    /// FNV-1a of `Stats::snapshot()`.
    pub digest: u64,
    /// Σ flow throughput over the last 60 % of the rep.
    pub goodput_mbps: f64,
    /// Operations attempted: the rep itself plus its checkpoint cycles.
    pub attempted: u64,
    /// What went wrong, one line per failed operation.
    pub failures: Vec<String>,
    pub ckpt: CkptSamples,
    pub scenario: Scenario,
    pub world: World,
}

impl Rep {
    pub fn sim_s(&self) -> f64 {
        as_secs_f64(self.scenario.workload.rep_sim)
    }
}

/// Hook on the checkpoint blob of cycle `i` before it is restored. The
/// benchmark passes [`untouched`]; the self-tests corrupt a blob to check
/// that the failure is counted, not thrown.
pub type Tamper<'a> = &'a dyn Fn(usize, &mut Vec<u8>);

pub fn untouched(_cycle: usize, _blob: &mut Vec<u8>) {}

/// One checkpoint → fresh world → restore. `Ok` carries the restored
/// world; on `Err` the caller keeps running the original.
fn cycle(
    world: &World,
    scenario: &Scenario,
    recorder: Option<&Rc<Recorder>>,
    index: usize,
    tamper: Tamper<'_>,
    samples: &mut CkptSamples,
) -> Result<World, CkptError> {
    let t0 = Instant::now();
    let mut blob = world.checkpoint()?;
    let t1 = Instant::now();
    tamper(index, &mut blob);
    let (mut fresh, _) = scenario.world(recorder);
    let t2 = Instant::now();
    fresh.restore(&blob)?;
    let t3 = Instant::now();
    samples.checkpoint_us.push((t1 - t0).as_secs_f64() * 1e6);
    samples.restore_us.push((t3 - t2).as_secs_f64() * 1e6);
    samples.total_ns += (t3 - t0).as_nanos() as u64;
    samples.bytes = blob.len();
    Ok(fresh)
}

/// Run one rep of `workload`. `cycled` turns the workload's checkpoint
/// period on (off gives `ckpt_cycle` its uninterrupted reference run).
pub fn run_rep(
    workload: &'static Workload,
    seed: u64,
    recorder: Option<&Rc<Recorder>>,
    cycled: bool,
    tamper: Tamper<'_>,
) -> Rep {
    heap::reset_peak();
    let t_setup = Instant::now();
    let scenario = Scenario::prepare(workload, seed);
    let (mut world, medium_build_s) = scenario.world(recorder);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let phases = SetupPhases {
        medium_build_s,
        ..scenario.phases
    };

    let mut attempted = 1;
    let mut failures = Vec::new();
    let mut ckpt = CkptSamples::default();
    let allocs0 = alloc::allocations();
    let t_run = Instant::now();
    match workload.ckpt_every.filter(|_| cycled) {
        None => world.run_until(workload.rep_sim),
        Some(every) => {
            let mut t = every;
            let mut index = 0;
            while t < workload.rep_sim {
                world.run_until(t);
                attempted += 1;
                match cycle(&world, &scenario, recorder, index, tamper, &mut ckpt) {
                    Ok(restored) => world = restored,
                    Err(e) => failures.push(format!("cycle {index} at {t} ns: {e}")),
                }
                index += 1;
                t += every;
            }
            world.run_until(workload.rep_sim);
        }
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    let allocs = alloc::allocations() - allocs0;

    let stats = world.stats();
    let digest = fnv1a64(stats.snapshot().as_bytes());
    let from = scale(workload.rep_sim, GOODPUT_WARMUP_FRAC);
    let goodput_mbps = world
        .flows()
        .iter()
        .map(|f| stats.flow_throughput_mbps(f.id, f.payload_len, from, workload.rep_sim))
        .sum();
    let violations = world.watchdog_violations();
    if violations > 0 {
        failures.push(format!("{violations} watchdog violations"));
    }
    // A flow that delivers nothing in a rep of seconds is a broken run. In
    // a city rep (0.1-0.5 s, a CMAP virtual packet lasts 60 ms) a flow that
    // loses its first headers is not; there the check is on the aggregate.
    let starved: Vec<_> = world
        .flows()
        .iter()
        .filter(|f| stats.flow(f.id).arrivals.is_empty())
        .collect();
    if workload.rep_sim >= STARVATION_CHECK_FROM {
        for f in &starved {
            failures.push(format!(
                "flow {} ({}->{}) delivered nothing",
                f.id, f.src, f.dst
            ));
        }
    } else if starved.len() == world.flows().len() {
        failures.push("no flow delivered anything".to_string());
    }
    Rep {
        setup_s,
        phases,
        wall_s,
        allocs,
        peak_heap_bytes: heap::peak_bytes(),
        digest,
        goodput_mbps,
        attempted,
        failures,
        ckpt,
        scenario,
        world,
    }
}

/// Result of a whole run, either mode.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// One digest over the simulated results the run reports: the first
    /// [`MIN_REPS`] reps' (untraced) or the traced rep's.
    pub digest: u64,
    /// Timed reps.
    pub reps: usize,
    /// Lines printed under the table: context that is not a declared
    /// metric.
    pub notes: Vec<String>,
}

/// The simulation seed of rep `i` of a run with `--seed seed`.
///
/// Host cost is not a smooth function of the seed: on `city_cmap` two
/// seeds differ by up to 3x in wall for the same event count (README.md,
/// "What the seed does"). So a run does not time one simulation seed over
/// and over: every rep runs a seed of its own, derived from the run's, and
/// the medians are medians over those. The warm-up rep shares rep 0's
/// seed, and the two must agree to the byte.
pub fn rep_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, i as u64)
}

/// The digest a rep of `workload` with simulation seed `rep_seed` must
/// reproduce when it is not simply compared with an earlier identical rep:
/// that of the uninterrupted run.
pub fn reference_digest(
    workload: &'static Workload,
    rep_seed: u64,
    failures: &mut Vec<String>,
) -> u64 {
    let rep = run_rep(workload, rep_seed, None, false, &untouched);
    failures.extend(rep.failures);
    rep.digest
}

/// The untraced run: one warm-up rep, then timed reps until `seconds` of
/// wall have been measured (at least [`MIN_REPS`]).
pub fn end_to_end(workload: &'static Workload, seed: u64, seconds: f64) -> Outcome {
    let mut failures = Vec::new();
    let mut attempted = 0;
    let cycled = workload.ckpt_every.is_some();
    // Warm-up: page in the code, fill the allocator's free lists and the
    // scheduler's recycled buckets. Its results are checked, not timed.
    let warm = run_rep(workload, rep_seed(seed, 0), None, true, &untouched);
    failures.extend(warm.failures.iter().map(|f| format!("warm-up: {f}")));
    let warm_digest = warm.digest;
    drop(warm);

    let mut sim_rate = Vec::new();
    let mut raw_sim_rate = Vec::new();
    let mut setup_s = Vec::new();
    let mut allocs_per_sim_s = Vec::new();
    let mut goodput = Vec::new();
    let mut digests = Vec::new();
    let mut speeds = Vec::new();
    let t0 = Instant::now();
    while sim_rate.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let i = sim_rate.len();
        let rep_seed = rep_seed(seed, i);
        // What this rep must reproduce: the uninterrupted run where it is
        // interrupted by checkpoints, else (rep 0 only) the warm-up rep.
        let expected = if cycled {
            Some(reference_digest(workload, rep_seed, &mut failures))
        } else {
            (i == 0).then_some(warm_digest)
        };
        let kernel_before = kernel_s();
        let rep = run_rep(workload, rep_seed, None, true, &untouched);
        let speed = host_speed(kernel_before, kernel_s());
        attempted += rep.attempted;
        failures.extend(rep.failures.iter().map(|f| format!("rep {i}: {f}")));
        if let Some(expected) = expected.filter(|&d| d != rep.digest) {
            failures.push(format!(
                "rep {i}: digest {:016x} != reference {expected:016x}",
                rep.digest
            ));
        }
        if i < MIN_REPS {
            digests.extend(rep.digest.to_le_bytes());
        }
        // Timings in nominal host seconds (see `calib`).
        speeds.push(speed);
        raw_sim_rate.push(rep.sim_s() / rep.wall_s);
        sim_rate.push(rep.sim_s() / (rep.wall_s * speed));
        setup_s.push(rep.setup_s * speed);
        allocs_per_sim_s.push(rep.allocs as f64 / rep.sim_s());
        goodput.push(rep.goodput_mbps);
    }
    let reps = sim_rate.len();

    let mut report = Report::default();
    report.set("sim_rate", median(&sim_rate), reps);
    report.set("setup_s", median(&setup_s), reps);
    // Simulated quantities: over the first MIN_REPS reps, so that they
    // repeat exactly however many more reps the time budget allowed.
    report.set(
        "allocs_per_sim_s",
        median(&allocs_per_sim_s[..MIN_REPS]),
        MIN_REPS,
    );
    report.set("goodput_mbps", median(&goodput[..MIN_REPS]), MIN_REPS);
    Outcome {
        report,
        attempted,
        failures,
        digest: fnv1a64(&digests),
        reps,
        notes: vec![
            format!(
                "raw_sim_rate {} (host seconds as measured)",
                median(&raw_sim_rate)
            ),
            format!("host_speed {}", median(&speeds)),
            format!("raw_sim_rate_by_rep {raw_sim_rate:.4?}"),
            format!("host_speed_by_rep {speeds:.3?}"),
        ],
    }
}
