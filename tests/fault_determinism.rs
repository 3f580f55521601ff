//! Determinism under fault injection, at testbed scale: installing a fault
//! plan must not break the byte-identical-snapshot guarantee, and the
//! invariant watchdog must stay silent while faults fire.
//!
//! This is the integration-level counterpart of the sim-layer fault tests:
//! the full CMAP stack on a generated office testbed, with churn and a
//! bursty channel layered on top.

use cmap_suite::experiments::{
    runner::{self, Spec},
    Protocol,
};
use cmap_suite::sim::rng::stream_rng;
use cmap_suite::sim::time::secs;
use cmap_suite::sim::FaultPlan;
use cmap_suite::topo::select;

fn run_faulted(spec: &Spec, run_seed: u64, plan: &FaultPlan) -> (String, u64) {
    let ctx = runner::testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    let pair = pairs.first().expect("an exposed-terminal pair exists");

    let mut world = runner::build_world(&ctx, run_seed);
    world.add_flow(pair.s1, pair.r1, spec.payload);
    world.add_flow(pair.s2, pair.r2, spec.payload);
    Protocol::cmap().install(&mut world);
    world.install_faults(plan.clone());
    world.run_until(spec.duration);
    (world.stats().snapshot(), world.watchdog_violations())
}

fn spec() -> Spec {
    Spec {
        duration: secs(5),
        configs: 4,
        ..Spec::default()
    }
}

#[test]
fn same_seed_fault_runs_are_byte_identical() {
    let spec = spec();
    for (name, plan) in FaultPlan::canonical(50, spec.duration) {
        let (a, va) = run_faulted(&spec, 21, &plan);
        let (b, vb) = run_faulted(&spec, 21, &plan);
        assert_eq!(va, 0, "[{name}] watchdog violations in first run");
        assert_eq!(vb, 0, "[{name}] watchdog violations in second run");
        assert_eq!(a, b, "[{name}] same-seed fault runs diverged");
    }
}

#[test]
fn fault_plan_actually_perturbs_the_run() {
    let spec = spec();
    let plan = FaultPlan::mixed(50, spec.duration);
    let (clean, _) = run_faulted(&spec, 21, &FaultPlan::clean());
    let (faulted, viol) = run_faulted(&spec, 21, &plan);
    assert_eq!(viol, 0, "watchdog violations under mixed plan");
    assert_ne!(clean, faulted, "fault plan had no observable effect");
}

#[test]
fn different_seeds_differ_under_the_same_plan() {
    let spec = spec();
    let plan = FaultPlan::churn_heavy(50, spec.duration);
    let (a, _) = run_faulted(&spec, 21, &plan);
    let (b, _) = run_faulted(&spec, 22, &plan);
    assert_ne!(a, b, "run seed had no effect under faults");
}
