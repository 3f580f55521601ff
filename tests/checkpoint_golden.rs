//! The `cmap-ckpt/v8` format pin: the FNV-1a 64 hash of the checkpoint
//! *bytes* of the four `checkpoint_identity.rs` scenarios at their
//! mid-run cut, compared against `tests/data/ckpt_v8_*.fnv`.
//!
//! `checkpoint_identity.rs` only proves a checkpoint restores into the
//! same behaviour; a save and a load that drift together pass it. This
//! test pins the encoding itself, so a refactor of the save/load code
//! that claims "format unchanged" has something to be held to.

use cmap_suite::cmap::{CmapConfig, CmapMac, ThroughputRate};
use cmap_suite::experiments::{
    runner::{self, Spec},
    Protocol,
};
use cmap_suite::obs::fnv1a64;
use cmap_suite::phy::Rate;
use cmap_suite::sim::rng::stream_rng;
use cmap_suite::sim::time::secs;
use cmap_suite::sim::{FaultPlan, World};
use cmap_suite::topo::select;

/// The `checkpoint_identity.rs` world: the testbed with two saturated
/// flows on an exposed-terminal pair.
fn spec() -> Spec {
    Spec {
        duration: secs(4),
        configs: 2,
        ..Spec::default()
    }
}

fn build(spec: &Spec, run_seed: u64) -> World {
    let ctx = runner::testbed_ctx(spec);
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    let pair = pairs.first().expect("an exposed-terminal pair exists");
    let mut world = runner::build_world(&ctx, run_seed);
    world.add_flow(pair.s1, pair.r1, spec.payload);
    world.add_flow(pair.s2, pair.r2, spec.payload);
    world
}

fn committed(file: &str) -> u64 {
    let line = file
        .lines()
        .find(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .expect("baseline file holds a hash line");
    u64::from_str_radix(line.trim().trim_start_matches("0x"), 16)
        .expect("baseline hash parses as hex")
}

fn assert_golden(
    name: &str,
    file: &str,
    configure: impl Fn(&mut World),
    faults: Option<FaultPlan>,
    run_seed: u64,
) {
    let spec = spec();
    let mut w = build(&spec, run_seed);
    configure(&mut w);
    if let Some(plan) = faults {
        w.install_faults(plan);
    }
    w.run_until(spec.duration / 2);
    let bytes = w.checkpoint().expect("checkpoint at mid-run");
    let got = fnv1a64(&bytes);
    assert_eq!(
        got,
        committed(file),
        "cmap-ckpt/v8 bytes of scenario `{name}` drifted from the committed \
         pin (got {got:#018x}, {} bytes). A format change must bump \
         CKPT_MAGIC and regenerate tests/data/ckpt_v8_{name}.fnv, and an \
         outcome epoch (DESIGN.md §6) regenerates it once for a change of \
         simulated outcomes; anything else is a serialization regression.",
        bytes.len()
    );
}

#[test]
fn cmap_checkpoint_bytes_match_pin() {
    assert_golden(
        "cmap",
        include_str!("data/ckpt_v8_cmap.fnv"),
        |w| Protocol::cmap().install(w),
        None,
        11,
    );
}

#[test]
fn cmap_faults_checkpoint_bytes_match_pin() {
    assert_golden(
        "cmap_faults",
        include_str!("data/ckpt_v8_cmap_faults.fnv"),
        |w| Protocol::cmap().install(w),
        Some(FaultPlan::mixed(50, spec().duration)),
        12,
    );
}

#[test]
fn dcf_checkpoint_bytes_match_pin() {
    assert_golden(
        "dcf",
        include_str!("data/ckpt_v8_dcf.fnv"),
        |w| Protocol::cs_on().install(w),
        None,
        13,
    );
}

#[test]
fn rate_adaptive_checkpoint_bytes_match_pin() {
    let install = |w: &mut World| {
        let cfg = CmapConfig {
            rate_aware: true,
            ..CmapConfig::default()
        };
        for node in 0..w.node_count() {
            let ladder = vec![Rate::R6, Rate::R12, Rate::R18];
            let ctl = Box::new(ThroughputRate::new(ladder));
            w.set_mac(
                node,
                Box::new(CmapMac::with_rate_controller(cfg.clone(), ctl)),
            );
        }
    };
    assert_golden(
        "rate_adaptive",
        include_str!("data/ckpt_v8_rate_adaptive.fnv"),
        install,
        None,
        14,
    );
}
