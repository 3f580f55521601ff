//! The four checkpoint scenarios, written once for the two files that
//! hold them to account: `checkpoint_identity.rs` (a run restored from
//! the mid-run checkpoint finishes on the uninterrupted run's bytes) and
//! `checkpoint_golden.rs` (the mid-run checkpoint's bytes hash to the
//! committed `tests/data/ckpt_v8_*.fnv` pin).

use cmap_suite::bench::{runner::Spec, Protocol};
use cmap_suite::cmap::{CmapConfig, CmapMac, ThroughputRate};
use cmap_suite::phy::Rate;
use cmap_suite::sim::time::secs;
use cmap_suite::sim::{FaultPlan, Mac, World};

use crate::support::exposed_pair_world;

pub(crate) fn spec() -> Spec {
    Spec {
        duration: secs(4),
        configs: 2,
        ..Spec::default()
    }
}

pub(crate) fn rate_adaptive_cmap() -> Box<dyn Mac> {
    let cfg = CmapConfig {
        rate_aware: true,
        ..CmapConfig::default()
    };
    let ladder = vec![Rate::R6, Rate::R12, Rate::R18];
    Box::new(CmapMac::adaptive(cfg, ThroughputRate::new(ladder)))
}

/// One scenario: a MAC install, a run seed and whether the mixed fault
/// plan runs, on the [`exposed_pair_world`] world.
pub(crate) struct Scenario {
    /// Names the scenario's pin, `tests/data/ckpt_v8_{name}.fnv`.
    pub(crate) name: &'static str,
    pub(crate) run_seed: u64,
    pub(crate) faults: bool,
    pub(crate) install: fn(&mut World),
}

impl Scenario {
    pub(crate) fn setup(&self, spec: &Spec) -> World {
        let mut w = exposed_pair_world(spec, self.run_seed);
        (self.install)(&mut w);
        if self.faults {
            w.install_faults(FaultPlan::mixed(50, spec.duration));
        }
        w
    }

    /// The checkpoint of a fresh world run to `spec.duration / 2`.
    pub(crate) fn mid_checkpoint(&self, spec: &Spec) -> Vec<u8> {
        let mut w = self.setup(spec);
        w.run_until(spec.duration / 2);
        w.checkpoint().expect("checkpoint at mid-run")
    }
}

fn install_cmap(w: &mut World) {
    Protocol::cmap().install(w);
}

fn install_dcf(w: &mut World) {
    Protocol::cs_on().install(w);
}

fn install_rate_adaptive(w: &mut World) {
    for node in 0..w.node_count() {
        w.set_mac(node, rate_adaptive_cmap());
    }
}

pub(crate) const CMAP: Scenario = Scenario {
    name: "cmap",
    run_seed: 11,
    faults: false,
    install: install_cmap,
};

pub(crate) const CMAP_FAULTS: Scenario = Scenario {
    name: "cmap_faults",
    run_seed: 12,
    faults: true,
    install: install_cmap,
};

pub(crate) const DCF: Scenario = Scenario {
    name: "dcf",
    run_seed: 13,
    faults: false,
    install: install_dcf,
};

pub(crate) const RATE_ADAPTIVE: Scenario = Scenario {
    name: "rate_adaptive",
    run_seed: 14,
    faults: false,
    install: install_rate_adaptive,
};
