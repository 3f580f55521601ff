//! Bit-determinism of the whole stack: the same spec produces identical
//! results, and different run seeds produce different (but plausible) ones.

use cmap_suite::bench::{exposed, runner::Spec};
use cmap_suite::sim::time::secs;

fn small_spec(run_seed: u64) -> Spec {
    Spec {
        duration: secs(6),
        configs: 2,
        run_seed,
        ..Spec::default()
    }
}

#[test]
fn identical_specs_are_bit_identical() {
    let a = exposed::fig12(&small_spec(7));
    let b = exposed::fig12(&small_spec(7));
    assert_eq!(a.len(), b.len());
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(ca.label, cb.label);
        assert_eq!(ca.samples, cb.samples, "curve {} diverged", ca.label);
    }
}

#[test]
fn different_run_seeds_differ_but_agree_qualitatively() {
    let a = exposed::fig12(&small_spec(7));
    let b = exposed::fig12(&small_spec(8));
    // Same configurations and protocol line-up...
    assert_eq!(a.len(), b.len());
    // ...but the fading/backoff draws differ, so samples should not be
    // bit-identical across all curves.
    let identical = a.iter().zip(&b).all(|(ca, cb)| ca.samples == cb.samples);
    assert!(!identical, "different seeds produced identical runs");
    // Qualitative agreement: CMAP beats carrier sense under both seeds.
    for curves in [&a, &b] {
        let mean = |label: &str| {
            let c = curves.iter().find(|c| c.label == label).expect(label);
            c.samples.iter().sum::<f64>() / c.samples.len() as f64
        };
        assert!(mean("CMAP") > mean("CS, acks"));
    }
}
