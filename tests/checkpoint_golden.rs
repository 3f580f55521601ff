//! The `cmap-ckpt/v8` format pin: the FNV-1a 64 hash of the checkpoint
//! *bytes* of the four `checkpoint_identity.rs` scenarios at their
//! mid-run cut, compared against `tests/data/ckpt_v8_*.fnv`.
//!
//! `checkpoint_identity.rs` only proves a checkpoint restores into the
//! same behaviour; a save and a load that drift together pass it. This
//! test pins the encoding itself, so a refactor of the save/load code
//! that claims "format unchanged" has something to be held to.

mod ckpt_scenarios;
mod support;

use ckpt_scenarios::{spec, Scenario, CMAP, CMAP_FAULTS, DCF, RATE_ADAPTIVE};
use cmap_suite::obs::fnv1a64;

/// The hash a `tests/data/ckpt_v8_*.fnv` file pins: its first line that
/// is neither blank nor a `#` comment, in hex.
fn committed(file: &str) -> u64 {
    let line = file
        .lines()
        .find(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .expect("baseline file holds a hash line");
    u64::from_str_radix(line.trim().trim_start_matches("0x"), 16)
        .expect("baseline hash parses as hex")
}

fn assert_golden(scenario: &Scenario, file: &str) {
    let name = scenario.name;
    let bytes = scenario.mid_checkpoint(&spec());
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
    assert_golden(&CMAP, include_str!("data/ckpt_v8_cmap.fnv"));
}

#[test]
fn cmap_faults_checkpoint_bytes_match_pin() {
    assert_golden(&CMAP_FAULTS, include_str!("data/ckpt_v8_cmap_faults.fnv"));
}

#[test]
fn dcf_checkpoint_bytes_match_pin() {
    assert_golden(&DCF, include_str!("data/ckpt_v8_dcf.fnv"));
}

#[test]
fn rate_adaptive_checkpoint_bytes_match_pin() {
    assert_golden(
        &RATE_ADAPTIVE,
        include_str!("data/ckpt_v8_rate_adaptive.fnv"),
    );
}
