//! Hostile bytes into `World::restore`: a truncated or bit-flipped
//! checkpoint is an expected input (crash-safe artifact directories hold
//! torn files), so restore must answer `Ok` or a typed `CkptError` —
//! never panic, never abort on an allocation sized by a corrupt field.

use std::sync::OnceLock;

use proptest::prelude::*;

use cmap_suite::cmap::{CmapConfig, CmapMac};
use cmap_suite::sim::ckpt::CkptWriter;
use cmap_suite::sim::time::millis;
use cmap_suite::sim::{CkptError, MediumBuilder, NodeId, PhyConfig, World, CKPT_MAGIC};

/// Four nodes in mutual range, two saturated flows, CMAP everywhere.
fn small_world() -> World {
    let phy = PhyConfig::default();
    let medium = MediumBuilder::new(&phy).uniform(4, -70.0).build();
    let mut w = World::builder().medium(medium).phy(phy).seed(5).build();
    w.add_flow(0, 1, 1400);
    w.add_flow(2, 3, 1400);
    for node in 0..w.node_count() {
        w.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
    }
    w
}

/// `small_world` stopped mid-run with frames on the air, so the frame
/// pool, the radio locks and the event queue are populated.
fn mid_run_world() -> World {
    let mut w = small_world();
    let mut until = millis(300);
    w.run_until(until);
    while w.inflight_tx_count() == 0 {
        until += millis(1);
        w.run_until(until);
    }
    w
}

/// The checkpoint of `mid_run_world`.
fn checkpoint() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| mid_run_world().checkpoint().expect("checkpoint at mid-run"))
}

#[test]
fn intact_checkpoint_restores() {
    small_world().restore(checkpoint()).expect("restore");
}

/// A `cmap-ckpt/v4` image (its medium fingerprint hashed the engine kind
/// and, for a matrix-fed medium, the whole matrix) must be turned away at
/// the magic line, as the version error — not read as v5 until the
/// fingerprint echo fails as a configuration mismatch.
#[test]
fn previous_format_version_is_refused_as_such() {
    let v5 = checkpoint();
    assert!(v5.starts_with(b"cmap-ckpt/v5\n"));
    let mut v4 = v5.to_vec();
    v4[b"cmap-ckpt/v".len()] = b'4';
    assert_eq!(small_world().restore(&v4), Err(CkptError::BadMagic));
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let bytes = checkpoint();
    for keep in 0..bytes.len() {
        assert!(
            small_world().restore(&bytes[..keep]).is_err(),
            "restore accepted a checkpoint cut at byte {keep} of {}",
            bytes.len()
        );
    }
}

/// The two entries of one map trade places: every key is still there
/// once, so a reader that inserted key by key took the image as a second
/// encoding of the same state. Maps are strictly ascending on the wire
/// and anything else is refused.
#[test]
fn swapped_map_entries_are_malformed() {
    // `Stats::vpkt` as the image holds it: a count, then per link its
    // (sender, receiver) key and its `VpktStats`.
    let w = mid_run_world();
    let links = [(0, 1), (2, 3)].map(|(src, dst)| {
        let mut entry = CkptWriter::new();
        entry.put(&(NodeId::new(src), NodeId::new(dst)));
        entry.put(w.stats().vpkt_stats(src, dst).expect("both links sent"));
        entry.finish()[CKPT_MAGIC.len() + 1..].to_vec()
    });
    let map = |order: [usize; 2]| {
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&links[order[0]]);
        bytes.extend_from_slice(&links[order[1]]);
        bytes
    };
    let (written, swapped) = (map([0, 1]), map([1, 0]));
    let mut bytes = checkpoint().to_vec();
    let at = bytes
        .windows(written.len())
        .position(|window| window == written)
        .expect("the link map is in the image");
    bytes[at..at + swapped.len()].copy_from_slice(&swapped);
    assert!(matches!(
        small_world().restore(&bytes),
        Err(CkptError::Malformed(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_bit_flips_never_panic(pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = checkpoint().to_vec();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        // Many flips land in a counter or a timestamp and restore fine;
        // the rest must come back as `CkptError`. Reaching this line at
        // all is the property.
        let _ = small_world().restore(&bytes);
    }
}
