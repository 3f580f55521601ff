//! Property-based tests for the ordered containers of `cmap-ckpt/v7`:
//! `load` builds a map or set in one pass from the key-ordered stream
//! `save` wrote, and what it builds must be the container that inserting
//! key by key builds, at every size — across the B-tree's node boundary
//! (11 keys fill a leaf) as well as thousands of entries deep.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;

use proptest::prelude::*;

use cmap_suite::sim::ckpt::{CkptReader, CkptWriter, Persist};

const MAX_ENTRIES: usize = 4096;

prop_compose! {
    /// 0..=4096 entries as (key, salt): keys distinct and in no order
    /// that matters (a running sum of gaps, reversed), the salt to derive
    /// a value from.
    fn entries()(
        n in prop_oneof![Just(11usize), Just(12), Just(13), 0..=MAX_ENTRIES],
        gaps in prop::collection::vec(1u32..=1000, MAX_ENTRIES),
        salts in prop::collection::vec(any::<u64>(), MAX_ENTRIES),
    ) -> Vec<(u32, u64)> {
        let mut key = 0;
        let keys = gaps[..n].iter().map(|gap| {
            key += gap;
            key
        });
        keys.zip(salts).rev().collect()
    }
}

/// save -> load gives `by_insert` back, and saving that gives the same
/// bytes.
fn round_trips<C: Persist + PartialEq + Debug>(by_insert: &C) -> Result<(), TestCaseError> {
    let mut w = CkptWriter::new();
    w.put(by_insert);
    let bytes = w.finish();

    let mut r = CkptReader::new(&bytes).expect("magic");
    let loaded: C = r.get().map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(r.remaining(), 0);
    prop_assert_eq!(&loaded, by_insert);

    let mut w = CkptWriter::new();
    w.put(&loaded);
    prop_assert_eq!(w.finish(), bytes);
    Ok(())
}

proptest! {
    #[test]
    fn sets_and_maps_load_as_key_by_key_insertion_builds_them(entries in entries()) {
        let mut set = BTreeSet::new();
        let mut flags = BTreeMap::new();
        let mut spans = BTreeMap::new();
        for &(key, salt) in &entries {
            prop_assert!(set.insert(key));
            flags.insert(key, salt as u8);
            let span: VecDeque<(u64, u64)> =
                (0..salt % 4).map(|i| (salt.rotate_left(i as u32), salt ^ i)).collect();
            spans.insert(((key >> 16) as u16, key as u16), span);
        }
        round_trips(&set)?;
        round_trips(&flags)?;
        round_trips(&spans)?;
    }
}
