//! Property-based tests for the containers of `cmap-ckpt/v8`:
//!
//! * `load` builds a map or set in one pass from the key-ordered stream
//!   `save` wrote, and what it builds must be the container that inserting
//!   key by key builds, at every size — across the B-tree's node boundary
//!   (11 keys fill a leaf) as well as thousands of entries deep;
//! * a run of fixed-width values decodes through one slice, and what it
//!   decodes — values, `Truncated`, each `Malformed` with its text — must
//!   be what decoding them one at a time gives, on any bytes;
//! * a virtual packet's inline packet list is written as a `Vec` of its
//!   packets is, and loads back to the same bytes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;

use proptest::prelude::*;

use cmap_suite::cmap::vpkt::{DataPkt, Inline, SentVpkt};
use cmap_suite::phy::Rate;
use cmap_suite::sim::ckpt::{CkptReader, CkptWriter, Persist};
use cmap_suite::sim::NodeId;
use cmap_suite::wire::cmap::InterfererEntry;
use cmap_suite::wire::MacAddr;

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

/// `bytes` decoded as a run of `n` values of `T` the bulk way (`Vec<T>`)
/// and one at a time (`count`, then `load` per item), and as one value
/// through `get` and through `load`: each pair must agree to the error
/// text (a run is `Truncated` at its count when short, a value through
/// `get` before it decodes), and on success to the bytes consumed.
fn bulk_matches_per_item<T: Persist + Debug>(n: usize, bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert!(T::FIXED);
    let mut w = CkptWriter::new();
    w.len(n);
    for b in bytes {
        w.put(b);
    }
    let image = w.finish();
    let reader = || CkptReader::new(&image).expect("sealed");

    let mut r = reader();
    let bulk = r.get::<Vec<T>>().map(|v| (v, r.remaining()));
    let mut r = reader();
    let one_by_one = r
        .count::<T>()
        .and_then(|n| {
            (0..n)
                .map(|_| T::load(&mut r))
                .collect::<Result<Vec<T>, _>>()
        })
        .map(|v| (v, r.remaining()));
    prop_assert_eq!(format!("{bulk:?}"), format!("{one_by_one:?}"));

    let mut r = reader();
    r.len().expect("the count");
    let mut s = reader();
    s.len().expect("the count");
    let whole = r.remaining() >= T::MIN_BYTES;
    let (got, loaded) = (r.get::<T>(), T::load(&mut s));
    if whole {
        prop_assert_eq!(format!("{got:?}"), format!("{loaded:?}"));
    } else {
        // Short of one value: `get` is `Truncated` before it decodes, `load`
        // may fail on a field first.
        prop_assert_eq!(
            got.as_ref().err(),
            Some(&cmap_suite::sim::CkptError::Truncated)
        );
        prop_assert!(loaded.is_err());
    }
    if got.is_ok() {
        prop_assert_eq!(r.remaining(), s.remaining());
    }
    Ok(())
}

/// Bytes that are mostly zero or small, so counts, bools, rates, lengths
/// and payload sizes come out valid about as often as not.
fn bytes() -> impl Strategy<Value = (usize, Vec<u8>)> {
    let byte = (0u8..10, any::<u8>()).prop_map(|(k, b)| match k {
        0..=5 => 0,
        6 | 7 => b % 8 + 1,
        _ => b,
    });
    (0usize..8, prop::collection::vec(byte, 0..160))
}

proptest! {
    #[test]
    fn fixed_width_runs_decode_as_their_items_do((n, b) in bytes()) {
        bulk_matches_per_item::<u8>(n, &b)?;
        bulk_matches_per_item::<u16>(n, &b)?;
        bulk_matches_per_item::<u32>(n, &b)?;
        bulk_matches_per_item::<u64>(n, &b)?;
        bulk_matches_per_item::<i64>(n, &b)?;
        bulk_matches_per_item::<u128>(n, &b)?;
        bulk_matches_per_item::<f64>(n, &b)?;
        bulk_matches_per_item::<bool>(n, &b)?;
        bulk_matches_per_item::<usize>(n, &b)?;
        bulk_matches_per_item::<NodeId>(n, &b)?;
        bulk_matches_per_item::<MacAddr>(n, &b)?;
        bulk_matches_per_item::<Rate>(n, &b)?;
        bulk_matches_per_item::<(u16, bool)>(n, &b)?;
        bulk_matches_per_item::<[u32; 3]>(n, &b)?;
        bulk_matches_per_item::<InterfererEntry>(n, &b)?;
        bulk_matches_per_item::<DataPkt>(n, &b)?;
        bulk_matches_per_item::<(NodeId, DataPkt, f64)>(n, &b)?;
    }
}

/// The errors each fixed-width run must give, and give the same way.
#[test]
fn fixed_width_runs_refuse_short_bad_lengths_and_bad_packets() {
    let image = |n: usize, words: &[u64]| {
        let mut w = CkptWriter::new();
        w.len(n);
        for v in words {
            w.put(v);
        }
        w.finish()
    };
    let both = |bytes: &[u8]| {
        let bulk = CkptReader::new(bytes).expect("sealed").get::<Vec<usize>>();
        let mut r = CkptReader::new(bytes).expect("sealed");
        let each = r
            .count::<usize>()
            .and_then(|n| (0..n).map(|_| usize::load(&mut r)).collect());
        assert_eq!(bulk, each);
        bulk
    };
    // Three lengths with two behind them; a length past 2^30.
    assert_eq!(
        both(&image(3, &[1, 2])),
        Err(cmap_suite::sim::CkptError::Truncated)
    );
    let err = both(&image(2, &[1, (1 << 30) + 1])).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed checkpoint: length 1073741825 out of range"
    );
    assert_eq!(both(&image(2, &[1, 1 << 30])), Ok(vec![1, 1 << 30]));

    // A data packet one byte longer than a frame holds.
    let packets = |payload_len: usize| {
        let mut w = CkptWriter::new();
        let pkt = DataPkt {
            flow: 1,
            flow_seq: 7,
            payload_len,
        };
        w.put(&vec![pkt, pkt]);
        w.finish()
    };
    let read = |bytes: &[u8]| {
        CkptReader::new(bytes)
            .expect("sealed")
            .get::<Vec<DataPkt>>()
    };
    assert_eq!(read(&packets(65_535)).map(|v| v.len()), Ok(2));
    let err = read(&packets(65_536)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed checkpoint: data packet of 65536 payload bytes"
    );
}

/// A sent virtual packet's packet list: `N_VPKT` (32) inline. The `fn`
/// holds this alias to `SentVpkt::pkts`' type.
type Pkts = Inline<DataPkt, 32>;
const _: fn(&SentVpkt) -> &Pkts = |v| &v.pkts;

proptest! {
    /// For 0..=32 packets, the inline list's image is the `Vec`'s, and
    /// save -> load -> save gives it again; a 33rd packet is refused.
    #[test]
    fn an_inline_packet_list_is_written_as_a_vec(
        pkts in prop::collection::vec(
            (any::<u16>(), any::<u32>(), 0usize..=65_535)
                .prop_map(|(flow, flow_seq, payload_len)| DataPkt { flow, flow_seq, payload_len }),
            0..=32,
        ),
    ) {
        let image = |put: &dyn Fn(&mut CkptWriter)| {
            let mut w = CkptWriter::new();
            put(&mut w);
            w.finish()
        };
        let list: Pkts = pkts.iter().copied().collect();
        prop_assert_eq!(&*list, &pkts[..]);
        let bytes = image(&|w| w.put(&list));
        prop_assert_eq!(&bytes, &image(&|w| w.put(&pkts)));

        let mut r = CkptReader::new(&bytes).expect("sealed");
        let loaded: Pkts = r.get().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(image(&|w| w.put(&loaded)), bytes);

        let mut longer = pkts.clone();
        longer.resize(33, DataPkt { flow: 0, flow_seq: 0, payload_len: 0 });
        let err = CkptReader::new(&image(&|w| w.put(&longer)))
            .expect("sealed")
            .get::<Pkts>()
            .unwrap_err();
        prop_assert_eq!(
            err.to_string(),
            "malformed checkpoint: 33 items in an inline vector of 32"
        );
    }
}
