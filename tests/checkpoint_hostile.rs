//! Hostile bytes into `World::restore`: a truncated or bit-flipped
//! checkpoint is an expected input (crash-safe artifact directories hold
//! torn files), so restore must answer `Ok` or a typed `CkptError` —
//! never panic, never abort on an allocation sized by a corrupt field —
//! and a world it answers `Ok` for must run on without panicking.
//!
//! An image ends with its content sum, so any flipped bit is refused
//! before a field is read. The edits below re-seal the sum after they
//! change a field, as a writer that got the field wrong would have, so
//! each reaches the structural check it is aimed at.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

use proptest::prelude::*;

use cmap_suite::cmap::vpkt::{DataPkt, SentVpkt};
use cmap_suite::cmap::{CmapConfig, CmapMac};
use cmap_suite::phy::Rate;
use cmap_suite::sim::ckpt::{CkptReader, CkptWriter};
use cmap_suite::sim::event::Event;
use cmap_suite::sim::time::millis;
use cmap_suite::sim::NodeApp;
use cmap_suite::sim::{
    ckpt::CKPT_MAGIC, CkptError, FaultPlan, Flow, Lockup, MediumBuilder, NodeId, PhyConfig, World,
};
use cmap_suite::wire::MacAddr;

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

/// `small_world` with a fault plan of two actions, a lockup of node 0
/// that starts and ends after the checkpoint.
fn faulty_world() -> World {
    let mut w = small_world();
    w.install_faults(FaultPlan {
        lockups: vec![Lockup {
            node: NodeId::new(0),
            at: millis(900),
            until: millis(950),
        }],
        ..FaultPlan::clean()
    });
    w
}

/// `small_world` stopped mid-run with frames on the air, so the frame
/// pool, the radio locks and the event queue are populated.
fn mid_run_world() -> World {
    mid_run(small_world())
}

fn mid_run(mut w: World) -> World {
    let mut until = millis(300);
    w.run_until(until);
    while w.inflight_tx_count() == 0 {
        until += millis(1);
        w.run_until(until);
    }
    w
}

/// `image` with its content sum recomputed: the wrapping sum of its
/// length and its little-endian `u64` words, the last zero-padded, in the
/// last eight bytes.
fn sealed(mut image: Vec<u8>) -> Vec<u8> {
    let end = image.len() - 8;
    let sum = image[..end].chunks(8).fold(end as u64, |sum, word| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        sum.wrapping_add(u64::from_le_bytes(w))
    });
    image[end..].copy_from_slice(&sum.to_le_bytes());
    image
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

/// A `cmap-ckpt/v7` image (no content sum, a seen-seq set per flow) must
/// be turned away at the magic line, as the version error — not read as
/// v8 until a field fails to parse. So must the v6 and v5 before it.
#[test]
fn previous_format_version_is_refused_as_such() {
    let v8 = checkpoint();
    assert!(v8.starts_with(b"cmap-ckpt/v8\n"));
    for old in [b'7', b'6', b'5'] {
        let mut image = v8.to_vec();
        image[b"cmap-ckpt/v".len()] = old;
        let image = sealed(image);
        assert_eq!(small_world().restore(&image), Err(CkptError::BadMagic));
    }
}

/// Every single-bit flip of an image, left unsealed, is refused: one in
/// the magic line as the version error, any other as `Malformed`, before
/// a field is read.
#[test]
fn unsealed_flips_are_malformed() {
    let image = checkpoint();
    let magic = CKPT_MAGIC.len() + 1;
    let mut bytes = image.to_vec();
    for i in 0..image.len() {
        for bit in 0..8 {
            bytes[i] ^= 1 << bit;
            let restored = small_world().restore(&bytes);
            if i < magic {
                assert_eq!(restored, Err(CkptError::BadMagic), "byte {i} bit {bit}");
            } else {
                assert_malformed(&format!("byte {i} bit {bit}"), restored);
            }
            bytes[i] ^= 1 << bit;
        }
    }
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
        let entry = entry.finish();
        entry[CKPT_MAGIC.len() + 1..entry.len() - 8].to_vec()
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
        small_world().restore(&sealed(bytes)),
        Err(CkptError::Malformed(_))
    ));
}

/// Where the fields the targeted edits below change sit in an image.
struct Layout {
    /// Each filed event: the offset of its `(at, seq, event)` entry.
    filed: Vec<(usize, Event)>,
    next_seq: u64,
    /// The offset of each radio's state byte (its `u128` energy total
    /// follows).
    radio_state: Vec<usize>,
    /// Each in-flight transmission: its sender, the offset of its `seq0`
    /// (its `u32` cursor follows, then its powers), and the offset of
    /// each power it holds.
    live: Vec<(NodeId, usize, Vec<usize>)>,
}

/// Walk `bytes` as `World::checkpoint` writes them, up to the in-flight
/// transmissions.
fn layout(bytes: &[u8]) -> Layout {
    let mut r = CkptReader::new(bytes).expect("magic");
    // The reader ends where the eight-byte content sum starts.
    let at = |r: &CkptReader<'_>| bytes.len() - 8 - r.remaining();
    // The configuration echo; the clock, the pool's high water and
    // recycle count, the lookup count.
    let (_, nodes): (u64, usize) = r.get().unwrap();
    let _: (Vec<Flow>, (u64, u64), u64, Option<FaultPlan>) = r.get().unwrap();
    let _: (u64, (u64, u64), u64) = r.get().unwrap();
    let filed = (0..r.len().unwrap())
        .map(|_| {
            let entry = at(&r);
            let (_, _, event): (u64, u64, Event) = r.get().unwrap();
            (entry, event)
        })
        .collect();
    let (next_seq, _, _, _): (u64, u64, [u64; 6], u64) = r.get().unwrap();
    // Per radio: state, energy, lock.
    assert_eq!(r.len().unwrap(), nodes);
    type Lock = Option<(u64, u64, f64, Vec<(u64, f64)>)>;
    let radio_state = (0..nodes)
        .map(|_| {
            let state = at(&r);
            let _: (u8, u128, Lock) = r.get().unwrap();
            state
        })
        .collect();
    for _ in 0..nodes {
        let _: [u64; 4] = r.get().unwrap();
    }
    for _ in 0..nodes {
        let _: NodeApp = r.get().unwrap();
    }
    let live = (0..r.len().unwrap())
        .map(|_| {
            let (_, node, _, _, _): (u64, NodeId, Rate, u64, Vec<u8>) = r.get().unwrap();
            let seq0 = at(&r);
            let _: (u64, u32) = r.get().unwrap();
            let powers = (0..r.len().unwrap())
                .map(|_| {
                    let power = at(&r);
                    let _: u128 = r.get().unwrap();
                    power
                })
                .collect();
            (node, seq0, powers)
        })
        .collect();
    Layout {
        filed,
        next_seq,
        radio_state,
        live,
    }
}

/// `image` with `value` written at `at`, re-sealed, restored into `world`.
fn edited(world: fn() -> World, image: &[u8], at: usize, value: &[u8]) -> Result<(), CkptError> {
    let mut bytes = image.to_vec();
    bytes[at..at + value.len()].copy_from_slice(value);
    world().restore(&sealed(bytes))
}

fn assert_malformed(what: &str, restored: Result<(), CkptError>) {
    assert!(
        matches!(restored, Err(CkptError::Malformed(_))),
        "{what}: {restored:?}"
    );
}

/// One edit per restore check that the image's own redundancy cannot
/// make: each would restore a world whose next `run_until` panics or
/// misbehaves, so each is `Malformed`.
#[test]
fn targeted_edits_are_malformed() {
    let image = checkpoint();
    let at = layout(image);
    // Every sender hears the three others: a stream is 7 events.
    let (node, seq0) = (at.live[0].0, at.live[0].1);
    let cursor = seq0 + 8;
    assert_malformed(
        "cursor 2F + 1",
        edited(small_world, image, cursor, &7u32.to_le_bytes()),
    );
    let last = (at.next_seq - 6).to_le_bytes();
    assert_malformed(
        "seq0 + 2F = next_seq",
        edited(small_world, image, seq0, &last),
    );
    let last = (at.next_seq - 7).to_le_bytes();
    edited(small_world, image, seq0, &last).expect("seq0 + 2F below next_seq");

    // A filed timer's tag turned into a FrameEnd's (both carry a node and
    // a u64), then its node out of range.
    let &(timer, _) = at
        .filed
        .iter()
        .find(|(_, ev)| matches!(ev, Event::Timer { .. }))
        .expect("a MAC timer is filed");
    assert_malformed(
        "filed FrameEnd",
        edited(small_world, image, timer + 16, &[2]),
    );
    assert_malformed(
        "timer at node 9",
        edited(small_world, image, timer + 17, &9u64.to_le_bytes()),
    );

    // The sender's radio still transmits: its flag cleared, or set at a
    // node that sends nothing.
    const TX: u8 = 1 << 1;
    let sending = |n: usize| at.live.iter().any(|tx| tx.0.index() == n);
    let state = at.radio_state[node.index()];
    assert!(image[state] & TX != 0, "the record's sender transmits");
    assert_malformed(
        "TX cleared",
        edited(small_world, image, state, &[image[state] & !TX]),
    );
    let idle = (0..4).find(|&n| !sending(n)).expect("a node sends nothing");
    let state = at.radio_state[idle];
    assert_malformed(
        "TX set",
        edited(small_world, image, state, &[image[state] | TX]),
    );

    // A radio's energy total one count off the powers its receptions
    // hold, and a reception's power one count off its radio's total:
    // either way the total is no longer the exact sum.
    let energy = at.radio_state[idle] + 1;
    let total = u128::from_le_bytes(image[energy..energy + 16].try_into().unwrap());
    let more = (total + 1).to_le_bytes();
    assert_malformed("energy word", edited(small_world, image, energy, &more));
    let &power = at
        .live
        .iter()
        .find_map(|tx| tx.2.first())
        .expect("a receiver holds a power");
    let held = u128::from_le_bytes(image[power..power + 16].try_into().unwrap());
    assert!(held > 0, "a reception of a powered radio");
    let less = (held - 1).to_le_bytes();
    assert_malformed("reception power", edited(small_world, image, power, &less));

    // The last 1,400 in the image is a CMAP data packet's payload length:
    // 65,535 bytes fit a data frame, 65,536 do not. It is in the MAC's
    // blob, whose errors `Mac::load_state` returns as text, so the world
    // reports it as a MAC state it cannot take, naming the field.
    let len = image
        .windows(8)
        .rposition(|w| w == 1400u64.to_le_bytes())
        .expect("a queued data packet");
    edited(small_world, image, len, &65_535u64.to_le_bytes()).expect("the largest payload");
    let long = 65_536u64.to_le_bytes();
    match edited(small_world, image, len, &long) {
        Err(CkptError::Mismatch(what)) => {
            assert!(
                what.contains("malformed checkpoint: data packet of 65536"),
                "{what}"
            )
        }
        other => panic!("payload_len 65,536: {other:?}"),
    }
}

/// Where a CMAP sender's virtual packets sit in an image.
struct Vpkts {
    /// The offset of its MAC blob's length word.
    blob_len: usize,
    /// The span of the current virtual packet's packet list.
    cur: Range<usize>,
    /// The first sent virtual packet's destination and the span of its
    /// packet list.
    dst: MacAddr,
    sent: Range<usize>,
    /// The offset of the repack queue's length word.
    rtx: usize,
}

/// Walk the MAC blobs at the end of `bytes` (each its length, then its
/// own magic line) to the first CMAP sender with a current virtual packet
/// and a sent one.
fn vpkts(bytes: &[u8]) -> Option<Vpkts> {
    let magic = format!("{CKPT_MAGIC}\n");
    let mut blobs = (1..bytes.len()).filter(|&at| bytes[at..].starts_with(magic.as_bytes()));
    blobs.find_map(|start| {
        let blob_len = start - 8;
        let len = u64::from_le_bytes(bytes[blob_len..start].try_into().unwrap()) as usize;
        let body = &bytes[start + magic.len()..start + len];
        let mut w = CkptWriter::new();
        body.iter().for_each(|b| w.put(b));
        let sealed = w.finish();
        let mut r = CkptReader::new(&sealed).unwrap();
        let at = |r: &CkptReader<'_>| start + magic.len() + body.len() - r.remaining();
        let list = |r: &mut CkptReader<'_>| {
            let from = at(r);
            let _: Vec<DataPkt> = r.get().unwrap();
            from..at(r)
        };
        // `CmapMac`'s state and current virtual packet, then the window:
        // the next sequence per destination, the sent virtual packets.
        let (_, current): (u8, bool) = r.get().unwrap();
        if !current {
            return None;
        }
        let _: (MacAddr, u32) = r.get().unwrap();
        let cur = list(&mut r);
        let _: (bool, Rate, u32, BTreeMap<MacAddr, u32>) = r.get().unwrap();
        let sent = r.len().unwrap();
        if sent == 0 {
            return None;
        }
        let (dst, _): (MacAddr, u32) = r.get().unwrap();
        let first = list(&mut r);
        let _: (u32, u64, Rate, u32) = r.get().unwrap();
        for _ in 1..sent {
            let _: SentVpkt = r.get().unwrap();
        }
        Some(Vpkts {
            blob_len,
            cur,
            dst,
            sent: first,
            rtx: at(&r),
        })
    })
}

/// A virtual packet carries at most 32 packets (`N_VPKT`): its ACK bitmap
/// is a `u32`. A current, a sent and a repacked one with 33 are refused,
/// each in a real image edited to hold it, and so is a current one with
/// none; with 32 the same edits restore.
#[test]
fn an_over_long_virtual_packet_is_malformed() {
    let mut w = small_world();
    let (image, at) = (1..)
        .find_map(|ms| {
            w.run_until(millis(300 + ms));
            let image = w.checkpoint().expect("checkpoint");
            vpkts(&image).map(|at| (image, at))
        })
        .expect("a sender has a virtual packet out and another under way");
    // A list of `n` copies of the first sent virtual packet's first packet.
    let list = |n: usize| {
        let pkt = &image[at.sent.start + 8..][..14];
        let mut out = (n as u64).to_le_bytes().to_vec();
        (0..n).for_each(|_| out.extend_from_slice(pkt));
        out
    };
    // `image` with `span` replaced by `with`, the MAC blob's length kept
    // right, re-sealed, restored.
    let spliced = |span: Range<usize>, with: &[u8]| {
        let mut bytes = image.clone();
        let grown = with.len() as i64 - span.len() as i64;
        bytes.splice(span, with.iter().copied());
        let len = &mut bytes[at.blob_len..at.blob_len + 8];
        let new = u64::from_le_bytes(len.try_into().unwrap()).wrapping_add_signed(grown);
        len.copy_from_slice(&new.to_le_bytes());
        small_world().restore(&sealed(bytes))
    };
    // The current and first sent virtual packets' lists; one more
    // repack-queue entry (destination, list, round 1) ahead of those
    // queued.
    let cur = |n| spliced(at.cur.clone(), &list(n));
    let sent = |n| spliced(at.sent.clone(), &list(n));
    let rtx = |n| {
        let queued = u64::from_le_bytes(image[at.rtx..][..8].try_into().unwrap());
        let mut entry = (queued + 1).to_le_bytes().to_vec();
        entry.extend_from_slice(&at.dst.0);
        entry.extend_from_slice(&list(n));
        entry.extend_from_slice(&1u32.to_le_bytes());
        spliced(at.rtx..at.rtx + 8, &entry)
    };
    cur(32).expect("a current virtual packet of 32");
    sent(32).expect("a sent virtual packet of 32");
    rtx(32).expect("a repacked virtual packet of 32");
    let over = "33 items in an inline vector of 32";
    for (what, restored, why) in [
        ("sent, 33", sent(33), over),
        ("repacked, 33", rtx(33), over),
        (
            "current, 33",
            cur(33),
            "current virtual packet of 33 packets",
        ),
        ("current, 0", cur(0), "current virtual packet of 0 packets"),
    ] {
        match restored {
            Err(CkptError::Mismatch(text)) => assert!(
                text.contains(&format!("malformed checkpoint: {why}")),
                "{what}: {text}"
            ),
            other => panic!("{what}: {other:?}"),
        }
    }
}

/// A fault event names an action of the installed plan (here two).
#[test]
fn a_fault_past_the_plan_is_malformed() {
    let image = mid_run(faulty_world()).checkpoint().expect("checkpoint");
    let at = layout(&image);
    let &(fault, _) = at
        .filed
        .iter()
        .find(|(_, ev)| *ev == Event::Fault { idx: 0 })
        .expect("the lockup is ahead");
    edited(faulty_world, &image, fault + 17, &1u32.to_le_bytes()).expect("the plan's other action");
    let past = 2u32.to_le_bytes();
    assert_malformed(
        "fault 2 of 2",
        edited(faulty_world, &image, fault + 17, &past),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_bit_flips_never_panic(pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = checkpoint().to_vec();
        let i = pos.index(bytes.len() - 8);
        bytes[i] ^= 1 << bit;
        let bytes = sealed(bytes);
        // Re-sealed, many flips land in a counter or a timestamp and
        // restore fine, and then the world must run on; the rest must come
        // back as `CkptError`. Reaching the last line at all is the
        // property.
        let mut w = small_world();
        if w.restore(&bytes).is_ok() {
            let now = w.now();
            w.run_until(now.saturating_add(millis(50)));
        }
    }
}
