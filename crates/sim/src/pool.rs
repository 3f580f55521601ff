//! Deterministic free-list pool of in-flight frame buffers.
//!
//! Every transmission owns one pool slot from the moment its MAC composes
//! the frame until the last receiver's `FrameEnd` (or the sender's `TxEnd`)
//! releases it. The slot *is* the transmission record: raw wire bytes plus
//! the metadata the engine needs to grade receptions and to hand the frame
//! to its receivers one at a time — its reserved sequence numbers and one
//! cursor into its [`Stream`]: how many of its `FrameStart`s, `TxEnd` and
//! `FrameEnd`s, in that order, have been handled. The event queue holds
//! the next one under a key that names the slot. Slots are addressed by
//! [`TxId`] — a `(generation, index)` pair packed into a `u64` — so every
//! hot-path access is one bounds-checked array index instead of the
//! ordered-map lookup the engine used before.
//!
//! Invariants:
//! * Slot buffers are recycled, never shrunk: a released slot keeps its
//!   `Vec` capacity, so a steady-state world composes frames without
//!   allocating (the frame-buffer twin of the radio layer's
//!   interference-profile recycling).
//! * The free list is LIFO and all allocation order is driven by the
//!   deterministic event loop, so same-seed runs produce identical
//!   `TxId` sequences and identical checkpoints.
//! * Generations make stale handles loudly detectable in debug builds; the
//!   release accounting (`ends_remaining`) guarantees no double-free — a
//!   slot only returns to the free list when its last share is released.
//! * Fewer than 2²⁰ slots: a queue key has that many bits for the index.
//! * A slot holds the power each `FrameStart` added to its receiver, by
//!   row position, for the `FrameEnd` to subtract; recycled like `buf`.
//!
//! Checkpoint interaction (`cmap-ckpt/v8`): only *live* slots are
//! serialised, as [`LiveTx`] records holding the stream's one cursor and
//! its live receivers' powers; the queue image holds none of their
//! events. On restore each live slot is
//! placed back at the index/generation its `TxId` encodes, its release
//! count derived from the cursor, and every other index below the high
//! water becomes free with generation 0. Free-slot generations are an
//! allocation detail with no behavioural effect: no pending event
//! references a freed slot, and `TxId` values are opaque to statistics and
//! traces.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

use crate::ckpt::CkptError;
use crate::event::{TxId, SLOTS};
use crate::medium::{Arrival, Medium};
use crate::node::NodeId;
use crate::persist;
use crate::radio::FIXED_MAX;
use crate::time::Time;
use cmap_phy::Rate;
use cmap_wire::FrameView;

/// One in-flight (or free) frame slot.
struct Slot {
    /// Bumped on every allocation of this index; packed into the `TxId`.
    gen: u32,
    /// Full wire bytes (tag through CRC). Capacity persists across reuse.
    buf: Vec<u8>,
    /// Bit-rate of the transmission.
    rate: Rate,
    /// The transmission's events and how far they have been handled.
    stream: Stream,
    /// The power each started receiver holds for it, by row position.
    powers: Vec<u128>,
    /// Outstanding releases: one per receiver `FrameEnd` plus one for the
    /// sender's `TxEnd`. Zero while free or not yet armed.
    ends_remaining: u32,
}

impl Slot {
    fn fresh() -> Slot {
        Slot {
            gen: 0,
            buf: Vec::new(),
            rate: Rate::R6,
            stream: Stream::default(),
            powers: Vec::new(),
            ends_remaining: 0,
        }
    }

    /// Row positions whose `FrameStart` is handled and `FrameEnd` not.
    fn receiving(&self) -> Range<usize> {
        let started = self.powers.len();
        (self.stream.cursor as usize - started).saturating_sub(1)..started
    }
}

const INDEX_MASK: u64 = 0xFFFF_FFFF;

#[inline]
fn pack(gen: u32, index: usize) -> TxId {
    (u64::from(gen) << 32) | index as u64
}

/// The slot index a `TxId` names.
#[inline]
pub(crate) fn index_of(id: TxId) -> usize {
    (id & INDEX_MASK) as usize
}

/// A transmission from `node` as a stream of `1 + 2·F` events over its
/// arrival row of F receivers: event `j` is the `FrameStart` of `row[j]`
/// for `j < F`, the `TxEnd` for `j == F`, the `FrameEnd` of `row[j − F −
/// 1]` after. Numbers reserved from `seq0` key them — `seq0` the `TxEnd`,
/// `seq0 + 1 + 2·pos` and `seq0 + 2 + 2·pos` those at `reachable` position
/// `pos` — and every link delay is shorter than the shortest frame, so the
/// keys increase with `j`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stream {
    pub(crate) node: NodeId,
    /// When its first and last bit leave the sender.
    start: Time,
    end: Time,
    seq0: u64,
    /// Events handled so far: the next is event `cursor`.
    pub(crate) cursor: u32,
}

impl Stream {
    /// Time and reserved seq of event `j`, or `None` past the last. (The
    /// sums cannot overflow: a restored record is refused unless its last
    /// seq is below the queue's next and its last `FrameEnd` within time.)
    #[inline(always)]
    pub(crate) fn key(&self, row: &[Arrival], j: usize) -> Option<(Time, u64)> {
        let f = row.len();
        let (leaves, first, link) = match j.cmp(&f) {
            Ordering::Less => (self.start, 1, &row[j]),
            Ordering::Equal => return Some((self.end, self.seq0)),
            Ordering::Greater => (self.end, 2, row.get(j - f - 1)?),
        };
        let seq = self.seq0 + first + 2 * u64::from(link.pos);
        Some((leaves + link.delay_ns, seq))
    }
}

/// The per-world frame pool. See the module docs for the lifecycle.
pub(crate) struct FramePool {
    slots: Vec<Slot>,
    /// LIFO free list of slot indices.
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    recycled: u64,
}

impl FramePool {
    pub(crate) fn new() -> FramePool {
        FramePool {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            recycled: 0,
        }
    }

    /// Claim a slot (reusing buffer capacity when one is free) and return
    /// its handle. The buffer contents are stale — callers compose into it
    /// via [`FramePool::buf_mut`] before arming.
    pub(crate) fn alloc(&mut self) -> TxId {
        let index = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                assert!(self.slots.len() < SLOTS, "frame pool full: 2^20 slots");
                self.slots.push(Slot::fresh());
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[index];
        slot.gen = slot.gen.wrapping_add(1);
        slot.ends_remaining = 0;
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        pack(slot.gen, index)
    }

    #[inline]
    fn slot(&self, id: TxId) -> &Slot {
        let slot = &self.slots[index_of(id)];
        debug_assert_eq!(u64::from(slot.gen), id >> 32, "stale TxId {id:#x}");
        slot
    }

    #[inline]
    fn slot_mut(&mut self, id: TxId) -> &mut Slot {
        let slot = &mut self.slots[index_of(id)];
        debug_assert_eq!(u64::from(slot.gen), id >> 32, "stale TxId {id:#x}");
        slot
    }

    /// The slot's wire bytes.
    #[inline]
    pub(crate) fn buf(&self, id: TxId) -> &[u8] {
        &self.slot(id).buf
    }

    /// The slot's buffer for composition (clear-and-fill; capacity is
    /// retained from previous occupants).
    #[inline]
    pub(crate) fn buf_mut(&mut self, id: TxId) -> &mut Vec<u8> {
        &mut self.slot_mut(id).buf
    }

    /// Move the slot's buffer out for borrow-free inspection (the RX
    /// dispatch path: MAC callbacks may allocate new slots while reading
    /// this frame). The slot stays live; pair with [`FramePool::put_buf`].
    #[inline]
    pub(crate) fn take_buf(&mut self, id: TxId) -> Vec<u8> {
        std::mem::take(&mut self.slot_mut(id).buf)
    }

    /// Return a buffer taken with [`FramePool::take_buf`].
    #[inline]
    pub(crate) fn put_buf(&mut self, id: TxId, buf: Vec<u8>) {
        self.slot_mut(id).buf = buf;
    }

    /// Arm an allocated slot as a transmission on the air over
    /// `start..end` with `ends` outstanding releases and sequence numbers
    /// reserved from `seq0`, and return its stream, at its first event.
    pub(crate) fn arm(
        &mut self,
        id: TxId,
        node: NodeId,
        rate: Rate,
        (start, end): (Time, Time),
        seq0: u64,
        ends: u32,
    ) -> Stream {
        debug_assert!(ends > 0);
        let slot = self.slot_mut(id);
        debug_assert_eq!(slot.ends_remaining, 0, "re-arming a live transmission");
        slot.rate = rate;
        slot.stream = Stream {
            node,
            start,
            end,
            seq0,
            cursor: 0,
        };
        slot.powers.clear();
        slot.powers.reserve(ends as usize - 1);
        slot.ends_remaining = ends;
        slot.stream
    }

    /// Each started row position's power: a `FrameStart` pushes, a `FrameEnd` reads.
    #[inline]
    pub(crate) fn powers(&mut self, id: TxId) -> &mut Vec<u128> {
        &mut self.slot_mut(id).powers
    }

    /// Visit every live reception: its receiver and the power it holds.
    pub(crate) fn receptions<F: FnMut(NodeId, &mut u128)>(&mut self, rows: &mut Medium, mut f: F) {
        for slot in self.slots.iter_mut().filter(|s| s.ends_remaining > 0) {
            let (row, live) = (rows.arrivals(slot.stream.node), slot.receiving());
            for j in live {
                f(row[j].rx, &mut slot.powers[j]);
            }
        }
    }

    /// The transmission in live slot `index` and its stream, at the event
    /// to handle now; its cursor steps past that event.
    #[inline(always)]
    pub(crate) fn advance(&mut self, index: usize) -> (TxId, Stream) {
        let slot = &mut self.slots[index];
        debug_assert!(slot.ends_remaining > 0, "stream of free slot {index}");
        let stream = slot.stream;
        slot.stream.cursor += 1;
        (pack(slot.gen, index), stream)
    }

    /// The live transmissions and their streams, in slot order.
    pub(crate) fn streams(&self) -> impl Iterator<Item = (TxId, Stream)> + '_ {
        let live = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ends_remaining > 0);
        live.map(|(i, s)| (pack(s.gen, i), s.stream))
    }

    /// Bit-rate of a live slot.
    #[inline]
    pub(crate) fn rate_of(&self, id: TxId) -> Rate {
        self.slot(id).rate
    }

    /// Serialised frame length of a live slot.
    #[inline]
    pub(crate) fn wire_len(&self, id: TxId) -> usize {
        self.slot(id).buf.len()
    }

    fn free_slot(&mut self, index: usize) {
        debug_assert!(self.live > 0);
        self.live -= 1;
        self.recycled += 1;
        self.free.push(index as u32);
    }

    /// Release one share of an armed slot (`TxEnd` or a receiver's
    /// `FrameEnd`); the slot is recycled when the last share goes.
    pub(crate) fn release(&mut self, id: TxId) {
        let index = index_of(id);
        let slot = &mut self.slots[index];
        debug_assert_eq!(u64::from(slot.gen), id >> 32, "stale TxId {id:#x}");
        debug_assert!(slot.ends_remaining > 0, "release of a free slot");
        slot.ends_remaining -= 1;
        if slot.ends_remaining == 0 {
            self.free_slot(index);
        }
    }

    /// Recycle a slot that was allocated but never armed (transmission
    /// refused: disabled radio, half-duplex violation).
    pub(crate) fn free_unsent(&mut self, id: TxId) {
        let index = index_of(id);
        debug_assert_eq!(self.slots[index].ends_remaining, 0);
        self.free_slot(index);
    }

    /// Currently-claimed slots (in-flight transmissions).
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Most slots ever claimed at once.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total slot recycle events (frees) so far.
    pub(crate) fn recycled(&self) -> u64 {
        self.recycled
    }

    // ---- cmap-ckpt/v8 ---------------------------------------------------

    /// The live slots' checkpoint records in slot order (restore puts
    /// each back at its index), borrowing their wire bytes.
    pub(crate) fn live_txs(&self) -> impl Iterator<Item = LiveTx<'_>> {
        let live = self.slots.iter().enumerate();
        live.filter(|(_, s)| s.ends_remaining > 0)
            .map(|(i, s)| LiveTx {
                tx_id: pack(s.gen, i),
                node: s.stream.node,
                rate: s.rate,
                start: s.stream.start,
                buf: Cow::Borrowed(&s.buf[..]),
                seq0: s.stream.seq0,
                cursor: s.stream.cursor,
                powers: s.powers[s.receiving()].to_vec(),
            })
    }

    /// Rebuild a checkpointed pool: `high_water` slots (a slot is only
    /// ever added when every existing one is claimed, so that is the slot
    /// array's length), each live transmission back at the index and
    /// generation its `tx_id` encodes, every other index free (lowest
    /// index first off the stack), and the lifetime counters continued —
    /// the `pool.high_water` / `pool.recycled` gauges must not restart at
    /// the restore point. `fanout` is a record's receiver count, `None`
    /// if its sender or its keys do not fit the world; its cursor must
    /// name an event of its stream, and it must hold one power per
    /// receiver that cursor has started and not ended.
    pub(crate) fn restore(
        high_water: u64,
        recycled: u64,
        live: Vec<LiveTx<'_>>,
        fanout: impl Fn(&LiveTx<'_>) -> Option<u32>,
    ) -> Result<FramePool, CkptError> {
        // A key has 20 bits for the slot; no reachable state comes near
        // that, so more means a corrupt checkpoint, not a big run.
        if high_water > SLOTS as u64 {
            return Err(CkptError::Malformed(format!(
                "frame pool of {high_water} slots"
            )));
        }
        let mut slots: Vec<Slot> = (0..high_water).map(|_| Slot::fresh()).collect();
        let live_count = live.len();
        for tx in live {
            // The TxEnd's airtime, as `start_tx` computed it. Every link
            // delay is shorter than a frame, so the last FrameEnd falls
            // before `end + airtime`, which must be a time.
            let airtime = tx.rate.frame_airtime_ns(tx.buf.len());
            let end = tx.start.checked_add(airtime);
            // One power per receiver started and not yet ended.
            let ended = |f: u32| tx.cursor.saturating_sub(f + 1);
            let f = fanout(&tx).filter(|&f| {
                tx.cursor <= 2 * f && tx.powers.len() == (f.min(tx.cursor) - ended(f)) as usize
            });
            let (Some(f), Some(end)) = (f, end.filter(|e| e.checked_add(airtime).is_some())) else {
                return Err(CkptError::Malformed(format!(
                    "tx {} from node {}: cursor {}, seq {}, start {}",
                    tx.tx_id, tx.node, tx.cursor, tx.seq0, tx.start
                )));
            };
            match slots.get_mut(index_of(tx.tx_id)) {
                Some(slot) if slot.ends_remaining == 0 => {
                    *slot = Slot {
                        gen: (tx.tx_id >> 32) as u32,
                        rate: tx.rate,
                        stream: Stream {
                            node: tx.node,
                            start: tx.start,
                            end,
                            seq0: tx.seq0,
                            cursor: tx.cursor,
                        },
                        powers: [vec![0; ended(f) as usize], tx.powers].concat(),
                        // A FrameEnd's each, and the TxEnd's until handled.
                        ends_remaining: f + 1 - tx.cursor.saturating_sub(f),
                        buf: tx.buf.into_owned(),
                    }
                }
                _ => {
                    return Err(CkptError::Malformed(format!(
                        "bad or duplicate tx {}",
                        tx.tx_id
                    )))
                }
            }
        }
        let free = (0..high_water as u32)
            .rev()
            .filter(|&i| slots[i as usize].ends_remaining == 0)
            .collect();
        Ok(FramePool {
            slots,
            free,
            live: live_count,
            high_water: high_water as usize,
            recycled,
        })
    }
}

/// The checkpoint record of one in-flight transmission: its slot, frame,
/// [`Stream`] and its live receivers' powers; the stream's end and the
/// slot's release count follow.
pub(crate) struct LiveTx<'a> {
    pub(crate) tx_id: TxId,
    pub(crate) node: NodeId,
    pub(crate) rate: Rate,
    pub(crate) start: Time,
    pub(crate) buf: Cow<'a, [u8]>,
    pub(crate) seq0: u64,
    pub(crate) cursor: u32,
    pub(crate) powers: Vec<u128>,
}

persist!(struct LiveTx<'a> { tx_id, node, rate, start, buf, seq0, cursor, powers },
         validate LiveTx::check);

impl LiveTx<'_> {
    /// A live slot holds a well-formed frame and powers under the cap
    /// ([`FramePool::restore`] holds the cursor to its stream).
    fn check(&self) -> Result<(), CkptError> {
        if self.powers.iter().any(|&p| p > FIXED_MAX) {
            return Err(CkptError::Malformed(format!("tx {} power", self.tx_id)));
        }
        FrameView::parse_checked(&self.buf)
            .map(drop)
            .map_err(|e| CkptError::Malformed(format!("tx {} frame: {e:?}", self.tx_id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_recycles_lifo_and_keeps_capacity() {
        let mut p = FramePool::new();
        let a = p.alloc();
        p.buf_mut(a).extend_from_slice(&[1, 2, 3, 4, 5]);
        p.arm(a, NodeId::new(0), Rate::R6, (0, 9), 0, 2);
        assert_eq!(p.live(), 1);
        assert_eq!(p.buf(a), &[1, 2, 3, 4, 5]);
        p.release(a);
        assert_eq!(p.live(), 1, "one share released, slot still live");
        p.release(a);
        assert_eq!(p.live(), 0);
        assert_eq!(p.recycled(), 1);
        // LIFO reuse of the same index with a bumped generation.
        let b = p.alloc();
        assert_eq!(b & INDEX_MASK, a & INDEX_MASK);
        assert_ne!(b, a);
        assert!(p.buf_mut(b).capacity() >= 5, "capacity retained");
        assert_eq!(p.slots.len(), 1);
        assert_eq!(p.high_water(), 1);
    }

    #[test]
    fn distinct_live_slots_and_high_water() {
        let mut p = FramePool::new();
        let ids: Vec<TxId> = (0..4).map(|_| p.alloc()).collect();
        for &id in &ids {
            p.arm(id, NodeId::new(1), Rate::R12, (7, 9), 0, 1);
        }
        assert_eq!(p.live(), 4);
        assert_eq!(p.high_water(), 4);
        let live: Vec<TxId> = p.live_txs().map(|tx| tx.tx_id).collect();
        assert_eq!(live, ids);
        for &id in &ids {
            p.release(id);
        }
        assert_eq!(p.live(), 0);
        assert_eq!(p.high_water(), 4);
        // Steady state: churn at depth 1 never grows the slot array.
        for _ in 0..100 {
            let id = p.alloc();
            p.arm(id, NodeId::new(0), Rate::R6, (0, 9), 0, 1);
            p.release(id);
        }
        assert_eq!(p.slots.len(), 4);
        assert_eq!(p.high_water(), 4);
    }

    #[test]
    fn free_unsent_recycles_without_arming() {
        let mut p = FramePool::new();
        let id = p.alloc();
        p.buf_mut(id).extend_from_slice(&[9; 64]);
        p.free_unsent(id);
        assert_eq!(p.live(), 0);
        assert_eq!(p.recycled(), 1);
        let again = p.alloc();
        assert!(p.buf_mut(again).capacity() >= 64);
    }

    #[test]
    fn restore_places_slots_by_id_and_frees_the_rest() {
        let tx = |tx_id, node, cursor| LiveTx {
            tx_id,
            node: NodeId::new(node),
            rate: Rate::R24,
            start: 99,
            buf: Cow::Owned(vec![1, 2, 3]),
            seq0: 40,
            cursor,
            powers: vec![7; cursor.min(1) as usize],
        };
        let id = pack(5, 2);
        let one = |_: &LiveTx<'_>| Some(1);
        let refused = |high_water, live: Vec<LiveTx<'_>>, fanout: &dyn Fn(&LiveTx<'_>) -> _| {
            FramePool::restore(high_water, 0, live, fanout).is_err()
        };
        assert!(
            refused(4, vec![tx(id, 3, 1), tx(id, 3, 1)], &one),
            "duplicate"
        );
        assert!(refused(4, vec![tx(pack(1, 9), 0, 1)], &one), "out of range");
        assert!(
            refused(SLOTS as u64 + 1, vec![], &one),
            "more slots than a key names"
        );
        assert!(refused(4, vec![tx(id, 3, 1)], &|_| None), "no such sender");
        assert!(
            refused(4, vec![tx(id, 3, 3)], &one),
            "cursor past the last FrameEnd"
        );
        let unheard = LiveTx {
            powers: vec![],
            ..tx(id, 3, 1)
        };
        assert!(
            refused(4, vec![unheard], &one),
            "a started receiver's power missing"
        );
        let airtime = Rate::R24.frame_airtime_ns(3);
        let late = LiveTx {
            start: u64::MAX - airtime,
            ..tx(id, 3, 1)
        };
        assert!(
            refused(4, vec![late], &one),
            "FrameEnds past the end of time"
        );
        let mut p = FramePool::restore(4, 17, vec![tx(id, 3, 1)], one).unwrap();
        assert_eq!(p.live(), 1);
        assert_eq!((p.high_water(), p.recycled()), (4, 17));
        assert_eq!(p.wire_len(id), 3);
        let powers: Vec<_> = p.live_txs().map(|tx| tx.powers).collect();
        assert_eq!((powers, p.powers(id)[0]), (vec![vec![7]], 7));
        // Its one FrameStart handled: the TxEnd is next, then the FrameEnd.
        let row = [Arrival {
            rx: NodeId::new(0),
            pos: 0,
            delay_ns: 7,
            rss_mw: 1.0,
        }];
        let (tx_id, s) = p.advance(index_of(id));
        assert_eq!((tx_id, s.node, s.cursor), (id, NodeId::new(3), 1));
        let keys: Vec<_> = (0..4).map(|j| s.key(&row, j)).collect();
        let end = 99 + airtime;
        assert_eq!(
            keys,
            [Some((106, 41)), Some((end, 40)), Some((end + 7, 42)), None]
        );
        assert_eq!(p.advance(index_of(id)).1.cursor, 2);
        // Lowest free index allocates first.
        let next = p.alloc();
        assert_eq!(index_of(next), 0);
        // Two releases were outstanding: the TxEnd's and the FrameEnd's.
        p.release(id);
        assert_eq!(p.live(), 2);
        p.release(id);
        assert_eq!((p.live(), p.recycled()), (1, 18));
    }
}
