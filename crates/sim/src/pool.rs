//! Deterministic free-list pool of in-flight frame buffers.
//!
//! Every transmission owns one pool slot from the moment its MAC composes
//! the frame until the last receiver's `FrameEnd` (or the sender's `TxEnd`)
//! releases it. The slot *is* the transmission record: raw wire bytes plus
//! the metadata the engine needs to grade receptions and to hand the frame
//! to its receivers one at a time — its reserved sequence numbers and two
//! cursors into the medium's arrival order: whose `FrameStart` and whose
//! `FrameEnd` is next, the only arrivals of it the event queue holds.
//! Slots are addressed by [`TxId`] — a `(generation, index)` pair packed
//! into the `u64` the event queue already carries — so every hot-path
//! access (`FrameStart`/`FrameEnd`/`TxEnd`) is one bounds-checked array
//! index instead of the ordered-map lookup the engine used before.
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
//!
//! Checkpoint interaction (`cmap-ckpt/v5`): only *live* slots are
//! serialised (as [`LiveTx`] records). On restore each live slot is placed
//! back at the index/generation its `TxId` encodes, and every other index
//! below the saved pool capacity becomes free with generation 0. Free-slot
//! generations are an allocation detail with no behavioural effect: no
//! pending event references a freed slot, and `TxId` values are opaque to
//! statistics and traces.

use std::borrow::Cow;

use crate::ckpt::CkptError;
use crate::event::TxId;
use crate::node::NodeId;
use crate::persist;
use crate::time::Time;
use cmap_phy::Rate;
use cmap_wire::FrameView;

/// One in-flight (or free) frame slot.
struct Slot {
    /// Bumped on every allocation of this index; packed into the `TxId`.
    gen: u32,
    /// Full wire bytes (tag through CRC). Capacity persists across reuse.
    buf: Vec<u8>,
    /// Transmitting node.
    node: NodeId,
    /// Bit-rate of the transmission.
    rate: Rate,
    /// When the transmission's first and last bit leave the sender.
    start: Time,
    end: Time,
    /// First of the `1 + 2·N` sequence numbers reserved when it started:
    /// `TxEnd`, then `FrameStart`/`FrameEnd` per `reachable` position.
    seq0: u64,
    /// Arrival cursors: how many receivers, in the medium's arrival
    /// order, have been handed their `FrameStart` / their `FrameEnd`.
    next_start: u32,
    next_end: u32,
    /// Outstanding releases: one per receiver `FrameEnd` plus one for the
    /// sender's `TxEnd`. Zero while free or not yet armed.
    ends_remaining: u32,
}

impl Slot {
    fn fresh() -> Slot {
        Slot {
            gen: 0,
            buf: Vec::new(),
            node: NodeId::new(0),
            rate: Rate::R6,
            start: 0,
            end: 0,
            seq0: 0,
            next_start: 0,
            next_end: 0,
            ends_remaining: 0,
        }
    }
}

const INDEX_MASK: u64 = 0xFFFF_FFFF;

#[inline]
fn pack(gen: u32, index: usize) -> TxId {
    (u64::from(gen) << 32) | index as u64
}

#[inline]
fn index_of(id: TxId) -> usize {
    (id & INDEX_MASK) as usize
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
    pub fn new() -> FramePool {
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
    pub fn alloc(&mut self) -> TxId {
        let index = match self.free.pop() {
            Some(i) => i as usize,
            None => {
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
    pub fn buf(&self, id: TxId) -> &[u8] {
        &self.slot(id).buf
    }

    /// The slot's buffer for composition (clear-and-fill; capacity is
    /// retained from previous occupants).
    #[inline]
    pub fn buf_mut(&mut self, id: TxId) -> &mut Vec<u8> {
        &mut self.slot_mut(id).buf
    }

    /// Move the slot's buffer out for borrow-free inspection (the RX
    /// dispatch path: MAC callbacks may allocate new slots while reading
    /// this frame). The slot stays live; pair with [`FramePool::put_buf`].
    #[inline]
    pub fn take_buf(&mut self, id: TxId) -> Vec<u8> {
        std::mem::take(&mut self.slot_mut(id).buf)
    }

    /// Return a buffer taken with [`FramePool::take_buf`].
    #[inline]
    pub fn put_buf(&mut self, id: TxId, buf: Vec<u8>) {
        self.slot_mut(id).buf = buf;
    }

    /// Arm an allocated slot as a transmission on the air over
    /// `start..end` with `ends` outstanding releases, sequence numbers
    /// reserved from `seq0` and both cursors at the first receiver.
    pub(crate) fn arm(
        &mut self,
        id: TxId,
        node: NodeId,
        rate: Rate,
        (start, end): (Time, Time),
        seq0: u64,
        ends: u32,
    ) {
        debug_assert!(ends > 0);
        let slot = self.slot_mut(id);
        debug_assert_eq!(slot.ends_remaining, 0, "re-arming a live transmission");
        slot.node = node;
        slot.rate = rate;
        (slot.start, slot.end, slot.seq0) = (start, end, seq0);
        (slot.next_start, slot.next_end) = (0, 0);
        slot.ends_remaining = ends;
    }

    /// Step one arrival cursor of a live slot (`ends`: the `FrameEnd` one)
    /// and return the index of the arrival it was on.
    #[inline]
    pub(crate) fn step(&mut self, id: TxId, ends: bool) -> u32 {
        let slot = self.slot_mut(id);
        let cursor = if ends {
            &mut slot.next_end
        } else {
            &mut slot.next_start
        };
        std::mem::replace(cursor, *cursor + 1)
    }

    /// What keys a live slot's arrivals: the sender, when its `FrameStart`s
    /// (with `ends`: `FrameEnd`s) leave it, and their seq at `reachable[0]`.
    #[inline]
    pub(crate) fn arrival_base(&self, id: TxId, ends: bool) -> (NodeId, Time, u64) {
        let slot = self.slot(id);
        if ends {
            (slot.node, slot.end, slot.seq0 + 2)
        } else {
            (slot.node, slot.start, slot.seq0 + 1)
        }
    }

    /// Bit-rate of a live slot.
    #[inline]
    pub fn rate_of(&self, id: TxId) -> Rate {
        self.slot(id).rate
    }

    /// Serialised frame length of a live slot.
    #[inline]
    pub fn wire_len(&self, id: TxId) -> usize {
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
    pub fn release(&mut self, id: TxId) {
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
    pub fn free_unsent(&mut self, id: TxId) {
        let index = index_of(id);
        debug_assert_eq!(self.slots[index].ends_remaining, 0);
        self.free_slot(index);
    }

    /// Currently-claimed slots (in-flight transmissions).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most slots ever claimed at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total slot recycle events (frees) so far.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    // ---- cmap-ckpt/v5 ---------------------------------------------------

    /// Slot-array length (the checkpoint's pool-capacity field).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The live slots in ascending `TxId` order (the checkpoint's
    /// deterministic transmission order), borrowing their wire bytes.
    pub fn live_txs(&self) -> Vec<LiveTx<'_>> {
        let mut live: Vec<LiveTx<'_>> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ends_remaining > 0)
            .map(|(i, s)| LiveTx {
                tx_id: pack(s.gen, i),
                node: s.node,
                rate: s.rate,
                start: s.start,
                buf: Cow::Borrowed(&s.buf[..]),
                wire_len: s.buf.len(),
                ends_remaining: s.ends_remaining,
                end: s.end,
                seq0: s.seq0,
                next_start: s.next_start,
                next_end: s.next_end,
            })
            .collect();
        live.sort_unstable_by_key(|tx| tx.tx_id);
        live
    }

    /// Rebuild a checkpointed pool: `capacity` slots, each live
    /// transmission back at the index and generation its `tx_id` encodes,
    /// every other index free (lowest index first off the stack), and the
    /// lifetime counters continued — the `pool.high_water` /
    /// `pool.recycled` gauges must not restart at the restore point.
    pub fn restore(
        capacity: u64,
        high_water: u64,
        recycled: u64,
        live: Vec<LiveTx<'_>>,
    ) -> Result<FramePool, CkptError> {
        // 2^24 in-flight slots is far beyond any reachable state; larger
        // values mean a corrupt checkpoint, not a big run. A slot is only
        // ever added when every existing one is claimed, so the two
        // fields are equal in any checkpoint a pool wrote.
        if capacity > (1 << 24) || high_water != capacity {
            return Err(CkptError::Malformed(format!(
                "frame pool of {capacity} slots, high water {high_water}"
            )));
        }
        let mut slots: Vec<Slot> = (0..capacity).map(|_| Slot::fresh()).collect();
        let live_count = live.len();
        for tx in live {
            match slots.get_mut(index_of(tx.tx_id)) {
                Some(slot) if slot.ends_remaining == 0 => {
                    *slot = Slot {
                        gen: (tx.tx_id >> 32) as u32,
                        buf: tx.buf.into_owned(),
                        node: tx.node,
                        rate: tx.rate,
                        start: tx.start,
                        end: tx.end,
                        seq0: tx.seq0,
                        next_start: tx.next_start,
                        next_end: tx.next_end,
                        ends_remaining: tx.ends_remaining,
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
        let free = (0..capacity as u32)
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

/// The checkpoint record of one in-flight transmission.
pub(crate) struct LiveTx<'a> {
    pub tx_id: TxId,
    pub node: NodeId,
    pub rate: Rate,
    pub start: Time,
    pub buf: Cow<'a, [u8]>,
    /// Redundant with `buf` (the format predates the pool); checked.
    pub wire_len: usize,
    pub ends_remaining: u32,
    pub end: Time,
    pub seq0: u64,
    pub next_start: u32,
    pub next_end: u32,
}

persist!(struct LiveTx<'a> { tx_id, node, rate, start, buf, wire_len, ends_remaining,
                             end, seq0, next_start, next_end }, validate LiveTx::check);

impl LiveTx<'_> {
    /// A live slot holds a well-formed frame and at least one outstanding
    /// release (`World::restore` holds the cursors against the medium).
    fn check(&self) -> Result<(), CkptError> {
        FrameView::parse_checked(&self.buf)
            .map_err(|e| CkptError::Malformed(format!("tx {} frame: {e:?}", self.tx_id)))?;
        if self.wire_len != self.buf.len() || self.ends_remaining == 0 {
            return Err(CkptError::Malformed(format!(
                "tx {}: wire_len {} for {} frame bytes, {} releases outstanding",
                self.tx_id,
                self.wire_len,
                self.buf.len(),
                self.ends_remaining
            )));
        }
        Ok(())
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
        assert_eq!(p.capacity(), 1);
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
        let live: Vec<TxId> = p.live_txs().iter().map(|tx| tx.tx_id).collect();
        assert_eq!(live, {
            let mut s = ids.clone();
            s.sort_unstable();
            s
        });
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
        assert_eq!(p.capacity(), 4);
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
        let tx = |tx_id, node| LiveTx {
            tx_id,
            node: NodeId::new(node),
            rate: Rate::R24,
            start: 99,
            buf: Cow::Owned(vec![1, 2, 3]),
            wire_len: 3,
            ends_remaining: 2,
            end: 120,
            seq0: 40,
            next_start: 1,
            next_end: 0,
        };
        let id = pack(5, 2);
        assert!(
            FramePool::restore(4, 4, 0, vec![tx(id, 3), tx(id, 3)]).is_err(),
            "duplicate"
        );
        assert!(
            FramePool::restore(4, 4, 0, vec![tx(pack(1, 9), 0)]).is_err(),
            "out of range"
        );
        assert!(
            FramePool::restore(4, 3, 0, vec![]).is_err(),
            "high water off capacity"
        );
        let mut p = FramePool::restore(4, 4, 17, vec![tx(id, 3)]).unwrap();
        assert_eq!(p.live(), 1);
        assert_eq!((p.high_water(), p.recycled()), (4, 17));
        assert_eq!(p.arrival_base(id, false), (NodeId::new(3), 99, 41));
        assert_eq!(p.wire_len(id), 3);
        assert_eq!(p.live_txs().len(), 1);
        // Lowest free index allocates first.
        let next = p.alloc();
        assert_eq!(index_of(next), 0);
    }
}
