//! Containers that stop allocating once warm: many short lists in one
//! slot arena with a free list, and one sorted ring keyed by sequence
//! number.
//!
//! In a [`Lists`], each entry sits in a slot beside the index of the next
//! slot of its list. A slot that a list gives back joins the free list,
//! threaded through the same index, so a warm arena allocates nothing and
//! its memory follows the live entries; a checkpoint load reserves every
//! list's slots at once ([`Lists::reserve_ahead`]). The radios'
//! interference profiles (one list per lock) and CMAP's activity windows
//! (one list per overheard neighbour) each keep their lists in one
//! [`Lists`].
//!
//! A [`SeqMap`] keeps per-sequence-number records in ascending order in
//! one `VecDeque`: new seqs land at the back and old ones leave at the
//! front, so a window that slides reuses its ring. CMAP's receive window
//! (records and finalised marks per virtual packet) and the per-link
//! header/trailer flags keep their seqs in one.

use std::collections::VecDeque;

use cmap_wire::cmap::MAX_ACK_WINDOW;

use crate::ckpt::{ascending, CkptError, CkptReader, CkptWriter, Persist};

/// No slot: the end of a list, or of an empty free list.
const NIL: u32 = u32::MAX;

/// One list in a [`Lists`] arena, from the oldest entry (`head`) to the
/// newest (`tail`), which are unset while `len` is 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl List {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the list holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The slots of many [`List`]s and the head of their free list.
#[derive(Debug)]
pub struct Lists<T> {
    /// `(entry, next)`; a free slot's `next` is the next free slot.
    slots: Vec<(T, u32)>,
    /// First free slot, [`NIL`] when none is.
    free: u32,
}

impl<T> Default for Lists<T> {
    fn default() -> Lists<T> {
        Lists {
            slots: Vec::new(),
            free: NIL,
        }
    }
}

impl<T: Copy> Lists<T> {
    /// Slots in use or free: the arena's high-water mark.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Append `entry` to `list`, in a free slot if there is one.
    pub fn push_back(&mut self, list: &mut List, entry: T) {
        let s = if self.free == NIL {
            let s = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("arena slots fit a u32 index below the end marker");
            self.slots.push((entry, NIL));
            s
        } else {
            let s = self.free;
            self.free = std::mem::replace(&mut self.slots[s as usize], (entry, NIL)).1;
            s
        };
        if list.len == 0 {
            list.head = s;
        } else {
            self.slots[list.tail as usize].1 = s;
        }
        list.tail = s;
        list.len += 1;
    }

    /// Take `list`'s oldest entry, its slot joining the free list.
    pub fn pop_front(&mut self, list: &mut List) -> Option<T> {
        if list.len == 0 {
            return None;
        }
        let s = list.head;
        let (entry, next) = &mut self.slots[s as usize];
        list.head = std::mem::replace(next, self.free);
        self.free = s;
        list.len -= 1;
        Some(*entry)
    }

    /// Give all of `list`'s slots to the free list, in one splice.
    pub fn release(&mut self, list: List) {
        if list.len > 0 {
            self.slots[list.tail as usize].1 = self.free;
            self.free = list.head;
        }
    }

    /// `list`'s entries, oldest first.
    pub fn iter(&self, list: List) -> impl Iterator<Item = &T> + Clone + '_ {
        std::iter::successors(Some(list.head), |&s| Some(self.slots[s as usize].1))
            .take(list.len())
            .map(|s| &self.slots[s as usize].0)
    }

    /// `list`'s newest entry.
    pub fn back_mut(&mut self, list: List) -> Option<&mut T> {
        (list.len > 0).then(|| &mut self.slots[list.tail as usize].0)
    }

    /// Slots on the free list: with the live entries, every slot.
    #[cfg(test)]
    pub(crate) fn free_slots(&self) -> usize {
        let after = |s: u32| Some(s).filter(|&s| s != NIL);
        std::iter::successors(after(self.free), |&s| after(self.slots[s as usize].1)).count()
    }
}

impl<T: Copy + Persist> Lists<T> {
    /// Write `list` as a `Vec<T>` of its entries is written: the length,
    /// then the entries, oldest first.
    pub fn save(&self, list: List, w: &mut CkptWriter) {
        w.len(list.len());
        self.iter(list).for_each(|entry| w.put(entry));
    }

    /// Reserve, in one allocation, the slots of the lists a load into
    /// this empty arena is about to read from `r`. `scan` walks a copy of
    /// the reader over them, stepping past each with [`Lists::skip`], and
    /// returns their total length; the reserve is that rounded up to a
    /// power of two, the capacity growing slot by slot from empty would
    /// have reached. A scan that errs reserves nothing, and the load then
    /// meets the same error.
    pub fn reserve_ahead(
        &mut self,
        r: &CkptReader<'_>,
        scan: impl FnOnce(&mut CkptReader<'_>) -> Result<usize, CkptError>,
    ) {
        if let Ok(n @ 1..) = scan(&mut r.clone()) {
            self.slots.reserve(n.next_power_of_two());
        }
    }

    /// Step past a list [`Lists::save`] wrote, checking its entries as
    /// [`Lists::load`] does; returns its length.
    pub fn skip(r: &mut CkptReader<'_>) -> Result<usize, CkptError> {
        let len = r.count::<T>()?;
        for _ in 0..len {
            r.get::<T>()?;
        }
        Ok(len)
    }

    /// Read a list [`Lists::save`] wrote into this arena, whose slots
    /// [`Lists::reserve_ahead`] reserved. The length is held against the
    /// bytes left before any entry is read.
    pub fn load(&mut self, r: &mut CkptReader<'_>) -> Result<List, CkptError> {
        let len = r.count::<T>()?;
        let mut list = List::default();
        for _ in 0..len {
            self.push_back(&mut list, r.get()?);
        }
        Ok(list)
    }
}

/// Values keyed by sequence number, in ascending order in one ring.
#[derive(Debug, Clone, Default)]
pub struct SeqMap<V> {
    ring: VecDeque<(u32, V)>,
}

impl<V> SeqMap<V> {
    /// Where `seq` is (`Ok`) or would go (`Err`). Most seqs are the
    /// newest or past it, so the back is tested before the ring is
    /// bisected.
    fn find(&self, seq: u32) -> Result<usize, usize> {
        match self.ring.back() {
            Some(&(last, _)) if last < seq => Err(self.ring.len()),
            Some(&(last, _)) if last == seq => Ok(self.ring.len() - 1),
            _ => self.ring.binary_search_by_key(&seq, |e| e.0),
        }
    }

    /// `seq`'s value, inserted as `V::default()` if absent, and whether
    /// it was. The first insert allocates one full ACK window of entries.
    pub fn entry(&mut self, seq: u32) -> (&mut V, bool)
    where
        V: Default,
    {
        match self.find(seq) {
            Ok(i) => (&mut self.ring[i].1, false),
            Err(i) => {
                if self.ring.capacity() == 0 {
                    self.ring.reserve_exact(MAX_ACK_WINDOW);
                }
                self.ring.insert(i, (seq, V::default()));
                (&mut self.ring[i].1, true)
            }
        }
    }

    /// `seq`'s value, if present.
    pub fn get(&self, seq: u32) -> Option<&V> {
        self.find(seq).ok().map(|i| &self.ring[i].1)
    }

    /// Drop every entry below `base`.
    pub fn prune_below(&mut self, base: u32) {
        while self.ring.front().is_some_and(|e| e.0 < base) {
            self.ring.pop_front();
        }
    }

    /// Take the lowest seq's entry.
    pub(crate) fn pop_first(&mut self) -> Option<(u32, V)> {
        self.ring.pop_front()
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// The entries, lowest seq first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.ring.iter().map(|(seq, v)| (*seq, v))
    }
}

/// Written as the `BTreeMap<u32, V>` it stands for (a `SeqMap<()>` as a
/// `BTreeSet<u32>`): the count, then each seq and value, seqs strictly
/// ascending; anything else is `Malformed`.
impl<V: Persist> Persist for SeqMap<V> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.seq(self.ring.iter());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<SeqMap<V>, CkptError> {
        let run = ascending(r, |e: &(u32, V)| &e.0)?;
        Ok(SeqMap { ring: run.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use crate::ckpt::CKPT_MAGIC;

    /// The sealed image of what `body` writes.
    fn image(body: impl FnOnce(&mut CkptWriter)) -> Vec<u8> {
        let mut w = CkptWriter::new();
        body(&mut w);
        w.finish()
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u64),
        Pop,
        Release,
        Bump(u64),
    }

    /// Pushes three times as often as each of the rest.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..6, any::<u64>()).prop_map(|(kind, v)| match kind {
            0..=2 => Op::Push(v),
            3 => Op::Pop,
            4 => Op::Release,
            _ => Op::Bump(v),
        })
    }

    proptest! {
        /// Interleaved pushes, pops, releases and edits of the newest
        /// entry over four lists: after every step each list holds what
        /// its deque does, every slot is free or live, each list's image
        /// is the deque's as a `Vec` and loads back to the same entries.
        #[test]
        fn lists_match_one_deque_each(
            ops in prop::collection::vec((0usize..4, op()), 1..400)
        ) {
            let (mut arena, mut lists) = (Lists::<u64>::default(), [List::default(); 4]);
            let mut oracle: [VecDeque<u64>; 4] = Default::default();
            for &(k, op) in &ops {
                let (list, deque) = (&mut lists[k], &mut oracle[k]);
                match op {
                    Op::Push(v) => {
                        arena.push_back(list, v);
                        deque.push_back(v);
                    }
                    Op::Pop => prop_assert_eq!(arena.pop_front(list), deque.pop_front()),
                    Op::Release => {
                        arena.release(std::mem::take(list));
                        deque.clear();
                    }
                    Op::Bump(v) => {
                        if let Some(back) = arena.back_mut(*list) {
                            *back ^= v;
                        }
                        if let Some(back) = deque.back_mut() {
                            *back ^= v;
                        }
                    }
                }
                for (&list, deque) in lists.iter().zip(&oracle) {
                    prop_assert_eq!(list.len(), deque.len());
                    prop_assert!(arena.iter(list).eq(deque.iter()));
                }
                let live: usize = lists.iter().map(List::len).sum();
                prop_assert_eq!(arena.free_slots() + live, arena.slots());
                let (list, deque) = (lists[k], &oracle[k]);
                let bytes = image(|w| arena.save(list, w));
                prop_assert_eq!(&bytes, &image(|w| w.put(&Vec::from(deque.clone()))));
                let mut back = Lists::<u64>::default();
                let loaded = back.load(&mut CkptReader::new(&bytes).unwrap()).unwrap();
                prop_assert!(back.iter(loaded).eq(deque.iter()));
            }
        }
    }

    /// Filling and releasing the same lists again and again reuses the
    /// first round's slots.
    #[test]
    fn a_warm_arena_stops_growing() {
        let (mut arena, mut high_water) = (Lists::default(), None);
        for round in 0..10u64 {
            let mut lists = [List::default(); 3];
            for (k, list) in lists.iter_mut().enumerate() {
                for v in 0..(k as u64 + 1) * 20 {
                    arena.push_back(list, round + v);
                }
            }
            while arena.pop_front(&mut lists[2]).is_some() {}
            lists.into_iter().for_each(|list| arena.release(list));
            let used = arena.slots();
            assert!(
                used <= *high_water.get_or_insert(used),
                "round {round}: {used} slots"
            );
            assert_eq!(arena.free_slots(), used);
        }
        assert_eq!(high_water, Some(120));
    }

    /// A pre-scan reserves every list's slots in one allocation, rounded
    /// up to a power of two, and the loads then fill it without growing;
    /// a pre-scan that errs reserves nothing, and the load meets its error.
    #[test]
    fn a_load_reserves_its_lists_at_once() {
        let lens = [3u64, 0, 7, 1];
        let scan = |r: &mut CkptReader<'_>| {
            lens.iter()
                .try_fold(0, |slots, _| Ok(slots + Lists::<u64>::skip(r)?))
        };
        let whole = image(|w| {
            lens.iter()
                .for_each(|&n| w.put(&(0..n).collect::<Vec<_>>()))
        });
        let mut r = CkptReader::new(&whole).unwrap();
        let mut arena = Lists::<u64>::default();
        arena.reserve_ahead(&r, scan);
        assert_eq!(arena.slots.capacity(), 16);
        let at = arena.slots.as_ptr();
        for &n in &lens {
            let list = arena.load(&mut r).unwrap();
            assert!(arena.iter(list).copied().eq(0..n));
        }
        assert_eq!((arena.slots.as_ptr(), arena.slots.capacity()), (at, 16));

        // The last list claims one entry more than it holds.
        let short = image(|w| {
            lens[..3]
                .iter()
                .for_each(|&n| w.put(&(0..n).collect::<Vec<_>>()));
            w.len(2);
            w.put(&0u64);
        });
        let mut r = CkptReader::new(&short).unwrap();
        let mut arena = Lists::<u64>::default();
        arena.reserve_ahead(&r, scan);
        assert_eq!(arena.slots.capacity(), 0);
        for _ in 0..3 {
            arena.load(&mut r).unwrap();
        }
        assert!(matches!(arena.load(&mut r), Err(CkptError::Truncated)));
    }

    /// A length the bytes left cannot hold is refused before any slot is
    /// reserved, and every cut of a real list is `Truncated`.
    #[test]
    fn a_count_past_the_bytes_left_is_refused() {
        let mut arena = Lists::<(u64, u64)>::default();
        let bytes = image(|w| {
            w.len(3);
            w.put(&(1u64, 2u64));
        });
        let err = arena.load(&mut CkptReader::new(&bytes).unwrap());
        assert!(matches!(err, Err(CkptError::Truncated)), "{err:?}");
        assert_eq!(arena.slots.capacity(), 0);

        let mut list = List::default();
        (0..4).for_each(|v| arena.push_back(&mut list, (v, v + 1)));
        let full = image(|w| arena.save(list, w));
        let body = &full[CKPT_MAGIC.len() + 1..full.len() - 8];
        for cut in 0..body.len() {
            let bytes = image(|w| body[..cut].iter().for_each(|b| w.put(b)));
            let err = Lists::<(u64, u64)>::default().load(&mut CkptReader::new(&bytes).unwrap());
            assert!(matches!(err, Err(CkptError::Truncated)), "cut at {cut}");
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum SeqOp {
        Entry(u32, u64),
        Get(u32),
        Prune(u32),
        Pop,
    }

    /// Mostly the next seq or the newest again, some ahead, some anywhere
    /// below, some a sender reboot's few seqs from zero; prunes below a
    /// base near the newest.
    fn seq_ops() -> impl Strategy<Value = Vec<SeqOp>> {
        let step = (0u8..10, any::<u32>(), any::<u64>());
        prop::collection::vec(step, 1..300).prop_map(|steps| {
            let mut next = 0u32;
            let mut ops = Vec::new();
            for (kind, x, v) in steps {
                let seq = match kind {
                    0..=2 => next,
                    3 => next.saturating_sub(1),
                    4 => next + x % 4,
                    5 => x % (next + 1),
                    6 => x % 8,
                    _ => 0,
                };
                ops.push(match kind {
                    0..=6 => SeqOp::Entry(seq, v),
                    7 => SeqOp::Get(x % (next + 2)),
                    8 => SeqOp::Prune(next.saturating_sub(x % 24)),
                    _ => SeqOp::Pop,
                });
                next = next.max(seq + 1);
            }
            ops
        })
    }

    /// The image of one value.
    fn image_of<T: Persist>(v: &T) -> Vec<u8> {
        image(|w| w.put(v))
    }

    proptest! {
        /// A `SeqMap<u64>` against a `BTreeMap` and a `SeqMap<()>`
        /// against a `BTreeSet`, over entry, get, prune and pop runs with
        /// repeated seqs and seqs below the front: after every step the
        /// same answers, lookups and entries in the same order, the same
        /// checkpoint bytes, and an image that loads back to itself.
        #[test]
        fn seq_maps_match_the_trees(ops in seq_ops()) {
            let (mut map, mut tree) = (SeqMap::<u64>::default(), BTreeMap::<u32, u64>::new());
            let (mut set, mut keys) = (SeqMap::<()>::default(), BTreeSet::<u32>::new());
            for &op in &ops {
                match op {
                    SeqOp::Entry(seq, v) => {
                        let (value, new) = map.entry(seq);
                        *value ^= v;
                        prop_assert_eq!(new, !tree.contains_key(&seq));
                        *tree.entry(seq).or_default() ^= v;
                        prop_assert_eq!(set.entry(seq).1, keys.insert(seq));
                    }
                    SeqOp::Get(seq) => {
                        prop_assert_eq!(map.get(seq), tree.get(&seq));
                        prop_assert_eq!(set.get(seq).is_some(), keys.contains(&seq));
                    }
                    SeqOp::Prune(base) => {
                        map.prune_below(base);
                        tree = tree.split_off(&base);
                        set.prune_below(base);
                        keys = keys.split_off(&base);
                    }
                    SeqOp::Pop => {
                        prop_assert_eq!(map.pop_first(), tree.pop_first());
                        prop_assert_eq!(set.pop_first().map(|e| e.0), keys.pop_first());
                    }
                }
                prop_assert!(map.iter().eq(tree.iter().map(|(&k, v)| (k, v))));
                prop_assert!(set.iter().map(|e| e.0).eq(keys.iter().copied()));
                prop_assert_eq!(map.len(), tree.len());
                for &seq in tree.keys() {
                    prop_assert_eq!(map.get(seq), tree.get(&seq));
                }
                let bytes = image_of(&map);
                prop_assert_eq!(&bytes, &image_of(&tree));
                let back: SeqMap<u64> = CkptReader::new(&bytes).unwrap().get().unwrap();
                prop_assert_eq!(&image_of(&back), &bytes);
                let bytes = image_of(&set);
                prop_assert_eq!(&bytes, &image_of(&keys));
                let back: SeqMap<()> = CkptReader::new(&bytes).unwrap().get().unwrap();
                prop_assert!(back.iter().map(|e| e.0).eq(keys.iter().copied()));
            }
        }
    }

    /// The first entry allocates one full ACK window, and a window of at
    /// most that many seqs that slides by one at a time never allocates
    /// again.
    #[test]
    fn a_sliding_window_keeps_its_first_allocation() {
        let mut map = SeqMap::<u8>::default();
        assert_eq!(map.ring.capacity(), 0);
        map.entry(0);
        assert_eq!(map.ring.capacity(), MAX_ACK_WINDOW);
        for seq in 1..1000u32 {
            map.prune_below((seq + 1).saturating_sub(MAX_ACK_WINDOW as u32));
            *map.entry(seq).0 = 1;
            assert_eq!(map.len(), (seq as usize + 1).min(MAX_ACK_WINDOW));
        }
        // Emptied, as by a sender reboot, it keeps its ring.
        map.prune_below(u32::MAX);
        map.entry(7);
        assert_eq!(map.ring.capacity(), MAX_ACK_WINDOW);
    }

    /// The length of the `SeqMap<V>` a sealed image holds.
    fn seq_map_len<V: Persist>(bytes: &[u8]) -> Result<usize, CkptError> {
        CkptReader::new(bytes)?.get::<SeqMap<V>>().map(|m| m.len())
    }

    /// Seqs that descend or repeat are `Malformed`; every cut of a real
    /// image is `Truncated`.
    #[test]
    fn hostile_seq_map_images_are_refused() {
        let map = |seqs: &[u32]| {
            image(|w| {
                w.len(seqs.len());
                seqs.iter().for_each(|&s| w.put(&(s, u64::from(s) << 40)));
            })
        };
        let set = |seqs: &[u32]| image(|w| w.seq(seqs.iter()));
        assert_eq!(seq_map_len::<u64>(&map(&[3, 4, 9])), Ok(3));
        assert_eq!(seq_map_len::<()>(&set(&[3, 4, 9])), Ok(3));
        let malformed = |r: Result<usize, CkptError>| matches!(r, Err(CkptError::Malformed(_)));
        for seqs in [&[4, 3][..], &[3, 3], &[1, 5, 5, 6], &[1, 9, 2]] {
            assert!(malformed(seq_map_len::<u64>(&map(seqs))), "{seqs:?}");
            assert!(malformed(seq_map_len::<()>(&set(seqs))), "{seqs:?}");
        }

        let cuts = |full: Vec<u8>| {
            let body = full[CKPT_MAGIC.len() + 1..full.len() - 8].to_vec();
            (0..body.len()).map(move |cut| image(|w| body[..cut].iter().for_each(|b| w.put(b))))
        };
        let (mut real_map, mut real_set) = (SeqMap::<u64>::default(), SeqMap::<()>::default());
        for seq in [2, 3, 5, 8] {
            *real_map.entry(seq).0 = u64::from(seq) << 40;
            real_set.entry(seq);
        }
        for bytes in cuts(image_of(&real_map)) {
            assert_eq!(seq_map_len::<u64>(&bytes), Err(CkptError::Truncated));
        }
        for bytes in cuts(image_of(&real_set)) {
            assert_eq!(seq_map_len::<()>(&bytes), Err(CkptError::Truncated));
        }
    }
}
