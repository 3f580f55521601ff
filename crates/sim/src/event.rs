//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is a
//! monotonically increasing tie-breaker so that simultaneous events execute
//! in the order they were scheduled, making runs fully deterministic.
//!
//! The queue is a **hierarchical timing wheel**: [`LEVELS`] rings of
//! [`SLOTS`] buckets each, where a level-`l` bucket spans `SLOTS^l` ticks of
//! [`TICK_NS`] nanoseconds. An event lands in the lowest level whose
//! resolution still separates it from the wheel's current position; when a
//! ring drains, the next occupied higher-level bucket *cascades* — its
//! events re-file into finer rings. Per-level occupancy bitmaps make
//! advancing over empty time O(1) per ring, so a `schedule` beyond the
//! current tick is O(1) whatever the queue length. The far-future fallback
//! is the top ring, whose buckets span ~52 days of simulated time.
//!
//! Exactness is never traded for speed: the bucket being drained is staged
//! into a binary min-heap on `(time, seq)` (an O(b) heapify of its b
//! events), and an event scheduled at or before the wheel's current
//! position is pushed onto that heap. `pop` and a same-tick `schedule` are
//! therefore O(log b), and the pop order is *identical* to one global
//! heap's — property-tested against a reference heap in
//! `tests/engine_props.rs`.
//!
//! A transmission's arrivals fall due in a known order, so it queues one
//! at a time: it [`reserve`](Scheduler::reserve)s all their sequence
//! numbers, files the first ([`Scheduler::schedule_reserved`]) and, when
//! one is handled, passes the next as a *carry* into [`Scheduler::next`],
//! which returns the earliest of queue and carry — usually the carry,
//! untouched. Keys, and so order, are those of filing everything eagerly.

use std::collections::BinaryHeap;

use crate::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use crate::persist;
use crate::time::Time;
use crate::world::NodeId;

/// Identifier of one transmission (one PHY frame on the air), unique within
/// a run.
pub type TxId = u64;

/// The events the engine processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A node's own transmission finished.
    TxEnd { node: NodeId, tx_id: TxId },
    /// The first energy of transmission `tx_id` reaches node `rx`.
    FrameStart { rx: NodeId, tx_id: TxId },
    /// The last energy of transmission `tx_id` leaves node `rx`.
    FrameEnd { rx: NodeId, tx_id: TxId },
    /// A MAC-requested timer at `node` fires with an opaque token.
    Timer { node: NodeId, token: u64 },
    /// Scheduled fault-plan action (index into the installed plan's action
    /// list). Only present when a fault plan is installed.
    Fault { idx: u32 },
    /// Periodic invariant-watchdog audit. Only scheduled when a fault plan
    /// is installed, so clean runs see an unchanged event stream.
    Audit,
}

impl Event {
    /// Number of event kinds (dense index space for dispatch counters).
    pub const KIND_COUNT: usize = 6;

    /// Kind names in `kind_idx` order, for dispatch-profile reporting.
    pub const KIND_NAMES: [&'static str; Event::KIND_COUNT] = [
        "tx_end",
        "frame_start",
        "frame_end",
        "timer",
        "fault",
        "audit",
    ];

    /// Dense index of this event's kind.
    pub const fn kind_idx(&self) -> usize {
        match self {
            Event::TxEnd { .. } => 0,
            Event::FrameStart { .. } => 1,
            Event::FrameEnd { .. } => 2,
            Event::Timer { .. } => 3,
            Event::Fault { .. } => 4,
            Event::Audit => 5,
        }
    }

    /// This event's kind name.
    pub const fn kind_name(&self) -> &'static str {
        Event::KIND_NAMES[self.kind_idx()]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

/// Reversed `(at, seq)` order — `seq` is unique, so it is total — which
/// makes std's max-heap pop the earliest event first.
impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Nanoseconds per wheel tick (level-0 bucket width): ~1 µs.
const TICK_BITS: u32 = 10;
/// Level-0 bucket width in nanoseconds.
pub const TICK_NS: u64 = 1 << TICK_BITS;
/// log2 of the bucket count per ring.
const SLOT_BITS: u32 = 8;
/// Buckets per ring.
const SLOTS: usize = 1 << SLOT_BITS;
/// Rings. `LEVELS * SLOT_BITS = 56` index bits over 54-bit tick values
/// (`u64` time >> [`TICK_BITS`]), so every representable time has a bucket
/// — no overflow heap needed.
const LEVELS: usize = 7;
/// Words per occupancy bitmap (256 bits).
const BITMAP_WORDS: usize = SLOTS / 64;

/// Deterministic occupancy statistics of one scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events re-filed from a coarser ring into a finer one. A pure
    /// function of the schedule/pop sequence, hence deterministic.
    pub cascades: u64,
    /// Largest number of simultaneously pending events observed.
    pub max_occupancy: u64,
}

/// A deterministic time-ordered event queue (hierarchical timing wheel).
#[derive(Debug)]
pub struct Scheduler {
    /// `LEVELS * SLOTS` buckets, level-major.
    buckets: Box<[Vec<Scheduled>]>,
    /// One occupancy bitmap per ring.
    occupied: [[u64; BITMAP_WORDS]; LEVELS],
    /// Tick of the bucket currently drained into `cur`. Events at ticks
    /// `<= now_tick` bypass the wheel and push straight onto `cur`.
    now_tick: u64,
    /// Drain heap: the current bucket's events, earliest `(at, seq)` on
    /// top. Invariant: non-empty whenever `len > 0`, and its top is the
    /// global minimum, so `peek_time` is O(1).
    cur: BinaryHeap<Scheduled>,
    len: usize,
    next_seq: u64,
    processed: u64,
    processed_by_kind: [u64; Event::KIND_COUNT],
    stats: SchedStats,
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new()
    }
}

/// Retired bucket arrays, recycled across schedulers on the same thread so
/// each new world inherits warmed-up slot capacities instead of re-growing
/// all `LEVELS * SLOTS` bucket `Vec`s from empty. Capacity is invisible to
/// behavior — recycled and fresh schedulers produce identical event orders
/// — this only removes the per-world allocation warm-up (one experiment
/// cell builds one world, so suites pay it hundreds of times otherwise).
fn take_recycled_buckets() -> Option<Box<[Vec<Scheduled>]>> {
    BUCKET_POOL.with(|p| p.borrow_mut().pop())
}

fn retire_buckets(mut buckets: Box<[Vec<Scheduled>]>) {
    const MAX_RETIRED: usize = 4;
    if buckets.len() != LEVELS * SLOTS {
        return;
    }
    for b in buckets.iter_mut() {
        b.clear();
    }
    BUCKET_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_RETIRED {
            pool.push(buckets);
        }
    });
}

thread_local! {
    // cmap-analyze: allow(shared-state) — per-thread capacity recycling; never observable in artifacts
    static BUCKET_POOL: std::cell::RefCell<Vec<Box<[Vec<Scheduled>]>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        retire_buckets(std::mem::take(&mut self.buckets));
    }
}

impl Scheduler {
    /// An empty queue.
    pub fn new() -> Scheduler {
        Scheduler {
            buckets: take_recycled_buckets()
                .unwrap_or_else(|| (0..LEVELS * SLOTS).map(|_| Vec::new()).collect()),
            occupied: [[0; BITMAP_WORDS]; LEVELS],
            now_tick: 0,
            cur: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            processed: 0,
            processed_by_kind: [0; Event::KIND_COUNT],
            stats: SchedStats::default(),
        }
    }

    /// Enqueue `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.reserve(1);
        self.schedule_reserved(at, seq, event);
    }

    /// Set aside `n` consecutive sequence numbers and return the first. An
    /// event later filed ([`Scheduler::schedule_reserved`]) or carried
    /// ([`Scheduler::next`]) under one orders as if `schedule`d here.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Enqueue `event` at `at` under a sequence number from
    /// [`Scheduler::reserve`]; each reserved number keys at most one event.
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.insert(Scheduled { at, seq, event });
        self.len += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.len as u64);
        // Keep the drain heap settled: if the event went into the wheel
        // while nothing was staged, pull the earliest bucket now.
        if self.cur.is_empty() {
            let advanced = self.advance();
            debug_assert!(advanced);
        }
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.cur.peek().map(|s| s.at)
    }

    /// Remove and return the next `(time, event)`.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.next(None, Time::MAX)
    }

    /// The earliest event of the queue and `carry` — a pending `(time,
    /// reserved seq, event)` its producer kept out of the queue — if due by
    /// `horizon`; otherwise `None`, with the carry filed. The carry counts
    /// as pending from here on, so counters and later pops read the same
    /// whether it was handed back untouched, exchanged, or filed.
    pub fn next(
        &mut self,
        carry: Option<(Time, u64, Event)>,
        horizon: Time,
    ) -> Option<(Time, Event)> {
        if let Some((at, seq, event)) = carry {
            let carried = Scheduled { at, seq, event };
            let tick = at >> TICK_BITS;
            self.stats.max_occupancy = self.stats.max_occupancy.max(self.len as u64 + 1);
            match self.cur.peek().map(|top| (top.at, top.seq)) {
                Some(top) if top < (at, seq) => {
                    if tick <= self.now_tick && top.0 <= horizon {
                        // Both belong to the tick being drained: one sift
                        // takes the top out and puts the carry in.
                        let mut slot = self.cur.peek_mut().expect("peeked");
                        let first = std::mem::replace(&mut *slot, carried);
                        drop(slot);
                        return Some(self.count(first));
                    }
                }
                top => {
                    // The carry is the minimum: if due it never enters the heap.
                    // An empty wheel follows it, as `schedule` into one would.
                    if top.is_none() {
                        self.now_tick = self.now_tick.max(tick);
                    }
                    if at <= horizon {
                        return Some(self.count(carried));
                    }
                }
            }
            // Filed like any event. A minimum parked by the horizon is in the
            // drained tick or before it: it tops the drain heap, nothing is due.
            self.insert(carried);
            self.len += 1;
        }
        if self.cur.peek()?.at > horizon {
            return None;
        }
        let s = self.cur.pop()?;
        self.len -= 1;
        if self.cur.is_empty() && self.len > 0 {
            let advanced = self.advance();
            debug_assert!(advanced);
        }
        Some(self.count(s))
    }

    fn count(&mut self, s: Scheduled) -> (Time, Event) {
        self.processed += 1;
        self.processed_by_kind[s.event.kind_idx()] += 1;
        (s.at, s.event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events processed so far (for perf reporting).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events processed per kind, indexed by [`Event::kind_idx`] (names in
    /// [`Event::KIND_NAMES`]). Deterministic: derived purely from the event
    /// stream, so it also feeds the dispatch section of the event-loop
    /// profile. Borrowing the array keeps the per-slice profiling path
    /// allocation-free.
    pub fn processed_by_kind(&self) -> &[u64; Event::KIND_COUNT] {
        &self.processed_by_kind
    }

    /// Wheel occupancy statistics (cascades, peak pending). Deterministic:
    /// both are pure functions of the schedule/pop sequence.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// File one event into the wheel, or push it onto the drain heap when
    /// it is due at or before the wheel's current position.
    fn insert(&mut self, s: Scheduled) {
        let tick = s.at >> TICK_BITS;
        if tick <= self.now_tick {
            self.cur.push(s);
            return;
        }
        // Lowest ring whose resolution separates `tick` from `now_tick`:
        // the highest differing SLOT_BITS-wide index group.
        let diff = tick ^ self.now_tick;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[level * SLOTS + slot].push(s);
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
    }

    /// Stage the next occupied bucket into `cur`, cascading coarser rings
    /// down as needed. Returns `false` only when the wheel is empty.
    fn advance(&mut self) -> bool {
        while self.cur.is_empty() {
            // The lowest non-empty ring holds the earliest events: ring
            // invariants guarantee every level-l event precedes every
            // level-(l+1) event.
            let Some((level, slot)) = self.first_occupied() else {
                return false;
            };
            self.occupied[level][slot / 64] &= !(1 << (slot % 64));
            let idx = level * SLOTS + slot;
            // Move the wheel position to the start of this bucket's span.
            let shift = SLOT_BITS * level as u32;
            self.now_tick = (self.now_tick >> (shift + SLOT_BITS) << (shift + SLOT_BITS))
                | ((slot as u64) << shift);
            if level == 0 {
                // Stage the bucket as the drain heap; the drained heap's
                // buffer becomes the emptied bucket, so neither allocates.
                let spent = std::mem::take(&mut self.cur).into_vec();
                self.cur = std::mem::replace(&mut self.buckets[idx], spent).into();
                return true;
            }
            // Cascade: re-file its events one ring down (or into `cur`
            // when they land exactly on the new position).
            let mut moved = std::mem::take(&mut self.buckets[idx]);
            self.stats.cascades += moved.len() as u64;
            for s in moved.drain(..) {
                self.insert(s);
            }
            // Hand the empty buffer back so the bucket keeps its capacity.
            self.buckets[idx] = moved;
        }
        true
    }

    /// `(level, slot)` of the earliest occupied bucket, if any.
    fn first_occupied(&self) -> Option<(usize, usize)> {
        for (level, bitmap) in self.occupied.iter().enumerate() {
            for (w, &word) in bitmap.iter().enumerate() {
                if word != 0 {
                    return Some((level, w * 64 + word.trailing_zeros() as usize));
                }
            }
        }
        None
    }
}

// ---- cmap-ckpt/v3 -------------------------------------------------------

// Tags are `Event::kind_idx`.
persist!(enum Event {
    0 => TxEnd { node, tx_id },
    1 => FrameStart { rx, tx_id },
    2 => FrameEnd { rx, tx_id },
    3 => Timer { node, token },
    4 => Fault { idx },
    5 => Audit,
});

persist!(struct Scheduled { at, seq, event });

persist!(struct SchedStats { cascades, max_occupancy });

/// The wheel is written as a sparse image — position, the drain heap's
/// events in `(at, seq)` order (so the bytes follow from the pending set,
/// not from the pushes and pops that shaped the heap's array), each
/// non-empty bucket under its index, the counters — and the occupancy
/// bitmaps are rebuilt from the buckets on load, so the two directions are
/// spelled out here instead of derived from a field list.
impl Persist for Scheduler {
    fn save(&self, w: &mut CkptWriter) {
        w.put(&self.now_tick);
        // `Scheduled` orders latest-first, hence the `rev`.
        w.seq(self.cur.clone().into_sorted_vec().iter().rev());
        let filled = || {
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
        };
        w.len(filled().count());
        for (idx, bucket) in filled() {
            w.put(&idx);
            w.put(bucket);
        }
        w.put(&self.len);
        w.put(&self.next_seq);
        w.put(&self.processed);
        w.put(&self.processed_by_kind);
        w.put(&self.stats);
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Scheduler, CkptError> {
        let mut s = Scheduler::new();
        s.now_tick = r.get()?;
        s.cur = BinaryHeap::from(r.get::<Vec<Scheduled>>()?);
        let mut pending = s.cur.len();
        for _ in 0..r.count::<(usize, Vec<Scheduled>)>()? {
            let idx: usize = r.get()?;
            if idx >= LEVELS * SLOTS {
                return Err(CkptError::Malformed(format!("bucket index {idx}")));
            }
            if !s.buckets[idx].is_empty() {
                return Err(CkptError::Malformed(format!("duplicate bucket {idx}")));
            }
            // Into the recycled bucket: a restored wheel keeps the
            // warmed-up capacities `Scheduler::new` handed it.
            let n = r.seq_into(&mut s.buckets[idx])?;
            if n == 0 {
                return Err(CkptError::Malformed("empty checkpointed bucket".into()));
            }
            pending += n;
            let (level, slot) = (idx / SLOTS, idx % SLOTS);
            s.occupied[level][slot / 64] |= 1 << (slot % 64);
        }
        s.len = r.get()?;
        if s.len != pending {
            return Err(CkptError::Malformed(format!(
                "pending count {} != serialized events {pending}",
                s.len
            )));
        }
        s.next_seq = r.get()?;
        s.processed = r.get()?;
        s.processed_by_kind = r.get()?;
        s.stats = r.get()?;
        // Re-establish the peek invariant (cur non-empty whenever events
        // are pending); a no-op for checkpoints taken between dispatches.
        if s.cur.is_empty() && s.len > 0 && !s.advance() {
            return Err(CkptError::Malformed("pending events unreachable".into()));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> Event {
        Event::Timer {
            node: NodeId::new(node),
            token,
        }
    }

    /// `s`'s checkpoint image and the scheduler restored from it.
    fn checkpoint(s: &Scheduler) -> (Vec<u8>, Scheduler) {
        let mut w = CkptWriter::new();
        s.save(&mut w);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        let restored = Scheduler::load(&mut r).unwrap();
        r.expect_end().unwrap();
        (bytes, restored)
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(30, timer(0, 3));
        s.schedule(10, timer(0, 1));
        s.schedule(20, timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = Scheduler::new();
        for token in 0..100 {
            s.schedule(5, timer(0, token));
        }
        for expect in 0..100 {
            match s.pop().unwrap().1 {
                Event::Timer { token, .. } => assert_eq!(token, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn len_and_processed_track() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        s.schedule(1, timer(0, 0));
        s.schedule(2, timer(0, 1));
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
        assert_eq!(s.processed(), 1);
        assert_eq!(s.peek_time(), Some(2));
    }

    #[test]
    fn per_kind_counts_track_the_mix() {
        let mut s = Scheduler::new();
        s.schedule(1, timer(0, 0));
        s.schedule(2, Event::Audit);
        s.schedule(3, timer(1, 1));
        while s.pop().is_some() {}
        let by_kind: std::collections::BTreeMap<&str, u64> = Event::KIND_NAMES
            .iter()
            .zip(s.processed_by_kind().iter())
            .map(|(&n, &c)| (n, c))
            .collect();
        assert_eq!(by_kind["timer"], 2);
        assert_eq!(by_kind["audit"], 1);
        assert_eq!(by_kind["tx_end"], 0);
        let total: u64 = s.processed_by_kind().iter().sum();
        assert_eq!(total, s.processed());
    }

    #[test]
    fn far_future_events_cascade_down_exactly() {
        // Events spread across every ring: microseconds to days apart.
        let mut s = Scheduler::new();
        let times: Vec<u64> = (0..40)
            .map(|i| 1u64 << (i + 10))
            .chain([0, 1, 2, u64::MAX >> 1])
            .collect();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(t, timer(0, i as u64));
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(t, _)| t).collect();
        assert_eq!(popped, sorted);
        assert!(s.stats().cascades > 0, "multi-ring spread must cascade");
        assert_eq!(s.stats().max_occupancy, times.len() as u64);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        // Pop an event, then schedule *earlier* than the staged next event
        // (legal: the world only guards monotonicity at dispatch). The
        // wheel must still pop the earlier one first, like a heap.
        let mut s = Scheduler::new();
        s.schedule(1_000, timer(0, 0));
        s.schedule(5_000_000, timer(0, 1));
        assert_eq!(s.pop().unwrap().0, 1_000);
        s.schedule(2_000, timer(0, 2));
        s.schedule(1_500, timer(0, 3));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1_500, 2_000, 5_000_000]);
    }

    #[test]
    fn same_tick_events_sort_by_exact_time() {
        // Distinct times inside one 1 µs bucket must still order exactly.
        let mut s = Scheduler::new();
        s.schedule(900, timer(0, 0));
        s.schedule(200, timer(0, 1));
        s.schedule(550, timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![200, 550, 900]);
    }

    #[test]
    fn beyond_top_ring_span_keeps_order_and_cascades_exact() {
        // Satellite of the crash-safety PR: the wheel must stay exact past
        // the top ring's per-slot span (SLOTS^(LEVELS-1) ticks ≈ 52 days)
        // out to the last representable nanosecond.
        //
        // First, a tick whose index is nonzero in *every* ring group: the
        // event files into the top ring and must be re-filed once per
        // lower ring on its way down — exactly LEVELS-1 cascades.
        let mut s = Scheduler::new();
        let chain_tick: u64 = (0..LEVELS as u32).map(|g| 1u64 << (SLOT_BITS * g)).sum();
        let chain_time = chain_tick << TICK_BITS;
        s.schedule(chain_time, timer(0, 0));
        s.schedule(0, timer(0, 1));
        assert_eq!(s.pop().unwrap().0, 0);
        assert_eq!(s.pop().unwrap().0, chain_time);
        assert_eq!(
            s.stats().cascades,
            (LEVELS - 1) as u64,
            "full-chain event must cascade once per lower ring"
        );

        // Then a spread past the top ring's slot span, including u64::MAX:
        // ordering, len bookkeeping and per-kind counts must all hold.
        let mut s = Scheduler::new();
        let horizon = 1u64 << (TICK_BITS + SLOT_BITS * (LEVELS as u32 - 1));
        let times = [
            horizon,
            u64::MAX,
            horizon * 3 + 1024,
            u64::MAX - (1 << 40),
            horizon + 5,
            7 * horizon + (chain_tick << TICK_BITS),
            42,
        ];
        for (i, &t) in times.iter().enumerate() {
            s.schedule(t, timer(0, i as u64));
        }
        assert_eq!(s.len(), times.len());
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(t, _)| t).collect();
        assert_eq!(popped, sorted);
        assert!(s.is_empty());
        assert_eq!(s.processed(), times.len() as u64);
        assert_eq!(s.processed_by_kind()[3], times.len() as u64);
        assert!(
            s.stats().cascades >= (LEVELS - 1) as u64,
            "far-horizon events must traverse the ring hierarchy"
        );
        assert_eq!(s.stats().max_occupancy, times.len() as u64);
    }

    #[test]
    fn checkpoint_round_trip_mid_drain_is_exact() {
        // Fill every ring, pop a prefix (so the drain buffer is mid-slice
        // and `processed` is nonzero), checkpoint, restore, and require
        // the restored wheel to pop the identical remainder with
        // identical counters.
        let mut s = Scheduler::new();
        let times: Vec<u64> = (0..40)
            .map(|i| 1u64 << (i + 10))
            .chain([0, 1, 2, 5, 5, 5, u64::MAX >> 1])
            .collect();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(t, timer(i % 3, i as u64));
        }
        for _ in 0..7 {
            s.pop();
        }

        let (_, mut restored) = checkpoint(&s);

        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.processed(), s.processed());
        assert_eq!(restored.processed_by_kind(), s.processed_by_kind());
        assert_eq!(restored.stats(), s.stats());
        let mut injected = false;
        loop {
            let (a, b) = (s.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            // Late scheduling after restore must also agree (one-shot: the
            // injected event itself pops, so a `len`-triggered re-injection
            // would ping-pong forever).
            if !injected && s.len() == 20 {
                injected = true;
                let t = a.unwrap().0 + 3;
                s.schedule(t, Event::Audit);
                restored.schedule(t, Event::Audit);
            }
        }
        assert_eq!(s.stats(), restored.stats());
    }

    /// One event popped at the start of tick 7, so that tick is the one
    /// being drained and schedules into it take the drain-heap path.
    fn draining_tick_7() -> (Scheduler, Time) {
        let mut s = Scheduler::new();
        let tick_start = 7 * TICK_NS;
        s.schedule(tick_start, timer(0, 0));
        assert_eq!(s.pop(), Some((tick_start, timer(0, 0))));
        (s, tick_start)
    }

    #[test]
    fn checkpoint_mid_burst_is_exact_and_history_free() {
        use rand::Rng;
        let mut rng = crate::rng::stream_rng(13, 0);
        let (mut s, tick_start) = draining_tick_7();
        for token in 0..5_000 {
            s.schedule(tick_start + rng.gen_range(0..TICK_NS), timer(1, token));
        }
        // Drain half, scheduling into what is still pending as the engine
        // does: never before the event just popped.
        for k in 0..2_500 {
            let (now, _) = s.pop().unwrap();
            if k % 3 == 0 {
                s.schedule(rng.gen_range(now..tick_start + TICK_NS), timer(2, k));
            }
        }

        let (bytes, mut restored) = checkpoint(&s);

        // The restored heap was built from the image, so its array is in
        // `(at, seq)` order; the live one is in whatever order the pushes
        // and pops left it. Equal images mean `save` wrote the pending set
        // and not the array.
        let in_order = |s: &Scheduler| s.cur.iter().is_sorted_by_key(|e| (e.at, e.seq));
        assert!(in_order(&restored) && !in_order(&s));
        assert_eq!(checkpoint(&restored).0, bytes);

        assert_eq!(restored.len(), s.len());
        while let Some((now, event)) = s.pop() {
            assert_eq!(restored.pop(), Some((now, event)));
            if s.len() % 7 == 0 && s.processed() < 6_000 {
                let at = rng.gen_range(now..tick_start + 3 * TICK_NS);
                s.schedule(at, Event::Audit);
                restored.schedule(at, Event::Audit);
            }
        }
        assert_eq!(restored.pop(), None);
        assert_eq!(restored.processed(), s.processed());
        assert_eq!(restored.stats(), s.stats());
    }

    #[test]
    fn same_tick_flood_finishes() {
        // A million schedules into the tick being drained, landing all over
        // the pending set, with pops in between. No clock is read: a
        // schedule that shifts the pending events to make room moves ~6 TB
        // here, which takes minutes where this takes a second or two.
        use rand::Rng;
        let mut rng = crate::rng::stream_rng(17, 0);
        let (mut s, tick_start) = draining_tick_7();
        for token in 0..1_000_000 {
            s.schedule(tick_start + rng.gen_range(0..TICK_NS), timer(1, token));
            if token % 4 == 3 {
                s.pop();
            }
        }
        assert_eq!(s.len(), 750_000);
        let mut last = 0;
        while let Some((t, _)) = s.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(s.processed(), 1_000_001);
        assert_eq!(s.stats().cascades, 0);
    }

    #[test]
    fn drained_scheduler_is_reusable() {
        let mut s = Scheduler::new();
        for round in 0..5u64 {
            let base = round * 1_000_000_000;
            for k in 0..50 {
                s.schedule(base + k * 7, timer(0, k));
            }
            let mut last = 0;
            while let Some((t, _)) = s.pop() {
                assert!(t >= last);
                last = t;
            }
            assert!(s.is_empty());
            assert_eq!(s.peek_time(), None);
        }
        assert_eq!(s.processed(), 250);
    }
}
