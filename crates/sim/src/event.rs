//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is a
//! monotonically increasing tie-breaker so that simultaneous events execute
//! in the order they were scheduled, making runs fully deterministic.
//!
//! The queue is two binary min-heaps on that key, compared as one `u128`.
//! A transmission heard by F receivers is `1 + 2·F` events — a
//! `FrameStart` per receiver in arrival order, its `TxEnd`, a `FrameEnd`
//! per receiver — whose [`reserve`](Scheduler::reserve)d keys increase in
//! that order, so it queues as one *stream*: `air` holds one bare key per
//! transmission, `at << 64 | seq << 20 | slot`, its next event's and its
//! pool slot's. [`Scheduler::next`] hands a popped stream to the run loop
//! as that slot, and takes the stream's next key back as a *carry*, which
//! it weighs against both tops — usually returned untouched, or exchanged
//! for the air top in one sift. `timers` holds what
//! [`Scheduler::schedule`] files: timers, faults and audits (and, from
//! outside the engine, any kind). The order is that of filing every event
//! eagerly into one heap (`tests/engine_props.rs` holds both to a
//! reference heap that does); [`Scheduler::len`] and
//! [`Scheduler::max_occupancy`] count what a queue filing each stream's
//! `TxEnd`, next `FrameStart` and next `FrameEnd` would hold. `seq` is
//! unique, so the slot bits never decide an order; it stays below 2⁴⁴ (a
//! month of the 3,000-node city), the slot below 2²⁰. A checkpoint holds
//! the filed events alone: a stream is its pool slot's cursor, which the
//! restoring world queues again under its next event's key.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use crate::persist;
use crate::time::Time;
use crate::world::NodeId;

/// Identifier of one transmission (one PHY frame on the air), unique within
/// a run.
pub(crate) type TxId = u64;

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
    pub(crate) const KIND_NAMES: [&'static str; Event::KIND_COUNT] = [
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

    /// True for the kinds a transmission's stream is made of.
    pub(crate) const fn on_air(&self) -> bool {
        self.kind_idx() < 3
    }
}

/// Key bits below `seq`, and so the pool slots a key can name.
const SLOT_BITS: u32 = 20;
pub(crate) const SLOTS: usize = 1 << SLOT_BITS;
/// Every `seq` is below this.
pub(crate) const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// The key of `(at, seq)` in pool slot `slot` (0 for a filed event).
#[inline(always)]
fn key(at: Time, seq: u64, slot: usize) -> u128 {
    u128::from(at) << 64 | u128::from(seq) << SLOT_BITS | slot as u128
}

#[inline(always)]
fn key_time(key: u128) -> Time {
    (key >> 64) as Time
}

#[inline(always)]
fn key_slot(key: u128) -> usize {
    (key as usize) & (SLOTS - 1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

impl Scheduled {
    fn key(&self) -> u128 {
        key(self.at, self.seq, 0)
    }
}

/// The key on top of `heap`, or `u128::MAX` when it is empty.
fn top_key(heap: &BinaryHeap<Scheduled>) -> u128 {
    heap.peek().map_or(u128::MAX, Scheduled::key)
}

/// Reversed key order — `seq` is unique, so it is total — which makes
/// std's max-heap pop the earliest event first.
impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What [`Scheduler::next`] hands the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Due {
    /// An event filed through [`Scheduler::schedule`].
    Event(Time, Event),
    /// The next event of the stream in pool slot `slot`, due at `at`.
    Stream { at: Time, slot: usize },
}

/// A deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// One key per stream, its next event's, earliest on top.
    air: BinaryHeap<Reverse<u128>>,
    /// What [`Scheduler::schedule`] filed, earliest on top.
    timers: BinaryHeap<Scheduled>,
    /// The streams' part of [`Scheduler::len`].
    air_len: usize,
    /// The stream key last handed out, which a carry continues.
    last: u128,
    next_seq: u64,
    processed: u64,
    processed_by_kind: [u64; Event::KIND_COUNT],
    max_occupancy: u64,
}

impl Scheduler {
    /// An empty queue.
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Enqueue `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.reserve(1);
        self.timers.push(Scheduled { at, seq, event });
        self.max_occupancy = self.max_occupancy.max(self.len() as u64);
    }

    /// Set aside `n` consecutive sequence numbers and return the first. An
    /// event later queued under one orders as if `schedule`d here. Panics
    /// at 2⁴⁴, past what a key holds.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        assert!(self.next_seq < SEQ_LIMIT, "sequence numbers exhausted");
        first
    }

    /// Queue the stream in pool slot `slot`, its first event due at `at`
    /// under reserved `seq`, as `entries` pending events: 3 (its `TxEnd`,
    /// first `FrameStart` and first `FrameEnd`), or 1 if nobody hears it.
    pub fn start_stream(&mut self, at: Time, seq: u64, slot: usize, entries: usize) {
        debug_assert!(seq < self.next_seq && slot < SLOTS, "key of {seq}, {slot}");
        self.air.push(Reverse(key(at, seq, slot)));
        self.air_len += entries;
        self.max_occupancy = self.max_occupancy.max(self.len() as u64);
    }

    /// Count the stream event [`Scheduler::next`] just handed out, as
    /// `event`, before it is handled: it is pending no more.
    #[inline]
    pub fn count_stream(&mut self, event: &Event) {
        debug_assert!(event.on_air(), "{event:?} is not a stream's");
        self.air_len -= 1;
        self.count(event);
    }

    fn count(&mut self, event: &Event) {
        self.processed += 1;
        self.processed_by_kind[event.kind_idx()] += 1;
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        let air = self.air.peek().map_or(u128::MAX, |top| top.0);
        let top = air.min(top_key(&self.timers));
        (top < u128::MAX).then(|| key_time(top))
    }

    /// Remove and return the next filed event. Streams are not popped
    /// here: their owner's run loop takes them through [`Scheduler::next`].
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        debug_assert!(self.air.is_empty(), "pop with streams queued");
        let s = self.timers.pop()?;
        self.count(&s.event);
        Some((s.at, s.event))
    }

    fn filed(&mut self, s: Scheduled) -> Due {
        self.count(&s.event);
        Due::Event(s.at, s.event)
    }

    #[inline(always)]
    fn hand_out(&mut self, key: u128) -> Due {
        self.last = key;
        let (at, slot) = (key_time(key), key_slot(key));
        Due::Stream { at, slot }
    }

    /// The earliest of the queue and `carry`, if due by `horizon`;
    /// otherwise `None`, with the carry queued. A carry `(at, seq, new)`
    /// is the next event of the stream last handed out, keyed as reserved,
    /// and whether it is of the kind just handled: one a queue filing each
    /// stream's `TxEnd`, next `FrameStart` and next `FrameEnd` would file
    /// only now. Counters and later calls read the same whether it was
    /// handed back untouched, exchanged, or queued.
    #[inline]
    pub fn next(&mut self, carry: Option<(Time, u64, bool)>, horizon: Time) -> Option<Due> {
        let timer_top = top_key(&self.timers);
        let air_top = self.air.peek().map_or(u128::MAX, |top| top.0);
        let Some((at, seq, new)) = carry else {
            if air_top < timer_top {
                if key_time(air_top) > horizon {
                    return None;
                }
                self.air.pop();
                return Some(self.hand_out(air_top));
            }
            if self.timers.peek()?.at > horizon {
                return None;
            }
            return self.timers.pop().map(|s| self.filed(s));
        };
        let carried = key(at, seq, key_slot(self.last));
        debug_assert!(
            carried > self.last,
            "stream keys out of order: {carried:#x}"
        );
        if new {
            self.air_len += 1;
            self.max_occupancy = self.max_occupancy.max(self.len() as u64);
        }
        // The carry against the air top first: on the straight-through path
        // that is the compare that decides.
        if air_top < carried && air_top < timer_top {
            if key_time(air_top) <= horizon {
                // One sift takes the top out and puts the carry in.
                self.air.peek_mut().expect("peeked").0 = carried;
                return Some(self.hand_out(air_top));
            }
        } else if carried < timer_top {
            // The carry is the minimum: if due it never enters a heap.
            if at <= horizon {
                return Some(self.hand_out(carried));
            }
        } else if self.timers.peek().is_some_and(|top| top.at <= horizon) {
            self.air.push(Reverse(carried));
            return self.timers.pop().map(|s| self.filed(s));
        }
        // The minimum is past the horizon: nothing is due.
        self.air.push(Reverse(carried));
        None
    }

    /// Number of pending events: those filed, and those a queue filing each
    /// stream's `TxEnd`, next `FrameStart` and next `FrameEnd` would hold.
    pub fn len(&self) -> usize {
        self.air_len + self.timers.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events processed so far (for perf reporting).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events processed per kind, indexed by [`Event::kind_idx`] (names in
    /// `Event::KIND_NAMES`). Deterministic: derived purely from the event
    /// stream.
    pub fn processed_by_kind(&self) -> &[u64; Event::KIND_COUNT] {
        &self.processed_by_kind
    }

    /// Largest [`Scheduler::len`] observed. A pure function of the
    /// schedule/pop sequence, hence deterministic.
    pub fn max_occupancy(&self) -> u64 {
        self.max_occupancy
    }

    // ---- cmap-ckpt/v8 ---------------------------------------------------

    /// The filed events, in no particular order.
    pub(crate) fn filed_events(&self) -> impl Iterator<Item = &Event> {
        self.timers.iter().map(|s| &s.event)
    }

    /// Make room for `n` streams at once: a restore re-queueing a pool's
    /// worth.
    pub(crate) fn reserve_streams(&mut self, n: usize) {
        self.air.reserve_exact(n);
    }
}

// ---- cmap-ckpt/v8 -------------------------------------------------------

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

/// The filed events are written as one list in `(at, seq)` order, so the
/// bytes follow from the pending set and not from the pushes and pops that
/// shaped the heap's array; load holds an image to that order. The streams
/// are not here: their cursors are the frame pool's, and their owner
/// re-queues them with [`Scheduler::start_stream`].
impl Persist for Scheduler {
    fn save(&self, w: &mut CkptWriter) {
        let mut pending: Vec<Scheduled> = self.timers.iter().copied().collect();
        pending.sort_unstable_by_key(Scheduled::key);
        w.seq(pending.iter());
        w.put(&self.next_seq);
        w.put(&self.processed);
        w.put(&self.processed_by_kind);
        w.put(&self.max_occupancy);
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Scheduler, CkptError> {
        let pending: Vec<Scheduled> = r.get()?;
        let next_seq: u64 = r.get()?;
        // A key from the future would collide with one `reserve` has yet
        // to hand out, and none is past 2^44; distinct keys make the pop
        // order total.
        if next_seq >= SEQ_LIMIT || pending.iter().any(|s| s.seq >= next_seq) {
            return Err(CkptError::Malformed(format!(
                "a pending seq not below next {next_seq}, or that past 2^44"
            )));
        }
        if !pending.is_sorted_by(|a, b| a.key() < b.key()) {
            return Err(CkptError::Malformed(
                "pending events out of (time, seq) order".into(),
            ));
        }
        // In key order, which is already a heap: no sift, no growth.
        Ok(Scheduler {
            timers: pending.into(),
            next_seq,
            processed: r.get()?,
            processed_by_kind: r.get()?,
            max_occupancy: r.get()?,
            ..Scheduler::default()
        })
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
    fn far_future_events_pop_in_exact_order() {
        // Microseconds to days apart.
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
        assert_eq!(s.max_occupancy(), times.len() as u64);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        // Pop an event, then schedule *earlier* than the next pending one
        // (legal: the world only guards monotonicity at dispatch).
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
    fn same_microsecond_events_sort_by_exact_time() {
        let mut s = Scheduler::new();
        s.schedule(900, timer(0, 0));
        s.schedule(200, timer(0, 1));
        s.schedule(550, timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![200, 550, 900]);
    }

    #[test]
    fn events_years_out_keep_order_to_the_last_nanosecond() {
        // Out to the last representable nanosecond: ordering, len
        // bookkeeping and per-kind counts must all hold.
        let mut s = Scheduler::new();
        let far = 1u64 << 58; // ~9 years
        let times = [
            far,
            u64::MAX,
            far * 3 + 1024,
            u64::MAX - (1 << 40),
            far + 5,
            7 * far + (1 << 34) + (1 << 18) + 1024,
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
        assert_eq!(s.max_occupancy(), times.len() as u64);
    }

    #[test]
    fn checkpoint_round_trip_mid_drain_is_exact() {
        // Near and far events, a prefix popped (so `processed` is
        // nonzero), checkpoint, restore: the restored queue must pop the
        // identical remainder with identical counters.
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
        assert_eq!(restored.max_occupancy(), s.max_occupancy());
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
        assert_eq!(s.max_occupancy(), restored.max_occupancy());
    }

    /// A microsecond, near enough: the span the burst tests crowd.
    const US: Time = 1 << 10;

    #[test]
    fn checkpoint_mid_burst_is_exact_and_history_free() {
        use rand::Rng;
        let mut rng = crate::rng::stream_rng(13, 0);
        let (mut s, start) = (Scheduler::new(), 7 * US);
        // Every third event an arrival, the rest timers: what `schedule`
        // files shares one heap, whatever its kind.
        let event = |node: usize, k: u64| match k % 3 {
            0 => Event::FrameStart {
                rx: NodeId::new(node),
                tx_id: k,
            },
            _ => timer(node, k),
        };
        for k in 0..5_000 {
            s.schedule(start + rng.gen_range(0..US), event(1, k));
        }
        // Drain half, scheduling into what is still pending as the engine
        // does: never before the event just popped.
        for k in 0..2_500 {
            let (now, _) = s.pop().unwrap();
            if k % 2 == 0 {
                s.schedule(rng.gen_range(now..start + US), event(2, k));
            }
        }

        let (bytes, mut restored) = checkpoint(&s);

        // The restored heap was built from the image, so its array is in
        // `(at, seq)` order; the live one is in whatever order the pushes
        // and pops left it. Equal images mean `save` wrote the pending set
        // and not the array.
        let in_order = |h: &BinaryHeap<Scheduled>| h.iter().is_sorted_by_key(Scheduled::key);
        let (live, loaded) = (&s.timers, &restored.timers);
        assert!(live.len() > 1_000 && loaded.len() == live.len());
        assert!(in_order(loaded) && !in_order(live));
        assert!(live.iter().filter(|e| e.event.on_air()).count() > 500);
        // The heap keeps the image's own allocation.
        assert_eq!(loaded.capacity(), loaded.len());
        assert_eq!(checkpoint(&restored).0, bytes);

        assert_eq!(restored.len(), s.len());
        while let Some((now, event)) = s.pop() {
            assert_eq!(restored.pop(), Some((now, event)));
            if s.len() % 7 == 0 && s.processed() < 6_000 {
                let at = rng.gen_range(now..start + 3 * US);
                s.schedule(at, Event::Audit);
                restored.schedule(at, Event::Audit);
            }
        }
        assert_eq!(restored.pop(), None);
        assert_eq!(restored.processed(), s.processed());
        assert_eq!(restored.max_occupancy(), s.max_occupancy());
    }

    /// A carry continues the stream last handed out, so it must come after
    /// it: a stream's keys strictly increase (here a carry an instant
    /// early, as a `FrameStart` after its `TxEnd` would be).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stream keys out of order")]
    fn carrying_a_timer_is_refused() {
        let mut s = Scheduler::new();
        let seq = s.reserve(3);
        s.start_stream(50, seq, 7, 3);
        assert_eq!(
            s.next(None, Time::MAX),
            Some(Due::Stream { at: 50, slot: 7 })
        );
        s.count_stream(&Event::TxEnd {
            node: NodeId::new(0),
            tx_id: 7,
        });
        s.next(Some((49, seq + 1, false)), Time::MAX);
    }

    /// Two streams and a timer, by hand: each stream queues as one key,
    /// a carry comes back untouched or is exchanged for the air top, a
    /// horizon parks it, and `len` / `max_occupancy` read as a queue
    /// filing each stream's TxEnd, next FrameStart and next FrameEnd would.
    #[test]
    fn streams_carry_exchange_and_park() {
        let mut s = Scheduler::new();
        let ev = |kind, slot| match kind {
            0 => Event::TxEnd {
                node: NodeId::new(0),
                tx_id: slot,
            },
            1 => Event::FrameStart {
                rx: NodeId::new(1),
                tx_id: slot,
            },
            _ => Event::FrameEnd {
                rx: NodeId::new(1),
                tx_id: slot,
            },
        };
        s.schedule(1_000, timer(0, 0));
        // Slot 3: a FrameStart at 10, then at 20; slot 9: one at 15.
        let (a, b) = (s.reserve(5), s.reserve(3));
        s.start_stream(10, a + 1, 3, 3);
        s.start_stream(15, b + 1, 9, 3);
        assert_eq!((s.len(), s.max_occupancy()), (7, 7));
        assert_eq!(s.peek_time(), Some(10));
        assert_eq!(s.next(None, 100), Some(Due::Stream { at: 10, slot: 3 }));
        s.count_stream(&ev(1, 3));
        assert_eq!(s.len(), 6);
        // Slot 3's next FrameStart (a new entry) loses to slot 9's: one
        // exchange, and the carry waits in the heap.
        assert_eq!(
            s.next(Some((20, a + 3, true)), 100),
            Some(Due::Stream { at: 15, slot: 9 })
        );
        s.count_stream(&ev(1, 9));
        assert_eq!((s.len(), s.max_occupancy()), (6, 7));
        // Slot 9's TxEnd (already counted) at 50 is past a horizon of 40:
        // parked, and slot 3's FrameStart at 20 is next.
        assert_eq!(
            s.next(Some((50, b, false)), 40),
            Some(Due::Stream { at: 20, slot: 3 })
        );
        s.count_stream(&ev(1, 3));
        assert_eq!(s.next(Some((60, a, false)), 40), None);
        assert_eq!((s.len(), s.peek_time()), (5, Some(50)));
        // Resumed: slot 9's TxEnd, then its FrameEnd straight through; its
        // stream ends there.
        assert_eq!(s.next(None, 2_000), Some(Due::Stream { at: 50, slot: 9 }));
        s.count_stream(&ev(0, 9));
        assert_eq!(
            s.next(Some((55, b + 2, false)), 2_000),
            Some(Due::Stream { at: 55, slot: 9 })
        );
        s.count_stream(&ev(2, 9));
        // Slot 3: TxEnd, first FrameEnd, then the second (a new entry).
        assert_eq!(s.next(None, 2_000), Some(Due::Stream { at: 60, slot: 3 }));
        s.count_stream(&ev(0, 3));
        assert_eq!(
            s.next(Some((70, a + 2, false)), 2_000),
            Some(Due::Stream { at: 70, slot: 3 })
        );
        s.count_stream(&ev(2, 3));
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.next(Some((80, a + 4, true)), 2_000),
            Some(Due::Stream { at: 80, slot: 3 })
        );
        assert_eq!(s.len(), 2);
        s.count_stream(&ev(2, 3));
        assert_eq!(s.next(None, 2_000), Some(Due::Event(1_000, timer(0, 0))));
        assert!(s.is_empty());
        assert_eq!((s.processed(), s.max_occupancy()), (9, 7));
        assert_eq!(s.processed_by_kind()[..4], [2, 3, 3, 1]);
    }

    #[test]
    fn same_tick_flood_finishes() {
        // A million schedules into one microsecond, landing all over the
        // pending set, with pops in between. No clock is read: a
        // schedule that shifts the pending events to make room moves ~6 TB
        // here, which takes minutes where this takes a second or two.
        use rand::Rng;
        let mut rng = crate::rng::stream_rng(17, 0);
        let (mut s, start) = (Scheduler::new(), 7 * US);
        for token in 0..1_000_000 {
            s.schedule(start + rng.gen_range(0..US), timer(1, token));
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
        assert_eq!(s.processed(), 1_000_000);
    }

    #[test]
    fn load_refuses_unordered_or_unreserved_events() {
        // One image per pending list, `next_seq` 3, counters zero.
        let load = |pending: &[(Time, u64)]| {
            let mut w = CkptWriter::new();
            w.len(pending.len());
            for &(at, seq) in pending {
                w.put(&Scheduled {
                    at,
                    seq,
                    event: Event::Audit,
                });
            }
            w.put(&3u64);
            w.put(&0u64);
            w.put(&[0u64; Event::KIND_COUNT]);
            w.put(&0u64);
            let bytes = w.finish();
            let mut r = CkptReader::new(&bytes).unwrap();
            Scheduler::load(&mut r).map(|s| s.len())
        };
        assert_eq!(load(&[(5, 1), (5, 2), (9, 0)]), Ok(3));
        // A `next_seq` no key can hold.
        let mut w = CkptWriter::new();
        w.len(0);
        w.put(&SEQ_LIMIT);
        w.put(&0u64);
        w.put(&[0u64; Event::KIND_COUNT]);
        w.put(&0u64);
        let bytes = w.finish();
        let loaded = Scheduler::load(&mut CkptReader::new(&bytes).unwrap());
        assert!(matches!(loaded, Err(CkptError::Malformed(_))));
        for bad in [
            &[(5, 2), (5, 1)][..], // seq out of order within an instant
            &[(9, 0), (5, 1)],     // time out of order
            &[(5, 1), (5, 1)],     // one key twice
            &[(5, 3)],             // seq == next_seq
        ] {
            assert!(
                matches!(load(bad), Err(CkptError::Malformed(_))),
                "{bad:?} loaded"
            );
        }
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
