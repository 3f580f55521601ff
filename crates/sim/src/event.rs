//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is a
//! monotonically increasing tie-breaker so that simultaneous events execute
//! in the order they were scheduled, making runs fully deterministic.
//!
//! The queue is one binary min-heap on that key. It stays small — a few
//! dozen entries on the testbed, one pending timer per idle node in a city
//! — because a transmission's arrivals fall due in a known order and queue
//! one at a time: the transmission [`reserve`](Scheduler::reserve)s all
//! their sequence numbers, files the first
//! ([`Scheduler::schedule_reserved`]) and, when one is handled, passes the
//! next as a *carry* into [`Scheduler::next`], which returns the earliest
//! of queue and carry — usually the carry, untouched. Keys, and so order,
//! are those of filing everything eagerly (`tests/engine_props.rs` holds
//! both to a reference heap that was).

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

/// Deterministic occupancy statistics of one scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Largest number of simultaneously pending events observed. A pure
    /// function of the schedule/pop sequence, hence deterministic.
    pub max_occupancy: u64,
}

/// A deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// Pending events, earliest `(at, seq)` on top.
    heap: BinaryHeap<Scheduled>,
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
        self.heap.push(Scheduled { at, seq, event });
        self.max_occupancy = self.max_occupancy.max(self.heap.len() as u64);
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
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
            self.max_occupancy = self.max_occupancy.max(self.heap.len() as u64 + 1);
            match self.heap.peek().map(|top| (top.at, top.seq)) {
                Some(top) if top < (at, seq) => {
                    if top.0 <= horizon {
                        // One sift takes the top out and puts the carry in.
                        let mut top = self.heap.peek_mut().expect("peeked");
                        let first = std::mem::replace(&mut *top, carried);
                        drop(top);
                        return Some(self.count(first));
                    }
                }
                // The carry is the minimum: if due it never enters the heap.
                _ => {
                    if at <= horizon {
                        return Some(self.count(carried));
                    }
                }
            }
            // The minimum is past the horizon: nothing is due.
            self.heap.push(carried);
            return None;
        }
        if self.heap.peek()?.at > horizon {
            return None;
        }
        self.heap.pop().map(|s| self.count(s))
    }

    fn count(&mut self, s: Scheduled) -> (Time, Event) {
        self.processed += 1;
        self.processed_by_kind[s.event.kind_idx()] += 1;
        (s.at, s.event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events processed so far (for perf reporting).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events processed per kind, indexed by [`Event::kind_idx`] (names in
    /// [`Event::KIND_NAMES`]). Deterministic: derived purely from the event
    /// stream.
    pub fn processed_by_kind(&self) -> &[u64; Event::KIND_COUNT] {
        &self.processed_by_kind
    }

    /// Occupancy statistics (peak pending).
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            max_occupancy: self.max_occupancy,
        }
    }
}

// ---- cmap-ckpt/v5 -------------------------------------------------------

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

/// The pending events are written in `(at, seq)` order, so the bytes follow
/// from the pending set and not from the pushes and pops that shaped the
/// heap's array; load holds an image to that order, which is why the two
/// directions are spelled out here instead of derived from a field list.
impl Persist for Scheduler {
    fn save(&self, w: &mut CkptWriter) {
        // `Scheduled` orders latest-first, hence the `rev`.
        w.seq(self.heap.clone().into_sorted_vec().iter().rev());
        w.put(&self.next_seq);
        w.put(&self.processed);
        w.put(&self.processed_by_kind);
        w.put(&self.max_occupancy);
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Scheduler, CkptError> {
        let pending: Vec<Scheduled> = r.get()?;
        let next_seq: u64 = r.get()?;
        // Distinct keys make the pop order total; a key from the future
        // would collide with one `reserve` has yet to hand out.
        if !pending.is_sorted_by(|a, b| (a.at, a.seq) < (b.at, b.seq)) {
            return Err(CkptError::Malformed(
                "pending events out of (time, seq) order".into(),
            ));
        }
        if let Some(s) = pending.iter().find(|s| s.seq >= next_seq) {
            return Err(CkptError::Malformed(format!(
                "pending seq {} was never reserved (next is {next_seq})",
                s.seq
            )));
        }
        Ok(Scheduler {
            heap: pending.into(),
            next_seq,
            processed: r.get()?,
            processed_by_kind: r.get()?,
            max_occupancy: r.get()?,
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
        assert_eq!(s.stats().max_occupancy, times.len() as u64);
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
        assert_eq!(s.stats().max_occupancy, times.len() as u64);
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

    /// A microsecond, near enough: the span the burst tests crowd.
    const US: Time = 1 << 10;

    #[test]
    fn checkpoint_mid_burst_is_exact_and_history_free() {
        use rand::Rng;
        let mut rng = crate::rng::stream_rng(13, 0);
        let (mut s, start) = (Scheduler::new(), 7 * US);
        for token in 0..5_000 {
            s.schedule(start + rng.gen_range(0..US), timer(1, token));
        }
        // Drain half, scheduling into what is still pending as the engine
        // does: never before the event just popped.
        for k in 0..2_500 {
            let (now, _) = s.pop().unwrap();
            if k % 3 == 0 {
                s.schedule(rng.gen_range(now..start + US), timer(2, k));
            }
        }

        let (bytes, mut restored) = checkpoint(&s);

        // The restored heap was built from the image, so its array is in
        // `(at, seq)` order; the live one is in whatever order the pushes
        // and pops left it. Equal images mean `save` wrote the pending set
        // and not the array.
        let in_order = |s: &Scheduler| s.heap.iter().is_sorted_by_key(|e| (e.at, e.seq));
        assert!(in_order(&restored) && !in_order(&s));
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
        assert_eq!(restored.stats(), s.stats());
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
