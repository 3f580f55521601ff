//! Property-based tests for the simulation engine's foundations.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use proptest::prelude::*;

use cmap_suite::sim::event::{Event, Scheduler};
use cmap_suite::sim::rng::{derive_seed, normal, stream_rng};
use cmap_suite::sim::time::bits_duration;
use cmap_suite::sim::NodeId;

/// About a microsecond: the span the burst and row properties crowd
/// their events into (a bucket width, when the queue was a timing wheel).
const TICK_NS: u64 = 1 << 10;

/// The scheduler (a timing wheel when these properties were written, hence
/// the names) beside the reference model it must be pop-order-equivalent
/// to: a bare `(time, seq)` min-heap with no carry, horizon or counters.
/// Every event is a timer whose token is its `seq`.
#[derive(Default)]
struct WheelAndHeap {
    wheel: Scheduler,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl WheelAndHeap {
    fn schedule(&mut self, at: u64, node: usize) {
        let event = Event::Timer {
            node: NodeId::new(node),
            token: self.seq,
        };
        self.wheel.schedule(at, event);
        self.heap.push(Reverse((at, self.seq)));
        self.seq += 1;
    }

    /// Pop both, requiring the same `peek_time`, the same `(time, seq)` and
    /// the same `len` afterwards; yields the popped `(time, node)`.
    fn pop(&mut self) -> Result<Option<(u64, usize)>, TestCaseError> {
        let expect = self.heap.pop().map(|Reverse(ts)| ts);
        prop_assert_eq!(self.wheel.peek_time(), expect.map(|(t, _)| t));
        let got = self.wheel.pop().map(|(t, ev)| {
            let Event::Timer { node, token } = ev else {
                unreachable!()
            };
            (t, token, node.index())
        });
        prop_assert_eq!(got.map(|(t, token, _)| (t, token)), expect);
        prop_assert_eq!(self.wheel.len(), self.heap.len());
        Ok(got.map(|(t, _, node)| (t, node)))
    }

    /// Drain both to empty, then hold the lifetime counter to the model's.
    fn finish(mut self) -> Result<(), TestCaseError> {
        while self.pop()?.is_some() {}
        prop_assert!(self.heap.is_empty());
        prop_assert_eq!(self.wheel.processed(), self.seq);
        Ok(())
    }
}

proptest! {
    /// Events pop in (time, insertion) order no matter the insert order.
    #[test]
    fn scheduler_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(t, Event::Timer { node: NodeId::new(0), token: i as u64 });
        }
        let mut last: Option<(u64, u64)> = None;
        let mut popped = 0;
        while let Some((t, ev)) = s.pop() {
            let Event::Timer { token, .. } = ev else { unreachable!() };
            prop_assert_eq!(t, times[token as usize]);
            if let Some((lt, ltok)) = last {
                prop_assert!(t > lt || (t == lt && token > ltok),
                    "order violated: ({lt},{ltok}) then ({t},{token})");
            }
            last = Some((t, token));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The scheduler is pop-order-equivalent to the reference binary
    /// heap, under random interleavings of schedules and pops
    /// — including schedules *earlier* than events already popped (the
    /// scheduler API has no cancellation: events only ever leave via
    /// `pop`, so an interleaved drain is the complete workload space).
    #[test]
    fn wheel_matches_reference_heap(
        ops in proptest::collection::vec(
            // (how many to pop first, batch of times to schedule)
            (0usize..6, proptest::collection::vec(0u64..u64::MAX / 2, 0..12)),
            1..40,
        ),
    ) {
        let mut q = WheelAndHeap::default();
        for (pops, times) in &ops {
            for &t in times {
                q.schedule(t, 0);
            }
            for _ in 0..*pops {
                q.pop()?;
            }
        }
        q.finish()?;
    }

    /// The engine's own pattern, which the uniform draws above essentially
    /// never produce: senders popped at one instant each file a whole
    /// receiver fan-out less than two ticks ahead — into the bucket being
    /// drained or just past it — plus their own end-of-airtime event, round
    /// after round.
    #[test]
    fn same_tick_bursts_match_reference_heap(
        senders in 1usize..64,
        fanout in 1usize..128,
        rounds in 1usize..5,
        start in 0u64..1 << 40,
        airtime in 1u64..3_000_000,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        const SENDER: usize = 1;
        const RECEIVER: usize = 0;

        let mut rng = stream_rng(seed, 0);
        let mut q = WheelAndHeap::default();
        for _ in 0..senders {
            q.schedule(start, SENDER);
        }
        let mut bursts = senders * rounds;
        while bursts > 0 {
            let (now, node) = q.pop()?.expect("a sender is always pending");
            if node == SENDER {
                bursts -= 1;
                for _ in 0..fanout {
                    q.schedule(now + rng.gen_range(0..2 * TICK_NS), RECEIVER);
                }
                q.schedule(now + airtime, SENDER);
            }
        }
        q.finish()?;
    }

    /// The arrival-cursor contract: a transmission reserves one sequence
    /// number per receiver event, files only the first under its reserved
    /// key, and hands each later one to `Scheduler::next` as a carry when
    /// its predecessor is handled. Whatever mix of plain schedules, rows,
    /// horizons and ticks, the pops must be those of a reference heap that
    /// was handed every event of every row up front — the carry returned
    /// untouched, exchanged with the top, filed in a later tick or parked
    /// by a horizon and popped by a later call — and the lifetime counters
    /// must read as if every event had been queued. A second scheduler
    /// runs every round in two calls, cut at a horizon of its own, and
    /// must end the round indistinguishable from the first: where
    /// `run_until` stops is invisible, `stats()` included.
    #[test]
    fn carried_rows_match_eagerly_filed_reference(
        rounds in proptest::collection::vec(
            // (row length, delay granularity shift, horizon step, plain
            // schedules, where the second scheduler cuts the round)
            (0usize..24, 0u32..12, 0u64..4 * TICK_NS, 0usize..4, 0u64..=16),
            1..30,
        ),
        // Idle nodes' far-future timers: every carry, exchange and filing
        // above happens on top of a heap this deep.
        ballast in 0u64..=4096,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        type Key = (u64, u64);
        let row_event = |seq| Event::FrameStart { rx: NodeId::new(0), tx_id: seq };
        // Pop everything due by `horizon`, carrying each row event's
        // successor into the request for the next event.
        let run = |wheel: &mut Scheduler, successor: &BTreeMap<u64, Key>, horizon: u64| {
            let (mut popped, mut carry) = (Vec::new(), None);
            while let Some((at, event)) = wheel.next(carry.take(), horizon) {
                let seq = match event {
                    Event::Timer { token, .. } => token,
                    Event::FrameStart { tx_id, .. } => tx_id,
                    other => unreachable!("{other:?}"),
                };
                popped.push((at, seq));
                carry = successor.get(&seq).map(|&(at, seq)| (at, seq, row_event(seq)));
            }
            popped
        };

        let mut rng = stream_rng(seed, 0);
        let mut wheels = [Scheduler::new(), Scheduler::new()];
        let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        // seq of a row event -> the row's next event.
        let mut successor: BTreeMap<u64, Key> = BTreeMap::new();
        let (mut row_events, mut timers) = (0u64, 0u64);
        let (mut now, mut horizon) = (0u64, 0u64);
        for _ in 0..ballast {
            // Past any horizon the rounds reach (30 rounds of < 7 ticks).
            let at = (1 << 40) + rng.gen_range(0..1u64 << 20);
            for wheel in &mut wheels {
                wheel.schedule(at, Event::Timer { node: NodeId::new(2), token: timers });
            }
            heap.push(Reverse((at, timers)));
            timers += 1;
        }
        for &(len, shift, step, plain, cut) in &rounds {
            for _ in 0..plain {
                let at = now + rng.gen_range(0..3 * TICK_NS);
                for wheel in &mut wheels {
                    let seq = wheel.reserve(1);
                    wheel.schedule_reserved(at, seq, Event::Timer { node: NodeId::new(1), token: seq });
                }
                heap.push(Reverse((at, row_events + timers)));
                timers += 1;
            }
            // A row: position `j` holds seq `first + j`; delays are coarse
            // enough to tie (on each other and on what is already queued)
            // and long enough to cross ticks; arrival order is
            // `(delay, position)`.
            let first = row_events + timers;
            let mut row: Vec<Key> = (0..len as u64)
                .map(|j| (now + (rng.gen_range(0..3 * TICK_NS) >> shift << shift), first + j))
                .collect();
            row.sort_unstable();
            heap.extend(row.iter().map(|&key| Reverse(key)));
            successor.extend(row.windows(2).map(|pair| (pair[0].1, pair[1])));
            for wheel in &mut wheels {
                prop_assert_eq!(wheel.reserve(len as u64), first);
                if let Some(&(at, seq)) = row.first() {
                    wheel.schedule_reserved(at, seq, row_event(seq));
                }
            }
            row_events += len as u64;

            // Run to the next horizon, as `World::run_until` does.
            let last = horizon.max(now);
            horizon = last + step;
            let mut expect = Vec::new();
            while let Some(&Reverse(key)) = heap.peek().filter(|key| key.0 .0 <= horizon) {
                heap.pop();
                expect.push(key);
            }
            now = expect.last().map_or(now, |&(at, _)| at);
            let [whole, halves] = &mut wheels;
            prop_assert_eq!(&run(whole, &successor, horizon), &expect);
            let mut in_two = run(halves, &successor, last + step * cut / 16);
            in_two.extend(run(halves, &successor, horizon));
            prop_assert_eq!(&in_two, &expect);
            prop_assert_eq!(whole.stats(), halves.stats());
            prop_assert_eq!(whole.peek_time(), heap.peek().map(|key| key.0 .0));
            // A horizon leaves nothing in the caller's hands: the queue
            // holds every pending event except those still behind a
            // pending predecessor of their row.
            let pending: BTreeSet<u64> = heap.iter().map(|key| key.0 .1).collect();
            let behind = successor.keys().filter(|prev| pending.contains(prev)).count();
            for wheel in &wheels {
                prop_assert_eq!(wheel.len(), heap.len() - behind);
            }
        }
        for wheel in &mut wheels {
            let rest = run(wheel, &successor, u64::MAX);
            let mut expect: Vec<Key> = heap.iter().map(|key| key.0).collect();
            expect.sort_unstable();
            prop_assert_eq!(rest, expect);
            prop_assert!(wheel.is_empty());
            prop_assert_eq!(wheel.processed(), row_events + timers);
            prop_assert_eq!(wheel.processed_by_kind()[row_event(0).kind_idx()], row_events);
            prop_assert_eq!(wheel.processed_by_kind()[3], timers);
        }
        prop_assert_eq!(wheels[0].stats(), wheels[1].stats());
    }

    /// Seed derivation: deterministic, and distinct streams disagree.
    #[test]
    fn seed_streams_are_deterministic(master in any::<u64>(), stream in 0u64..1000) {
        prop_assert_eq!(derive_seed(master, stream), derive_seed(master, stream));
        use rand::Rng;
        let mut a = stream_rng(master, stream);
        let mut b = stream_rng(master, stream);
        for _ in 0..8 {
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    /// Airtime helper: monotone in bits, inversely related to rate, and
    /// never rounds below the exact value.
    #[test]
    fn bits_duration_bounds(bits in 1u64..10_000_000, bps in 1_000_000u64..100_000_000) {
        let d = bits_duration(bits, bps);
        let exact = bits as f64 * 1e9 / bps as f64;
        prop_assert!(d as f64 >= exact - 1e-6);
        prop_assert!((d as f64) < exact + 1.0);
        prop_assert!(bits_duration(bits + 1, bps) >= d);
    }

    /// Box–Muller output is finite and symmetric-ish around the mean.
    #[test]
    fn normal_draws_are_finite(seed in any::<u64>(), mean in -100.0f64..100.0, sigma in 0.0f64..20.0) {
        let mut rng = stream_rng(seed, 0);
        for _ in 0..16 {
            let x = normal(&mut rng, mean, sigma);
            prop_assert!(x.is_finite());
            if sigma <= 0.0 {
                // Degenerate sigma returns the mean *exactly* (bitwise) —
                // that identity is the property under test.
                prop_assert!(x.to_bits() == mean.to_bits());
            } else {
                prop_assert!((x - mean).abs() < 10.0 * sigma);
            }
        }
    }
}
