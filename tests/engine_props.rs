//! Property-based tests for the simulation engine's foundations.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use proptest::prelude::*;

use cmap_suite::sim::event::{Due, Event, Scheduler};
use cmap_suite::sim::rng::{derive_seed, normal, stream_rng};
use cmap_suite::sim::time::bits_duration;
use cmap_suite::sim::NodeId;

/// About a microsecond: the span the burst and row properties crowd
/// their events into (a bucket width, when the queue was a timing queue).
const TICK_NS: u64 = 1 << 10;

/// The scheduler beside the reference model it must be pop-order-equivalent
/// to: a bare `(time, seq)` min-heap with no carry, horizon or counters.
/// Every event is a timer whose token is its `seq`.
#[derive(Default)]
struct QueueAndReference {
    queue: Scheduler,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl QueueAndReference {
    fn schedule(&mut self, at: u64, node: usize) {
        let event = Event::Timer {
            node: NodeId::new(node),
            token: self.seq,
        };
        self.queue.schedule(at, event);
        self.heap.push(Reverse((at, self.seq)));
        self.seq += 1;
    }

    /// Pop both, requiring the same `peek_time`, the same `(time, seq)` and
    /// the same `len` afterwards; yields the popped `(time, node)`.
    fn pop(&mut self) -> Result<Option<(u64, usize)>, TestCaseError> {
        let expect = self.heap.pop().map(|Reverse(ts)| ts);
        prop_assert_eq!(self.queue.peek_time(), expect.map(|(t, _)| t));
        let got = self.queue.pop().map(|(t, ev)| {
            let Event::Timer { node, token } = ev else {
                unreachable!()
            };
            (t, token, node.index())
        });
        prop_assert_eq!(got.map(|(t, token, _)| (t, token)), expect);
        prop_assert_eq!(self.queue.len(), self.heap.len());
        Ok(got.map(|(t, _, node)| (t, node)))
    }

    /// Drain both to empty, then hold the lifetime counter to the model's.
    fn finish(mut self) -> Result<(), TestCaseError> {
        while self.pop()?.is_some() {}
        prop_assert!(self.heap.is_empty());
        prop_assert_eq!(self.queue.processed(), self.seq);
        Ok(())
    }
}

/// One transmission's stream as the engine keys it: `row` holds its
/// receivers in arrival order as `(delay, position)`, position `p` owning
/// reserved numbers `seq0 + 1 + 2p` (`FrameStart`) and `seq0 + 2 + 2p`
/// (`FrameEnd`); `seq0` is the `TxEnd`'s.
struct Stream {
    start: u64,
    end: u64,
    seq0: u64,
    row: Vec<(u64, u64)>,
    /// Events handled so far.
    cursor: usize,
}

impl Stream {
    /// Event `j`: every `FrameStart`, the `TxEnd`, every `FrameEnd`, as
    /// `(at, seq, kind)`; `None` past the last.
    fn event(&self, j: usize) -> Option<(u64, u64, usize)> {
        let f = self.row.len();
        if j < f {
            let (delay, pos) = self.row[j];
            Some((self.start + delay, self.seq0 + 1 + 2 * pos, 1))
        } else if j == f {
            Some((self.end, self.seq0, 0))
        } else {
            let &(delay, pos) = self.row.get(j - f - 1)?;
            Some((self.end + delay, self.seq0 + 2 + 2 * pos, 2))
        }
    }
}

/// The event of kind `kind` (an `Event::kind_idx`) told apart by `seq`.
fn event(kind: usize, seq: u64) -> Event {
    let node = NodeId::new((seq % 7) as usize);
    match kind {
        0 => Event::TxEnd { node, tx_id: seq },
        1 => Event::FrameStart {
            rx: node,
            tx_id: seq,
        },
        2 => Event::FrameEnd {
            rx: node,
            tx_id: seq,
        },
        3 => Event::Timer { node, token: seq },
        4 => Event::Fault { idx: seq as u32 },
        _ => Event::Audit,
    }
}

/// The scheduler driven as the world drives it — streams carried from
/// event to event, filed events popped, new work started as events are
/// handled — beside two models: a reference heap holding every event of
/// every stream from its start, and the entries a queue filing each
/// stream's `TxEnd`, next `FrameStart` and next `FrameEnd` would hold
/// (`eager`, the owner's slot beside each), which `len()` and
/// `max_occupancy()` must match.
struct Engine {
    queue: Scheduler,
    rng: rand::rngs::SmallRng,
    shift: u32,
    reference: BinaryHeap<Reverse<(u64, u64)>>,
    filed: BTreeMap<u64, Event>,
    /// Live streams by pool slot.
    streams: BTreeMap<usize, Stream>,
    eager: BTreeMap<(u64, u64), Option<usize>>,
    eager_max: usize,
    /// What eager filing files on the next call: the handled stream
    /// event's successor of its own kind.
    successor: Option<((u64, u64), usize)>,
    carry: Option<(u64, u64, bool)>,
    now: u64,
    started: usize,
    handled: [u64; Event::KIND_COUNT],
}

impl Engine {
    fn new(seed: u64, shift: u32) -> Engine {
        Engine {
            queue: Scheduler::new(),
            rng: stream_rng(seed, 0),
            shift,
            reference: BinaryHeap::new(),
            filed: BTreeMap::new(),
            streams: BTreeMap::new(),
            eager: BTreeMap::new(),
            eager_max: 0,
            successor: None,
            carry: None,
            now: 0,
            started: 0,
            handled: [0; Event::KIND_COUNT],
        }
    }

    /// A draw below `span`, rounded down to the granularity.
    fn coarse(&mut self, span: u64) -> u64 {
        use rand::Rng;
        self.rng.gen_range(0..span) >> self.shift << self.shift
    }

    fn kind(&mut self) -> usize {
        use rand::Rng;
        self.rng.gen_range(0..Event::KIND_COUNT)
    }

    fn eager_insert(&mut self, key: (u64, u64), owner: Option<usize>) {
        self.eager.insert(key, owner);
        self.eager_max = self.eager_max.max(self.eager.len());
    }

    /// File an event of kind `kind` at `at` through `schedule`.
    fn file(&mut self, at: u64, kind: usize) {
        let seq = self.queue.reserve(0);
        let ev = event(kind, seq);
        self.queue.schedule(at, ev);
        self.reference.push(Reverse((at, seq)));
        self.filed.insert(seq, ev);
        self.eager_insert((at, seq), None);
    }

    /// Start a transmission at `at` heard by up to `fanout` receivers, in
    /// the lowest free slot, as `World::start_tx` does.
    fn start(&mut self, at: u64, fanout: usize) {
        use rand::Rng;
        let f = self.rng.gen_range(0..=fanout);
        let slot = (0..)
            .find(|slot| !self.streams.contains_key(slot))
            .expect("a slot");
        // Below the shortest frame's 20 µs; airtimes from just above it.
        let mut row: Vec<(u64, u64)> = (0..f as u64)
            .map(|pos| (self.coarse(20_000), pos))
            .collect();
        row.sort_unstable();
        let airtime = 20_000 + 1 + self.coarse(300_000);
        let seq0 = self.queue.reserve(1 + 2 * f as u64);
        let stream = Stream {
            start: at,
            end: at + airtime,
            seq0,
            row,
            cursor: 0,
        };
        let events: Vec<(u64, u64, usize)> = (0..).map_while(|j| stream.event(j)).collect();
        assert!(
            events
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "stream out of order"
        );
        self.reference
            .extend(events.iter().map(|&(at, seq, _)| Reverse((at, seq))));
        for j in [0, f, f + 1] {
            if let Some((at, seq, _)) = stream.event(j) {
                self.eager_insert((at, seq), Some(slot));
            }
        }
        let (first_at, first_seq, _) = events[0];
        self.queue
            .start_stream(first_at, first_seq, slot, if f > 0 { 3 } else { 1 });
        self.streams.insert(slot, stream);
        self.started += 1;
    }

    /// One call of `next`, checked against the reference; the handled
    /// event, or `None` at the horizon.
    fn step(&mut self, horizon: u64) -> Result<Option<(u64, usize)>, TestCaseError> {
        if let Some((key, slot)) = self.successor.take() {
            self.eager_insert(key, Some(slot));
        }
        let expect = self
            .reference
            .peek()
            .map(|key| key.0)
            .filter(|&(at, _)| at <= horizon);
        let got = self.queue.next(self.carry.take(), horizon);
        let Some(due) = got else {
            prop_assert_eq!(expect, None);
            prop_assert_eq!(
                self.queue.peek_time(),
                self.reference.peek().map(|key| key.0 .0)
            );
            return Ok(None);
        };
        let (at, seq) =
            expect.ok_or_else(|| TestCaseError::fail(format!("{due:?} past the horizon")))?;
        self.reference.pop();
        let kind = match due {
            Due::Event(t, ev) => {
                prop_assert_eq!((t, ev), (at, self.filed[&seq]));
                ev.kind_idx()
            }
            Due::Stream { at: t, slot } => {
                let stream = self.streams.get_mut(&slot).expect("a live stream's slot");
                let j = stream.cursor;
                let (sat, sseq, kind) = stream.event(j).expect("a pending event");
                prop_assert_eq!((t, sat, sseq), (at, at, seq));
                self.queue.count_stream(&event(kind, seq));
                stream.cursor += 1;
                self.carry = stream
                    .event(j + 1)
                    .map(|(at, seq, next)| (at, seq, next == kind));
                self.successor = stream
                    .event(j + 1)
                    .filter(|&(_, _, next)| next == kind)
                    .map(|(at, seq, _)| ((at, seq), slot));
                if self.carry.is_none() {
                    self.streams.remove(&slot);
                }
                kind
            }
        };
        self.handled[kind] += 1;
        self.now = at;
        prop_assert_eq!(self.eager.remove(&(at, seq)).is_some(), true);
        prop_assert_eq!(self.queue.len(), self.eager.len());
        prop_assert_eq!(self.queue.max_occupancy(), self.eager_max as u64);
        Ok(Some((at, kind)))
    }

    /// Pop everything due by `horizon`, handling each event as a world
    /// might: a filed event or a `TxEnd` sometimes starts transmissions
    /// at that instant (several tie) while fewer than `live` are on the
    /// air, and sometimes files an event of a kind below `kinds`.
    fn run(
        &mut self,
        horizon: u64,
        fanout: usize,
        live: usize,
        kinds: usize,
    ) -> Result<(), TestCaseError> {
        use rand::Rng;
        while let Some((now, kind)) = self.step(horizon)? {
            if kind == 1 || kind == 2 || self.started > 4 * live + 64 {
                continue;
            }
            for _ in 0..self.rng.gen_range(0..3u32) {
                if self.streams.len() < live {
                    self.start(now, fanout);
                }
            }
            if self.rng.gen_bool(0.5) {
                let (at, kind) = (now + self.coarse(400_000), self.rng.gen_range(0..kinds));
                self.file(at, kind);
            }
        }
        Ok(())
    }

    /// Save the queue between horizons, as `World::checkpoint` does, load
    /// it and re-queue each live stream under its next event's key,
    /// counted as its entries in `eager`, as `World::restore` does.
    fn save_and_resume(&mut self) -> Result<(), TestCaseError> {
        use cmap_suite::sim::ckpt::{CkptReader, CkptWriter, Persist};
        prop_assert!(self.carry.is_none() && self.successor.is_none());
        let save = |queue: &Scheduler| {
            let mut w = CkptWriter::new();
            queue.save(&mut w);
            w.finish()
        };
        let image = save(&self.queue);
        let mut w = CkptWriter::new();
        let pending: Vec<(u64, u64)> = self
            .eager
            .iter()
            .filter(|(_, owner)| owner.is_none())
            .map(|(&key, _)| key)
            .collect();
        w.len(pending.len());
        for (at, seq) in pending {
            w.put(&at);
            w.put(&seq);
            w.put(&self.filed[&seq]);
        }
        w.put(&self.queue.reserve(0));
        w.put(&self.queue.processed());
        w.put(self.queue.processed_by_kind());
        w.put(&self.queue.max_occupancy());
        prop_assert_eq!(&image, &w.finish());
        let mut r = CkptReader::new(&image).expect("magic");
        let mut loaded = Scheduler::load(&mut r).expect("own image");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(&save(&loaded), &image);
        for (&slot, stream) in &self.streams {
            let (at, seq, _) = stream
                .event(stream.cursor)
                .expect("a live stream's next event");
            let entries = self
                .eager
                .values()
                .filter(|&&owner| owner == Some(slot))
                .count();
            loaded.start_stream(at, seq, slot, entries);
        }
        prop_assert_eq!(loaded.len(), self.queue.len());
        prop_assert_eq!(loaded.max_occupancy(), self.queue.max_occupancy());
        prop_assert_eq!(loaded.peek_time(), self.queue.peek_time());
        self.queue = loaded;
        Ok(())
    }

    /// Drain to empty; every event handled exactly once, by kind.
    fn finish(mut self) -> Result<(), TestCaseError> {
        while self.step(u64::MAX)?.is_some() {}
        prop_assert!(self.reference.is_empty() && self.streams.is_empty());
        prop_assert!(self.queue.is_empty());
        prop_assert_eq!(self.queue.processed_by_kind(), &self.handled);
        prop_assert_eq!(self.queue.processed(), self.handled.iter().sum::<u64>());
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
        let mut q = QueueAndReference::default();
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
        let mut q = QueueAndReference::default();
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

    /// The stream contract: a transmission of F receivers is `1 + 2·F`
    /// events under numbers reserved when it starts, queued as one key
    /// that the loop carries from event to event. Whatever mix of streams
    /// (1–64 at once, 0–40 receivers each, delays below the shortest
    /// frame, starts tied to the nanosecond), timers and horizons, the pops
    /// must be those of a reference heap handed every event of every
    /// stream up front; after every pop `len()` and `max_occupancy()` must
    /// read as a queue filing each stream's `TxEnd`, next `FrameStart` and
    /// next `FrameEnd` would; and at one random horizon the queue is saved,
    /// loaded and its streams re-queued, and runs on as if never stopped.
    #[test]
    fn carried_rows_match_eagerly_filed_reference(
        live in 1usize..=64,
        fanout in 0usize..=40,
        // Delay and timing granularity: coarse shifts tie everything.
        shift in 0u32..16,
        rounds in 1usize..12,
        step in 0u64..200_000,
        save_at in 0usize..12,
        seed in any::<u64>(),
    ) {
        let mut e = Engine::new(seed, shift);
        let start = e.coarse(1 << 30);
        for _ in 0..live {
            e.start(start, fanout);
        }
        for _ in 0..live / 4 {
            let at = start + e.coarse(400_000);
            e.file(at, 3);
        }
        let mut horizon = start;
        for round in 0..rounds {
            horizon += step;
            e.run(horizon, fanout, live, 3)?;
            if round == save_at {
                e.save_and_resume()?;
            }
        }
        e.finish()?;
    }

    /// What `schedule` files — all six kinds, as `benchmark/src/replay.rs`
    /// files them — shares one heap, beside a few streams, and both
    /// orders interleave at coarse times where `seq` alone breaks ties.
    /// Pops must be the reference heap's. At one random horizon, as
    /// `World::checkpoint` is taken, the queue is saved: the image must be
    /// the reference's filed events in `(at, seq)` order with the counters,
    /// and the loaded queue, its streams re-queued, must re-save to the
    /// same bytes and run on as if never stopped.
    #[test]
    fn mixed_kinds_match_reference_heap(
        filed in 1usize..40,
        streams in 0usize..4,
        shift in 0u32..16,
        rounds in 1usize..30,
        step in 0u64..100_000,
        save_at in 0usize..30,
        seed in any::<u64>(),
    ) {
        let mut e = Engine::new(seed, shift);
        for _ in 0..filed {
            let (at, kind) = (e.coarse(300_000), e.kind());
            e.file(at, kind);
        }
        for _ in 0..streams {
            let at = e.coarse(300_000);
            e.start(at, 8);
        }
        let mut horizon = 0;
        for round in 0..rounds {
            horizon += step;
            e.run(horizon, 8, 4, 6)?;
            if round == save_at {
                e.save_and_resume()?;
            }
        }
        e.finish()?;
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
