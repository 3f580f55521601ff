//! Receiver-side interference inference: building the interferer list (§3.1).
//!
//! A receiver `v` maintains, for every neighbour it overhears, the time
//! windows that neighbour was transmitting (from headers, trailers and data
//! packets — headers announce the future, trailers describe the past). When
//! a data packet from a sender `u` is expected, `v` checks which neighbours
//! were active during that packet's airtime and updates per
//! `(source, interferer)` loss counters. A pair `(u, x)` enters the
//! interferer list `I_v` once enough overlapped packets have been observed
//! and the loss rate among them exceeds `l_interf` — using a threshold and
//! not a single loss because concurrent transmission still wins whenever
//! the loss rate stays below 0.5 (§3.1).

// BTreeMap, not HashMap: `concurrent_sources` and the entry walk feed MAC
// decisions and the promotions log, so their order must not vary with hash
// seeds across runs.
use std::collections::BTreeMap;

use cmap_phy::Rate;
use cmap_sim::arena::{List, Lists};
use cmap_sim::ckpt::{CkptReader, CkptWriter, Persist};
use cmap_sim::time::Time;
use cmap_sim::{persist, CkptError};
use cmap_wire::MacAddr;

/// Per-(source, interferer) overlap/loss counters.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    overlapped: u64,
    lost: u64,
}

persist!(struct Counters { overlapped, lost });

/// Recent activity windows of every overheard neighbour: one list per
/// neighbour in one arena, so a warm tracker allocates nothing and its
/// memory follows the live windows.
#[derive(Debug, Default)]
struct Activity {
    windows: Lists<(Time, Time)>,
    /// Every neighbour ever overheard; a quiet one keeps its key and an
    /// empty list. A sorted `Vec` searched by bisection cost 1.6 times the
    /// CPU here on `smallframe_cmap` (DESIGN.md §9.3).
    index: BTreeMap<MacAddr, List>,
}

impl Activity {
    fn note(&mut self, node: MacAddr, window: (Time, Time)) {
        let Activity { windows, index } = self;
        let list = index.entry(node).or_default();
        // Merge with the last window when overlapping/adjacent (common for
        // back-to-back data packets).
        if let Some(last) = windows.back_mut(*list) {
            if window.0 <= last.1 {
                last.1 = last.1.max(window.1);
                last.0 = last.0.min(window.0);
                return;
            }
        }
        // Evict before pushing, so a full list reuses its oldest slot.
        if list.len() == MAX_WINDOWS {
            windows.pop_front(list);
        }
        windows.push_back(list, window);
    }

    /// Drop every window that ended before `cutoff`. An emptied neighbour
    /// keeps its key, so the index does not free and rebuild its node.
    fn prune(&mut self, cutoff: Time) {
        let Activity { windows, index } = self;
        for list in index.values_mut() {
            while windows.iter(*list).next().is_some_and(|w| w.1 < cutoff) {
                windows.pop_front(list);
            }
        }
    }

    /// The neighbours with at least one window: what the image and the
    /// sources see.
    fn live(&self) -> impl Iterator<Item = (MacAddr, List)> + '_ {
        let live = self.index.iter().filter(|(_, list)| !list.is_empty());
        live.map(|(&node, &list)| (node, list))
    }
}

/// Encoded as a `BTreeMap<MacAddr, VecDeque<(Time, Time)>>` is: the
/// count of neighbours with a window, then each one's address and
/// windows in ascending address order.
impl Persist for Activity {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut CkptWriter) {
        w.len(self.live().count());
        for (node, list) in self.live() {
            w.put(&node);
            self.windows.save(list, w);
        }
    }

    /// Straight into the arena, each neighbour's windows in adjacent
    /// slots, reserved at once: addresses strictly ascending,
    /// 1..=`MAX_WINDOWS` windows each.
    fn load(r: &mut CkptReader<'_>) -> Result<Activity, CkptError> {
        let mut a = Activity::default();
        let n = r.count::<(MacAddr, Vec<(Time, Time)>)>()?;
        a.windows.reserve_ahead(r, |r| {
            (0..n).try_fold(0, |slots, _| {
                r.get::<MacAddr>()?;
                Ok(slots + Lists::<(Time, Time)>::skip(r)?)
            })
        });
        for _ in 0..n {
            let node: MacAddr = r.get()?;
            if a.index
                .last_key_value()
                .is_some_and(|(&prev, _)| prev >= node)
            {
                return Err(CkptError::Malformed(
                    "activity neighbours not strictly ascending".into(),
                ));
            }
            let list = a.windows.load(r)?;
            if !(1..=MAX_WINDOWS).contains(&list.len()) {
                return Err(CkptError::Malformed(format!(
                    "{} activity windows, not 1..={MAX_WINDOWS}",
                    list.len()
                )));
            }
            a.index.insert(node, list);
        }
        Ok(a)
    }
}

/// Receiver-side interference tracker (one per node, covering all senders
/// that address it).
#[derive(Debug, Default)]
pub struct InterfererTracker {
    /// Recent activity windows per overheard neighbour, oldest first.
    activity: Activity,
    counters: BTreeMap<(MacAddr, MacAddr), Counters>,
    /// Qualified interferer-list entries: `(source, interferer)` → (expiry,
    /// source bit-rate when observed).
    entries: BTreeMap<(MacAddr, MacAddr), (Time, Rate)>,
    /// Diagnostic log of promotions: (time, source, interferer, overlapped,
    /// lost) at the moment the pair qualified. Capped at
    /// `MAX_PROMOTIONS` (oldest dropped) so soak runs stay bounded.
    pub(crate) promotions: Vec<(Time, MacAddr, MacAddr, u64, u64)>,
}

persist!(struct InterfererTracker { activity, counters, entries, promotions });

/// Cap on remembered activity windows per neighbour.
const MAX_WINDOWS: usize = 64;

/// Cap on the promotions diagnostic log.
const MAX_PROMOTIONS: usize = 256;

impl InterfererTracker {
    /// Empty tracker.
    pub(crate) fn new() -> InterfererTracker {
        InterfererTracker::default()
    }

    /// Record that `node` was (or will be) transmitting during
    /// `[start, end)`.
    pub(crate) fn note_activity(&mut self, node: MacAddr, start: Time, end: Time) {
        self.activity.note(node, (start, end));
    }

    /// The fraction of `[start, end)` one neighbour's activity `list` covers.
    fn covered_fraction(&self, list: List, start: Time, end: Time) -> f64 {
        if end <= start {
            return 0.0;
        }
        let windows = self.activity.windows.iter(list);
        let covered: u64 = windows
            .map(|&(s, e)| e.min(end).saturating_sub(s.max(start)))
            .sum();
        covered as f64 / (end - start) as f64
    }

    /// Neighbours whose known activity covers at least `min_frac` of
    /// `[start, end)`, excluding `exclude`.
    ///
    /// Judging concurrency over the *whole* virtual-packet span (rather
    /// than packet by packet) matters: a receiver's knowledge of an
    /// interferer's activity is biased toward the moments it could decode
    /// that interferer — typically virtual-packet boundaries, which is also
    /// where ACK exchanges collide. Per-packet attribution over those few
    /// biased samples routinely fabricates >50% loss rates for pairs whose
    /// true concurrent loss is a few percent.
    pub(crate) fn concurrent_sources(
        &self,
        start: Time,
        end: Time,
        min_frac: f64,
        exclude: MacAddr,
    ) -> impl Iterator<Item = MacAddr> + '_ {
        self.activity.live().filter_map(move |(node, list)| {
            (node != exclude && self.covered_fraction(list, start, end) >= min_frac).then_some(node)
        })
    }

    /// Account one expected data packet from `u` against an already-judged
    /// concurrent transmitter `x`.
    #[allow(clippy::too_many_arguments, reason = "one hot-path call per pair")]
    pub(crate) fn record_pair(
        &mut self,
        u: MacAddr,
        x: MacAddr,
        lost: bool,
        rate: Rate,
        now: Time,
        l_interf: f64,
        min_samples: u64,
        entry_lifetime: Time,
    ) {
        let c = self.counters.entry((u, x)).or_default();
        c.overlapped += 1;
        if lost {
            c.lost += 1;
        }
        if c.overlapped >= min_samples && c.lost as f64 > l_interf * c.overlapped as f64 {
            if !self.entries.contains_key(&(u, x)) {
                if self.promotions.len() >= MAX_PROMOTIONS {
                    self.promotions.remove(0);
                }
                self.promotions.push((now, u, x, c.overlapped, c.lost));
            }
            self.entries.insert((u, x), (now + entry_lifetime, rate));
        }
    }

    /// Halve all counters — called periodically so stale history fades and
    /// the list adapts to "changing channel conditions and interference
    /// patterns" (§3.1).
    pub(crate) fn decay(&mut self) {
        self.counters.retain(|_, c| {
            c.overlapped /= 2;
            c.lost /= 2;
            c.overlapped > 0
        });
    }

    /// Drop expired entries and ancient activity windows. Returns how many
    /// interferer-list entries were evicted (activity windows are cheap and
    /// not counted).
    pub(crate) fn prune(&mut self, now: Time, activity_horizon: Time) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, &mut (exp, _)| exp > now);
        self.activity.prune(now.saturating_sub(activity_horizon));
        before - self.entries.len()
    }

    /// Live `(source, interferer, rate)` entries at `now` — the interferer
    /// list to broadcast.
    pub fn entries_at(&self, now: Time) -> Vec<(MacAddr, MacAddr, Rate)> {
        let mut v = Vec::new();
        self.for_each_entry_at(now, |u, x, rate| {
            v.push((u, x, rate));
            true
        });
        v
    }

    /// Allocation-free walk of the qualified entries at `now`, in the same
    /// deterministic `(source, interferer)` order as
    /// [`InterfererTracker::entries_at`] (the entry map is ordered by that
    /// key). `f` returns `false` to stop early (e.g. at frame capacity).
    pub(crate) fn for_each_entry_at(
        &self,
        now: Time,
        mut f: impl FnMut(MacAddr, MacAddr, Rate) -> bool,
    ) {
        for (&(u, x), &(exp, rate)) in &self.entries {
            if exp > now && !f(u, x, rate) {
                break;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use std::collections::VecDeque;

    use cmap_sim::ckpt::CKPT_MAGIC;

    use super::*;

    fn a(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    impl InterfererTracker {
        /// Fraction of `[start, end)` covered by `node`'s known activity.
        fn overlap_fraction(&self, node: MacAddr, start: Time, end: Time) -> f64 {
            let list = self.activity.index.get(&node);
            list.map_or(0.0, |&list| self.covered_fraction(list, start, end))
        }
    }

    /// Account one packet from `u` per item of `losses` against `x`, at
    /// `l_interf` 0.5 with at least 8 samples.
    fn record_burst(t: &mut InterfererTracker, u: MacAddr, x: MacAddr, losses: &[bool]) {
        for (i, &lost) in losses.iter().enumerate() {
            let now = i as Time * 1000 + 900;
            t.record_pair(u, x, lost, Rate::R6, now, 0.5, 8, 1_000_000);
        }
    }

    /// Loss statistics for a pair: `(overlapped, lost)`.
    fn pair_counters(t: &InterfererTracker, u: MacAddr, x: MacAddr) -> (u64, u64) {
        t.counters
            .get(&(u, x))
            .map_or((0, 0), |c| (c.overlapped, c.lost))
    }

    #[test]
    fn qualifying_interferer_is_promoted() {
        let (u, x) = (a(1), a(3));
        let mut t = InterfererTracker::new();
        // 10 overlapped packets from u, 8 lost: loss rate 0.8 > 0.5.
        let losses: Vec<bool> = (0..10).map(|i| i < 8).collect();
        record_burst(&mut t, u, x, &losses);
        let entries = t.entries_at(100);
        assert_eq!(entries, vec![(u, x, Rate::R6)]);
        assert_eq!(pair_counters(&t, u, x), (10, 8));
    }

    #[test]
    fn mild_interference_not_promoted() {
        // Loss rate 0.3 < l_interf: concurrent transmission still wins, so
        // the pair must NOT be listed (the core of §3.1's threshold logic).
        let (u, x) = (a(1), a(3));
        let mut t = InterfererTracker::new();
        let losses: Vec<bool> = (0..10).map(|i| i < 3).collect();
        record_burst(&mut t, u, x, &losses);
        assert!(t.entries_at(100).is_empty());
    }

    #[test]
    fn too_few_samples_not_promoted() {
        let (u, x) = (a(1), a(3));
        let mut t = InterfererTracker::new();
        record_burst(&mut t, u, x, &[true; 5]);
        assert!(t.entries_at(100).is_empty(), "5 samples < min 8");
    }

    #[test]
    fn entries_expire() {
        let (u, x) = (a(1), a(3));
        let mut t = InterfererTracker::new();
        for _ in 0..10 {
            t.record_pair(u, x, true, Rate::R6, 10_000, 0.5, 8, 5_000);
        }
        assert_eq!(t.entries_at(14_000).len(), 1);
        assert!(t.entries_at(15_000).is_empty());
        assert_eq!(t.prune(15_000, 1_000), 1);
        assert!(t.entries_at(0).is_empty());
    }

    #[test]
    fn decay_halves_and_cleans() {
        let (u, x) = (a(1), a(3));
        let mut t = InterfererTracker::new();
        record_burst(&mut t, u, x, &[true; 9]);
        assert_eq!(pair_counters(&t, u, x), (9, 9));
        t.decay();
        assert_eq!(pair_counters(&t, u, x), (4, 4));
        t.decay();
        t.decay();
        t.decay();
        assert_eq!(pair_counters(&t, u, x), (0, 0));
    }

    /// `node`'s windows, oldest first.
    fn windows(t: &InterfererTracker, node: MacAddr) -> Vec<(Time, Time)> {
        let list = t.activity.index[&node];
        t.activity.windows.iter(list).copied().collect()
    }

    #[test]
    fn adjacent_windows_merge() {
        let mut t = InterfererTracker::new();
        let x = a(3);
        t.note_activity(x, 0, 100);
        t.note_activity(x, 100, 200);
        t.note_activity(x, 150, 400);
        assert_eq!(windows(&t, x), [(0, 400)]);
        // Disjoint window stays separate.
        t.note_activity(x, 1000, 1100);
        assert_eq!(windows(&t, x), [(0, 400), (1000, 1100)]);
    }

    #[test]
    fn overlap_fraction_math() {
        let mut t = InterfererTracker::new();
        let x = a(3);
        t.note_activity(x, 100, 200);
        t.note_activity(x, 300, 400);
        // Fully covered span.
        assert!((t.overlap_fraction(x, 120, 180) - 1.0).abs() < 1e-12);
        // Half covered: [150, 250) overlaps [150, 200).
        assert!((t.overlap_fraction(x, 150, 250) - 0.5).abs() < 1e-12);
        // Span covering both windows: 200 of 400.
        assert!((t.overlap_fraction(x, 50, 450) - 0.5).abs() < 1e-12);
        // Unknown node, empty span.
        assert_eq!(t.overlap_fraction(a(9), 0, 100), 0.0);
        assert_eq!(t.overlap_fraction(x, 100, 100), 0.0);
    }

    #[test]
    fn concurrent_sources_filters_by_fraction() {
        let mut t = InterfererTracker::new();
        t.note_activity(a(3), 0, 1000); // covers everything
        t.note_activity(a(4), 0, 100); // 10% of [0,1000)
        let both: Vec<_> = t.concurrent_sources(0, 1000, 0.05, a(1)).collect();
        assert_eq!(both.len(), 2);
        let strong: Vec<_> = t.concurrent_sources(0, 1000, 0.5, a(1)).collect();
        assert_eq!(strong, vec![a(3)]);
        // The packet's own sender is excluded.
        assert_eq!(t.concurrent_sources(0, 1000, 0.5, a(3)).count(), 0);
    }

    #[test]
    fn promotions_log_records_first_qualification() {
        let (u, x) = (a(1), a(3));
        let mut t = InterfererTracker::new();
        for i in 0..20u64 {
            t.record_pair(u, x, true, Rate::R6, i, 0.5, 12, 1_000);
        }
        assert_eq!(t.promotions.len(), 1);
        let (when, pu, px, ov, lost) = t.promotions[0];
        assert_eq!((pu, px), (u, x));
        assert_eq!(when, 11); // 12th sample
        assert_eq!((ov, lost), (12, 12));
    }

    #[test]
    fn promotions_log_is_bounded() {
        let mut t = InterfererTracker::new();
        // Promote far more pairs than the cap by letting each expire and
        // re-qualify with a distinct interferer address.
        for i in 0..(MAX_PROMOTIONS as u16 + 50) {
            for s in 0..12u64 {
                t.record_pair(a(1), a(100 + i), true, Rate::R6, s, 0.5, 12, 1);
            }
            t.prune(1_000, 1_000);
        }
        assert_eq!(t.promotions.len(), MAX_PROMOTIONS);
        // The survivors are the newest promotions.
        let (_, _, x, _, _) = *t.promotions.last().unwrap();
        assert_eq!(x, a(100 + MAX_PROMOTIONS as u16 + 49));
    }

    /// Pruning drops the windows past the horizon. A neighbour left with
    /// none keeps its key, but is neither in the image nor a source, not
    /// even at `min_frac` 0, which an empty list's zero coverage meets.
    #[test]
    fn activity_horizon_pruning() {
        let mut t = InterfererTracker::new();
        t.note_activity(a(3), 0, 100);
        t.note_activity(a(3), 10_000, 10_100);
        t.note_activity(a(4), 25_000, 26_000);
        t.prune(15_000, 5_000);
        assert_eq!(windows(&t, a(3)), [(10_000, 10_100)]);
        t.prune(30_000, 5_000);
        assert_eq!(windows(&t, a(3)), []);
        let mut live = Deques::default();
        live.note(a(4), 25_000, 26_000);
        assert_eq!(image(&t.activity), image(&live.0));
        let sources = |t: &InterfererTracker| -> Vec<MacAddr> {
            t.concurrent_sources(0, 30_000, 0.0, a(1)).collect()
        };
        assert_eq!(sources(&t), Vec::from([a(4)]));
        // Heard again, it is a source again.
        t.note_activity(a(3), 29_000, 30_000);
        assert_eq!(sources(&t), Vec::from([a(3), a(4)]));
    }

    /// The per-neighbour deques the arena replaced, kept as its oracle.
    #[derive(Default)]
    struct Deques(BTreeMap<MacAddr, VecDeque<(Time, Time)>>);

    impl Deques {
        fn note(&mut self, node: MacAddr, start: Time, end: Time) {
            let q = self.0.entry(node).or_default();
            if let Some(last) = q.back_mut() {
                if start <= last.1 {
                    last.1 = last.1.max(end);
                    last.0 = last.0.min(start);
                    return;
                }
            }
            if q.len() == MAX_WINDOWS {
                q.pop_front();
            }
            q.push_back((start, end));
        }

        fn prune(&mut self, cutoff: Time) {
            self.0.retain(|_, q| {
                while q.front().is_some_and(|&(_, e)| e < cutoff) {
                    q.pop_front();
                }
                !q.is_empty()
            });
        }

        fn overlap_fraction(&self, node: MacAddr, start: Time, end: Time) -> f64 {
            if end <= start {
                return 0.0;
            }
            let Some(windows) = self.0.get(&node) else {
                return 0.0;
            };
            let covered: u64 = windows
                .iter()
                .map(|&(s, e)| e.min(end).saturating_sub(s.max(start)))
                .sum();
            covered as f64 / (end - start) as f64
        }

        fn concurrent_sources(
            &self,
            start: Time,
            end: Time,
            min: f64,
            ex: MacAddr,
        ) -> Vec<MacAddr> {
            self.0
                .keys()
                .copied()
                .filter(|&n| n != ex && self.overlap_fraction(n, start, end) >= min)
                .collect()
        }
    }

    /// `v`'s sealed checkpoint encoding.
    fn image<T: Persist>(v: &T) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.put(v);
        w.finish()
    }

    /// An `Activity` decoded from an image whose body is what `body` writes.
    fn load(body: impl FnOnce(&mut CkptWriter)) -> Result<Activity, CkptError> {
        let mut w = CkptWriter::new();
        body(&mut w);
        CkptReader::new(&w.finish())?.get()
    }

    proptest::proptest! {
        /// Random notes and prunes over four neighbours, with merges,
        /// evictions at the cap and emptied neighbours: after every step
        /// the arena and the deques give the same checkpoint bytes, the
        /// same overlap fractions and the same concurrent sources, and
        /// the arena's image loads back to itself.
        #[test]
        fn arena_matches_the_deques(
            steps in proptest::collection::vec((0u8..32, 0u16..4, 0u64..500, 1u64..300), 1..800)
        ) {
            let (mut t, mut oracle, mut now) = (InterfererTracker::new(), Deques::default(), 0u64);
            for &(kind, node, x, len) in &steps {
                let node = a(node);
                now += x;
                if kind == 0 {
                    // Horizons from none of the windows to hundreds of notes.
                    let horizon = x * x;
                    t.prune(now, horizon);
                    oracle.prune(now.saturating_sub(horizon));
                } else {
                    // Starts up to 300 before `now`: merges with the last window.
                    let start = now.saturating_sub(len);
                    t.note_activity(node, start, start + len);
                    oracle.note(node, start, start + len);
                }
                let bytes = image(&t.activity);
                proptest::prop_assert_eq!(&bytes, &image(&oracle.0));
                let back: Activity = CkptReader::new(&bytes).unwrap().get().unwrap();
                proptest::prop_assert_eq!(&image(&back), &bytes);
                let (start, end) = (now.saturating_sub(x * 2), now + len);
                for n in (0..6).map(a) {
                    proptest::prop_assert_eq!(
                        t.overlap_fraction(n, start, end).to_bits(),
                        oracle.overlap_fraction(n, start, end).to_bits()
                    );
                }
                // From 0, which an emptied neighbour's coverage meets.
                let min = (len - 1) as f64 / 300.0;
                let sources: Vec<_> = t.concurrent_sources(start, end, min, node).collect();
                proptest::prop_assert_eq!(sources, oracle.concurrent_sources(start, end, min, node));
            }
        }
    }

    /// Filling three neighbours past the cap and pruning them all, again
    /// and again, reuses the first cycle's slots; the pruned neighbours
    /// keep their keys but leave the image and the sources.
    #[test]
    fn slots_stay_at_their_first_high_water_mark() {
        let mut t = InterfererTracker::new();
        let mut high_water = None;
        for cycle in 0..10u64 {
            let base = cycle * 1_000_000;
            for i in 0..100u64 {
                for n in 1..=3 {
                    t.note_activity(a(n), base + i * 1000, base + i * 1000 + 10);
                }
            }
            assert!((1..=3).all(|n| windows(&t, a(n)).len() == MAX_WINDOWS));
            let used = t.activity.windows.slots();
            assert!(
                used <= *high_water.get_or_insert(used),
                "cycle {cycle}: {used} slots"
            );
            t.prune(base + 999_999, 0);
            assert_eq!(t.activity.index.len(), 3);
            assert_eq!(image(&t.activity), image(&Deques::default().0));
            let end = base + 1_000_000;
            assert_eq!(t.concurrent_sources(0, end, 0.0, a(9)).count(), 0);
        }
        assert_eq!(high_water, Some(3 * MAX_WINDOWS));
    }

    /// A corrupt activity image is a typed error, never a panic.
    #[test]
    fn hostile_activity_images_are_refused() {
        let window: (Time, Time) = (0, 10);
        let neighbours = |keys: &[u16], len: usize| {
            load(|w| {
                w.len(keys.len());
                for &k in keys {
                    w.put(&a(k));
                    w.seq(std::iter::repeat_n(&window, len));
                }
            })
        };
        assert!(neighbours(&[1, 2], MAX_WINDOWS).is_ok());
        for (keys, len) in [
            (&[2, 1][..], 1),
            (&[1, 1], 1),
            (&[1], 0),
            (&[1], MAX_WINDOWS + 1),
        ] {
            let err = neighbours(keys, len).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, CkptError::Malformed(_)),
                "{keys:?} x {len}: {err}"
            );
        }
        // Every cut of a real image's body is `Truncated`.
        let mut t = InterfererTracker::new();
        for i in 0..5u16 {
            let start = u64::from(i) * 100;
            t.note_activity(a(i % 3), start, start + 50);
        }
        let full = image(&t.activity);
        let body = &full[CKPT_MAGIC.len() + 1..full.len() - 8];
        for cut in 0..body.len() {
            let err = load(|w| body[..cut].iter().for_each(|b| w.put(b)));
            assert!(matches!(err, Err(CkptError::Truncated)), "cut at {cut}");
        }
    }
}
