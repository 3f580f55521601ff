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
use std::collections::{BTreeMap, VecDeque};

use cmap_phy::Rate;
use cmap_sim::persist;
use cmap_sim::time::Time;
use cmap_wire::MacAddr;

/// Per-(source, interferer) overlap/loss counters.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    overlapped: u64,
    lost: u64,
}

persist!(struct Counters { overlapped, lost });

/// Receiver-side interference tracker (one per node, covering all senders
/// that address it).
#[derive(Debug, Default)]
pub struct InterfererTracker {
    /// Recent activity windows per overheard neighbour, newest at the back.
    activity: BTreeMap<MacAddr, VecDeque<(Time, Time)>>,
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
        let q = self.activity.entry(node).or_default();
        // Merge with the last window when overlapping/adjacent (common for
        // back-to-back data packets).
        if let Some(last) = q.back_mut() {
            if start <= last.1 {
                last.1 = last.1.max(end);
                last.0 = last.0.min(start);
                return;
            }
        }
        q.push_back((start, end));
        if q.len() > MAX_WINDOWS {
            q.pop_front();
        }
    }

    /// Fraction of `[start, end)` covered by `node`'s known activity.
    pub(crate) fn overlap_fraction(&self, node: MacAddr, start: Time, end: Time) -> f64 {
        if end <= start {
            return 0.0;
        }
        let Some(windows) = self.activity.get(&node) else {
            return 0.0;
        };
        let covered: u64 = windows
            .iter()
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
    ) -> Vec<MacAddr> {
        self.activity
            .keys()
            .copied()
            .filter(|&node| node != exclude && self.overlap_fraction(node, start, end) >= min_frac)
            .collect()
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
        let cutoff = now.saturating_sub(activity_horizon);
        self.activity.retain(|_, q| {
            while q.front().is_some_and(|&(_, e)| e < cutoff) {
                q.pop_front();
            }
            !q.is_empty()
        });
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
    use super::*;

    fn a(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
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

    #[test]
    fn adjacent_windows_merge() {
        let mut t = InterfererTracker::new();
        let x = a(3);
        t.note_activity(x, 0, 100);
        t.note_activity(x, 100, 200);
        t.note_activity(x, 150, 400);
        assert_eq!(t.activity[&x].len(), 1);
        assert_eq!(t.activity[&x][0], (0, 400));
        // Disjoint window stays separate.
        t.note_activity(x, 1000, 1100);
        assert_eq!(t.activity[&x].len(), 2);
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
        let both: Vec<_> = t.concurrent_sources(0, 1000, 0.05, a(1));
        assert_eq!(both.len(), 2);
        let strong: Vec<_> = t.concurrent_sources(0, 1000, 0.5, a(1));
        assert_eq!(strong, vec![a(3)]);
        // The packet's own sender is excluded.
        assert!(t.concurrent_sources(0, 1000, 0.5, a(3)).is_empty());
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

    #[test]
    fn activity_horizon_pruning() {
        let mut t = InterfererTracker::new();
        t.note_activity(a(3), 0, 100);
        t.note_activity(a(3), 10_000, 10_100);
        t.prune(15_000, 5_000);
        assert_eq!(t.activity[&a(3)].len(), 1);
        t.prune(30_000, 5_000);
        assert!(t.activity.is_empty());
    }
}
