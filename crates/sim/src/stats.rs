//! Runtime statistics collection.
//!
//! Everything the evaluation section needs is recorded here during a run:
//! per-flow non-duplicate deliveries with timestamps (for windowed
//! throughput, §5.1 measures the last 60 of 100 seconds), per-link virtual-
//! packet header/trailer reception (Figs 16 and 19), typed run counters and
//! gauges from the [`cmap_obs`] registry, and — when enabled — a bounded
//! structured trace of protocol decision points.
//!
//! Counters are a flat `[u64; CounterId::COUNT]` indexed by the dense
//! [`CounterId`]: the hot path is one array write, no map lookup.

// BTreeMap throughout: statistics feed figure output and test
// assertions, so their iteration order must not depend on hash seeds.
use std::collections::BTreeMap;

use cmap_obs::{CounterId, GaugeId, TraceEvent, TraceSink};

use crate::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use crate::persist;
use crate::time::Time;
use crate::world::NodeId;

/// Per-flow delivery record.
#[derive(Debug, Default, Clone)]
pub struct FlowStats {
    /// Arrival time of each *first* (non-duplicate) delivery, in order.
    pub arrivals: Vec<Time>,
    /// One past the highest sequence number delivered (0 before the first).
    high: u64,
    /// The seqs below `high` not delivered yet, as ascending half-open
    /// ranges `[from, to)` with a delivered seq between two: duplicate
    /// suppression in O(losses), not O(deliveries). Restore holds an image
    /// to `high − Σ(to − from) == arrivals.len()`.
    missing: Vec<(u32, u32)>,
    /// Duplicate deliveries discarded.
    pub duplicates: u64,
}

persist!(struct FlowStats { arrivals, high, missing, duplicates }, validate FlowStats::check);

impl FlowStats {
    /// Deliver `seq`; `false` if it was delivered before.
    fn deliver(&mut self, seq: u32, now: Time) -> bool {
        let s = u64::from(seq);
        if s >= self.high {
            if s > self.high {
                // `high < seq`, so it fits a `u32`.
                self.missing.push((self.high as u32, seq));
            }
            self.high = s + 1;
        } else {
            // `seq` is missing if in the first range ending past it.
            let i = self.missing.partition_point(|&(_, to)| to <= seq);
            match self.missing.get(i) {
                Some(&(from, to)) if from <= seq => match (from < seq, seq + 1 < to) {
                    (true, true) => {
                        self.missing[i].1 = seq;
                        self.missing.insert(i + 1, (seq + 1, to));
                    }
                    (true, false) => self.missing[i].1 = seq,
                    (false, true) => self.missing[i].0 = seq + 1,
                    (false, false) => drop(self.missing.remove(i)),
                },
                _ => return false,
            }
        }
        self.arrivals.push(now);
        true
    }

    /// A restored record is one `deliver` can produce: ranges non-empty,
    /// apart and below `high`, arrivals in order, one per seq not missing.
    fn check(&self) -> Result<(), CkptError> {
        let (mut floor, mut lost) = (0u64, 0u64);
        let ranges = self.missing.iter().all(|&(from, to)| {
            let ascending = u64::from(from) >= floor && from < to;
            (floor, lost) = (u64::from(to) + 1, lost + u64::from(to.wrapping_sub(from)));
            ascending
        });
        let n = self.arrivals.len() as u64;
        if ranges && floor <= self.high && self.high - lost == n && self.arrivals.is_sorted() {
            return Ok(());
        }
        Err(CkptError::Malformed(format!(
            "flow record: {n} arrivals below seq {}, {} missing ranges",
            self.high,
            self.missing.len()
        )))
    }

    /// Count of non-duplicate deliveries with `from <= t < to`.
    pub fn delivered_in(&self, from: Time, to: Time) -> u64 {
        // Arrivals are pushed in nondecreasing time order.
        let lo = self.arrivals.partition_point(|&t| t < from);
        let hi = self.arrivals.partition_point(|&t| t < to);
        (hi - lo) as u64
    }
}

/// Per ordered link (sender, intended receiver): virtual-packet header and
/// trailer reception bookkeeping.
#[derive(Debug, Default, Clone)]
pub struct VpktStats {
    /// Virtual packets announced (header transmitted) by the sender.
    pub(crate) sent: u64,
    /// Flags per-virtual-packet seq at the receiver: bit0 = header seen,
    /// bit1 = trailer seen. Capped at [`VpktStats::MAX_GOT`] entries; the
    /// counts below are cumulative and survive eviction.
    got: BTreeMap<u32, u8>,
    headers_total: u64,
    trailers_total: u64,
    either_total: u64,
    /// Entries evicted from `got` to honour the cap (long soak runs).
    pub(crate) evicted: u64,
}

persist!(struct VpktStats { sent, got, headers_total, trailers_total, either_total, evicted });

impl VpktStats {
    /// Per-seq flag entries retained; far above what a tier-1 run produces
    /// (a 100 s saturated link sees ~2k vpkt seqs), so eviction only
    /// engages on long soaks.
    pub(crate) const MAX_GOT: usize = 4096;

    /// Virtual packets whose trailer was received.
    pub fn trailer_count(&self) -> u64 {
        self.trailers_total
    }

    /// Fraction of sent virtual packets whose header was received.
    pub fn header_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.headers_total as f64 / self.sent as f64
    }

    /// Fraction of sent virtual packets with header or trailer received.
    pub fn either_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        (self.either_total as f64 / self.sent as f64).min(1.0)
    }
}

/// All statistics for one simulation run.
#[derive(Debug)]
pub struct Stats {
    flows: Vec<FlowStats>,
    vpkt: BTreeMap<(NodeId, NodeId), VpktStats>,
    /// Typed counters, indexed by `CounterId::idx()`.
    counters: Cells<{ CounterId::COUNT }>,
    /// Typed gauges, indexed by `GaugeId::idx()`.
    gauges: Cells<{ GaugeId::COUNT }>,
    /// Structured trace sink; `None` (the default) keeps every emit site to
    /// a single branch.
    trace: Option<TraceSink>,
}

impl Default for Stats {
    fn default() -> Stats {
        Stats {
            flows: Vec::new(),
            vpkt: BTreeMap::new(),
            counters: Cells([0; CounterId::COUNT]),
            gauges: Cells([0; GaugeId::COUNT]),
            trace: None,
        }
    }
}

// The trace sink is a bounded view of behaviour, outside the versioned
// format; `World::checkpoint` refuses a world that has one attached.
persist!(struct Stats { flows, vpkt, counters, gauges } ..Stats::default());

/// One `u64` cell per registry id. Checkpointed with its length, so a
/// checkpoint from a build whose registry has grown or shrunk is a
/// `Mismatch` and not a misparse.
#[derive(Debug)]
struct Cells<const N: usize>([u64; N]);

impl<const N: usize> Persist for Cells<N> {
    fn save(&self, w: &mut CkptWriter) {
        w.len(N);
        self.0.save(w);
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Cells<N>, CkptError> {
        let n = r.len()?;
        if n != N {
            return Err(CkptError::Mismatch(format!(
                "checkpoint has {n} registry cells, this build has {N}"
            )));
        }
        r.get().map(Cells)
    }
}

impl Stats {
    pub(crate) fn ensure_flows(&mut self, n: usize) {
        self.flows
            .resize(n.max(self.flows.len()), FlowStats::default());
    }

    /// Record a delivery; returns `true` if it was not a duplicate.
    pub(crate) fn record_delivery(&mut self, flow: u16, seq: u32, now: Time) -> bool {
        let f = &mut self.flows[flow as usize];
        let first = f.deliver(seq, now);
        f.duplicates += u64::from(!first);
        first
    }

    /// Per-flow stats.
    pub fn flow(&self, flow: u16) -> &FlowStats {
        &self.flows[flow as usize]
    }

    /// Throughput of `flow` in Mbit/s of application payload over the
    /// half-open window `[from, to)`.
    pub fn flow_throughput_mbps(&self, flow: u16, payload_len: usize, from: Time, to: Time) -> f64 {
        assert!(to > from);
        let pkts = self.flow(flow).delivered_in(from, to);
        let bits = pkts as f64 * payload_len as f64 * 8.0;
        bits / crate::time::as_secs_f64(to - from) / 1e6
    }

    /// The sender announced (sent the header of) a virtual packet to `dst`.
    pub fn vpkt_sent(&mut self, src: impl Into<NodeId>, dst: impl Into<NodeId>) {
        self.vpkt.entry((src.into(), dst.into())).or_default().sent += 1;
    }

    /// The intended receiver decoded the header (`is_trailer = false`) or
    /// trailer (`true`) of virtual packet `seq` from `src`.
    pub fn vpkt_received(
        &mut self,
        src: impl Into<NodeId>,
        dst: impl Into<NodeId>,
        seq: u32,
        is_trailer: bool,
    ) {
        let flag = if is_trailer { 2u8 } else { 1 };
        let v = self.vpkt.entry((src.into(), dst.into())).or_default();
        let entry = v.got.entry(seq).or_insert(0);
        let old = *entry;
        *entry |= flag;
        if old == 0 {
            v.either_total += 1;
        }
        if old & flag == 0 {
            if is_trailer {
                v.trailers_total += 1;
            } else {
                v.headers_total += 1;
            }
        }
        if v.got.len() > VpktStats::MAX_GOT {
            // Oldest seq first: ACK windows only ever look forward.
            v.got.pop_first();
            v.evicted += 1;
            self.counters.0[CounterId::StatsVpktEvicted.idx()] += 1;
        }
    }

    /// Header/trailer bookkeeping for one ordered link, if any.
    pub fn vpkt_stats(&self, src: impl Into<NodeId>, dst: impl Into<NodeId>) -> Option<&VpktStats> {
        self.vpkt.get(&(src.into(), dst.into()))
    }

    /// Bump a typed counter by one.
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.counters.0[id.idx()] += 1;
    }

    /// Add to a typed counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: u64) {
        self.counters.0[id.idx()] += v;
    }

    /// Read a typed counter.
    #[inline]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters.0[id.idx()]
    }

    /// Set a typed gauge (last write wins).
    #[inline]
    pub(crate) fn set_gauge(&mut self, id: GaugeId, v: u64) {
        self.gauges.0[id.idx()] = v;
    }

    /// Read a typed gauge.
    #[inline]
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges.0[id.idx()]
    }

    /// All nonzero counters, sorted by name.
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = CounterId::ALL
            .iter()
            .filter_map(|&id| {
                let c = self.counters.0[id.idx()];
                (c != 0).then_some((id.name(), c))
            })
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }

    /// Enable structured tracing with a ring buffer of `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceSink::new(capacity));
    }

    /// Whether a trace sink is attached.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Emit a trace event at simulation time `at_ns`. One branch and no
    /// work when tracing is disabled.
    #[inline]
    pub fn emit(&mut self, at_ns: u64, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(at_ns, ev);
        }
    }

    /// The attached trace sink, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Detach and return the trace sink (tracing stops).
    pub(crate) fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// Canonical text serialization of the complete run statistics.
    ///
    /// Every piece of state this type records appears in the output in a
    /// fixed order (flow index, link key, counter/gauge name — all sorted),
    /// so two runs are behaviourally identical if and only if their
    /// snapshots are byte-for-byte equal. The determinism regression test
    /// (`tests/determinism_snapshot.rs`) relies on exactly that property.
    /// Trace contents are intentionally excluded: the trace is a bounded
    /// *view* of behaviour, not extra behaviour.
    pub fn snapshot(&self) -> String {
        use std::fmt::Write as _; // into a `String`: never fails
        let mut out = String::new();
        for (i, f) in self.flows.iter().enumerate() {
            let _ = write!(
                out,
                "flow {i}: delivered={} duplicates={} arrivals=",
                f.arrivals.len(),
                f.duplicates
            );
            for t in &f.arrivals {
                let _ = write!(out, "{t},");
            }
            out.push('\n');
        }
        for (&(src, dst), v) in &self.vpkt {
            let _ = write!(out, "vpkt {src}->{dst}: sent={} got=", v.sent);
            for (seq, flags) in &v.got {
                let _ = write!(out, "{seq}:{flags},");
            }
            out.push('\n');
        }
        for (name, c) in self.counters_sorted() {
            let _ = writeln!(out, "counter {name}={c}");
        }
        for id in GaugeId::ALL {
            let v = self.gauges.0[id.idx()];
            if v != 0 {
                let _ = writeln!(out, "gauge {}={v}", id.name());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_suppression() {
        let mut s = Stats::default();
        s.ensure_flows(1);
        assert!(s.record_delivery(0, 1, 100));
        assert!(s.record_delivery(0, 2, 200));
        assert!(!s.record_delivery(0, 1, 300));
        assert_eq!(s.flow(0).arrivals.len(), 2);
        assert_eq!(s.flow(0).duplicates, 1);
    }

    #[test]
    fn windowed_counts() {
        let mut s = Stats::default();
        s.ensure_flows(1);
        for (seq, t) in [(0u32, 10u64), (1, 20), (2, 30), (3, 40)] {
            s.record_delivery(0, seq, t);
        }
        assert_eq!(s.flow(0).delivered_in(0, 100), 4);
        assert_eq!(s.flow(0).delivered_in(20, 40), 2);
        assert_eq!(s.flow(0).delivered_in(41, 100), 0);
    }

    #[test]
    fn throughput_math() {
        let mut s = Stats::default();
        s.ensure_flows(1);
        // 1000 packets of 1400 bytes over 2 seconds = 5.6 Mbit/s.
        for i in 0..1000u32 {
            s.record_delivery(0, i, crate::time::secs(1) + u64::from(i));
        }
        let mbps = s.flow_throughput_mbps(0, 1400, crate::time::secs(1), crate::time::secs(3));
        assert!((mbps - 5.6).abs() < 0.01, "{mbps}");
    }

    #[test]
    fn vpkt_header_or_trailer_accounting() {
        let mut s = Stats::default();
        for _ in 0..4 {
            s.vpkt_sent(1, 2);
        }
        s.vpkt_received(1, 2, 0, false); // header only
        s.vpkt_received(1, 2, 1, true); // trailer only
        s.vpkt_received(1, 2, 2, false); // both
        s.vpkt_received(1, 2, 2, true);
        let v = s.vpkt_stats(1, 2).unwrap();
        assert_eq!(v.sent, 4);
        assert_eq!(v.headers_total, 2);
        assert_eq!(v.trailer_count(), 2);
        assert_eq!(v.either_total, 3);
        assert!((v.header_rate() - 0.5).abs() < 1e-12);
        assert!((v.either_rate() - 0.75).abs() < 1e-12);
        assert!(s.vpkt_stats(2, 1).is_none());
    }

    /// A flow keeps one range per run of seqs it has yet to deliver, and
    /// none once they arrive.
    #[test]
    fn missing_ranges_are_the_gaps() {
        let mut s = Stats::default();
        s.ensure_flows(1);
        for i in 0..100u32 {
            assert!(s.record_delivery(0, i, u64::from(i)));
        }
        assert_eq!((s.flow(0).high, &s.flow(0).missing[..]), (100, &[][..]));
        assert!(!s.record_delivery(0, 5, 1000));
        assert_eq!(s.flow(0).duplicates, 1);
        // 100 and 101 lost, 103..=104 lost, then both gaps fill.
        assert!(s.record_delivery(0, 102, 1001));
        assert!(s.record_delivery(0, 105, 1002));
        assert_eq!(s.flow(0).missing, [(100, 102), (103, 105)]);
        assert!(s.record_delivery(0, 101, 1003));
        assert!(!s.record_delivery(0, 101, 1004));
        assert!(s.record_delivery(0, 104, 1005));
        assert_eq!(s.flow(0).missing, [(100, 101), (103, 104)]);
        assert!(s.record_delivery(0, 100, 1006));
        assert!(s.record_delivery(0, 103, 1007));
        assert!(s.flow(0).missing.is_empty());
        assert_eq!(s.flow(0).high, 106);
        // A seq inside a range splits it.
        assert!(s.record_delivery(0, 110, 1008));
        assert!(s.record_delivery(0, 108, 1009));
        assert_eq!(s.flow(0).missing, [(106, 108), (109, 110)]);
        assert_eq!(s.flow(0).arrivals.len(), 108);
        // The largest seq there is.
        assert!(s.record_delivery(0, u32::MAX, 1010));
        assert!(!s.record_delivery(0, u32::MAX, 1011));
        assert_eq!(s.flow(0).high, 1 << 32);
        assert_eq!(s.flow(0).missing.last(), Some(&(111, u32::MAX)));
    }

    proptest::proptest! {
        /// `record_delivery` against a set of every delivered seq: the
        /// same answers and arrivals, and exactly one range per gap below
        /// the highest seq, over streams with duplicates, reordering and
        /// gaps up to 2^20.
        #[test]
        fn delivery_matches_a_set_of_delivered_seqs(
            steps in proptest::collection::vec((0u8..4, 0u32..1 << 20), 1..400)
        ) {
            let mut s = Stats::default();
            s.ensure_flows(1);
            let (mut seen, mut arrivals) = (std::collections::BTreeSet::new(), Vec::new());
            let mut next = 0u32;
            for (t, &(kind, x)) in steps.iter().enumerate() {
                let seq = match kind {
                    // In order, past a gap, a little ahead, or behind.
                    0 => next,
                    1 => next + x,
                    2 => next + x % 8,
                    _ => x % next.max(1),
                };
                next = next.max(seq + 1);
                let now = t as u64;
                let first = seen.insert(seq);
                if first {
                    arrivals.push(now);
                }
                proptest::prop_assert_eq!(s.record_delivery(0, seq, now), first);
            }
            let f = s.flow(0);
            proptest::prop_assert_eq!(&f.arrivals, &arrivals);
            proptest::prop_assert_eq!(f.duplicates, (steps.len() - seen.len()) as u64);
            let mut gaps = Vec::new();
            let mut floor = 0u32;
            for &seq in &seen {
                if seq > floor {
                    gaps.push((floor, seq));
                }
                floor = seq + 1;
            }
            proptest::prop_assert_eq!(&f.missing, &gaps);
            proptest::prop_assert_eq!(f.high, u64::from(floor));
            proptest::prop_assert!(f.check().is_ok());
        }
    }

    /// Restore holds a flow's ranges, `high` and arrivals to each other.
    #[test]
    fn restore_refuses_a_flow_record_that_disagrees() {
        let mut s = Stats::default();
        s.ensure_flows(1);
        for seq in [0, 1, 4, 5, 9] {
            s.record_delivery(0, seq, u64::from(seq));
        }
        let good = s.flows[0].clone();
        assert_eq!(good.missing, [(2, 4), (6, 9)]);
        let load = |f: &FlowStats| {
            let mut w = CkptWriter::new();
            w.put(f);
            let bytes = w.finish();
            CkptReader::new(&bytes)?.get::<FlowStats>().map(drop)
        };
        load(&good).expect("a recorded flow");
        type Edit = (&'static str, fn(&mut FlowStats));
        let edits: [Edit; 8] = [
            ("high one up", |f| f.high += 1),
            ("high at a missing seq", |f| f.high = 8),
            ("an empty range", |f| f.missing.insert(0, (1, 1))),
            ("ranges touching", |f| f.missing[1].0 = 4),
            ("ranges descending", |f| f.missing.swap(0, 1)),
            ("a range grown", |f| f.missing[0].0 = 1),
            ("an arrival more", |f| f.arrivals.push(10)),
            ("arrivals out of order", |f| f.arrivals.swap(0, 1)),
        ];
        for (what, edit) in edits {
            let mut bad = good.clone();
            edit(&mut bad);
            assert!(matches!(load(&bad), Err(CkptError::Malformed(_))), "{what}");
        }
    }

    #[test]
    fn vpkt_got_map_is_capped_with_cumulative_counts() {
        let mut s = Stats::default();
        let extra = 100u32;
        for seq in 0..(VpktStats::MAX_GOT as u32 + extra) {
            s.vpkt_received(0, 1, seq, false);
        }
        let v = s.vpkt_stats(0, 1).unwrap();
        assert_eq!(v.got.len(), VpktStats::MAX_GOT);
        assert_eq!(
            v.headers_total,
            VpktStats::MAX_GOT as u64 + u64::from(extra)
        );
        assert_eq!(v.either_total, VpktStats::MAX_GOT as u64 + u64::from(extra));
        assert_eq!(v.trailer_count(), 0);
        assert_eq!(v.evicted, u64::from(extra));
        assert_eq!(s.counter(CounterId::StatsVpktEvicted), u64::from(extra));
        // Re-flagging an evicted seq recreates an entry but does not
        // double-count the header.
        let before = s.vpkt_stats(0, 1).unwrap().headers_total;
        s.vpkt_received(0, 1, 0, true);
        let v = s.vpkt_stats(0, 1).unwrap();
        assert_eq!(v.headers_total, before); // trailer, not header
        assert_eq!(v.trailer_count(), 1);
    }

    #[test]
    fn typed_counters_and_gauges() {
        let mut s = Stats::default();
        s.bump(CounterId::SimTx);
        s.bump(CounterId::SimTx);
        s.add(CounterId::CmapDefer, 5);
        assert_eq!(s.counter(CounterId::SimTx), 2);
        assert_eq!(s.counter(CounterId::CmapDefer), 5);
        assert_eq!(s.counter(CounterId::DcfDrop), 0);
        assert_eq!(s.counters_sorted(), vec![("cmap.defer", 5), ("sim.tx", 2)]);
        s.set_gauge(GaugeId::SimSchedPending, 7);
        assert_eq!(s.gauge(GaugeId::SimSchedPending), 7);
        assert_eq!(s.gauge(GaugeId::SimInflightTx), 0);
        let snap = s.snapshot();
        assert!(snap.contains("counter cmap.defer=5\n"), "{snap}");
        assert!(snap.contains("gauge sim.sched_pending=7\n"), "{snap}");
        assert!(!snap.contains("sim.inflight_tx"), "{snap}");
    }

    #[test]
    fn trace_sink_is_off_by_default_and_bounded_when_on() {
        let mut s = Stats::default();
        assert!(!s.trace_enabled());
        s.emit(
            10,
            TraceEvent::FallbackToCsma {
                node: 0,
                timeout_streak: 1,
            },
        );
        assert!(s.trace().is_none());
        s.enable_trace(2);
        assert!(s.trace_enabled());
        for i in 0..5u64 {
            s.emit(
                i,
                TraceEvent::FallbackToCsma {
                    node: 0,
                    timeout_streak: 1,
                },
            );
        }
        let t = s.trace().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // Trace contents never appear in the behavioural snapshot.
        assert!(!s.snapshot().contains("fallback_to_csma"));
        let sink = s.take_trace().unwrap();
        assert_eq!(sink.emitted(), 5);
        assert!(!s.trace_enabled());
    }

    #[test]
    fn checkpoint_round_trips_and_refuses_hostile_lengths() {
        let mut s = Stats::default();
        s.ensure_flows(2);
        s.record_delivery(1, 0, 10);
        s.record_delivery(1, 2, 20);
        s.vpkt_sent(1, 2);
        s.vpkt_received(1, 2, 0, true);
        s.bump(CounterId::SimTx);
        s.set_gauge(GaugeId::SimSchedPending, 3);
        let mut w = CkptWriter::new();
        s.save(&mut w);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        let back = Stats::load(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.snapshot(), s.snapshot());
        assert_eq!(back.flows[1].missing, [(1, 2)]);

        // A flow count of 2^30 with nothing behind it: once sized a
        // 64 GiB `Vec` and aborted the process.
        let mut w = CkptWriter::new();
        w.put(&(1u64 << 30));
        let blob = w.finish();
        assert_eq!(blob.len(), 29);
        let mut r = CkptReader::new(&blob).unwrap();
        assert_eq!(Stats::load(&mut r).unwrap_err(), CkptError::Truncated);

        // One flow claiming 2^30 arrivals: once asked for 8 GiB.
        let mut w = CkptWriter::new();
        w.put(&1u64);
        w.put(&(1u64 << 30));
        let blob = w.finish();
        let mut r = CkptReader::new(&blob).unwrap();
        assert_eq!(Stats::load(&mut r).unwrap_err(), CkptError::Truncated);
    }
}
