//! The traced run: per-layer metrics for one workload.
//!
//! A few untraced reps give the wall to compare against; one traced rep
//! (every MAC wrapped in a [`TracedMac`](crate::traced::TracedMac)) gives
//! MAC spans, exact counts and the inputs of the replays. A replay times
//! one layer's public entry point in isolation, fed from that same rep:
//! the scheduler with the rep's event mix and occupancy, the medium over
//! the rep's real fan-out pairs, the BER table over SINRs around the
//! rep's link SNRs, the wire codec over frames the rep received. Unit
//! cost × the rep's count ÷ wall is the layer's estimated share; what no
//! row claims is reported as `ledger.unattributed_share`.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use cmap_core::DeferTable;
use cmap_mac80211::timing::{CW_MIN, DIFS_NS, SLOT_NS};
use cmap_obs::{rss, CounterId, GaugeId};
use cmap_phy::{BerTable, Rate};
use cmap_sim::event::{Event, Scheduler};
use cmap_sim::rng::{normal, stream_rng};
use cmap_sim::time::{secs, Time};
use cmap_sim::{Medium, NodeId, World};
use cmap_wire::cmap::InterfererEntry;
use cmap_wire::view::compose;
use cmap_wire::{crc, FrameView, MacAddr};
use rand::Rng;

use crate::heap;
use crate::metrics::{median, percentile, Report};
use crate::run::{reference_digest, rep_seed, run_rep, untouched, Outcome, Rep};
use crate::traced::{calibrate, Recorder, SpanCost, SpanKind};
use crate::workload::{MacKind, Workload};

/// Fewest untraced reps the traced rep's wall is compared against; more
/// are run until half of `--seconds` is spent.
const MIN_UNTRACED_REPS: usize = 3;
/// Operations per replay loop: enough that a loop runs for milliseconds.
const REPLAY_OPS: u64 = 2_000_000;

const MIB: f64 = 1024.0 * 1024.0;

/// Memory readings around one untraced rep.
#[derive(Clone, Copy)]
struct MemSample {
    /// Most heap bytes live at once during the rep (process level).
    peak_heap_mib: f64,
    /// Heap bytes still live after the rep's world was dropped.
    heap_after_mib: f64,
    /// `VmHWM` after the rep.
    peak_rss_mib: f64,
    /// `VmRSS` after the rep's world was dropped.
    rss_after_mib: f64,
}

/// Nanoseconds per call of `op` over `n` calls.
fn ns_per(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Scheduler replay: hold the queue at the rep's peak occupancy and time
/// one pop plus one schedule, kinds mixed as the rep's events were.
fn sched_ns_per_op(counts: &[(&'static str, u64)], occupancy: u64, frame_airtime: Time) -> f64 {
    let count = |kind: &str| counts.iter().find(|c| c.0 == kind).map_or(0, |c| c.1);
    let mix = [
        count("timer"),
        count("tx_end"),
        count("frame_start"),
        count("frame_end"),
    ];
    let total: u64 = mix.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // A fixed table of (event, delay) drawn ahead of the timed loop.
    let mut rng = stream_rng(0x5c4ed, 0);
    let table: Vec<(Event, Time)> = (0..1 << 16)
        .map(|i| {
            let node = NodeId::new(i % 50);
            let mut pick = rng.gen_range(0..total);
            let kind = mix
                .iter()
                .position(|&c| {
                    if pick < c {
                        true
                    } else {
                        pick -= c;
                        false
                    }
                })
                .expect("pick < total");
            match kind {
                0 => (
                    Event::Timer {
                        node,
                        token: i as u64,
                    },
                    DIFS_NS + SLOT_NS * rng.gen_range(0..=u64::from(CW_MIN)),
                ),
                1 => (
                    Event::TxEnd {
                        node,
                        tx_id: i as u64,
                    },
                    frame_airtime,
                ),
                // Propagation across a building or a few city blocks.
                2 => (
                    Event::FrameStart {
                        rx: node,
                        tx_id: i as u64,
                    },
                    rng.gen_range(30..1000),
                ),
                _ => (
                    Event::FrameEnd {
                        rx: node,
                        tx_id: i as u64,
                    },
                    frame_airtime,
                ),
            }
        })
        .collect();
    let mut sched = Scheduler::new();
    let mut next = 0usize;
    for _ in 0..occupancy.max(1) {
        let (ev, delay) = table[next % table.len()];
        sched.schedule(delay, ev);
        next += 1;
    }
    ns_per(REPLAY_OPS, |_| {
        let (now, ev) = sched.pop().expect("occupancy held");
        black_box(ev);
        let (ev, delay) = table[next % table.len()];
        sched.schedule(now + delay, ev);
        next += 1;
    })
}

/// Σ over transmitting nodes of transmissions × reachable receivers, and
/// the `(src, rx)` pairs those transmissions fanned out to.
fn fanout(medium: &Medium, tx_by_node: &[u64]) -> (u64, Vec<(NodeId, NodeId)>) {
    let mut edges = 0;
    let mut pairs = Vec::new();
    for (n, &tx) in tx_by_node.iter().enumerate() {
        if tx == 0 {
            continue;
        }
        let src = NodeId::new(n);
        let reach = medium.reachable(src);
        edges += tx * reach.len() as u64;
        pairs.extend(reach.iter().map(|&rx| (src, rx)));
    }
    (edges, pairs)
}

/// Linear SINRs around the rep's link SNRs: each link's mean SNR plus a
/// per-frame fading draw, as the radio grades them.
fn link_sinrs(rep: &Rep) -> Vec<f64> {
    let phy = &rep.scenario.phy;
    let medium = rep.world.medium();
    let flows = rep.world.flows();
    let mut rng = stream_rng(rep.scenario.run_seed, 0x51a2);
    (0..4096)
        .map(|i| {
            let f = &flows[i % flows.len()];
            let snr_db = medium.rss_dbm(f.src, f.dst) - phy.noise_floor_dbm;
            let db = normal(&mut rng, snr_db, phy.fading_sigma_db);
            10f64.powf(db / 10.0)
        })
        .collect()
}

/// Re-compose `view` into `buf` from its own fields.
fn recompose(
    buf: &mut Vec<u8>,
    view: &FrameView<'_>,
    bitmaps: &mut Vec<u32>,
    il: &mut Vec<InterfererEntry>,
) {
    match view {
        FrameView::CmapHeader(v) | FrameView::CmapTrailer(v) => compose::header_trailer(
            buf,
            view.kind(),
            v.src(),
            v.dst(),
            v.tx_time_us(),
            v.vpkt_seq(),
            v.pkt_count(),
            v.data_rate(),
        ),
        FrameView::CmapData(v) => compose::cmap_data(
            buf,
            v.src(),
            v.dst(),
            v.vpkt_seq(),
            v.index(),
            v.flow(),
            v.flow_seq(),
            v.payload().len(),
            v.payload().first().copied().unwrap_or(0),
        ),
        FrameView::CmapAck(v) => {
            bitmaps.clear();
            bitmaps.extend((0..v.bitmap_count()).map(|i| v.bitmap(i)));
            il.clear();
            il.extend(v.il_entries());
            compose::cmap_ack(
                buf,
                v.src(),
                v.dst(),
                v.base_vpkt_seq(),
                bitmaps,
                v.loss_rate(),
                il,
            );
        }
        FrameView::CmapInterfererList(v) => {
            il.clear();
            il.extend(v.entries());
            compose::interferer_list(buf, v.src(), il);
        }
        FrameView::Dot11Data(v) => compose::dot11_data(
            buf,
            v.src(),
            v.dst(),
            v.seq(),
            v.retry(),
            v.duration_ns(),
            v.flow(),
            v.flow_seq(),
            v.payload().len(),
            v.payload().first().copied().unwrap_or(0),
        ),
        FrameView::Dot11Ack(v) => compose::dot11_ack(buf, v.dst()),
    }
}

struct WireCosts {
    parse_ns: f64,
    parse_checked_ns: f64,
    compose_ns: f64,
    crc_mb_per_s: f64,
}

/// Wire replay over the frames the traced rep received.
fn wire_costs(frames: &[Vec<u8>]) -> Option<WireCosts> {
    if frames.is_empty() {
        return None;
    }
    let frame = |i: u64| frames[i as usize % frames.len()].as_slice();
    let ops = REPLAY_OPS / 4;
    let parse_ns = ns_per(ops, |i| {
        black_box(FrameView::parse(black_box(frame(i))).expect("frame the engine delivered"));
    });
    let parse_checked_ns = ns_per(ops, |i| {
        black_box(FrameView::parse_checked(black_box(frame(i))).expect("frame with a valid CRC"));
    });
    let (mut buf, mut bitmaps, mut il) = (Vec::new(), Vec::new(), Vec::new());
    let compose_ns = ns_per(ops, |i| {
        let view = FrameView::parse(frame(i)).expect("frame the engine delivered");
        recompose(&mut buf, &view, &mut bitmaps, &mut il);
        black_box(buf.len());
    }) - parse_ns;
    assert_eq!(
        buf,
        frame(ops - 1),
        "compose from a view's fields must reproduce its bytes"
    );
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let rounds = (64 << 20) / bytes.max(1) + 1;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for f in frames {
            black_box(crc::crc32(black_box(f)));
        }
    }
    let crc_mb_per_s = (bytes * rounds) as f64 / 1e6 / t0.elapsed().as_secs_f64();
    Some(WireCosts {
        parse_ns,
        parse_checked_ns,
        compose_ns: compose_ns.max(0.0),
        crc_mb_per_s,
    })
}

/// `DeferTable::must_defer` over a 200-entry table, half the probes hits.
fn defer_lookup_ns() -> f64 {
    let addr = |i: u64| MacAddr::from_node_index(i as u16);
    let mut table = DeferTable::new();
    for i in 0..100 {
        table.apply_rule1(addr(i), addr(i + 100), Rate::R6, secs(10));
        table.apply_rule2(addr(i), addr(i + 100), Rate::R6, secs(10));
    }
    ns_per(REPLAY_OPS, |i| {
        let k = i % 200;
        black_box(table.must_defer(addr(k), addr(k + 100), addr(k), secs(1), None));
    })
}

/// Median wall of `Stats::snapshot()` on the rep's final world.
fn snapshot_us(world: &World) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(world.stats().snapshot());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// What the untraced reps of the traced run measured.
struct Untraced {
    /// Digest the traced rep must reproduce.
    reference: u64,
    nodes: usize,
    wall_s: Vec<f64>,
    mem: Vec<MemSample>,
    checkpoint_us: Vec<f64>,
    restore_us: Vec<f64>,
    /// Per rep: checkpoint cycles' share of the timed region.
    ckpt_share: Vec<f64>,
    ckpt_bytes: usize,
}

/// Warm-up, then untraced reps until half of `seconds` is spent (at least
/// [`MIN_UNTRACED_REPS`]).
fn untraced_reps(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    failures: &mut Vec<String>,
) -> Untraced {
    let warm = run_rep(workload, seed, None, true, &untouched);
    let mut u = Untraced {
        reference: if workload.ckpt_every.is_some() {
            reference_digest(workload, seed, failures)
        } else {
            warm.digest
        },
        nodes: warm.world.node_count(),
        wall_s: Vec::new(),
        mem: Vec::new(),
        checkpoint_us: Vec::new(),
        restore_us: Vec::new(),
        ckpt_share: Vec::new(),
        ckpt_bytes: 0,
    };
    drop(warm);
    rss::reset_peak();
    let t0 = Instant::now();
    while u.wall_s.len() < MIN_UNTRACED_REPS || t0.elapsed().as_secs_f64() < seconds / 2.0 {
        let rep = run_rep(workload, seed, None, true, &untouched);
        u.wall_s.push(rep.wall_s);
        u.ckpt_share
            .push(rep.ckpt.total_ns as f64 / 1e9 / rep.wall_s);
        u.checkpoint_us.extend_from_slice(&rep.ckpt.checkpoint_us);
        u.restore_us.extend_from_slice(&rep.ckpt.restore_us);
        u.ckpt_bytes = rep.ckpt.bytes;
        let peak_heap = rep.peak_heap_bytes;
        drop(rep);
        u.mem.push(MemSample {
            peak_heap_mib: peak_heap as f64 / MIB,
            heap_after_mib: heap::live_bytes() as f64 / MIB,
            peak_rss_mib: rss::peak_rss_bytes().unwrap_or(0) as f64 / MIB,
            rss_after_mib: rss::current_rss_bytes().unwrap_or(0) as f64 / MIB,
        });
    }
    u
}

/// The traced rep and what every layer's report is computed from. Each
/// layer method records its metrics and returns the share of the wall the
/// ledger may add up without counting anything twice.
struct Traced<'a> {
    rep: &'a Rep,
    recorder: &'a Recorder,
    cost: SpanCost,
    /// The traced wall with what tracing itself added taken out: the
    /// denominator of every share.
    wall_ns: f64,
    events: f64,
    /// Mean wire size of a received frame.
    bytes_per_frame: f64,
}

impl Traced<'_> {
    fn new<'a>(rep: &'a Rep, recorder: &'a Recorder) -> Traced<'a> {
        let cost = calibrate(1_000_000);
        let spans = recorder.total_calls() as f64;
        let (frames_rx, frame_bytes) = recorder.frames_rx();
        Traced {
            rep,
            recorder,
            cost,
            wall_ns: (rep.wall_s * 1e9 - spans * cost.total_ns).max(1.0),
            events: rep.world.events_processed() as f64,
            bytes_per_frame: frame_bytes as f64 / (frames_rx as f64).max(1.0),
        }
    }

    /// Events the engine processed of `kind`.
    fn count(&self, kind: &str) -> f64 {
        let counts = self.rep.world.event_counts();
        counts.iter().find(|c| c.0 == kind).map_or(0, |c| c.1) as f64
    }

    fn counter(&self, id: CounterId) -> f64 {
        self.rep.world.stats().counter(id) as f64
    }

    /// MAC span time with the clock reads inside the spans taken out.
    fn mac_self_ns(&self) -> f64 {
        let spans = self.recorder.total_calls() as f64;
        (self.recorder.total_raw_ns() as f64 - spans * self.cost.inside_ns).max(0.0)
    }

    fn sim(&self, report: &mut Report, untraced_wall: &[f64]) {
        let world = &self.rep.world;
        let (events, n) = (self.events, untraced_wall.len());
        let untraced_s = median(untraced_wall);
        report.set("sim.events", events, 1);
        report.set("sim.events_per_s", events / untraced_s, n);
        report.set("sim.events_per_sim_s", events / self.rep.sim_s(), 1);
        for kind in ["timer", "tx_end", "frame_start", "frame_end"] {
            report.set(&format!("sim.events.{kind}"), self.count(kind), 1);
        }
        report.set("sim.ns_per_event", untraced_s * 1e9 / events, n);
        let engine_ns = self.wall_ns - self.mac_self_ns() - self.rep.ckpt.total_ns as f64;
        report.set("sim.engine_self_ns_per_event", engine_ns / events, 1);
        report.set("sim.trace_overhead_ratio", self.rep.wall_s / untraced_s, 1);
        report.set("sim.pool_high_water", world.pool_high_water() as f64, 1);
        report.set("sim.pool_recycled", world.pool_recycled() as f64, 1);
    }

    fn wire(&self, report: &mut Report) -> f64 {
        let frames_rx = self.recorder.frames_rx().0 as f64;
        report.set("wire.frames_rx", frames_rx, 1);
        report.set("wire.bytes_per_frame", self.bytes_per_frame, 1);
        let Some(w) = wire_costs(&self.recorder.sampled_frames()) else {
            return 0.0;
        };
        report.set("wire.parse_ns_per_frame", w.parse_ns, 1);
        report.set("wire.parse_checked_ns_per_frame", w.parse_checked_ns, 1);
        report.set("wire.compose_ns_per_frame", w.compose_ns, 1);
        report.set("wire.crc_mb_per_s", w.crc_mb_per_s, 1);
        // Frames are viewed by the engine but composed inside MAC
        // callbacks; the ledger must not count the second part twice.
        let engine_share = w.parse_ns * frames_rx / self.wall_ns;
        let compose_share = w.compose_ns * self.counter(CounterId::SimTx) / self.wall_ns;
        report.set("wire.est_share", engine_share + compose_share, 1);
        engine_share
    }

    fn event(&self, report: &mut Report) -> f64 {
        let stats = self.rep.world.stats();
        let occupancy = stats.gauge(GaugeId::SimSchedMaxOccupancy);
        let airtime = Rate::R6.frame_airtime_ns(self.bytes_per_frame as usize);
        let sched_ns = sched_ns_per_op(&self.rep.world.event_counts(), occupancy, airtime);
        let share = sched_ns * self.events / self.wall_ns;
        report.set("event.sched_ns_per_op", sched_ns, 1);
        report.set(
            "event.cascades_per_kevent",
            self.counter(CounterId::SimSchedCascades) * 1000.0 / self.events,
            1,
        );
        report.set("event.max_occupancy", occupancy as f64, 1);
        report.set("event.est_share", share, 1);
        share
    }

    fn medium(&self, report: &mut Report) -> f64 {
        let medium = self.rep.world.medium();
        let (edges, pairs) = fanout(medium, &self.recorder.tx_done_by_node());
        let tx_done = self.recorder.calls(SpanKind::OnTxDone) as f64;
        let (links, pruned, bound_db) = match medium.sparse_stats() {
            Some(s) => (s.links as f64, s.pruned as f64, s.error_bound_db),
            None => {
                let nodes = (0..medium.len()).map(NodeId::new);
                let links: usize = nodes.map(|n| medium.reachable(n).len()).sum();
                (links as f64, 0.0, 0.0)
            }
        };
        let rss_ns = if pairs.is_empty() {
            0.0
        } else {
            ns_per(REPLAY_OPS, |i| {
                let (s, r) = pairs[i as usize % pairs.len()];
                black_box(medium.rss_mw(s, r));
            })
        };
        // One gain lookup per frame edge the fan-out schedules.
        let share = rss_ns * self.count("frame_start") / self.wall_ns;
        report.set("medium.build_s", self.rep.phases.medium_build_s, 1);
        report.set("medium.links", links, 1);
        report.set("medium.pruned", pruned, 1);
        report.set("medium.error_bound_db", bound_db, 1);
        report.set("medium.fanout_per_tx", edges as f64 / tx_done.max(1.0), 1);
        report.set("medium.rss_lookup_ns", rss_ns, 1);
        report.set("medium.est_share", share, 1);
        share
    }

    fn phy(&self, report: &mut Report) -> f64 {
        let sinrs = link_sinrs(self.rep);
        let sinr = |i: u64| black_box(sinrs[i as usize % sinrs.len()]);
        let table = BerTable::shared();
        let ber_ns = ns_per(REPLAY_OPS, |i| {
            black_box(table.ber(sinr(i), Rate::R6));
        });
        let payload = self.rep.scenario.workload.payload;
        let per_ns = ns_per(REPLAY_OPS / 100, |i| {
            black_box(cmap_phy::packet_success_prob(sinr(i), Rate::R6, payload));
        });
        let lookups = self.rep.world.ber_lookups() as f64;
        let share = ber_ns * lookups / self.wall_ns;
        report.set("phy.ber_lookups", lookups, 1);
        report.set("phy.ber_lookups_per_event", lookups / self.events, 1);
        report.set("phy.ber_ns_per_lookup", ber_ns, 1);
        report.set("phy.per_ns_per_call", per_ns, 1);
        report.set("phy.est_share", share, 1);
        share
    }

    /// `core` or `mac80211`, whichever the workload runs; the other layer
    /// is absent from the report.
    fn mac(&self, report: &mut Report) -> f64 {
        let world = &self.rep.world;
        let mac = self.rep.scenario.workload.mac;
        let layer = match mac {
            MacKind::Cmap => "core",
            MacKind::Dcf => "mac80211",
        };
        for kind in SpanKind::REPORTED {
            let calls = self.recorder.calls(kind);
            report.set(&format!("{layer}.calls.{}", kind.name()), calls as f64, 1);
            let raw_ns = self.recorder.raw_ns(kind) as f64 / (calls as f64).max(1.0);
            report.set(
                &format!("{layer}.ns_per_call.{}", kind.name()),
                (raw_ns - self.cost.inside_ns).max(0.0),
                calls as usize,
            );
        }
        let share = self.mac_self_ns() / self.wall_ns;
        report.set(&format!("{layer}.share"), share, 1);
        let per = |num: CounterId, den: f64| self.counter(num) / den.max(1.0);
        match mac {
            MacKind::Cmap => {
                let tx = self.counter(CounterId::SimTx);
                let vpkts = self.counter(CounterId::CmapTxVpkt);
                report.set("core.defers_per_tx", per(CounterId::CmapDefer, tx), 1);
                report.set("core.rtx_per_vpkt", per(CounterId::CmapRtxVpkt, vpkts), 1);
                report.set(
                    "core.il_broadcasts",
                    self.counter(CounterId::CmapIlBroadcast),
                    1,
                );
                let nodes = world.node_count();
                let mut state = Vec::new();
                for n in 0..nodes {
                    world.mac_ref(n).save_state(&mut state);
                }
                report.set(
                    "core.state_bytes_per_node",
                    state.len() as f64 / nodes as f64,
                    nodes,
                );
                report.set("core.defer_lookup_ns", defer_lookup_ns(), 1);
            }
            MacKind::Dcf => {
                let data = self.counter(CounterId::DcfTxData);
                let rx_errors = self.recorder.calls(SpanKind::OnRxError) as f64;
                report.set("mac80211.retx_per_tx", per(CounterId::DcfRetx, data), 1);
                report.set(
                    "mac80211.eifs_per_rx_error",
                    per(CounterId::DcfEifs, rx_errors),
                    1,
                );
            }
        }
        share
    }

    /// Checkpoint cycles (`ckpt_cycle` only): percentiles over every cycle
    /// of the untraced reps, the share from the traced rep itself.
    fn ckpt(&self, report: &mut Report, u: &Untraced) -> f64 {
        if u.checkpoint_us.is_empty() {
            return 0.0;
        }
        let n = u.checkpoint_us.len();
        report.set("ckpt.checkpoint_us_p50", median(&u.checkpoint_us), n);
        report.set(
            "ckpt.checkpoint_us_p99",
            percentile(&u.checkpoint_us, 0.99),
            n,
        );
        report.set("ckpt.restore_us_p50", median(&u.restore_us), n);
        report.set("ckpt.restore_us_p99", percentile(&u.restore_us, 0.99), n);
        report.set("ckpt.bytes", u.ckpt_bytes as f64, 1);
        report.set("ckpt.cycles", self.rep.ckpt.checkpoint_us.len() as f64, 1);
        report.set("ckpt.share", median(&u.ckpt_share), u.ckpt_share.len());
        self.rep.ckpt.total_ns as f64 / self.wall_ns
    }
}

/// Memory over the first [`MIN_UNTRACED_REPS`] reps, so that the numbers
/// do not depend on how many more the time budget allowed.
fn mem(report: &mut Report, samples: &[MemSample]) {
    let (first, last) = (samples[0], samples[MIN_UNTRACED_REPS - 1]);
    let steps = MIN_UNTRACED_REPS - 1;
    let per_rep = |from: f64, to: f64| (to - from) / steps as f64;
    report.set("mem.peak_heap_mib", first.peak_heap_mib, 1);
    report.set(
        "mem.heap_growth_mib_per_rep",
        per_rep(first.heap_after_mib, last.heap_after_mib),
        steps,
    );
    report.set("mem.peak_rss_mib", first.peak_rss_mib, 1);
    report.set(
        "mem.rss_growth_mib_per_rep",
        per_rep(first.rss_after_mib, last.rss_after_mib),
        steps,
    );
}

/// The traced run of `workload`: every per-layer metric, spans dumped to
/// `<out_dir>/<workload>.trace.jsonl`.
pub fn per_layer(workload: &'static Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut failures = Vec::new();
    // One simulation seed throughout (the untraced run's first), so that
    // traced and untraced reps are the same simulation.
    let seed = rep_seed(seed, 0);
    let untraced = untraced_reps(workload, seed, seconds, &mut failures);

    let recorder = Recorder::new(untraced.nodes);
    let rep = run_rep(workload, seed, Some(&recorder), true, &untouched);
    failures.extend(rep.failures.iter().map(|f| format!("traced rep: {f}")));
    if rep.digest != untraced.reference {
        failures.push(format!(
            "traced digest {:016x} != untraced {:016x}",
            rep.digest, untraced.reference
        ));
    }

    let traced = Traced::new(&rep, &recorder);
    let mut report = Report::default();
    traced.sim(&mut report, &untraced.wall_s);
    let attributed = traced.wire(&mut report)
        + traced.event(&mut report)
        + traced.medium(&mut report)
        + traced.phy(&mut report)
        + traced.mac(&mut report)
        + traced.ckpt(&mut report, &untraced);
    report.set("ledger.attributed_share", attributed, 1);
    report.set("ledger.unattributed_share", 1.0 - attributed, 1);
    mem(&mut report, &untraced.mem);
    report.set("topo.generate_s", rep.phases.generate_s, 1);
    report.set("topo.measure_s", rep.phases.measure_s, 1);
    report.set("stats.snapshot_us", snapshot_us(&rep.world), 5);
    let counters = rep.world.stats().counters_sorted().len();
    report.set("stats.nonzero_counters", counters as f64, 1);

    if let Err(e) = dump_spans(&recorder, out_dir, workload.name) {
        failures.push(format!("span dump: {e}"));
    }
    Outcome {
        report,
        attempted: rep.attempted,
        failures,
        digest: untraced.reference,
        reps: 1,
        notes: vec![format!(
            "span_cost_ns inside {:.1} total {:.1} ({} spans, {} untraced reps)",
            traced.cost.inside_ns,
            traced.cost.total_ns,
            recorder.total_calls(),
            untraced.wall_s.len()
        )],
    }
}

fn dump_spans(recorder: &Recorder, out_dir: &Path, workload: &str) -> std::io::Result<()> {
    fs::create_dir_all(out_dir)?;
    let file = File::create(out_dir.join(format!("{workload}.trace.jsonl")))?;
    recorder.dump(&mut BufWriter::new(file), workload)
}
