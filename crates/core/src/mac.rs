//! The CMAP MAC: channel access, windowed retransmission, loss-rate backoff.
//!
//! Sender path (pseudocode of Fig 6):
//!
//! ```text
//! while data to send and N_outstanding < N_window {
//!     while defer table does not permit {
//!         wait until end of current transmission + t_deferwait
//!     }
//!     transmit virtual packet (header, N_vpkt data packets, trailer)
//!     wait up to t_ackwait for an ACK
//!     wait for a backoff duration in [0, CW]
//! }
//! // window full: time out U(τ_min, τ_max), repack unACKed packets, retransmit
//! ```
//!
//! Receiver path: deliver data, track per-virtual-packet bitmaps, and after
//! each trailer send a cumulative ACK carrying the bitmap and the observed
//! loss rate (Fig 7's input). Losses are attributed to overheard concurrent
//! transmitters to build the interferer list (§3.1), which is broadcast
//! periodically so conflicting senders can populate their defer tables.
//!
//! Every node also runs the promiscuous bookkeeping: the ongoing list from
//! headers/trailers/data, and activity windows for interference attribution.

#![deny(clippy::unwrap_used)]

use rand::Rng;

use cmap_obs::{CounterId, TraceEvent};
use cmap_sim::ckpt;
use cmap_sim::time::{micros, millis, ns_to_us_ceil, Time};
use cmap_sim::{persist, CkptError, Mac, NodeCtx, RxInfo};
use cmap_wire::cmap;
use cmap_wire::view::{compose, HeaderTrailerView};
use cmap_wire::{FrameKind, FrameView, MacAddr};

use crate::config::{
    CmapConfig, ACK_TURNAROUND, CONTROL_RATE, CSMA_FALLBACK_AFTER, CW_MAX, CW_START,
    DEFER_ENTRY_TIMEOUT, INTERFERER_MIN_SAMPLES, INTERFERER_TIMEOUT, L_BACKOFF, MAP_STALE_AFTER,
    MAX_DEFER_WAIT, MAX_RTX_ROUNDS, N_VPKT, PEER_STATE_TIMEOUT, SW_JITTER, T_ACKWAIT, T_DEFERWAIT,
};
use crate::defer_table::DeferTable;
use crate::interferer::InterfererTracker;
use crate::ongoing::OngoingList;
use crate::rate_control::ThroughputRate;
use crate::vpkt::{DataPkt, Inline, PeerRx, SendWindow, SentVpkt};

const CLASS_ACKWAIT: u64 = 1;
const CLASS_BACKOFF: u64 = 2;
const CLASS_DEFER: u64 = 3;
const CLASS_RTX: u64 = 4;
const CLASS_BCAST: u64 = 5;
const CLASS_ACKSEND: u64 = 6;
const CLASS_VPKTEND: u64 = 7;

const GEN_MASK: u64 = (1 << 56) - 1;

/// The contention window after a lossy virtual packet: `CW_START` from
/// zero, else doubled up to `CW_MAX` (§3.4).
fn grow_cw(cw: Time) -> Time {
    if cw == 0 {
        CW_START
    } else {
        (cw * 2).min(CW_MAX)
    }
}

fn token(class: u64, gen: u64) -> u64 {
    (class << 56) | (gen & GEN_MASK)
}

fn untoken(token: u64) -> (u64, u64) {
    (token >> 56, token & GEN_MASK)
}

/// Sender-path state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SState {
    /// Nothing in flight; may start a virtual packet.
    Idle,
    /// Conflict found; waiting for the conflicting transmission's end plus
    /// `t_deferwait` before re-checking.
    Deferring,
    /// Virtual packet going out (header / data burst / trailer).
    TxVpkt,
    /// Trailer sent; waiting up to `t_ackwait` for the ACK.
    AckWait,
    /// Waiting the `[0, CW]` backoff between virtual packets.
    Backoff,
    /// Send window full; waiting `U(τ_min, τ_max)` before repacking.
    RtxWait,
}

persist!(enum SState {
    0 => Idle,
    1 => Deferring,
    2 => TxVpkt,
    3 => AckWait,
    4 => Backoff,
    5 => RtxWait,
});

/// Which of our own frames is on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InFlight {
    Idle,
    Header,
    Data { idx: usize },
    Trailer,
    Ack,
    Broadcast,
}

persist!(enum InFlight {
    0 => Idle,
    1 => Header,
    2 => Data { idx },
    3 => Trailer,
    4 => Ack,
    5 => Broadcast,
});

/// The virtual packet currently being placed on the air (or deferred).
/// Its one list is the send window's spare, taken and recycled per use;
/// being in every MAC, it is not an [`Inline`] one.
struct CurVpkt {
    dst: MacAddr,
    seq: u32,
    pkts: Vec<DataPkt>,
    is_rtx: bool,
    rate: cmap_phy::Rate,
    /// Retransmission rounds the packets have already been through.
    rounds: u32,
}

persist!(struct CurVpkt { dst, seq, pkts, is_rtx, rate, rounds }, validate CurVpkt::check);

impl CurVpkt {
    /// A restored virtual packet carries 1..=`N_VPKT` packets, as every
    /// one `try_send` builds does: it becomes a [`SentVpkt`].
    fn check(&self) -> Result<(), CkptError> {
        if !(1..=N_VPKT).contains(&self.pkts.len()) {
            return Err(CkptError::Malformed(format!(
                "current virtual packet of {} packets",
                self.pkts.len()
            )));
        }
        Ok(())
    }

    /// Hand this to `window` as a [`SentVpkt`] sent at `sent_at`, and its
    /// list back for the next one.
    fn retire(self, sent_at: Time, window: &mut SendWindow) {
        window.push_sent(SentVpkt {
            dst: self.dst,
            seq: self.seq,
            pkts: self.pkts.iter().copied().collect(),
            acked: 0,
            sent_at,
            rate: self.rate,
            rounds: self.rounds,
        });
        window.recycle(self.pkts);
    }
}

/// Per-sender receive state.
#[derive(Default)]
struct PeerState {
    rx: PeerRx,
    /// Last time any frame from this sender addressed us (eviction clock).
    last_heard: Time,
}

persist!(struct PeerState { rx, last_heard });

/// A queued cumulative ACK in fixed-size storage (the wire format caps
/// bitmaps at [`cmap::MAX_ACK_WINDOW`] and piggybacked entries at
/// [`cmap::ACK_MAX_IL_ENTRIES`]), so the receive path queues and sends
/// ACKs without allocating.
#[derive(Clone, Copy)]
struct PendingAck {
    src: MacAddr,
    dst: MacAddr,
    base_vpkt_seq: u32,
    bitmaps: Inline<u32, { cmap::MAX_ACK_WINDOW }>,
    loss_rate: u8,
    il_entries: Inline<cmap::InterfererEntry, { cmap::ACK_MAX_IL_ENTRIES }>,
}

persist!(struct PendingAck { src, dst, base_vpkt_seq, bitmaps, loss_rate, il_entries });

/// The CMAP link layer (see crate docs).
pub struct CmapMac {
    cfg: CmapConfig,
    state: SState,
    cur: Option<CurVpkt>,
    window: SendWindow,
    defer: DeferTable,
    ongoing: OngoingList,
    tracker: InterfererTracker,
    peers: std::collections::BTreeMap<MacAddr, PeerState>,
    /// Contention window (ns); 0 means "transmit immediately" (§3.4).
    cw: Time,
    sender_gen: u64,
    rx_gen: u64,
    /// Broadcast-timer generation: bumped on restart so a pre-crash
    /// broadcast timer cannot spawn a second re-arming chain.
    bcast_gen: u64,
    /// ACK-wait expiries since the last ACK actually heard — one input to
    /// the stale-map carrier-sense fallback.
    consecutive_ack_timeouts: u32,
    /// Last time an interferer-list entry (broadcast or ACK-piggybacked)
    /// was applied to the defer table — the other staleness input.
    last_map_refresh: Time,
    pending_acks: std::collections::VecDeque<PendingAck>,
    /// Reusable scratch for composing interferer-list broadcasts.
    il_scratch: Vec<cmap::InterfererEntry>,
    /// Reusable scratch for the concurrent sources of a finalised vpkt.
    sources: Vec<MacAddr>,
    /// Virtual packets awaiting timer-based finalisation when trailers are
    /// disabled: (sender, seq, count, data rate, data-burst start).
    pending_finalize: std::collections::VecDeque<(MacAddr, u32, u8, cmap_phy::Rate, Time)>,
    in_flight: InFlight,
    /// The §3.5 rate adapter; without one every virtual packet goes at
    /// `cfg.data_rate`.
    rate_ctl: Option<ThroughputRate>,
}

impl CmapMac {
    /// Create a CMAP MAC with the given configuration (fixed bit-rate, the
    /// paper's evaluation setting). Panics on `n_window` 0: the window
    /// would always be full, so nothing would be sent.
    pub fn new(cfg: CmapConfig) -> CmapMac {
        assert!(
            cfg.n_window >= 1,
            "CmapConfig::n_window must be at least 1, got 0"
        );
        CmapMac {
            cfg,
            state: SState::Idle,
            cur: None,
            window: SendWindow::default(),
            defer: DeferTable::new(),
            ongoing: OngoingList::new(),
            tracker: InterfererTracker::new(),
            peers: std::collections::BTreeMap::new(),
            cw: 0,
            sender_gen: 0,
            rx_gen: 0,
            bcast_gen: 0,
            consecutive_ack_timeouts: 0,
            last_map_refresh: 0,
            pending_acks: std::collections::VecDeque::new(),
            il_scratch: Vec::new(),
            sources: Vec::new(),
            pending_finalize: std::collections::VecDeque::new(),
            in_flight: InFlight::Idle,
            rate_ctl: None,
        }
    }

    /// Create a CMAP MAC that adapts its bit-rate with `rate_ctl` (§3.5
    /// extension). Pair with `CmapConfig::rate_aware` to also match defer
    /// entries per rate.
    pub fn adaptive(cfg: CmapConfig, rate_ctl: ThroughputRate) -> CmapMac {
        CmapMac {
            rate_ctl: Some(rate_ctl),
            ..CmapMac::new(cfg)
        }
    }

    /// The defer table (introspection for tests/harnesses).
    pub fn defer_table(&self) -> &DeferTable {
        &self.defer
    }

    /// The receiver-side interference tracker.
    pub fn interferer_tracker(&self) -> &InterfererTracker {
        &self.tracker
    }

    /// Is the §4 safety fallback engaged at `now`? True when the conflict
    /// map has not been refreshed for `MAP_STALE_AFTER` *and* ACKs have
    /// timed out `CSMA_FALLBACK_AFTER` times in a row: the node then stops
    /// trusting the map and defers to any overheard transmission, i.e.
    /// behaves like plain carrier sense until fresh map information
    /// arrives.
    pub(crate) fn csma_fallback_active(&self, now: Time) -> bool {
        self.consecutive_ack_timeouts >= CSMA_FALLBACK_AFTER
            && now.saturating_sub(self.last_map_refresh) > MAP_STALE_AFTER
    }

    // ---- timing helpers -------------------------------------------------

    fn data_airtime(&self, payload_len: usize, rate: cmap_phy::Rate) -> Time {
        rate.frame_airtime_ns(cmap::DATA_OVERHEAD + payload_len)
    }

    fn hdr_airtime(&self) -> Time {
        CONTROL_RATE.frame_airtime_ns(cmap::HEADER_TRAILER_LEN)
    }

    fn burst_airtime(&self, pkts: &[DataPkt], rate: cmap_phy::Rate) -> Time {
        pkts.iter()
            .map(|p| self.data_airtime(p.payload_len, rate))
            .sum()
    }

    // ---- sender path -----------------------------------------------------

    fn try_send(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.state != SState::Idle || self.in_flight != InFlight::Idle {
            return;
        }
        if self.cur.is_none() {
            // Window full and nothing repacked yet: arm the retransmission
            // timeout (Fig 6's blocking point).
            let window_pkts = self.cfg.n_window * N_VPKT;
            if self.window.is_full(window_pkts) && !self.window.has_rtx() {
                ctx.stats().bump(CounterId::CmapRtxStall);
                self.state = SState::RtxWait;
                self.sender_gen += 1;
                let payload = 1400; // τ is defined on nominal packets (§3.3)
                let lo = self.cfg.tau_min(payload);
                let hi = self.cfg.tau_max(payload).max(lo + 1);
                let wait = ctx.rng().gen_range(lo..hi);
                ctx.set_timer(wait, token(CLASS_RTX, self.sender_gen));
                return;
            }
            self.cur = if let Some((dst, rtx, rounds)) = self.window.pop_rtx() {
                let mut pkts = self.window.take_list();
                pkts.extend_from_slice(&rtx);
                let seq = self.window.alloc_seq(dst);
                ctx.stats().add(CounterId::CmapRtxVpkt, 1);
                let rate = self.choose_rate(dst, ctx);
                Some(CurVpkt {
                    dst,
                    seq,
                    pkts,
                    is_rtx: true,
                    rate,
                    rounds,
                })
            } else if self.window.is_full(self.cfg.n_window * N_VPKT) {
                return; // full window, rtx already queued elsewhere
            } else {
                let Some(first) = ctx.app_pop() else {
                    return; // no data; woken by on_packet_queued
                };
                let dst_node = first.dst;
                let dst = first.dst_mac;
                let mut pkts = self.window.take_list();
                let mut next = Some(first);
                while let Some(p) = next.take() {
                    pkts.push(DataPkt {
                        flow: p.flow,
                        flow_seq: p.flow_seq,
                        payload_len: p.payload_len,
                    });
                    if pkts.len() < N_VPKT {
                        next = ctx.app_pop_to(dst_node);
                    }
                }
                let seq = self.window.alloc_seq(dst);
                let rate = self.choose_rate(dst, ctx);
                Some(CurVpkt {
                    dst,
                    seq,
                    pkts,
                    is_rtx: false,
                    rate,
                    rounds: 0,
                })
            };
            if self.cur.is_none() {
                return;
            }
        }

        // Transmission decision process (§3.2).
        let dst = self.cur.as_ref().expect("set above").dst;
        match self.check_defer(ctx, dst) {
            Some(until) => {
                ctx.stats().bump(CounterId::CmapDefer);
                let now = ctx.now();
                let fallback = self.csma_fallback_active(now);
                if fallback {
                    ctx.stats().bump(CounterId::CmapCsmaFallback);
                }
                self.state = SState::Deferring;
                self.sender_gen += 1;
                // Jitter the re-check around t_deferwait (the prototype's
                // software-MAC latency was 0.5-2 ms and effectively random):
                // without it, a deferring sender whose rival's inter-vpkt
                // gap is shorter than a fixed t_deferwait loses every race
                // and starves.
                let jitter = ctx.rng().gen_range(T_DEFERWAIT / 2..=3 * T_DEFERWAIT / 2);
                // Clamp: the ongoing list may hold a ghost end time from a
                // transmitter that died mid-burst; never sleep on it for
                // longer than MAX_DEFER_WAIT.
                let wait = (until.saturating_sub(now) + jitter).min(MAX_DEFER_WAIT);
                if ctx.trace_enabled() {
                    ctx.trace(TraceEvent::DeferDecision {
                        node: u32::try_from(ctx.node().index()).unwrap_or(u32::MAX),
                        dst: dst.node_index().unwrap_or(u16::MAX),
                        wait_ns: wait,
                        fallback,
                    });
                }
                ctx.set_timer(wait, token(CLASS_DEFER, self.sender_gen));
            }
            None => self.begin_vpkt(ctx),
        }
    }

    /// Returns the latest end time among conflicting ongoing transmissions,
    /// or `None` when transmission to `dst` may proceed now.
    fn check_defer(&self, ctx: &NodeCtx<'_>, dst: MacAddr) -> Option<Time> {
        self.check_defer_at(ctx.mac_addr(), dst, ctx.now())
    }

    /// §3.6: channel-access decision for a broadcast to the target set `v`:
    /// the transmission may proceed only if `me → v` is conflict-free for
    /// *every* intended receiver ("treated as a collection of unicast
    /// transmissions"). Returns the time to defer until, or `None` to send.
    ///
    /// The opportunistic-routing refinement (transmit if at least one
    /// forwarder is likely to receive, weighted by reception rates) is
    /// future work in the paper and is not implemented.
    pub fn check_defer_broadcast(
        &self,
        me: MacAddr,
        targets: &[MacAddr],
        now: Time,
    ) -> Option<Time> {
        targets
            .iter()
            .filter_map(|&v| self.check_defer_at(me, v, now))
            .max()
    }

    /// The §3.2 transmission decision against the conflict map, for a
    /// transmission `me → dst` contemplated at `now`.
    fn check_defer_at(&self, me: MacAddr, dst: MacAddr, now: Time) -> Option<Time> {
        let stale = self.csma_fallback_active(now);
        let mut worst: Option<Time> = None;
        for e in self.ongoing.iter_at(now) {
            if e.src == me {
                continue;
            }
            let rate_filter = self.cfg.rate_aware.then_some(e.rate);
            let conflict =
                // Stale conflict map: trust nothing, defer to every
                // overheard transmission (carrier-sense behaviour).
                stale
                // v must be neither sending nor receiving (§3.2)...
                || e.src == dst || e.dst == dst
                // ...nor may we blow away a reception addressed to us
                // (half-duplex radio).
                || e.dst == me
                // Defer patterns 1 and 2 against the conflict map.
                || self.defer.must_defer(dst, e.src, e.dst, now, rate_filter);
            if conflict {
                worst = Some(worst.map_or(e.until, |w: Time| w.max(e.until)));
            }
        }
        worst
    }

    fn begin_vpkt(&mut self, ctx: &mut NodeCtx<'_>) {
        let (dst, seq, count, burst_ns, rate) = {
            let cur = self.cur.as_ref().expect("begin_vpkt without vpkt");
            (
                cur.dst,
                cur.seq,
                cur.pkts.len() as u8,
                self.burst_airtime(&cur.pkts, cur.rate),
                cur.rate,
            )
        };
        let remaining = burst_ns + self.hdr_airtime(); // data + trailer
        let me = ctx.mac_addr();
        let tx_time_us = ns_to_us_ceil(remaining);
        let sent = ctx.transmit_with(CONTROL_RATE, |buf| {
            compose::header_trailer(
                buf,
                FrameKind::CmapHeader,
                me,
                dst,
                tx_time_us,
                seq,
                count,
                rate,
            );
        });
        if sent {
            self.in_flight = InFlight::Header;
            self.state = SState::TxVpkt;
            ctx.stats().bump(CounterId::CmapTxVpkt);
            if let Some(dst_node) = dst.node_index() {
                let me = ctx.node();
                ctx.stats().vpkt_sent(me, dst_node as usize);
            }
        } else {
            // Radio race (e.g. our own ACK just started): retry shortly.
            ctx.stats().bump(CounterId::CmapTxBlocked);
            self.state = SState::Deferring;
            self.sender_gen += 1;
            ctx.set_timer(millis(1), token(CLASS_DEFER, self.sender_gen));
        }
    }

    fn send_data(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        let (dst, seq, p, rate) = {
            let cur = self.cur.as_ref().expect("send_data without vpkt");
            (cur.dst, cur.seq, cur.pkts[idx], cur.rate)
        };
        let me = ctx.mac_addr();
        let sent = ctx.transmit_with(rate, |buf| {
            compose::cmap_data(
                buf,
                me,
                dst,
                seq,
                idx as u8,
                p.flow,
                p.flow_seq,
                p.payload_len,
                0xC5,
            );
        });
        if sent {
            self.in_flight = InFlight::Data { idx };
        } else {
            self.abort_vpkt(ctx);
        }
    }

    fn send_trailer(&mut self, ctx: &mut NodeCtx<'_>) {
        let (dst, tx_time_us, seq, count, rate) = {
            let cur = self.cur.as_ref().expect("send_trailer without vpkt");
            let total = 2 * self.hdr_airtime() + self.burst_airtime(&cur.pkts, cur.rate);
            (
                cur.dst,
                ns_to_us_ceil(total),
                cur.seq,
                cur.pkts.len() as u8,
                cur.rate,
            )
        };
        let me = ctx.mac_addr();
        let sent = ctx.transmit_with(CONTROL_RATE, |buf| {
            compose::header_trailer(
                buf,
                FrameKind::CmapTrailer,
                me,
                dst,
                tx_time_us,
                seq,
                count,
                rate,
            );
        });
        if sent {
            self.in_flight = InFlight::Trailer;
        } else {
            self.abort_vpkt(ctx);
        }
    }

    /// Mid-virtual-packet transmit failure (should not happen; kept
    /// graceful): packets go back through the retransmission queue.
    fn abort_vpkt(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.stats().bump(CounterId::CmapVpktAbort);
        if let Some(cur) = self.cur.take() {
            cur.retire(ctx.now(), &mut self.window);
        }
        self.state = SState::Idle;
        self.try_send(ctx);
    }

    fn vpkt_complete(&mut self, ctx: &mut NodeCtx<'_>) {
        let cur = self.cur.take().expect("trailer done without vpkt");
        if cur.is_rtx {
            ctx.stats().bump(CounterId::CmapRtxVpktDone);
        }
        cur.retire(ctx.now(), &mut self.window);
        self.state = SState::AckWait;
        self.sender_gen += 1;
        ctx.set_timer(T_ACKWAIT, token(CLASS_ACKWAIT, self.sender_gen));
    }

    fn enter_backoff(&mut self, ctx: &mut NodeCtx<'_>) {
        // Even with CW = 0 the prototype's software path added jittery
        // latency before the next virtual packet; this dither is what keeps
        // saturated senders from phase-locking (see `SW_JITTER`).
        let upper = if self.cw == 0 { SW_JITTER } else { self.cw };
        self.state = SState::Backoff;
        self.sender_gen += 1;
        let wait = ctx.rng().gen_range(0..=upper);
        ctx.set_timer(wait, token(CLASS_BACKOFF, self.sender_gen));
    }

    /// The rate for the next virtual packet to `dst`.
    fn choose_rate(&mut self, dst: MacAddr, ctx: &mut NodeCtx<'_>) -> cmap_phy::Rate {
        match &mut self.rate_ctl {
            Some(rc) => rc.choose(dst, ctx.rng()),
            None => self.cfg.data_rate,
        }
    }

    /// Feed per-rate delivery outcomes to the rate adapter (§3.5).
    fn drain_rate_feedback(&mut self) {
        if let Some(rc) = &mut self.rate_ctl {
            for &(dst, rate, acked, lost) in &self.window.feedback {
                rc.feedback(dst, rate, acked, lost);
            }
        }
        self.window.feedback.clear();
    }

    /// Fig 7: CW update from the loss rate reported in an ACK.
    fn update_cw(&mut self, ctx: &mut NodeCtx<'_>, loss: f64) {
        if !self.cfg.backoff_enabled {
            self.cw = 0;
            return;
        }
        if loss > L_BACKOFF {
            self.cw = grow_cw(self.cw);
            ctx.stats().bump(CounterId::CmapCwIncrease);
        } else {
            self.cw = 0;
        }
    }

    fn handle_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        src: MacAddr,
        base_vpkt_seq: u32,
        bitmaps: &[u32],
        loss: f64,
    ) {
        ctx.stats().bump(CounterId::CmapAckRx);
        self.consecutive_ack_timeouts = 0;
        let newly = self.window.on_ack(src, base_vpkt_seq, bitmaps);
        ctx.stats().add(CounterId::CmapPktsAcked, newly as u64);
        if newly > 0 && ctx.trace_enabled() {
            ctx.trace(TraceEvent::AckWindowSlide {
                node: u32::try_from(ctx.node().index()).unwrap_or(u32::MAX),
                peer: src.node_index().unwrap_or(u16::MAX),
                newly_acked: newly as u32,
            });
        }
        self.drain_rate_feedback();
        self.update_cw(ctx, loss);
        match self.state {
            SState::AckWait => {
                self.sender_gen += 1;
                self.enter_backoff(ctx);
            }
            SState::RtxWait if !self.window.is_full(self.cfg.n_window * N_VPKT) => {
                // The window opened up: abandon the timeout and keep going.
                self.sender_gen += 1;
                self.state = SState::Idle;
                self.try_send(ctx);
            }
            SState::Idle => self.try_send(ctx),
            _ => {}
        }
    }

    // ---- receiver path ---------------------------------------------------

    fn on_cmap_header(&mut self, ctx: &mut NodeCtx<'_>, h: &HeaderTrailerView<'_>, info: RxInfo) {
        let until = info.end + micros(u64::from(h.tx_time_us()));
        self.ongoing
            .note_header(h.src(), h.dst(), until, h.data_rate());
        self.tracker.note_activity(h.src(), info.start, until);
        if h.dst() == ctx.mac_addr() {
            let peer = self.peers.entry(h.src()).or_default();
            peer.last_heard = info.end;
            // A restarted sender numbers virtual packets from zero again;
            // without this reset the cumulative-ACK window (which never
            // slides backwards) would ignore the reborn sequence space and
            // starve the sender forever.
            // Legitimate reordering spans at most the send window; twice
            // that is comfortably conservative.
            if peer
                .rx
                .looks_rebooted(h.vpkt_seq(), 2 * self.cfg.n_window as u32)
            {
                ctx.stats().bump(CounterId::CmapPeerReset);
                peer.rx = PeerRx::default();
            }
            peer.rx.on_header(h.vpkt_seq(), h.pkt_count(), info.end);
            if let Some(src_node) = h.src().node_index() {
                let me = ctx.node();
                ctx.stats()
                    .vpkt_received(src_node as usize, me, h.vpkt_seq(), false);
            }
            if !self.cfg.send_trailers {
                // No trailer will come: finalise off the header's schedule.
                let data_air = self.data_airtime(1400, h.data_rate()).max(1);
                let wait = Time::from(h.pkt_count()) * data_air + millis(1) / 2;
                self.pending_finalize.push_back((
                    h.src(),
                    h.vpkt_seq(),
                    h.pkt_count(),
                    h.data_rate(),
                    info.end,
                ));
                ctx.set_timer(wait, token(CLASS_VPKTEND, 0));
            }
        }
    }

    fn on_cmap_trailer(&mut self, ctx: &mut NodeCtx<'_>, t: &HeaderTrailerView<'_>, info: RxInfo) {
        let now = ctx.now();
        self.ongoing.note_trailer(t.src(), now);
        let span = micros(u64::from(t.tx_time_us()));
        self.tracker
            .note_activity(t.src(), info.end.saturating_sub(span), info.end);
        if t.dst() != ctx.mac_addr() {
            return;
        }
        if let Some(src_node) = t.src().node_index() {
            let me = ctx.node();
            ctx.stats()
                .vpkt_received(src_node as usize, me, t.vpkt_seq(), true);
        }
        let data_air = self.data_airtime(1400, t.data_rate()).max(1);
        let peer = self.peers.entry(t.src()).or_default();
        peer.last_heard = info.end;
        peer.rx.on_trailer(t.vpkt_seq(), t.pkt_count());
        let fallback_t0 = info
            .start
            .saturating_sub(Time::from(t.pkt_count()) * data_air);
        self.finalize_and_ack(
            ctx,
            t.src(),
            t.vpkt_seq(),
            t.pkt_count(),
            t.data_rate(),
            fallback_t0,
        );
    }

    /// Complete a virtual packet at the receiver: attribute per-packet
    /// losses to overheard concurrent transmitters (§3.1) and queue the
    /// cumulative ACK (§3.3). Triggered by the trailer, or by a timer when
    /// trailers are disabled.
    fn finalize_and_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        src: MacAddr,
        vpkt_seq: u32,
        pkt_count: u8,
        data_rate: cmap_phy::Rate,
        fallback_t0: Time,
    ) {
        let now = ctx.now();
        let data_air = self.data_airtime(1400, data_rate).max(1);
        let (bits, t0, first_finalize) = {
            let peer = self.peers.entry(src).or_default();
            let rec = peer.rx.record(vpkt_seq).copied().unwrap_or_default();
            (
                rec.bits,
                rec.data_start.unwrap_or(fallback_t0),
                peer.rx.mark_finalized(vpkt_seq),
            )
        };
        // Attribute losses only on the *first* finalisation of this virtual
        // packet: a duplicated or reordered trailer (or a late finalise
        // timer racing a trailer) must not double-count the same losses and
        // fabricate interferers.
        if first_finalize {
            // Judge concurrency over the whole virtual-packet span (not
            // packet by packet): activity knowledge is biased toward gaps,
            // and biased per-packet samples fabricate conflicts (see
            // InterfererTracker::concurrent_sources).
            let span_end = t0 + Time::from(pkt_count) * data_air;
            self.sources.clear();
            self.sources
                .extend(self.tracker.concurrent_sources(t0, span_end, 0.5, src));
            for &x in &self.sources {
                for i in 0..pkt_count {
                    let lost = bits & (1 << i) == 0;
                    self.tracker.record_pair(
                        src,
                        x,
                        lost,
                        data_rate,
                        now,
                        self.cfg.l_interf,
                        INTERFERER_MIN_SAMPLES,
                        INTERFERER_TIMEOUT,
                    );
                }
            }
        } else {
            ctx.stats().bump(CounterId::CmapDupFinalize);
        }
        let mut bitmaps = Inline::default();
        let (base, bitmap_count, loss) = {
            let peer = self.peers.get_mut(&src).expect("created above");
            peer.rx.build_ack_into(
                vpkt_seq,
                self.cfg.n_window,
                N_VPKT as u8,
                &mut bitmaps.items,
            )
        };
        bitmaps.len = bitmap_count;
        let mut il_entries = Inline::default();
        if self.cfg.il_in_acks {
            self.tracker
                .for_each_entry_at(now, |source, interferer, source_rate| {
                    il_entries.push(cmap::InterfererEntry {
                        source,
                        interferer,
                        source_rate,
                    })
                });
        }
        self.pending_acks.push_back(PendingAck {
            src: ctx.mac_addr(),
            dst: src,
            base_vpkt_seq: base,
            bitmaps,
            loss_rate: cmap::scale_loss_rate(loss),
            il_entries,
        });
        self.rx_gen += 1;
        let turnaround = self.jittered_turnaround(ctx);
        ctx.set_timer(turnaround, token(CLASS_ACKSEND, self.rx_gen));
    }

    /// ACK turnaround with the prototype's software jitter: uniform in
    /// `ACK_TURNAROUND ± SW_JITTER / 2`.
    fn jittered_turnaround(&mut self, ctx: &mut NodeCtx<'_>) -> Time {
        let half = SW_JITTER / 2;
        ctx.rng()
            .gen_range(ACK_TURNAROUND - half..=ACK_TURNAROUND + half)
    }

    fn send_pending_ack(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(ack) = self.pending_acks.pop_front() else {
            return;
        };
        if self.in_flight != InFlight::Idle {
            ctx.stats().bump(CounterId::CmapAckBlocked);
            return;
        }
        let sent = ctx.transmit_with(CONTROL_RATE, |buf| {
            compose::cmap_ack(
                buf,
                ack.src,
                ack.dst,
                ack.base_vpkt_seq,
                &ack.bitmaps,
                ack.loss_rate,
                &ack.il_entries,
            );
        });
        if sent {
            self.in_flight = InFlight::Ack;
            ctx.stats().bump(CounterId::CmapAckTx);
        } else {
            ctx.stats().bump(CounterId::CmapAckBlocked);
        }
    }

    /// Apply update rules 1 and 2 (§3.1) to entries advertised by
    /// receiver `r` — whether they arrived in a standalone broadcast or
    /// piggybacked on an (overheard) ACK.
    fn apply_il_entries<I>(&mut self, ctx: &mut NodeCtx<'_>, r: MacAddr, entries: I)
    where
        I: IntoIterator<Item = cmap::InterfererEntry>,
    {
        let me = ctx.mac_addr();
        let expires = ctx.now() + DEFER_ENTRY_TIMEOUT;
        let mut any = false;
        for e in entries {
            any = true;
            if e.source == me {
                // Update rule 1: (r : q -> *).
                self.defer
                    .apply_rule1(r, e.interferer, e.source_rate, expires);
            }
            if e.interferer == me {
                // Update rule 2: (* : q -> r).
                self.defer.apply_rule2(r, e.source, e.source_rate, expires);
            }
        }
        if any {
            // Any interferer-list reception counts as fresh conflict-map
            // information for the staleness clock, whether or not an entry
            // names us: the network's map machinery is demonstrably alive.
            self.last_map_refresh = ctx.now();
        }
    }

    fn broadcast_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.tracker.decay();
        let evicted = self.tracker.prune(now, self.cfg.broadcast_period * 2)
            + self.defer.prune(now)
            + self.ongoing.prune(now);
        if evicted > 0 {
            ctx.stats()
                .add(CounterId::CmapExpiredEvicted, evicted as u64);
        }
        let peers_before = self.peers.len();
        let peer_cutoff = now.saturating_sub(PEER_STATE_TIMEOUT);
        self.peers.retain(|_, p| p.last_heard >= peer_cutoff);
        let peers_evicted = peers_before - self.peers.len();
        if peers_evicted > 0 {
            ctx.stats()
                .add(CounterId::CmapPeerEvicted, peers_evicted as u64);
        }
        let scratch = &mut self.il_scratch;
        scratch.clear();
        self.tracker
            .for_each_entry_at(now, |source, interferer, source_rate| {
                scratch.push(cmap::InterfererEntry {
                    source,
                    interferer,
                    source_rate,
                });
                scratch.len() < cmap::IL_MAX_ENTRIES
            });
        if !self.il_scratch.is_empty() && self.in_flight == InFlight::Idle {
            let me = ctx.mac_addr();
            let entries = &self.il_scratch;
            let sent = ctx.transmit_with(CONTROL_RATE, |buf| {
                compose::interferer_list(buf, me, entries);
            });
            if sent {
                self.in_flight = InFlight::Broadcast;
                ctx.stats().bump(CounterId::CmapIlBroadcast);
            } else {
                ctx.stats().bump(CounterId::CmapIlBlocked);
            }
        }
        // Re-arm with jitter to avoid network-wide phase lock.
        let jitter = ctx.rng().gen_range(0..self.cfg.broadcast_period / 4);
        ctx.set_timer(
            self.cfg.broadcast_period + jitter,
            token(CLASS_BCAST, self.bcast_gen),
        );
    }
}

impl Mac for CmapMac {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let jitter = ctx.rng().gen_range(0..self.cfg.broadcast_period);
        ctx.set_timer(jitter, token(CLASS_BCAST, self.bcast_gen));
        self.try_send(ctx);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        // Crash-restart: volatile protocol state is gone. Conflict-map
        // knowledge, the send window and per-peer reassembly all reset to
        // boot values; the app queue (upper layer) survives in the world.
        self.state = SState::Idle;
        self.cur = None;
        self.window = SendWindow::default();
        self.defer = DeferTable::new();
        self.ongoing = OngoingList::new();
        self.tracker = InterfererTracker::new();
        self.peers.clear();
        self.cw = 0;
        self.pending_acks.clear();
        self.pending_finalize.clear();
        self.in_flight = InFlight::Idle;
        self.consecutive_ack_timeouts = 0;
        // The staleness clock restarts at the reboot instant: the map is
        // empty (maximally conservative already), so the CSMA fallback
        // should wait for post-reboot evidence, not fire off pre-crash age.
        self.last_map_refresh = ctx.now();
        // Bump, never reset: timers armed before the crash must come back
        // stale, and gens only ever grow.
        self.sender_gen += 1;
        self.rx_gen += 1;
        self.bcast_gen += 1;
        ctx.stats().bump(CounterId::CmapRestart);
        let jitter = ctx.rng().gen_range(0..self.cfg.broadcast_period);
        ctx.set_timer(jitter, token(CLASS_BCAST, self.bcast_gen));
        self.try_send(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tok: u64) {
        let (class, gen) = untoken(tok);
        match class {
            CLASS_BCAST if gen == self.bcast_gen => self.broadcast_tick(ctx),
            CLASS_ACKSEND => {
                if gen == self.rx_gen {
                    self.send_pending_ack(ctx);
                } else if !self.pending_acks.is_empty() {
                    // Superseded timer; newest timer will cover the queue.
                }
            }
            CLASS_VPKTEND => {
                if let Some((src, seq, count, rate, t0)) = self.pending_finalize.pop_front() {
                    self.finalize_and_ack(ctx, src, seq, count, rate, t0);
                }
            }
            CLASS_ACKWAIT if gen == self.sender_gen && self.state == SState::AckWait => {
                // No ACK within t_ackwait; CW unchanged (§3.4: no backoff
                // update on mere ACK absence). Count it towards the
                // stale-map carrier-sense fallback, though.
                self.consecutive_ack_timeouts = self.consecutive_ack_timeouts.saturating_add(1);
                ctx.stats().bump(CounterId::CmapAckTimeout);
                // Trace the moment the streak crosses into the conservative
                // carrier-sense regime (the map-staleness leg may engage it
                // later; DeferDecision.fallback reflects the live state).
                if self.consecutive_ack_timeouts == CSMA_FALLBACK_AFTER
                    && self.csma_fallback_active(ctx.now())
                    && ctx.trace_enabled()
                {
                    ctx.trace(TraceEvent::FallbackToCsma {
                        node: u32::try_from(ctx.node().index()).unwrap_or(u32::MAX),
                        timeout_streak: self.consecutive_ack_timeouts,
                    });
                }
                self.enter_backoff(ctx);
            }
            CLASS_BACKOFF if gen == self.sender_gen && self.state == SState::Backoff => {
                self.state = SState::Idle;
                self.try_send(ctx);
            }
            CLASS_DEFER if gen == self.sender_gen && self.state == SState::Deferring => {
                self.state = SState::Idle;
                self.try_send(ctx);
            }
            CLASS_RTX if gen == self.sender_gen && self.state == SState::RtxWait => {
                let (requeued, gave_up) = self.window.repack_for_rtx(N_VPKT, MAX_RTX_ROUNDS);
                ctx.stats().add(CounterId::CmapRtxPkt, requeued as u64);
                if gave_up > 0 {
                    ctx.stats().add(CounterId::CmapRtxGiveUp, gave_up as u64);
                }
                self.drain_rate_feedback();
                self.state = SState::Idle;
                self.try_send(ctx);
            }
            _ => {} // stale token
        }
    }

    fn on_rx_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &FrameView<'_>, info: RxInfo) {
        match frame {
            FrameView::CmapHeader(h) => self.on_cmap_header(ctx, h, info),
            FrameView::CmapTrailer(t) => self.on_cmap_trailer(ctx, t, info),
            FrameView::CmapData(d) => {
                self.tracker.note_activity(d.src(), info.start, info.end);
                if d.dst() == ctx.mac_addr() {
                    let peer = self.peers.entry(d.src()).or_default();
                    peer.last_heard = info.end;
                    peer.rx.on_data(d.vpkt_seq(), d.index());
                    ctx.deliver(d.flow(), d.flow_seq());
                } else {
                    // Missed the header? Keep the ongoing entry alive long
                    // enough to cover a couple more packets.
                    let guard = 2 * self.data_airtime(d.payload().len(), info.rate);
                    self.ongoing
                        .note_data(d.src(), d.dst(), ctx.now(), guard, info.rate);
                }
            }
            FrameView::CmapAck(a) => {
                self.tracker.note_activity(a.src(), info.start, info.end);
                if a.il_count() > 0 {
                    self.apply_il_entries(ctx, a.src(), a.il_entries());
                }
                if a.dst() == ctx.mac_addr() {
                    let mut bitmaps = [0u32; cmap::MAX_ACK_WINDOW];
                    let n = a.bitmap_count();
                    for (i, slot) in bitmaps.iter_mut().enumerate().take(n) {
                        *slot = a.bitmap(i);
                    }
                    self.handle_ack(
                        ctx,
                        a.src(),
                        a.base_vpkt_seq(),
                        &bitmaps[..n],
                        a.loss_rate_fraction(),
                    );
                }
            }
            FrameView::CmapInterfererList(il) => {
                self.tracker.note_activity(il.src(), info.start, info.end);
                self.apply_il_entries(ctx, il.src(), il.entries());
            }
            FrameView::Dot11Data(_) | FrameView::Dot11Ack(_) => {
                // Foreign MAC's frames: energy was already modelled; CMAP
                // cannot decode their semantics (paper note 1).
            }
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>) {
        match std::mem::replace(&mut self.in_flight, InFlight::Idle) {
            InFlight::Header => self.send_data(ctx, 0),
            InFlight::Data { idx } => {
                let count = self.cur.as_ref().map_or(0, |c| c.pkts.len());
                if idx + 1 < count {
                    self.send_data(ctx, idx + 1);
                } else if self.cfg.send_trailers {
                    self.send_trailer(ctx);
                } else {
                    self.vpkt_complete(ctx);
                }
            }
            InFlight::Trailer => self.vpkt_complete(ctx),
            InFlight::Ack => {
                if !self.pending_acks.is_empty() {
                    self.rx_gen += 1;
                    let turnaround = self.jittered_turnaround(ctx);
                    ctx.set_timer(turnaround, token(CLASS_ACKSEND, self.rx_gen));
                }
                // The sender path may have been blocked by this ACK.
                if self.state == SState::Idle {
                    self.try_send(ctx);
                }
            }
            InFlight::Broadcast => {
                if self.state == SState::Idle {
                    self.try_send(ctx);
                }
            }
            InFlight::Idle => {
                ctx.stats().bump(CounterId::CmapUnexpectedTxDone);
            }
        }
    }

    fn on_packet_queued(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.state == SState::Idle {
            self.try_send(ctx);
        }
    }

    /// No carrier sense: a sender decides from its conflict map and the
    /// ongoing list, and re-checks on timers (§3.2).
    fn wants_channel_edges(&self) -> bool {
        false
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        ckpt::write_blob(out, |w| {
            self.save_fields(w);
            // The rate adapter's state nests as one more self-contained
            // blob, empty at a fixed rate, written in place.
            w.framed(|out| {
                if let Some(ctl) = &self.rate_ctl {
                    ctl.save_state(out);
                }
            });
        });
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        ckpt::read_blob(bytes, |r| {
            self.load_fields(r)?;
            match (&mut self.rate_ctl, r.bytes()?) {
                (Some(ctl), bytes) => ctl.load_state(bytes),
                (None, []) => Ok(()),
                (None, bytes) => Err(format!(
                    "{} bytes of rate-adapter state at a fixed rate",
                    bytes.len()
                )),
            }
            .map_err(CkptError::Mismatch)
        })
    }
}

// Everything but the configuration, the scratch buffers and the rate
// adapter, in wire order.
persist!(fields CmapMac {
    state,
    cur,
    window,
    defer,
    ongoing,
    tracker,
    peers,
    cw,
    sender_gen,
    rx_gen,
    bcast_gen,
    consecutive_ack_timeouts,
    last_map_refresh,
    pending_acks,
    pending_finalize,
    in_flight,
});

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_mac80211::{DcfConfig, DcfMac};
    use cmap_sim::time::secs;
    use cmap_sim::{MediumBuilder, PhyConfig, World};
    use cmap_topo::micro::{CONFLICTING, EXPOSED, HIDDEN};

    /// A world of `n` nodes over `links` (`MediumBuilder::rss_links`).
    fn world_from_rss(n: usize, links: &[(usize, usize, f64)], seed: u64) -> World {
        let phy = PhyConfig::default();
        let medium = MediumBuilder::new(&phy).rss_links(n, links).build();
        World::builder().medium(medium).phy(phy).seed(seed).build()
    }

    fn tput(w: &World, flow: u16, from: u64, to: u64) -> f64 {
        w.stats()
            .flow_throughput_mbps(flow, w.flow(flow).payload_len, from, to)
    }

    fn cmap_all(w: &mut World, n: usize, cfg: &CmapConfig) {
        for node in 0..n {
            w.set_mac(node, Box::new(CmapMac::new(cfg.clone())));
        }
    }

    #[test]
    #[should_panic(expected = "n_window")]
    fn an_empty_send_window_is_refused() {
        let _ = CmapMac::new(CmapConfig {
            n_window: 0,
            ..CmapConfig::default()
        });
    }

    #[test]
    fn single_link_throughput_comparable_to_dcf() {
        // §4.2 calibration: CMAP 5.04 vs 802.11 5.07 Mbit/s on one link.
        let rss = [(0, 1, -60.0)];

        let mut w = world_from_rss(2, &rss, 1);
        let f = w.add_flow(0, 1, 1400);
        cmap_all(&mut w, 2, &CmapConfig::default());
        w.run_until(secs(10));
        let cmap = tput(&w, f, secs(2), secs(10));

        let mut w2 = world_from_rss(2, &rss, 2);
        let f2 = w2.add_flow(0, 1, 1400);
        w2.set_mac(0, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w2.set_mac(1, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w2.run_until(secs(10));
        let dcf = tput(&w2, f2, secs(2), secs(10));

        assert!((4.6..6.0).contains(&cmap), "CMAP single link {cmap}");
        assert!(
            (cmap - dcf).abs() < 0.6,
            "CMAP {cmap} vs DCF {dcf}: not a fair comparison"
        );
    }

    #[test]
    fn exposed_terminals_run_concurrently() {
        // Fig 12's headline: exposed configuration, CMAP ~2x the status quo.
        let mut w = world_from_rss(4, EXPOSED, 3);
        let f1 = w.add_flow(0, 1, 1400);
        let f2 = w.add_flow(2, 3, 1400);
        cmap_all(&mut w, 4, &CmapConfig::default());
        w.run_until(secs(10));
        let agg = tput(&w, f1, secs(2), secs(10)) + tput(&w, f2, secs(2), secs(10));
        assert!(agg > 8.0, "CMAP exposed aggregate only {agg} Mbit/s");
        // Senders should essentially never defer to each other here.
        let defers = w.stats().counter(CounterId::CmapDefer);
        let vpkts = w.stats().counter(CounterId::CmapTxVpkt);
        assert!(defers < vpkts / 4, "{defers} defers for {vpkts} vpkts");
    }

    #[test]
    fn conflicting_pairs_learn_to_defer() {
        // Both receivers are blasted by the other sender: concurrent
        // transmission loses. CMAP must converge to sequential operation
        // comparable to carrier sense.
        let mut w = world_from_rss(4, CONFLICTING, 4);
        let f1 = w.add_flow(0, 1, 1400);
        let f2 = w.add_flow(2, 3, 1400);
        cmap_all(&mut w, 4, &CmapConfig::default());
        w.run_until(secs(20));
        // Measure after convergence.
        let agg = tput(&w, f1, secs(8), secs(20)) + tput(&w, f2, secs(8), secs(20));
        assert!(
            (3.2..6.4).contains(&agg),
            "CMAP conflicting aggregate {agg} (want about the single-link rate)"
        );
        // The defer machinery must actually be engaging.
        assert!(
            w.stats().counter(CounterId::CmapDefer) > 20,
            "defers: {}",
            w.stats().counter(CounterId::CmapDefer)
        );
        assert!(w.stats().counter(CounterId::CmapIlBroadcast) > 0);
        // Senders' defer tables hold entries.
        let d0 = w
            .mac_ref(0)
            .as_any()
            .downcast_ref::<CmapMac>()
            .unwrap()
            .defer_table()
            .len_at(w.now());
        let d2 = w
            .mac_ref(2)
            .as_any()
            .downcast_ref::<CmapMac>()
            .unwrap()
            .defer_table()
            .len_at(w.now());
        assert!(d0 + d2 > 0, "no defer entries learned");
    }

    #[test]
    fn hidden_terminals_survive_via_backoff() {
        // Senders out of range of each other; both receivers hear both
        // senders (Fig 11(c)). The defer machinery cannot engage at the
        // senders, so the loss-rate backoff must prevent collapse (§5.5).
        let mut w = world_from_rss(4, HIDDEN, 5);
        let f1 = w.add_flow(0, 1, 1400);
        let f2 = w.add_flow(2, 3, 1400);
        cmap_all(&mut w, 4, &CmapConfig::default());
        w.run_until(secs(20));
        let agg = tput(&w, f1, secs(8), secs(20)) + tput(&w, f2, secs(8), secs(20));
        // The paper's hidden-terminal result: comparable to the status quo,
        // i.e. a meaningful fraction of the single-pair rate rather than
        // zero.
        assert!(agg > 1.5, "hidden-terminal aggregate collapsed: {agg}");
        assert!(
            w.stats().counter(CounterId::CmapCwIncrease) > 0,
            "backoff never engaged"
        );
    }

    #[test]
    fn stop_and_wait_window_is_no_better() {
        // Fig 12's ablation: windowed ACKs matter in exposed configurations
        // because ACKs collide at the senders. win=1 must not beat win=8.
        let rss = [
            (0, 1, -60.0),
            (2, 3, -60.0),
            (0, 2, -75.0),
            (0, 3, -90.0), // some cross-noise to threaten ACKs
            (2, 1, -90.0),
            (1, 3, -95.0),
        ];

        let run = |cfg: CmapConfig, seed| {
            let mut w = world_from_rss(4, &rss, seed);
            let f1 = w.add_flow(0, 1, 1400);
            let f2 = w.add_flow(2, 3, 1400);
            cmap_all(&mut w, 4, &cfg);
            w.run_until(secs(10));
            tput(&w, f1, secs(2), secs(10)) + tput(&w, f2, secs(2), secs(10))
        };
        let win8 = run(CmapConfig::default(), 6);
        let win1 = run(CmapConfig::default().stop_and_wait(), 7);
        assert!(
            win1 <= win8 + 0.5,
            "stop-and-wait {win1} should not beat windowed {win8}"
        );
        assert!(win8 > 8.0, "windowed exposed aggregate {win8}");
    }

    #[test]
    fn broadcast_decision_is_conjunction_over_targets() {
        use cmap_wire::MacAddr;
        let a = |i: u16| MacAddr::from_node_index(i);
        let (me, v1, v2, x, y) = (a(0), a(1), a(2), a(3), a(4));
        let mut mac = CmapMac::new(CmapConfig::default());
        // Ongoing transmission x -> y until t=1000.
        mac.ongoing.note_header(x, y, 1000, cmap_phy::Rate::R6);
        // Conflict known only for v2: (v2 : x -> *).
        mac.defer.apply_rule1(v2, x, cmap_phy::Rate::R6, 10_000);

        // Unicast-style checks via the broadcast API with one target.
        assert_eq!(mac.check_defer_broadcast(me, &[v1], 0), None);
        assert_eq!(mac.check_defer_broadcast(me, &[v2], 0), Some(1000));
        // Broadcast to both: the v2 conflict forces deferral (section 3.6).
        assert_eq!(mac.check_defer_broadcast(me, &[v1, v2], 0), Some(1000));
        // Empty target set trivially proceeds.
        assert_eq!(mac.check_defer_broadcast(me, &[], 0), None);
        // After the ongoing transmission ends, all clear.
        assert_eq!(mac.check_defer_broadcast(me, &[v1, v2], 1000), None);
        // A target that is itself receiving is busy regardless of the map.
        assert_eq!(mac.check_defer_broadcast(me, &[y], 0), Some(1000));
    }

    #[test]
    fn rate_adaptation_finds_the_right_rate_per_link() {
        // Strong link (-60 dBm: 34 dB SNR supports 54 Mbit/s) and a weak
        // link (-86 dBm: 8 dB SNR supports ~12 but not 24): the adapter
        // must climb on the first and hold low on the second.
        let run = |rss_dbm: f64, seed| {
            let mut w = world_from_rss(2, &[(0, 1, rss_dbm)], seed);
            let f = w.add_flow(0, 1, 1400);
            let cfg = CmapConfig::default();
            for node in 0..2 {
                w.set_mac(
                    node,
                    Box::new(CmapMac::adaptive(
                        cfg.clone(),
                        ThroughputRate::full_ladder(),
                    )),
                );
            }
            w.run_until(secs(12));
            tput(&w, f, secs(6), secs(12))
        };
        let strong = run(-60.0, 50);
        let weak = run(-86.0, 51);
        // 54 Mbit/s with per-vpkt overheads lands well above 20 Mbit/s.
        assert!(strong > 15.0, "strong-link adapted throughput {strong}");
        // The weak link must not collapse chasing high rates, and cannot
        // exceed what ~12-18 Mbit/s delivers.
        assert!((2.0..14.0).contains(&weak), "weak-link throughput {weak}");
        assert!(strong > 2.0 * weak);
    }

    #[test]
    fn multi_destination_sender_interleaves_flows() {
        // One sender, two destinations (the mesh source pattern): both
        // flows must make progress and the per-destination vpkt sequence
        // spaces must not interfere.
        let rss = [(0, 1, -60.0), (0, 2, -60.0), (1, 2, -70.0)];
        let mut w = world_from_rss(3, &rss, 40);
        let f1 = w.add_flow(0, 1, 1400);
        let f2 = w.add_flow(0, 2, 1400);
        cmap_all(&mut w, 3, &CmapConfig::default());
        w.run_until(secs(10));
        let t1 = tput(&w, f1, secs(2), secs(10));
        let t2 = tput(&w, f2, secs(2), secs(10));
        // The two flows share one radio: each gets roughly half.
        assert!(t1 > 1.5 && t2 > 1.5, "{t1} / {t2}");
        assert!((t1 - t2).abs() < 1.5, "unfair: {t1} vs {t2}");
        assert_eq!(w.stats().flow(f1).duplicates, 0);
        assert_eq!(w.stats().flow(f2).duplicates, 0);
    }

    #[test]
    fn no_trailer_variant_still_delivers() {
        // Ablation: without trailers the receiver finalises off the header
        // timer; on a clean link throughput must stay close to the default.
        let run = |cfg: CmapConfig, seed| {
            let mut w = world_from_rss(2, &[(0, 1, -60.0)], seed);
            let f = w.add_flow(0, 1, 1400);
            cmap_all(&mut w, 2, &cfg);
            w.run_until(secs(8));
            let t = tput(&w, f, secs(2), secs(8));
            let trailers = w.stats().vpkt_stats(0, 1).map_or(0, |v| v.trailer_count());
            (t, trailers)
        };
        let (t_def, trl_def) = run(CmapConfig::default(), 31);
        let (t_no, trl_no) = run(CmapConfig::default().without_trailers(), 32);
        assert!(trl_def > 50, "default run sent no trailers?");
        assert_eq!(trl_no, 0, "no-trailer run still produced trailers");
        assert!(
            t_no > 0.85 * t_def,
            "no-trailer throughput {t_no} vs default {t_def}"
        );
    }

    #[test]
    fn backoff_ablation_hurts_hidden_terminals() {
        // Without the loss-rate backoff, hidden senders blast through each
        // other; §5.5's mechanism should visibly help.
        let run = |cfg: CmapConfig, seed| {
            let mut w = world_from_rss(4, HIDDEN, seed);
            let f1 = w.add_flow(0, 1, 1400);
            let f2 = w.add_flow(2, 3, 1400);
            cmap_all(&mut w, 4, &cfg);
            w.run_until(secs(15));
            tput(&w, f1, secs(6), secs(15)) + tput(&w, f2, secs(6), secs(15))
        };
        let with = run(CmapConfig::default(), 33);
        let without = run(CmapConfig::default().without_backoff(), 34);
        assert!(
            with > without * 0.9,
            "backoff should not hurt: with {with}, without {without}"
        );
        // The ablated variant must show the pathology at least mildly.
        assert!(
            without < 5.0,
            "hidden blast unexpectedly healthy: {without}"
        );
    }

    #[test]
    fn stale_map_falls_back_to_carrier_sense() {
        use cmap_wire::MacAddr;
        let a = |i: u16| MacAddr::from_node_index(i);
        let (me, dst, x, y) = (a(0), a(1), a(2), a(3));
        let now = millis(20_000);
        let mut mac = CmapMac::new(CmapConfig::default());
        // Unrelated ongoing transmission x -> y; the conflict map is empty,
        // so the §3.2 decision alone would transmit.
        mac.ongoing
            .note_header(x, y, now + millis(2), cmap_phy::Rate::R6);
        // Recently refreshed map: no fallback even with many ACK timeouts.
        mac.consecutive_ack_timeouts = 10;
        mac.last_map_refresh = now - millis(100);
        assert!(!mac.csma_fallback_active(now));
        assert_eq!(mac.check_defer_broadcast(me, &[dst], now), None);
        // Stale map + repeated ACK timeouts: defer to any overheard
        // transmission, exactly like carrier sense.
        mac.last_map_refresh = 0;
        assert!(mac.csma_fallback_active(now));
        assert_eq!(
            mac.check_defer_broadcast(me, &[dst], now),
            Some(now + millis(2))
        );
        // An ACK getting through resets the streak and restores map trust.
        mac.consecutive_ack_timeouts = 0;
        assert!(!mac.csma_fallback_active(now));
        assert_eq!(mac.check_defer_broadcast(me, &[dst], now), None);
    }

    #[test]
    fn duplicated_frames_do_not_wedge_or_fabricate_conflicts() {
        // Satellite regression for the dup/reordered-ACK path: a fault plan
        // that duplicates 8% of deliveries must not wedge the window, run
        // attribution twice, or learn phantom conflicts on a clean link.
        use cmap_sim::FaultPlan;
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 9);
        let f = w.add_flow(0, 1, 1400);
        cmap_all(&mut w, 2, &CmapConfig::default());
        w.install_faults(FaultPlan {
            dup_frame_prob: 0.08,
            ..FaultPlan::clean()
        });
        w.run_until(secs(8));
        assert_eq!(w.watchdog_violations(), 0);
        assert!(
            w.stats().counter(CounterId::CmapDupFinalize) > 0,
            "duplicate-finalise path never exercised"
        );
        assert!(
            w.stats().flow(f).duplicates > 0,
            "duplicate injection inactive"
        );
        // Progress continues to the end of the run.
        let late = tput(&w, f, secs(6), secs(8));
        assert!(late > 3.0, "link wedged under duplicates: {late}");
        // No phantom interferers on a two-node link.
        let mac = w.mac_ref(0).as_any().downcast_ref::<CmapMac>().unwrap();
        assert_eq!(mac.defer_table().len_at(w.now()), 0);
    }

    #[test]
    fn sender_crash_restart_recovers_the_flow() {
        // The sender reboots mid-run: its sequence space restarts at zero
        // and all conflict-map state is lost. The receiver must detect the
        // reboot (cmap.peer_reset) and the flow must recover.
        use cmap_sim::FaultPlan;
        use cmap_sim::Outage;
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 10);
        let f = w.add_flow(0, 1, 1400);
        cmap_all(&mut w, 2, &CmapConfig::default());
        let mut plan = FaultPlan::clean();
        plan.churn.push(Outage {
            node: cmap_sim::NodeId::new(0),
            down_at: secs(3),
            up_at: secs(4),
        });
        w.install_faults(plan);
        w.run_until(secs(9));
        assert_eq!(w.watchdog_violations(), 0);
        assert!(
            w.stats().counter(CounterId::CmapRestart) >= 1,
            "restart never ran"
        );
        assert!(
            w.stats().counter(CounterId::CmapPeerReset) >= 1,
            "receiver never detected the sender reboot"
        );
        let late = tput(&w, f, secs(5), secs(9));
        assert!(late > 3.0, "flow did not recover after restart: {late}");
    }

    #[test]
    fn ack_contains_loss_feedback_and_dup_suppression_works() {
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 8);
        let f = w.add_flow(0, 1, 1400);
        cmap_all(&mut w, 2, &CmapConfig::default());
        w.run_until(secs(5));
        // Clean link: essentially no retransmissions, no duplicates, CW 0.
        assert_eq!(w.stats().flow(f).duplicates, 0);
        let mac = w.mac_ref(0).as_any().downcast_ref::<CmapMac>().unwrap();
        assert_eq!(mac.cw, 0);
        assert!(w.stats().counter(CounterId::CmapAckTx) > 50);
    }
}
