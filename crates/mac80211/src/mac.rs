//! The DCF state machine.
//!
//! One [`DcfMac`] instance runs per node and plays both roles: the *sender
//! path* (DIFS → backoff → transmit → wait-for-ACK → retry/drop) and the
//! *receiver path* (SIFS-delayed ACKs for data addressed to us). The two
//! paths share the half-duplex radio; collisions between them resolve the
//! way real hardware does — whoever reaches the radio first wins, the other
//! retries off carrier-state edges.
//!
//! Timers carry `(class, generation)` tokens. There is no cancellation in
//! the simulator; a path invalidates its outstanding timers by bumping its
//! generation counter, and stale tokens are ignored on arrival.

use rand::Rng;

use cmap_obs::CounterId;
use cmap_sim::time::{ns_to_u32_saturating, whole_slots, Time};
use cmap_sim::{ckpt, persist, AppPacket, Mac, NodeCtx, RxInfo};
use cmap_wire::view::compose;
use cmap_wire::{dot11, FrameView, MacAddr};

use crate::config::DcfConfig;
use crate::timing::{
    ACK_RATE, ACK_TIMEOUT_NS, CW_MAX, CW_MIN, DIFS_NS, EIFS_NS, RETRY_LIMIT, SIFS_NS, SLOT_NS,
};

const CLASS_DIFS: u64 = 1;
const CLASS_BACKOFF: u64 = 2;
const CLASS_ACK_TIMEOUT: u64 = 3;
const CLASS_SIFS_ACK: u64 = 4;
const CLASS_NAV: u64 = 5;

const GEN_MASK: u64 = (1 << 56) - 1;

fn token(class: u64, gen: u64) -> u64 {
    (class << 56) | (gen & GEN_MASK)
}

fn untoken(token: u64) -> (u64, u64) {
    (token >> 56, token & GEN_MASK)
}

/// Sender-path state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    /// No packet being worked on.
    Idle,
    /// Have a packet; waiting for the medium (CCA or NAV) to clear.
    WaitMedium,
    /// Medium went idle; waiting out DIFS.
    WaitDifs,
    /// Counting down backoff slots (timer armed at `started`).
    Backoff { started: Time },
    /// Our data frame is on the air.
    Transmitting,
    /// Data sent; waiting for the ACK or its timeout.
    WaitAck,
}

persist!(enum TxState {
    0 => Idle,
    1 => WaitMedium,
    2 => WaitDifs,
    3 => Backoff { started },
    4 => Transmitting,
    5 => WaitAck,
});

/// Which of our own frames is on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InFlight {
    Idle,
    Data,
    Ack,
}

persist!(enum InFlight { 0 => Idle, 1 => Data, 2 => Ack });

struct CurPacket {
    pkt: AppPacket,
    seq: u16,
    retries: u32,
}

persist!(struct CurPacket { pkt, seq, retries });

/// An 802.11 DCF link layer (see crate docs).
pub struct DcfMac {
    cfg: DcfConfig,
    state: TxState,
    cur: Option<CurPacket>,
    cw: u32,
    backoff_slots: u32,
    next_seq: u16,
    nav_until: Time,
    /// Medium must stay idle until this instant before DIFS restarts (EIFS
    /// after an undecodable reception).
    eifs_until: Time,
    sender_gen: u64,
    rx_gen: u64,
    pending_ack_to: Option<MacAddr>,
    in_flight: InFlight,
}

impl DcfMac {
    /// Create a DCF MAC with the given configuration.
    pub fn new(cfg: DcfConfig) -> DcfMac {
        DcfMac {
            cfg,
            state: TxState::Idle,
            cur: None,
            cw: CW_MIN,
            backoff_slots: 0,
            next_seq: 0,
            nav_until: 0,
            eifs_until: 0,
            sender_gen: 0,
            rx_gen: 0,
            pending_ack_to: None,
            in_flight: InFlight::Idle,
        }
    }

    fn medium_clear(&self, ctx: &NodeCtx<'_>) -> bool {
        !self.cfg.carrier_sense
            || (!ctx.carrier_busy() && ctx.now() >= self.nav_until && ctx.now() >= self.eifs_until)
    }

    /// Drive the sender path from Idle/WaitMedium towards transmission.
    fn kick(&mut self, ctx: &mut NodeCtx<'_>) {
        if !matches!(self.state, TxState::Idle | TxState::WaitMedium) {
            return;
        }
        if self.in_flight != InFlight::Idle {
            // Radio busy with our own ACK; resume on its completion edge.
            self.state = TxState::WaitMedium;
            return;
        }
        if self.cur.is_none() {
            match ctx.app_pop() {
                Some(pkt) => {
                    let seq = self.next_seq;
                    self.next_seq = self.next_seq.wrapping_add(1);
                    self.cur = Some(CurPacket {
                        pkt,
                        seq,
                        retries: 0,
                    });
                }
                None => {
                    self.state = TxState::Idle;
                    return;
                }
            }
        }
        if !self.cfg.carrier_sense {
            if self.backoff_slots > 0 {
                self.arm_backoff(ctx);
            } else {
                self.transmit_data(ctx);
            }
            return;
        }
        if ctx.carrier_busy() {
            self.state = TxState::WaitMedium;
        } else if ctx.now() < self.nav_until.max(self.eifs_until) {
            self.state = TxState::WaitMedium;
            self.sender_gen += 1;
            let wait = self.nav_until.max(self.eifs_until) - ctx.now();
            ctx.set_timer(wait, token(CLASS_NAV, self.sender_gen));
        } else {
            self.state = TxState::WaitDifs;
            self.sender_gen += 1;
            ctx.set_timer(DIFS_NS, token(CLASS_DIFS, self.sender_gen));
        }
    }

    fn arm_backoff(&mut self, ctx: &mut NodeCtx<'_>) {
        self.state = TxState::Backoff { started: ctx.now() };
        self.sender_gen += 1;
        let wait = Time::from(self.backoff_slots) * SLOT_NS;
        ctx.set_timer(wait, token(CLASS_BACKOFF, self.sender_gen));
    }

    /// The medium went busy (or NAV landed) while deferring: pause the
    /// countdown, remembering consumed slots.
    fn pause(&mut self, ctx: &mut NodeCtx<'_>) {
        match self.state {
            TxState::WaitDifs => {
                self.sender_gen += 1;
                self.state = TxState::WaitMedium;
            }
            TxState::Backoff { started } => {
                let consumed = whole_slots(ctx.now() - started, SLOT_NS);
                self.backoff_slots = self.backoff_slots.saturating_sub(consumed);
                self.sender_gen += 1;
                self.state = TxState::WaitMedium;
            }
            _ => {}
        }
        // If only the NAV/EIFS holds us, arrange a wake-up at its expiry.
        let hold = self.nav_until.max(self.eifs_until);
        if self.state == TxState::WaitMedium && !ctx.carrier_busy() && ctx.now() < hold {
            self.sender_gen += 1;
            let wait = hold - ctx.now();
            ctx.set_timer(wait, token(CLASS_NAV, self.sender_gen));
        }
    }

    fn transmit_data(&mut self, ctx: &mut NodeCtx<'_>) {
        let (dst, seq, retry, duration, flow, flow_seq, payload_len) = {
            let cur = self.cur.as_ref().expect("transmit without packet");
            let duration = if self.ack_expected() {
                ns_to_u32_saturating(SIFS_NS + self.ack_airtime())
            } else {
                0
            };
            (
                cur.pkt.dst_mac,
                cur.seq,
                cur.retries > 0,
                duration,
                cur.pkt.flow,
                cur.pkt.flow_seq,
                cur.pkt.payload_len,
            )
        };
        let me = ctx.mac_addr();
        let sent = ctx.transmit_with(self.cfg.rate, |buf| {
            compose::dot11_data(
                buf,
                me,
                dst,
                seq,
                retry,
                duration,
                flow,
                flow_seq,
                payload_len,
                0xC5,
            );
        });
        if sent {
            self.state = TxState::Transmitting;
            self.in_flight = InFlight::Data;
            ctx.stats().bump(CounterId::DcfTxData);
        } else {
            self.state = TxState::WaitMedium;
        }
    }

    fn ack_expected(&self) -> bool {
        self.cfg.acks
            && self
                .cur
                .as_ref()
                .is_some_and(|c| !c.pkt.dst_mac.is_broadcast())
    }

    fn ack_airtime(&self) -> Time {
        ACK_RATE.frame_airtime_ns(dot11::ACK_LEN)
    }

    /// Done with the current packet (delivered, dropped, or fire-and-forget):
    /// run the post-backoff and move on.
    fn finish_packet(&mut self, ctx: &mut NodeCtx<'_>) {
        self.cur = None;
        self.backoff_slots = ctx.rng().gen_range(0..=self.cw);
        self.state = TxState::Idle;
        self.kick(ctx);
    }

    fn on_ack_timeout(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.stats().bump(CounterId::DcfAckTimeout);
        let drop = {
            let cur = self.cur.as_mut().expect("ack timeout without packet");
            cur.retries += 1;
            cur.retries > RETRY_LIMIT
        };
        if drop {
            ctx.stats().bump(CounterId::DcfDrop);
            self.cw = CW_MIN;
            self.finish_packet(ctx);
        } else {
            ctx.stats().bump(CounterId::DcfRetx);
            self.cw = ((self.cw + 1) * 2 - 1).min(CW_MAX);
            self.backoff_slots = ctx.rng().gen_range(0..=self.cw);
            self.state = TxState::Idle;
            self.kick(ctx);
        }
    }

    fn on_ack_received(&mut self, ctx: &mut NodeCtx<'_>) {
        self.sender_gen += 1; // invalidate the pending ACK timeout
        self.cw = CW_MIN;
        ctx.stats().bump(CounterId::DcfAckOk);
        self.finish_packet(ctx);
    }

    fn update_nav(&mut self, ctx: &mut NodeCtx<'_>, frame_end: Time, duration_ns: u32) {
        if !self.cfg.carrier_sense || duration_ns == 0 {
            return;
        }
        let until = frame_end + Time::from(duration_ns);
        if until > self.nav_until {
            self.nav_until = until;
            if matches!(self.state, TxState::WaitDifs | TxState::Backoff { .. }) {
                self.pause(ctx);
            }
        }
    }
}

impl Mac for DcfMac {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.kick(ctx);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        // Crash-restart: all volatile MAC state is lost, including any
        // packet that was mid-exchange.
        self.state = TxState::Idle;
        self.cur = None;
        self.cw = CW_MIN;
        self.backoff_slots = 0;
        self.nav_until = 0;
        self.eifs_until = 0;
        self.pending_ack_to = None;
        self.in_flight = InFlight::Idle;
        // Bump, never reset: timers armed before the crash must come back
        // stale, and generations only ever grow.
        self.sender_gen += 1;
        self.rx_gen += 1;
        ctx.stats().bump(CounterId::DcfRestart);
        self.kick(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tok: u64) {
        let (class, gen) = untoken(tok);
        match class {
            CLASS_SIFS_ACK if gen == self.rx_gen => {
                if let Some(dst) = self.pending_ack_to.take() {
                    let sent = ctx.transmit_with(ACK_RATE, |buf| {
                        compose::dot11_ack(buf, dst);
                    });
                    if sent {
                        self.in_flight = InFlight::Ack;
                        ctx.stats().bump(CounterId::DcfAckTx);
                    } else {
                        ctx.stats().bump(CounterId::DcfAckTxBlocked);
                    }
                }
            }
            CLASS_DIFS if gen == self.sender_gen && self.state == TxState::WaitDifs => {
                if self.medium_clear(ctx) {
                    if self.backoff_slots == 0 {
                        self.transmit_data(ctx);
                    } else {
                        self.arm_backoff(ctx);
                    }
                } else {
                    self.pause(ctx);
                }
            }
            CLASS_BACKOFF
                if gen == self.sender_gen && matches!(self.state, TxState::Backoff { .. }) =>
            {
                self.backoff_slots = 0;
                if self.medium_clear(ctx) {
                    self.transmit_data(ctx);
                } else {
                    self.pause(ctx);
                }
            }
            CLASS_ACK_TIMEOUT if gen == self.sender_gen && self.state == TxState::WaitAck => {
                self.on_ack_timeout(ctx);
            }
            CLASS_NAV if gen == self.sender_gen && self.state == TxState::WaitMedium => {
                self.kick(ctx);
            }
            _ => {} // stale token
        }
    }

    fn on_rx_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &FrameView<'_>, info: RxInfo) {
        match frame {
            FrameView::Dot11Data(d) => {
                if d.dst() == ctx.mac_addr() {
                    ctx.deliver(d.flow(), d.flow_seq());
                    if self.cfg.acks {
                        self.pending_ack_to = Some(d.src());
                        self.rx_gen += 1;
                        ctx.set_timer(SIFS_NS, token(CLASS_SIFS_ACK, self.rx_gen));
                    }
                } else {
                    self.update_nav(ctx, info.end, d.duration_ns());
                }
            }
            FrameView::Dot11Ack(a)
                if a.dst() == ctx.mac_addr() && self.state == TxState::WaitAck =>
            {
                self.on_ack_received(ctx);
            }
            _ => {} // frames from other protocols: energy already modelled
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>) {
        match std::mem::replace(&mut self.in_flight, InFlight::Idle) {
            InFlight::Data => {
                if self.ack_expected() {
                    self.state = TxState::WaitAck;
                    self.sender_gen += 1;
                    ctx.set_timer(ACK_TIMEOUT_NS, token(CLASS_ACK_TIMEOUT, self.sender_gen));
                } else {
                    // Fire-and-forget (no-acks baseline or broadcast).
                    self.finish_packet(ctx);
                }
            }
            InFlight::Ack => {
                // Receiver path done; the sender path resumes via the
                // busy->idle edge that follows this TxEnd.
            }
            InFlight::Idle => {
                ctx.stats().bump(CounterId::DcfUnexpectedTxDone);
            }
        }
    }

    fn on_rx_error(&mut self, ctx: &mut NodeCtx<'_>, _err: cmap_sim::RxErrorInfo) {
        if self.cfg.carrier_sense {
            self.eifs_until = ctx.now() + EIFS_NS;
            ctx.stats().bump(CounterId::DcfEifs);
            if matches!(self.state, TxState::WaitDifs | TxState::Backoff { .. }) {
                self.pause(ctx);
            }
        }
    }

    fn on_channel_state(&mut self, ctx: &mut NodeCtx<'_>, busy: bool) {
        if busy {
            if self.cfg.carrier_sense {
                self.pause(ctx);
            }
        } else if self.state == TxState::WaitMedium {
            self.kick(ctx);
        }
    }

    fn on_packet_queued(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.state == TxState::Idle {
            self.kick(ctx);
        }
    }

    /// Only a sender waiting on the medium acts on an edge: `pause` and
    /// `kick` do nothing in any other state.
    fn wants_channel_edges(&self) -> bool {
        matches!(
            self.state,
            TxState::WaitMedium | TxState::WaitDifs | TxState::Backoff { .. }
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        ckpt::write_blob(out, |w| self.save_fields(w));
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        ckpt::read_blob(bytes, |r| self.load_fields(r))
    }
}

// Everything but the configuration, in wire order.
persist!(fields DcfMac {
    state,
    cur,
    cw,
    backoff_slots,
    next_seq,
    nav_until,
    eifs_until,
    sender_gen,
    rx_gen,
    pending_ack_to,
    in_flight,
});

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::time::secs;
    use cmap_sim::{MediumBuilder, PhyConfig, World};
    use cmap_topo::micro::{CONFLICTING, EXPOSED, HIDDEN};

    /// A world of `n` nodes over `links` (`MediumBuilder::rss_links`).
    fn world_from_rss(n: usize, links: &[(usize, usize, f64)], seed: u64) -> World {
        let phy = PhyConfig::default();
        let medium = MediumBuilder::new(&phy).rss_links(n, links).build();
        World::builder().medium(medium).phy(phy).seed(seed).build()
    }

    fn tput(w: &World, flow: u16, from: Time, to: Time) -> f64 {
        w.stats()
            .flow_throughput_mbps(flow, w.flow(flow).payload_len, from, to)
    }

    #[test]
    fn single_link_throughput_near_line_rate() {
        // The paper reports 5.07 Mbit/s for 802.11 at the 6 Mbit/s rate
        // (§4.2). Our DCF should land in the same neighbourhood.
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 1);
        let f = w.add_flow(0, 1, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.set_mac(1, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.run_until(secs(5));
        let mbps = tput(&w, f, secs(1), secs(5));
        assert!((4.6..5.8).contains(&mbps), "single-link DCF {mbps} Mbit/s");
        // Virtually no retransmissions on a clean link.
        let retx = w.stats().counter(CounterId::DcfRetx);
        let txs = w.stats().counter(CounterId::DcfTxData);
        assert!(retx * 50 < txs, "retx {retx} of {txs}");
    }

    #[test]
    #[should_panic(expected = "65,535")]
    fn payload_beyond_the_length_field_is_refused_at_add_flow() {
        // It used to compose a frame whose u16 length field had wrapped and
        // die at the first reception with "Malformed".
        world_from_rss(2, &[(0, 1, -60.0)], 1).add_flow(0, 1, 65_536);
    }

    #[test]
    fn largest_encodable_payload_runs() {
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 1);
        let f = w.add_flow(0, 1, 65_535);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.set_mac(1, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.run_until(secs(1));
        assert!(w.stats().flow(f).delivered_in(0, secs(1)) > 0);
    }

    #[test]
    fn dcf_survives_crash_restart_churn() {
        // Both ends crash (staggered) and come back; the DCF flow must
        // recover with no watchdog violations.
        use cmap_sim::FaultPlan;
        use cmap_sim::Outage;
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 11);
        let f = w.add_flow(0, 1, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.set_mac(1, Box::new(DcfMac::new(DcfConfig::status_quo())));
        let mut plan = FaultPlan::clean();
        plan.churn.push(Outage {
            node: cmap_sim::NodeId::new(0),
            down_at: secs(1),
            up_at: secs(2),
        });
        plan.churn.push(Outage {
            node: cmap_sim::NodeId::new(1),
            down_at: secs(3),
            up_at: secs(4),
        });
        w.install_faults(plan);
        w.run_until(secs(8));
        assert_eq!(w.watchdog_violations(), 0);
        assert_eq!(w.stats().counter(CounterId::DcfRestart), 2);
        let late = tput(&w, f, secs(5), secs(8));
        assert!(late > 3.5, "DCF did not recover after churn: {late}");
    }

    #[test]
    fn no_acks_is_slightly_faster_and_never_retransmits() {
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 2);
        let f = w.add_flow(0, 1, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::cs_off_no_acks())));
        w.set_mac(1, Box::new(DcfMac::new(DcfConfig::cs_off_no_acks())));
        w.run_until(secs(5));
        let mbps = tput(&w, f, secs(1), secs(5));
        assert!((4.8..6.0).contains(&mbps), "blast throughput {mbps}");
        assert_eq!(w.stats().counter(CounterId::DcfRetx), 0);
        assert_eq!(w.stats().counter(CounterId::DcfAckTx), 0);
    }

    #[test]
    fn two_in_range_senders_share_the_channel() {
        // 0 -> 1 and 2 -> 3; senders hear each other loud and clear and both
        // transmissions interfere at both receivers: the conflicting case.
        let mut w = world_from_rss(4, CONFLICTING, 3);
        let f1 = w.add_flow(0, 1, 1400);
        let f2 = w.add_flow(2, 3, 1400);
        for n in 0..4 {
            w.set_mac(n, Box::new(DcfMac::new(DcfConfig::status_quo())));
        }
        w.run_until(secs(5));
        let t1 = tput(&w, f1, secs(1), secs(5));
        let t2 = tput(&w, f2, secs(1), secs(5));
        let total = t1 + t2;
        // The pair shares one channel: aggregate close to single-link rate.
        assert!((4.0..6.0).contains(&total), "aggregate {total}");
        // And reasonably fairly.
        let ratio = t1.max(t2) / t1.min(t2).max(0.01);
        assert!(ratio < 3.0, "unfair split {t1} vs {t2}");
    }

    #[test]
    fn exposed_terminals_blast_doubles_throughput() {
        // Exposed configuration: senders hear each other, receivers hear
        // only their own sender. Carrier sense serialises; blasting doesn't.
        let run = |cfg: DcfConfig, seed| {
            let mut w = world_from_rss(4, EXPOSED, seed);
            let f1 = w.add_flow(0, 1, 1400);
            let f2 = w.add_flow(2, 3, 1400);
            for n in 0..4 {
                w.set_mac(n, Box::new(DcfMac::new(cfg.clone())));
            }
            w.run_until(secs(5));
            tput(&w, f1, secs(1), secs(5)) + tput(&w, f2, secs(1), secs(5))
        };
        let cs_on = run(DcfConfig::status_quo(), 4);
        let blast = run(DcfConfig::cs_off_no_acks(), 5);
        assert!((4.0..6.2).contains(&cs_on), "CS-on aggregate {cs_on}");
        assert!(blast > 1.7 * cs_on, "blast {blast} vs CS {cs_on}");
    }

    #[test]
    fn hidden_terminals_collapse_without_protection() {
        // Senders cannot hear each other; both receivers hear both senders.
        let run = |cfg: DcfConfig, seed| {
            let mut w = world_from_rss(4, HIDDEN, seed);
            let f1 = w.add_flow(0, 1, 1400);
            let f2 = w.add_flow(2, 3, 1400);
            for n in 0..4 {
                w.set_mac(n, Box::new(DcfMac::new(cfg.clone())));
            }
            w.run_until(secs(5));
            tput(&w, f1, secs(1), secs(5)) + tput(&w, f2, secs(1), secs(5))
        };
        // Blasting: near-total mutual destruction (only capture survives).
        let blast = run(DcfConfig::cs_off_no_acks(), 6);
        // Clean single pair for reference.
        let mut w = world_from_rss(4, HIDDEN, 7);
        let f1 = w.add_flow(0, 1, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::cs_off_no_acks())));
        w.set_mac(1, Box::new(DcfMac::new(DcfConfig::cs_off_no_acks())));
        w.run_until(secs(5));
        let single = tput(&w, f1, secs(1), secs(5));
        assert!(
            blast < 0.6 * 2.0 * single,
            "hidden blast {blast} vs single {single}"
        );
    }

    #[test]
    fn nav_protects_ack_exchanges() {
        // Node 2 hears sender 0 but not receiver 1... with NAV it still
        // defers for the SIFS+ACK window after 0's frames. We verify via
        // counters that ACKs rarely time out despite 2 blasting nearby.
        let rss = [
            (0, 1, -60.0),
            (0, 2, -70.0), // 2 hears 0 (and its NAV)
            (2, 3, -60.0),
            (2, 1, -90.0), // 2 barely disturbs 1
            (0, 3, -90.0),
            (1, 3, -95.0),
        ];
        let mut w = world_from_rss(4, &rss, 8);
        let f1 = w.add_flow(0, 1, 1400);
        let _f2 = w.add_flow(2, 3, 1400);
        for n in 0..4 {
            w.set_mac(n, Box::new(DcfMac::new(DcfConfig::status_quo())));
        }
        w.run_until(secs(5));
        let timeouts = w.stats().counter(CounterId::DcfAckTimeout);
        let acked = w.stats().counter(CounterId::DcfAckOk);
        assert!(acked > 1000, "acked {acked}");
        assert!(timeouts * 20 < acked, "{timeouts} timeouts vs {acked} acks");
        assert!(tput(&w, f1, secs(1), secs(5)) > 1.5);
    }

    #[test]
    fn retry_limit_drops_frames_to_a_dead_receiver() {
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 9);
        w.add_flow(0, 1, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::status_quo())));
        // Node 1 keeps the NullMac: receives but never ACKs.
        w.run_until(secs(2));
        let drops = w.stats().counter(CounterId::DcfDrop);
        let retx = w.stats().counter(CounterId::DcfRetx);
        assert!(drops > 10, "drops {drops}");
        // Every drop is preceded by RETRY_LIMIT retransmissions (the run may
        // end mid-sequence, so allow one partial round).
        let limit = u64::from(crate::timing::RETRY_LIMIT);
        assert!(
            retx >= drops * limit && retx <= (drops + 1) * limit,
            "retx {retx} for {drops} drops"
        );
    }

    #[test]
    fn broadcast_data_needs_no_ack() {
        // A flow to the broadcast... flows are unicast; test via the MAC's
        // ack_expected logic instead: with acks disabled no ACKs are ever
        // produced by the receiver either.
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 30);
        let f = w.add_flow(0, 1, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::cs_off_no_acks())));
        w.set_mac(1, Box::new(DcfMac::new(DcfConfig::cs_off_no_acks())));
        w.run_until(secs(2));
        assert!(w.stats().flow(f).arrivals.len() > 500);
        assert_eq!(w.stats().counter(CounterId::DcfAckTx), 0);
        assert_eq!(w.stats().counter(CounterId::DcfAckTimeout), 0);
    }

    #[test]
    fn cs_on_sender_defers_to_foreign_cmap_traffic() {
        // DCF cannot decode CMAP frames for NAV, but physical CCA still
        // sees them: a DCF sender sharing the room with a CMAP transfer
        // should interleave, not blast over it.
        use cmap_core::{CmapConfig, CmapMac};
        let rss = [
            (0, 1, -60.0),
            (2, 3, -60.0),
            (0, 2, -70.0),
            (0, 3, -65.0),
            (2, 1, -65.0),
            (1, 3, -80.0),
        ];
        let mut w = world_from_rss(4, &rss, 32);
        let f_dcf = w.add_flow(0, 1, 1400);
        let _f_cmap = w.add_flow(2, 3, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.set_mac(1, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.set_mac(2, Box::new(CmapMac::new(CmapConfig::default())));
        w.set_mac(3, Box::new(CmapMac::new(CmapConfig::default())));
        w.run_until(secs(6));
        // The DCF flow survives (gets some share) rather than being starved
        // to zero or destroying everything.
        let mbps = tput(&w, f_dcf, secs(2), secs(6));
        assert!(mbps > 0.3, "DCF flow starved: {mbps}");
    }

    #[test]
    fn token_roundtrip() {
        for class in 1..=5u64 {
            for gen in [0u64, 1, 77, GEN_MASK] {
                assert_eq!(untoken(token(class, gen)), (class, gen));
            }
        }
    }

    #[test]
    fn cw_doubles_and_caps() {
        let mut w = world_from_rss(2, &[(0, 1, -60.0)], 10);
        w.add_flow(0, 1, 1400);
        w.set_mac(0, Box::new(DcfMac::new(DcfConfig::status_quo())));
        w.run_until(secs(1));
        let mac = w.mac_ref(0).as_any().downcast_ref::<DcfMac>().unwrap();
        // With no ACKs coming back, cw returns to min after each drop; it
        // never exceeds the max.
        assert!(mac.cw <= CW_MAX);
    }

    #[test]
    fn only_a_sender_waiting_on_the_medium_takes_channel_edges() {
        let mut mac = DcfMac::new(DcfConfig::status_quo());
        for (state, wants) in [
            (TxState::Idle, false),
            (TxState::WaitMedium, true),
            (TxState::WaitDifs, true),
            (TxState::Backoff { started: 7 }, true),
            (TxState::Transmitting, false),
            (TxState::WaitAck, false),
        ] {
            mac.state = state;
            assert_eq!(mac.wants_channel_edges(), wants, "{state:?}");
        }
    }
}
