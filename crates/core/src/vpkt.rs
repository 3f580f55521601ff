//! Virtual packets and the windowed ACK/retransmission protocol (§3.3, §4.1).
//!
//! Sender side ([`SendWindow`]): virtual packets enter the send window when
//! their trailer goes out and stay until every data packet in them is
//! covered by a cumulative ACK bitmap. When the window fills, the sender
//! times out for `U(τ_min, τ_max)` and *repacks* all still-unacknowledged
//! data packets into fresh virtual packets for retransmission — sequence
//! numbers are per-(sender, destination) so receivers can spot wholly-lost
//! virtual packets.
//!
//! Receiver side ([`PeerRx`]): per-sender reception records over the last
//! window of virtual packets, from which the cumulative bitmap ACK and the
//! reported loss rate (the backoff signal, §3.4) are built.

use std::collections::BTreeMap;

use cmap_phy::Rate;
use cmap_sim::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use cmap_sim::persist;
use cmap_sim::time::Time;
use cmap_wire::cmap::{InterfererEntry, MAX_ACK_WINDOW};
use cmap_wire::view::compose;
use cmap_wire::MacAddr;

use crate::config::N_VPKT;

/// One application data packet riding in a virtual packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPkt {
    /// Flow the packet belongs to.
    pub flow: u16,
    /// End-to-end sequence number.
    pub flow_seq: u32,
    /// Payload length in bytes.
    pub payload_len: usize,
}

persist!(struct DataPkt { flow, flow_seq, payload_len }, validate DataPkt::check);

impl DataPkt {
    /// A restored packet fits a data frame's `u16` length field, as
    /// `World::add_flow` requires of every flow.
    fn check(&self) -> Result<(), CkptError> {
        if self.payload_len > compose::MAX_PAYLOAD_LEN {
            return Err(CkptError::Malformed(format!(
                "data packet of {} payload bytes",
                self.payload_len
            )));
        }
        Ok(())
    }
}

/// A fixed-capacity vector stored inline, checkpointed like a `Vec`
/// (length, then the occupied items) and read as a slice. A sent or
/// repacked virtual packet holds its data packets in one, and a queued
/// ACK its bitmaps and interferer entries, so neither owns a heap list.
#[derive(Debug, Clone, Copy)]
pub struct Inline<T, const N: usize> {
    pub(crate) len: u8,
    pub(crate) items: [T; N],
}

/// The value an [`Inline`]'s unoccupied tail holds.
pub(crate) trait Filler: Copy {
    const FILL: Self;
}

impl Filler for u32 {
    const FILL: u32 = 0;
}

impl Filler for InterfererEntry {
    const FILL: InterfererEntry = InterfererEntry {
        source: MacAddr::BROADCAST,
        interferer: MacAddr::BROADCAST,
        source_rate: Rate::BASE,
    };
}

impl Filler for DataPkt {
    const FILL: DataPkt = DataPkt {
        flow: 0,
        flow_seq: 0,
        payload_len: 0,
    };
}

impl<T: Filler, const N: usize> Default for Inline<T, N> {
    fn default() -> Inline<T, N> {
        Inline {
            len: 0,
            items: [T::FILL; N],
        }
    }
}

impl<T, const N: usize> Inline<T, N> {
    /// Append `v`; returns whether there is room for another.
    pub(crate) fn push(&mut self, v: T) -> bool {
        self.items[usize::from(self.len)] = v;
        self.len += 1;
        usize::from(self.len) < N
    }
}

impl<T, const N: usize> std::ops::Deref for Inline<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

/// Panics past `N` items.
impl<T: Filler, const N: usize> FromIterator<T> for Inline<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Inline<T, N> {
        let mut out = Inline::default();
        for v in iter {
            out.push(v);
        }
        out
    }
}

/// A `Vec<T>`'s bytes; a count over `N` is `Malformed`.
impl<T: Filler + Persist, const N: usize> Persist for Inline<T, N> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.seq(self.iter());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Inline<T, N>, CkptError> {
        let n = r.count::<T>()?;
        if n > N {
            return Err(CkptError::Malformed(format!(
                "{n} items in an inline vector of {N}"
            )));
        }
        (0..n).map(|_| r.get()).collect()
    }
}

/// A transmitted virtual packet awaiting acknowledgement.
#[derive(Debug, Clone)]
pub struct SentVpkt {
    /// Destination node address.
    pub dst: MacAddr,
    /// Per-destination virtual-packet sequence number.
    pub seq: u32,
    /// The data packets, by index.
    pub pkts: Inline<DataPkt, N_VPKT>,
    /// Bitmap of acknowledged indices.
    pub acked: u32,
    /// When the trailer finished transmitting.
    pub sent_at: Time,
    /// Bit-rate the data packets were sent at (per-rate feedback for §3.5
    /// rate adaptation).
    pub rate: Rate,
    /// How many retransmission rounds the packets in this virtual packet
    /// have already been through (0 for a fresh transmission).
    pub rounds: u32,
}

persist!(struct SentVpkt { dst, seq, pkts, acked, sent_at, rate, rounds });

impl SentVpkt {
    /// Bitmap with one bit per carried packet.
    pub(crate) fn full_mask(&self) -> u32 {
        if self.pkts.len() >= 32 {
            u32::MAX
        } else {
            (1u32 << self.pkts.len()) - 1
        }
    }

    /// True once every packet is acknowledged.
    pub(crate) fn fully_acked(&self) -> bool {
        self.acked & self.full_mask() == self.full_mask()
    }

    /// Unacknowledged packets, in index order.
    pub(crate) fn unacked(&self) -> impl Iterator<Item = &DataPkt> {
        self.pkts
            .iter()
            .enumerate()
            .filter(move |(i, _)| self.acked & (1 << i) == 0)
            .map(|(_, p)| p)
    }
}

/// Sender-side send window across all destinations.
#[derive(Debug, Default)]
pub struct SendWindow {
    next_seq: BTreeMap<MacAddr, u32>,
    sent: Vec<SentVpkt>,
    /// Repacked virtual packets awaiting retransmission, FIFO, with the
    /// retransmission-round count they will carry.
    rtx: std::collections::VecDeque<(MacAddr, Inline<DataPkt, N_VPKT>, u32)>,
    /// Per-rate delivery feedback accumulated by `on_ack`/`repack_for_rtx`:
    /// `(dst, rate, packets acked, packets given up)`; the MAC drains it.
    pub(crate) feedback: Vec<(MacAddr, Rate, usize, usize)>,
    /// The MAC's current-virtual-packet list between uses, kept for its
    /// capacity so that it is allocated once. Not checkpointed.
    spare: Option<Vec<DataPkt>>,
}

persist!(struct SendWindow { next_seq, sent, rtx, feedback } ..SendWindow::default());

impl SendWindow {
    /// Allocate the next virtual-packet sequence number towards `dst`.
    pub fn alloc_seq(&mut self, dst: MacAddr) -> u32 {
        let c = self.next_seq.entry(dst).or_insert(0);
        let seq = *c;
        *c += 1;
        seq
    }

    /// An empty packet list: the spare one, else one sized for a full vpkt.
    pub(crate) fn take_list(&mut self) -> Vec<DataPkt> {
        let mut list = self
            .spare
            .take()
            .unwrap_or_else(|| Vec::with_capacity(N_VPKT));
        list.clear();
        list
    }

    /// Keep `list` for the next [`SendWindow::take_list`].
    pub(crate) fn recycle(&mut self, list: Vec<DataPkt>) {
        self.spare = Some(list);
    }

    /// Track a fully transmitted virtual packet.
    pub fn push_sent(&mut self, vpkt: SentVpkt) {
        debug_assert!(!vpkt.pkts.is_empty());
        self.sent.push(vpkt);
    }

    /// Virtual packets with unacknowledged data.
    pub fn outstanding(&self) -> usize {
        self.sent.len()
    }

    /// Unacknowledged *data packets* across the window. §4.2 sizes the send
    /// window in data packets ("8 virtual packets, or 256 data packets"): a
    /// virtual packet with one lost packet must consume one slot, not a
    /// whole virtual packet's worth — otherwise a few percent of residual
    /// loss fills the window after a handful of virtual packets and the
    /// sender spends most of its life in τ-scale retransmission stalls.
    pub(crate) fn outstanding_pkts(&self) -> usize {
        self.sent
            .iter()
            .map(|v| v.pkts.len() - (v.acked & v.full_mask()).count_ones() as usize)
            .sum()
    }

    /// True when the unacknowledged-packet count has reached the window
    /// limit (`n_window × n_vpkt` data packets).
    pub(crate) fn is_full(&self, window_pkts: usize) -> bool {
        self.outstanding_pkts() >= window_pkts
    }

    /// Apply a cumulative ACK from `receiver`. Returns the number of data
    /// packets newly acknowledged.
    pub fn on_ack(&mut self, receiver: MacAddr, base_seq: u32, bitmaps: &[u32]) -> usize {
        let mut newly = 0usize;
        for v in &mut self.sent {
            if v.dst != receiver {
                continue;
            }
            let Some(off) = v.seq.checked_sub(base_seq) else {
                continue;
            };
            if let Some(&bm) = bitmaps.get(off as usize) {
                let fresh = bm & !v.acked & v.full_mask();
                let n = fresh.count_ones() as usize;
                if n > 0 {
                    newly += n;
                    self.feedback.push((v.dst, v.rate, n, 0));
                }
                v.acked |= bm & v.full_mask();
            }
        }
        self.sent.retain(|v| !v.fully_acked());
        newly
    }

    /// Window-timeout path: move every unacknowledged packet out of the
    /// window, repacked into fresh virtual packets of up to `n_vpkt`
    /// packets each (per destination, preserving order). Packets that have
    /// already been through `max_rounds` retransmission rounds are dropped
    /// instead of requeued — unbounded retransmission to a dead receiver
    /// would pin the send window forever. Returns `(requeued, given_up)`
    /// packet counts.
    pub fn repack_for_rtx(&mut self, n_vpkt: usize, max_rounds: u32) -> (usize, usize) {
        // Packets are grouped by (destination, rounds) so a packet's round
        // count survives the repack intact; a group's lists stay adjacent
        // in `rtx`, the groups in the order they first appear.
        let (first, cap) = (self.rtx.len(), n_vpkt.clamp(1, N_VPKT));
        let (mut total, mut given_up) = (0, 0);
        let mut sent = std::mem::take(&mut self.sent);
        for v in sent.drain(..) {
            let n = v.unacked().count();
            if n > 0 {
                self.feedback.push((v.dst, v.rate, 0, n));
            }
            if v.rounds >= max_rounds {
                given_up += n;
            } else {
                total += n;
                let (dst, rounds) = (v.dst, v.rounds + 1);
                // One past the group's last list, and the room left in it.
                let found = self
                    .rtx
                    .range(first..)
                    .rposition(|&(d, _, r)| (d, r) == (dst, rounds));
                let mut end = found.map_or(self.rtx.len(), |k| first + k + 1);
                let mut room = found.map_or(0, |k| cap - self.rtx[first + k].1.len());
                for &p in v.unacked() {
                    if room == 0 {
                        self.rtx.insert(end, (dst, Inline::default(), rounds));
                        (end, room) = (end + 1, cap);
                    }
                    self.rtx[end - 1].1.push(p);
                    room -= 1;
                }
            }
        }
        self.sent = sent;
        (total, given_up)
    }

    /// Next repacked virtual packet to retransmit, if any:
    /// `(dst, packets, retransmission rounds consumed)`.
    pub fn pop_rtx(&mut self) -> Option<(MacAddr, Inline<DataPkt, N_VPKT>, u32)> {
        self.rtx.pop_front()
    }

    /// Whether repacked retransmissions are pending.
    pub(crate) fn has_rtx(&self) -> bool {
        !self.rtx.is_empty()
    }
}

/// Receiver-side record of one virtual packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct RxVpkt {
    /// Bitmap of received data-packet indices.
    pub(crate) bits: u32,
    /// Count announced by header/trailer, when one was received.
    pub(crate) expected: Option<u8>,
    /// End of the header frame (start of the data burst), when heard.
    pub(crate) data_start: Option<Time>,
}

persist!(struct RxVpkt { bits, expected, data_start });

/// Receiver-side state for one sender addressing us.
#[derive(Debug, Default)]
pub struct PeerRx {
    records: BTreeMap<u32, RxVpkt>,
    highest: Option<u32>,
    /// Virtual packets already finalised (loss attribution done); a
    /// duplicated or reordered trailer must not run attribution twice.
    finalized: std::collections::BTreeSet<u32>,
    /// Highest `upto` an ACK was built for: duplicated/reordered trailers
    /// must never slide the cumulative-ACK window backwards.
    last_ack_upto: Option<u32>,
}

persist!(struct PeerRx { records, highest, finalized, last_ack_upto });

impl PeerRx {
    fn touch(&mut self, seq: u32) -> &mut RxVpkt {
        self.highest = Some(self.highest.map_or(seq, |h| h.max(seq)));
        self.records.entry(seq).or_default()
    }

    /// Header received: the data burst starts at `data_start` and will
    /// carry `count` packets.
    pub fn on_header(&mut self, seq: u32, count: u8, data_start: Time) {
        let r = self.touch(seq);
        r.expected = Some(count);
        r.data_start = Some(data_start);
    }

    /// Data packet `idx` of `seq` received.
    pub fn on_data(&mut self, seq: u32, idx: u8) {
        self.touch(seq).bits |= 1 << idx;
    }

    /// Trailer received: the count is (re)learned even if the header died.
    pub(crate) fn on_trailer(&mut self, seq: u32, count: u8) {
        let r = self.touch(seq);
        r.expected.get_or_insert(count);
    }

    /// Record for a virtual packet, if any.
    pub(crate) fn record(&self, seq: u32) -> Option<&RxVpkt> {
        self.records.get(&seq)
    }

    /// First finalisation of `seq` returns `true`; repeats (duplicated or
    /// reordered trailers / finalise timers) return `false` so callers can
    /// skip non-idempotent work such as interference attribution.
    pub(crate) fn mark_finalized(&mut self, seq: u32) -> bool {
        self.finalized.insert(seq)
    }

    /// A crashed-and-restarted sender begins numbering virtual packets from
    /// zero again. Frames can only be reordered within a send window, so a
    /// sequence arriving more than `window` below the highest ever seen is
    /// a reboot, not reordering — the caller should discard this state.
    pub(crate) fn looks_rebooted(&self, seq: u32, window: u32) -> bool {
        self.highest.is_some_and(|h| seq.saturating_add(window) < h)
    }

    /// Build the cumulative ACK covering the last `n_window` virtual
    /// packets ending at `upto`: the bitmaps are written into `out`, and
    /// `(base_seq, bitmap_count, loss_rate)` is returned. Allocation-free:
    /// the records that fell below the window are pruned in place.
    ///
    /// Sequence numbers in the span that were never heard at all count as
    /// fully lost (`default_expected` packets each) — the sender numbers
    /// virtual packets consecutively per destination, so a hole is a lost
    /// virtual packet, not an artefact.
    pub fn build_ack_into(
        &mut self,
        upto: u32,
        n_window: usize,
        default_expected: u8,
        out: &mut [u32; MAX_ACK_WINDOW],
    ) -> (u32, u8, f64) {
        let n_window = n_window.clamp(1, MAX_ACK_WINDOW);
        // A reordered trailer for an old virtual packet must not regress
        // the window: always ACK up to the newest sequence ever finalised.
        let upto = self.last_ack_upto.map_or(upto, |last| upto.max(last));
        self.last_ack_upto = Some(upto);
        let base = (upto + 1).saturating_sub(n_window as u32);
        let mut count = 0u8;
        let (mut expected_total, mut got_total) = (0u64, 0u64);
        for seq in base..=upto {
            let bits = match self.records.get(&seq) {
                Some(r) => {
                    let expected = u64::from(r.expected.unwrap_or(default_expected));
                    let got = u64::from(r.bits.count_ones()).min(expected);
                    expected_total += expected;
                    got_total += got;
                    r.bits
                }
                None => {
                    expected_total += u64::from(default_expected);
                    0
                }
            };
            out[count as usize] = bits;
            count += 1;
        }
        // Prune records that fell out of every future window.
        while let Some(e) = self.records.first_entry().filter(|e| *e.key() < base) {
            e.remove();
        }
        while self.finalized.first().is_some_and(|&s| s < base) {
            self.finalized.pop_first();
        }
        let loss = if expected_total == 0 {
            0.0
        } else {
            1.0 - got_total as f64 / expected_total as f64
        };
        (base, count, loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    fn pkt(seq: u32) -> DataPkt {
        DataPkt {
            flow: 0,
            flow_seq: seq,
            payload_len: 1400,
        }
    }

    /// `build_ack_into` with the bitmaps as a `Vec`.
    fn build_ack(r: &mut PeerRx, upto: u32, n_window: usize, expect: u8) -> (u32, Vec<u32>, f64) {
        let mut out = [0u32; MAX_ACK_WINDOW];
        let (base, n, loss) = r.build_ack_into(upto, n_window, expect, &mut out);
        (base, out[..usize::from(n)].to_vec(), loss)
    }

    fn sent(dst: MacAddr, seq: u32, n: usize) -> SentVpkt {
        SentVpkt {
            dst,
            seq,
            pkts: (0..n as u32).map(pkt).collect(),
            acked: 0,
            sent_at: 0,
            rate: Rate::R6,
            rounds: 0,
        }
    }

    #[test]
    fn seq_allocation_is_per_destination() {
        let mut w = SendWindow::default();
        assert_eq!(w.alloc_seq(a(1)), 0);
        assert_eq!(w.alloc_seq(a(1)), 1);
        assert_eq!(w.alloc_seq(a(2)), 0);
        assert_eq!(w.alloc_seq(a(1)), 2);
    }

    #[test]
    fn ack_clears_fully_acked_vpkts() {
        let mut w = SendWindow::default();
        w.push_sent(sent(a(1), 0, 32));
        w.push_sent(sent(a(1), 1, 32));
        assert_eq!(w.outstanding(), 2);
        // Full bitmap for vpkt 0, half for vpkt 1.
        let newly = w.on_ack(a(1), 0, &[u32::MAX, 0x0000_FFFF]);
        assert_eq!(newly, 32 + 16);
        assert_eq!(w.outstanding(), 1);
        // Duplicate ACK adds nothing.
        assert_eq!(w.on_ack(a(1), 0, &[u32::MAX, 0x0000_FFFF]), 0);
        // Completing vpkt 1.
        assert_eq!(w.on_ack(a(1), 0, &[0, u32::MAX]), 16);
        assert_eq!(w.outstanding(), 0);
    }

    #[test]
    fn ack_from_wrong_receiver_ignored() {
        let mut w = SendWindow::default();
        w.push_sent(sent(a(1), 0, 8));
        assert_eq!(w.on_ack(a(2), 0, &[u32::MAX]), 0);
        assert_eq!(w.outstanding(), 1);
    }

    #[test]
    fn ack_base_offsets_respected() {
        let mut w = SendWindow::default();
        w.push_sent(sent(a(1), 5, 8));
        // Bitmap index 2 covers seq 5 when base is 3.
        assert_eq!(w.on_ack(a(1), 3, &[0, 0, 0xFF]), 8);
        assert_eq!(w.outstanding(), 0);
    }

    #[test]
    fn partial_vpkt_masks() {
        let v = sent(a(1), 0, 5);
        assert_eq!(v.full_mask(), 0b11111);
        let mut v = v;
        v.acked = 0b10101;
        assert!(!v.fully_acked());
        let unacked: Vec<u32> = v.unacked().map(|p| p.flow_seq).collect();
        assert_eq!(unacked, vec![1, 3]);
        v.acked = 0b11111;
        assert!(v.fully_acked());
    }

    #[test]
    fn repack_collects_unacked_in_order() {
        let mut w = SendWindow::default();
        let mut v0 = sent(a(1), 0, 4);
        v0.acked = 0b0011; // packets 2,3 unacked
        let mut v1 = sent(a(1), 1, 4);
        v1.pkts = (10..14).map(pkt).collect();
        v1.acked = 0b1010; // packets 0,2 unacked (flow seqs 10, 12)
        w.push_sent(v0);
        w.push_sent(v1);
        let (n, gave_up) = w.repack_for_rtx(3, 8);
        assert_eq!(n, 4);
        assert_eq!(gave_up, 0);
        assert_eq!(w.outstanding(), 0);
        let (dst, first, rounds) = w.pop_rtx().unwrap();
        assert_eq!(dst, a(1));
        assert_eq!(rounds, 1);
        assert_eq!(
            first.iter().map(|p| p.flow_seq).collect::<Vec<_>>(),
            vec![2, 3, 10]
        );
        let (_, second, _) = w.pop_rtx().unwrap();
        assert_eq!(
            second.iter().map(|p| p.flow_seq).collect::<Vec<_>>(),
            vec![12]
        );
        assert!(w.pop_rtx().is_none());
    }

    #[test]
    fn repack_gives_up_after_max_rounds() {
        let mut w = SendWindow::default();
        let mut tired = sent(a(1), 0, 4);
        tired.rounds = 2; // already retransmitted twice
        let fresh = sent(a(1), 1, 4);
        w.push_sent(tired);
        w.push_sent(fresh);
        let (requeued, gave_up) = w.repack_for_rtx(32, 2);
        assert_eq!((requeued, gave_up), (4, 4));
        let (_, pkts, rounds) = w.pop_rtx().unwrap();
        assert_eq!(pkts.len(), 4);
        assert_eq!(rounds, 1);
        assert!(w.pop_rtx().is_none());
        // The given-up packets still show as losses in the rate feedback.
        let lost: usize = w.feedback.iter().map(|&(_, _, _, l)| l).sum();
        assert_eq!(lost, 8);
    }

    #[test]
    fn rounds_survive_multiple_repacks() {
        let mut w = SendWindow::default();
        w.push_sent(sent(a(1), 0, 4));
        for round in 1..=3u32 {
            let (requeued, gave_up) = w.repack_for_rtx(32, 3);
            assert_eq!((requeued, gave_up), (4, 0), "round {round}");
            let (dst, pkts, rounds) = w.pop_rtx().unwrap();
            assert_eq!(rounds, round);
            let mut v = sent(dst, round, 4);
            v.pkts = pkts;
            v.rounds = rounds;
            w.push_sent(v);
        }
        // Fourth timeout: the packets have exhausted their rounds.
        let (requeued, gave_up) = w.repack_for_rtx(32, 3);
        assert_eq!((requeued, gave_up), (0, 4));
        assert!(w.pop_rtx().is_none());
    }

    #[test]
    fn finalize_is_idempotent_per_vpkt() {
        let mut r = PeerRx::default();
        r.on_header(0, 4, 100);
        assert!(r.mark_finalized(0), "first finalisation runs attribution");
        assert!(!r.mark_finalized(0), "duplicate trailer must not");
        // Pruning forgets old sequences without reviving them inside the
        // still-covered window.
        for seq in 1..20u32 {
            r.on_header(seq, 4, 100);
            r.mark_finalized(seq);
        }
        let _ = build_ack(&mut r, 19, 8, 4);
        assert!(!r.mark_finalized(19), "in-window state survives the prune");
    }

    #[test]
    fn reboot_detection_distinguishes_reordering() {
        let mut r = PeerRx::default();
        assert!(!r.looks_rebooted(0, 32), "fresh peer: nothing to compare");
        r.on_header(100, 4, 0);
        // Reordering within a few windows is normal.
        assert!(!r.looks_rebooted(95, 32));
        assert!(!r.looks_rebooted(68, 32));
        // A jump far below the highest sequence means the sender rebooted.
        assert!(r.looks_rebooted(0, 32));
        assert!(r.looks_rebooted(67, 32));
    }

    #[test]
    fn ack_window_never_slides_backwards() {
        let mut r = PeerRx::default();
        for seq in 0..=10u32 {
            r.on_header(seq, 2, 0);
            r.on_data(seq, 0);
            r.on_data(seq, 1);
        }
        let (base_new, _, _) = build_ack(&mut r, 10, 4, 2);
        assert_eq!(base_new, 7);
        // A reordered trailer for vpkt 3 arrives late: the ACK must still
        // cover the newest window, not regress to [0, 3].
        let (base_old, bitmaps, _) = build_ack(&mut r, 3, 4, 2);
        assert_eq!(base_old, 7);
        assert_eq!(bitmaps.len(), 4);
    }

    #[test]
    fn receiver_bitmap_and_loss_rate() {
        let mut r = PeerRx::default();
        // vpkt 0: full; vpkt 1: half; vpkt 2: missing entirely; vpkt 3:
        // trailer only.
        r.on_header(0, 4, 100);
        for i in 0..4 {
            r.on_data(0, i);
        }
        r.on_header(1, 4, 200);
        r.on_data(1, 0);
        r.on_data(1, 1);
        r.on_header(3, 4, 400);
        r.on_trailer(3, 4);
        let (base, bitmaps, loss) = build_ack(&mut r, 3, 4, 4);
        assert_eq!(base, 0);
        assert_eq!(bitmaps, vec![0b1111, 0b0011, 0, 0]);
        // expected 16, got 6 -> loss 10/16.
        assert!((loss - 10.0 / 16.0).abs() < 1e-9, "{loss}");
    }

    #[test]
    fn ack_window_slides_and_prunes() {
        let mut r = PeerRx::default();
        for seq in 0..20u32 {
            r.on_header(seq, 2, Time::from(seq) * 100);
            r.on_data(seq, 0);
            r.on_data(seq, 1);
        }
        let (base, bitmaps, loss) = build_ack(&mut r, 19, 8, 2);
        assert_eq!(base, 12);
        assert_eq!(bitmaps.len(), 8);
        assert!(bitmaps.iter().all(|&b| b == 0b11));
        assert!(loss.abs() < 1e-9);
        // Old records pruned.
        assert!(r.record(5).is_none());
        assert!(r.record(12).is_some());
    }

    #[test]
    fn feedback_accounts_acks_and_losses() {
        let mut w = SendWindow::default();
        w.push_sent(sent(a(1), 0, 8));
        w.push_sent(sent(a(1), 1, 8));
        w.on_ack(a(1), 0, &[0b1111, 0]); // 4 of vpkt 0 acked
        let (n, _) = w.repack_for_rtx(32, 8); // 4 + 8 lost
        assert_eq!(n, 12);
        let acked: usize = w.feedback.iter().map(|&(_, _, a, _)| a).sum();
        let lost: usize = w.feedback.iter().map(|&(_, _, _, l)| l).sum();
        assert_eq!((acked, lost), (4, 12));
    }

    #[test]
    fn early_sequences_clamp_base_to_zero() {
        let mut r = PeerRx::default();
        r.on_header(1, 3, 0);
        r.on_data(1, 2);
        let (base, bitmaps, _) = build_ack(&mut r, 1, 8, 3);
        assert_eq!(base, 0);
        assert_eq!(bitmaps.len(), 2);
        assert_eq!(bitmaps[1], 0b100);
    }
}
