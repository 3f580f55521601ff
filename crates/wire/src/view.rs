//! Zero-copy typed frame views and in-place composition.
//!
//! This module is the frame codec. A received frame is inspected once and
//! dropped, so a [`FrameView`] borrows the raw wire bytes and reads each
//! field in place at its fixed offset; nothing is copied or allocated.
//!
//! Two entry points:
//! * [`FrameView::parse`] — the *trusted* structural parse for frames the
//!   engine itself composed: every bounds and validity rule is enforced,
//!   but the trailing CRC is **not** recomputed (the simulator models
//!   corruption at the PHY grading layer, not by flipping bits, so
//!   internally-composed frames always carry a valid CRC).
//! * [`FrameView::parse_checked`] — the parse for untrusted bytes: the CRC
//!   is verified before anything else is inspected.
//!
//! The [`compose`] module is the write side: each function builds a
//! complete frame — tag, body, trailing CRC — into a caller-supplied
//! `Vec<u8>` that is cleared and reused, so steady-state transmission paths
//! never allocate.
//!
//! An independent owned reader/writer lives beside the tests
//! (`tests/reference/`); every byte-mutation and truncation sweep there
//! holds `parse_checked` to the same `Result` — accepted inputs and error
//! classification — and `compose` to the same bytes.

use cmap_phy::Rate;

use crate::addr::MacAddr;
use crate::cmap::{self, InterfererEntry};
use crate::frame::{FrameKind, WireError};

// ---- field readers ------------------------------------------------------

#[inline]
fn u16_at(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

#[inline]
fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

#[inline]
fn mac_at(buf: &[u8], off: usize) -> MacAddr {
    MacAddr::from_bytes(&buf[off..off + 6])
}

/// Validate one 13-byte interferer entry run (`count` entries starting at
/// `pos`) in reading order: a short entry is [`WireError::Truncated`], a
/// bad rate byte [`WireError::Malformed`].
/// `body_end` is the first byte past the CRC-less body.
fn check_entries(
    buf: &[u8],
    mut pos: usize,
    count: usize,
    body_end: usize,
) -> Result<usize, WireError> {
    for _ in 0..count {
        if body_end < pos + cmap::IL_ENTRY_LEN {
            return Err(WireError::Truncated);
        }
        if Rate::from_u8(buf[pos + 12]).is_none() {
            return Err(WireError::Malformed);
        }
        pos += cmap::IL_ENTRY_LEN;
    }
    Ok(pos)
}

#[inline]
fn entry_at(buf: &[u8], pos: usize) -> InterfererEntry {
    InterfererEntry {
        source: mac_at(buf, pos),
        interferer: mac_at(buf, pos + 6),
        source_rate: Rate::from_u8(buf[pos + 12]).expect("validated at parse"),
    }
}

// ---- per-kind views -----------------------------------------------------

/// View over a CMAP virtual-packet header or trailer announcement (Fig 3;
/// fixed [`cmap::HEADER_TRAILER_LEN`] bytes).
///
/// The same body serves both roles; the [`FrameKind`] tag distinguishes them.
/// `tx_time_us` is the *estimated transmission time* field: for a header it
/// is the time from the end of the header frame until the end of the virtual
/// packet (how long an overhearer should defer, §3.2); for a trailer it is
/// the total duration of the virtual packet that just ended, letting
/// receivers reconstruct the interval the transmission occupied when
/// attributing collisions (§3.1).
#[derive(Debug, Clone, Copy)]
pub struct HeaderTrailerView<'a> {
    buf: &'a [u8],
}

impl<'a> HeaderTrailerView<'a> {
    fn check(buf: &[u8]) -> Result<(), WireError> {
        // Body (between tag and CRC) is 22 bytes: 6+6+4+4+1+1, so it ends
        // at offset 23. Reads are gated individually so Truncated and
        // Malformed come in field order, as a sequential reader reports them.
        let body_end = buf.len() - 4;
        if body_end < 22 {
            return Err(WireError::Truncated);
        }
        if buf[21] as usize > cmap::MAX_VPKT_DATA {
            return Err(WireError::Malformed);
        }
        if body_end < 23 {
            return Err(WireError::Truncated);
        }
        if Rate::from_u8(buf[22]).is_none() {
            return Err(WireError::Malformed);
        }
        if body_end != 23 {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// Transmitting node.
    pub fn src(&self) -> MacAddr {
        mac_at(self.buf, 1)
    }

    /// Intended receiver of the virtual packet.
    pub fn dst(&self) -> MacAddr {
        mac_at(self.buf, 7)
    }

    /// Estimated transmission time in microseconds (see type docs).
    pub fn tx_time_us(&self) -> u32 {
        u32_at(self.buf, 13)
    }

    /// Link-layer sequence number of the virtual packet (per sender →
    /// destination pair).
    pub fn vpkt_seq(&self) -> u32 {
        u32_at(self.buf, 17)
    }

    /// Number of data packets in this virtual packet (receivers use it to
    /// count losses; implied by `tx_time_us` in the paper's format).
    pub fn pkt_count(&self) -> u8 {
        self.buf[21]
    }

    /// Bit-rate of the *data packets* of this virtual packet (§3.5
    /// annotation; the header/trailer itself is always sent at the base
    /// rate).
    pub fn data_rate(&self) -> Rate {
        Rate::from_u8(self.buf[22]).expect("validated at parse")
    }
}

/// View over a CMAP data frame, one data packet within a virtual packet
/// ([`cmap::DATA_OVERHEAD`] bytes around the payload).
#[derive(Debug, Clone, Copy)]
pub struct CmapDataView<'a> {
    buf: &'a [u8],
}

impl<'a> CmapDataView<'a> {
    fn check(buf: &[u8]) -> Result<(), WireError> {
        let body_end = buf.len() - 4;
        // Fixed fields through the payload-length word end at offset 26.
        if body_end < 18 {
            return Err(WireError::Truncated);
        }
        if buf[17] as usize >= cmap::MAX_VPKT_DATA {
            return Err(WireError::Malformed);
        }
        if body_end < 26 {
            return Err(WireError::Truncated);
        }
        let len = u16_at(buf, 24) as usize;
        if body_end < 26 + len {
            return Err(WireError::Truncated);
        }
        if body_end != 26 + len {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// Transmitting node.
    pub fn src(&self) -> MacAddr {
        mac_at(self.buf, 1)
    }

    /// Intended receiver.
    pub fn dst(&self) -> MacAddr {
        mac_at(self.buf, 7)
    }

    /// Virtual packet this data packet currently travels in. Retransmitted
    /// packets are *repacked* into fresh virtual packets, so this changes
    /// across retransmissions while `flow_seq` does not.
    pub fn vpkt_seq(&self) -> u32 {
        u32_at(self.buf, 13)
    }

    /// Position within the virtual packet (`0..N_vpkt`), indexing the ACK
    /// bitmap bit for this packet.
    pub fn index(&self) -> u8 {
        self.buf[17]
    }

    /// Higher-layer flow identifier (stands in for the IP 5-tuple).
    pub fn flow(&self) -> u16 {
        u16_at(self.buf, 18)
    }

    /// End-to-end sequence number within the flow; receivers use it for
    /// duplicate suppression and loss-rate estimation.
    pub fn flow_seq(&self) -> u32 {
        u32_at(self.buf, 20)
    }

    /// Application payload, borrowed from the wire bytes.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[26..self.buf.len() - 4]
    }
}

/// View over a CMAP cumulative windowed ACK (§3.3).
///
/// Sent by the receiver after each virtual-packet trailer. Covers the
/// `bitmap_count()` consecutive virtual packets starting at
/// `base_vpkt_seq`; bit `i` of `bitmap(k)` reports data packet `i` of
/// virtual packet `base_vpkt_seq + k`. The `loss_rate` byte carries the
/// packet loss rate the receiver observed over the previous window of
/// packets, scaled to 0..=255 — this is the feedback that drives the
/// sender's backoff (§3.4).
///
/// ACKs may also piggyback the receiver's current interferer list
/// (`il_entries`). §3.1 allows interferer lists to ride on "routing beacons
/// or other control messages"; in this standalone link layer the ACK is the
/// natural carrier — crucially, it arrives during the sender's `t_ackwait`,
/// one of the few moments a saturated sender is actually listening.
///
/// Layout: tag 1 + src 6 + dst 6 + base 4 + bitmap count 1 + bitmaps 4 each +
/// loss 1 + il count 1 + entries `cmap::IL_ENTRY_LEN` each + CRC 4.
#[derive(Debug, Clone, Copy)]
pub struct CmapAckView<'a> {
    buf: &'a [u8],
}

impl<'a> CmapAckView<'a> {
    fn check(buf: &[u8]) -> Result<(), WireError> {
        let body_end = buf.len() - 4;
        if body_end < 18 {
            return Err(WireError::Truncated);
        }
        let count = buf[17] as usize;
        if count > cmap::MAX_ACK_WINDOW {
            return Err(WireError::Malformed);
        }
        // Bitmaps, loss byte, interferer count.
        if body_end < 18 + 4 * count + 2 {
            return Err(WireError::Truncated);
        }
        let il_count = buf[19 + 4 * count] as usize;
        if il_count > cmap::ACK_MAX_IL_ENTRIES {
            return Err(WireError::Malformed);
        }
        let pos = check_entries(buf, 20 + 4 * count, il_count, body_end)?;
        if body_end != pos {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// The receiver sending the ACK.
    pub fn src(&self) -> MacAddr {
        mac_at(self.buf, 1)
    }

    /// The data sender being acknowledged.
    pub fn dst(&self) -> MacAddr {
        mac_at(self.buf, 7)
    }

    /// First virtual-packet sequence number covered by the bitmaps.
    pub fn base_vpkt_seq(&self) -> u32 {
        u32_at(self.buf, 13)
    }

    /// Number of per-virtual-packet bitmaps (≤ [`cmap::MAX_ACK_WINDOW`]).
    pub fn bitmap_count(&self) -> usize {
        self.buf[17] as usize
    }

    /// Reception bitmap for virtual packet `base_vpkt_seq + i`.
    pub fn bitmap(&self, i: usize) -> u32 {
        debug_assert!(i < self.bitmap_count());
        u32_at(self.buf, 18 + 4 * i)
    }

    /// Observed loss rate, scaled so 255 = 100%.
    pub fn loss_rate(&self) -> u8 {
        self.buf[18 + 4 * self.bitmap_count()]
    }

    /// Loss rate as a fraction in `[0, 1]`.
    pub fn loss_rate_fraction(&self) -> f64 {
        f64::from(self.loss_rate()) / 255.0
    }

    /// Number of piggybacked interferer-list entries.
    pub fn il_count(&self) -> usize {
        self.buf[19 + 4 * self.bitmap_count()] as usize
    }

    /// Iterate the piggybacked interferer-list entries in place.
    pub fn il_entries(&self) -> impl Iterator<Item = InterfererEntry> + 'a {
        let buf = self.buf;
        let base = 20 + 4 * self.bitmap_count();
        (0..self.il_count()).map(move |i| entry_at(buf, base + cmap::IL_ENTRY_LEN * i))
    }
}

/// View over the periodic interferer-list broadcast from a receiver to its
/// one-hop neighbourhood (§3.1). Senders apply update rules 1 and 2 to it.
///
/// Layout: tag 1 + src 6 + count 1 + entries `cmap::IL_ENTRY_LEN` each +
/// CRC 4.
#[derive(Debug, Clone, Copy)]
pub struct CmapIlView<'a> {
    buf: &'a [u8],
}

impl<'a> CmapIlView<'a> {
    fn check(buf: &[u8]) -> Result<(), WireError> {
        let body_end = buf.len() - 4;
        if body_end < 8 {
            return Err(WireError::Truncated);
        }
        let pos = check_entries(buf, 8, buf[7] as usize, body_end)?;
        if body_end != pos {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// The receiver broadcasting its list.
    pub fn src(&self) -> MacAddr {
        mac_at(self.buf, 1)
    }

    /// Number of conflict-pair entries.
    pub(crate) fn count(&self) -> usize {
        self.buf[7] as usize
    }

    /// Iterate the conflict-pair entries in place.
    pub fn entries(&self) -> impl Iterator<Item = InterfererEntry> + 'a {
        let buf = self.buf;
        (0..self.count()).map(move |i| entry_at(buf, 8 + cmap::IL_ENTRY_LEN * i))
    }
}

/// View over an 802.11 baseline unicast data frame.
///
/// Layout: tag 1 + src 6 + dst 6 + seq 2 + retry 1 + dur 4 + flow 2 +
/// flow_seq 4 + len 2 + payload + CRC 4.
#[derive(Debug, Clone, Copy)]
pub struct Dot11DataView<'a> {
    buf: &'a [u8],
}

impl<'a> Dot11DataView<'a> {
    fn check(buf: &[u8]) -> Result<(), WireError> {
        let body_end = buf.len() - 4;
        if body_end < 16 {
            return Err(WireError::Truncated);
        }
        if buf[15] > 1 {
            return Err(WireError::Malformed);
        }
        if body_end < 28 {
            return Err(WireError::Truncated);
        }
        let len = u16_at(buf, 26) as usize;
        if body_end < 28 + len {
            return Err(WireError::Truncated);
        }
        if body_end != 28 + len {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// Transmitter address.
    pub fn src(&self) -> MacAddr {
        mac_at(self.buf, 1)
    }

    /// Receiver address.
    pub fn dst(&self) -> MacAddr {
        mac_at(self.buf, 7)
    }

    /// MAC sequence number (for duplicate detection on retransmissions,
    /// mirroring the 802.11 sequence-control field).
    pub fn seq(&self) -> u16 {
        u16_at(self.buf, 13)
    }

    /// Retry flag: set on retransmissions.
    pub fn retry(&self) -> bool {
        self.buf[15] == 1
    }

    /// NAV duration in nanoseconds: time the medium remains reserved after
    /// this frame ends (SIFS + ACK for unicast data).
    pub fn duration_ns(&self) -> u32 {
        u32_at(self.buf, 16)
    }

    /// Higher-layer flow identifier.
    pub fn flow(&self) -> u16 {
        u16_at(self.buf, 20)
    }

    /// End-to-end sequence number within the flow.
    pub fn flow_seq(&self) -> u32 {
        u32_at(self.buf, 22)
    }

    /// Application payload, borrowed from the wire bytes.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[28..self.buf.len() - 4]
    }
}

/// View over an 802.11 ACK control frame: receiver address only, padded to
/// the real control-frame length ([`dot11::ACK_LEN`](crate::dot11::ACK_LEN)).
#[derive(Debug, Clone, Copy)]
pub struct Dot11AckView<'a> {
    buf: &'a [u8],
}

impl<'a> Dot11AckView<'a> {
    fn check(buf: &[u8]) -> Result<(), WireError> {
        let body_end = buf.len() - 4;
        if body_end < 10 {
            return Err(WireError::Truncated);
        }
        if buf[7..10] != [0, 0, 0] {
            return Err(WireError::Malformed);
        }
        if body_end != 10 {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// The station being acknowledged.
    pub fn dst(&self) -> MacAddr {
        mac_at(self.buf, 1)
    }
}

// ---- the dispatching view ----------------------------------------------

/// A typed, zero-copy view over one complete frame (tag through CRC).
///
/// `Copy`: a view is one fat pointer per variant, so the engine can hand
/// the same view to multiple handlers (e.g. duplicate-delivery faults)
/// without cloning frame contents.
#[derive(Debug, Clone, Copy)]
pub enum FrameView<'a> {
    /// CMAP virtual-packet header.
    CmapHeader(HeaderTrailerView<'a>),
    /// CMAP virtual-packet trailer.
    CmapTrailer(HeaderTrailerView<'a>),
    /// CMAP data packet.
    CmapData(CmapDataView<'a>),
    /// CMAP cumulative ACK.
    CmapAck(CmapAckView<'a>),
    /// CMAP interferer-list broadcast.
    CmapInterfererList(CmapIlView<'a>),
    /// 802.11 baseline data frame.
    Dot11Data(Dot11DataView<'a>),
    /// 802.11 baseline ACK.
    Dot11Ack(Dot11AckView<'a>),
}

impl<'a> FrameView<'a> {
    /// Trusted structural parse: every bounds/validity rule except CRC
    /// verification. Use on frames the engine composed itself; for
    /// untrusted bytes use [`FrameView::parse_checked`].
    pub fn parse(buf: &'a [u8]) -> Result<FrameView<'a>, WireError> {
        if buf.len() < 5 {
            return Err(WireError::Truncated);
        }
        let kind = FrameKind::from_u8(buf[0])?;
        Ok(match kind {
            FrameKind::CmapHeader => {
                HeaderTrailerView::check(buf)?;
                FrameView::CmapHeader(HeaderTrailerView { buf })
            }
            FrameKind::CmapTrailer => {
                HeaderTrailerView::check(buf)?;
                FrameView::CmapTrailer(HeaderTrailerView { buf })
            }
            FrameKind::CmapData => {
                CmapDataView::check(buf)?;
                FrameView::CmapData(CmapDataView { buf })
            }
            FrameKind::CmapAck => {
                CmapAckView::check(buf)?;
                FrameView::CmapAck(CmapAckView { buf })
            }
            FrameKind::CmapInterfererList => {
                CmapIlView::check(buf)?;
                FrameView::CmapInterfererList(CmapIlView { buf })
            }
            FrameKind::Dot11Data => {
                Dot11DataView::check(buf)?;
                FrameView::Dot11Data(Dot11DataView { buf })
            }
            FrameKind::Dot11Ack => {
                Dot11AckView::check(buf)?;
                FrameView::Dot11Ack(Dot11AckView { buf })
            }
        })
    }

    /// Parse untrusted bytes: CRC verified before anything else is
    /// inspected, then the same structural checks as [`FrameView::parse`].
    pub fn parse_checked(buf: &'a [u8]) -> Result<FrameView<'a>, WireError> {
        if buf.len() < 5 {
            return Err(WireError::Truncated);
        }
        if !crate::crc::verify_trailing_crc(buf) {
            return Err(WireError::BadCrc);
        }
        FrameView::parse(buf)
    }

    /// The tag of this frame.
    pub fn kind(&self) -> FrameKind {
        match self {
            FrameView::CmapHeader(_) => FrameKind::CmapHeader,
            FrameView::CmapTrailer(_) => FrameKind::CmapTrailer,
            FrameView::CmapData(_) => FrameKind::CmapData,
            FrameView::CmapAck(_) => FrameKind::CmapAck,
            FrameView::CmapInterfererList(_) => FrameKind::CmapInterfererList,
            FrameView::Dot11Data(_) => FrameKind::Dot11Data,
            FrameView::Dot11Ack(_) => FrameKind::Dot11Ack,
        }
    }

    /// The underlying wire bytes (tag through CRC).
    pub fn bytes(&self) -> &'a [u8] {
        match self {
            FrameView::CmapHeader(v) | FrameView::CmapTrailer(v) => v.buf,
            FrameView::CmapData(v) => v.buf,
            FrameView::CmapAck(v) => v.buf,
            FrameView::CmapInterfererList(v) => v.buf,
            FrameView::Dot11Data(v) => v.buf,
            FrameView::Dot11Ack(v) => v.buf,
        }
    }

    /// Serialised length in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes().len()
    }

    /// Transmitting station, where the frame carries one (802.11 ACKs
    /// carry only a receiver address).
    pub fn src(&self) -> Option<MacAddr> {
        Some(match self {
            FrameView::CmapHeader(v) | FrameView::CmapTrailer(v) => v.src(),
            FrameView::CmapData(v) => v.src(),
            FrameView::CmapAck(v) => v.src(),
            FrameView::CmapInterfererList(v) => v.src(),
            FrameView::Dot11Data(v) => v.src(),
            FrameView::Dot11Ack(_) => return None,
        })
    }

    /// Intended receiver.
    pub fn dst(&self) -> MacAddr {
        match self {
            FrameView::CmapHeader(v) | FrameView::CmapTrailer(v) => v.dst(),
            FrameView::CmapData(v) => v.dst(),
            FrameView::CmapAck(v) => v.dst(),
            FrameView::CmapInterfererList(_) => MacAddr::BROADCAST,
            FrameView::Dot11Data(v) => v.dst(),
            FrameView::Dot11Ack(v) => v.dst(),
        }
    }
}

// ---- in-place composition ----------------------------------------------

/// Build complete frames — tag, body, trailing CRC — into a reusable
/// buffer. Each function clears `buf` first; the buffer's capacity is
/// retained across frames, so a steady-state transmit path composes
/// without allocating.
pub mod compose {
    use super::*;

    #[inline]
    fn put_mac(buf: &mut Vec<u8>, a: MacAddr) {
        buf.extend_from_slice(a.as_bytes());
    }

    #[inline]
    fn put_u16(buf: &mut Vec<u8>, v: u16) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Largest payload a data frame can carry: its length field is a `u16`.
    pub const MAX_PAYLOAD_LEN: usize = 0xFFFF;

    /// The payload-length field. A longer payload has no encoding, so it is
    /// refused here rather than composed into a frame whose length field
    /// disagrees with its body.
    fn put_payload_len(buf: &mut Vec<u8>, payload_len: usize) {
        let len = u16::try_from(payload_len).expect("payload longer than MAX_PAYLOAD_LEN");
        put_u16(buf, len);
    }

    fn put_entries(buf: &mut Vec<u8>, entries: &[InterfererEntry]) {
        for e in entries {
            put_mac(buf, e.source);
            put_mac(buf, e.interferer);
            buf.push(e.source_rate.to_u8());
        }
    }

    /// A CMAP header or trailer announcement (`kind` selects which).
    #[allow(clippy::too_many_arguments, reason = "one argument per wire field")]
    pub fn header_trailer(
        buf: &mut Vec<u8>,
        kind: FrameKind,
        src: MacAddr,
        dst: MacAddr,
        tx_time_us: u32,
        vpkt_seq: u32,
        pkt_count: u8,
        data_rate: Rate,
    ) {
        debug_assert!(matches!(
            kind,
            FrameKind::CmapHeader | FrameKind::CmapTrailer
        ));
        debug_assert!(pkt_count as usize <= cmap::MAX_VPKT_DATA);
        buf.clear();
        buf.push(kind as u8);
        put_mac(buf, src);
        put_mac(buf, dst);
        put_u32(buf, tx_time_us);
        put_u32(buf, vpkt_seq);
        buf.push(pkt_count);
        buf.push(data_rate.to_u8());
        crate::crc::append_crc(buf);
    }

    /// A CMAP data packet with a `payload_len`-byte payload of `fill`
    /// bytes (the simulator carries no real payload contents).
    #[allow(clippy::too_many_arguments, reason = "one argument per wire field")]
    pub fn cmap_data(
        buf: &mut Vec<u8>,
        src: MacAddr,
        dst: MacAddr,
        vpkt_seq: u32,
        index: u8,
        flow: u16,
        flow_seq: u32,
        payload_len: usize,
        fill: u8,
    ) {
        debug_assert!((index as usize) < cmap::MAX_VPKT_DATA);
        buf.clear();
        buf.push(FrameKind::CmapData as u8);
        put_mac(buf, src);
        put_mac(buf, dst);
        put_u32(buf, vpkt_seq);
        buf.push(index);
        put_u16(buf, flow);
        put_u32(buf, flow_seq);
        put_payload_len(buf, payload_len);
        crate::crc::append_fill_and_crc(buf, fill, payload_len);
    }

    /// A CMAP cumulative ACK with piggybacked interferer entries.
    #[allow(clippy::too_many_arguments, reason = "one argument per wire field")]
    pub fn cmap_ack(
        buf: &mut Vec<u8>,
        src: MacAddr,
        dst: MacAddr,
        base_vpkt_seq: u32,
        bitmaps: &[u32],
        loss_rate: u8,
        il_entries: &[InterfererEntry],
    ) {
        assert!(bitmaps.len() <= cmap::MAX_ACK_WINDOW);
        assert!(il_entries.len() <= cmap::ACK_MAX_IL_ENTRIES);
        buf.clear();
        buf.push(FrameKind::CmapAck as u8);
        put_mac(buf, src);
        put_mac(buf, dst);
        put_u32(buf, base_vpkt_seq);
        buf.push(bitmaps.len() as u8);
        for &bm in bitmaps {
            put_u32(buf, bm);
        }
        buf.push(loss_rate);
        buf.push(il_entries.len() as u8);
        put_entries(buf, il_entries);
        crate::crc::append_crc(buf);
    }

    /// A CMAP interferer-list broadcast.
    pub fn interferer_list(buf: &mut Vec<u8>, src: MacAddr, entries: &[InterfererEntry]) {
        assert!(entries.len() <= cmap::IL_MAX_ENTRIES);
        buf.clear();
        buf.push(FrameKind::CmapInterfererList as u8);
        put_mac(buf, src);
        buf.push(entries.len() as u8);
        put_entries(buf, entries);
        crate::crc::append_crc(buf);
    }

    /// An 802.11 baseline data frame with a `payload_len`-byte payload of
    /// `fill` bytes.
    #[allow(clippy::too_many_arguments, reason = "one argument per wire field")]
    pub fn dot11_data(
        buf: &mut Vec<u8>,
        src: MacAddr,
        dst: MacAddr,
        seq: u16,
        retry: bool,
        duration_ns: u32,
        flow: u16,
        flow_seq: u32,
        payload_len: usize,
        fill: u8,
    ) {
        buf.clear();
        buf.push(FrameKind::Dot11Data as u8);
        put_mac(buf, src);
        put_mac(buf, dst);
        put_u16(buf, seq);
        buf.push(u8::from(retry));
        put_u32(buf, duration_ns);
        put_u16(buf, flow);
        put_u32(buf, flow_seq);
        put_payload_len(buf, payload_len);
        crate::crc::append_fill_and_crc(buf, fill, payload_len);
    }

    /// An 802.11 ACK control frame.
    pub fn dot11_ack(buf: &mut Vec<u8>, dst: MacAddr) {
        buf.clear();
        buf.push(FrameKind::Dot11Ack as u8);
        put_mac(buf, dst);
        buf.extend_from_slice(&[0u8; 3]);
        crate::crc::append_crc(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    #[test]
    #[should_panic(expected = "MAX_PAYLOAD_LEN")]
    fn compose_refuses_a_payload_its_length_field_cannot_hold() {
        let len = compose::MAX_PAYLOAD_LEN + 1;
        compose::cmap_data(&mut Vec::new(), addr(0), addr(1), 0, 0, 0, 0, len, 0xC5);
    }

    #[test]
    fn compose_reuses_capacity() {
        let mut buf = Vec::new();
        compose::dot11_data(&mut buf, addr(0), addr(1), 0, false, 0, 0, 0, 1400, 0xC5);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for seq in 1..50u16 {
            compose::dot11_data(&mut buf, addr(0), addr(1), seq, false, 0, 0, 0, 1400, 0xC5);
        }
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
    }
}
