//! Zero-copy typed frame views and in-place composition.
//!
//! [`Frame::parse`] materialises an owned frame — heap-allocating payloads
//! and entry lists — which is pure overhead on the simulator's hot path
//! where a received frame is inspected once and dropped. A [`FrameView`]
//! instead borrows the raw wire bytes and reads each field in place at its
//! fixed offset; nothing is copied until a caller explicitly asks
//! (e.g. [`FrameView::to_frame`]).
//!
//! Two entry points:
//! * [`FrameView::parse`] — the *trusted* structural parse for frames the
//!   engine itself composed: every bounds and validity rule of
//!   [`Frame::parse`] is enforced, but the trailing CRC is **not**
//!   recomputed (the simulator models corruption at the PHY grading layer,
//!   not by flipping bits, so internally-composed frames always carry a
//!   valid CRC).
//! * [`FrameView::parse_checked`] — the full mirror of [`Frame::parse`]
//!   including CRC verification, byte-for-byte equivalent in both accepted
//!   inputs and error classification. The property tests at the bottom of
//!   this module pin the equivalence per frame kind.
//!
//! The [`compose`] module is the write-side twin: each function builds a
//! complete frame — tag, body, trailing CRC — into a caller-supplied
//! `Vec<u8>` that is cleared and reused, so steady-state transmission paths
//! never allocate. `compose::x(..)` produces exactly the bytes
//! `Frame::X(..).emit()` would.

use cmap_phy::Rate;

use crate::addr::MacAddr;
use crate::cmap::{self, InterfererEntry};
use crate::dot11;
use crate::frame::{Frame, FrameKind, WireError};

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
/// `pos`), replicating the reader's error order: a short entry is
/// [`WireError::Truncated`], a bad rate byte [`WireError::Malformed`].
/// `body_end` is the first byte past the CRC-less body.
fn check_entries(
    buf: &[u8],
    mut pos: usize,
    count: usize,
    body_end: usize,
) -> Result<usize, WireError> {
    for _ in 0..count {
        if body_end < pos + cmap::InterfererList::ENTRY_LEN {
            return Err(WireError::Truncated);
        }
        if Rate::from_u8(buf[pos + 12]).is_none() {
            return Err(WireError::Malformed);
        }
        pos += cmap::InterfererList::ENTRY_LEN;
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

/// View over a CMAP header/trailer frame (fixed 27 bytes).
#[derive(Debug, Clone, Copy)]
pub struct HeaderTrailerView<'a> {
    buf: &'a [u8],
}

impl<'a> HeaderTrailerView<'a> {
    fn check(buf: &[u8]) -> Result<(), WireError> {
        // Body (between tag and CRC) is 22 bytes: 6+6+4+4+1+1, so it ends
        // at offset 23. Reads are gated individually to reproduce the
        // reference reader's Truncated/Malformed ordering exactly.
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

    /// Estimated transmission time in microseconds.
    pub fn tx_time_us(&self) -> u32 {
        u32_at(self.buf, 13)
    }

    /// Link-layer sequence number of the virtual packet.
    pub fn vpkt_seq(&self) -> u32 {
        u32_at(self.buf, 17)
    }

    /// Number of data packets in this virtual packet.
    pub fn pkt_count(&self) -> u8 {
        self.buf[21]
    }

    /// Bit-rate of the virtual packet's data packets.
    pub fn data_rate(&self) -> Rate {
        Rate::from_u8(self.buf[22]).expect("validated at parse")
    }

    /// Materialise the owned body (it is `Copy`-sized; this is cheap and
    /// lets existing handlers keep taking `&cmap::HeaderTrailer`).
    pub fn to_body(&self) -> cmap::HeaderTrailer {
        cmap::HeaderTrailer {
            src: self.src(),
            dst: self.dst(),
            tx_time_us: self.tx_time_us(),
            vpkt_seq: self.vpkt_seq(),
            pkt_count: self.pkt_count(),
            data_rate: self.data_rate(),
        }
    }
}

/// View over a CMAP data frame.
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

    /// Virtual packet this data packet travels in.
    pub fn vpkt_seq(&self) -> u32 {
        u32_at(self.buf, 13)
    }

    /// Position within the virtual packet (`0..N_vpkt`).
    pub fn index(&self) -> u8 {
        self.buf[17]
    }

    /// Higher-layer flow identifier.
    pub fn flow(&self) -> u16 {
        u16_at(self.buf, 18)
    }

    /// End-to-end sequence number within the flow.
    pub fn flow_seq(&self) -> u32 {
        u32_at(self.buf, 20)
    }

    /// Application payload, borrowed from the wire bytes.
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[26..self.buf.len() - 4]
    }
}

/// View over a CMAP cumulative ACK frame.
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
        if il_count > cmap::Ack::MAX_IL_ENTRIES {
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
        (0..self.il_count()).map(move |i| entry_at(buf, base + cmap::InterfererList::ENTRY_LEN * i))
    }
}

/// View over a CMAP interferer-list broadcast.
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
    pub fn count(&self) -> usize {
        self.buf[7] as usize
    }

    /// Iterate the conflict-pair entries in place.
    pub fn entries(&self) -> impl Iterator<Item = InterfererEntry> + 'a {
        let buf = self.buf;
        (0..self.count()).map(move |i| entry_at(buf, 8 + cmap::InterfererList::ENTRY_LEN * i))
    }
}

/// View over an 802.11 baseline data frame.
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

    /// MAC sequence number.
    pub fn seq(&self) -> u16 {
        u16_at(self.buf, 13)
    }

    /// Retry flag.
    pub fn retry(&self) -> bool {
        self.buf[15] == 1
    }

    /// NAV duration in nanoseconds.
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

/// View over an 802.11 ACK control frame (fixed 14 bytes).
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
    /// Trusted structural parse: every bounds/validity rule of
    /// [`Frame::parse`] except CRC verification. Use on frames the engine
    /// composed itself; for untrusted bytes use
    /// [`FrameView::parse_checked`].
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

    /// Full mirror of [`Frame::parse`]: CRC verified before anything else
    /// is inspected, then the same structural checks as
    /// [`FrameView::parse`]. Accepts exactly the inputs `Frame::parse`
    /// accepts and fails with the same [`WireError`] otherwise.
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

    /// Materialise the owned [`Frame`] (slow path: tests, checkpoints,
    /// diagnostics).
    pub fn to_frame(&self) -> Frame {
        match self {
            FrameView::CmapHeader(v) => Frame::CmapHeader(v.to_body()),
            FrameView::CmapTrailer(v) => Frame::CmapTrailer(v.to_body()),
            FrameView::CmapData(v) => Frame::CmapData(cmap::Data {
                src: v.src(),
                dst: v.dst(),
                vpkt_seq: v.vpkt_seq(),
                index: v.index(),
                flow: v.flow(),
                flow_seq: v.flow_seq(),
                payload: v.payload().to_vec(),
            }),
            FrameView::CmapAck(v) => Frame::CmapAck(cmap::Ack {
                src: v.src(),
                dst: v.dst(),
                base_vpkt_seq: v.base_vpkt_seq(),
                bitmaps: (0..v.bitmap_count()).map(|i| v.bitmap(i)).collect(),
                loss_rate: v.loss_rate(),
                il_entries: v.il_entries().collect(),
            }),
            FrameView::CmapInterfererList(v) => Frame::CmapInterfererList(cmap::InterfererList {
                src: v.src(),
                entries: v.entries().collect(),
            }),
            FrameView::Dot11Data(v) => Frame::Dot11Data(dot11::Data {
                src: v.src(),
                dst: v.dst(),
                seq: v.seq(),
                retry: v.retry(),
                duration_ns: v.duration_ns(),
                flow: v.flow(),
                flow_seq: v.flow_seq(),
                payload: v.payload().to_vec(),
            }),
            FrameView::Dot11Ack(v) => Frame::Dot11Ack(dot11::Ack { dst: v.dst() }),
        }
    }
}

// ---- in-place composition ----------------------------------------------

/// Build complete frames — tag, body, trailing CRC — into a reusable
/// buffer. Each function clears `buf` first; the buffer's capacity is
/// retained across frames, so a steady-state transmit path composes
/// without allocating. Output is byte-for-byte what [`Frame::emit`] on the
/// equivalent owned frame produces.
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

    fn put_entries(buf: &mut Vec<u8>, entries: &[InterfererEntry]) {
        for e in entries {
            put_mac(buf, e.source);
            put_mac(buf, e.interferer);
            buf.push(e.source_rate.to_u8());
        }
    }

    /// A CMAP header or trailer announcement (`kind` selects which).
    #[allow(clippy::too_many_arguments)]
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
    #[allow(clippy::too_many_arguments)]
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
        put_u16(buf, payload_len as u16);
        crate::crc::append_fill_and_crc(buf, fill, payload_len);
    }

    /// A CMAP cumulative ACK with piggybacked interferer entries.
    #[allow(clippy::too_many_arguments)]
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
        assert!(il_entries.len() <= cmap::Ack::MAX_IL_ENTRIES);
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
        assert!(entries.len() <= cmap::InterfererList::MAX_ENTRIES);
        buf.clear();
        buf.push(FrameKind::CmapInterfererList as u8);
        put_mac(buf, src);
        buf.push(entries.len() as u8);
        put_entries(buf, entries);
        crate::crc::append_crc(buf);
    }

    /// An 802.11 baseline data frame with a `payload_len`-byte payload of
    /// `fill` bytes.
    #[allow(clippy::too_many_arguments)]
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
        put_u16(buf, payload_len as u16);
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

    fn sample_frames() -> Vec<Frame> {
        let ht = cmap::HeaderTrailer {
            src: addr(1),
            dst: addr(2),
            tx_time_us: 61_234,
            vpkt_seq: 99,
            pkt_count: 32,
            data_rate: Rate::R18,
        };
        vec![
            Frame::CmapHeader(ht),
            Frame::CmapTrailer(ht),
            Frame::CmapData(cmap::Data {
                src: addr(3),
                dst: addr(4),
                vpkt_seq: 7,
                index: 31,
                flow: 2,
                flow_seq: 123_456,
                payload: (0..=254u8).collect(),
            }),
            Frame::CmapAck(cmap::Ack {
                src: addr(4),
                dst: addr(3),
                base_vpkt_seq: 40,
                bitmaps: vec![u32::MAX, 0, 0xDEAD_BEEF, 1],
                loss_rate: 100,
                il_entries: vec![InterfererEntry {
                    source: addr(3),
                    interferer: addr(9),
                    source_rate: Rate::R12,
                }],
            }),
            Frame::CmapAck(cmap::Ack {
                src: addr(4),
                dst: addr(3),
                base_vpkt_seq: 0,
                bitmaps: vec![],
                loss_rate: 0,
                il_entries: vec![],
            }),
            Frame::CmapInterfererList(cmap::InterfererList {
                src: addr(9),
                entries: vec![
                    InterfererEntry {
                        source: addr(1),
                        interferer: addr(2),
                        source_rate: Rate::R6,
                    },
                    InterfererEntry {
                        source: addr(1),
                        interferer: addr(5),
                        source_rate: Rate::R54,
                    },
                ],
            }),
            Frame::Dot11Data(dot11::Data {
                src: addr(1),
                dst: addr(2),
                seq: 4095,
                retry: true,
                duration_ns: 55_000,
                flow: 1,
                flow_seq: 777,
                payload: vec![0xAA; 1400],
            }),
            Frame::Dot11Ack(dot11::Ack { dst: addr(1) }),
        ]
    }

    #[test]
    fn view_parse_matches_frame_parse_on_valid_frames() {
        for frame in sample_frames() {
            let bytes = frame.emit();
            let view = FrameView::parse_checked(&bytes).expect("valid frame");
            assert_eq!(view.to_frame(), frame);
            assert_eq!(view.kind(), frame.kind());
            assert_eq!(view.src(), frame.src());
            assert_eq!(view.dst(), frame.dst());
            assert_eq!(view.wire_len(), frame.wire_len());
            // Trusted parse accepts the same frames.
            assert_eq!(FrameView::parse(&bytes).unwrap().to_frame(), frame);
        }
    }

    #[test]
    fn compose_matches_emit_per_kind() {
        let mut buf = Vec::new();
        compose::header_trailer(
            &mut buf,
            FrameKind::CmapHeader,
            addr(1),
            addr(2),
            61_234,
            99,
            32,
            Rate::R18,
        );
        assert_eq!(buf, sample_frames()[0].emit());
        compose::header_trailer(
            &mut buf,
            FrameKind::CmapTrailer,
            addr(1),
            addr(2),
            61_234,
            99,
            32,
            Rate::R18,
        );
        assert_eq!(buf, sample_frames()[1].emit());

        let d = cmap::Data {
            src: addr(3),
            dst: addr(4),
            vpkt_seq: 7,
            index: 31,
            flow: 2,
            flow_seq: 123_456,
            payload: vec![0xC5; 300],
        };
        compose::cmap_data(
            &mut buf, d.src, d.dst, d.vpkt_seq, d.index, d.flow, d.flow_seq, 300, 0xC5,
        );
        assert_eq!(buf, Frame::CmapData(d).emit());

        let a = cmap::Ack {
            src: addr(4),
            dst: addr(3),
            base_vpkt_seq: 40,
            bitmaps: vec![u32::MAX, 0, 0xDEAD_BEEF, 1],
            loss_rate: 100,
            il_entries: vec![InterfererEntry {
                source: addr(3),
                interferer: addr(9),
                source_rate: Rate::R12,
            }],
        };
        compose::cmap_ack(
            &mut buf,
            a.src,
            a.dst,
            a.base_vpkt_seq,
            &a.bitmaps,
            a.loss_rate,
            &a.il_entries,
        );
        assert_eq!(buf, Frame::CmapAck(a).emit());

        let il = cmap::InterfererList {
            src: addr(9),
            entries: vec![InterfererEntry {
                source: addr(1),
                interferer: addr(2),
                source_rate: Rate::R6,
            }],
        };
        compose::interferer_list(&mut buf, il.src, &il.entries);
        assert_eq!(buf, Frame::CmapInterfererList(il).emit());

        let dd = dot11::Data {
            src: addr(1),
            dst: addr(2),
            seq: 9,
            retry: false,
            duration_ns: 44_000,
            flow: 3,
            flow_seq: 17,
            payload: vec![0xC5; 1400],
        };
        compose::dot11_data(
            &mut buf,
            dd.src,
            dd.dst,
            dd.seq,
            dd.retry,
            dd.duration_ns,
            dd.flow,
            dd.flow_seq,
            1400,
            0xC5,
        );
        assert_eq!(buf, Frame::Dot11Data(dd).emit());

        compose::dot11_ack(&mut buf, addr(1));
        assert_eq!(buf, Frame::Dot11Ack(dot11::Ack { dst: addr(1) }).emit());
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

    #[test]
    fn parse_checked_rejects_what_frame_parse_rejects() {
        // Corrupt every byte position of every sample frame in turn; the
        // view must agree with the reference parser on accept/reject *and*
        // on the error kind.
        for frame in sample_frames() {
            let bytes = frame.emit();
            for i in 0..bytes.len() {
                for delta in [1u8, 0x80] {
                    let mut mutated = bytes.clone();
                    mutated[i] ^= delta;
                    assert_eq!(
                        FrameView::parse_checked(&mutated).map(|v| v.to_frame()),
                        Frame::parse(&mutated),
                        "kind {:?}, byte {i}, delta {delta:#x}",
                        frame.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn parse_checked_rejects_truncations_like_frame_parse() {
        for frame in sample_frames() {
            let bytes = frame.emit();
            for cut in 0..bytes.len() {
                // Re-CRC the truncated body so the structural checks (not
                // just the CRC) are what's exercised.
                let mut t = bytes[..cut].to_vec();
                if cut >= 1 {
                    crate::crc::append_crc(&mut t);
                }
                assert_eq!(
                    FrameView::parse_checked(&t).map(|v| v.to_frame()),
                    Frame::parse(&t),
                    "kind {:?}, cut {cut}",
                    frame.kind()
                );
            }
        }
    }

    #[test]
    fn trusted_parse_skips_crc_only() {
        let bytes = sample_frames()[0].emit();
        let mut bad_crc = bytes.clone();
        let n = bad_crc.len();
        bad_crc[n - 1] ^= 0xFF;
        // parse_checked mirrors Frame::parse (CRC error)...
        assert_eq!(
            FrameView::parse_checked(&bad_crc).err(),
            Some(WireError::BadCrc)
        );
        assert_eq!(Frame::parse(&bad_crc), Err(WireError::BadCrc));
        // ...while the trusted parse still reads the structure.
        assert!(FrameView::parse(&bad_crc).is_ok());
    }
}
