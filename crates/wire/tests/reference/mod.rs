//! The reference frame codec: an owned [`Frame`] with a sequential
//! reader ([`Frame::parse`]) and writer ([`Frame::emit`]), independent of
//! the product's offset-indexed `cmap_wire::view`. No product code names
//! it; it is what the unit tests (`codec.rs`) and the workspace's
//! `tests/wire_props.rs` hold `FrameView::parse_checked` and
//! `view::compose` against.
//! `parse(emit(f)) == f` for every representable frame.

#![allow(dead_code, reason = "each test binary mounts a different part")]

pub(crate) mod cmap;
pub(crate) mod cursor;
pub(crate) mod dot11;

use cmap_wire::{crc, FrameKind, FrameView, MacAddr, WireError};

use cursor::Reader;

/// Any frame the reproduction can put on the air.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Frame {
    /// CMAP virtual-packet header (kind tag distinguishes header/trailer).
    CmapHeader(cmap::HeaderTrailer),
    /// CMAP virtual-packet trailer.
    CmapTrailer(cmap::HeaderTrailer),
    /// CMAP data packet.
    CmapData(cmap::Data),
    /// CMAP cumulative ACK.
    CmapAck(cmap::Ack),
    /// CMAP interferer-list broadcast.
    CmapInterfererList(cmap::InterfererList),
    /// 802.11 baseline data frame.
    Dot11Data(dot11::Data),
    /// 802.11 baseline ACK.
    Dot11Ack(dot11::Ack),
}

impl Frame {
    /// Parse a frame from raw received bytes, validating the trailing CRC.
    pub(crate) fn parse(buf: &[u8]) -> Result<Frame, WireError> {
        if buf.len() < 5 {
            return Err(WireError::Truncated);
        }
        if !crc::verify_trailing_crc(buf) {
            return Err(WireError::BadCrc);
        }
        let body = &buf[..buf.len() - 4];
        let mut r = Reader::new(body);
        let kind = FrameKind::from_u8(r.u8()?)?;
        let frame = match kind {
            FrameKind::CmapHeader => Frame::CmapHeader(cmap::HeaderTrailer::parse_body(&mut r)?),
            FrameKind::CmapTrailer => Frame::CmapTrailer(cmap::HeaderTrailer::parse_body(&mut r)?),
            FrameKind::CmapData => Frame::CmapData(cmap::Data::parse_body(&mut r)?),
            FrameKind::CmapAck => Frame::CmapAck(cmap::Ack::parse_body(&mut r)?),
            FrameKind::CmapInterfererList => {
                Frame::CmapInterfererList(cmap::InterfererList::parse_body(&mut r)?)
            }
            FrameKind::Dot11Data => Frame::Dot11Data(dot11::Data::parse_body(&mut r)?),
            FrameKind::Dot11Ack => Frame::Dot11Ack(dot11::Ack::parse_body(&mut r)?),
        };
        if r.remaining() != 0 {
            return Err(WireError::Malformed);
        }
        Ok(frame)
    }

    /// Serialise the frame, appending its CRC-32.
    pub(crate) fn emit(&self) -> Vec<u8> {
        match self {
            Frame::CmapHeader(h) => h.emit(FrameKind::CmapHeader),
            Frame::CmapTrailer(t) => t.emit(FrameKind::CmapTrailer),
            Frame::CmapData(d) => d.emit(),
            Frame::CmapAck(a) => a.emit(),
            Frame::CmapInterfererList(il) => il.emit(),
            Frame::Dot11Data(d) => d.emit(),
            Frame::Dot11Ack(a) => a.emit(),
        }
    }

    /// The tag of this frame.
    pub(crate) fn kind(&self) -> FrameKind {
        match self {
            Frame::CmapHeader(_) => FrameKind::CmapHeader,
            Frame::CmapTrailer(_) => FrameKind::CmapTrailer,
            Frame::CmapData(_) => FrameKind::CmapData,
            Frame::CmapAck(_) => FrameKind::CmapAck,
            Frame::CmapInterfererList(_) => FrameKind::CmapInterfererList,
            Frame::Dot11Data(_) => FrameKind::Dot11Data,
            Frame::Dot11Ack(_) => FrameKind::Dot11Ack,
        }
    }

    /// Transmitting station, where the frame carries one.
    ///
    /// 802.11 ACKs carry only a receiver address, like the real thing.
    pub(crate) fn src(&self) -> Option<MacAddr> {
        Some(match self {
            Frame::CmapHeader(h) | Frame::CmapTrailer(h) => h.src,
            Frame::CmapData(d) => d.src,
            Frame::CmapAck(a) => a.src,
            Frame::CmapInterfererList(il) => il.src,
            Frame::Dot11Data(d) => d.src,
            Frame::Dot11Ack(_) => return None,
        })
    }

    /// Intended receiver.
    pub(crate) fn dst(&self) -> MacAddr {
        match self {
            Frame::CmapHeader(h) | Frame::CmapTrailer(h) => h.dst,
            Frame::CmapData(d) => d.dst,
            Frame::CmapAck(a) => a.dst,
            Frame::CmapInterfererList(_) => MacAddr::BROADCAST,
            Frame::Dot11Data(d) => d.dst,
            Frame::Dot11Ack(a) => a.dst,
        }
    }

    /// Serialised length in bytes (PSDU length for airtime computation),
    /// without re-serialising.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            Frame::CmapHeader(_) | Frame::CmapTrailer(_) => cmap::HeaderTrailer::WIRE_LEN,
            Frame::CmapData(d) => d.wire_len(),
            Frame::CmapAck(a) => a.wire_len(),
            Frame::CmapInterfererList(il) => il.wire_len(),
            Frame::Dot11Data(d) => d.wire_len(),
            Frame::Dot11Ack(_) => dot11::Ack::WIRE_LEN,
        }
    }
}

/// Materialise the owned [`Frame`] a view reads, field by field through the
/// view's accessors.
pub(crate) fn to_frame(view: &FrameView<'_>) -> Frame {
    let header_trailer = |v: &cmap_wire::view::HeaderTrailerView<'_>| cmap::HeaderTrailer {
        src: v.src(),
        dst: v.dst(),
        tx_time_us: v.tx_time_us(),
        vpkt_seq: v.vpkt_seq(),
        pkt_count: v.pkt_count(),
        data_rate: v.data_rate(),
    };
    match view {
        FrameView::CmapHeader(v) => Frame::CmapHeader(header_trailer(v)),
        FrameView::CmapTrailer(v) => Frame::CmapTrailer(header_trailer(v)),
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
