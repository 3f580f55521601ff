//! Owned CMAP frame bodies: header/trailer, data, cumulative ACK,
//! interferer list — each read field by field through a [`Reader`] and
//! written through a [`Writer`], sharing no offset arithmetic with
//! `cmap_wire::view`.

use cmap_phy::Rate;
pub use cmap_wire::cmap::{InterfererEntry, MAX_ACK_WINDOW, MAX_VPKT_DATA};
use cmap_wire::{FrameKind, MacAddr, WireError};

use super::cursor::{Reader, Writer};

/// Virtual-packet header or trailer announcement (Fig 3).
///
/// The same body serves both roles; the [`FrameKind`] tag distinguishes them.
/// `tx_time_us` is the *estimated transmission time* field: for a header it
/// is the time from the end of the header frame until the end of the virtual
/// packet (how long an overhearer should defer, §3.2); for a trailer it is
/// the total duration of the virtual packet that just ended, letting
/// receivers reconstruct the interval the transmission occupied when
/// attributing collisions (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderTrailer {
    /// Transmitting node.
    pub src: MacAddr,
    /// Intended receiver of the virtual packet.
    pub dst: MacAddr,
    /// Estimated transmission time in microseconds (see type docs).
    pub tx_time_us: u32,
    /// Link-layer sequence number of the virtual packet (per sender →
    /// destination pair).
    pub vpkt_seq: u32,
    /// Number of data packets in this virtual packet (receivers use it to
    /// count losses; implied by `tx_time_us` in the paper's format).
    pub pkt_count: u8,
    /// Bit-rate of the *data packets* of this virtual packet (§3.5
    /// annotation; the header/trailer itself is always sent at the base
    /// rate).
    pub data_rate: Rate,
}

impl HeaderTrailer {
    /// Serialised length including tag and CRC: 1+6+6+4+4+1+1+4.
    pub const WIRE_LEN: usize = 27;

    pub fn parse_body(r: &mut Reader<'_>) -> Result<HeaderTrailer, WireError> {
        let src = r.mac()?;
        let dst = r.mac()?;
        let tx_time_us = r.u32()?;
        let vpkt_seq = r.u32()?;
        let pkt_count = r.u8()?;
        if pkt_count as usize > MAX_VPKT_DATA {
            return Err(WireError::Malformed);
        }
        let data_rate = Rate::from_u8(r.u8()?).ok_or(WireError::Malformed)?;
        Ok(HeaderTrailer {
            src,
            dst,
            tx_time_us,
            vpkt_seq,
            pkt_count,
            data_rate,
        })
    }

    pub fn emit(&self, kind: FrameKind) -> Vec<u8> {
        debug_assert!(matches!(
            kind,
            FrameKind::CmapHeader | FrameKind::CmapTrailer
        ));
        let mut w = Writer::with_capacity(Self::WIRE_LEN);
        w.u8(kind as u8);
        w.mac(self.src);
        w.mac(self.dst);
        w.u32(self.tx_time_us);
        w.u32(self.vpkt_seq);
        w.u8(self.pkt_count);
        w.u8(self.data_rate.to_u8());
        w.finish_with_crc()
    }
}

/// One data packet within a virtual packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    /// Transmitting node.
    pub src: MacAddr,
    /// Intended receiver.
    pub dst: MacAddr,
    /// Virtual packet this data packet currently travels in. Retransmitted
    /// packets are *repacked* into fresh virtual packets, so this changes
    /// across retransmissions while `flow_seq` does not.
    pub vpkt_seq: u32,
    /// Position within the virtual packet (`0..N_vpkt`), indexing the ACK
    /// bitmap bit for this packet.
    pub index: u8,
    /// Higher-layer flow identifier (stands in for the IP 5-tuple).
    pub flow: u16,
    /// End-to-end sequence number within the flow; receivers use it for
    /// duplicate suppression and loss-rate estimation.
    pub flow_seq: u32,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl Data {
    /// Fixed overhead: tag 1 + src 6 + dst 6 + vpkt 4 + idx 1 + flow 2 +
    /// flow_seq 4 + len 2 + CRC 4.
    pub const OVERHEAD: usize = 30;

    /// Serialised length in bytes.
    pub fn wire_len(&self) -> usize {
        Self::OVERHEAD + self.payload.len()
    }

    pub fn parse_body(r: &mut Reader<'_>) -> Result<Data, WireError> {
        let src = r.mac()?;
        let dst = r.mac()?;
        let vpkt_seq = r.u32()?;
        let index = r.u8()?;
        if index as usize >= MAX_VPKT_DATA {
            return Err(WireError::Malformed);
        }
        let flow = r.u16()?;
        let flow_seq = r.u32()?;
        let len = r.u16()? as usize;
        let payload = r.take(len)?.to_vec();
        Ok(Data {
            src,
            dst,
            vpkt_seq,
            index,
            flow,
            flow_seq,
            payload,
        })
    }

    pub fn emit(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.wire_len());
        w.u8(FrameKind::CmapData as u8);
        w.mac(self.src);
        w.mac(self.dst);
        w.u32(self.vpkt_seq);
        w.u8(self.index);
        w.u16(self.flow);
        w.u32(self.flow_seq);
        w.u16(self.payload.len() as u16);
        w.bytes(&self.payload);
        w.finish_with_crc()
    }
}

/// Cumulative windowed ACK (§3.3).
///
/// Sent by the receiver after each virtual-packet trailer. Covers the
/// `bitmaps.len()` consecutive virtual packets starting at `base_vpkt_seq`;
/// bit `i` of `bitmaps[k]` reports data packet `i` of virtual packet
/// `base_vpkt_seq + k`. The `loss_rate` byte carries the packet loss rate
/// the receiver observed over the previous window of packets, scaled to
/// 0..=255 — this is the feedback that drives the sender's backoff (§3.4).
///
/// ACKs may also piggyback the receiver's current interferer list
/// (`il_entries`). §3.1 allows interferer lists to ride on "routing beacons
/// or other control messages"; in this standalone link layer the ACK is the
/// natural carrier — crucially, it arrives during the sender's `t_ackwait`,
/// one of the few moments a saturated sender is actually listening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// The receiver sending the ACK.
    pub src: MacAddr,
    /// The data sender being acknowledged.
    pub dst: MacAddr,
    /// First virtual-packet sequence number covered by `bitmaps`.
    pub base_vpkt_seq: u32,
    /// Per-virtual-packet reception bitmaps (bit set = data packet received).
    pub bitmaps: Vec<u32>,
    /// Observed loss rate over the previous window, scaled so 255 = 100%.
    pub loss_rate: u8,
    /// Piggybacked interferer-list entries (may be empty).
    pub il_entries: Vec<InterfererEntry>,
}

impl Ack {
    /// Fixed overhead: tag 1 + src 6 + dst 6 + base 4 + bitmap count 1 +
    /// loss 1 + il count 1 + CRC 4.
    pub const OVERHEAD: usize = 24;

    /// Cap on piggybacked interferer entries.
    pub const MAX_IL_ENTRIES: usize = 32;

    /// Serialised length in bytes.
    pub fn wire_len(&self) -> usize {
        Self::OVERHEAD + 4 * self.bitmaps.len() + InterfererList::ENTRY_LEN * self.il_entries.len()
    }

    /// Loss rate as a fraction in `[0, 1]`.
    pub fn loss_rate_fraction(&self) -> f64 {
        f64::from(self.loss_rate) / 255.0
    }

    pub fn parse_body(r: &mut Reader<'_>) -> Result<Ack, WireError> {
        let src = r.mac()?;
        let dst = r.mac()?;
        let base_vpkt_seq = r.u32()?;
        let count = r.u8()? as usize;
        if count > MAX_ACK_WINDOW {
            return Err(WireError::Malformed);
        }
        let mut bitmaps = Vec::with_capacity(count);
        for _ in 0..count {
            bitmaps.push(r.u32()?);
        }
        let loss_rate = r.u8()?;
        let il_count = r.u8()? as usize;
        if il_count > Self::MAX_IL_ENTRIES {
            return Err(WireError::Malformed);
        }
        let mut il_entries = Vec::with_capacity(il_count);
        for _ in 0..il_count {
            let source = r.mac()?;
            let interferer = r.mac()?;
            let source_rate = Rate::from_u8(r.u8()?).ok_or(WireError::Malformed)?;
            il_entries.push(InterfererEntry {
                source,
                interferer,
                source_rate,
            });
        }
        Ok(Ack {
            src,
            dst,
            base_vpkt_seq,
            bitmaps,
            loss_rate,
            il_entries,
        })
    }

    pub fn emit(&self) -> Vec<u8> {
        assert!(self.bitmaps.len() <= MAX_ACK_WINDOW);
        let mut w = Writer::with_capacity(self.wire_len());
        w.u8(FrameKind::CmapAck as u8);
        w.mac(self.src);
        w.mac(self.dst);
        w.u32(self.base_vpkt_seq);
        w.u8(self.bitmaps.len() as u8);
        for &bm in &self.bitmaps {
            w.u32(bm);
        }
        w.u8(self.loss_rate);
        assert!(self.il_entries.len() <= Self::MAX_IL_ENTRIES);
        w.u8(self.il_entries.len() as u8);
        for e in &self.il_entries {
            w.mac(e.source);
            w.mac(e.interferer);
            w.u8(e.source_rate.to_u8());
        }
        w.finish_with_crc()
    }
}

/// Periodic interferer-list broadcast from a receiver to its one-hop
/// neighbourhood (§3.1). Senders apply update rules 1 and 2 to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfererList {
    /// The receiver broadcasting its list.
    pub src: MacAddr,
    /// The `(source, interferer)` conflict pairs observed at `src`.
    pub entries: Vec<InterfererEntry>,
}

impl InterfererList {
    /// Fixed overhead: tag 1 + src 6 + count 1 + CRC 4.
    pub const OVERHEAD: usize = 12;

    /// Bytes per entry: source 6 + interferer 6 + rate 1.
    pub const ENTRY_LEN: usize = 13;

    /// Largest entry count that fits the one-byte count field.
    pub const MAX_ENTRIES: usize = 255;

    /// Serialised length in bytes.
    pub fn wire_len(&self) -> usize {
        Self::OVERHEAD + Self::ENTRY_LEN * self.entries.len()
    }

    pub fn parse_body(r: &mut Reader<'_>) -> Result<InterfererList, WireError> {
        let src = r.mac()?;
        let count = r.u8()? as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let source = r.mac()?;
            let interferer = r.mac()?;
            let source_rate = Rate::from_u8(r.u8()?).ok_or(WireError::Malformed)?;
            entries.push(InterfererEntry {
                source,
                interferer,
                source_rate,
            });
        }
        Ok(InterfererList { src, entries })
    }

    pub fn emit(&self) -> Vec<u8> {
        assert!(self.entries.len() <= Self::MAX_ENTRIES);
        let mut w = Writer::with_capacity(self.wire_len());
        w.u8(FrameKind::CmapInterfererList as u8);
        w.mac(self.src);
        w.u8(self.entries.len() as u8);
        for e in &self.entries {
            w.mac(e.source);
            w.mac(e.interferer);
            w.u8(e.source_rate.to_u8());
        }
        w.finish_with_crc()
    }
}
