//! Owned 802.11 DCF baseline frames, read and written through the
//! reference cursors.

use cmap_wire::{FrameKind, MacAddr, WireError};

use super::cursor::{Reader, Writer};

/// 802.11 baseline unicast data frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    /// Transmitter address.
    pub src: MacAddr,
    /// Receiver address.
    pub dst: MacAddr,
    /// MAC sequence number (for duplicate detection on retransmissions,
    /// mirroring the 802.11 sequence-control field).
    pub seq: u16,
    /// Retry flag: set on retransmissions.
    pub retry: bool,
    /// NAV duration in nanoseconds: time the medium remains reserved after
    /// this frame ends (SIFS + ACK for unicast data).
    pub duration_ns: u32,
    /// Higher-layer flow identifier.
    pub flow: u16,
    /// End-to-end sequence number within the flow.
    pub flow_seq: u32,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl Data {
    /// Fixed overhead: tag 1 + src 6 + dst 6 + seq 2 + retry 1 + dur 4 +
    /// flow 2 + flow_seq 4 + len 2 + CRC 4.
    pub const OVERHEAD: usize = 32;

    /// Serialised length in bytes.
    pub fn wire_len(&self) -> usize {
        Self::OVERHEAD + self.payload.len()
    }

    pub fn parse_body(r: &mut Reader<'_>) -> Result<Data, WireError> {
        let src = r.mac()?;
        let dst = r.mac()?;
        let seq = r.u16()?;
        let retry = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed),
        };
        let duration_ns = r.u32()?;
        let flow = r.u16()?;
        let flow_seq = r.u32()?;
        let len = r.u16()? as usize;
        let payload = r.take(len)?.to_vec();
        Ok(Data {
            src,
            dst,
            seq,
            retry,
            duration_ns,
            flow,
            flow_seq,
            payload,
        })
    }

    pub fn emit(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.wire_len());
        w.u8(FrameKind::Dot11Data as u8);
        w.mac(self.src);
        w.mac(self.dst);
        w.u16(self.seq);
        w.u8(u8::from(self.retry));
        w.u32(self.duration_ns);
        w.u16(self.flow);
        w.u32(self.flow_seq);
        w.u16(self.payload.len() as u16);
        w.bytes(&self.payload);
        w.finish_with_crc()
    }
}

/// 802.11 ACK control frame: receiver address only, padded to the real
/// 14-byte control-frame length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The station being acknowledged (the data frame's transmitter).
    pub dst: MacAddr,
}

impl Ack {
    /// 14 bytes like a real 802.11 ACK: tag 1 + dst 6 + pad 3 + CRC 4.
    pub const WIRE_LEN: usize = 14;
    const PAD: [u8; 3] = [0; 3];

    pub fn parse_body(r: &mut Reader<'_>) -> Result<Ack, WireError> {
        let dst = r.mac()?;
        if r.take(Self::PAD.len())? != Self::PAD {
            return Err(WireError::Malformed);
        }
        Ok(Ack { dst })
    }

    pub fn emit(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::WIRE_LEN);
        w.u8(FrameKind::Dot11Ack as u8);
        w.mac(self.dst);
        w.bytes(&Self::PAD);
        w.finish_with_crc()
    }
}
