//! CMAP frame layout constants and the interferer-list entry.
//!
//! Layouts follow Figure 3 of the paper for the header/trailer (src 6,
//! dst 6, transmission time 4, sequence number 4, CRC 4) plus a one-byte
//! frame tag and a one-byte bit-rate annotation (the §3.5 multi-rate
//! extension). All multi-byte fields are little-endian. The
//! [`view`](crate::view) module reads and writes the layouts these
//! constants size.

use cmap_phy::Rate;

use crate::addr::MacAddr;

/// Maximum number of data packets a virtual packet may carry; bounded by the
/// `u32` per-virtual-packet ACK bitmap. The paper's prototype uses 32.
pub const MAX_VPKT_DATA: usize = 32;

/// Maximum number of virtual packets covered by one cumulative ACK.
pub const MAX_ACK_WINDOW: usize = 16;

/// Serialised length of a header or trailer announcement including tag and
/// CRC: 1+6+6+4+4+1+1+4.
pub const HEADER_TRAILER_LEN: usize = 27;

/// Fixed overhead of a data packet: tag 1 + src 6 + dst 6 + vpkt 4 + idx 1 +
/// flow 2 + flow_seq 4 + len 2 + CRC 4.
pub const DATA_OVERHEAD: usize = 30;

/// Fixed overhead of an ACK: tag 1 + src 6 + dst 6 + base 4 +
/// bitmap count 1 + loss 1 + il count 1 + CRC 4.
pub(crate) const ACK_OVERHEAD: usize = 24;

/// Bytes per ACK bitmap: one `u32` per virtual packet.
pub(crate) const ACK_BITMAP_LEN: usize = 4;

/// Cap on interferer entries piggybacked on one ACK.
pub const ACK_MAX_IL_ENTRIES: usize = 32;

/// Bytes per interferer entry: source 6 + interferer 6 + rate 1.
pub(crate) const IL_ENTRY_LEN: usize = 13;

/// Fixed overhead of an interferer list: tag 1 + src 6 + count 1 + CRC 4.
pub(crate) const IL_OVERHEAD: usize = 12;

/// Largest entry count that fits an interferer list's one-byte count field.
pub const IL_MAX_ENTRIES: usize = 255;

/// Scale a fractional loss rate into an ACK's loss byte (saturating,
/// 255 = 100 %).
pub fn scale_loss_rate(fraction: f64) -> u8 {
    (fraction.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// One `(source, interferer)` entry of an interferer list (§3.1): the
/// transmission `source → me` suffers loss rate above `l_interf` whenever
/// `interferer → *` is concurrent. Annotated with the bit-rate the source
/// was using when the interference was observed (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfererEntry {
    /// The sender whose packets to the broadcasting receiver are being lost.
    pub source: MacAddr,
    /// The node whose concurrent transmissions destroy them.
    pub interferer: MacAddr,
    /// Bit-rate of `source`'s data packets when the conflict was observed.
    pub source_rate: Rate,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_matches_paper_field_budget() {
        // Fig 3: 6+6+4+4+4 = 24 bytes of protocol fields; we add 1 tag byte,
        // 1 packet-count byte, and 1 rate byte for the §3.5 extension.
        assert_eq!(HEADER_TRAILER_LEN, 24 + 3);
    }

    #[test]
    fn loss_rate_scaling_saturates() {
        assert_eq!(scale_loss_rate(-0.5), 0);
        assert_eq!(scale_loss_rate(0.0), 0);
        assert_eq!(scale_loss_rate(1.0), 255);
        assert_eq!(scale_loss_rate(7.0), 255);
    }
}
