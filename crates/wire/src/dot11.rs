//! 802.11 DCF baseline frame layout constants.
//!
//! The paper compares CMAP against "the status quo": 802.11 with carrier
//! sense and stop-and-wait link-layer ACKs (and against variants with
//! carrier sense and/or ACKs disabled). The layouts are simplified 802.11
//! (we don't model the full three-address header) but keep the fields the
//! MAC logic actually uses — including the NAV `duration` field that
//! protects the SIFS+ACK exchange — and the real 14-byte ACK length.

/// 14 bytes like a real 802.11 ACK: tag 1 + dst 6 + pad 3 + CRC 4.
pub const ACK_LEN: usize = 14;

/// Fixed overhead of a data frame: tag 1 + src 6 + dst 6 + seq 2 + retry 1 +
/// dur 4 + flow 2 + flow_seq 4 + len 2 + CRC 4.
pub(crate) const DATA_OVERHEAD: usize = 32;
