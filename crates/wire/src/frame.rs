//! The frame tag and the decode error.
//!
//! Every frame starts with a one-byte [`FrameKind`] tag and ends with a
//! CRC-32 over everything before it.
//! [`FrameView::parse_checked`](crate::view::FrameView::parse_checked)
//! validates the CRC and dispatches on the tag; the functions of
//! [`view::compose`](crate::view::compose) are the exact inverse.

/// Decode error for received frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field being read.
    Truncated,
    /// The trailing CRC-32 does not match the frame contents.
    BadCrc,
    /// The frame-kind tag byte is not one we know.
    UnknownKind(u8),
    /// A field holds a value outside its legal range (e.g. a bad rate code
    /// or an interferer-list count that disagrees with the frame length).
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadCrc => write!(f, "bad frame CRC"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Malformed => write!(f, "malformed frame field"),
        }
    }
}

impl std::error::Error for WireError {}

/// The one-byte tag that starts every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// CMAP virtual-packet header announcement.
    CmapHeader = 1,
    /// CMAP virtual-packet trailer announcement.
    CmapTrailer = 2,
    /// CMAP data packet (one of `N_vpkt` within a virtual packet).
    CmapData = 3,
    /// CMAP cumulative windowed ACK.
    CmapAck = 4,
    /// CMAP interferer-list broadcast.
    CmapInterfererList = 5,
    /// 802.11 baseline data frame.
    Dot11Data = 6,
    /// 802.11 baseline ACK frame.
    Dot11Ack = 7,
}

impl FrameKind {
    /// Parse a tag byte.
    pub fn from_u8(v: u8) -> Result<FrameKind, WireError> {
        Ok(match v {
            1 => FrameKind::CmapHeader,
            2 => FrameKind::CmapTrailer,
            3 => FrameKind::CmapData,
            4 => FrameKind::CmapAck,
            5 => FrameKind::CmapInterfererList,
            6 => FrameKind::Dot11Data,
            7 => FrameKind::Dot11Ack,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_roundtrip() {
        for k in [1u8, 2, 3, 4, 5, 6, 7] {
            assert_eq!(FrameKind::from_u8(k).unwrap() as u8, k);
        }
        assert!(FrameKind::from_u8(0).is_err());
        assert!(FrameKind::from_u8(8).is_err());
    }
}
