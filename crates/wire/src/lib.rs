//! # cmap-wire — packet formats for the CMAP link layer and 802.11 baselines
//!
//! Byte-exact, allocation-light encode/decode of every frame the CMAP
//! reproduction puts on the air, in the style of `smoltcp`'s wire module:
//! explicit layouts, defensive parsing (truncation, bad CRC, bad tags all
//! yield typed errors, never panics), and round-trip tested.
//!
//! The CMAP prototype (NSDI 2008, §4.1) transmits *virtual packets*: a small
//! **header packet**, a burst of data packets, and a small **trailer packet**,
//! each an independent PHY frame with its own CRC. Figure 3 of the paper
//! gives the header/trailer fields — source (6), destination (6), estimated
//! transmission time (4), sequence number (4), CRC (4) — which
//! [`view::HeaderTrailerView`] reads and [`view::compose::header_trailer`]
//! writes, preceded by a one-byte frame tag that stands in for the
//! Ethertype-style demux a real deployment would use.
//!
//! Frame inventory (one [`FrameView`] variant and one [`view::compose`]
//! function each):
//! * [`view::HeaderTrailerView`] — virtual-packet header/trailer announcement
//! * [`view::CmapDataView`] — one data packet inside a virtual packet
//! * [`view::CmapAckView`] — cumulative windowed ACK with per-packet bitmap
//!   and the receiver-reported loss rate that drives CMAP's backoff (§3.4)
//! * [`view::CmapIlView`] — the periodic broadcast that populates defer
//!   tables (§3.1), annotated with bit-rates (§3.5)
//! * [`view::Dot11DataView`] / [`view::Dot11AckView`] — the 802.11 DCF
//!   baseline's frames
//!
//! The [`view`] module is the only codec: zero-copy typed accessors over raw
//! frame bytes and in-place composition into reusable buffers. [`cmap`] and
//! [`dot11`] hold the layout constants. The owned `Frame` reader/writer the
//! tests compare it against lives in `tests/reference/`.

pub mod addr;
pub mod cmap;
pub mod crc;
pub mod dot11;
pub mod frame;
pub mod view;

pub use addr::MacAddr;
pub use frame::{FrameKind, WireError};
pub use view::FrameView;
