//! Link-layer addresses.

use core::fmt;

/// A 48-bit IEEE MAC address.
///
/// The simulator assigns node `i` the locally administered address
/// `02:4d:41:50:hi:lo` (`"MAP"` in the middle octets) via
/// [`MacAddr::from_node_index`]; the inverse mapping is used by stats
/// collectors to attribute frames back to simulated nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Number of bytes in an address.
    pub const LEN: usize = 6;

    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Deterministic address for simulated node `index`.
    pub fn from_node_index(index: u16) -> MacAddr {
        let [hi, lo] = index.to_be_bytes();
        MacAddr([0x02, 0x4d, 0x41, 0x50, hi, lo])
    }

    /// Recover the node index from an address produced by
    /// [`MacAddr::from_node_index`], or `None` for foreign addresses.
    pub fn node_index(&self) -> Option<u16> {
        if self.0[..4] == [0x02, 0x4d, 0x41, 0x50] {
            Some(u16::from_be_bytes([self.0[4], self.0[5]]))
        } else {
            None
        }
    }

    /// True for the all-ones broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }

    /// Parse from a byte slice of exactly [`MacAddr::LEN`] bytes.
    pub fn from_bytes(bytes: &[u8]) -> MacAddr {
        let mut addr = [0u8; 6];
        addr.copy_from_slice(bytes);
        MacAddr(addr)
    }

    /// The raw octets.
    pub fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    // Reuse `Display`: addresses appear constantly in trace output and the
    // derived form is too noisy.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_index_roundtrip() {
        for i in [0u16, 1, 49, 255, 65535] {
            let a = MacAddr::from_node_index(i);
            assert_eq!(a.node_index(), Some(i));
            assert!(!a.is_broadcast());
        }
    }

    #[test]
    fn broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert_eq!(MacAddr::BROADCAST.node_index(), None);
    }

    #[test]
    fn display_format() {
        let a = MacAddr::from_node_index(7);
        assert_eq!(a.to_string(), "02:4d:41:50:00:07");
    }

    #[test]
    fn from_bytes_roundtrip() {
        let a = MacAddr::from_node_index(300);
        assert_eq!(MacAddr::from_bytes(a.as_bytes()), a);
    }
}
