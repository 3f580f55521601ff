//! Bounds-checked read/write cursors of the reference codec.
//!
//! Parsing never panics: every read is checked and surfaces
//! [`WireError::Truncated`] on overrun.

use cmap_wire::{crc, MacAddr, WireError};

/// A reading cursor over a received frame's bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a MAC address.
    pub fn mac(&mut self) -> Result<MacAddr, WireError> {
        Ok(MacAddr::from_bytes(self.take(MacAddr::LEN)?))
    }
}

/// A writing cursor building up a frame.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a frame with a capacity hint.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a MAC address.
    pub fn mac(&mut self, addr: MacAddr) {
        self.buf.extend_from_slice(addr.as_bytes());
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append the CRC-32 of everything written so far and return the frame.
    pub fn finish_with_crc(mut self) -> Vec<u8> {
        crc::append_crc(&mut self.buf);
        self.buf
    }
}
