//! CRC-32 (IEEE 802.3 polynomial) used by every frame trailer.
//!
//! The CMAP header and trailer each carry "a separate CRC covering the entire
//! header or trailer" (§3) so that they can be validated independently of the
//! (possibly corrupted) data packets around them. We use the standard
//! reflected CRC-32 with polynomial `0xEDB88320`, table-driven and sliced by
//! sixteen: sixteen independent table lookups fold in two `u64` words per
//! step (eight would fold one, at ~70 % of the speed).

/// Lazily built lookup tables for the reflected IEEE polynomial: `[0]` is
/// the one-byte table, and `[k][b]` is the state contribution of byte `b`
/// followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 16] {
    // Write-once memo of a pure function; every init races to identical bytes
    static TABLES: std::sync::OnceLock<[[u32; 256]; 16]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

/// The one-byte table.
fn table() -> &'static [u32; 256] {
    &tables()[0]
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !raw_state(data)
}

/// Verify that `frame` ends with the CRC-32 of everything before it.
///
/// Returns `false` for frames shorter than the 4-byte CRC itself.
pub fn verify_trailing_crc(frame: &[u8]) -> bool {
    if frame.len() < 4 {
        return false;
    }
    let (body, tail) = frame.split_at(frame.len() - 4);
    let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    crc32(body) == stored
}

/// Append the CRC-32 of the current contents of `buf` to it.
pub fn append_crc(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Pre-inversion CRC state over `data` (the `crc32` loop without the final
/// complement), so the state can be advanced further before finalizing.
/// Sixteen bytes a step: the state xors into the first word, and byte `i`
/// of the sixteen is looked up in the table that carries it past the
/// `15 − i` bytes after it.
fn raw_state(data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let blocks = data.chunks_exact(16);
    let rest = blocks.remainder();
    for b in blocks {
        let (lo, hi) = b.split_at(8);
        let lo = word(lo) ^ u64::from(crc);
        let hi = word(hi);
        crc = 0;
        for i in 0..8 {
            crc ^= t[15 - i][(lo >> (8 * i)) as u8 as usize]
                ^ t[7 - i][(hi >> (8 * i)) as u8 as usize];
        }
    }
    for &byte in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc
}

/// Eight bytes as a little-endian word.
fn word(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(b);
    u64::from_le_bytes(w)
}

/// One CRC step with a zero input byte — the *linear* part of any step,
/// since the table is GF(2)-linear (`T[a ^ b] = T[a] ^ T[b]`), making a
/// step with byte `c` the affine map `s ↦ L(s) ^ T[c]`.
#[inline]
fn step_linear(s: u32, table: &[u32; 256]) -> u32 {
    (s >> 8) ^ table[(s & 0xff) as usize]
}

/// The affine map advancing a raw CRC state through `n` copies of one
/// constant byte: `s ↦ M·s ^ v`, with the linear part `M` stored as the
/// images of the 32 basis vectors.
#[derive(Clone, Copy)]
struct ConstTail {
    m: [u32; 32],
    v: u32,
}

impl ConstTail {
    /// Compose `n` single-byte steps with value `fill`. O(n) scalar work,
    /// done once per distinct `(fill, n)` and memoized.
    fn build(fill: u8, n: usize) -> ConstTail {
        let table = table();
        let d = table[fill as usize];
        let mut m = [0u32; 32];
        for (i, col) in m.iter_mut().enumerate() {
            *col = 1u32 << i;
        }
        let mut v = 0u32;
        for _ in 0..n {
            for col in m.iter_mut() {
                *col = step_linear(*col, table);
            }
            v = step_linear(v, table) ^ d;
        }
        ConstTail { m, v }
    }

    #[inline]
    fn apply(&self, s: u32) -> u32 {
        let mut y = self.v;
        for (i, &col) in self.m.iter().enumerate() {
            y ^= col & 0u32.wrapping_sub((s >> i) & 1);
        }
        y
    }
}

/// Extend `buf` with `n` copies of `fill`, then append the CRC-32 of the
/// whole buffer — byte-identical to `resize(.., fill)` + [`append_crc`],
/// but the constant tail advances the CRC state through a memoized affine
/// map instead of `n` table steps. This is the frame composers' fast path:
/// synthetic payloads are a repeated fill byte, so per-frame CRC cost
/// stays proportional to the (small) header, not the payload.
pub(crate) fn append_fill_and_crc(buf: &mut Vec<u8>, fill: u8, n: usize) {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    thread_local! {
        // Per-thread memo of a pure function of the key; never observable in artifacts
        static TAILS: RefCell<BTreeMap<(u8, usize), ConstTail>> =
            const { RefCell::new(BTreeMap::new()) };
    }
    let s = raw_state(buf);
    let tail = TAILS.with(|t| {
        *t.borrow_mut()
            .entry((fill, n))
            .or_insert_with(|| ConstTail::build(fill, n))
    });
    buf.resize(buf.len() + n, fill);
    buf.extend_from_slice(&(!tail.apply(s)).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Slicing by sixteen against the byte-at-a-time loop, at every length
    /// to 2,048 and every start offset within a word.
    #[test]
    fn sliced_crc_matches_the_bytewise_loop() {
        let bytewise = |data: &[u8]| {
            let t = table();
            let mut crc = 0xFFFF_FFFFu32;
            for &byte in data {
                crc = (crc >> 8) ^ t[((crc ^ u32::from(byte)) & 0xff) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..2056u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=2048 {
                let d = &data[start..start + len];
                assert_eq!(crc32(d), bytewise(d), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn append_then_verify() {
        let mut buf = b"hello cmap".to_vec();
        append_crc(&mut buf);
        assert!(verify_trailing_crc(&buf));
    }

    #[test]
    fn corruption_detected() {
        let mut buf = b"payload bytes".to_vec();
        append_crc(&mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(!verify_trailing_crc(&bad), "flip at {i} undetected");
        }
    }

    #[test]
    fn short_frames_rejected() {
        assert!(!verify_trailing_crc(&[]));
        assert!(!verify_trailing_crc(&[1, 2, 3]));
    }

    #[test]
    fn const_tail_matches_bytewise_crc() {
        for &(fill, n) in &[
            (0xC5u8, 0usize),
            (0xC5, 1),
            (0xC5, 7),
            (0x00, 64),
            (0xFF, 255),
            (0xC5, 1400),
            (0xA7, 2048),
        ] {
            let header: Vec<u8> = (0..37u8).map(|b| b.wrapping_mul(13) ^ 0x5A).collect();
            let mut fast = header.clone();
            append_fill_and_crc(&mut fast, fill, n);
            let mut slow = header;
            slow.resize(slow.len() + n, fill);
            append_crc(&mut slow);
            assert_eq!(fast, slow, "fill={fill:#x} n={n}");
            assert!(verify_trailing_crc(&fast));
        }
    }
}
