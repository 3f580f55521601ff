//! `cmap-ckpt/v7` — the versioned binary checkpoint format.
//!
//! A checkpoint is a full serialization of a mid-run [`World`]: simulation
//! clock, pending events, radio bank, per-node RNG stream
//! positions, MAC state machines, statistics, and fault-plan cursors.
//! The contract is **byte-identity**: run to event K, checkpoint, restore
//! in a fresh process over an identically-configured world, run to the
//! end — every deterministic artifact must be byte-identical to an
//! uninterrupted same-seed run (`tests/checkpoint_identity.rs` gates
//! this).
//!
//! The encoding is deliberately primitive: little-endian fixed-width
//! integers, `f64` as raw IEEE bit patterns (bit-exact restore, no
//! text round-trip), and length-prefixed byte blobs. No
//! self-description — the format version in the magic line *is* the
//! schema, and any structural change must bump it. Readers validate
//! eagerly and return [`CkptError`] rather than panicking: a truncated
//! or foreign file is an expected input (crash-safe artifact dirs), not
//! a bug.
//!
//! Types take part through one idiom, [`Persist`]: a type's encoding is
//! declared once — by a [`persist!`](crate::persist) line naming its
//! fields (or enum tags) in wire order, or by one of the generic impls
//! below for options, collections, tuples and arrays — and both the save
//! and the load direction are derived from that one declaration.
//!
//! [`World`]: crate::World

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cmap_phy::Rate;
use cmap_wire::cmap::InterfererEntry;
use cmap_wire::MacAddr;
use rand::rngs::SmallRng;

use crate::node::NodeId;

/// Format identifier; serialized as the magic prefix of every checkpoint.
/// v2 added the medium fingerprint to the config echo (a world whose
/// propagation engine or link set drifted is refused); v3 holds a
/// transmission's arrivals as two cursors in its `LiveTx` record and one
/// queued event per cursor, not every receiver's event in the queue image;
/// v4 writes the queue as its pending events in `(time, seq)` order, echoes
/// the fault plan field by field, and drops two unread sync marks; v5: the
/// fingerprint is of the link set alone — there is one engine, and a medium
/// fed as a matrix and one fed as positions agree when their links do; v6
/// holds the state the engine does: the queue image is the filed events
/// alone, each in-flight transmission's record carries its one stream
/// cursor (no end time, wire length or release count beside it), and
/// neither the pool's capacity nor the published lookup count is written;
/// v7 holds exact radio energy totals and each live reception's power.
pub const CKPT_MAGIC: &str = "cmap-ckpt/v7";

/// Why a checkpoint could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The magic prefix is missing or names a different format version.
    BadMagic,
    /// The buffer ended before a field being read.
    Truncated,
    /// A field holds a value outside its legal range.
    Malformed(String),
    /// The checkpoint does not match the world it is being applied to
    /// (different seed, topology size, fault plan, ...).
    Mismatch(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a {CKPT_MAGIC} checkpoint"),
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CkptError::Mismatch(what) => write!(f, "checkpoint/world mismatch: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Little-endian checkpoint encoder.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// A writer primed with the format magic.
    pub fn new() -> CkptWriter {
        let mut w = CkptWriter { buf: Vec::new() };
        w.buf.extend_from_slice(CKPT_MAGIC.as_bytes());
        w.buf.push(b'\n');
        w
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
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

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `usize` as `u64` (checkpoints are cross-width portable).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append any [`Persist`] value.
    pub fn put<T: Persist>(&mut self, v: &T) {
        v.save(self);
    }

    /// Append a sequence the way every collection is encoded: its length,
    /// then the items.
    pub fn seq<'a, T: Persist + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.len(items.len());
        for item in items {
            item.save(self);
        }
    }
}

/// Bound on any single decoded collection length: no legitimate world in
/// this workspace holds a billion of anything, and refusing early keeps a
/// corrupt length field from attempting a huge allocation.
const MAX_LEN: u64 = 1 << 30;

/// Little-endian checkpoint decoder.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Wrap `buf`, validating the format magic.
    pub fn new(buf: &'a [u8]) -> Result<CkptReader<'a>, CkptError> {
        let body = buf
            .strip_prefix(CKPT_MAGIC.as_bytes())
            .and_then(|rest| rest.strip_prefix(b"\n"))
            .ok_or(CkptError::BadMagic)?;
        Ok(CkptReader {
            buf,
            pos: buf.len() - body.len(),
        })
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CkptError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a collection length (bounds-checked `u64` → `usize`).
    #[allow(clippy::len_without_is_empty, reason = "a cursor read, not a length")]
    pub fn len(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        if v > MAX_LEN {
            return Err(CkptError::Malformed(format!("length {v} out of range")));
        }
        usize::try_from(v).map_err(|_| CkptError::Malformed(format!("length {v} out of range")))
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Malformed(format!("bool byte {other}"))),
        }
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CkptError::Malformed("non-UTF-8 string".to_string()))
    }

    /// Read any [`Persist`] value.
    pub fn get<T: Persist>(&mut self) -> Result<T, CkptError> {
        T::load(self)
    }

    /// Read the length of a collection of `T`, refusing one the rest of
    /// the buffer cannot hold: a corrupt length must fail here, before a
    /// loader sizes an allocation from it.
    pub fn count<T: Persist>(&mut self) -> Result<usize, CkptError> {
        let n = self.len()?;
        if n.saturating_mul(T::MIN_BYTES) > self.remaining() {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }

    /// Read a sequence written by [`CkptWriter::seq`] onto the end of
    /// `out`, keeping whatever capacity it already has. Returns how many
    /// items were read.
    pub fn seq_into<T: Persist>(&mut self, out: &mut Vec<T>) -> Result<usize, CkptError> {
        let n = self.count::<T>()?;
        out.reserve(n);
        for _ in 0..n {
            out.push(T::load(self)?);
        }
        Ok(n)
    }

    /// Require that the whole buffer was consumed (trailing garbage means
    /// a format mismatch, not padding).
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// Append a self-contained nested blob to `out`: its own magic line, then
/// whatever `body` writes. This is the form [`Mac::save_state`] and the
/// rate-controller hook produce, so each nested state machine can be
/// decoded (and rejected) on its own.
///
/// [`Mac::save_state`]: crate::Mac::save_state
pub fn write_blob(out: &mut Vec<u8>, body: impl FnOnce(&mut CkptWriter)) {
    let mut w = CkptWriter {
        buf: std::mem::take(out),
    };
    w.buf.extend_from_slice(CKPT_MAGIC.as_bytes());
    w.buf.push(b'\n');
    body(&mut w);
    *out = w.buf;
}

/// Decode a blob written by [`write_blob`]: check the magic, run `body`,
/// and require that it consumed every byte. Errors come back as text, the
/// contract of [`Mac::load_state`](crate::Mac::load_state).
pub fn read_blob<T>(
    bytes: &[u8],
    body: impl FnOnce(&mut CkptReader<'_>) -> Result<T, CkptError>,
) -> Result<T, String> {
    CkptReader::new(bytes)
        .and_then(|mut r| {
            let out = body(&mut r)?;
            r.expect_end()?;
            Ok(out)
        })
        .map_err(|e| e.to_string())
}

/// A type with a `cmap-ckpt/v7` encoding. `load` must read back exactly
/// the bytes `save` wrote and validate them: a value outside its legal
/// range is [`CkptError::Malformed`], never a panic.
pub trait Persist: Sized {
    /// A lower bound on the encoded size of any value, which
    /// [`CkptReader::count`] holds a decoded collection length against.
    /// The default is right for every type that writes at least a tag or
    /// one field.
    const MIN_BYTES: usize = 1;

    /// Append this value's encoding.
    fn save(&self, w: &mut CkptWriter);

    /// Decode one value.
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError>;
}

macro_rules! persist_primitive {
    ($($ty:ty => $method:ident, $bytes:literal;)+) => {$(
        impl Persist for $ty {
            const MIN_BYTES: usize = $bytes;
            fn save(&self, w: &mut CkptWriter) {
                w.$method(*self);
            }
            fn load(r: &mut CkptReader<'_>) -> Result<$ty, CkptError> {
                r.$method()
            }
        }
    )+};
}

persist_primitive! {
    u8 => u8, 1;
    u16 => u16, 2;
    u32 => u32, 4;
    u64 => u64, 8;
    i64 => i64, 8;
    f64 => f64, 8;
    bool => bool, 1;
    usize => len, 8;
}

/// A strict bool, then the value when present.
impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut CkptWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Option<T>, CkptError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl Persist for String {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.str(self);
    }
    fn load(r: &mut CkptReader<'_>) -> Result<String, CkptError> {
        r.str()
    }
}

impl<T: Persist> Persist for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.seq(self.iter());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Vec<T>, CkptError> {
        let mut out = Vec::new();
        r.seq_into(&mut out)?;
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.seq(self.iter());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<VecDeque<T>, CkptError> {
        Vec::load(r).map(VecDeque::from)
    }
}

/// Two little-endian `u64` words, the low one first.
impl Persist for u128 {
    const MIN_BYTES: usize = 16;
    fn save(&self, w: &mut CkptWriter) {
        w.put(&(*self as u64, (*self >> 64) as u64));
    }
    fn load(r: &mut CkptReader<'_>) -> Result<u128, CkptError> {
        let (low, high): (u64, u64) = r.get()?;
        Ok(u128::from(high) << 64 | u128::from(low))
    }
}

/// A byte blob that is borrowed when saved and owned once loaded.
impl Persist for Cow<'_, [u8]> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.bytes(self);
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Cow::Owned(r.bytes()?.to_vec()))
    }
}

/// Read the entries of an ordered map or set, holding the stream to the
/// order `save` emits: each key strictly greater than the one before, so
/// a state has one encoding and the caller can build its tree from the
/// run in one pass instead of inserting key by key.
fn ascending<E: Persist, K: Ord>(
    r: &mut CkptReader<'_>,
    key: impl Fn(&E) -> &K,
) -> Result<Vec<E>, CkptError> {
    let run: Vec<E> = r.get()?;
    if !run.is_sorted_by(|a, b| key(a) < key(b)) {
        return Err(CkptError::Malformed(
            "map or set keys not strictly ascending".into(),
        ));
    }
    Ok(run)
}

/// Keys strictly ascending; anything else is `Malformed`.
impl<T: Persist + Ord> Persist for BTreeSet<T> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.seq(self.iter());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<BTreeSet<T>, CkptError> {
        Ok(ascending(r, |k: &T| k)?.into_iter().collect())
    }
}

/// Keys strictly ascending; anything else is `Malformed`.
impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.len(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<BTreeMap<K, V>, CkptError> {
        Ok(ascending(r, |e: &(K, V)| &e.0)?.into_iter().collect())
    }
}

macro_rules! persist_tuple {
    ($($name:ident)+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;
            #[allow(non_snake_case, reason = "bindings named after the type parameters")]
            fn save(&self, w: &mut CkptWriter) {
                let ($($name,)+) = self;
                $($name.save(w);)+
            }
            fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
                Ok(($($name::load(r)?,)+))
            }
        }
    };
}

persist_tuple!(A B);
persist_tuple!(A B C);
persist_tuple!(A B C D);
persist_tuple!(A B C D E);

/// `N` items and no length: the size is part of the schema.
impl<T: Persist + Copy + Default, const N: usize> Persist for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn save(&self, w: &mut CkptWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<[T; N], CkptError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::load(r)?;
        }
        Ok(out)
    }
}

/// The node index as a `u64` length (the format predates the `u32` id).
impl Persist for NodeId {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut CkptWriter) {
        w.len(self.index());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<NodeId, CkptError> {
        r.len().map(NodeId::new)
    }
}

impl Persist for MacAddr {
    const MIN_BYTES: usize = MacAddr::LEN;
    fn save(&self, w: &mut CkptWriter) {
        self.0.save(w);
    }
    fn load(r: &mut CkptReader<'_>) -> Result<MacAddr, CkptError> {
        r.get().map(MacAddr)
    }
}

impl Persist for Rate {
    fn save(&self, w: &mut CkptWriter) {
        w.u8(self.to_u8());
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Rate, CkptError> {
        let v = r.u8()?;
        Rate::from_u8(v).ok_or_else(|| CkptError::Malformed(format!("rate tag {v}")))
    }
}

/// The four xoshiro state words: a generator resumes mid-stream.
impl Persist for SmallRng {
    const MIN_BYTES: usize = 32;
    fn save(&self, w: &mut CkptWriter) {
        self.state().save(w);
    }
    fn load(r: &mut CkptReader<'_>) -> Result<SmallRng, CkptError> {
        r.get().map(SmallRng::from_state)
    }
}

/// Declare a type's `cmap-ckpt/v7` encoding once; both directions are
/// derived from the one list, so they cannot drift apart.
///
/// * `persist!(struct T { a, b, c })` implements [`Persist`](crate::ckpt::Persist)
///   for a struct: the named fields in wire order. Every field must be
///   named unless a `..base` expression follows the braces to supply the
///   unpersisted rest; a trailing `validate f` runs `f(&T) -> Result<(),
///   CkptError>` on the loaded value.
/// * `persist!(enum T { 0 => A, 1 => B { x, y } })` implements it for an
///   enum: one tag byte, then the variant's fields. An unknown tag is
///   `Malformed`.
/// * `persist!(fields T { a, b, c })` is for a type that cannot be built
///   from bytes alone because it also holds configuration: it generates
///   `T::save_fields(&self, w)` and `T::load_fields(&mut self, r)`, which
///   overlay the named fields onto an already-configured value.
#[macro_export]
macro_rules! persist {
    (struct $ty:ident $(<$lt:lifetime>)? { $($field:ident),+ $(,)? }
     $(..$base:expr)? $(, validate $check:expr)?) => {
        impl $(<$lt>)? $crate::ckpt::Persist for $ty $(<$lt>)? {
            fn save(&self, w: &mut $crate::ckpt::CkptWriter) {
                $($crate::ckpt::Persist::save(&self.$field, w);)+
            }
            fn load(
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<Self, $crate::ckpt::CkptError> {
                let loaded = $ty {
                    $($field: $crate::ckpt::Persist::load(r)?,)+
                    $(..$base)?
                };
                $($check(&loaded)?;)?
                Ok(loaded)
            }
        }
    };
    (enum $ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),+ })?),+ $(,)? }) => {
        impl $crate::ckpt::Persist for $ty {
            fn save(&self, w: &mut $crate::ckpt::CkptWriter) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        w.u8($tag);
                        $($($crate::ckpt::Persist::save($field, w);)+)?
                    })+
                }
            }
            fn load(
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<Self, $crate::ckpt::CkptError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$variant $({
                        $($field: $crate::ckpt::Persist::load(r)?),+
                    })?,)+
                    other => {
                        return Err($crate::ckpt::CkptError::Malformed(format!(
                            concat!(stringify!($ty), " tag {}"),
                            other
                        )))
                    }
                })
            }
        }
    };
    (fields $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $ty {
            fn save_fields(&self, w: &mut $crate::ckpt::CkptWriter) {
                $($crate::ckpt::Persist::save(&self.$field, w);)+
            }
            fn load_fields(
                &mut self,
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<(), $crate::ckpt::CkptError> {
                $(self.$field = $crate::ckpt::Persist::load(r)?;)+
                Ok(())
            }
        }
    };
}

persist!(struct InterfererEntry { source, interferer, source_rate });

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "bit-exact f64 round-trips are tested")]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = CkptWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-12345);
        w.f64(-0.0);
        w.f64(1.5e-300);
        w.len(42);
        w.bool(true);
        w.bool(false);
        w.bytes(b"blob");
        w.str("héllo");
        let bytes = w.finish();

        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), 1.5e-300);
        assert_eq!(r.len().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"blob");
        assert_eq!(r.str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        assert_eq!(
            CkptReader::new(b"not-a-checkpoint").unwrap_err(),
            CkptError::BadMagic
        );
        // Magic of a past or future version must be rejected, not
        // half-read.
        for other in ["cmap-ckpt/v5\n", "cmap-ckpt/v6\n", "cmap-ckpt/v8\n"] {
            assert_eq!(
                CkptReader::new(other.as_bytes()).unwrap_err(),
                CkptError::BadMagic
            );
        }

        let mut w = CkptWriter::new();
        w.u64(1);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2);
        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(r.u64().unwrap_err(), CkptError::Truncated);

        // An absurd length field fails before allocating.
        let mut w = CkptWriter::new();
        w.u64(u64::MAX);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(r.len().unwrap_err(), CkptError::Malformed(_)));

        // Bool bytes are strict.
        let mut w = CkptWriter::new();
        w.u8(2);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(r.bool().unwrap_err(), CkptError::Malformed(_)));

        // Trailing garbage is flagged.
        let mut w = CkptWriter::new();
        w.u8(0);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        let _ = r.u8().unwrap();
        r.expect_end().unwrap();
        let mut w = CkptWriter::new();
        w.u16(0);
        let bytes = w.finish();
        let r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.expect_end().unwrap_err(),
            CkptError::Malformed(_)
        ));
    }

    /// Every generic impl against the hand encoding it replaced.
    #[test]
    fn conventions_match_the_hand_encoding() {
        let addr = MacAddr::from_node_index(7);
        let mut w = CkptWriter::new();
        w.put(&Some(5u32));
        w.put(&None::<u32>);
        w.put(&vec![1u16, 2]);
        w.put(&VecDeque::from([(3u64, 1.5f64)]));
        w.put(&BTreeSet::from([9u32, 4]));
        w.put(&BTreeMap::from([((NodeId::new(2), addr), Rate::R12)]));
        w.put(&[7u64, 8]);
        w.put(&300usize);
        w.put(&"spec".to_string());
        w.put(&Cow::Borrowed(&b"raw"[..]));
        let got = w.finish();

        let mut w = CkptWriter::new();
        w.bool(true);
        w.u32(5);
        w.bool(false);
        w.len(2);
        w.u16(1);
        w.u16(2);
        w.len(1);
        w.u64(3);
        w.f64(1.5);
        w.len(2);
        w.u32(4);
        w.u32(9);
        w.len(1);
        w.len(2);
        for b in addr.0 {
            w.u8(b);
        }
        w.u8(Rate::R12.to_u8());
        w.u64(7);
        w.u64(8);
        w.len(300);
        w.str("spec");
        w.bytes(b"raw");
        assert_eq!(got, w.finish());

        let mut r = CkptReader::new(&got).unwrap();
        assert_eq!(r.get::<Option<u32>>().unwrap(), Some(5));
        assert_eq!(r.get::<Option<u32>>().unwrap(), None);
        assert_eq!(r.get::<Vec<u16>>().unwrap(), [1, 2]);
        assert_eq!(r.get::<VecDeque<(u64, f64)>>().unwrap(), [(3, 1.5)]);
        assert_eq!(r.get::<BTreeSet<u32>>().unwrap(), BTreeSet::from([4, 9]));
        let map: BTreeMap<(NodeId, MacAddr), Rate> = r.get().unwrap();
        assert_eq!(map[&(NodeId::new(2), addr)], Rate::R12);
        assert_eq!(r.get::<[u64; 2]>().unwrap(), [7, 8]);
        assert_eq!(r.get::<usize>().unwrap(), 300);
        assert_eq!(r.get::<String>().unwrap(), "spec");
        assert_eq!(&r.get::<Cow<'_, [u8]>>().unwrap()[..], b"raw");
        r.expect_end().unwrap();
    }

    #[test]
    fn collections_refuse_duplicates_and_oversized_lengths() {
        let mut w = CkptWriter::new();
        w.len(2);
        w.u32(6 | 6 << 16);
        w.u32(6 | 6 << 16);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.get::<BTreeSet<u32>>().unwrap_err(),
            CkptError::Malformed(_)
        ));
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.get::<BTreeMap<u16, u16>>().unwrap_err(),
            CkptError::Malformed(_)
        ));

        // A length the remaining bytes cannot hold fails before anything
        // is reserved: 3 x u64 needs 24 bytes, 16 follow.
        let mut w = CkptWriter::new();
        w.len(3);
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(r.get::<Vec<u64>>().unwrap_err(), CkptError::Truncated);
        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(
            r.get::<VecDeque<(u32, u32)>>().unwrap_err(),
            CkptError::Truncated
        );

        let mut w = CkptWriter::new();
        w.u8(8);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.get::<Rate>().unwrap_err(),
            CkptError::Malformed(_)
        ));
    }

    /// Maps and sets have one encoding: keys strictly ascending. A stream
    /// in any other order is refused, not re-sorted.
    #[test]
    fn ordered_collections_hold_the_stream_to_key_order() {
        let image = |keys: &[u32]| {
            let mut w = CkptWriter::new();
            w.put(&keys.to_vec());
            w.finish()
        };
        let set = |keys: &[u32]| CkptReader::new(&image(keys))?.get::<BTreeSet<u32>>();
        // The same bytes as a map: each u32 is a u16 key and a u16 value,
        // so `k | v << 16` orders by `k`.
        let map = |keys: &[u32]| CkptReader::new(&image(keys))?.get::<BTreeMap<u16, u16>>();

        assert_eq!(set(&[]), Ok(BTreeSet::new()));
        assert_eq!(map(&[]), Ok(BTreeMap::new()));
        assert_eq!(set(&[7]), Ok(BTreeSet::from([7])));
        assert_eq!(map(&[7 | 9 << 16]), Ok(BTreeMap::from([(7, 9)])));
        assert_eq!(set(&[4, 9, 10]), Ok(BTreeSet::from([4, 9, 10])));
        assert_eq!(map(&[4, 9 | 1 << 16]), Ok(BTreeMap::from([(4, 0), (9, 1)])));
        for bad in [&[9, 4][..], &[4, 4], &[1, 2, 3, 3], &[1, 3, 2, 4]] {
            assert!(matches!(set(bad), Err(CkptError::Malformed(_))), "{bad:?}");
            assert!(matches!(map(bad), Err(CkptError::Malformed(_))), "{bad:?}");
        }
        // Equal keys under different values are still equal keys.
        assert!(matches!(
            map(&[4 | 1 << 16, 4 | 2 << 16]),
            Err(CkptError::Malformed(_))
        ));
    }

    #[test]
    fn blobs_nest_with_their_own_magic() {
        let mut out = vec![0xAA];
        write_blob(&mut out, |w| w.put(&7u32));
        assert_eq!(out[0], 0xAA, "write_blob appends");
        let blob = &out[1..];
        assert!(blob.starts_with(CKPT_MAGIC.as_bytes()));
        assert_eq!(read_blob(blob, |r| r.get::<u32>()), Ok(7));
        // Unread bytes and foreign magic are both refused.
        assert!(read_blob(blob, |r| r.get::<u16>()).is_err());
        assert!(read_blob(&out, |r| r.get::<u32>()).is_err());
    }
}
