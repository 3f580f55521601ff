//! `cmap-ckpt/v8` — the versioned binary checkpoint format.
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
//! schema, and any structural change must bump it. An image ends with a
//! content sum of everything before it, checked before any field is read,
//! so a flipped bit is refused rather than restored. Readers validate
//! eagerly and return [`CkptError`] rather than panicking: a truncated
//! or foreign file is an expected input (crash-safe artifact dirs), not
//! a bug.
//!
//! Types take part through one idiom, [`Persist`]: a type's encoding is
//! declared once — by a [`persist!`](crate::persist) line naming its
//! fields (or enum tags) in wire order, or by one of the generic impls
//! below for options, collections, tuples and arrays — and both the save
//! and the load direction are derived from that one declaration. A run of
//! values of one width ([`Persist::FIXED`]) moves through one slice.
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
/// v7 holds exact radio energy totals and each live reception's power;
/// v8 ends the image with a content sum, keeps a flow's duplicate
/// suppression as its missing seqs, drops the radio's aborted-reception
/// count, and echoes the medium fingerprint hashed a word at a time.
pub const CKPT_MAGIC: &str = "cmap-ckpt/v8";

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

/// The sum an image ends with: its length plus each of its little-endian
/// `u64` words (the last zero-padded), wrapping. One add per word, which
/// the compiler vectorises, so it runs at memory speed; a flipped bit
/// moves one word by a power of two and so always moves the sum.
fn content_sum(body: &[u8]) -> u64 {
    let words = body.chunks_exact(8);
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    let sum = words.fold(body.len() as u64, |s, w| s.wrapping_add(le_word(w)));
    sum.wrapping_add(u64::from_le_bytes(last))
}

fn le_word(b: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(b);
    u64::from_le_bytes(word)
}

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

    /// Finish and take the encoded bytes, sealed with their content sum.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = content_sum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Append a `usize` as `u64` (checkpoints are cross-width portable).
    pub fn len(&mut self, v: usize) {
        self.put(&v);
    }

    /// Append a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append any [`Persist`] value.
    pub fn put<T: Persist>(&mut self, v: &T) {
        if T::FIXED {
            let mut at = self.buf.len();
            self.buf.resize(at + T::MIN_BYTES, 0);
            v.put_at(&mut self.buf, &mut at);
        } else {
            v.save(self);
        }
    }

    /// Append a sequence the way every collection is encoded: its length,
    /// then the items — a run of [`Persist::FIXED`] items written in place.
    pub fn seq<'a, T: Persist + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.len(items.len());
        if T::FIXED {
            let start = self.buf.len();
            self.buf.resize(start + items.len() * T::MIN_BYTES, 0);
            for (item, out) in items.zip(self.buf[start..].chunks_exact_mut(T::MIN_BYTES)) {
                item.put_at(out, &mut 0);
            }
        } else {
            for item in items {
                item.save(self);
            }
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
    /// Wrap a sealed image: check the format magic, then the content sum
    /// against everything before it. The reader ends where the sum starts.
    pub fn new(buf: &'a [u8]) -> Result<CkptReader<'a>, CkptError> {
        let mut r = CkptReader::open(buf)?;
        if buf.len() < r.pos + 8 {
            return Err(CkptError::Truncated);
        }
        let (body, sum) = buf.split_at(buf.len() - 8);
        if content_sum(body) != le_word(sum) {
            return Err(CkptError::Malformed("content sum".into()));
        }
        r.buf = body;
        Ok(r)
    }

    /// Wrap `buf`, validating the format magic alone (a nested blob, which
    /// the image around it seals).
    fn open(buf: &'a [u8]) -> Result<CkptReader<'a>, CkptError> {
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
        let out = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(CkptError::Truncated)?;
        self.pos += n;
        Ok(out)
    }

    /// Read a collection length (bounds-checked `u64` → `usize`).
    #[allow(clippy::len_without_is_empty, reason = "a cursor read, not a length")]
    pub fn len(&mut self) -> Result<usize, CkptError> {
        self.get()
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Read any [`Persist`] value.
    pub fn get<T: Persist>(&mut self) -> Result<T, CkptError> {
        if T::FIXED {
            T::get_at(self.take(T::MIN_BYTES)?, &mut 0)
        } else {
            T::load(self)
        }
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
    /// `out`, keeping whatever capacity it already has — a run of
    /// [`Persist::FIXED`] items decoded from one slice, each with every
    /// check its `load` makes. Returns how many items were read.
    pub(crate) fn seq_into<T: Persist>(&mut self, out: &mut Vec<T>) -> Result<usize, CkptError> {
        let n = self.count::<T>()?;
        out.reserve(n);
        if T::FIXED {
            for b in self.take(n * T::MIN_BYTES)?.chunks_exact(T::MIN_BYTES) {
                out.push(T::get_at(b, &mut 0)?);
            }
        } else {
            for _ in 0..n {
                out.push(T::load(self)?);
            }
        }
        Ok(n)
    }

    /// Require that the whole buffer was consumed (trailing garbage means
    /// a format mismatch, not padding).
    pub(crate) fn expect_end(&self) -> Result<(), CkptError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CkptError::Malformed(format!("{n} trailing bytes"))),
        }
    }
}

/// Append a self-contained nested blob to `out`: its own magic line, then
/// whatever `body` writes. This is the form [`Mac::save_state`] and the
/// rate-controller hook produce, so each nested state machine can be
/// decoded (and rejected) on its own. The image the blob is framed in
/// carries its content sum.
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
    CkptReader::open(bytes)
        .and_then(|mut r| {
            let out = body(&mut r)?;
            r.expect_end()?;
            Ok(out)
        })
        .map_err(|e| e.to_string())
}

/// A type with a `cmap-ckpt/v8` encoding. `load` must read back exactly
/// the bytes `save` wrote and validate them: a value outside its legal
/// range is [`CkptError::Malformed`], never a panic.
pub trait Persist: Sized {
    /// A lower bound on the encoded size of any value (exact for a
    /// [`FIXED`](Persist::FIXED) type), which [`CkptReader::count`] holds a
    /// decoded collection length against. The default is right for every
    /// type that writes at least a tag or one field.
    const MIN_BYTES: usize = 1;

    /// Every value encodes to exactly `MIN_BYTES` bytes (the primitives,
    /// and tuples, arrays and [`persist!`](crate::persist) structs of
    /// them): [`CkptWriter::seq`]/`CkptReader::seq_into` move a run of
    /// them through `put_at`/`get_at` on one slice.
    const FIXED: bool = false;

    /// Append this value's encoding.
    fn save(&self, w: &mut CkptWriter);

    /// Decode one value.
    fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError>;

    /// Write this value's encoding into `out` at `*at`, stepping past it
    /// (in place for a `FIXED` type; the default goes through `save`).
    fn put_at(&self, out: &mut [u8], at: &mut usize) {
        let mut w = CkptWriter::default();
        self.save(&mut w);
        out[*at..*at + w.buf.len()].copy_from_slice(&w.buf);
        *at += w.buf.len();
    }

    /// Decode one value from `b` at `*at`, stepping past it, with every
    /// check `load` makes (the default goes through `load`).
    fn get_at(b: &[u8], at: &mut usize) -> Result<Self, CkptError> {
        let mut r = CkptReader { buf: b, pos: *at };
        let v = Self::load(&mut r)?;
        *at = r.pos;
        Ok(v)
    }
}

/// A field type's `(MIN_BYTES, FIXED)`: how [`persist!`](crate::persist)
/// sums a struct's from its field names alone.
#[doc(hidden)]
pub const fn field_width<S, T: Persist>(_field: fn(&S) -> &T) -> (usize, bool) {
    (T::MIN_BYTES, T::FIXED)
}

/// `N` bytes of `b` at `*at`, stepping past them.
fn bytes_at<const N: usize>(b: &[u8], at: &mut usize) -> Result<[u8; N], CkptError> {
    let mut out = [0u8; N];
    out.copy_from_slice(b.get(*at..*at + N).ok_or(CkptError::Truncated)?);
    *at += N;
    Ok(out)
}

macro_rules! persist_le {
    ($($ty:ty),+) => {$(
        impl Persist for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            const FIXED: bool = true;
            fn save(&self, w: &mut CkptWriter) {
                w.put(self);
            }
            fn load(r: &mut CkptReader<'_>) -> Result<$ty, CkptError> {
                r.get()
            }
            #[inline]
            fn put_at(&self, out: &mut [u8], at: &mut usize) {
                out[*at..*at + Self::MIN_BYTES].copy_from_slice(&self.to_le_bytes());
                *at += Self::MIN_BYTES;
            }
            #[inline]
            fn get_at(b: &[u8], at: &mut usize) -> Result<$ty, CkptError> {
                bytes_at(b, at).map(<$ty>::from_le_bytes)
            }
        }
    )+};
}

// Little-endian, fixed width; a `u128` is two `u64` words, the low first.
persist_le!(u8, u16, u32, u64, i64, u128);

/// A value carried as a fixed-width one, checked when read.
macro_rules! persist_as {
    ($($ty:ty => $wire:ty, |$v:ident| $to:expr, |$w:ident| $from:expr;)+) => {$(
        impl Persist for $ty {
            const MIN_BYTES: usize = <$wire>::MIN_BYTES;
            const FIXED: bool = true;
            fn save(&self, w: &mut CkptWriter) {
                w.put(self);
            }
            fn load(r: &mut CkptReader<'_>) -> Result<$ty, CkptError> {
                r.get()
            }
            #[inline]
            fn put_at(&self, out: &mut [u8], at: &mut usize) {
                let $v = self;
                <$wire>::put_at(&$to, out, at);
            }
            #[inline]
            fn get_at(b: &[u8], at: &mut usize) -> Result<$ty, CkptError> {
                let $w = <$wire>::get_at(b, at)?;
                $from
            }
        }
    )+};
}

persist_as! {
    // The raw IEEE-754 bit pattern: bit-exact.
    f64 => u64, |v| v.to_bits(), |w| Ok(f64::from_bits(w));
    // Strictly 0 or 1.
    bool => u8, |v| u8::from(*v), |w| match w {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(CkptError::Malformed(format!("bool byte {other}"))),
    };
    // A `u64` held to `MAX_LEN` (checkpoints are cross-width portable).
    usize => u64, |v| *v as u64, |w| usize::try_from(w)
        .ok()
        .filter(|_| w <= MAX_LEN)
        .ok_or_else(|| CkptError::Malformed(format!("length {w} out of range")));
    // The node index as a `u64` length (the format predates the `u32` id).
    NodeId => usize, |v| v.index(), |w| Ok(NodeId::new(w));
    Rate => u8, |v| v.to_u8(), |w| Rate::from_u8(w)
        .ok_or_else(|| CkptError::Malformed(format!("rate tag {w}")));
    MacAddr => [u8; MacAddr::LEN], |v| v.0, |w| Ok(MacAddr(w));
    // The four xoshiro state words: a generator resumes mid-stream.
    SmallRng => [u64; 4], |v| v.state(), |w| Ok(SmallRng::from_state(w));
}

/// A strict bool, then the value when present.
impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut CkptWriter) {
        w.put(&self.is_some());
        if let Some(v) = self {
            w.put(v);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<Option<T>, CkptError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
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
            w.put(k);
            w.put(v);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<BTreeMap<K, V>, CkptError> {
        Ok(ascending(r, |e: &(K, V)| &e.0)?.into_iter().collect())
    }
}

macro_rules! persist_tuple {
    ($($name:ident)+) => {
        #[allow(non_snake_case, reason = "bindings named after the type parameters")]
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;
            const FIXED: bool = true $(&& $name::FIXED)+;
            fn save(&self, w: &mut CkptWriter) {
                let ($($name,)+) = self;
                $(w.put($name);)+
            }
            fn load(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
                Ok(($(r.get::<$name>()?,)+))
            }
            fn put_at(&self, out: &mut [u8], at: &mut usize) {
                let ($($name,)+) = self;
                $($name.put_at(out, at);)+
            }
            fn get_at(b: &[u8], at: &mut usize) -> Result<Self, CkptError> {
                Ok(($($name::get_at(b, at)?,)+))
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
    const FIXED: bool = T::FIXED;
    fn save(&self, w: &mut CkptWriter) {
        for v in self {
            w.put(v);
        }
    }
    fn load(r: &mut CkptReader<'_>) -> Result<[T; N], CkptError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = r.get()?;
        }
        Ok(out)
    }
    fn put_at(&self, out: &mut [u8], at: &mut usize) {
        for v in self {
            v.put_at(out, at);
        }
    }
    fn get_at(b: &[u8], at: &mut usize) -> Result<[T; N], CkptError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get_at(b, at)?;
        }
        Ok(out)
    }
}

/// Declare a type's `cmap-ckpt/v8` encoding once; both directions are
/// derived from the one list, so they cannot drift apart.
///
/// * `persist!(struct T { a, b, c })` implements [`Persist`](crate::ckpt::Persist)
///   for a struct: the named fields in wire order, [`FIXED`] when every
///   field's type is. Every field must be named unless a `..base`
///   expression follows the braces to supply the unpersisted rest; a
///   trailing `validate f` runs `f(&T) -> Result<(), CkptError>` on each
///   loaded value, on the bulk path too.
/// * `persist!(enum T { 0 => A, 1 => B { x, y } })` implements it for an
///   enum: one tag byte, then the variant's fields. An unknown tag is
///   `Malformed`.
/// * `persist!(fields T { a, b, c })` is for a type that cannot be built
///   from bytes alone because it also holds configuration: it generates
///   `T::save_fields(&self, w)` and `T::load_fields(&mut self, r)`, which
///   overlay the named fields onto an already-configured value.
///
/// [`FIXED`]: crate::ckpt::Persist::FIXED
#[macro_export]
macro_rules! persist {
    (struct $ty:ident $(<$lt:lifetime>)? { $($field:ident),+ $(,)? }
     $(..$base:expr)? $(, validate $check:expr)?) => {
        impl $(<$lt>)? $crate::ckpt::Persist for $ty $(<$lt>)? {
            const MIN_BYTES: usize =
                0 $(+ $crate::ckpt::field_width(|v: &$ty| &v.$field).0)+;
            const FIXED: bool = true $(&& $crate::ckpt::field_width(|v: &$ty| &v.$field).1)+;
            fn save(&self, w: &mut $crate::ckpt::CkptWriter) {
                $(w.put(&self.$field);)+
            }
            fn load(
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<Self, $crate::ckpt::CkptError> {
                let loaded = $ty {
                    $($field: r.get()?,)+
                    $(..$base)?
                };
                $($check(&loaded)?;)?
                Ok(loaded)
            }
            #[inline]
            fn put_at(&self, out: &mut [u8], at: &mut usize) {
                $($crate::ckpt::Persist::put_at(&self.$field, out, at);)+
            }
            #[inline]
            fn get_at(b: &[u8], at: &mut usize) -> Result<Self, $crate::ckpt::CkptError> {
                let loaded = $ty {
                    $($field: $crate::ckpt::Persist::get_at(b, at)?,)+
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
                        w.put::<u8>(&$tag);
                        $($(w.put($field);)+)?
                    })+
                }
            }
            fn load(
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<Self, $crate::ckpt::CkptError> {
                Ok(match r.get::<u8>()? {
                    $($tag => $ty::$variant $({
                        $($field: r.get()?),+
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
                $(w.put(&self.$field);)+
            }
            fn load_fields(
                &mut self,
                r: &mut $crate::ckpt::CkptReader<'_>,
            ) -> Result<(), $crate::ckpt::CkptError> {
                $(self.$field = r.get()?;)+
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
        w.put(&7u8);
        w.put(&0xBEEFu16);
        w.put(&0xDEAD_BEEFu32);
        w.put(&(u64::MAX - 3));
        w.put(&-12345i64);
        w.put(&(u128::MAX - 9));
        w.put(&-0.0f64);
        w.put(&1.5e-300f64);
        w.len(42);
        w.put(&true);
        w.put(&false);
        w.bytes(b"blob");
        let bytes = w.finish();

        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(r.get::<u8>().unwrap(), 7);
        assert_eq!(r.get::<u16>().unwrap(), 0xBEEF);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX - 3);
        assert_eq!(r.get::<i64>().unwrap(), -12345);
        assert_eq!(r.get::<u128>().unwrap(), u128::MAX - 9);
        assert_eq!(r.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get::<f64>().unwrap(), 1.5e-300);
        assert_eq!(r.len().unwrap(), 42);
        assert!(r.get::<bool>().unwrap());
        assert!(!r.get::<bool>().unwrap());
        assert_eq!(r.bytes().unwrap(), b"blob");
        r.expect_end().unwrap();
    }

    /// A `u128` is its two `u64` words, the low one first.
    #[test]
    fn a_u128_is_two_words_low_first() {
        let mut w = CkptWriter::new();
        w.put(&(5u128 << 64 | 9));
        let mut v = CkptWriter::new();
        v.put(&(9u64, 5u64));
        assert_eq!(w.finish(), v.finish());
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        assert_eq!(
            CkptReader::new(b"not-a-checkpoint").unwrap_err(),
            CkptError::BadMagic
        );
        // Magic of a past or future version must be rejected, not
        // half-read.
        for other in ["cmap-ckpt/v6\n", "cmap-ckpt/v7\n", "cmap-ckpt/v9\n"] {
            assert_eq!(
                CkptReader::new(other.as_bytes()).unwrap_err(),
                CkptError::BadMagic
            );
        }
        // The magic with no sum behind it.
        let magic = format!("{CKPT_MAGIC}\n");
        assert_eq!(
            CkptReader::new(magic.as_bytes()).unwrap_err(),
            CkptError::Truncated
        );

        let mut w = CkptWriter::new();
        w.put(&1u32);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(r.get::<u64>().unwrap_err(), CkptError::Truncated);

        // An absurd length field fails before allocating.
        let mut w = CkptWriter::new();
        w.put(&u64::MAX);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(r.len().unwrap_err(), CkptError::Malformed(_)));

        // Bool bytes are strict.
        let mut w = CkptWriter::new();
        w.put(&2u8);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.get::<bool>().unwrap_err(),
            CkptError::Malformed(_)
        ));

        // Trailing garbage is flagged.
        let mut w = CkptWriter::new();
        w.put(&0u8);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        let _ = r.get::<u8>().unwrap();
        r.expect_end().unwrap();
        let mut w = CkptWriter::new();
        w.put(&0u16);
        let bytes = w.finish();
        let r = CkptReader::new(&bytes).unwrap();
        assert!(matches!(
            r.expect_end().unwrap_err(),
            CkptError::Malformed(_)
        ));
    }

    /// Every flipped bit past the magic line, the sum's own included, and
    /// every cut is refused before a field is read.
    #[test]
    fn the_content_sum_refuses_any_flip_or_cut() {
        let mut w = CkptWriter::new();
        w.put(&(0x0123_4567_89AB_CDEFu64, [0u8; 13], -1i64));
        w.bytes(b"twenty-three body bytes");
        let image = w.finish();
        let magic = CKPT_MAGIC.len() + 1;
        for i in 0..image.len() * 8 {
            let mut bad = image.clone();
            bad[i / 8] ^= 1 << (i % 8);
            let want = if i / 8 < magic {
                CkptError::BadMagic
            } else {
                CkptError::Malformed("content sum".into())
            };
            assert_eq!(CkptReader::new(&bad).unwrap_err(), want, "bit {i}");
        }
        for keep in magic + 8..image.len() {
            assert!(CkptReader::new(&image[..keep]).is_err(), "cut at {keep}");
        }
        // The sum is the plain one.
        let body = &image[..image.len() - 8];
        let plain = body.chunks(8).fold(body.len() as u64, |s, w| {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            s.wrapping_add(u64::from_le_bytes(word))
        });
        assert_eq!(content_sum(body), plain);
        assert_eq!(le_word(&image[image.len() - 8..]), plain);
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
        w.put(&Cow::Borrowed(&b"raw"[..]));
        let got = w.finish();

        let mut w = CkptWriter::new();
        w.put(&true);
        w.put(&5u32);
        w.put(&false);
        w.len(2);
        w.put(&1u16);
        w.put(&2u16);
        w.len(1);
        w.put(&3u64);
        w.put(&1.5f64.to_bits());
        w.len(2);
        w.put(&4u32);
        w.put(&9u32);
        w.len(1);
        w.len(2);
        for b in addr.0 {
            w.put(&b);
        }
        w.put(&Rate::R12.to_u8());
        w.put(&7u64);
        w.put(&8u64);
        w.len(300);
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
        assert_eq!(&r.get::<Cow<'_, [u8]>>().unwrap()[..], b"raw");
        r.expect_end().unwrap();
    }

    /// Which types are fixed, and at what width.
    #[test]
    fn fixed_widths_are_declared() {
        fn width<T: Persist>() -> Option<usize> {
            T::FIXED.then_some(T::MIN_BYTES)
        }
        assert_eq!(width::<u8>(), Some(1));
        assert_eq!(width::<bool>(), Some(1));
        assert_eq!(width::<Rate>(), Some(1));
        assert_eq!(width::<MacAddr>(), Some(6));
        assert_eq!(width::<NodeId>(), Some(8));
        assert_eq!(width::<u128>(), Some(16));
        assert_eq!(width::<SmallRng>(), Some(32));
        assert_eq!(width::<(MacAddr, u64, f64)>(), Some(22));
        assert_eq!(width::<[(u16, bool); 3]>(), Some(9));
        assert_eq!(width::<InterfererEntry>(), Some(13));
        assert_eq!(width::<Option<u8>>(), None);
        assert_eq!(width::<(u8, Vec<u8>)>(), None);
        assert_eq!(<(u8, Vec<u8>)>::MIN_BYTES, 9);
    }

    #[test]
    fn collections_refuse_duplicates_and_oversized_lengths() {
        let mut w = CkptWriter::new();
        w.len(2);
        w.put(&(6u32 | 6 << 16));
        w.put(&(6u32 | 6 << 16));
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
        w.put(&1u64);
        w.put(&2u64);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(r.get::<Vec<u64>>().unwrap_err(), CkptError::Truncated);
        let mut r = CkptReader::new(&bytes).unwrap();
        assert_eq!(
            r.get::<VecDeque<(u32, u32)>>().unwrap_err(),
            CkptError::Truncated
        );

        let mut w = CkptWriter::new();
        w.put(&8u8);
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
