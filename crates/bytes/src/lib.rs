//! Vendored stand-in for the `bytes` crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the tiny subset of `bytes` it actually uses: a
//! cheaply-clonable immutable byte container ([`Bytes`]), a growable builder
//! ([`BytesMut`]), and the big-endian `put_*` writers of [`BufMut`] (over a
//! `Vec` or, advancing, over a `&mut [u8]`).
//! Semantics follow the real crate (network byte order, `freeze`, static
//! slices) so swapping the real dependency back in is a one-line change.
//!
//! A [`Bytes`] is 24 bytes: either a static slice or one `(start, end)`
//! range of one shared `Arc<[u8]>`. Whole buffers, zero-copy slices and
//! pooled [`ByteArena`] chunks are all that one shared form, with `u32`
//! bounds, so a single `Bytes` holds at most `u32::MAX` bytes (4 GiB);
//! constructors panic on anything larger. Every retained request carries
//! at least one handle (log entry, archive, wire message), so its size is
//! paid per request.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

mod arena;
pub use arena::ByteArena;

/// A cheaply clonable, immutable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    /// Borrowed from static storage (zero-copy `from_static`).
    Static(&'static [u8]),
    /// The range `start..end` of a shared heap allocation; clones and
    /// slices bump the refcount.
    Shared(Arc<[u8]>, u32, u32),
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Bytes {
        Bytes(Repr::Static(&[]))
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes(Repr::Static(bytes))
    }

    /// Copies the given slice into a new shared allocation.
    ///
    /// # Panics
    /// Panics if `data` is longer than `u32::MAX` bytes.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::shared(Arc::from(data), data.len())
    }

    /// Allocates exactly `len` bytes, zeroed, and lets `fill` write them
    /// in place: one allocation and no copy, where building a `Vec` and
    /// converting it copies the whole buffer into a fresh `Arc`.
    ///
    /// # Panics
    /// Panics if `len` is over `u32::MAX`.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        Bytes::shared(arena::fresh(len, len, fill), len)
    }

    /// Wraps the first `len` bytes of `buf` (a whole buffer or a pooled
    /// [`ByteArena`] chunk) without copying; the `Bytes` keeps it alive.
    ///
    /// # Panics
    /// Panics if `len` is over `u32::MAX`.
    pub(crate) fn shared(buf: Arc<[u8]>, len: usize) -> Bytes {
        let len = u32::try_from(len).expect("Bytes holds at most u32::MAX bytes");
        Bytes(Repr::Shared(buf, 0, len))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Returns a sub-range of the bytes as a new `Bytes`, without copying
    /// (shared allocations bump the refcount, like the real crate).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(start <= end && end <= len, "slice out of bounds");
        match &self.0 {
            Repr::Static(s) => Bytes(Repr::Static(&s[start..end])),
            // In bounds of a range that fits in `u32`, so these cannot wrap.
            Repr::Shared(s, lo, _) => {
                Bytes(Repr::Shared(s.clone(), lo + start as u32, lo + end as u32))
            }
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s, lo, hi) => &s[*lo as usize..*hi as usize],
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes::shared(Arc::from(v), len)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        let len = b.len();
        Bytes::shared(Arc::from(b), len)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

/// Big-endian buffer writers (the subset of the real `BufMut` this
/// workspace uses). Network byte order, like the real crate.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Converts the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Writes at the front of the slice and advances past what it wrote, like
/// the real crate; panics when `src` does not fit.
impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        let (head, rest) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = rest;
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_roundtrip_and_big_endian() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(1);
        b.put_u32(0xAABBCCDD);
        b.put_i64(-2);
        b.put_slice(b"xy");
        let frozen = b.freeze();
        assert_eq!(frozen.len(), 1 + 4 + 8 + 2);
        assert_eq!(frozen[0], 1);
        assert_eq!(
            u32::from_be_bytes([frozen[1], frozen[2], frozen[3], frozen[4]]),
            0xAABBCCDD
        );
        assert_eq!(&frozen[13..], b"xy");
    }

    #[test]
    fn bytes_equality_and_hash_are_content_based() {
        use std::collections::HashSet;
        let a = Bytes::from_static(b"key");
        let b = Bytes::from(b"key".to_vec());
        assert_eq!(a, b);
        let mut s = HashSet::new();
        s.insert(a);
        assert!(s.contains(&b));
    }

    #[test]
    fn build_fills_one_exact_buffer_in_place() {
        let b = Bytes::build(6, |mut out| {
            out.put_u16(0x0102);
            out.put_slice(b"abc");
            assert_eq!(out.len(), 1, "the writer advances past what it wrote");
        });
        assert_eq!(&b[..], b"\x01\x02abc\0");
        assert_eq!(Bytes::build(0, |_| {}).len(), 0);
    }

    #[test]
    #[should_panic]
    fn slice_writer_refuses_to_overrun() {
        let mut buf = [0u8; 3];
        (&mut buf[..]).put_u32(1);
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn slice_is_zero_copy_and_composable() {
        let a = Bytes::from((0u8..=99).collect::<Vec<u8>>());
        let mid = a.slice(10..90);
        assert_eq!(mid.len(), 80);
        assert_eq!(mid[0], 10);
        assert_eq!(a.as_ptr(), mid.as_ptr().wrapping_sub(10), "no copy");
        let inner = mid.slice(5..=6);
        assert_eq!(&inner[..], &[15, 16]);
        assert_eq!(&a.slice(..3)[..], &[0, 1, 2]);
        assert!(a.slice(95..).slice(..).len() == 5);
        let s = Bytes::from_static(b"static");
        assert_eq!(&s.slice(1..3)[..], b"ta");
        assert_eq!(a.slice(40..40).len(), 0, "empty slice allowed");
    }
}
