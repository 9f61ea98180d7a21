//! Offline stand-in for `bytes` 1.x: the surface this repository uses.
//!
//! `Bytes` is a reference-counted view (`Arc<[u8]>` plus a range), so clones
//! and slices are O(1) as in the published crate; `BytesMut` is a `Vec<u8>`.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, sliceable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer.
    pub const fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// A buffer over a static slice (copied once here).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            start: 0,
            end: data.len(),
            data: Some(Arc::from(data)),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` within this buffer, sharing the storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Shorten to `len` bytes (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    /// Drop every byte.
    pub fn clear(&mut self) {
        self.end = self.start;
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            start: 0,
            end: v.len(),
            data: Some(Arc::from(v)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Self {
        v.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", &**self)
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Make room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Shorten to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Drop every byte, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Convert into an immutable `Bytes`.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { buf: v.to_vec() }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

macro_rules! buf_get {
    ($($name:ident -> $t:ty),*) => {$(
        /// Read one little-endian value and advance; panics when short.
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Read access to a cursor over bytes.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `cnt` bytes; panics when fewer remain.
    fn advance(&mut self, cnt: usize);

    /// True when bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copy exactly `dst.len()` bytes out and advance; panics when short.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Take the next `len` bytes as a `Bytes` and advance.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    /// Read one byte and advance; panics when empty.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get!(get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64,
             get_i32_le -> i32, get_i64_le -> i64, get_f32_le -> f32, get_f64_le -> f64);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end");
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($name:ident <- $t:ty),*) => {$(
        /// Append one little-endian value.
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Write access to a growable byte sink.
pub trait BufMut {
    /// Append `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append everything left in `src`.
    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = src.chunk().len();
            self.put_slice(src.chunk());
            src.advance(n);
        }
    }

    buf_put!(put_u16_le <- u16, put_u32_le <- u32, put_u64_le <- u64,
             put_i32_le <- i32, put_i64_le <- i64, put_f32_le <- f32, put_f64_le <- f64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip_and_views_share_storage() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 1);
        w.put_f32_le(1.5);
        w.put_slice(b"tail");
        let mut r = w.freeze();
        let whole = r.clone();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.remaining(), 4);
        assert_eq!(&r.copy_to_bytes(4)[..], b"tail");
        assert!(!r.has_remaining());
        assert_eq!(whole.len(), 23);
        assert_eq!(&whole.slice(19..)[..], b"tail");
    }
}
