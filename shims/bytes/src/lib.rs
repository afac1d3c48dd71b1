//! Offline drop-in subset of the [`bytes`](https://crates.io/crates/bytes)
//! crate: an immutable, cheaply cloneable byte buffer.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the slice of the `Bytes` API the workspace uses — construction from
//! vectors and static slices, cheap clones, `slice`, and `Deref` to
//! `[u8]` — backed by an `Arc<[u8]>` plus an offset window, which preserves
//! the upstream crate's O(1) clone/slice behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates a buffer from a static byte slice.
    ///
    /// Unlike upstream `bytes`, this copies the slice into a fresh
    /// allocation (the shim has no borrowed-buffer variant); subsequent
    /// clones and slices are still O(1).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-window of the buffer without copying. An empty window
    /// is [`Bytes::new`] and, as upstream, keeps no reference to the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        if start == end {
            return Bytes::new();
        }
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: data.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        assert!(Bytes::new().is_empty());
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"hi").len(), 2);
    }

    #[test]
    fn slicing_windows_without_copy() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
        assert_eq!(b.slice(..).len(), 6);
    }

    #[test]
    fn empty_slice_releases_the_buffer() {
        let b = Bytes::from(vec![1, 2, 3]);
        let empty = b.slice(..0);
        assert!(empty.is_empty());
        assert_eq!(Arc::strong_count(&b.data), 1);
        let tail = b.slice(3..);
        assert!(tail.is_empty());
        assert_eq!(Arc::strong_count(&b.data), 1);
        let window = b.slice(1..);
        assert_eq!(Arc::strong_count(&b.data), 2);
        drop((empty, tail, window));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_slice_panics() {
        let b = Bytes::from(vec![1, 2]);
        let _ = b.slice(0..3);
    }

    #[test]
    fn equality_ignores_windowing() {
        let a = Bytes::from(vec![9, 1, 2, 9]).slice(1..3);
        let b = Bytes::from(vec![1, 2]);
        assert_eq!(a, b);
    }
}
