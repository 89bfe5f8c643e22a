//! Offline stand-in for the `bytes` crate.
//!
//! The workspace vendors its own minimal implementation because the build
//! environment has no registry access. Only the surface this repository
//! uses is provided: [`Bytes`] as a cheaply cloneable, sliceable,
//! immutable byte buffer.
//!
//! The backing is an `Arc<Box<[u8]>>`: the reference count lives beside,
//! not in front of, the bytes, so an owned allocation is adopted as it is.
//! As in the real crate, `From<Vec<u8>>`, `From<Box<[u8]>>` and
//! `From<String>` copy no payload byte (a `Vec` with spare capacity is
//! shrunk to its length first, in place), and `clone` and `slice` are O(1)
//! and share the allocation. `copy_from_slice`, `From<&[u8]>` and
//! `from_static` copy (the real crate borrows a static slice instead).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Box<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation beyond a shared static).
    pub fn new() -> Bytes {
        Bytes::from_static(b"")
    }

    /// Wrap a static slice. This implementation copies (the real crate
    /// borrows), which preserves semantics at a small constant cost.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(Box::<[u8]>::from(data))
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-slice sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not be greater than end: {begin} > {end}");
        assert!(end <= len, "range end out of bounds: {end} > {len}");
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
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
        Bytes::from(v.into_boxed_slice())
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        let len = v.len();
        Bytes { data: Arc::new(v), start: 0, end: len }
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
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

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
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
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
    }

    #[test]
    fn owned_conversions_adopt_the_allocation() {
        let v: Vec<u8> = (0..=255).collect();
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> must not copy");
        assert_eq!(b.slice(10..20).as_ptr(), ptr.wrapping_add(10), "slice shares the allocation");
        assert_eq!(b.clone().as_ptr(), ptr, "clone shares the allocation");

        let boxed: Box<[u8]> = vec![7u8; 64].into_boxed_slice();
        let ptr = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ptr(), ptr, "From<Box<[u8]>> must not copy");

        let s = String::from("shuffled bytes");
        let ptr = s.as_ptr();
        assert_eq!(Bytes::from(s).as_ptr(), ptr, "From<String> must not copy");
    }

    #[test]
    fn equality_and_emptiness() {
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"abc"), Bytes::from(b"abc".to_vec()));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        Bytes::from(vec![1u8]).slice(0..2);
    }
}
