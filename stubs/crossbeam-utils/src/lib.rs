//! Offline stub of `crossbeam-utils` providing only [`CachePadded`].
//!
//! The real crate picks the alignment per target architecture; this stub
//! always uses 128 bytes, which covers the two-line prefetcher on x86_64 and
//! is a safe over-alignment everywhere else.

#![warn(missing_docs)]

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Pads and aligns a value to the length of a cache line, so that two
/// `CachePadded` values never share a cache line (avoiding false sharing).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads and aligns `value` to the length of a cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Returns the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachePadded")
            .field("value", &self.value)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_and_transparent() {
        let p = CachePadded::new(7u64);
        assert_eq!(*p, 7);
        assert_eq!(core::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(p.into_inner(), 7);
    }
}
