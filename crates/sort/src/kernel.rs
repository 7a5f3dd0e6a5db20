//! The team's block-pair kernel: the branch-free loop that neutralises a
//! claimed left and right block in phase 1 of
//! [`crate::parallel_partition::ParallelPartitioner`] (BlockQuicksort's offset
//! buffers applied to Tsigas–Zhang neutralisation).
//!
//! A *left* chunk is scanned for the offsets of elements failing the
//! predicate, a *right* chunk for the offsets of elements satisfying it — a
//! compare and an `as usize` add per element, no data-dependent branch — and
//! `min(nl, nr)` misplaced pairs are swapped.  Whichever side has no misplaced
//! element left is finished and gets its next chunk from the caller.  The
//! sequential partition is a different loop ([`crate::seq::partition_by`]):
//! it has one slice and nothing to neutralise.

/// Elements scanned per side between exchanges.  Offsets are stored as `u8`,
/// so this must not exceed 256.
pub(crate) const CHUNK: usize = 128;
const _: () = assert!(CHUNK <= 256);

/// Which side of the partition a chunk (or block) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Elements satisfying the predicate belong here.
    Left,
    /// Elements failing the predicate belong here.
    Right,
}

/// One scanned chunk and the offsets of its misplaced elements that have not
/// been exchanged yet.
///
/// Invariant (the unchecked accesses below rely on it, and only this module
/// can touch the fields): `start <= end <= chunk.len() <= CHUNK`, and every
/// value in `offsets[start..end]` is a valid index into `chunk`, in ascending
/// order.  Elements of `chunk` not listed there are correctly placed.
struct Pending<'a> {
    chunk: &'a mut [u32],
    offsets: [u8; CHUNK],
    start: usize,
    end: usize,
}

impl<'a> Pending<'a> {
    fn new() -> Self {
        Pending {
            chunk: &mut [],
            offsets: [0; CHUNK],
            start: 0,
            end: 0,
        }
    }

    fn len(&self) -> usize {
        self.end - self.start
    }

    /// Replaces the (finished) chunk by `chunk` and records the offsets of
    /// its elements for which `misplaced` holds.
    #[inline(always)]
    fn scan(&mut self, chunk: &'a mut [u32], misplaced: impl Fn(u32) -> bool) {
        debug_assert_eq!(self.len(), 0);
        assert!(chunk.len() <= CHUNK);
        let mut count = 0usize;
        for (k, &x) in chunk.iter().enumerate() {
            // SAFETY: count <= k < chunk.len() <= CHUNK == offsets.len(),
            // by the assertion above.
            unsafe { *self.offsets.get_unchecked_mut(count) = k as u8 };
            count += misplaced(x) as usize;
        }
        self.chunk = chunk;
        self.start = 0;
        self.end = count;
    }
}

/// Swaps `min(l.len(), r.len())` misplaced pairs between the two chunks.
#[inline(always)]
fn exchange(l: &mut Pending<'_>, r: &mut Pending<'_>) {
    let pairs = l.len().min(r.len());
    for k in 0..pairs {
        // SAFETY: start + k < end <= CHUNK on both sides, and every pending
        // offset indexes its chunk (the `Pending` invariant).
        unsafe {
            let lo = *l.offsets.get_unchecked(l.start + k) as usize;
            let ro = *r.offsets.get_unchecked(r.start + k) as usize;
            std::mem::swap(l.chunk.get_unchecked_mut(lo), r.chunk.get_unchecked_mut(ro));
        }
    }
    l.start += pairs;
    r.start += pairs;
}

/// The kernel state: the current chunk of each side.
pub(crate) struct Neutralizer<'a> {
    left: Pending<'a>,
    right: Pending<'a>,
}

impl<'a> Neutralizer<'a> {
    pub(crate) fn new() -> Self {
        Neutralizer {
            left: Pending::new(),
            right: Pending::new(),
        }
    }

    /// The neutralisation loop.  Whenever a side has no misplaced element
    /// left, its chunk is finished — everything in a finished left chunk
    /// satisfies `pred`, nothing in a finished right chunk does — and
    /// `next_chunk(side)` supplies the next one (at most [`CHUNK`] elements,
    /// disjoint from every chunk handed out before).  Returns when
    /// `next_chunk` yields `None`; at most one side then still has misplaced
    /// elements in its current chunk.
    #[inline(always)]
    pub(crate) fn run(
        &mut self,
        pred: impl Fn(u32) -> bool,
        mut next_chunk: impl FnMut(Side) -> Option<&'a mut [u32]>,
    ) {
        loop {
            if self.left.len() == 0 {
                match next_chunk(Side::Left) {
                    Some(chunk) => self.left.scan(chunk, |x| !pred(x)),
                    None => return,
                }
            }
            if self.right.len() == 0 {
                match next_chunk(Side::Right) {
                    Some(chunk) => self.right.scan(chunk, &pred),
                    None => return,
                }
            }
            exchange(&mut self.left, &mut self.right);
        }
    }

    /// Number of misplaced elements left in the current chunk of `side`.
    pub(crate) fn pending(&self, side: Side) -> usize {
        match side {
            Side::Left => self.left.len(),
            Side::Right => self.right.len(),
        }
    }
}
