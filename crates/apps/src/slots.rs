//! Per-member scratch slots shared by a team.
//!
//! Most kernels in this crate follow the same SPMD pattern: every team member
//! writes a partial result into "its" slot, the team synchronizes at the
//! [`TaskContext::barrier`](teamsteal_core::TaskContext::barrier), and one or
//! all members read the other slots afterwards.  [`TeamSlots`] is the small
//! unsafe cell array that makes this pattern possible for arbitrary `Copy`
//! payloads (atomics would restrict the payload to integers); the barrier
//! provides the required happens-before edge, the index discipline provides
//! the absence of aliasing.

use std::cell::UnsafeCell;

/// A fixed-size array of scratch slots, one per (potential) team member.
///
/// # Safety contract
///
/// * Between two synchronization points (team barriers, or spawn/scope
///   completion), each slot index must be written by **at most one** thread.
/// * A slot written before a synchronization point may be read by any thread
///   after it.
/// * Reading a slot that is concurrently written is a data race and therefore
///   undefined behaviour — the `unsafe` on [`write`](TeamSlots::write) and
///   [`read`](TeamSlots::read) makes the caller responsible for the
///   discipline.
#[derive(Debug)]
pub(crate) struct TeamSlots<T> {
    slots: Box<[UnsafeCell<T>]>,
}

// SAFETY: all cross-thread access goes through the documented write/read
// discipline; the type itself only stores plain data.
unsafe impl<T: Send> Send for TeamSlots<T> {}
unsafe impl<T: Send> Sync for TeamSlots<T> {}

impl<T: Copy> TeamSlots<T> {
    /// Creates `n` slots, all initialised to `init`.
    pub(crate) fn new(n: usize, init: T) -> Self {
        TeamSlots {
            slots: (0..n).map(|_| UnsafeCell::new(init)).collect(),
        }
    }

    /// Writes `value` into slot `index`.
    ///
    /// # Safety
    ///
    /// No other thread may access slot `index` concurrently (see the type
    /// documentation for the full discipline).
    #[inline]
    pub(crate) unsafe fn write(&self, index: usize, value: T) {
        // SAFETY: exclusive access to this slot is guaranteed by the caller.
        unsafe { *self.slots[index].get() = value };
    }

    /// Reads slot `index`.
    ///
    /// # Safety
    ///
    /// No other thread may write slot `index` concurrently, and any previous
    /// write must be ordered before this read by a synchronization point.
    #[inline]
    pub(crate) unsafe fn read(&self, index: usize) -> T {
        // SAFETY: absence of concurrent writers is guaranteed by the caller.
        unsafe { *self.slots[index].get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_threaded_write_read_roundtrip() {
        let slots = TeamSlots::new(4, 0u64);
        assert_eq!(slots.slots.len(), 4);
        for i in 0..4 {
            // SAFETY: single-threaded test.
            unsafe { slots.write(i, (i * i) as u64) };
        }
        for i in 0..4 {
            // SAFETY: single-threaded test.
            assert_eq!(unsafe { slots.read(i) }, (i * i) as u64);
        }
    }

    #[test]
    fn disjoint_slots_across_threads() {
        let slots = Arc::new(TeamSlots::new(8, 0usize));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    // SAFETY: each thread writes only its own slot.
                    unsafe { slots.write(i, i + 100) };
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all writer threads are joined (a synchronization point).
        for i in 0..8 {
            assert_eq!(unsafe { slots.read(i) }, i + 100);
        }
    }

    #[test]
    fn zero_slots_is_fine() {
        let slots: TeamSlots<u8> = TeamSlots::new(0, 0);
        assert!(slots.slots.is_empty());
    }
}
