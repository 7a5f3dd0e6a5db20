//! Task-parallel sample sort — an additional parallel baseline.
//!
//! The paper's Cilk++ comparison includes the "Cilk sample" column, the
//! sample-based Quicksort shipped with the Cilk++ distribution.  This module
//! provides an analogous baseline implemented directly on the `teamsteal`
//! scheduler: a classic three-phase sample sort that uses only `r = 1` tasks
//! (pure task parallelism, no teams), so comparing it against the mixed-mode
//! Quicksort isolates the benefit of data-parallel team tasks from the choice
//! of sorting algorithm.
//!
//! Phases:
//!
//! 1. **Sample & split** — sort an oversampled set of keys and pick
//!    `buckets − 1` splitters.
//! 2. **Classify** — one task per input chunk scatters the chunk's elements
//!    into per-chunk bucket lists.
//! 3. **Sort buckets** — one task per bucket concatenates its pieces from all
//!    chunks into the right output window and sorts it.

use std::sync::{Arc, Mutex};

use teamsteal_core::Scheduler;
use teamsteal_util::bits::next_pow2;
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::SortConfig;

/// Oversampling factor: how many sample keys are drawn per splitter.
const OVERSAMPLING: usize = 32;

/// Sorts `data` with a task-parallel sample sort on the given scheduler.
///
/// Inputs at or below the configured cutoff are sorted sequentially.  The
/// number of buckets is the number of scheduler threads rounded up to a power
/// of two (at least 2).
pub fn sample_sort(scheduler: &Scheduler, data: &mut [u32], config: &SortConfig) {
    let n = data.len();
    let p = scheduler.num_threads();
    if n <= config.cutoff.max(2) || p <= 1 {
        data.sort_unstable();
        return;
    }
    let buckets = next_pow2(p).max(2);
    let chunks = p;

    // Phase 1: splitters from a deterministic stride sample.
    let sample_size = (buckets * OVERSAMPLING).min(n);
    let stride = (n / sample_size).max(1);
    let mut sample: Vec<u32> = data.iter().step_by(stride).copied().take(sample_size).collect();
    sample.sort_unstable();
    let splitters: Vec<u32> = (1..buckets)
        .map(|b| sample[b * sample.len() / buckets])
        .collect();

    // Phase 2: classify each chunk into per-(chunk, bucket) lists.
    let input = SendConstPtr::from_slice(data);
    let pieces: Arc<Vec<Mutex<Vec<Vec<u32>>>>> =
        Arc::new((0..chunks).map(|_| Mutex::new(Vec::new())).collect());
    let splitters = Arc::new(splitters);
    scheduler.scope(|scope| {
        let chunk_len = n.div_ceil(chunks);
        for c in 0..chunks {
            let start = (c * chunk_len).min(n);
            let len = chunk_len.min(n - start);
            let pieces = Arc::clone(&pieces);
            let splitters = Arc::clone(&splitters);
            scope.spawn(move |_ctx| {
                // SAFETY: the input outlives the scope and is only read here.
                let slice = unsafe { input.slice(n) };
                let mut local: Vec<Vec<u32>> = vec![Vec::new(); buckets];
                for &x in &slice[start..start + len] {
                    let b = splitters.partition_point(|&s| s <= x);
                    local[b].push(x);
                }
                *pieces[c].lock().expect("sample-sort piece poisoned") = local;
            });
        }
    });

    // Bucket sizes and output offsets.
    let mut bucket_sizes = vec![0usize; buckets];
    {
        let locked: Vec<_> = pieces
            .iter()
            .map(|m| m.lock().expect("sample-sort piece poisoned"))
            .collect();
        for chunk in locked.iter() {
            for (b, piece) in chunk.iter().enumerate() {
                bucket_sizes[b] += piece.len();
            }
        }
    }
    let mut offsets = vec![0usize; buckets + 1];
    for b in 0..buckets {
        offsets[b + 1] = offsets[b] + bucket_sizes[b];
    }
    debug_assert_eq!(offsets[buckets], n);

    // Phase 3: gather and sort each bucket into its output window.
    let output = SendMutPtr::from_slice(data);
    scheduler.scope(|scope| {
        for b in 0..buckets {
            let start = offsets[b];
            let len = bucket_sizes[b];
            if len == 0 {
                continue;
            }
            let pieces = Arc::clone(&pieces);
            scope.spawn(move |_ctx| {
                // SAFETY: bucket windows [start, start+len) are disjoint.
                let window = unsafe { output.add(start).slice_mut(len) };
                let mut cursor = 0;
                for chunk in pieces.iter() {
                    let chunk = chunk.lock().expect("sample-sort piece poisoned");
                    if chunk.is_empty() {
                        continue;
                    }
                    let piece = &chunk[b];
                    window[cursor..cursor + piece.len()].copy_from_slice(piece);
                    cursor += piece.len();
                }
                debug_assert_eq!(cursor, len);
                window.sort_unstable();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
    use teamsteal_data::{is_permutation_of, is_sorted, Distribution};

    fn small_config() -> SortConfig {
        SortConfig {
            cutoff: 128,
            block_size: 256,
            min_blocks_per_thread: 2,
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_sequential() {
        with_watchdog("tiny_inputs_fall_back_to_sequential", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for v in [vec![], vec![1u32], vec![3, 1, 2], (0..100u32).rev().collect()] {
                let mut sorted = v.clone();
                sample_sort(&s, &mut sorted, &SortConfig::default());
                assert!(is_sorted(&sorted));
                assert!(is_permutation_of(&v, &sorted));
            }
        });
    }

    #[test]
    fn sorts_every_distribution() {
        with_watchdog("sorts_every_distribution", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            for d in Distribution::ALL {
                let original = d.generate(120_000, 4, 17);
                let mut v = original.clone();
                sample_sort(&s, &mut v, &small_config());
                assert!(is_sorted(&v), "{d:?} not sorted");
                assert!(is_permutation_of(&original, &v), "{d:?} corrupted");
            }
        });
    }

    #[test]
    fn duplicate_heavy_and_constant_inputs() {
        with_watchdog("duplicate_heavy_and_constant_inputs", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let original: Vec<u32> = (0..80_000).map(|i| (i % 4) as u32).collect();
            let mut v = original.clone();
            sample_sort(&s, &mut v, &small_config());
            assert!(is_sorted(&v));
            assert!(is_permutation_of(&original, &v));

            let mut constant = vec![9u32; 50_000];
            sample_sort(&s, &mut constant, &small_config());
            assert!(constant.iter().all(|&x| x == 9));
        });
    }

    #[test]
    fn non_power_of_two_threads_and_sizes() {
        with_watchdog("non_power_of_two_threads_and_sizes", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let original = Distribution::Staggered.generate(99_991, 3, 23);
            let mut v = original.clone();
            sample_sort(&s, &mut v, &small_config());
            assert!(is_sorted(&v));
            assert!(is_permutation_of(&original, &v));
        });
    }

    #[test]
    fn single_threaded_scheduler() {
        let s = Scheduler::with_threads(1);
        let original = Distribution::Random.generate(50_000, 1, 29);
        let mut v = original.clone();
        sample_sort(&s, &mut v, &small_config());
        assert!(is_sorted(&v));
        assert!(is_permutation_of(&original, &v));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_sample_sort_sorts_arbitrary_vectors(
            data in proptest::collection::vec(any::<u32>(), 0..5_000),
        ) {
            let s = Scheduler::with_threads(2);
            let mut v = data.clone();
            sample_sort(&s, &mut v, &SortConfig { cutoff: 64, block_size: 128, min_blocks_per_thread: 2 });
            prop_assert!(is_sorted(&v));
            prop_assert!(is_permutation_of(&data, &v));
        }
    }
}
