//! Team-based data-parallel loop primitives: `for_each`, `map` and `fill`.
//!
//! These are the "parallel loop" building blocks a user would otherwise
//! express by chopping a range into chunks and spawning one `r = 1` task per
//! chunk.  On the team-building scheduler the whole loop is **one** team
//! task: the members are co-scheduled, each owns one contiguous chunk, and
//! the only coordination cost is the single registration CAS per member —
//! there is no per-chunk task allocation, no join tree, and the chunk
//! boundaries are derived deterministically from the team's local ids.
//!
//! All primitives fall back to plain sequential execution when the input is
//! too small to amortize team formation, so they are safe to call
//! unconditionally.

use teamsteal_core::{Scheduler, TaskContext};
use teamsteal_util::{SendConstPtr, SendMutPtr};

use crate::team_size::{best_team_size, chunk_range};

/// Default minimum number of elements per team member before a loop is
/// executed by a team.
pub const MIN_ELEMENTS_PER_MEMBER: usize = 8 * 1024;

/// Applies `f` to every element of `data` in place, using one team task.
///
/// `f` is applied exactly once per element; the assignment of elements to
/// threads is deterministic (contiguous chunks in local-id order) but the
/// relative execution order across chunks is concurrent.
///
/// ```
/// use teamsteal_core::Scheduler;
/// use teamsteal_apps::foreach::team_for_each;
///
/// let scheduler = Scheduler::with_threads(2);
/// let mut values: Vec<u64> = (0..100_000).collect();
/// team_for_each(&scheduler, &mut values, |x| *x *= 2);
/// assert_eq!(values[17], 34);
/// ```
pub fn team_for_each<T, F>(scheduler: &Scheduler, data: &mut [T], f: F)
where
    T: Send + 'static,
    F: Fn(&mut T) + Send + Sync + 'static,
{
    team_for_each_with(scheduler, data, f, MIN_ELEMENTS_PER_MEMBER);
}

/// [`team_for_each`] with an explicit work-per-member threshold.
pub fn team_for_each_with<T, F>(scheduler: &Scheduler, data: &mut [T], f: F, min_per_member: usize)
where
    T: Send + 'static,
    F: Fn(&mut T) + Send + Sync + 'static,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let team = best_team_size(n, min_per_member, scheduler.num_threads());
    if team <= 1 {
        for x in data.iter_mut() {
            f(x);
        }
        return;
    }
    let base = SendMutPtr::from_slice(data);
    scheduler.run_team(team, move |ctx| {
        // SAFETY: members own disjoint chunks of a slice that outlives the
        // blocking run_team call.
        let chunk = member_chunk_mut(ctx, base, n);
        for x in chunk.iter_mut() {
            f(x);
        }
    });
}

/// Applies `f` to every index/element pair of `input` and writes the results
/// into a freshly allocated output vector, using one team task.
///
/// ```
/// use teamsteal_core::Scheduler;
/// use teamsteal_apps::foreach::team_map;
///
/// let scheduler = Scheduler::with_threads(2);
/// let input: Vec<u32> = (0..50_000).collect();
/// let squares = team_map(&scheduler, &input, |_, &x| x as u64 * x as u64);
/// assert_eq!(squares[300], 90_000);
/// ```
pub fn team_map<T, U, F>(scheduler: &Scheduler, input: &[T], f: F) -> Vec<U>
where
    T: Sync + 'static,
    U: Copy + Default + Send + 'static,
    F: Fn(usize, &T) -> U + Send + Sync + 'static,
{
    team_map_with(scheduler, input, f, MIN_ELEMENTS_PER_MEMBER)
}

/// [`team_map`] with an explicit work-per-member threshold.
pub fn team_map_with<T, U, F>(
    scheduler: &Scheduler,
    input: &[T],
    f: F,
    min_per_member: usize,
) -> Vec<U>
where
    T: Sync + 'static,
    U: Copy + Default + Send + 'static,
    F: Fn(usize, &T) -> U + Send + Sync + 'static,
{
    let n = input.len();
    let mut out = vec![U::default(); n];
    if n == 0 {
        return out;
    }
    let team = best_team_size(n, min_per_member, scheduler.num_threads());
    if team <= 1 {
        for (i, (o, x)) in out.iter_mut().zip(input).enumerate() {
            *o = f(i, x);
        }
        return out;
    }
    let src = SendConstPtr::from_slice(input);
    let dst = SendMutPtr::from_slice(&mut out);
    scheduler.run_team(team, move |ctx| {
        let members = ctx.team_size();
        let me = ctx.local_id();
        let range = chunk_range(n, members, me);
        // SAFETY: the input outlives the blocking call and is never mutated;
        // output chunks are disjoint per member.
        let input = unsafe { src.slice(n) };
        let out = unsafe { dst.add(range.start).slice_mut(range.len()) };
        for (offset, o) in out.iter_mut().enumerate() {
            let i = range.start + offset;
            *o = f(i, &input[i]);
        }
    });
    out
}

/// Fills `data` with `f(index)` using one team task (a parallel "iota" /
/// initializer).
pub fn team_fill_with<T, F>(scheduler: &Scheduler, data: &mut [T], f: F)
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let team = best_team_size(n, MIN_ELEMENTS_PER_MEMBER, scheduler.num_threads());
    if team <= 1 {
        for (i, x) in data.iter_mut().enumerate() {
            *x = f(i);
        }
        return;
    }
    let base = SendMutPtr::from_slice(data);
    scheduler.run_team(team, move |ctx| {
        let members = ctx.team_size();
        let me = ctx.local_id();
        let range = chunk_range(n, members, me);
        // SAFETY: disjoint chunks of a slice that outlives the blocking call.
        let out = unsafe { base.add(range.start).slice_mut(range.len()) };
        for (offset, x) in out.iter_mut().enumerate() {
            *x = f(range.start + offset);
        }
    });
}

/// The executing member's chunk of a shared `len`-element buffer, as a
/// mutable slice.  Chunks of different members are disjoint.
fn member_chunk_mut<'a, T>(ctx: &TaskContext<'_>, base: SendMutPtr<T>, len: usize) -> &'a mut [T] {
    let range = chunk_range(len, ctx.team_size(), ctx.local_id());
    // SAFETY: chunk_range partitions [0, len), so the slices handed to the
    // team members never overlap; the caller guarantees the buffer outlives
    // the team task.
    unsafe { base.add(range.start).slice_mut(range.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use teamsteal_core::test_support::{with_watchdog, WATCHDOG};

    #[test]
    fn for_each_small_and_empty_inputs() {
        let s = Scheduler::with_threads(2);
        let mut empty: Vec<u32> = vec![];
        team_for_each(&s, &mut empty, |x| *x += 1);
        assert!(empty.is_empty());

        let mut small: Vec<u32> = (0..100).collect();
        team_for_each(&s, &mut small, |x| *x += 1);
        assert!(small.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        assert_eq!(s.metrics().teams_formed, 0, "tiny loops must stay sequential");
    }

    #[test]
    fn for_each_large_input_uses_a_team_and_touches_every_element_once() {
        with_watchdog("for_each_large_input_uses_a_team", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let n = 150_000;
            let mut data: Vec<u64> = vec![0; n];
            let calls = Arc::new(AtomicU64::new(0));
            let c = Arc::clone(&calls);
            team_for_each_with(
                &s,
                &mut data,
                move |x| {
                    *x += 1;
                    c.fetch_add(1, Ordering::Relaxed);
                },
                1024,
            );
            assert!(data.iter().all(|&x| x == 1), "every element exactly once");
            assert_eq!(calls.load(Ordering::Relaxed), n as u64);
            assert!(s.metrics().teams_formed > 0);
        });
    }

    #[test]
    fn map_matches_sequential_and_preserves_order() {
        with_watchdog("map_matches_sequential_and_preserves_order", WATCHDOG, || {
            let s = Scheduler::with_threads(4);
            let input: Vec<u32> = (0..120_000).map(|i| i % 97).collect();
            let got = team_map_with(&s, &input, |i, &x| (i as u64) * 3 + x as u64, 1024);
            for (i, (&x, &y)) in input.iter().zip(&got).enumerate() {
                assert_eq!(y, i as u64 * 3 + x as u64, "mismatch at {i}");
            }
        });
    }

    #[test]
    fn fill_with_produces_the_requested_sequence() {
        with_watchdog("fill_with_produces_the_requested_sequence", WATCHDOG, || {
            let s = Scheduler::with_threads(3);
            let mut data = vec![0u64; 100_000];
            team_fill_with(&s, &mut data, |i| (i as u64).wrapping_mul(2654435761));
            assert!(data
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (i as u64).wrapping_mul(2654435761)));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn prop_map_equals_sequential(input in proptest::collection::vec(any::<u32>(), 0..3_000)) {
            let s = Scheduler::with_threads(2);
            let got = team_map_with(&s, &input, |i, &x| x as u64 + i as u64, 64);
            let expected: Vec<u64> = input.iter().enumerate().map(|(i, &x)| x as u64 + i as u64).collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prop_for_each_touches_each_element_once(len in 0usize..3_000) {
            let s = Scheduler::with_threads(2);
            let mut data = vec![0u8; len];
            team_for_each_with(&s, &mut data, |x| *x = x.wrapping_add(1), 64);
            prop_assert!(data.iter().all(|&x| x == 1));
        }
    }
}
