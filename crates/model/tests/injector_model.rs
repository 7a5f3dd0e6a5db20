//! Model-checked tests for the injection queue (`DESIGN.md` §11).
//!
//! Under `--cfg teamsteal_model` the injector's `SEGMENT_SLOTS` shrinks to
//! 2, so these tiny explorations cross segment boundaries and exercise the
//! reserve/publish/retire protocol, not just the fast path.  The invariants
//! are *exactly-once* (every pushed value is popped or drained exactly
//! once, never duplicated, never lost) and *FIFO per producer* (a single
//! producer's values come out in push order, regardless of interleaving).
//!
//! Run with `RUSTFLAGS='--cfg teamsteal_model' cargo test -p teamsteal-model`.
#![cfg(teamsteal_model)]

use std::sync::Arc;

use teamsteal_deque::injector::Injector;
use teamsteal_deque::Steal;
use teamsteal_model::{thread, Builder};

/// Two producers race their pushes (crossing the 2-slot segment boundary);
/// a quiescent drain afterwards must see every value exactly once and each
/// producer's values in push order.
#[test]
fn concurrent_pushes_are_exactly_once_and_fifo_per_producer() {
    Builder::new().preemption_bound(3).check(|| {
        let inj = Arc::new(Injector::new());
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let inj = Arc::clone(&inj);
                thread::spawn(move || {
                    // Values 10p+0, 10p+1: enough to make the two pushes
                    // straddle a segment boundary in some interleavings.
                    inj.push(10 * p);
                    inj.push(10 * p + 1);
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }

        let mut drained = Vec::new();
        while let Some(v) = inj.pop() {
            drained.push(v);
        }
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 10, 11],
            "exactly-once violated: {drained:?}"
        );
        for p in 0..2usize {
            let mine: Vec<usize> = drained.iter().copied().filter(|v| v / 10 == p).collect();
            assert_eq!(
                mine,
                vec![10 * p, 10 * p + 1],
                "FIFO per producer violated: {drained:?}"
            );
        }
        assert!(inj.is_empty());
    });
}

/// Two consumers race `try_pop` over a pre-filled queue: each value must be
/// stolen by exactly one consumer, and the values each consumer sees must
/// respect the queue order (consumers interleave, but neither observes a
/// reordering of the single producer's sequence).
#[test]
fn concurrent_pops_take_each_value_once() {
    Builder::new().check(|| {
        let inj = Arc::new(Injector::new());
        // Pre-filled from the root thread: 3 values spanning two segments.
        for v in 0..3usize {
            inj.push(v);
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let inj = Arc::clone(&inj);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    // Bounded attempts: `Retry` means we lost a race (a
                    // competitor's pop or a segment-retire CAS); anything
                    // this consumer misses is drained by the root below.
                    for _ in 0..8 {
                        match inj.try_pop() {
                            Steal::Stolen(v) => got.push(v),
                            Steal::Empty => break,
                            Steal::Retry => continue,
                        }
                    }
                    got
                })
            })
            .collect();
        let taken: Vec<Vec<usize>> = consumers.into_iter().map(|h| h.join().unwrap()).collect();

        let mut all: Vec<usize> = taken.iter().flatten().copied().collect();
        while let Some(v) = inj.pop() {
            all.push(v);
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "exactly-once violated: {taken:?}");
        for got in &taken {
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "a consumer observed out-of-order values: {taken:?}"
            );
        }
    });
}

/// A consumer races the producer across a segment boundary: the consumer
/// retires the first segment (taking its last slot) while the producer is
/// still appending.  Exactly-once must survive the retire, and the live
/// chain must shrink back to one segment once drained.
#[test]
fn segment_retire_race_keeps_values_exactly_once() {
    // Stale-`Relaxed` branching is off here: the retire protocol itself is
    // CAS/Acquire-based (SC in the model either way), while the
    // `live_segments` gauge the final assert reads is a deliberately
    // `Relaxed` statistic — branching it over stale values fails the
    // assert without any protocol misbehavior.
    Builder::new()
        .without_stale_reads()
        .preemption_bound(3)
        .check(|| {
            let inj = Arc::new(Injector::new());
            let producer = {
                let inj = Arc::clone(&inj);
                // 3 values with SEGMENT_SLOTS = 2: the third push links a new
                // segment while the consumer may be retiring the first.
                thread::spawn(move || {
                    for v in 0..3usize {
                        inj.push(v);
                    }
                })
            };
            let consumer = {
                let inj = Arc::clone(&inj);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..8 {
                        match inj.try_pop() {
                            Steal::Stolen(v) => got.push(v),
                            Steal::Empty | Steal::Retry => continue,
                        }
                    }
                    got
                })
            };
            producer.join().unwrap();
            let mut all = consumer.join().unwrap();
            assert!(
                all.windows(2).all(|w| w[0] < w[1]),
                "FIFO violated: {all:?}"
            );
            while let Some(v) = inj.pop() {
                all.push(v);
            }
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![0, 1, 2],
                "exactly-once violated across retire: {all:?}"
            );
            assert_eq!(
                inj.live_segments(),
                1,
                "drained injector must keep exactly one live segment"
            );
        });
}

/// A batch claim races a single-element claim and the producer across the
/// segment boundary: the batch consumer (`max = 2`) may take a run that
/// ends at the segment's last slot and retire the segment, while the
/// `try_pop` consumer and the producer linking the next segment interleave
/// with it.  Every value must be delivered exactly once, each consumer must
/// see the values in queue order, and the drained chain must hold one live
/// segment.
#[test]
fn batch_claim_races_single_claim_across_the_segment_boundary() {
    // Stale `Relaxed` reads off for the same reason as the retire race
    // above: `live_segments` is a deliberately `Relaxed` gauge.
    Builder::new()
        .without_stale_reads()
        .preemption_bound(2)
        .check(|| {
            let inj = Arc::new(Injector::new());
            let producer = {
                let inj = Arc::clone(&inj);
                thread::spawn(move || {
                    for v in 0..3usize {
                        inj.push(v);
                    }
                })
            };
            let batcher = {
                let inj = Arc::clone(&inj);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..4 {
                        match inj.try_pop_batch(2, |v| got.push(v)) {
                            Steal::Stolen(n) => {
                                assert!((1..=2).contains(&n), "claimed {n} of max 2")
                            }
                            Steal::Empty | Steal::Retry => continue,
                        }
                    }
                    got
                })
            };
            let single = {
                let inj = Arc::clone(&inj);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..4 {
                        if let Steal::Stolen(v) = inj.try_pop() {
                            got.push(v);
                        }
                    }
                    got
                })
            };
            producer.join().unwrap();
            let taken = [batcher.join().unwrap(), single.join().unwrap()];
            for got in &taken {
                assert!(
                    got.windows(2).all(|w| w[0] < w[1]),
                    "a consumer saw values out of order: {taken:?}"
                );
            }
            let mut all: Vec<usize> = taken.iter().flatten().copied().collect();
            while let Some(v) = inj.pop() {
                all.push(v);
            }
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2], "exactly-once violated: {taken:?}");
            assert_eq!(
                inj.live_segments(),
                1,
                "drained injector must keep exactly one live segment"
            );
        });
}

/// The sharded facade keeps the per-shard invariants when two producers
/// target different shards: a sweep drains both shards exactly once and
/// FIFO holds within each shard.
#[test]
fn sharded_sweep_drains_each_shard_exactly_once() {
    use teamsteal_deque::sharded::ShardedInjector;
    Builder::new().preemption_bound(2).check(|| {
        let sharded = Arc::new(ShardedInjector::new(2));
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let sharded = Arc::clone(&sharded);
                thread::spawn(move || {
                    sharded.push_to(p, 10 * p);
                    sharded.push_to(p, 10 * p + 1);
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(), Vec::new()];
        let mut got = None;
        while let Some((_, shard)) = sharded.pop_sweep(&[0, 1], |_| 1, |v| got = Some(v)) {
            per_shard[shard].extend(got.take());
        }
        assert_eq!(per_shard[0], vec![0, 1]);
        assert_eq!(per_shard[1], vec![10, 11]);
        assert!(sharded.is_empty());
    });
}
