//! A sharded wrapper over the MPMC injection queue.
//!
//! A single [`Injector`] serializes every producer and consumer on one
//! head/tail cache-line pair, which becomes the throughput ceiling once many
//! threads submit concurrently.  [`ShardedInjector`] spreads that traffic
//! over an array of independent `Injector` shards — in the scheduler one
//! shard per locality *domain* of the thread hierarchy (DESIGN.md §13):
//!
//! * **Push** is affinity-keyed: the caller names a home shard (a worker
//!   pushes to its own domain's shard; external submitters round-robin over
//!   shards) and receives the same one-sided *observed-empty* hint the
//!   single injector gives, scoped to that shard.
//! * **Pop** is local-first: a worker pops its own shard, and only when
//!   that is empty *sweeps* the remaining shards in a caller-provided
//!   (hierarchy-distance) order.
//!
//! Per-shard FIFO order is preserved exactly as in the single injector;
//! cross-shard ordering is not defined, which is fine for the scheduler's
//! root tasks (scopes order by completion latches, never by queue position).
//!
//! Every shard shares the creating domain for epoch reclamation, so the
//! pinning contract is unchanged from [`Injector::in_domain`].

use std::sync::Arc;

use teamsteal_util::epoch::Domain;

use crate::Injector;

/// An array of [`Injector`] shards with affinity-keyed push and
/// local-first/sweep pop.  See the module docs.
pub struct ShardedInjector<T> {
    shards: Box<[Injector<T>]>,
}

impl<T: Send> ShardedInjector<T> {
    /// Creates `shards` independent shards, each with its own private epoch
    /// domain (standalone mode, no pinning required — e.g. for tests).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        ShardedInjector {
            shards: (0..shards).map(|_| Injector::new()).collect(),
        }
    }

    /// Creates `shards` shards all deferring reclaimed segments into
    /// `domain`.
    ///
    /// # Safety
    ///
    /// Same contract as [`Injector::in_domain`], extended over every shard:
    /// for as long as `domain` can be collected, every thread calling
    /// [`push_to`](Self::push_to)/[`pop_from`](Self::pop_from)/
    /// [`pop_sweep`](Self::pop_sweep) must do
    /// so while pinned to a registered participant of that same domain.
    /// The length/segment accessors are exempt.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub unsafe fn in_domain(shards: usize, domain: Arc<Domain>) -> Self {
        assert!(shards > 0, "at least one shard is required");
        ShardedInjector {
            shards: (0..shards)
                // SAFETY: forwarded contract, see above.
                .map(|_| unsafe { Injector::in_domain(Arc::clone(&domain)) })
                .collect(),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Pushes `value` onto shard `shard` (indices wrap, so any affinity key
    /// is a valid shard selector).  Returns the shard's observed-empty hint
    /// with the same one-sided accuracy as [`Injector::push`]: `false`
    /// reliably means another element was in flight on *this shard*; `true`
    /// may be missed and should be treated as "a wake may be needed".
    #[inline]
    pub fn push_to(&self, shard: usize, value: T) -> bool {
        self.shards[shard % self.shards.len()].push(value)
    }

    /// Pops from shard `shard`, absorbing transient `Retry` results
    /// (see [`Injector::pop`]).
    #[inline]
    pub fn pop_from(&self, shard: usize) -> Option<T> {
        self.shards[shard].pop()
    }

    /// Claims a batch from the first non-empty shard in `order` (the
    /// caller's hierarchy-distance sweep, local shard first): at most
    /// `max(shard)` elements, handed to `sink` oldest first with one claim
    /// CAS ([`Injector::try_pop_batch`]).  Returns the number claimed
    /// together with the index *into `order`* of the shard they came from,
    /// so the caller can tell a local hit (`0`) from a remote one and knows
    /// which shard to re-check for wake chaining.  A single-element caller
    /// passes `|_| 1`.
    pub fn pop_sweep(
        &self,
        order: &[usize],
        max: impl Fn(usize) -> usize,
        mut sink: impl FnMut(T),
    ) -> Option<(usize, usize)> {
        for (pos, &shard) in order.iter().enumerate() {
            let n = self.shards[shard].pop_batch(max(shard), &mut sink);
            if n > 0 {
                return Some((n, pos));
            }
        }
        None
    }

    /// Snapshot of the number of elements in shard `shard` (O(1)).
    #[inline]
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// Live (allocated, not yet reclaimed) segments of shard `shard` (O(1)).
    #[inline]
    pub fn shard_live_segments(&self, shard: usize) -> usize {
        self.shards[shard].live_segments()
    }

    /// Total element count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Injector::len).sum()
    }

    /// `true` when every shard was observed empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Injector::is_empty)
    }

    /// Total live segments across all shards.
    pub fn live_segments(&self) -> usize {
        self.shards.iter().map(Injector::live_segments).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A single-element sweep: the value and its position in `order`.
    fn pop_one<T: Send>(q: &ShardedInjector<T>, order: &[usize]) -> Option<(T, usize)> {
        let mut out = None;
        let (_, pos) = q.pop_sweep(order, |_| 1, |v| out = Some(v))?;
        out.map(|v| (v, pos))
    }

    #[test]
    fn push_wraps_affinity_keys_and_pops_fifo_per_shard() {
        let q: ShardedInjector<usize> = ShardedInjector::new(3);
        for i in 0..12 {
            q.push_to(i, i); // key i lands on shard i % 3
        }
        assert_eq!(q.len(), 12);
        for shard in 0..3 {
            assert_eq!(q.shard_len(shard), 4);
            for k in 0..4 {
                assert_eq!(q.pop_from(shard), Some(shard + 3 * k));
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn sweep_pops_in_order_and_reports_position() {
        let q: ShardedInjector<u32> = ShardedInjector::new(4);
        q.push_to(2, 7);
        q.push_to(3, 9);
        // Sweep order [1, 2, 3, 0]: shard 1 is empty, shard 2 yields first.
        assert_eq!(pop_one(&q, &[1, 2, 3, 0]), Some((7, 1)));
        assert_eq!(pop_one(&q, &[1, 2, 3, 0]), Some((9, 2)));
        assert_eq!(pop_one(&q, &[1, 2, 3, 0]), None);
    }

    #[test]
    fn sweep_claims_a_batch_bounded_per_shard() {
        let q: ShardedInjector<u32> = ShardedInjector::new(2);
        for v in 0..5 {
            q.push_to(1, v);
        }
        q.push_to(0, 9);
        // Shard 0 comes first and yields its one element even under a
        // larger bound; shard 1 then yields its oldest three.
        let mut got = Vec::new();
        let max = |shard: usize| if shard == 0 { 4 } else { 3 };
        assert_eq!(q.pop_sweep(&[0, 1], max, |v| got.push(v)), Some((1, 0)));
        assert_eq!(q.pop_sweep(&[0, 1], max, |v| got.push(v)), Some((3, 1)));
        assert_eq!(got, vec![9, 0, 1, 2]);
        assert_eq!(q.shard_len(1), 2);
    }

    #[test]
    fn observed_empty_hint_is_per_shard() {
        let q: ShardedInjector<u32> = ShardedInjector::new(2);
        assert!(q.push_to(0, 1), "first push into an empty shard");
        // Shard 0 now has an element; shard 1 is still empty.
        assert!(!q.push_to(0, 2));
        assert!(q.push_to(1, 3), "other shard's hint is independent");
    }

    #[test]
    fn concurrent_producers_and_sweepers_deliver_exactly_once() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        const SHARDS: usize = 4;
        let q = Arc::new(ShardedInjector::<usize>::new(SHARDS));
        let seen: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..PRODUCERS * PER_PRODUCER)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let produced = Arc::new(AtomicUsize::new(0));

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|id| {
                let q = Arc::clone(&q);
                let produced = Arc::clone(&produced);
                std::thread::spawn(move || {
                    for k in 0..PER_PRODUCER {
                        // Affinity-keyed: each producer has a home shard.
                        q.push_to(id, id * PER_PRODUCER + k);
                        produced.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..SHARDS)
            .map(|home| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                let produced = Arc::clone(&produced);
                // Each consumer sweeps starting from its own shard.
                let order: Vec<usize> = (0..SHARDS).map(|i| (home + i) % SHARDS).collect();
                std::thread::spawn(move || loop {
                    match pop_one(&q, &order) {
                        Some((v, _)) => {
                            seen[v].fetch_add(1, Ordering::SeqCst);
                        }
                        None => {
                            if produced.load(Ordering::SeqCst) == PRODUCERS * PER_PRODUCER
                                && q.is_empty()
                            {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        for h in producers {
            h.join().unwrap();
        }
        for h in consumers {
            h.join().unwrap();
        }
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::SeqCst),
                1,
                "element {i} delivered exactly once"
            );
        }
    }
}
