//! Locality domains: the shard map derived from the thread hierarchy.
//!
//! The scheduler's external injection queue is sharded per *domain* — a
//! contiguous group of workers that plausibly share a cache — so that
//! submissions and idle pops spread over several head/tail cache lines
//! instead of funnelling through one (DESIGN.md §13).  A [`Domains`] view
//! derives that shard map from an existing [`Topology`]:
//!
//! * the **domain level** is the largest hierarchy level whose nominal group
//!   size does not exceed a width, so the scheduler's width of 8 yields
//!   eight 8-thread domains on a 64-thread machine and a single domain for
//!   `p ≤ 8`, while any width ≥ `p` degenerates to a single domain;
//! * each **domain** is one group at that level (groups partition `0..p`
//!   exactly once, so every worker belongs to exactly one domain);
//! * each domain carries a **sweep order**: the shard-visit sequence an idle
//!   worker follows, starting at its own domain and adding the sibling
//!   domains of each successively larger enclosing group — i.e. remote
//!   shards are visited in hierarchy-distance order, nearest first.

use crate::Topology;

/// The shard map: how many injection shards exist, which one each worker
/// belongs to, and in which order a worker visits the others.
///
/// Built once per scheduler from its [`Topology`]; all queries are
/// O(1) lookups into precomputed tables.
#[derive(Debug, Clone)]
pub struct Domains {
    /// Number of hardware threads `p` of the underlying topology.
    p: usize,
    /// The hierarchy level the domains were taken from.
    level: usize,
    /// Domain index of each worker (`domain_of[worker]`).
    domain_of: Vec<usize>,
    /// First worker id of each domain, plus a trailing `p` sentinel, so
    /// domain `d` covers `starts[d]..starts[d + 1]`.
    starts: Vec<usize>,
    /// `sweep[d]` — the distance-ordered domain-visit sequence for workers
    /// of domain `d`.  Always a permutation of `0..num_domains()` beginning
    /// with `d` itself.
    sweep: Vec<Vec<usize>>,
}

impl Domains {
    /// Derives the domain map from `topology` with the given width.
    ///
    /// The domain level is the **largest** level whose nominal group size is
    /// ≤ `domain_width` (level 0 has nominal size 1, so every width ≥ 1
    /// admits at least one level; a width of 0 is treated as 1).
    pub fn new(topology: &Topology, domain_width: usize) -> Self {
        let width = domain_width.max(1);
        let p = topology.num_threads();
        let mut level = 0;
        for l in 0..topology.num_queue_levels() {
            if topology.nominal_level_size(l) <= width {
                level = l;
            }
        }

        // The groups at `level` partition 0..p; walk them left to right.
        let mut domain_of = vec![0usize; p];
        let mut starts = Vec::new();
        let mut i = 0;
        while i < p {
            let size = topology.group_size(i, level);
            let d = starts.len();
            starts.push(i);
            for slot in &mut domain_of[i..i + size] {
                *slot = d;
            }
            i += size;
        }
        starts.push(p);
        let domains = starts.len() - 1;

        // Sweep orders: start at the local domain, then add the domains of
        // each successively larger enclosing group (nearest ring first, in
        // index order within a ring).  The top-level group is 0..p, so the
        // sweep always ends up covering every domain exactly once.
        let mut sweep = Vec::with_capacity(domains);
        for d in 0..domains {
            let representative = starts[d];
            let mut order = Vec::with_capacity(domains);
            let mut visited = vec![false; domains];
            order.push(d);
            visited[d] = true;
            for l in level + 1..topology.num_queue_levels() {
                let group = topology.group_range(representative, l);
                for other in 0..domains {
                    if !visited[other]
                        && group.contains(&starts[other])
                        && starts[other + 1] <= group.end
                    {
                        visited[other] = true;
                        order.push(other);
                    }
                }
            }
            debug_assert_eq!(order.len(), domains);
            sweep.push(order);
        }

        Domains {
            p,
            level,
            domain_of,
            starts,
            sweep,
        }
    }

    /// Number of hardware threads of the underlying topology.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.p
    }

    /// Number of domains (= injection shards).
    #[inline]
    pub fn num_domains(&self) -> usize {
        self.starts.len() - 1
    }

    /// The hierarchy level the domains were taken from.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Domain index of `worker`.
    #[inline]
    pub fn domain_of(&self, worker: usize) -> usize {
        self.domain_of[worker]
    }

    /// The contiguous worker-id range of domain `d`.
    #[inline]
    pub fn domain_range(&self, d: usize) -> std::ops::Range<usize> {
        self.starts[d]..self.starts[d + 1]
    }

    /// The distance-ordered domain-visit sequence for workers of domain `d`:
    /// a permutation of `0..num_domains()` whose first element is `d`
    /// itself, followed by the remaining domains nearest enclosing group
    /// first.
    #[inline]
    pub fn sweep_order(&self, d: usize) -> &[usize] {
        &self.sweep[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn width_one_gives_one_domain_per_worker() {
        let topo = Topology::balanced(6);
        let domains = Domains::new(&topo, 1);
        assert_eq!(domains.num_domains(), 6);
        for w in 0..6 {
            assert_eq!(domains.domain_of(w), w);
            assert_eq!(domains.domain_range(w), w..w + 1);
            assert_eq!(domains.sweep_order(w)[0], w);
        }
    }

    #[test]
    fn width_at_least_p_degenerates_to_a_single_domain() {
        for p in [1usize, 3, 8, 13] {
            let topo = Topology::balanced(p);
            for width in [p, p + 1, usize::MAX] {
                let domains = Domains::new(&topo, width);
                assert_eq!(domains.num_domains(), 1, "p={p} width={width}");
                assert_eq!(domains.domain_range(0), 0..p);
                assert_eq!(domains.sweep_order(0), &[0]);
            }
        }
    }

    #[test]
    fn dual_socket_example_shards_per_socket() {
        // 2 sockets x 3 cores (levels 1 < 2 < 3 < 6): width 3 picks the
        // socket level, one shard per socket.
        let topo = Topology::balanced(6);
        let domains = Domains::new(&topo, 3);
        assert_eq!(domains.level(), 2);
        assert_eq!(domains.num_domains(), 2);
        assert_eq!(domains.domain_range(0), 0..3);
        assert_eq!(domains.domain_range(1), 3..6);
        assert_eq!(domains.sweep_order(0), &[0, 1]);
        assert_eq!(domains.sweep_order(1), &[1, 0]);
    }

    #[test]
    fn sweep_is_distance_ordered_on_sixteen_threads() {
        // p = 16, width 4: four 4-thread domains.  Domain 0's nearest ring
        // at level 3 (groups of 8) is domain 1; the rest follow.
        let topo = Topology::balanced(16);
        let domains = Domains::new(&topo, 4);
        assert_eq!(domains.num_domains(), 4);
        assert_eq!(domains.sweep_order(0), &[0, 1, 2, 3]);
        assert_eq!(domains.sweep_order(1), &[1, 0, 2, 3]);
        assert_eq!(domains.sweep_order(2), &[2, 3, 0, 1]);
        assert_eq!(domains.sweep_order(3), &[3, 2, 0, 1]);
    }

    fn arb_p() -> impl Strategy<Value = usize> {
        1usize..=96
    }

    proptest! {
        #[test]
        fn domains_partition_workers_at_every_width(
            p in arb_p(),
            width in 0usize..=128,
        ) {
            let topo = Topology::balanced(p);
            let domains = Domains::new(&topo, width);
            // Ranges tile 0..p exactly once, in order.
            let mut next = 0;
            for d in 0..domains.num_domains() {
                let range = domains.domain_range(d);
                prop_assert_eq!(range.start, next);
                prop_assert!(!range.is_empty());
                prop_assert!(range.len() <= width.max(1));
                // Every worker in the range maps back to this domain.
                for w in range.clone() {
                    prop_assert_eq!(domains.domain_of(w), d);
                }
                next = range.end;
            }
            prop_assert_eq!(next, p);
        }

        #[test]
        fn sweep_visits_every_domain_exactly_once_starting_local(
            p in arb_p(),
            width in 0usize..=128,
        ) {
            let topo = Topology::balanced(p);
            let domains = Domains::new(&topo, width);
            let n = domains.num_domains();
            for d in 0..n {
                let order = domains.sweep_order(d);
                prop_assert_eq!(order.len(), n);
                prop_assert_eq!(order[0], d);
                let mut seen = vec![false; n];
                for &visited in order {
                    prop_assert!(visited < n);
                    prop_assert!(!seen[visited], "domain visited twice");
                    seen[visited] = true;
                }
                prop_assert!(seen.into_iter().all(|s| s));
            }
        }

        #[test]
        fn sweep_rings_respect_hierarchy_distance(
            p in arb_p(),
            width in 0usize..=128,
        ) {
            // If domain b appears before domain c in a's sweep, then a
            // shares an enclosing group with b at a level no higher than the
            // one at which it shares with c (nearest ring first).
            let topo = Topology::balanced(p);
            let domains = Domains::new(&topo, width);
            let join_level = |a: usize, b: usize| -> usize {
                let (wa, wb) = (domains.domain_range(a).start, domains.domain_range(b).start);
                (0..topo.num_queue_levels())
                    .find(|&l| topo.group_range(wa, l).contains(&wb))
                    .expect("top level contains everything")
            };
            for d in 0..domains.num_domains() {
                let order = domains.sweep_order(d);
                for pair in order.windows(2) {
                    prop_assert!(join_level(d, pair[0]) <= join_level(d, pair[1]));
                }
            }
        }
    }
}
