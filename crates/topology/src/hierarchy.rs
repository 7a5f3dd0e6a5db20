//! The thread hierarchy: level sizes, groups, partners and team boundaries.

use teamsteal_util::rng::Xoshiro256;

/// Precomputed description of the machine's thread hierarchy.
///
/// A `Topology` knows, for every thread id and every level,
///
/// * the **group** (contiguous id range) the thread belongs to — a team built
///   for a task whose requirement maps to that level occupies exactly this
///   group,
/// * the **deterministic partner** visited during stealing / team building
///   (Section 3: bit-flipping; Refinement 3: precomputed array `P[ℓ]`, which
///   may be absent at some levels for non-power-of-two machines),
/// * the per-thread **available team size** `n'_ℓ ≤ n_ℓ`.
///
/// All queries are O(1) lookups into precomputed tables; construction is
/// O(p · log p).
#[derive(Debug, Clone)]
pub struct Topology {
    p: usize,
    /// Nominal level sizes `n_0 = 1 < n_1 < … < n_L = p`.
    level_sizes: Vec<usize>,
    /// `group_base[ℓ][i]` — first id of the level-`ℓ` group containing `i`.
    group_base: Vec<Vec<usize>>,
    /// `group_size[ℓ][i]` — size of the level-`ℓ` group containing `i`
    /// (the paper's `n'_ℓ` for thread `i`).
    group_size: Vec<Vec<usize>>,
    /// `partners[i][ℓ]` — deterministic partner of `i` at steal level `ℓ`
    /// (the paper's `P[ℓ]`), or `None` if the thread has no partner there.
    partners: Vec<Vec<Option<usize>>>,
}

impl Topology {
    /// Builds a balanced topology for an arbitrary number of threads
    /// (Refinement 3) by repeatedly halving: `n_L = p`,
    /// `n_{ℓ-1} = ⌈n_ℓ / 2⌉`, down to `n_0 = 1`.
    ///
    /// For powers of two this is the classic topology of the base algorithm
    /// (Section 3): level sizes `1, 2, 4, …, p` and partners by bit flipping.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn balanced(p: usize) -> Self {
        assert!(p > 0, "at least one thread is required");
        let mut sizes = vec![p];
        while *sizes.last().unwrap() > 1 {
            let next = sizes.last().unwrap().div_ceil(2);
            sizes.push(next);
        }
        sizes.reverse();
        Self::from_level_sizes(&sizes)
    }

    /// Builds a topology from explicit level sizes `n_0, …, n_L`.
    ///
    /// # Panics
    ///
    /// Panics unless `n_0 == 1`, the sizes are strictly increasing, and each
    /// level is at most twice the previous one (`n_{ℓ-1} < n_ℓ ≤ 2·n_{ℓ-1}`,
    /// Refinement 3).  A single level `[1]` describes a one-thread machine.
    fn from_level_sizes(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "at least one level is required");
        assert_eq!(sizes[0], 1, "the innermost level must have size 1");
        for w in sizes.windows(2) {
            assert!(
                w[0] < w[1] && w[1] <= 2 * w[0],
                "level sizes must satisfy n_(l-1) < n_l <= 2*n_(l-1), got {} then {}",
                w[0],
                w[1]
            );
        }
        let p = *sizes.last().unwrap();
        let num_levels = sizes.len();

        // Group decomposition, top-down: the single level-L group [0, p)
        // splits at each lower level ℓ into a left part of (at most) the
        // nominal size n_ℓ and a right remainder.
        let mut group_base = vec![vec![0usize; p]; num_levels];
        let mut group_size = vec![vec![0usize; p]; num_levels];
        // Top level: one group covering everything.
        for i in 0..p {
            group_base[num_levels - 1][i] = 0;
            group_size[num_levels - 1][i] = p;
        }
        for level in (0..num_levels.saturating_sub(1)).rev() {
            let nominal = sizes[level];
            let mut i = 0;
            while i < p {
                // The enclosing group at level `level + 1`.
                let parent_base = group_base[level + 1][i];
                let parent_size = group_size[level + 1][i];
                let left = nominal.min(parent_size);
                let right = parent_size - left;
                for j in parent_base..parent_base + left {
                    group_base[level][j] = parent_base;
                    group_size[level][j] = left;
                }
                for j in parent_base + left..parent_base + left + right {
                    group_base[level][j] = parent_base + left;
                    group_size[level][j] = right;
                }
                i = parent_base + parent_size;
            }
        }

        // Partner arrays: the partner of `i` at steal level ℓ is the thread
        // with the same offset in the sibling level-ℓ subgroup of the level-
        // (ℓ+1) group containing `i` (bit flipping in the power-of-two case).
        let steal_levels = num_levels - 1;
        let mut partners = vec![vec![None; steal_levels]; p];
        for (i, row) in partners.iter_mut().enumerate() {
            for (level, slot) in row.iter_mut().enumerate() {
                let parent_base = group_base[level + 1][i];
                let parent_size = group_size[level + 1][i];
                let my_base = group_base[level][i];
                let my_size = group_size[level][i];
                if my_size == parent_size {
                    // The group did not split at this level: no partner.
                    continue;
                }
                let offset = i - my_base;
                let sibling_base;
                let sibling_size;
                if my_base == parent_base {
                    // We are in the left subgroup.
                    sibling_base = parent_base + my_size;
                    sibling_size = parent_size - my_size;
                } else {
                    sibling_base = parent_base;
                    sibling_size = my_base - parent_base;
                }
                if offset < sibling_size {
                    *slot = Some(sibling_base + offset);
                }
            }
        }

        Topology {
            p,
            level_sizes: sizes.to_vec(),
            group_base,
            group_size,
            partners,
        }
    }

    /// Number of hardware threads `p`.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.p
    }

    /// Number of steal levels, i.e. how many partners a thread visits per
    /// steal round (the paper's `log p`).
    #[inline]
    pub fn num_steal_levels(&self) -> usize {
        self.level_sizes.len() - 1
    }

    /// Number of task-queue levels per thread (Refinement 1): one queue per
    /// hierarchy level, including the level-0 queue for sequential tasks.
    #[inline]
    pub fn num_queue_levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// Nominal size `n_ℓ` of groups at `level`.
    #[inline]
    pub(crate) fn nominal_level_size(&self, level: usize) -> usize {
        self.level_sizes[level]
    }

    /// All nominal level sizes `n_0 … n_L`.
    #[inline]
    pub fn level_sizes(&self) -> &[usize] {
        &self.level_sizes
    }

    /// First id of the level-`level` group containing `thread`.
    #[inline]
    pub(crate) fn group_base(&self, thread: usize, level: usize) -> usize {
        self.group_base[level][thread]
    }

    /// Size of the level-`level` group containing `thread` — the paper's
    /// per-thread available team size `n'_ℓ`.
    #[inline]
    pub fn group_size(&self, thread: usize, level: usize) -> usize {
        self.group_size[level][thread]
    }

    /// The id range of the level-`level` group containing `thread`.
    #[inline]
    pub fn group_range(&self, thread: usize, level: usize) -> std::ops::Range<usize> {
        let base = self.group_base(thread, level);
        base..base + self.group_size(thread, level)
    }

    /// Deterministic partner of `thread` at steal `level` (Section 3 /
    /// Refinement 3), or `None` if the thread has no partner at that level.
    #[inline]
    pub fn partner(&self, thread: usize, level: usize) -> Option<usize> {
        self.partners[thread][level]
    }

    /// Refinement 4: a partner at steal `level` chosen uniformly at random
    /// from the *sibling subgroup* — the same set of threads the
    /// deterministic partner belongs to, so the hierarchy (and therefore team
    /// shape) is preserved while the contention pattern is randomized.
    ///
    /// Returns `None` exactly when [`Topology::partner`] does, i.e. when the
    /// sibling subgroup is empty.
    pub fn partner_randomized(
        &self,
        thread: usize,
        level: usize,
        rng: &mut Xoshiro256,
    ) -> Option<usize> {
        let parent_base = self.group_base[level + 1][thread];
        let parent_size = self.group_size[level + 1][thread];
        let my_base = self.group_base[level][thread];
        let my_size = self.group_size[level][thread];
        if my_size == parent_size {
            return None;
        }
        let (sibling_base, sibling_size) = if my_base == parent_base {
            (parent_base + my_size, parent_size - my_size)
        } else {
            (parent_base, my_base - parent_base)
        };
        if sibling_size == 0 {
            return None;
        }
        Some(sibling_base + rng.next_usize_below(sibling_size))
    }

    /// The queue / team level a task with thread requirement `req` maps to
    /// when held by `thread`: the smallest level whose group around `thread`
    /// can accommodate `req` threads.  Requirements larger than `p` are
    /// clamped to the top level (they can never be satisfied and the
    /// scheduler rejects them earlier).
    pub fn level_for_requirement(&self, thread: usize, req: usize) -> usize {
        let req = req.max(1);
        for level in 0..self.level_sizes.len() {
            if self.group_size[level][thread] >= req {
                return level;
            }
        }
        self.level_sizes.len() - 1
    }

    /// The team that a coordinator `coordinator` builds for a task requiring
    /// `req` threads: the id range of the smallest group around the
    /// coordinator that can hold `req` threads, together with its size.
    ///
    /// For a power-of-two machine and power-of-two `req` this is exactly the
    /// aligned block `kr … (k+1)r − 1` from Section 3.1.  For other
    /// requirements the team is the enclosing group (requirement rounded up,
    /// Refinement 2).
    pub fn team_for(&self, coordinator: usize, req: usize) -> std::ops::Range<usize> {
        let level = self.level_for_requirement(coordinator, req);
        self.group_range(coordinator, level)
    }

    /// The paper's `overlap(x, y, size)` predicate (Algorithm 9): would
    /// threads `x` and `y` belong to the same team for a task of the given
    /// size (as seen from `x`)?
    pub fn overlap(&self, x: usize, y: usize, size: usize) -> bool {
        self.team_for(x, size).contains(&y)
    }

    /// Local id of `thread` in a team of size `team_size` containing it —
    /// Section 3.1's "subtract the leftmost thread id of the team".  This is
    /// the fast path used during execution, where the team size is already
    /// known to be one of the group sizes around `thread`.
    pub fn local_id(&self, thread: usize, team_size: usize) -> usize {
        let level = self.level_for_requirement(thread, team_size);
        thread - self.group_base(thread, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teamsteal_util::bits;

    #[test]
    fn power_of_two_matches_bit_flipping() {
        for &p in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
            let topo = Topology::balanced(p);
            assert_eq!(topo.num_threads(), p);
            assert_eq!(topo.num_steal_levels(), bits::levels_for(p));
            for i in 0..p {
                for level in 0..topo.num_steal_levels() {
                    let partner = bits::flip_partner(i, level);
                    assert_eq!(
                        topo.partner(i, level),
                        Some(partner),
                        "p={p} thread={i} level={level}"
                    );
                    // Flipping the same bit twice is the identity.
                    assert_eq!(topo.partner(partner, level), Some(i));
                    assert_eq!(topo.group_base(i, level), bits::team_base(i, 1 << level));
                    assert_eq!(topo.group_size(i, level), 1 << level);
                }
            }
        }
    }

    #[test]
    fn levels_examples_from_paper() {
        // 8 hardware threads => log p = 3 partners; 128 (Sun T2+) => 7.
        for (p, levels) in [(1, 0), (2, 1), (5, 3), (8, 3), (9, 4), (128, 7)] {
            assert_eq!(bits::levels_for(p), levels, "p={p}");
            assert_eq!(Topology::balanced(p).num_steal_levels(), levels, "p={p}");
        }
    }

    #[test]
    fn team_boundaries_paper_shape() {
        assert_eq!(bits::team_base(5, 4), 4); // team {4,5,6,7}
        assert_eq!(bits::team_base(5, 2), 4); // team {4,5}
        assert_eq!(bits::team_base(5, 1), 5); // singleton team
        assert_eq!(bits::team_base(13, 8), 8); // team {8..=15}

        // Teams consist of thread ids kr, kr+1, ..., (k+1)r - 1, and a
        // member's local id is its distance from the base.
        let topo = Topology::balanced(16);
        for r_log in 0..=4 {
            let r = 1usize << r_log;
            for id in 0..16 {
                let base = bits::team_base(id, r);
                assert_eq!(topo.team_for(id, r), base..base + r, "id={id} r={r}");
                assert_eq!(topo.local_id(id, r), id - base, "id={id} r={r}");
            }
        }
    }

    #[test]
    fn paper_example_dual_socket_three_cores() {
        // Refinement 3 example: 2 sockets x 3 cores => a 3-thread task must
        // fit on one socket.
        let topo = Topology::balanced(6);
        assert_eq!(topo.num_threads(), 6);
        assert_eq!(topo.level_sizes(), &[1, 2, 3, 6]);
        // Teams of 3 threads are exactly one socket.
        assert_eq!(topo.team_for(0, 3), 0..3);
        assert_eq!(topo.team_for(2, 3), 0..3);
        assert_eq!(topo.team_for(3, 3), 3..6);
        assert_eq!(topo.team_for(5, 3), 3..6);
        // Teams of 4..6 threads span the whole machine.
        assert_eq!(topo.team_for(1, 4), 0..6);
    }

    #[test]
    fn balanced_six_threads() {
        let topo = Topology::balanced(6);
        assert_eq!(topo.level_sizes(), &[1, 2, 3, 6]);
        // Thread 2 sits in a singleton level-1 group and has no partner at
        // level 0 (the group [2,3) does not split).
        assert_eq!(topo.partner(2, 0), None);
        assert_eq!(topo.partner(0, 0), Some(1));
        assert_eq!(topo.partner(1, 0), Some(0));
        // Level 1: [0,2) vs [2,3): thread 0 <-> 2, thread 1 has no partner.
        assert_eq!(topo.partner(0, 1), Some(2));
        assert_eq!(topo.partner(2, 1), Some(0));
        assert_eq!(topo.partner(1, 1), None);
        // Level 2: [0,3) vs [3,6): same-offset pairing.
        assert_eq!(topo.partner(0, 2), Some(3));
        assert_eq!(topo.partner(1, 2), Some(4));
        assert_eq!(topo.partner(2, 2), Some(5));
        assert_eq!(topo.partner(5, 2), Some(2));
    }

    #[test]
    fn single_thread_topology() {
        let topo = Topology::balanced(1);
        assert_eq!(topo.num_threads(), 1);
        assert_eq!(topo.num_steal_levels(), 0);
        assert_eq!(topo.num_queue_levels(), 1);
        assert_eq!(topo.team_for(0, 1), 0..1);
        assert_eq!(topo.local_id(0, 1), 0);
    }

    #[test]
    fn membership_and_local_ids_power_of_two() {
        let topo = Topology::balanced(8);
        // Coordinator 5, r = 4 => team {4,5,6,7}.
        assert_eq!(topo.team_for(5, 4), 4..8);
        assert!(topo.overlap(5, 4, 4) && topo.overlap(5, 7, 4));
        assert_eq!(topo.local_id(4, 4), 0);
        assert_eq!(topo.local_id(7, 4), 3);
        assert!(!topo.overlap(5, 3, 4));
        // Degenerate r = 1: singleton team.
        assert_eq!(topo.team_for(6, 1), 6..7);
        assert!(topo.overlap(6, 6, 1));
        assert_eq!(topo.local_id(6, 1), 0);
        assert!(!topo.overlap(6, 7, 1));
    }

    #[test]
    fn overlap_matches_bitwise_overlap_for_pow2() {
        let topo = Topology::balanced(16);
        for x in 0..16 {
            for y in 0..16 {
                for r_log in 0..=4 {
                    let r = 1usize << r_log;
                    assert_eq!(
                        topo.overlap(x, y, r),
                        bits::team_base(x, r) == bits::team_base(y, r),
                        "x={x} y={y} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_pow2_requirement_rounds_up_to_group() {
        let topo = Topology::balanced(8);
        // r = 3 rounds up to the 4-thread group.
        assert_eq!(topo.team_for(1, 3), 0..4);
        assert_eq!(topo.level_for_requirement(1, 3), 2);
        // r = 5..8 needs the whole machine.
        assert_eq!(topo.team_for(6, 5), 0..8);
    }

    #[test]
    #[should_panic]
    fn level_sizes_must_start_at_one() {
        let _ = Topology::from_level_sizes(&[2, 4]);
    }

    #[test]
    #[should_panic]
    fn level_sizes_must_at_most_double() {
        let _ = Topology::from_level_sizes(&[1, 3]);
    }

    fn arb_p() -> impl Strategy<Value = usize> {
        1usize..=96
    }

    proptest! {
        #[test]
        #[allow(clippy::needless_range_loop)]
        fn groups_partition_the_machine(p in arb_p()) {
            let topo = Topology::balanced(p);
            for level in 0..topo.num_queue_levels() {
                // Every thread is in exactly one group; group metadata is
                // consistent across all members.
                let mut covered = vec![false; p];
                let mut i = 0;
                while i < p {
                    let base = topo.group_base(i, level);
                    let size = topo.group_size(i, level);
                    prop_assert_eq!(base, i);
                    prop_assert!(size >= 1);
                    prop_assert!(size <= topo.nominal_level_size(level));
                    for j in base..base + size {
                        prop_assert_eq!(topo.group_base(j, level), base);
                        prop_assert_eq!(topo.group_size(j, level), size);
                        prop_assert!(!covered[j]);
                        covered[j] = true;
                    }
                    i = base + size;
                }
                prop_assert!(covered.into_iter().all(|c| c));
            }
        }

        #[test]
        fn partners_are_symmetric_or_absent(p in arb_p()) {
            let topo = Topology::balanced(p);
            for i in 0..p {
                for level in 0..topo.num_steal_levels() {
                    if let Some(partner) = topo.partner(i, level) {
                        prop_assert!(partner < p);
                        prop_assert_ne!(partner, i);
                        // The partner lives in the same parent group but a
                        // different child group.
                        prop_assert_eq!(
                            topo.group_base(i, level + 1),
                            topo.group_base(partner, level + 1)
                        );
                        prop_assert_ne!(
                            topo.group_base(i, level),
                            topo.group_base(partner, level)
                        );
                        // Partnership is symmetric whenever both sides have a
                        // partner (the right subgroup always points back).
                        if let Some(back) = topo.partner(partner, level) {
                            prop_assert_eq!(back, i);
                        }
                    }
                }
            }
        }

        #[test]
        fn partners_are_symmetric_on_arbitrary_level_chains(
            target in 2usize..=96,
            seed in any::<u64>(),
        ) {
            // Beyond `balanced` (which halves evenly), grow an arbitrary
            // valid level chain n_{l-1} < n_l <= 2*n_{l-1} — deliberately
            // hitting non-power-of-two sizes at every level — and check the
            // same partner invariants hold.
            let mut rng = Xoshiro256::new(seed);
            let mut sizes = vec![1usize];
            while *sizes.last().unwrap() < target {
                let cur = *sizes.last().unwrap();
                let step = 1 + rng.next_usize_below(cur);
                sizes.push((cur + step).min(target).min(2 * cur));
            }
            let topo = Topology::from_level_sizes(&sizes);
            let p = topo.num_threads();
            for i in 0..p {
                for level in 0..topo.num_steal_levels() {
                    if let Some(partner) = topo.partner(i, level) {
                        prop_assert!(partner < p);
                        prop_assert_ne!(partner, i);
                        prop_assert_eq!(
                            topo.group_base(i, level + 1),
                            topo.group_base(partner, level + 1)
                        );
                        prop_assert_ne!(
                            topo.group_base(i, level),
                            topo.group_base(partner, level)
                        );
                        if let Some(back) = topo.partner(partner, level) {
                            prop_assert_eq!(back, i);
                        }
                    }
                }
            }
        }

        #[test]
        fn every_pair_connected_through_top_level(p in arb_p()) {
            // Reachability: repeatedly following partner edges upwards from
            // any thread reaches threads in every top-level subgroup, which is
            // what guarantees teams of any feasible size can eventually form
            // (Lemma 1 relies on this).
            let topo = Topology::balanced(p);
            for i in 0..p {
                // The union of i's groups over all levels must end at [0, p).
                let top = topo.num_queue_levels() - 1;
                prop_assert_eq!(topo.group_range(i, top), 0..p);
            }
        }

        #[test]
        fn local_ids_consecutive_within_any_team(p in arb_p(), req in 1usize..=96) {
            let topo = Topology::balanced(p);
            let req = req.min(p);
            for coord in 0..p {
                let team = topo.team_for(coord, req);
                prop_assert!(team.contains(&coord));
                prop_assert!(team.len() >= req);
                // Every member computes its local id from the team size and
                // its own id alone (Section 3.1): together they are 0..len.
                let mut seen = vec![false; team.len()];
                for t in team.clone() {
                    let local_id = topo.local_id(t, team.len());
                    prop_assert!(local_id < team.len());
                    prop_assert!(!seen[local_id]);
                    seen[local_id] = true;
                }
                prop_assert!(seen.into_iter().all(|s| s));
                // The coordinator's view of its team is exactly the range.
                for t in 0..p {
                    prop_assert_eq!(topo.overlap(coord, t, req), team.contains(&t));
                }
            }
        }

        #[test]
        fn randomized_partner_stays_in_sibling_group(p in 2usize..=64, seed in any::<u64>()) {
            let topo = Topology::balanced(p);
            let mut rng = Xoshiro256::new(seed);
            for i in 0..p {
                for level in 0..topo.num_steal_levels() {
                    let det = topo.partner(i, level);
                    for _ in 0..8 {
                        let rnd = topo.partner_randomized(i, level, &mut rng);
                        match (det, rnd) {
                            (None, None) => {}
                            (Some(d), Some(r)) => {
                                // Same sibling subgroup as the deterministic partner.
                                prop_assert_eq!(
                                    topo.group_base(d, level),
                                    topo.group_base(r, level)
                                );
                            }
                            // The randomized partner exists iff the sibling
                            // subgroup is non-empty, but the deterministic
                            // partner may be missing when the thread's offset
                            // exceeds the sibling size.
                            (None, Some(r)) => {
                                prop_assert_ne!(
                                    topo.group_base(r, level),
                                    topo.group_base(i, level)
                                );
                            }
                            (Some(_), None) => prop_assert!(false, "lost a partner"),
                        }
                    }
                }
            }
        }

        #[test]
        fn level_for_requirement_is_minimal(p in arb_p(), req in 1usize..=96) {
            let topo = Topology::balanced(p);
            let req = req.min(p);
            for i in 0..p {
                let level = topo.level_for_requirement(i, req);
                prop_assert!(topo.group_size(i, level) >= req);
                if level > 0 {
                    prop_assert!(topo.group_size(i, level - 1) < req);
                }
            }
        }
    }
}
