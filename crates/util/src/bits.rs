//! Bit manipulation helpers used by the scheduler.
//!
//! The paper relies on three bit-level operations:
//!
//! * flipping bit `ℓ` of a thread id to find the deterministic partner at
//!   level `ℓ` (Section 3, `I ⊕ 2^ℓ`),
//! * retrieving the most significant set bit of the team size `t` to compute
//!   team boundaries and local ids (Section 3.1; implemented with `bsrl` in
//!   the authors' prototype),
//! * rounding thread requirements up to the next power of two
//!   (Refinement 2).
//!
//! All helpers are branch-light wrappers over the corresponding hardware
//! instructions exposed by `u64::leading_zeros` / `ilog2`.

/// Returns the index of the most significant set bit of `x` (0-based).
///
/// Equivalent to the `bsrl` instruction the paper's prototype uses, or the
/// BSD `fls(x) - 1`.
///
/// # Panics
///
/// Panics if `x == 0` (there is no set bit).
///
/// ```
/// use teamsteal_util::bits::msb_index;
/// assert_eq!(msb_index(1), 0);
/// assert_eq!(msb_index(2), 1);
/// assert_eq!(msb_index(3), 1);
/// assert_eq!(msb_index(8), 3);
/// ```
#[inline]
pub fn msb_index(x: usize) -> u32 {
    assert!(x != 0, "msb_index of zero is undefined");
    usize::BITS - 1 - x.leading_zeros()
}

/// Returns `true` if `x` is a power of two (and non-zero).
#[inline]
pub fn is_pow2(x: usize) -> bool {
    x != 0 && x & (x - 1) == 0
}

/// Rounds `x` down to the previous power of two.  `0` stays `0`.
#[inline]
pub fn prev_pow2(x: usize) -> usize {
    if x == 0 {
        0
    } else {
        1 << msb_index(x)
    }
}

/// Number of levels in the steal hierarchy for `p` threads: `⌈log₂ p⌉`.
///
/// A single thread has zero levels (it has no partners to steal from); two
/// threads have one level, and so on.  This is the number of partners each
/// thread visits per steal round (the paper's `log p`).
///
/// ```
/// use teamsteal_util::bits::levels_for;
/// assert_eq!(levels_for(1), 0);
/// assert_eq!(levels_for(2), 1);
/// assert_eq!(levels_for(5), 3);
/// assert_eq!(levels_for(8), 3);
/// assert_eq!(levels_for(9), 4);
/// ```
#[inline]
pub fn levels_for(p: usize) -> usize {
    assert!(p > 0, "at least one thread is required");
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

/// The deterministic partner of thread `id` at level `level` when the number
/// of threads is a power of two: `id ⊕ 2^level`.
#[inline]
pub fn flip_partner(id: usize, level: usize) -> usize {
    id ^ (1usize << level)
}

/// The leftmost (smallest) thread id of the team of size `team_size`
/// (a power of two) that contains thread `id`: clear all bits of `id` below
/// the most significant bit of `team_size` (Section 3.1).
///
/// ```
/// use teamsteal_util::bits::team_base;
/// assert_eq!(team_base(5, 4), 4);   // team {4,5,6,7}
/// assert_eq!(team_base(5, 2), 4);   // team {4,5}
/// assert_eq!(team_base(5, 1), 5);   // singleton team
/// assert_eq!(team_base(13, 8), 8);  // team {8..=15}
/// ```
#[inline]
pub fn team_base(id: usize, team_size: usize) -> usize {
    debug_assert!(is_pow2(team_size), "team sizes are powers of two");
    id & !(team_size - 1)
}

/// Local id of `id` within its power-of-two team of size `team_size`
/// (Section 3.1: subtract the leftmost thread id).
#[inline]
pub fn local_id(id: usize, team_size: usize) -> usize {
    id - team_base(id, team_size)
}

/// Returns `true` if threads `a` and `b` belong to the same power-of-two team
/// of size `team_size` — the paper's `overlap()` predicate (Algorithm 9).
///
/// ```
/// use teamsteal_util::bits::overlap;
/// assert!(overlap(4, 7, 4));
/// assert!(!overlap(3, 4, 4));
/// assert!(overlap(0, 0, 1));
/// assert!(!overlap(0, 1, 1));
/// ```
#[inline]
pub fn overlap(a: usize, b: usize, team_size: usize) -> bool {
    team_base(a, team_size) == team_base(b, team_size)
}

/// Index of the lowest set bit of `mask`, if any.
///
/// The scheduler keeps a per-worker *occupancy bitmask* with one bit per
/// queue level; finding the lowest non-empty level is then one
/// `trailing_zeros` instead of a scan over every deque's `top`/`bottom`
/// pair.
///
/// ```
/// use teamsteal_util::bits::lowest_set;
/// assert_eq!(lowest_set(0), None);
/// assert_eq!(lowest_set(0b1000), Some(3));
/// assert_eq!(lowest_set(0b1010), Some(1));
/// ```
#[inline]
pub fn lowest_set(mask: usize) -> Option<usize> {
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

/// `mask` with bit `bit` cleared.
///
/// ```
/// use teamsteal_util::bits::clear_bit;
/// assert_eq!(clear_bit(0b1011, 1), 0b1001);
/// assert_eq!(clear_bit(0b1001, 2), 0b1001);
/// ```
#[inline]
pub fn clear_bit(mask: usize, bit: usize) -> usize {
    mask & !(1usize << bit)
}

/// `true` if bit `bit` of `mask` is set.
#[inline]
pub fn bit_is_set(mask: usize, bit: usize) -> bool {
    mask & (1usize << bit) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn msb_matches_ilog2() {
        for x in 1usize..10_000 {
            assert_eq!(msb_index(x), x.ilog2());
        }
    }

    #[test]
    #[should_panic]
    fn msb_of_zero_panics() {
        let _ = msb_index(0);
    }

    #[test]
    fn pow2_helpers() {
        assert!(is_pow2(1));
        assert!(is_pow2(64));
        assert!(!is_pow2(0));
        assert!(!is_pow2(6));
        assert_eq!(prev_pow2(0), 0);
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(7), 4);
        assert_eq!(prev_pow2(8), 8);
    }

    #[test]
    fn levels_examples_from_paper() {
        // 8 hardware threads => log p = 3 partners.
        assert_eq!(levels_for(8), 3);
        // 128 hardware threads (Sun T2+) => 7 partners.
        assert_eq!(levels_for(128), 7);
    }

    #[test]
    fn partner_is_involution() {
        for p_log in 0..6usize {
            let p = 1usize << p_log;
            for id in 0..p {
                for level in 0..p_log {
                    let partner = flip_partner(id, level);
                    assert!(partner < p);
                    assert_eq!(flip_partner(partner, level), id);
                    assert_ne!(partner, id);
                }
            }
        }
    }

    #[test]
    fn team_boundaries_paper_shape() {
        // Teams consist of thread ids kr, kr+1, ..., (k+1)r - 1.
        let p = 16usize;
        for r_log in 0..=4usize {
            let r = 1usize << r_log;
            for id in 0..p {
                let base = team_base(id, r);
                let last = base + r - 1;
                assert_eq!(base % r, 0);
                // The last member shares the base: the team is exactly
                // the r ids from the base on.
                assert_eq!(team_base(last, r), base);
                assert_eq!(team_base(last + 1, r), base + r);
                assert!(base <= id && id <= last);
                assert_eq!(local_id(id, r), id - base);
            }
        }
    }

    #[test]
    fn occupancy_mask_helpers() {
        let mut mask = 0usize;
        assert_eq!(lowest_set(mask), None);
        mask |= 1 << 5;
        mask |= 1 << 2;
        assert!(bit_is_set(mask, 2) && bit_is_set(mask, 5));
        assert!(!bit_is_set(mask, 3));
        assert_eq!(lowest_set(mask), Some(2));
        mask = clear_bit(mask, 2);
        assert_eq!(lowest_set(mask), Some(5));
        mask = clear_bit(mask, 5);
        assert_eq!(lowest_set(mask), None);
    }

    proptest! {
        #[test]
        fn overlap_is_equivalence_within_team(
            a in 0usize..1024, b in 0usize..1024, r_log in 0usize..10
        ) {
            let r = 1usize << r_log;
            // overlap is symmetric and reflexive.
            prop_assert_eq!(overlap(a, b, r), overlap(b, a, r));
            prop_assert!(overlap(a, a, r));
            // Two ids overlap iff they share the same team base.
            prop_assert_eq!(overlap(a, b, r), a / r == b / r);
        }

        #[test]
        fn local_ids_are_a_bijection(r_log in 0usize..8, k in 0usize..64) {
            let r = 1usize << r_log;
            let base = k * r;
            let mut seen = vec![false; r];
            for id in base..base + r {
                let l = local_id(id, r);
                prop_assert!(l < r);
                prop_assert!(!seen[l]);
                seen[l] = true;
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }
    }
}
