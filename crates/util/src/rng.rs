//! Small, fast, deterministic pseudo-random number generators.
//!
//! The scheduler needs randomness in two places:
//!
//! * the *Randfork* baseline (classic work-stealing with uniformly random
//!   victim selection, Section 2 / Section 5), and
//! * Refinement 4, where the partner at level `ℓ` is chosen uniformly from
//!   the `2^ℓ` candidates below that level.
//!
//! The benchmark input generators (crate `teamsteal-data`) also need a
//! reproducible stream of pseudo-random values so that all sorting variants
//! are measured on byte-identical inputs.
//!
//! We implement SplitMix64 (for seeding) and Xoshiro256++ (for the main
//! stream).  Both are tiny, allocation-free and fully deterministic given a
//! seed, which keeps experiments reproducible without pulling a large
//! dependency into the hot scheduling path.

/// SplitMix64 generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256`], and for cheap per-worker seeds derived from the worker id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256++ generator: the workhorse PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator, expanding `seed` with SplitMix64 as recommended
    /// by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot produce
        // four consecutive zeros, but be defensive anyway.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32-bit value (upper half of the 64-bit output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed value in `[0, bound)` using Lemire's
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    #[inline]
    pub fn next_usize_below(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A per-worker RNG seeded from the worker id and a global seed, so that runs
/// are reproducible while different workers still draw independent streams.
pub fn worker_rng(global_seed: u64, worker_id: usize) -> Xoshiro256 {
    let mut sm = SplitMix64::new(global_seed ^ 0xD6E8_FEB8_6659_FD93);
    let base = sm.next_u64();
    Xoshiro256::new(base.wrapping_add((worker_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_is_deterministic_and_non_degenerate() {
        let mut a = SplitMix64::new(1234567);
        let mut b = SplitMix64::new(1234567);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        // Outputs must not repeat over a short window and must not be all zero.
        let mut sorted = va.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), va.len());
        assert!(va.iter().any(|&x| x != 0));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 4, "streams from different seeds should differ");
    }

    #[test]
    fn worker_rngs_are_independent() {
        let mut a = worker_rng(7, 0);
        let mut b = worker_rng(7, 1);
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 4);
    }

    #[test]
    fn next_below_covers_all_residues() {
        let mut rng = Xoshiro256::new(99);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            seen[rng.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn next_below_zero_panics() {
        let mut rng = Xoshiro256::new(0);
        let _ = rng.next_below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    proptest! {
        #[test]
        fn next_below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = Xoshiro256::new(seed);
            for _ in 0..32 {
                prop_assert!(rng.next_below(bound) < bound);
            }
        }

        #[test]
        fn rough_uniformity(seed in any::<u64>()) {
            // chi-square-ish sanity check over 16 buckets.
            let mut rng = Xoshiro256::new(seed);
            let mut counts = [0u32; 16];
            let n = 16_000;
            for _ in 0..n {
                counts[rng.next_below(16) as usize] += 1;
            }
            let expected = n as f64 / 16.0;
            for &c in &counts {
                // Each bucket within 25% of expectation (very loose; catches
                // catastrophic bias only).
                prop_assert!((c as f64 - expected).abs() < expected * 0.25);
            }
        }
    }
}
