//! Benchmark input distributions and verification helpers.
//!
//! The paper's evaluation (Section 5) sorts 4-byte integers drawn from the
//! four input distributions used by Helman, Bader & JáJá and by Tsigas &
//! Zhang: **uniformly random**, **Gaussian**, **Bucket-sorted** and
//! **Staggered**.  This crate generates those inputs deterministically (same
//! seed ⇒ byte-identical input for every sorting variant, which is how the
//! paper's tables keep the comparison fair) and provides the checkers used by
//! tests and the benchmark harness to validate sorted output.

#![warn(missing_docs)]

use teamsteal_util::rng::Xoshiro256;

/// The input distributions of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Uniformly random 32-bit values (the paper's *Random*).
    Random,
    /// Approximately Gaussian values: the average of four uniform samples
    /// (the construction used by Helman/Bader/JáJá; the paper's *Gauss*).
    Gauss,
    /// *Bucket sorted*: the input is split into `p` blocks and every block
    /// contains, in order, `n / p²` values from each of the `p` equal value
    /// ranges — globally unsorted but locally "bucketized".
    Buckets,
    /// *Staggered*: the input is split into `p` blocks; block `i` holds
    /// values from a single value range chosen so that ranges of consecutive
    /// blocks are far apart (the classic adversarial input for
    /// sample-partitioning sorts).
    Staggered,
}

impl Distribution {
    /// All four distributions in the order the paper's tables list them.
    pub const ALL: [Distribution; 4] = [
        Distribution::Random,
        Distribution::Gauss,
        Distribution::Buckets,
        Distribution::Staggered,
    ];

    /// Table label used by the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Distribution::Random => "Random",
            Distribution::Gauss => "Gauss",
            Distribution::Buckets => "Buckets",
            Distribution::Staggered => "Staggered",
        }
    }

    /// Generates `n` values of this distribution.
    ///
    /// `p` is the block parameter of the Buckets / Staggered distributions
    /// (the paper uses the number of hardware threads); it is ignored by
    /// Random and Gauss.  The output is fully determined by
    /// `(self, n, p, seed)`.
    pub fn generate(&self, n: usize, p: usize, seed: u64) -> Vec<u32> {
        let mut rng = Xoshiro256::new(seed ^ 0xD15C_0DE5_EED5_EED5);
        match self {
            Distribution::Random => random(n, &mut rng),
            Distribution::Gauss => gauss(n, &mut rng),
            Distribution::Buckets => buckets(n, p.max(1), &mut rng),
            Distribution::Staggered => staggered(n, p.max(1), &mut rng),
        }
    }
}

fn random(n: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    (0..n).map(|_| rng.next_u32()).collect()
}

fn gauss(n: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let sum: u64 = (0..4).map(|_| rng.next_u32() as u64).sum();
            (sum / 4) as u32
        })
        .collect()
}

fn buckets(n: usize, p: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    // p blocks; each block holds p sub-runs, the j-th sub-run containing
    // values from the j-th of p equal ranges of [0, 2^32).
    let range = (u32::MAX as u64 + 1) / p as u64;
    let mut out = Vec::with_capacity(n);
    let block_len = n / p;
    for block in 0..p {
        let this_block = if block == p - 1 {
            n - block_len * (p - 1)
        } else {
            block_len
        };
        let sub = this_block / p;
        for j in 0..p {
            let lo = j as u64 * range;
            let count = if j == p - 1 {
                this_block - sub * (p - 1)
            } else {
                sub
            };
            for _ in 0..count {
                out.push((lo + rng.next_below(range.max(1))) as u32);
            }
        }
    }
    debug_assert_eq!(out.len(), n);
    out
}

fn staggered(n: usize, p: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    // p blocks; block i draws from range number f(i) where the first half of
    // the blocks map to the odd ranges and the second half to the even ones,
    // so consecutive blocks are far apart in value space.
    let range = (u32::MAX as u64 + 1) / p as u64;
    let mut out = Vec::with_capacity(n);
    let block_len = n / p;
    for block in 0..p {
        let this_block = if block == p - 1 {
            n - block_len * (p - 1)
        } else {
            block_len
        };
        let target = if block < p / 2 {
            2 * block + 1
        } else {
            2 * (block - p / 2)
        }
        .min(p - 1);
        let lo = target as u64 * range;
        for _ in 0..this_block {
            out.push((lo + rng.next_below(range.max(1))) as u32);
        }
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Returns `true` if `data` is sorted in non-decreasing order.
pub fn is_sorted(data: &[u32]) -> bool {
    data.windows(2).all(|w| w[0] <= w[1])
}

/// Returns `true` if `candidate` is a permutation of `original` (checked via
/// sorting copies; intended for tests and harness validation, not hot paths).
pub fn is_permutation_of(original: &[u32], candidate: &[u32]) -> bool {
    if original.len() != candidate.len() {
        return false;
    }
    let mut a = original.to_vec();
    let mut b = candidate.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// The input sizes used in the paper's tables: three decimal sizes and three
/// `2^k − 1` sizes, scaled by dividing the exponents / magnitudes so the
/// whole ladder fits the available machine.
///
/// * `Scale::Paper` reproduces the exact sizes of Tables 1–10
///   (up to 10⁹ elements ≈ 4 GB per array),
/// * `Scale::Medium` divides the ladder by ~2⁶,
/// * `Scale::Ci` divides it by ~2¹⁰ so a full table run finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's original sizes.
    Paper,
    /// Roughly 64× smaller than the paper.
    Medium,
    /// Roughly 1000× smaller than the paper (CI-friendly).
    Ci,
}

impl Scale {
    /// The six input sizes of the paper's tables at this scale, in the order
    /// the tables list them (decimal sizes first, then `2^k − 1` sizes).
    pub fn sizes(&self) -> Vec<usize> {
        match self {
            Scale::Paper => vec![
                10_000_000,
                100_000_000,
                1_000_000_000,
                (1 << 23) - 1,
                (1 << 25) - 1,
                (1 << 27) - 1,
            ],
            Scale::Medium => vec![
                156_250,
                1_562_500,
                15_625_000,
                (1 << 17) - 1,
                (1 << 19) - 1,
                (1 << 21) - 1,
            ],
            Scale::Ci => vec![
                10_000,
                100_000,
                1_000_000,
                (1 << 13) - 1,
                (1 << 15) - 1,
                (1 << 17) - 1,
            ],
        }
    }

    /// Parses a scale name (`paper`, `medium`, `ci`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "paper" | "full" => Some(Scale::Paper),
            "medium" => Some(Scale::Medium),
            "ci" | "small" => Some(Scale::Ci),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(
            Distribution::ALL.map(|d| d.label()),
            ["Random", "Gauss", "Buckets", "Staggered"]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        for d in Distribution::ALL {
            let a = d.generate(10_000, 8, 42);
            let b = d.generate(10_000, 8, 42);
            assert_eq!(a, b, "{d:?} must be reproducible");
            let c = d.generate(10_000, 8, 43);
            assert_ne!(a, c, "{d:?} must depend on the seed");
        }
    }

    #[test]
    fn exact_lengths_for_awkward_sizes() {
        for d in Distribution::ALL {
            for &n in &[0usize, 1, 7, 63, 1000, 1017] {
                for &p in &[1usize, 3, 8, 32] {
                    assert_eq!(d.generate(n, p, 1).len(), n, "{d:?} n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn gauss_is_concentrated_around_the_middle() {
        let data = Distribution::Gauss.generate(100_000, 8, 7);
        let mid_band = data
            .iter()
            .filter(|&&x| (u32::MAX / 4..=3 * (u32::MAX / 4)).contains(&x))
            .count();
        // For the average of 4 uniforms, well over 90% of the mass lies in the
        // central half of the range; uniform data would have ~50%.
        assert!(
            mid_band as f64 > 0.9 * data.len() as f64,
            "only {mid_band} of {} values in the central band",
            data.len()
        );
    }

    #[test]
    fn buckets_blocks_cycle_through_ranges() {
        let p = 4;
        let n = 16_000;
        let data = Distribution::Buckets.generate(n, p, 3);
        // Within the first block (n/p values) the first n/p² values must come
        // from the lowest quarter of the value range.
        let sub = n / (p * p);
        let quarter = u32::MAX / 4;
        assert!(data[..sub].iter().all(|&x| x <= quarter));
        // ... and the last n/p² values of the first block from the top quarter.
        let block = n / p;
        assert!(data[block - sub..block]
            .iter()
            .all(|&x| x >= 3 * quarter - 3));
    }

    #[test]
    fn staggered_first_block_is_far_from_minimum() {
        let p = 8;
        let n = 8_000;
        let data = Distribution::Staggered.generate(n, p, 9);
        let block = n / p;
        let range = (u32::MAX as u64 + 1) / p as u64;
        // Block 0 draws from range index 1, i.e. [range, 2*range).
        assert!(data[..block]
            .iter()
            .all(|&x| (x as u64) >= range && (x as u64) < 2 * range));
    }

    #[test]
    fn sortedness_and_permutation_checkers() {
        assert!(is_sorted(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2, 5]));
        assert!(!is_sorted(&[2, 1]));
        assert!(is_permutation_of(&[3, 1, 2], &[1, 2, 3]));
        assert!(!is_permutation_of(&[1, 2], &[1, 1]));
        assert!(!is_permutation_of(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn scales_keep_the_ladder_shape() {
        for scale in [Scale::Paper, Scale::Medium, Scale::Ci] {
            let sizes = scale.sizes();
            assert_eq!(sizes.len(), 6);
            // Decimal part ascends, power-of-two part ascends.
            assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
            assert!(sizes[3] < sizes[4] && sizes[4] < sizes[5]);
        }
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("CI"), Some(Scale::Ci));
        assert_eq!(Scale::parse("bogus"), None);
    }

    proptest! {
        #[test]
        fn every_distribution_generates_requested_length(
            n in 0usize..5000, p in 1usize..40, seed in any::<u64>()
        ) {
            for d in Distribution::ALL {
                prop_assert_eq!(d.generate(n, p, seed).len(), n);
            }
        }
    }
}
