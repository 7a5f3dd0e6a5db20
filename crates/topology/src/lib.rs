//! Thread hierarchy, deterministic partner computation and team boundary
//! math for the team-building work-stealer.
//!
//! The paper (Section 3) assigns every hardware thread a fixed integer id
//! `I ∈ [0, p)` and derives, for each *level* `ℓ = 0 … log p − 1`, a unique
//! partner obtained by flipping bit `ℓ` of `I`.  Steal attempts and
//! team-building visits those `log p` partners in order, which guarantees two
//! properties the whole scheduler rests on:
//!
//! 1. the set of threads that can ever register at a given coordinator for a
//!    team of size `2^ℓ` is exactly the aligned block of `2^ℓ` consecutive
//!    ids containing the coordinator, so teams are always of the form
//!    `{kr, kr+1, …, (k+1)r − 1}`, and
//! 2. every thread can compute its local id inside a team from the team size
//!    and its own global id alone (Section 3.1).
//!
//! This crate packages that arithmetic as [`Topology`], whose one
//! constructor [`Topology::balanced`] derives the hierarchy from `p` alone:
//!
//! * for powers of two, the classic case: level sizes `1, 2, 4, …, p` and
//!   partners by bit flipping,
//! * **Refinement 3** — an arbitrary number of hardware threads via a
//!   hierarchy of level sizes `n_ℓ` with `n_{ℓ-1} < n_ℓ ≤ 2·n_{ℓ-1}`
//!   (halving `p`, rounding up) and precomputed per-thread partner arrays,
//! * **Refinement 4** — randomization of the partner *within* a level
//!   ([`Topology::partner_randomized`]).
//!
//! [`Domains`] derives the injection-shard map from the same hierarchy.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod domains;
mod hierarchy;

pub use domains::Domains;
pub use hierarchy::Topology;

/// Policy for choosing a steal / team-building partner at a given level.
///
/// * [`StealPolicy::Deterministic`] is the paper's base scheme (bit
///   flipping / precomputed partner array).
/// * [`StealPolicy::RandomizedWithinLevel`] is Refinement 4: the partner at
///   level `ℓ` is drawn uniformly from all ids that differ from the stealing
///   thread in bit `ℓ` and arbitrarily in the bits below `ℓ`, preserving the
///   hierarchy while avoiding degenerate idle patterns.
/// * [`StealPolicy::UniformRandom`] is classic randomized work-stealing
///   (uniformly random victim, no hierarchy) — the paper's *Randfork*
///   baseline.  Team-building is not supported under this policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StealPolicy {
    /// Deterministic bit-flip / precomputed partner (paper, Section 3).
    #[default]
    Deterministic,
    /// Randomize the bits below the flipped bit (paper, Refinement 4).
    RandomizedWithinLevel,
    /// Uniformly random victim (classic randomized work-stealing).
    UniformRandom,
}
