//! Scheduler configuration and tunable parameters.
//!
//! Section 4 of the paper lists the tunables of the prototype: backoff
//! intervals, the number of tasks to steal, and (for the evaluation) whether
//! stealing is deterministic or randomized.  [`SchedulerConfig`] is that
//! list — thread count, machine topology, steal policy and seed — plus the
//! two sizes a deployment sets: the injection-shard width and the external
//! submitter pool.  The steal amount is fixed at the paper's default (`2^ℓ`,
//! capped at half the victim's queue — `worker::steal::steal_amount`), and
//! the backoff intervals are constants of the parking protocol
//! (`PARK_SPIN_ROUNDS`, `HANDSHAKE_POLL`, `PARK_BACKSTOP`, `WARM_KEEPALIVE`
//! in `worker`).

use teamsteal_topology::{StealPolicy, Topology};

/// Configuration of a [`Scheduler`](crate::Scheduler).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Number of worker threads (the paper's `p`).
    pub num_threads: usize,
    /// Machine hierarchy.  Defaults to [`Topology::balanced`] over
    /// `num_threads`.
    pub topology: Option<Topology>,
    /// Victim / partner selection policy.
    pub steal_policy: StealPolicy,
    /// Seed for the per-worker PRNGs (randomized policies and tie-breaking).
    pub seed: u64,
    /// Maximum worker count per injection-shard **domain** (DESIGN.md §13).
    /// The external injection queue is sharded per domain: the domains are
    /// the groups of the largest hierarchy level whose nominal size is at
    /// most this width, so the default of 8 gives one shard per 8-worker
    /// neighbourhood (and machines with `p ≤ 8` keep a single shard, the
    /// pre-sharding behaviour).  A width ≥ `p` forces a single shard; a
    /// width of 1 gives one shard per worker.
    pub domain_width: usize,
    /// Epoch-participant slots pre-registered for threads *outside* the
    /// worker pool (DESIGN.md §11): every `Scheduler::scope` submitter
    /// borrows one slot with a single CAS around each injector access.  With
    /// more simultaneous submitters than slots, the surplus spin-waits for a
    /// free slot (counted in `external_pin_waits`) — harmless for a handful
    /// of threads, a hard convoy for service front-ends with hundreds of
    /// them.  Size this at least as large as the peak number of threads that
    /// submit concurrently; the default of 32 preserves the pre-service
    /// behaviour.  Values below 1 are clamped to 1.
    pub external_participants: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            topology: None,
            steal_policy: StealPolicy::Deterministic,
            seed: 0x7465616d_73746561, // "teamstea(l)"
            domain_width: 8,
            external_participants: 32,
        }
    }
}

impl SchedulerConfig {
    /// Creates a configuration for `num_threads` workers with all other
    /// parameters at their defaults.
    pub fn with_threads(num_threads: usize) -> Self {
        SchedulerConfig {
            num_threads,
            ..Default::default()
        }
    }

    /// Resolves the topology: the explicit one if provided (its size must
    /// match `num_threads`), otherwise a balanced hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if an explicit topology disagrees with `num_threads` or if
    /// `num_threads` is zero.
    pub fn resolve_topology(&self) -> Topology {
        assert!(self.num_threads > 0, "scheduler needs at least one thread");
        match &self.topology {
            Some(t) => {
                assert_eq!(
                    t.num_threads(),
                    self.num_threads,
                    "topology size must match num_threads"
                );
                t.clone()
            }
            None => Topology::balanced(self.num_threads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_available_parallelism() {
        let c = SchedulerConfig::default();
        assert!(c.num_threads >= 1);
        assert_eq!(c.steal_policy, StealPolicy::Deterministic);
    }

    #[test]
    fn default_domain_width_keeps_small_machines_single_shard() {
        use teamsteal_topology::Domains;
        let c = SchedulerConfig::with_threads(4);
        let domains = Domains::new(&c.resolve_topology(), c.domain_width);
        assert_eq!(domains.num_domains(), 1);
        // A 32-thread machine shards at the default width of 8.
        let c = SchedulerConfig::with_threads(32);
        let domains = Domains::new(&c.resolve_topology(), c.domain_width);
        assert_eq!(domains.num_domains(), 4);
    }

    #[test]
    fn resolve_topology_balanced_by_default() {
        let c = SchedulerConfig::with_threads(6);
        let t = c.resolve_topology();
        assert_eq!(t.num_threads(), 6);
        assert_eq!(t.level_sizes(), &[1, 2, 3, 6]);
    }

    #[test]
    #[should_panic]
    fn mismatched_topology_is_rejected() {
        let mut c = SchedulerConfig::with_threads(4);
        c.topology = Some(Topology::balanced(8));
        let _ = c.resolve_topology();
    }
}
