//! Per-tenant admission: one lock-free token bucket per tenant
//! (DESIGN.md §16).
//!
//! The bucket is the *cumulative-credit* formulation of the classic token
//! bucket, which needs no refill thread and no lock: `credited(t)` — the
//! total microtokens ever poured into the bucket by time `t` — is a pure
//! function of elapsed time, and the only mutable state is one atomic
//! cumulative `consumed` counter.  A submission admits itself with a single
//! CAS; overflow (the "bucket is full, extra tokens spill" rule) is the
//! `max(consumed, credited − burst)` floor applied inside the same CAS
//! loop.
//!
//! Weighted fairness falls out of the refill law: tenant `i` accrues
//! `rate × weightᵢ` tokens per second, so when every tenant saturates its
//! bucket, admitted throughput converges to the weight ratio regardless of
//! offered-load skew (the proptests in this module drive randomized
//! weight/arrival sequences at that invariant).  The service gives every
//! tenant weight 1, so its tenants share the refill rate equally.
//!
//! Time is passed in explicitly (microseconds since bucket creation), which
//! keeps the arithmetic deterministic for the accounting proptests; the
//! service layer supplies real elapsed time from its `Instant` clock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Microtokens per task: one admission costs `MICRO` µtokens, so weighted
/// refill rates stay integral (`rate × weight` µtokens per µs is exactly
/// `rate × weight` tasks per second).
pub const MICRO: u64 = 1_000_000;

/// A lock-free weighted token bucket.  See the module docs.
pub struct TokenBucket {
    /// Refill rate in µtokens per µs (== admitted tasks per second at
    /// saturation).
    rate_ut_per_us: u64,
    /// Bucket capacity in µtokens: how large a burst can be admitted from a
    /// full bucket ahead of the refill rate.  The bucket starts full.
    burst_ut: u64,
    /// Cumulative µtokens consumed over the bucket's lifetime.  Includes
    /// spilled tokens (the floor jump below), so this is *not* a task
    /// count — see `admitted`.
    consumed: AtomicU64,
    /// Cumulative successful admissions, in tasks.  Kept separately from
    /// `consumed` because the spill floor advances `consumed` by more than
    /// [`MICRO`] per admission after an idle gap.
    admitted: AtomicU64,
}

/// A failed admission: the bucket is short `shortfall_ut` µtokens, which
/// the refill law pours in after `shortfall_ut / (rate × weight)` µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shortfall {
    /// Missing µtokens at the probed instant.
    pub shortfall_ut: u64,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate_tasks_per_sec × weight` tasks
    /// per second with capacity `burst_tasks` (clamped to ≥ 1 task so a
    /// fresh bucket can always admit something).  A zero rate or weight is
    /// clamped to the minimum 1 µtoken/µs product — admission control
    /// throttles tenants, it never blackholes them.
    pub fn new(rate_tasks_per_sec: u64, weight: u64, burst_tasks: u64) -> Self {
        TokenBucket {
            rate_ut_per_us: rate_tasks_per_sec.saturating_mul(weight).max(1),
            burst_ut: burst_tasks.max(1).saturating_mul(MICRO),
            consumed: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        }
    }

    /// Total µtokens poured into the bucket by `now_us` µs after creation:
    /// the initial full bucket plus the refill law.  Monotone in `now_us`
    /// by construction (the refill proptest pins this down).
    pub fn credited_ut(&self, now_us: u64) -> u64 {
        self.burst_ut
            .saturating_add(now_us.saturating_mul(self.rate_ut_per_us))
    }

    /// Attempts to admit one task at `now_us` µs after creation.  Lock-free:
    /// one CAS on success, and concurrent callers cannot over-admit because
    /// each one moves the shared cumulative counter by exactly [`MICRO`].
    pub fn try_acquire_at(&self, now_us: u64) -> Result<(), Shortfall> {
        let credited = self.credited_ut(now_us);
        let floor = credited - self.burst_ut; // never underflows: credited ≥ burst
        loop {
            let consumed = self.consumed.load(Ordering::Relaxed);
            // Tokens beyond the bucket capacity spilled: consumption can
            // never lag more than `burst` behind the credit line.
            let base = consumed.max(floor);
            let next = base.saturating_add(MICRO);
            if next > credited {
                return Err(Shortfall {
                    shortfall_ut: next - credited,
                });
            }
            if self
                .consumed
                .compare_exchange_weak(consumed, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
    }

    /// Cumulative admitted tasks.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_bucket_admits_burst_then_rejects() {
        let bucket = TokenBucket::new(1_000, 1, 4);
        for _ in 0..4 {
            assert!(bucket.try_acquire_at(0).is_ok());
        }
        let shortfall = bucket.try_acquire_at(0).unwrap_err();
        assert_eq!(shortfall.shortfall_ut, MICRO);
        // 1000 tasks/s == one task per 1000 µs.
        assert!(bucket.try_acquire_at(999).is_err());
        assert!(bucket.try_acquire_at(1_000).is_ok());
    }

    #[test]
    fn idle_bucket_never_accrues_past_burst() {
        let bucket = TokenBucket::new(1_000_000, 1, 2);
        // A long idle period spills everything beyond the 2-task capacity.
        let now = 60_000_000;
        assert!(bucket.try_acquire_at(now).is_ok());
        assert!(bucket.try_acquire_at(now).is_ok());
        assert!(bucket.try_acquire_at(now).is_err());
    }

    #[test]
    fn zero_rate_and_weight_are_clamped_alive() {
        let bucket = TokenBucket::new(0, 0, 1);
        assert!(bucket.try_acquire_at(0).is_ok());
        // 1 µtoken/µs == one task per second.
        assert!(bucket.try_acquire_at(999_999).is_err());
        assert!(bucket.try_acquire_at(1_000_000).is_ok());
    }

    proptest! {
        /// Token conservation: over any arrival sequence, every offered
        /// submission is either admitted or rejected (never both, never
        /// neither), and admitted work never exceeds the credit line.
        #[test]
        fn conservation_admitted_plus_rejected_is_offered(
            rate in 1u64..2_000,
            weight in 1u64..16,
            burst in 1u64..32,
            steps in proptest::collection::vec(0u64..5_000, 1..200),
        ) {
            let bucket = TokenBucket::new(rate, weight, burst);
            let mut now = 0u64;
            let mut offered = 0u64;
            let mut admitted = 0u64;
            let mut rejected = 0u64;
            for step in steps {
                now += step;
                offered += 1;
                match bucket.try_acquire_at(now) {
                    Ok(()) => admitted += 1,
                    Err(s) => {
                        prop_assert!(s.shortfall_ut > 0);
                        rejected += 1;
                    }
                }
                prop_assert_eq!(admitted + rejected, offered);
                prop_assert_eq!(bucket.admitted(), admitted);
                // Admission never outruns the credit line.
                prop_assert!(admitted.saturating_mul(MICRO) <= bucket.credited_ut(now));
            }
        }

        /// Refill monotonicity: the credit line never decreases as time
        /// advances, and a rejection's shortfall is honest — re-probing
        /// once the refill law has covered it (with no competing consumer)
        /// succeeds.
        #[test]
        fn refill_is_monotone_and_wait_hints_are_honest(
            rate in 1u64..2_000,
            weight in 1u64..16,
            burst in 1u64..32,
            times in proptest::collection::vec(0u64..10_000_000, 2..100),
        ) {
            let bucket = TokenBucket::new(rate, weight, burst);
            let mut sorted = times.clone();
            sorted.sort_unstable();
            for pair in sorted.windows(2) {
                prop_assert!(bucket.credited_ut(pair[0]) <= bucket.credited_ut(pair[1]));
            }
            // Drain the initial burst, then check the shortfall at a probe
            // point: `rate × weight` µtokens accrue per µs.
            let probe = sorted[0];
            while bucket.try_acquire_at(probe).is_ok() {}
            let shortfall = bucket.try_acquire_at(probe).unwrap_err();
            let wait_us = shortfall.shortfall_ut.div_ceil(rate * weight);
            prop_assert!(bucket.try_acquire_at(probe + wait_us).is_ok());
        }

        /// Weighted-fair convergence: two saturating tenants with weights
        /// (w1, w2) see admitted ratios converge to w1/w2 — independent of
        /// how skewed the *offered* interleaving is — once both run long
        /// enough that the burst transient is amortized.
        #[test]
        fn saturated_share_converges_to_weights(
            rate in 10u64..200,
            w1 in 1u64..8,
            w2 in 1u64..8,
            skew in 1usize..50,
        ) {
            let burst = 1;
            let a = TokenBucket::new(rate, w1, burst);
            let b = TokenBucket::new(rate, w2, burst);
            // Offered load: tenant A probes `skew` times per µs-step,
            // tenant B once — a skew:1 offered-load imbalance.  Both
            // saturate (offered ≫ refill), so admission follows refill.
            let horizon_us = 2_000_000 / rate; // ≈ 2·(w1+w2) tasks of budget
            let step = (horizon_us / 1_000).max(1);
            let mut now = 0;
            while now < horizon_us {
                now += step;
                for _ in 0..skew {
                    let _ = a.try_acquire_at(now);
                }
                let _ = b.try_acquire_at(now);
            }
            let fair = |w: u64| (rate * w * now) / MICRO;
            // Within the burst transient (±1 task) of the ideal share.
            let near = |admitted: u64, ideal: u64| {
                admitted + 1 >= ideal && admitted <= ideal + burst + 1
            };
            prop_assert!(
                near(a.admitted(), fair(w1)),
                "tenant A admitted {} vs fair share {}", a.admitted(), fair(w1)
            );
            prop_assert!(
                near(b.admitted(), fair(w2)),
                "tenant B admitted {} vs fair share {}", b.admitted(), fair(w2)
            );
        }
    }
}
