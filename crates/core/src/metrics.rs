//! Scheduler observability: per-worker and aggregated counters.
//!
//! The counters exist for three reasons: the degenerate-case claim of the
//! paper ("if all tasks require `r = 1` … the additional CAS … are never
//! executed") is directly testable through them, the ablation benchmarks
//! report them, and they make scheduler tests meaningful (e.g. "stealing
//! actually happened" rather than "the result happened to be correct").
//!
//! The counter list is written once, in the `counters!` invocation below:
//! it generates the crate-private per-worker counter struct,
//! [`MetricsSnapshot`] and everything that walks the fields, so a new
//! counter is one line there plus its `inc()`/`add()` site in the worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets in the wake-latency histogram.
pub const WAKE_LATENCY_BUCKETS: usize = 8;

/// Upper bounds (exclusive, in microseconds) of the wake-latency buckets;
/// the last bucket is unbounded.  Factor-4 spacing from 1 µs to 4 ms covers
/// everything between "futex fast path" and "the backstop fired".
pub const WAKE_LATENCY_BOUNDS_US: [u64; WAKE_LATENCY_BUCKETS - 1] = [1, 4, 16, 64, 256, 1024, 4096];

/// Index of the bucket a wake latency falls into.
fn wake_latency_bucket(latency: Duration) -> usize {
    let us = latency.as_micros() as u64;
    WAKE_LATENCY_BOUNDS_US
        .iter()
        .position(|&bound| us < bound)
        .unwrap_or(WAKE_LATENCY_BUCKETS - 1)
}

/// One relaxed event counter: a statistic that publishes no other data.
///
/// **Single writer.**  Only the worker that owns the counter may call
/// [`inc`](Self::inc) or [`add`](Self::add): an increment is a relaxed load
/// and a relaxed store, not a locked read-modify-write, so two writers
/// would lose counts.  Every increment in the scheduler goes through the
/// incrementing worker's own `Worker::me()`.  Any thread may read
/// ([`get`](Self::get)); a reader sees some recent value.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds one.  Owner only (see the type's docs).
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.  Owner only (see the type's docs).
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        let value = self.0.load(Ordering::Relaxed).wrapping_add(n);
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Generates the counter structs and every function that enumerates their
/// fields from one list.  `worker` counters are incremented by the worker
/// that owns them; `aggregate` counters exist only in snapshots (the
/// scheduler-wide aggregate fills them in).
macro_rules! counters {
    (
        worker { $( $(#[$wdoc:meta])* $w:ident, )* }
        aggregate { $( $(#[$adoc:meta])* $a:ident, )* }
    ) => {
        /// Relaxed event counters owned by one worker, which alone writes
        /// them (see [`Counter`]).
        #[derive(Debug, Default)]
        pub(crate) struct WorkerCounters {
            $( $(#[$wdoc])* pub(crate) $w: Counter, )*
            /// Histogram of notification-to-wake latencies for parks that
            /// were explicitly claimed by a notifier (bucket bounds:
            /// [`WAKE_LATENCY_BOUNDS_US`]).
            pub(crate) wake_latency: [Counter; WAKE_LATENCY_BUCKETS],
        }

        impl WorkerCounters {
            /// Snapshot of this worker's counters.
            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $w: self.$w.get(), )*
                    $( $a: 0, )*
                    wake_latency: WakeLatencyHistogram {
                        buckets: std::array::from_fn(|i| self.wake_latency[i].get()),
                    },
                }
            }

            /// Every counter with its field name, in declaration order.
            #[cfg(test)]
            fn counters(&self) -> Vec<(&'static str, &Counter)> {
                vec![$( (stringify!($w), &self.$w), )*]
            }
        }

        /// A point-in-time copy of the counters, either of one worker or
        /// aggregated over the whole scheduler.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$wdoc])* pub $w: u64, )*
            $( $(#[$adoc])* pub $a: u64, )*
            /// Notification-to-wake latency histogram for claimed parks.
            pub wake_latency: WakeLatencyHistogram,
        }

        impl MetricsSnapshot {
            /// Every scalar counter with its field name, in declaration
            /// order (the wake-latency histogram is not a scalar and is
            /// not listed).
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [
                    $( (stringify!($w), self.$w), )*
                    $( (stringify!($a), self.$a), )*
                ]
                .into_iter()
            }

            /// Builds a snapshot by asking `value_of` for every scalar
            /// counter by field name — the inverse of
            /// [`counters`](Self::counters).  The histogram starts empty.
            pub fn try_from_counters<E>(
                mut value_of: impl FnMut(&'static str) -> Result<u64, E>,
            ) -> Result<MetricsSnapshot, E> {
                Ok(MetricsSnapshot {
                    $( $w: value_of(stringify!($w))?, )*
                    $( $a: value_of(stringify!($a))?, )*
                    wake_latency: WakeLatencyHistogram::default(),
                })
            }

            /// Field-wise `f(self, other)`, histogram buckets included.
            fn combine(&self, other: &MetricsSnapshot, f: impl Fn(u64, u64) -> u64) -> Self {
                MetricsSnapshot {
                    $( $w: f(self.$w, other.$w), )*
                    $( $a: f(self.$a, other.$a), )*
                    wake_latency: WakeLatencyHistogram {
                        buckets: std::array::from_fn(|i| {
                            f(self.wake_latency.buckets[i], other.wake_latency.buckets[i])
                        }),
                    },
                }
            }
        }
    };
}

counters! {
    worker {
        /// Sequential (`r = 1`) tasks executed.
        tasks_executed,
        /// Team-task executions (counted once per participating worker).
        team_tasks_executed,
        /// Teams formed (counted at the coordinator).
        teams_formed,
        /// Team-task publications onto a *freshly built* team — the
        /// coordinator paid the full §8 protocol (partner visits,
        /// registration, countdown) for this task.  Together with
        /// `team_reuses` this gives the warm-reuse hit rate (DESIGN.md §15).
        teams_built,
        /// Team-task publications onto a still-warm team from a previous
        /// task: the whole build protocol was skipped — one `try_reuse` load
        /// plus the publication seqlock write.
        team_reuses,
        /// Successful registrations at a foreign coordinator (each one is
        /// exactly one CAS — the paper's "single extra CAS").
        registrations,
        /// Successful steal operations (at least one task transferred).
        steals,
        /// Tasks received through stealing.
        tasks_stolen,
        /// Successful steals whose victim shares the thief's hierarchy
        /// domain (the `injector_local_pops` analogue for the steal path,
        /// DESIGN.md §13/§15): `steals_remote / (steals_local +
        /// steals_remote)` is the cross-domain steal share.
        steals_local,
        /// Successful steals from a victim in a foreign hierarchy domain.
        steals_remote,
        /// Steal rounds that visited every partner without finding anything.
        failed_steal_rounds,
        /// Steals performed while helping a smaller task during coordination
        /// (Algorithm 8, lines 21–29).
        help_steals,
        /// Tasks spawned from running tasks.
        tasks_spawned,
        /// CAS failures on registration structures.
        cas_failures,
        /// Task nodes served from a worker's recycling arena instead of
        /// fresh memory (`nodes_recycled / tasks_spawned` is the arena hit
        /// rate).
        nodes_recycled,
        /// Externally injected root tasks pulled from the injection queue.
        tasks_injected,
        /// Injected tasks popped from the popping worker's **own** domain's
        /// injector shard (DESIGN.md §13).  `injector_remote_pops / (local +
        /// remote)` is the remote-pop share — the locality cost of injection.
        injector_local_pops,
        /// Injected tasks popped from a foreign domain's shard during the
        /// distance-ordered sweep.
        injector_remote_pops,
        /// Liveness-backstop triggers (coordinator re-announcement or member
        /// re-registration after a long unproductive poll).  Zero in healthy
        /// runs.
        liveness_resyncs,
        /// Consumed injection-queue segments freed while collecting the
        /// epoch domain at a quiescent point (DESIGN.md §11).
        segments_reclaimed,
        /// Retired deque growth buffers freed while collecting the epoch
        /// domain.
        buffers_reclaimed,
        /// Global epoch advances won by collection calls.
        epoch_advances,
        /// Eventcount parks committed (blocked on the OS instead of
        /// sleep-polling; DESIGN.md §12).
        parks,
        /// Parks that ended through an explicit notification (a targeted
        /// claim or a ticket movement) rather than the defensive backstop.
        wakeups,
        /// Parks that ended through the backstop timeout.  (Almost) zero in
        /// healthy runs; growth means a state change forgot its notify call.
        spurious_wakes,
        /// Tasks dropped without running because their deadline had already
        /// passed when a worker picked them up (DESIGN.md §17).  The scope
        /// countdown and completion accounting still fire exactly once.
        tasks_expired,
        /// Tasks dropped without running because their cancel token was
        /// cancelled before the claim-to-run CAS (DESIGN.md §17).
        tasks_cancelled,
    }
    aggregate {
        /// Exhaustion-backoff episodes of external submitters waiting for a
        /// free epoch-pin slot (filled in by the scheduler-wide aggregate,
        /// which owns the shared pin array).
        external_pin_waits,
    }
}

impl WorkerCounters {
    /// Records one notification-to-wake latency sample.
    #[inline]
    pub(crate) fn record_wake_latency(&self, latency: Duration) {
        self.wake_latency[wake_latency_bucket(latency)].inc();
    }
}

/// A point-in-time copy of the wake-latency histogram (bucket bounds:
/// [`WAKE_LATENCY_BOUNDS_US`], last bucket unbounded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeLatencyHistogram {
    /// Sample count per bucket.
    pub buckets: [u64; WAKE_LATENCY_BUCKETS],
}

impl WakeLatencyHistogram {
    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (µs) of the bucket containing the p-th percentile sample,
    /// or `None` when there are no samples or the percentile lands in the
    /// unbounded last bucket.  A coarse but monotone latency summary: "p95
    /// ≤ 16 µs" style statements, which is all the regression gate needs.
    ///
    /// ```
    /// use teamsteal_core::WakeLatencyHistogram;
    ///
    /// let h = WakeLatencyHistogram { buckets: [90, 8, 2, 0, 0, 0, 0, 0] };
    /// assert_eq!(h.percentile_bound_us(50.0), Some(1));
    /// assert_eq!(h.percentile_bound_us(95.0), Some(4));
    /// assert_eq!(h.percentile_bound_us(99.0), Some(16));
    /// ```
    pub fn percentile_bound_us(&self, p: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = (p / 100.0 * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank.max(1) {
                return WAKE_LATENCY_BOUNDS_US.get(i).copied();
            }
        }
        None
    }

    /// Element-wise sum.
    pub fn merge(self, other: WakeLatencyHistogram) -> WakeLatencyHistogram {
        WakeLatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
        }
    }

    /// Element-wise difference, saturating at zero.
    pub fn delta_since(&self, earlier: &WakeLatencyHistogram) -> WakeLatencyHistogram {
        WakeLatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

impl MetricsSnapshot {
    /// Element-wise sum of two snapshots.
    ///
    /// ```
    /// use teamsteal_core::MetricsSnapshot;
    ///
    /// let a = MetricsSnapshot { steals: 2, ..Default::default() };
    /// let b = MetricsSnapshot { steals: 3, teams_formed: 1, ..Default::default() };
    /// let sum = a.merge(b);
    /// assert_eq!(sum.steals, 5);
    /// assert_eq!(sum.teams_formed, 1);
    /// ```
    pub fn merge(self, other: MetricsSnapshot) -> MetricsSnapshot {
        self.combine(&other, |a, b| a + b)
    }

    /// Element-wise difference `self - earlier`, saturating at zero.
    ///
    /// Scheduler counters are cumulative over the scheduler's lifetime; to
    /// attribute events to one measured region, snapshot before and after and
    /// diff.  Saturation (rather than panicking) keeps the result sane if the
    /// two snapshots are accidentally swapped.
    ///
    /// ```
    /// use teamsteal_core::Scheduler;
    ///
    /// let scheduler = Scheduler::with_threads(2);
    /// let before = scheduler.metrics();
    /// scheduler.run_team(2, |ctx| {
    ///     ctx.barrier();
    /// });
    /// let delta = scheduler.metrics().delta_since(&before);
    /// assert_eq!(delta.teams_formed, 1);
    /// ```
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        self.combine(earlier, u64::saturating_sub)
    }

    /// Total number of task executions (sequential + team participations).
    ///
    /// ```
    /// use teamsteal_core::MetricsSnapshot;
    ///
    /// let s = MetricsSnapshot { tasks_executed: 3, team_tasks_executed: 4, ..Default::default() };
    /// assert_eq!(s.total_executions(), 7);
    /// ```
    pub fn total_executions(&self) -> u64 {
        self.tasks_executed + self.team_tasks_executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_increment() {
        let c = WorkerCounters::default();
        assert_eq!(c.snapshot(), MetricsSnapshot::default());
        c.tasks_executed.inc();
        c.tasks_executed.inc();
        c.teams_formed.inc();
        c.tasks_stolen.add(5);
        let s = c.snapshot();
        assert_eq!(s.tasks_executed, 2);
        assert_eq!(s.teams_formed, 1);
        assert_eq!(s.tasks_stolen, 5);
        assert_eq!(s.total_executions(), 2);
    }

    /// Drives every counter of the generated list to its own value, so a
    /// field that `snapshot`, `merge`, `delta_since` or the name/value pair
    /// of `counters`/`try_from_counters` crossed with another would show.
    #[test]
    fn every_counter_has_a_working_incrementer() {
        let c = WorkerCounters::default();
        let fields = c.counters();
        for (i, (_, counter)) in fields.iter().enumerate() {
            counter.add(i as u64 + 1);
        }
        c.record_wake_latency(Duration::from_micros(2));
        let mut s = c.snapshot();
        // The aggregate-only counter is zero in a worker's snapshot; give
        // it its own value for the walk below.
        assert_eq!(s.external_pin_waits, 0);
        s.external_pin_waits = 101;

        let names: Vec<&str> = s.counters().map(|(name, _)| name).collect();
        let worker_names: Vec<&str> = fields.iter().map(|(name, _)| *name).collect();
        assert_eq!(names[..worker_names.len()], worker_names[..]);
        assert_eq!(names[worker_names.len()..], ["external_pin_waits"]);
        let mut distinct = names.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), names.len());
        for (i, (name, value)) in s.counters().enumerate() {
            let expected = if i < worker_names.len() {
                i as u64 + 1
            } else {
                101 + (i - worker_names.len()) as u64
            };
            assert_eq!(value, expected, "snapshot field `{name}`");
        }
        assert_eq!(
            s.tasks_executed, 1,
            "the list starts at the first declared field"
        );
        assert_eq!(s.wake_latency.buckets, [0, 1, 0, 0, 0, 0, 0, 0]);

        // Rebuilding by name gives the same snapshot back.
        let lookup = |name: &'static str| {
            s.counters()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .ok_or(name)
        };
        let mut rebuilt = MetricsSnapshot::try_from_counters(lookup).unwrap();
        rebuilt.wake_latency = s.wake_latency;
        assert_eq!(rebuilt, s);
        assert_eq!(
            MetricsSnapshot::try_from_counters(|name| if name == "parks" {
                Err(name)
            } else {
                Ok(0)
            }),
            Err("parks")
        );

        let doubled = s.merge(s);
        for ((name, twice), (_, once)) in doubled.counters().zip(s.counters()) {
            assert_eq!(twice, 2 * once, "merge field `{name}`");
        }
        assert_eq!(doubled.wake_latency.buckets, [0, 2, 0, 0, 0, 0, 0, 0]);
        assert_eq!(doubled.delta_since(&s), s);
        assert_eq!(s.delta_since(&doubled), MetricsSnapshot::default());
    }

    #[test]
    fn wake_latency_buckets_cover_the_range() {
        let c = WorkerCounters::default();
        c.record_wake_latency(Duration::from_nanos(100)); // < 1 µs
        c.record_wake_latency(Duration::from_micros(3)); // [1, 4)
        c.record_wake_latency(Duration::from_micros(100)); // [64, 256)
        c.record_wake_latency(Duration::from_millis(50)); // >= 4096 µs
        let h = c.snapshot().wake_latency;
        assert_eq!(h.buckets, [1, 1, 0, 0, 1, 0, 0, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.percentile_bound_us(50.0), Some(4));
        assert_eq!(h.percentile_bound_us(100.0), None, "top bucket unbounded");
        assert_eq!(
            WakeLatencyHistogram::default().percentile_bound_us(95.0),
            None
        );
        // Merge and delta are element-wise.
        let merged = h.merge(h);
        assert_eq!(merged.total(), 8);
        assert_eq!(merged.delta_since(&h), h);
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let earlier = MetricsSnapshot {
            tasks_executed: 5,
            steals: 2,
            ..Default::default()
        };
        let later = MetricsSnapshot {
            tasks_executed: 9,
            steals: 2,
            registrations: 4,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.tasks_executed, 4);
        assert_eq!(d.steals, 0);
        assert_eq!(d.registrations, 4);
        // Swapped operands saturate instead of underflowing.
        let swapped = earlier.delta_since(&later);
        assert_eq!(swapped.tasks_executed, 0);
        assert_eq!(swapped.registrations, 0);
    }

    #[test]
    fn merge_adds_fields() {
        let a = MetricsSnapshot {
            tasks_executed: 1,
            steals: 2,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            tasks_executed: 10,
            registrations: 3,
            ..Default::default()
        };
        let m = a.merge(b);
        assert_eq!(m.tasks_executed, 11);
        assert_eq!(m.steals, 2);
        assert_eq!(m.registrations, 3);
    }
}
