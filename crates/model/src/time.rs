//! Virtual time.  Inside a model run, [`Instant::now`] reads the
//! execution's virtual clock, which advances deterministically: a fixed
//! quantum per scheduling step, plus explicit `sleep` durations, plus
//! jumps to the earliest deadline when a timed condvar wait escapes an
//! otherwise-blocked state.  Outside a run it falls back to a process-
//! global monotone counter so shim code stays usable anywhere.

use crate::execution;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Fallback clock for calls outside a model run: strictly monotone,
/// nanosecond-ish, not tied to wall time.
static FALLBACK_NS: AtomicU64 = AtomicU64::new(0);

/// A measurement of the virtual clock (model analogue of
/// `std::time::Instant`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant {
    ns: u64,
}

impl Instant {
    /// The current virtual time.  Not a yield point: reading the clock
    /// does not interact with other threads.
    pub fn now() -> Instant {
        match execution::current() {
            Some(ctx) => Instant {
                ns: ctx.exec.peek_clock_ns(),
            },
            None => Instant {
                ns: FALLBACK_NS.fetch_add(1, Ordering::Relaxed),
            },
        }
    }

    /// Virtual time elapsed since this instant (saturating at zero).
    pub fn elapsed(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }

    /// `self - earlier`, saturating at zero.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.ns.saturating_sub(earlier.ns))
    }

    /// `self - earlier`; panics if `earlier` is later (as std does).
    pub fn duration_since(&self, earlier: Instant) -> Duration {
        assert!(self.ns >= earlier.ns, "supplied instant is later than self");
        Duration::from_nanos(self.ns - earlier.ns)
    }

    /// Checked addition of a duration.
    pub fn checked_add(&self, dur: Duration) -> Option<Instant> {
        let ns = u64::try_from(dur.as_nanos()).ok()?;
        self.ns.checked_add(ns).map(|ns| Instant { ns })
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, dur: Duration) -> Instant {
        self.checked_add(dur)
            .expect("overflow when adding duration to instant")
    }
}

impl std::ops::Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, earlier: Instant) -> Duration {
        self.duration_since(earlier)
    }
}

impl std::ops::Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, dur: Duration) -> Instant {
        let ns = u64::try_from(dur.as_nanos()).expect("duration overflows u64 ns");
        Instant {
            ns: self.ns.saturating_sub(ns),
        }
    }
}

impl std::ops::AddAssign<Duration> for Instant {
    fn add_assign(&mut self, dur: Duration) {
        *self = *self + dur;
    }
}
