//! Exponential backoff.
//!
//! The paper (Section 4, "Backoff intervals") uses exponential backoff
//! starting at 1 µs and capped at 10 ms whenever a steal attempt, a CAS on a
//! registration structure, or team coordination makes no progress.  This
//! module implements that policy with a cheap spinning phase before the timed
//! sleeping phase so that short contention windows never reach the kernel.

use crate::sync::thread as shim_thread;
use crate::sync::time::Instant;
use std::time::Duration;

/// Initial sleep interval of the timed phase (the paper's 1 µs).
pub const INITIAL_SLEEP: Duration = Duration::from_micros(1);

/// Maximum sleep interval of the timed phase (the paper's 10 ms).
pub const MAX_SLEEP: Duration = Duration::from_millis(10);

/// Number of exponential spin rounds executed before the backoff starts
/// yielding / sleeping.
const SPIN_LIMIT: u32 = 6;

/// Number of yield rounds executed after spinning and before sleeping.
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff helper.
///
/// A `Backoff` value tracks how many unproductive rounds the caller has been
/// through and escalates from busy spinning (`core::hint::spin_loop`), to
/// `std::thread::yield_now`, to timed sleeps that double from
/// [`INITIAL_SLEEP`] up to [`MAX_SLEEP`].
///
/// ```
/// use teamsteal_util::Backoff;
///
/// let mut backoff = Backoff::new();
/// for _ in 0..4 {
///     // ... some CAS failed / nothing to steal ...
///     backoff.spin_light();
/// }
/// assert!(backoff.rounds() >= 4);
/// backoff.reset();
/// assert_eq!(backoff.rounds(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    rounds: u32,
    sleep: Duration,
    /// Wall-clock start of the current unproductive streak, recorded on the
    /// first wait round and cleared by [`reset`](Backoff::reset).  Lets
    /// event-driven callers (which accumulate *rounds* only on wakes, not on
    /// a fixed poll cadence) express liveness backstops in elapsed time.
    since: Option<Instant>,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Creates a fresh backoff in the spinning phase.
    #[inline]
    pub const fn new() -> Self {
        Backoff {
            rounds: 0,
            sleep: INITIAL_SLEEP,
            since: None,
        }
    }

    /// Number of unproductive rounds recorded since the last [`reset`].
    ///
    /// [`reset`]: Backoff::reset
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Returns `true` once the backoff has escalated past the pure-spinning
    /// phase.  Callers that park on OS primitives can use this as the signal
    /// to do so.
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.rounds > SPIN_LIMIT
    }

    /// Returns `true` once the backoff has reached the timed sleeping phase
    /// with the maximum interval, i.e. the caller has been unproductive for a
    /// long time.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.rounds > SPIN_LIMIT + YIELD_LIMIT && self.sleep >= MAX_SLEEP
    }

    /// Returns `true` once `prefix_rounds` unproductive rounds have passed:
    /// the caller has exhausted its spin/yield prefix and should park on an
    /// OS primitive (the scheduler's eventcount) instead of burning more
    /// rounds.
    #[inline]
    pub fn should_park(&self, prefix_rounds: u32) -> bool {
        self.rounds >= prefix_rounds
    }

    /// How long this backoff has been unproductive (wall clock since the
    /// first wait round after the last [`reset`](Backoff::reset)).  Zero
    /// before the first round.
    pub fn unproductive_for(&self) -> Duration {
        self.since.map(|s| s.elapsed()).unwrap_or(Duration::ZERO)
    }

    /// Records an unproductive round without spinning, yielding or sleeping.
    /// Used by callers whose delay comes from elsewhere (an eventcount park)
    /// but who still track escalation and streak time through the backoff.
    #[inline]
    pub fn note_round(&mut self) {
        self.touch();
        self.rounds = self.rounds.saturating_add(1);
    }

    #[inline]
    fn touch(&mut self) {
        if self.since.is_none() {
            self.since = Some(Instant::now());
        }
    }

    /// Resets the backoff to the spinning phase.  Call this whenever the
    /// caller makes progress (a successful steal, a successful CAS, a task
    /// executed).
    #[inline]
    pub fn reset(&mut self) {
        self.rounds = 0;
        self.sleep = INITIAL_SLEEP;
        self.since = None;
    }

    /// Performs one backoff round: spins, yields or sleeps depending on how
    /// many unproductive rounds have already happened, with the timed
    /// sleeping phase capped at `cap` instead of [`MAX_SLEEP`].  Used where
    /// wake-up latency matters more than CPU frugality (the
    /// external-submitter pin-slot wait).
    ///
    /// A cap below [`INITIAL_SLEEP`] degrades the sleeping phase to
    /// `yield_now` instead of `thread::sleep`: sleeping for a sub-microsecond
    /// (or zero) duration returns immediately on most platforms, which would
    /// turn the "sleeping" phase into an unbounded busy-spin that never
    /// cedes the CPU.
    pub fn wait_capped(&mut self, cap: Duration) {
        self.touch();
        if self.rounds <= SPIN_LIMIT {
            for _ in 0..(1u32 << self.rounds) {
                core::hint::spin_loop();
            }
        } else if self.rounds <= SPIN_LIMIT + YIELD_LIMIT {
            shim_thread::yield_now();
        } else {
            match self.capped_interval(cap) {
                Some(interval) => {
                    shim_thread::sleep(interval);
                    self.sleep = (self.sleep * 2).min(MAX_SLEEP).min(cap.max(INITIAL_SLEEP));
                }
                None => shim_thread::yield_now(),
            }
        }
        self.rounds = self.rounds.saturating_add(1);
    }

    /// The sleep interval one `wait_capped(cap)` round would use in the
    /// sleeping phase, or `None` when the cap is too small to sleep
    /// meaningfully and the round must yield instead.
    fn capped_interval(&self, cap: Duration) -> Option<Duration> {
        let interval = self.sleep.min(cap);
        (interval >= INITIAL_SLEEP).then_some(interval)
    }

    /// Performs a single *light* backoff round that never sleeps.  Used on
    /// paths where the caller must stay responsive (e.g. a coordinator
    /// waiting for the start countdown `G` of an already published task).
    pub fn spin_light(&mut self) {
        self.touch();
        if self.rounds <= SPIN_LIMIT {
            for _ in 0..(1u32 << self.rounds) {
                core::hint::spin_loop();
            }
        } else {
            shim_thread::yield_now();
        }
        self.rounds = self.rounds.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_spin_phase() {
        let b = Backoff::new();
        assert_eq!(b.rounds(), 0);
        assert!(!b.is_yielding());
        assert!(!b.is_saturated());
    }

    #[test]
    fn reset_returns_to_spin_phase() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.spin_light();
        }
        assert!(b.is_yielding());
        b.reset();
        assert!(!b.is_yielding());
        assert_eq!(b.rounds(), 0);
    }

    #[test]
    fn sleep_interval_is_capped() {
        let mut b = Backoff::new();
        // Drive the internal state far past saturation without actually
        // sleeping (we manipulate rounds via spin_light, then check the cap
        // logic by forcing many doublings).
        b.rounds = SPIN_LIMIT + YIELD_LIMIT + 1;
        b.sleep = MAX_SLEEP;
        assert!(b.is_saturated());
        // Doubling past the cap must not exceed MAX_SLEEP.
        let doubled = (b.sleep * 2).min(MAX_SLEEP);
        assert_eq!(doubled, MAX_SLEEP);
    }

    #[test]
    fn rounds_saturate_instead_of_overflowing() {
        let mut b = Backoff::new();
        b.rounds = u32::MAX;
        b.spin_light();
        assert_eq!(b.rounds(), u32::MAX);
    }

    #[test]
    fn sub_microsecond_caps_yield_instead_of_busy_spinning() {
        let mut b = Backoff::new();
        // Drive the backoff into the sleeping phase.
        b.rounds = SPIN_LIMIT + YIELD_LIMIT + 1;
        // A cap below INITIAL_SLEEP (including zero) must not produce a
        // sleep interval: thread::sleep would return immediately and the
        // caller would busy-spin without ever ceding the CPU.
        assert_eq!(b.capped_interval(Duration::ZERO), None);
        assert_eq!(b.capped_interval(Duration::from_nanos(500)), None);
        // At or above INITIAL_SLEEP the sleep interval is used, capped.
        assert_eq!(b.capped_interval(INITIAL_SLEEP), Some(INITIAL_SLEEP));
        b.sleep = Duration::from_micros(64);
        assert_eq!(
            b.capped_interval(Duration::from_micros(8)),
            Some(Duration::from_micros(8))
        );
        // And the degraded rounds still escalate (terminate) behaviourally.
        let rounds_before = b.rounds();
        b.wait_capped(Duration::ZERO);
        b.wait_capped(Duration::from_nanos(1));
        assert_eq!(b.rounds(), rounds_before + 2);
    }

    #[test]
    fn should_park_after_the_configured_prefix() {
        let mut b = Backoff::new();
        assert!(!b.should_park(4));
        for _ in 0..4 {
            b.note_round();
        }
        assert!(b.should_park(4));
        b.reset();
        assert!(!b.should_park(4));
    }

    #[test]
    fn unproductive_streak_tracks_time_and_resets() {
        let mut b = Backoff::new();
        assert_eq!(b.unproductive_for(), Duration::ZERO);
        b.note_round();
        shim_thread::sleep(Duration::from_millis(5));
        assert!(b.unproductive_for() >= Duration::from_millis(4));
        b.reset();
        assert_eq!(b.unproductive_for(), Duration::ZERO);
    }
}
