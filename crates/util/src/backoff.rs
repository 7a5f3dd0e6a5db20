//! Exponential backoff that never sleeps.
//!
//! The paper (Section 4, "Backoff intervals") uses exponential backoff
//! starting at 1 µs and capped at 10 ms whenever a steal attempt, a CAS on a
//! registration structure, or team coordination makes no progress.  Here
//! those waits park on the eventcount instead (DESIGN.md §12), so the
//! paper's intervals live in the parking constants of `teamsteal-core`'s
//! worker (`PARK_SPIN_ROUNDS`, `HANDSHAKE_POLL`, `PARK_BACKSTOP`).  What is
//! left here is the spin-then-yield prefix of those waits and of the short
//! ones that never park, plus the round count and streak time the parking
//! and stall-report paths read.

use crate::sync::thread as shim_thread;
use crate::sync::time::Instant;
use std::time::Duration;

/// Number of exponential spin rounds executed before the backoff starts
/// yielding.
const SPIN_LIMIT: u32 = 6;

/// Exponential backoff helper.
///
/// A `Backoff` value tracks how many unproductive rounds the caller has been
/// through and escalates from busy spinning (`core::hint::spin_loop`) to
/// `std::thread::yield_now`.
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

    /// Records an unproductive round without spinning or yielding.
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
        self.since = None;
    }

    /// Performs one backoff round: spins for the first rounds, then yields.
    /// Used on paths whose wait ends within a few operations of another
    /// thread (a coordinator waiting for the start countdown `G` of an
    /// already published task, a submitter waiting for an external pin
    /// slot): a yield hands the CPU to that thread when it was preempted.
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
    }

    #[test]
    fn reset_returns_to_spin_phase() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.spin_light();
        }
        assert!(b.rounds() > SPIN_LIMIT, "20 rounds escalate past spinning");
        b.reset();
        assert!(b.rounds() <= SPIN_LIMIT, "reset returns to spinning");
        assert_eq!(b.rounds(), 0);
    }

    #[test]
    fn rounds_saturate_instead_of_overflowing() {
        let mut b = Backoff::new();
        b.rounds = u32::MAX;
        b.spin_light();
        assert_eq!(b.rounds(), u32::MAX);
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
