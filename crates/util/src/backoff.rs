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
//!
//! A spin round need not be blind: it spins its `2^k` pauses in polls of
//! four (`POLL_PAUSES`) and reads the caller's condition between polls,
//! ending the round as soon as the condition holds.  Exponential spacing
//! keeps contending read-modify-writes apart (Anderson, "The Performance of
//! Spin Lock Alternatives", IEEE TPDS 1990); a condition that only loads
//! never fails or retries the way a contended CAS does, so the round
//! lengths only pace the escalation to yielding and parking.  A round counts
//! as one round however it ends, so when the condition never holds the
//! round count, duration and park schedule are those of a blind spin.  A
//! condition that holds without the caller being able to act on it ends
//! every spin round after four pauses, and the caller reaches its yields
//! sooner.

use crate::sync::thread as shim_thread;
use crate::sync::time::Instant;
use std::time::Duration;

/// Number of exponential spin rounds executed before the backoff starts
/// yielding.
const SPIN_LIMIT: u32 = 6;

/// Pauses a spin round spins between two polls of its condition: one poll
/// of a few top-level atomics costs about what four pauses do.
const POLL_PAUSES: u32 = 4;

/// Exponential backoff helper.
///
/// A `Backoff` value tracks how many unproductive rounds the caller has been
/// through and escalates from busy spinning (`core::hint::spin_loop`) to
/// `std::thread::yield_now`.  A spin round polls the caller's wait
/// condition while it spins and ends early once it holds.
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use teamsteal_util::Backoff;
///
/// let flag = AtomicBool::new(false);
/// let mut backoff = Backoff::new();
/// for _ in 0..4 {
///     // ... some CAS failed / nothing to steal ...
///     backoff.spin_light(|| flag.load(Ordering::Relaxed));
/// }
/// assert_eq!(backoff.rounds(), 4);
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
    /// A spin round of `2^k` pauses polls `ready` — the caller's wait
    /// condition, a pure read — every four pauses and returns as
    /// soon as it holds; a yield round never calls it.  Either way the round
    /// counts once.  A caller with no condition to poll passes `|| false`.
    ///
    /// Used as the prefix of the scheduler's parking waits and on paths
    /// whose wait ends within a few operations of another thread (a
    /// coordinator waiting for the start countdown `G` of an already
    /// published task, a submitter waiting for an external pin slot): a
    /// yield hands the CPU to that thread when it was preempted.
    pub fn spin_light(&mut self, ready: impl FnMut() -> bool) {
        self.touch();
        if self.rounds <= SPIN_LIMIT {
            spin_polling(1 << self.rounds, ready, core::hint::spin_loop);
        } else {
            shim_thread::yield_now();
        }
        self.rounds = self.rounds.saturating_add(1);
    }
}

/// Runs `pause` `pauses` times in polls of `POLL_PAUSES`, calling `ready`
/// between two polls (not after the last: the caller checks its condition
/// itself when the round ends) and stopping once it returns `true`.
fn spin_polling(pauses: u32, mut ready: impl FnMut() -> bool, mut pause: impl FnMut()) {
    let mut left = pauses;
    loop {
        let poll = left.min(POLL_PAUSES);
        for _ in 0..poll {
            pause();
        }
        left -= poll;
        if left == 0 || ready() {
            return;
        }
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

    /// `spin_polling` with a counting pause: `(pauses spun, ready calls)`.
    fn polled_round(pauses: u32, holds_at_call: Option<u32>) -> (u32, u32) {
        let (mut spun, mut calls) = (0, 0);
        spin_polling(
            pauses,
            || {
                calls += 1;
                holds_at_call == Some(calls)
            },
            || spun += 1,
        );
        (spun, calls)
    }

    #[test]
    fn a_condition_that_holds_at_the_first_poll_ends_the_round() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_LIMIT {
            b.spin_light(|| false);
        }
        let mut calls = 0;
        b.spin_light(|| {
            calls += 1;
            true
        });
        assert_eq!(calls, 1, "the round stops polling once the condition holds");
        assert_eq!(
            b.rounds(),
            SPIN_LIMIT + 1,
            "an early end still counts one round"
        );
        assert_eq!(polled_round(1 << SPIN_LIMIT, Some(1)), (POLL_PAUSES, 1));
        assert_eq!(polled_round(1 << SPIN_LIMIT, Some(3)), (3 * POLL_PAUSES, 3));
    }

    #[test]
    fn a_condition_that_never_holds_leaves_every_round_full_length() {
        let mut b = Backoff::new();
        for k in 0..=SPIN_LIMIT {
            let pauses = 1u32 << k;
            let polls = pauses.div_ceil(POLL_PAUSES);
            assert_eq!(polled_round(pauses, None), (pauses, polls - 1), "round {k}");
            let mut calls = 0;
            b.spin_light(|| {
                calls += 1;
                false
            });
            assert_eq!(calls, polls - 1, "round {k} checks between its polls");
        }
        assert_eq!(b.rounds(), SPIN_LIMIT + 1);
    }

    #[test]
    fn yield_rounds_never_poll() {
        let mut b = Backoff::new();
        for _ in 0..=SPIN_LIMIT {
            b.spin_light(|| false);
        }
        let mut calls = 0;
        for _ in 0..10 {
            b.spin_light(|| {
                calls += 1;
                true
            });
        }
        assert_eq!(calls, 0);
        assert_eq!(b.rounds(), SPIN_LIMIT + 11);
    }

    #[test]
    fn the_park_schedule_counts_rounds_however_they_end() {
        for holds in [false, true] {
            let mut b = Backoff::new();
            for _ in 0..16 {
                assert!(!b.should_park(16));
                b.spin_light(|| holds);
            }
            assert!(b.should_park(16), "condition {holds}");
        }
    }

    #[test]
    fn reset_returns_to_spin_phase() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.spin_light(|| false);
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
        b.spin_light(|| false);
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
