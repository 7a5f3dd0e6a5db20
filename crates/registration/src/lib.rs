//! The packed team-registration structure and its CAS transition protocol.
//!
//! Every worker owns one registration structure `R` (Section 3 of the paper)
//! describing the team currently being built — or already built — for the
//! task at the bottom of the worker's queue:
//!
//! * `r` — number of threads **required** by that task,
//! * `a` — number of threads **acquired** (registered) so far,
//! * `t` — number of threads **teamed** up (the team actually formed),
//! * `N` — a renewal counter, bumped whenever previously acquired threads
//!   must re-register (because the coordinator switched to a smaller task or
//!   disbanded the team).
//!
//! The paper packs all four fields into one 64-bit word (16 bits each) so the
//! whole structure can be updated by a single compare-and-swap; joining a team
//! therefore costs exactly one CAS.  [`Registration`] is the unpacked value
//! type, [`AtomicRegistration`] the shared atomic cell with the transition
//! operations used by the scheduler:
//!
//! | operation | caller | effect |
//! |---|---|---|
//! | [`try_acquire`](AtomicRegistration::try_acquire) | a thief registering for a partner's task (Alg. 7 lines 7–14) | `a += 1` |
//! | [`try_release`](AtomicRegistration::try_release) | a registered thread switching coordinators (Alg. 9 lines 11–17) | `a -= 1` |
//! | [`try_form_team`](AtomicRegistration::try_form_team) | the coordinator once `a == r` (Alg. 6 lines 3–7) | `t = r` |
//! | [`push_requirement`](AtomicRegistration::push_requirement) | the coordinator when a new task reaches the bottom of a queue | adjust `r`, possibly reset `a` and bump `N` |
//! | [`shrink_team`](AtomicRegistration::shrink_team) | the coordinator when the next task needs fewer threads (Section 3.1) | `r = a = t = new size`, `N += 1` |
//! | [`disband`](AtomicRegistration::disband) | the coordinator when the next task needs more threads, or it stops coordinating (Alg. 9 lines 23–31) | `r = a = t = 1`, `N += 1` |
//! | [`try_reuse`](AtomicRegistration::try_reuse) | the coordinator publishing a consecutive task to a still-warm team (DESIGN.md §15) | validates `t = a = r ≥ new r`; **no write** |

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use teamsteal_util::sync::atomic::{AtomicU64, Ordering};

/// Maximum value representable in each 16-bit field; also the largest
/// supported thread count / requirement.
pub const FIELD_MAX: u64 = u16::MAX as u64;

/// The unpacked registration value `{r, a, t, N}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Registration {
    /// Threads required by the task currently being coordinated.
    pub required: u16,
    /// Threads acquired (registered) so far, including the coordinator.
    pub acquired: u16,
    /// Threads teamed up (the formed team size); `1` when no team exists.
    pub teamed: u16,
    /// Renewal counter: registrations taken under an older counter value are
    /// void and must be re-acquired.
    pub counter: u16,
}

impl Default for Registration {
    fn default() -> Self {
        Self::initial()
    }
}

impl Registration {
    /// The state every worker starts in: a singleton "team" of itself,
    /// coordinating nothing bigger than a sequential task.
    pub const fn initial() -> Self {
        Registration {
            required: 1,
            acquired: 1,
            teamed: 1,
            counter: 0,
        }
    }

    /// Packs the four fields into a single 64-bit word
    /// (`r` in the most significant 16 bits, then `a`, `t`, `N`).
    #[inline]
    pub const fn pack(self) -> u64 {
        (self.required as u64) << 48
            | (self.acquired as u64) << 32
            | (self.teamed as u64) << 16
            | self.counter as u64
    }

    /// Unpacks a 64-bit word produced by [`pack`](Registration::pack).
    #[inline]
    pub const fn unpack(word: u64) -> Self {
        Registration {
            required: (word >> 48) as u16,
            acquired: (word >> 32) as u16,
            teamed: (word >> 16) as u16,
            counter: word as u16,
        }
    }

    /// `true` while enough threads have registered to form the team.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.acquired >= self.required
    }

    /// `true` when a multi-thread team is currently formed.
    #[inline]
    pub fn has_team(&self) -> bool {
        self.teamed > 1
    }

    /// Validates the structural invariant the protocol maintains:
    /// `1 ≤ t ≤ a ≤ max(r, a)` and `t ≤ r`.
    pub fn is_well_formed(&self) -> bool {
        self.teamed >= 1
            && self.acquired >= 1
            && self.required >= 1
            && self.teamed <= self.acquired
            && self.teamed <= self.required
            && self.acquired <= self.required
    }
}

/// Outcome of [`AtomicRegistration::try_release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// The registration was released (`a` decremented).
    Released,
    /// The registration had already been revoked by the coordinator (renewal
    /// counter moved on); nothing was decremented.
    Revoked,
    /// The team has been formed and the caller is part of it (Algorithm 9:
    /// "we are in our current coordinator's team and therefore can't drop
    /// out").  The caller must stay and keep polling the coordinator.
    Teamed,
}

/// Outcome of [`AtomicRegistration::try_acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The calling thread is now registered; the returned snapshot is the
    /// post-acquire value (its `counter` must be remembered to detect later
    /// revocation).
    Registered(Registration),
    /// The CAS failed because the structure changed concurrently; the caller
    /// may retry after re-reading.
    Contended,
    /// The coordinator no longer needs additional threads (`a == r` already,
    /// or the requirement dropped below what the caller could contribute to).
    NotNeeded(Registration),
}

/// Outcome of [`AtomicRegistration::try_reuse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseOutcome {
    /// The word still encodes the formed team and it covers the new
    /// requirement: the coordinator may publish the next task to it directly,
    /// skipping partner visits and registration entirely.  The snapshot is
    /// the (unchanged) team the task will run on.
    Reused(Registration),
    /// No warm team, a torn/renewed word, or a team too small for the new
    /// requirement: the full §8 build protocol is needed.
    Incompatible(Registration),
}

/// A shared, atomically updated registration structure.
#[derive(Debug)]
pub struct AtomicRegistration {
    word: AtomicU64,
}

impl Default for AtomicRegistration {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicRegistration {
    /// Creates a registration cell in the [initial](Registration::initial)
    /// state.
    pub fn new() -> Self {
        AtomicRegistration {
            word: AtomicU64::new(Registration::initial().pack()),
        }
    }

    /// Atomically loads the current value.
    #[inline]
    pub fn load(&self) -> Registration {
        Registration::unpack(self.word.load(Ordering::Acquire))
    }

    /// Stores `value` unconditionally.  Only the owning coordinator may use
    /// this, and only in states where no other thread can be mid-CAS on
    /// fields it is about to overwrite (e.g. while `r == 1`, when no thief
    /// ever registers).
    #[inline]
    pub fn store(&self, value: Registration) {
        self.word.store(value.pack(), Ordering::Release);
    }

    /// Raw compare-and-swap on the packed word.  Returns `Ok(())` on success
    /// and the observed value on failure.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Registration,
        new: Registration,
    ) -> Result<(), Registration> {
        debug_assert!(
            new.is_well_formed(),
            "refusing to install malformed registration {new:?}"
        );
        self.word
            .compare_exchange(
                current.pack(),
                new.pack(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
            .map_err(Registration::unpack)
    }

    /// A thief at hierarchy distance `min_team` (it can only contribute to
    /// teams of at least that size) attempts to register for the coordinator
    /// owning this cell — Algorithm 7, lines 6–14.  This is the paper's
    /// "single extra CAS per thread joining a team".
    pub fn try_acquire(&self, min_team: u16) -> AcquireOutcome {
        let cur = self.load();
        if (cur.required as u64) < min_team as u64 || cur.is_complete() {
            return AcquireOutcome::NotNeeded(cur);
        }
        let mut new = cur;
        new.acquired += 1;
        match self.compare_exchange(cur, new) {
            Ok(()) => AcquireOutcome::Registered(new),
            Err(_) => AcquireOutcome::Contended,
        }
    }

    /// A registered (but not yet teamed) thread abandons its registration —
    /// Algorithm 9, lines 11–17.  The release only succeeds if the renewal
    /// counter still matches the one observed at registration time; otherwise
    /// the registration was already revoked by the coordinator and nothing
    /// must be decremented.  If the team has meanwhile been formed with the
    /// caller in it, the caller may **not** leave and
    /// [`ReleaseOutcome::Teamed`] is returned instead.
    pub fn try_release(&self, registered_counter: u16) -> ReleaseOutcome {
        loop {
            let cur = self.load();
            if cur.counter != registered_counter {
                // Revoked by the coordinator: we are already unregistered.
                return ReleaseOutcome::Revoked;
            }
            if cur.acquired <= cur.teamed {
                // The counter still matches, so our registration was never
                // reset — yet there is nothing acquired beyond the team.
                // That can only mean the team formed and we are inside it.
                return ReleaseOutcome::Teamed;
            }
            let mut new = cur;
            new.acquired -= 1;
            if self.compare_exchange(cur, new).is_ok() {
                return ReleaseOutcome::Released;
            }
            // Contended: retry with a fresh snapshot.
        }
    }

    /// The coordinator attempts to fix the team once every required thread
    /// has registered — Algorithm 6, lines 3–7.  On success the returned
    /// snapshot has `t == r`.
    pub fn try_form_team(&self) -> Option<Registration> {
        let cur = self.load();
        if !cur.is_complete() {
            return None;
        }
        let mut new = cur;
        new.teamed = cur.required;
        new.acquired = cur.required;
        match self.compare_exchange(cur, new) {
            Ok(()) => Some(new),
            Err(_) => None,
        }
    }

    /// The coordinator announces that the task it will coordinate next
    /// requires `new_required` threads (called when a task is pushed to the
    /// bottom of a queue, or when the coordinator picks the next queue to
    /// work on).  Implements the rules from Section 3:
    ///
    /// * a larger requirement just replaces `r` (already registered threads
    ///   remain useful),
    /// * a smaller requirement resets `a` to the current team size and bumps
    ///   `N` so threads outside the new boundary re-register,
    /// * `r` never drops below the current team size `t`.
    ///
    /// Returns the resulting registration value.
    pub fn push_requirement(&self, new_required: u16) -> Registration {
        loop {
            let cur = self.load();
            let target = new_required.max(cur.teamed);
            if target == cur.required {
                return cur;
            }
            let mut new = cur;
            if target > cur.required {
                new.required = target;
            } else {
                new.required = target;
                new.acquired = cur.teamed;
                new.counter = cur.counter.wrapping_add(1);
            }
            if self.compare_exchange(cur, new).is_ok() {
                return new;
            }
        }
    }

    /// The coordinator shrinks an existing team to `new_size` (the next task
    /// requires fewer threads, Section 3.1).  Threads beyond the new boundary
    /// observe the bumped counter / reduced `t` and leave on their own.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `new_size` exceeds the current team size.
    pub fn shrink_team(&self, new_size: u16) -> Registration {
        loop {
            let cur = self.load();
            debug_assert!(
                new_size <= cur.teamed,
                "shrink_team({new_size}) on team of {}",
                cur.teamed
            );
            debug_assert!(new_size >= 1);
            let mut new = cur;
            new.required = new_size;
            new.acquired = new_size;
            new.teamed = new_size;
            new.counter = cur.counter.wrapping_add(1);
            if self.compare_exchange(cur, new).is_ok() {
                return new;
            }
        }
    }

    /// The coordinator disbands the team entirely (the next task requires
    /// more threads than the current team, or the worker stops coordinating,
    /// Algorithm 9 lines 23–31): back to the singleton state with a bumped
    /// renewal counter.
    pub fn disband(&self) -> Registration {
        self.shrink_team(1)
    }

    /// The warm-reuse arm of the lifecycle (DESIGN.md §15): a coordinator
    /// holding a team from a *previous* task checks whether that team can run
    /// the next task of requirement `new_required` as-is.  Reuse is possible
    /// exactly when the word still encodes a fully formed, un-renewed team
    /// (`t = a = r > 1`) at least `new_required` strong — surplus members run
    /// the task with `is_surplus` local ids (Refinement 2), so a smaller
    /// requirement never forces a shrink on this path.
    ///
    /// This is deliberately a **pure read**: the whole point of warm reuse is
    /// that the happy path costs one `Acquire` load here plus the publication
    /// seqlock write, instead of the full partner-visit/registration/countdown
    /// protocol.  The single-word packing makes the check atomic — a
    /// concurrent `disband`/`shrink_team` either lands before the load (the
    /// caller sees `Incompatible`) or after it (members observe the bumped
    /// counter only once the coordinator, the sole writer of those arms, has
    /// decided against reuse).
    pub fn try_reuse(&self, new_required: u16) -> ReuseOutcome {
        let cur = self.load();
        if cur.has_team()
            && cur.acquired == cur.teamed
            && cur.required == cur.teamed
            && new_required <= cur.teamed
        {
            ReuseOutcome::Reused(cur)
        } else {
            ReuseOutcome::Incompatible(cur)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn initial_state_is_singleton() {
        let r = Registration::initial();
        assert_eq!(r.required, 1);
        assert_eq!(r.acquired, 1);
        assert_eq!(r.teamed, 1);
        assert_eq!(r.counter, 0);
        assert!(r.is_well_formed());
        assert!(r.is_complete());
        assert!(!r.has_team());
    }

    #[test]
    fn pack_unpack_roundtrip_examples() {
        let r = Registration {
            required: 8,
            acquired: 3,
            teamed: 2,
            counter: 41,
        };
        assert_eq!(Registration::unpack(r.pack()), r);
        // Fields land in distinct bit ranges.
        assert_eq!(r.pack() >> 48, 8);
        assert_eq!((r.pack() >> 32) & 0xFFFF, 3);
        assert_eq!((r.pack() >> 16) & 0xFFFF, 2);
        assert_eq!(r.pack() & 0xFFFF, 41);
    }

    #[test]
    fn acquire_until_complete_then_not_needed() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(4);
        // Coordinator itself counts as the first acquired thread.
        let mut acquired = 1;
        while acquired < 4 {
            match reg.try_acquire(2) {
                AcquireOutcome::Registered(snapshot) => {
                    acquired += 1;
                    assert_eq!(snapshot.acquired as usize, acquired);
                }
                AcquireOutcome::Contended => {}
                AcquireOutcome::NotNeeded(_) => panic!("registration refused too early"),
            }
        }
        // A fifth thread is rejected.
        assert!(matches!(reg.try_acquire(2), AcquireOutcome::NotNeeded(_)));
        // Now the coordinator can form the team.
        let formed = reg.try_form_team().expect("team should form");
        assert_eq!(formed.teamed, 4);
    }

    #[test]
    fn acquire_refused_when_requirement_too_small() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(2);
        // A thief that could only contribute to teams of >= 4 threads is not
        // needed for a 2-thread task (Algorithm 7 line 6: r >= 2^(l+1)).
        assert!(matches!(reg.try_acquire(4), AcquireOutcome::NotNeeded(_)));
        assert!(matches!(reg.try_acquire(2), AcquireOutcome::Registered(_)));
    }

    #[test]
    fn release_after_revocation_is_a_noop() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(4);
        let snapshot = match reg.try_acquire(2) {
            AcquireOutcome::Registered(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(reg.load().acquired, 2);
        // The coordinator switches to a smaller task: a reset, N bumped.
        reg.push_requirement(2);
        let after_reset = reg.load();
        assert_eq!(after_reset.acquired, 1);
        assert_ne!(after_reset.counter, snapshot.counter);
        // The stale registration must not decrement anything.
        assert_eq!(reg.try_release(snapshot.counter), ReleaseOutcome::Revoked);
        assert_eq!(reg.load().acquired, 1);
    }

    #[test]
    fn release_with_matching_counter_decrements() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(8);
        let snap = match reg.try_acquire(2) {
            AcquireOutcome::Registered(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(reg.load().acquired, 2);
        assert_eq!(reg.try_release(snap.counter), ReleaseOutcome::Released);
        assert_eq!(reg.load().acquired, 1);
    }

    #[test]
    fn release_refused_once_teamed() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(2);
        let snap = match reg.try_acquire(2) {
            AcquireOutcome::Registered(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        reg.try_form_team().expect("team of 2 should form");
        // Algorithm 9: a teamed thread cannot drop out.
        assert_eq!(reg.try_release(snap.counter), ReleaseOutcome::Teamed);
        assert_eq!(reg.load().teamed, 2);
        assert_eq!(reg.load().acquired, 2);
    }

    #[test]
    fn push_requirement_grows_without_reset() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(2);
        let _ = reg.try_acquire(2);
        let before = reg.load();
        let after = reg.push_requirement(8);
        assert_eq!(after.required, 8);
        assert_eq!(
            after.acquired, before.acquired,
            "growing r keeps acquisitions"
        );
        assert_eq!(after.counter, before.counter, "growing r does not revoke");
    }

    #[test]
    fn push_requirement_never_drops_below_team() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(4);
        while !matches!(reg.try_acquire(2), AcquireOutcome::NotNeeded(_)) {}
        let formed = reg.try_form_team().unwrap();
        assert_eq!(formed.teamed, 4);
        // Section 3: "We do not allow for r dropping below t".
        let after = reg.push_requirement(2);
        assert_eq!(after.required, 4);
        assert_eq!(after.teamed, 4);
    }

    #[test]
    fn shrink_and_disband() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(8);
        while !matches!(reg.try_acquire(2), AcquireOutcome::NotNeeded(_)) {}
        let formed = reg.try_form_team().unwrap();
        assert_eq!(formed.teamed, 8);
        let shrunk = reg.shrink_team(4);
        assert_eq!(shrunk.teamed, 4);
        assert_eq!(shrunk.acquired, 4);
        assert_eq!(shrunk.required, 4);
        assert_eq!(shrunk.counter, formed.counter.wrapping_add(1));
        let disbanded = reg.disband();
        assert_eq!(disbanded.teamed, 1);
        assert_eq!(disbanded.required, 1);
        assert!(disbanded.is_well_formed());
    }

    #[test]
    fn reuse_accepts_a_warm_team_up_to_its_size() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(4);
        while !matches!(reg.try_acquire(2), AcquireOutcome::NotNeeded(_)) {}
        let formed = reg.try_form_team().unwrap();
        // A consecutive task needing the same team — or any smaller one —
        // reuses the warm team without writing the word.
        for r in 1..=4u16 {
            match reg.try_reuse(r) {
                ReuseOutcome::Reused(snap) => assert_eq!(snap, formed),
                other => panic!("warm team of 4 must cover r = {r}: {other:?}"),
            }
        }
        assert_eq!(reg.load(), formed, "try_reuse must never write");
        // A bigger task cannot reuse: the full build protocol is needed.
        assert!(matches!(reg.try_reuse(5), ReuseOutcome::Incompatible(_)));
    }

    #[test]
    fn reuse_refused_without_a_team_or_after_disband() {
        let reg = AtomicRegistration::new();
        // Singleton word: nothing to reuse.
        assert!(matches!(reg.try_reuse(2), ReuseOutcome::Incompatible(_)));
        reg.push_requirement(2);
        let _ = reg.try_acquire(2);
        // Complete but not yet formed: reuse must not skip formation.
        assert!(matches!(reg.try_reuse(2), ReuseOutcome::Incompatible(_)));
        reg.try_form_team().unwrap();
        assert!(matches!(reg.try_reuse(2), ReuseOutcome::Reused(_)));
        reg.disband();
        assert!(matches!(reg.try_reuse(2), ReuseOutcome::Incompatible(_)));
    }

    #[test]
    fn reuse_refused_while_growing_past_the_team() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(2);
        let _ = reg.try_acquire(2);
        reg.try_form_team().unwrap();
        // Announcing a larger requirement keeps the team but opens slots
        // (t < r): publication must wait for the new members.
        reg.push_requirement(4);
        assert!(matches!(reg.try_reuse(2), ReuseOutcome::Incompatible(_)));
    }

    #[test]
    fn form_team_fails_until_complete() {
        let reg = AtomicRegistration::new();
        reg.push_requirement(4);
        assert!(reg.try_form_team().is_none());
        let _ = reg.try_acquire(2);
        assert!(reg.try_form_team().is_none());
        let _ = reg.try_acquire(2);
        let _ = reg.try_acquire(2);
        assert!(reg.try_form_team().is_some());
    }

    #[test]
    fn concurrent_acquire_never_over_registers() {
        // The key safety property of the single-CAS join: no matter how many
        // thieves race, at most r - 1 of them register.
        for _ in 0..50 {
            let reg = Arc::new(AtomicRegistration::new());
            reg.push_requirement(4);
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    std::thread::spawn(move || {
                        let mut registered = 0u32;
                        for _ in 0..64 {
                            match reg.try_acquire(2) {
                                AcquireOutcome::Registered(_) => {
                                    registered += 1;
                                    break;
                                }
                                AcquireOutcome::Contended => continue,
                                AcquireOutcome::NotNeeded(_) => break,
                            }
                        }
                        registered
                    })
                })
                .collect();
            let total: u32 = threads.into_iter().map(|h| h.join().unwrap()).sum();
            let final_state = reg.load();
            assert!(final_state.acquired <= 4);
            assert_eq!(total, final_state.acquired as u32 - 1);
        }
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrip(r in any::<u16>(), a in any::<u16>(), t in any::<u16>(), n in any::<u16>()) {
            let reg = Registration { required: r, acquired: a, teamed: t, counter: n };
            prop_assert_eq!(Registration::unpack(reg.pack()), reg);
        }

        #[test]
        fn transitions_preserve_well_formedness(ops in proptest::collection::vec(0u8..5, 1..64)) {
            // Drive a single registration cell through an arbitrary sequence
            // of coordinator-side and thief-side operations and check the
            // structural invariant after every step.
            let reg = AtomicRegistration::new();
            let mut last_counter = 0u16;
            for op in ops {
                match op {
                    0 => { reg.push_requirement(2); }
                    1 => { reg.push_requirement(8); }
                    2 => {
                        if let AcquireOutcome::Registered(s) = reg.try_acquire(2) {
                            last_counter = s.counter;
                        }
                    }
                    3 => { let _ = reg.try_form_team(); }
                    4 => { let _ = reg.try_release(last_counter); }
                    _ => unreachable!(),
                }
                let snapshot = reg.load();
                prop_assert!(snapshot.is_well_formed(), "invariant violated: {:?}", snapshot);
            }
        }
    }
}
