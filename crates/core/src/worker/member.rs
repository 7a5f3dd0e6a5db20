//! The member side of team-building: one step of a worker registered with
//! a foreign coordinator (Algorithm 5, lines 7–14), `pollPartners`
//! (Algorithm 8, run by waiting coordinators too), `switchToCoordinator`
//! (Algorithm 9), the registration CAS itself (Algorithm 7, lines 7–14) and
//! the member resync backstop (DESIGN.md §10).

use std::sync::atomic::Ordering;

use teamsteal_registration::{AcquireOutcome, ReleaseOutcome};
use teamsteal_util::eventcount::ParkClass;
use teamsteal_util::Backoff;

use super::{Worker, MEMBER_RESYNC_AFTER};
use crate::context::TaskContext;
use crate::task::TaskNode;

/// Outcome of one `pollPartners` round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PollOutcome {
    /// The caller switched to (registered with) a different coordinator.
    Switched,
    /// The caller stole smaller tasks to help a partner finish.
    Helped,
    /// Nothing changed.
    Nothing,
}

impl Worker {
    /// One step of a worker that is registered with coordinator `cid`
    /// (Algorithm 5, lines 7–14).
    pub(super) fn member_step(&mut self, cid: usize, backoff: &mut Backoff) {
        let me = self.id;
        if self.shared.shutdown.load(Ordering::Acquire) {
            self.leave_coordinator();
            return;
        }
        self.stall_report("member_step", backoff);
        // 1. Is there a published task for us?
        if let Some((ptr, base, size, seq)) = self.read_publication(cid) {
            self.last_seen_seq[cid] = seq;
            if (base..base + size).contains(&me) {
                if self.shared.workers[cid].publication.picked_up() {
                    // Ours was the last pick-up: the coordinator may be
                    // parked in `wait_countdown_zero`.
                    self.shared.sleep.notify_worker(cid);
                }
                self.run_team_member(ptr, base, size);
                backoff.reset();
                return;
            }
            // A task for a team that does not include us — nothing to do with
            // it; fall through to the validity checks.
        }
        let creg = self.shared.workers[cid].reg.load();
        // 2. Are we part of a formed team?  Then we only wait for work
        // (Section 3: "Teamed up threads are not allowed to do any
        // coordination work, except polling the coordinator") — parked on
        // our eventcount slot until the coordinator publishes, resizes or
        // disbands.
        let teamed = creg.teamed as usize;
        if teamed > 1 && self.topo().team_for(cid, teamed).contains(&me) {
            self.park_unless(ParkClass::Handshake, backoff, |w| {
                w.shared.workers[cid].reg.load() != creg || w.read_publication(cid).is_some()
            });
            return;
        }
        // 3. Is our registration still valid and needed?
        let required = creg.required as usize;
        let still_needed = required > 1
            && creg.counter == self.registered_counter[cid]
            && self.topo().team_for(cid, required).contains(&me);
        if !still_needed {
            self.leave_coordinator();
            backoff.reset();
            return;
        }
        // 4. Validly registered, team not yet complete: poll the partners we
        // share with the coordinator, helping smaller tasks or switching to a
        // winning coordinator (Algorithm 8).
        let req_level = self.topo().level_for_requirement(cid, required);
        match self.poll_partners(cid, required, req_level) {
            PollOutcome::Switched | PollOutcome::Helped => backoff.reset(),
            PollOutcome::Nothing => {
                // Liveness backstop (ROADMAP flake): a member that has
                // polled unproductively for a long time re-synchronizes from
                // scratch — release the registration (never possible once
                // teamed; the `Teamed` outcome keeps us in place) and fall
                // back to the main loop, which re-discovers and re-registers
                // with whoever still needs us.  This converts any missed
                // registration/publication handshake into bounded extra
                // work instead of an unbounded wait.  Time-based: a parked
                // member accumulates rounds only on wakes.
                if backoff.unproductive_for() >= MEMBER_RESYNC_AFTER {
                    match self.shared.workers[cid]
                        .reg
                        .try_release(self.registered_counter[cid])
                    {
                        ReleaseOutcome::Teamed => {}
                        ReleaseOutcome::Released | ReleaseOutcome::Revoked => {
                            self.leave_coordinator();
                            self.me().counters.liveness_resyncs.inc();
                            // Stall resync: wake everyone (including the
                            // abandoned coordinator) so no stale park
                            // outlives the re-synchronization.
                            self.shared.sleep.notify_all();
                            backoff.reset();
                            return;
                        }
                    }
                }
                // Park until the coordinator's word changes, a publication
                // lands, or a partner event (checked by one more poll after
                // prepare) needs handling.
                let mut polled = PollOutcome::Nothing;
                self.park_unless(ParkClass::Handshake, backoff, |w| {
                    if w.shared.workers[cid].reg.load() != creg || w.read_publication(cid).is_some()
                    {
                        return true;
                    }
                    polled = w.poll_partners(cid, required, req_level);
                    polled != PollOutcome::Nothing
                });
                if polled != PollOutcome::Nothing {
                    backoff.reset();
                }
            }
        }
    }

    fn leave_coordinator(&mut self) {
        self.me().coordinator.store(self.id, Ordering::Release);
    }

    /// A publication of coordinator `cid` newer than what this worker has
    /// already handled, if any.
    fn read_publication(&self, cid: usize) -> Option<(*mut TaskNode, usize, usize, u64)> {
        self.shared.workers[cid]
            .publication
            .read_newer_than(self.last_seen_seq[cid])
    }

    fn run_team_member(&mut self, ptr: *mut TaskNode, base: usize, size: usize) {
        // SAFETY: we are a counted participant (our pick-up was counted by
        // the caller), so the node cannot be freed before we finish.
        let node = unsafe { &*ptr };
        // SAFETY: the barrier was re-armed before publication; the seqlock
        // read ordered us after that write.
        let barrier = Some(unsafe { &*node.barrier.get() });
        let ctx = TaskContext {
            worker: &*self,
            // SAFETY: counted until the last participant's `finish_node`,
            // which cannot precede ours.
            scope: unsafe { node.scope() },
            requested: node.requirement,
            team_size: size,
            team_base: base,
            local_id: self.id - base,
            barrier,
        };
        Self::run_job(node, &ctx);
        self.me().counters.team_tasks_executed.inc();
        self.finish_node(ptr);
        // A member goes back to polling its coordinator, not to the run
        // loop's "queues empty" point: if ours was the last finish, check
        // for completion here.
        self.check_scope();
    }

    // ------------------------------------------------------------------
    // Partner polling, switching and helping (Algorithms 8 & 9)
    // ------------------------------------------------------------------

    /// The paper's `pollPartners(c, r)` (Algorithm 8), called both by a
    /// coordinator (`my_coord == self.id`) and by registered members.
    pub(super) fn poll_partners(
        &mut self,
        my_coord: usize,
        req: usize,
        req_level: usize,
    ) -> PollOutcome {
        let me = self.id;
        for level in 0..req_level {
            let Some(x) = self.partner_at(level) else {
                continue;
            };
            if x == my_coord || x == me {
                continue;
            }
            let xcid = self.shared.workers[x].coordinator.load(Ordering::Acquire);
            if xcid == my_coord || xcid == me {
                continue;
            }
            let xcreg = self.shared.workers[xcid].reg.load();
            let their_r = xcreg.required as usize;
            if their_r <= 1 {
                // Partner is busy with sequential work: steal smaller tasks
                // from it so it runs dry and comes looking for work
                // (Algorithm 8, lines 20–30).
                if self.help_steal_from(x, req_level, level) {
                    return PollOutcome::Helped;
                }
                continue;
            }
            // Conflict resolution (Lemma 3): the smaller requirement wins,
            // ties are broken towards the smaller coordinator id.
            let they_win = their_r < req || (their_r == req && xcid < my_coord);
            if !they_win {
                // We win; the partner's team will eventually come to us.
                continue;
            }
            let needed_by_them = !xcreg.is_complete() && self.topo().overlap(xcid, me, their_r);
            if needed_by_them {
                if self.switch_coordinator(my_coord, xcid) {
                    return PollOutcome::Switched;
                }
            } else if their_r < req && self.help_steal_from(x, req_level, level) {
                // The partner's (winning, smaller) task does not need us:
                // help it finish faster by stealing tasks smaller than ours.
                return PollOutcome::Helped;
            }
        }
        PollOutcome::Nothing
    }

    /// Steals tasks *smaller than our current coordination requirement* from
    /// `victim` into our own queues (Algorithm 8's helping steal).  Returns
    /// `true` if at least one task was transferred.
    fn help_steal_from(&mut self, victim: usize, req_level: usize, steal_level: usize) -> bool {
        let moved = self.transfer_steal(victim, req_level.saturating_sub(1), steal_level);
        if moved > 0 {
            self.me().counters.help_steals.inc();
            true
        } else {
            false
        }
    }

    /// The paper's `switchToCoordinator` (Algorithm 9): deregister from the
    /// old coordinator (if allowed) and register with the new one.  Returns
    /// `true` if the switch happened.
    pub(super) fn switch_coordinator(&mut self, old: usize, new: usize) -> bool {
        let me = self.id;
        if old != me {
            match self.shared.workers[old]
                .reg
                .try_release(self.registered_counter[old])
            {
                ReleaseOutcome::Teamed => return false, // cannot drop out of a formed team
                ReleaseOutcome::Released | ReleaseOutcome::Revoked => {}
            }
            self.leave_coordinator();
        } else {
            // We were coordinating ourselves: revoke our registrants and stop
            // coordinating (Algorithm 9, lines 23–31).  A coordinator of a
            // *formed* team never abandons it (its members cannot leave
            // either), so refuse in that case.
            let myreg = self.me().reg.load();
            if myreg.teamed > 1 {
                return false;
            }
            // Register first, withdraw second.  If the winner's team filled
            // up between our poll and the CAS we are still this level's
            // coordinator, and our advertisement — with the threads already
            // registered on it — must stand.  Withdrawing first left a
            // failed switch coordinating on a word that reads r = 1, which
            // `is_complete` accepts: `coordinate_level` then "formed" a team
            // of one and published a task for members that did not exist,
            // whose start countdown nobody would ever drain (the ROADMAP
            // team-formation livelock).
            if !self.try_register_with(new) {
                return false;
            }
            self.withdraw();
            return true;
        }
        self.try_register_with(new)
    }

    /// Registers this worker at coordinator `cid` (one CAS, Algorithm 7
    /// lines 7–14).  On success the worker's coordinator pointer is updated.
    pub(super) fn try_register_with(&mut self, cid: usize) -> bool {
        let me = self.id;
        debug_assert_ne!(cid, me);
        let c = &self.shared.workers[cid];
        // Record the publication sequence *before* registering so we never
        // run a task published before we joined (those teams were complete
        // without us; DESIGN.md §9 row 4).
        let seq0 = c.publication.stable_seq();
        let creg = c.reg.load();
        let required = creg.required as usize;
        if required <= 1 || creg.is_complete() || !self.topo().overlap(cid, me, required) {
            return false;
        }
        match c.reg.try_acquire(2) {
            AcquireOutcome::Registered(snapshot) => {
                self.registered_counter[cid] = snapshot.counter;
                self.last_seen_seq[cid] = self.last_seen_seq[cid].max(seq0);
                self.me().coordinator.store(cid, Ordering::Release);
                self.me().counters.registrations.inc();
                // The coordinator may be parked waiting for this very
                // acquisition (ours could complete the team).
                self.shared.sleep.notify_worker(cid);
                true
            }
            AcquireOutcome::Contended => {
                self.me().counters.cas_failures.inc();
                false
            }
            AcquireOutcome::NotNeeded(_) => false,
        }
    }
}
