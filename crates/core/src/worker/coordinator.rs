//! The coordinator side of team-building: `coordinateTask` (Algorithm 6)
//! generalized to one call per queue level, the coordinator resync backstop
//! (DESIGN.md §10), and the warm team-reuse pool (DESIGN.md §15).
//!
//! The registration word `R = {r, a, t, N}` changes only through
//! [`Worker::announce`], [`Worker::withdraw`] and [`Worker::shrink_to`],
//! each of which also wakes the team block the change affects (§12).

use std::sync::atomic::Ordering;

use teamsteal_registration::ReuseOutcome;
use teamsteal_util::eventcount::ParkClass;
use teamsteal_util::Backoff;

use super::member::PollOutcome;
use super::{Worker, COORDINATOR_RESYNC_AFTER, WARM_KEEPALIVE};
use crate::context::TaskContext;
use crate::task::TaskNode;

impl Worker {
    /// The paper's `coordinateTask` (Algorithm 6), generalized to one call
    /// per queue level: build (or reuse) the team for this level's group and
    /// execute the tasks in the level's queue with it.
    pub(super) fn coordinate_level(&mut self, level: usize) {
        let me = self.id;
        let group = self.topo().group_range(me, level);
        let team_size = group.len();

        // Adjust the advertised requirement.  paper: "r is modified every
        // time a new task is added to the bottom of the queue"; here we also
        // (re-)announce it when we start coordinating the level.
        let cur = self.me().reg.load();
        if (cur.teamed as usize) > team_size {
            // Next task is smaller than the current team: shrink (Section 3.1).
            self.shrink_to(team_size);
        } else if cur.teamed > 1 && (cur.teamed as usize) < team_size {
            // paper, Section 3.1: "If the next task is larger, the coordinator
            // breaks up the team as soon as execution of the previous task has
            // finished.  This is done by setting t = 1.  The team for the
            // larger task then has to be rebuilt from scratch."  Keeping the
            // smaller team formed here deadlocks: its members may never leave
            // a formed team, and a coordinator of a formed team never switches
            // to a competing coordinator, so two half-machine teams that both
            // want to grow wait on each other forever.
            self.withdraw();
            self.announce(team_size);
        } else if (cur.required as usize) != team_size {
            self.announce(team_size);
        }

        let mut backoff = Backoff::new();
        let mut resyncs_fired = 0u32;
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let reg = self.me().reg.load();
            let team_formed = reg.teamed as usize == team_size;
            if !team_formed {
                // Smaller tasks take priority until the team exists
                // (Lemma 1: "tasks requiring less threads are always
                // prioritized").
                if let Some(l) = self.me().lowest_nonempty_level() {
                    if l < level {
                        return;
                    }
                }
            }
            if self.me().queues[level].is_empty() {
                // Nothing left at this level (drained or stolen away); the
                // main loop decides what to do with the team next.
                return;
            }
            if reg.is_complete() {
                let ready = if team_formed {
                    true
                } else {
                    match self.me().reg.try_form_team() {
                        Some(_) => {
                            self.me().counters.teams_formed.inc();
                            true
                        }
                        None => {
                            self.me().counters.cas_failures.inc();
                            false
                        }
                    }
                };
                if ready {
                    match self.me().pop_task(level) {
                        Some(ptr) => {
                            if team_formed {
                                // Publication onto an already-formed team:
                                // the warm fast path (one seqlock write,
                                // no registration traffic).  `try_reuse` is
                                // a single Acquire load validating the team
                                // is still whole (DESIGN.md §15).
                                if matches!(
                                    self.me().reg.try_reuse(team_size as u16),
                                    ReuseOutcome::Reused(_)
                                ) {
                                    self.me().counters.team_reuses.inc();
                                }
                            } else {
                                // Cold path: this publication paid for a
                                // full team build.
                                self.me().counters.teams_built.inc();
                            }
                            self.execute_team_task_as_coordinator(ptr, group.start, team_size);
                            backoff.reset();
                        }
                        None => return,
                    }
                }
            } else {
                // Not enough threads yet: poll the partners required for this
                // team (Algorithm 8), possibly helping or switching.
                match self.poll_partners(me, team_size, level) {
                    PollOutcome::Switched | PollOutcome::Helped => return,
                    PollOutcome::Nothing => {
                        // Liveness backstop (ROADMAP flake): if the team has
                        // not completed for a long time, the acquired count
                        // may have desynchronized from the members that are
                        // actually polling us.  Withdraw the advertisement
                        // and re-announce it under a fresh renewal counter,
                        // forcing every registrant to re-register; any
                        // correctly waiting member re-acquires within one
                        // poll round, so the cost of a false positive is one
                        // extra CAS per member.  Time-based: a parked
                        // coordinator accumulates rounds only on wakes.
                        if backoff.unproductive_for()
                            >= COORDINATOR_RESYNC_AFTER * (resyncs_fired + 1)
                            && !self.me().reg.load().has_team()
                        {
                            resyncs_fired += 1;
                            self.withdraw();
                            self.announce(team_size);
                            self.me().counters.liveness_resyncs.inc();
                            // Stall resync is a whole-scheduler event: wake
                            // everyone so no stale park outlives it.
                            self.shared.sleep.notify_all();
                        }
                        self.stall_report("coordinate_level", &backoff);
                        // Park until a registration/release changes our
                        // word, a thief drains the level, or the poll finds
                        // a partner event (DESIGN.md §12).
                        let mut polled = PollOutcome::Nothing;
                        self.park_unless(ParkClass::Handshake, &mut backoff, |w| {
                            if w.me().reg.load() != reg || w.me().queues[level].is_empty() {
                                return true;
                            }
                            polled = w.poll_partners(me, team_size, level);
                            polled != PollOutcome::Nothing
                        });
                        if polled != PollOutcome::Nothing {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Publishes `ptr` to the (already formed) team and executes the
    /// coordinator's share.
    fn execute_team_task_as_coordinator(&mut self, ptr: *mut TaskNode, base: usize, team_size: usize) {
        debug_assert!(team_size >= 2);
        // A start countdown of `team_size - 1` is only ever drained by that
        // many *teamed* members polling this worker.
        debug_assert!(
            self.me().reg.load().teamed as usize >= team_size,
            "publishing a task for {team_size} members to {:?}",
            self.me().reg.load()
        );
        // Claim before the team descriptor is written or published: members
        // only ever see already-claimed tasks, so the cancel race is decided
        // while the coordinator still owns the node exclusively.
        if !self.claim_for_run(ptr) {
            return;
        }
        let me = self.id;
        // SAFETY: the node is alive; we are the only thread that can publish
        // it (it came out of our own queue) and no member can see it before
        // the publication below.
        let node = unsafe { &*ptr };
        unsafe { (*node.barrier.get()).rearm(team_size) };
        node.participants.store(team_size as u32, Ordering::Release);

        self.me().publication.publish(ptr, base, team_size);
        // Wake the members: they park between publications (member_step)
        // and must observe this one before the start countdown can drain.
        self.shared.sleep.notify_workers(base..base + team_size, me);

        // Run our own share of the task.
        // SAFETY: re-armed above; from the publication on it is only shared.
        let barrier = Some(unsafe { &*node.barrier.get() });
        let ctx = TaskContext {
            worker: &*self,
            // SAFETY: counted until the last participant's `finish_node`,
            // which cannot precede ours.
            scope: unsafe { node.scope() },
            requested: node.requirement,
            team_size,
            team_base: base,
            local_id: me - base,
            barrier,
        };
        Self::run_job(node, &ctx);
        self.me().counters.team_tasks_executed.inc();
        self.finish_node(ptr);
        // Wait until every member has started before allowing the next
        // publication or any registration change (Algorithm 5, lines 1–4).
        self.wait_countdown_zero();
    }

    /// Waits until every member has picked up the published task (`G = 0`):
    /// required before the next publication and before any change that takes
    /// threads out of the team (Algorithm 5, lines 1–4).
    fn wait_countdown_zero(&mut self) {
        let mut backoff = Backoff::new();
        while self.me().publication.pending_pickups() > 0 {
            // Liveness: at shutdown, members may exit their run loop without
            // picking up a published task (and thus without decrementing G).
            // A coordinator blocking here forever would then deadlock the
            // scheduler's drop-join.  Shutdown is only set after every scope
            // has drained, so abandoning the wait cannot lose work.
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.stall_report("wait_countdown", &backoff);
            // Park until the member whose decrement reaches zero notifies
            // us (member_step), shutdown broadcasts, or the backstop fires.
            self.park_unless(ParkClass::Handshake, &mut backoff, |w| {
                w.me().publication.pending_pickups() == 0
            });
        }
    }

    /// Advertises requirement `r` (`push_requirement`) and, if that changed
    /// the registration word, wakes the team block of the larger of the old
    /// and the new requirement: candidates may be parked idle or polling a
    /// competing coordinator they would switch away from, and registrants a
    /// smaller requirement revoked may be parked polling this word.  An
    /// unchanged word has nobody to inform — an idle candidate parked after
    /// `work_hints_visible` read this very word, and a registrant's park
    /// recheck compares it (§12).
    pub(super) fn announce(&self, r: usize) {
        // Only this worker writes `required`, so comparing it across the
        // call tells exactly whether `push_requirement` changed the word.
        let old = self.me().reg.load().required;
        let new = self.me().reg.push_requirement(r as u16).required;
        if new != old {
            self.notify_team_range(old.max(new) as usize);
        }
    }

    /// Dissolves the team / withdraws the requirement advertisement, if
    /// there is either (`disband`: the renewal counter revokes pending
    /// registrants), once every member has started, and wakes the old block
    /// — freed members and revoked registrants may be parked polling this
    /// word.
    pub(super) fn withdraw(&mut self) {
        let old = self.me().reg.load();
        if old.teamed > 1 || old.required > 1 {
            self.wait_countdown_zero();
            self.me().reg.disband();
            self.notify_team_range(old.teamed.max(old.required) as usize);
        }
    }

    /// Shrinks the formed team to `r` threads (`shrink_team`), once every
    /// member has started, and wakes the old block — the members dropped by
    /// the shrink may be parked polling us.
    fn shrink_to(&mut self, r: usize) {
        self.wait_countdown_zero();
        let old = self.me().reg.load();
        self.me().reg.shrink_team(r as u16);
        self.notify_team_range(old.teamed as usize);
    }

    /// Wakes every worker that could act on a change of this worker's
    /// registration word for requirement `r`: the aligned team block, minus
    /// the caller.  One eventcount ticket bump for the whole range, so a
    /// candidate mid-park-commit can never sleep through the event.
    fn notify_team_range(&self, r: usize) {
        if r > 1 {
            let range = self.topo().team_for(self.id, r);
            self.shared.sleep.notify_workers(range, self.id);
        }
    }

    // ------------------------------------------------------------------
    // The warm team-reuse pool (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Bounded warm-hold window run when the local queues are empty but this
    /// worker still coordinates a **formed** team.  Instead of disbanding at
    /// once, the coordinator keeps the team parked as a unit for up to
    /// `WARM_KEEPALIVE` while it looks for a next task itself — popping the
    /// injector and running a *restricted* steal round (no registration with
    /// foreign coordinators, which would orphan the held members).  Returns
    /// `true` when a task landed in the local queues: the main loop then
    /// re-enters `coordinate_level`, where a compatible requirement reuses
    /// the team with one publication write.  Returns `false` when the window
    /// expired or reuse is not possible; the caller disbands as before.
    pub(super) fn warm_hold(&mut self) -> bool {
        // One Acquire load decides whether the team is reusable at all
        // (formed, complete and not mid-grow): the same predicate a reuse
        // publication validates.
        if !matches!(self.me().reg.try_reuse(1), ReuseOutcome::Reused(_)) {
            return false;
        }
        let mut warm = Backoff::new();
        loop {
            // The expiry check comes *before* the work probe: once the
            // window has lapsed the pool must dissolve even if a task just
            // arrived — the late task then pays the cold path instead of
            // reviving a team whose members have been parked too long.
            if self.shared.shutdown.load(Ordering::Acquire)
                || warm.unproductive_for() >= WARM_KEEPALIVE
            {
                return false;
            }
            if self.pop_injected() || self.warm_steal_round() {
                return true;
            }
            self.unpinned_spin(&mut warm);
        }
    }

    /// The warm-hold variant of [`steal_round`](Self::steal_round): visits
    /// the same partners but only *steals* — never registers with a foreign
    /// coordinator, because this worker still holds a formed team whose
    /// members may not leave it (registering elsewhere would strand them).
    fn warm_steal_round(&mut self) -> bool {
        let levels = self.topo().num_steal_levels();
        for level in 0..levels {
            let Some(x) = self.partner_at(level) else {
                continue;
            };
            if self.transfer_steal(x, level, level) > 0 {
                self.me().counters.steals.inc();
                return true;
            }
        }
        false
    }
}
