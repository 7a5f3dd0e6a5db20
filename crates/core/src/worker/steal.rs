//! Finding work elsewhere: the steal round over the `log p` partners
//! (Algorithm 7), the topology-ordered fallback scan, the steal itself with
//! its single-advertised-task guard (DESIGN.md §10), and pops from the
//! sharded injector (DESIGN.md §13).

use std::sync::atomic::Ordering;

use teamsteal_deque::Steal;
use teamsteal_topology::StealPolicy;
use teamsteal_util::bits;

use super::Worker;
use crate::task::{TaskNode, TaskPtr};

impl Worker {
    /// Chooses the partner at `level` according to the configured policy.
    pub(super) fn partner_at(&mut self, level: usize) -> Option<usize> {
        match self.shared.steal_policy {
            StealPolicy::Deterministic => self.topo().partner(self.id, level),
            StealPolicy::RandomizedWithinLevel => {
                let topo = &self.shared.topology;
                topo.partner_randomized(self.id, level, &mut self.rng)
            }
            StealPolicy::UniformRandom => {
                let p = self.shared.num_threads();
                if p <= 1 {
                    None
                } else {
                    let mut v = self.rng.next_usize_below(p - 1);
                    if v >= self.id {
                        v += 1;
                    }
                    Some(v)
                }
            }
        }
    }

    /// One full steal round over the `log p` partners (Algorithm 7).  Returns
    /// `true` if the round produced something to do (a steal or a
    /// registration).
    pub(super) fn steal_round(&mut self) -> bool {
        let levels = self.topo().num_steal_levels();
        if self.shared.steal_policy == StealPolicy::UniformRandom {
            // Classic randomized work-stealing (the Randfork baseline):
            // uniformly random victims, no team building.
            let attempts = levels.max(1);
            for _ in 0..attempts {
                let Some(victim) = self.partner_at(0) else {
                    return false;
                };
                let top = self.topo().num_queue_levels() - 1;
                if self.transfer_steal(victim, top, levels.max(1) - 1) > 0 {
                    self.me().counters.steals.inc();
                    return true;
                }
            }
            return false;
        }
        for level in 0..levels {
            let Some(x) = self.partner_at(level) else {
                continue;
            };
            // Smaller tasks first.  Refinement 1 forbids stealing tasks for
            // whose team both of us would be required, so only queues up to
            // the partner's level are eligible; within those, prefer the
            // largest tasks (Section 4).  paper: Algorithm 7 looks at the
            // coordinator's requirement before it steals; but a coordinator
            // does not form its team while smaller tasks are queued (Lemma
            // 1), so a thief that registered beside them would wait for work
            // it can do itself (DESIGN.md §5).
            if self.transfer_steal(x, level, level) > 0 {
                self.me().counters.steals.inc();
                return true;
            }
            // Nothing to take — team-building opportunity: does the
            // partner's *coordinator* need us for its task (Algorithm 7,
            // line 6)?
            let xcid = self.shared.workers[x].coordinator.load(Ordering::Acquire);
            if xcid != self.id {
                let xcreg = self.shared.workers[xcid].reg.load();
                let r = xcreg.required as usize;
                if r > 1
                    && !xcreg.is_complete()
                    && self.topo().overlap(xcid, self.id, r)
                    && self.try_register_with(xcid)
                {
                    return true;
                }
            }
        }
        // Every partner came up empty: fall back to a full victim scan in
        // hierarchy-distance order (DESIGN.md §13's `sweep_order`, same bias
        // as the sharded-injector pops) — own-domain victims first, so the
        // load balancing of last resort still prefers cache- and
        // NUMA-adjacent queues over far ones.
        self.fallback_scan()
    }

    /// Topology-biased fallback victim scan: visits every other worker in
    /// `Domains::sweep_order` order (nearest domain first, rotating start
    /// within each domain so concurrent thieves fan out) and steals from the
    /// first victim with eligible work.  Refinement 1 still applies: only
    /// queues below the level at which the victim's group would include this
    /// worker are eligible.
    fn fallback_scan(&mut self) -> bool {
        let num_domains = self.shared.domains.num_domains();
        for pos in 0..num_domains {
            let dom = self.shared.domains.sweep_order(self.domain)[pos];
            let range = self.shared.domains.domain_range(dom);
            let len = range.len();
            let start = if len > 1 { self.rng.next_usize_below(len) } else { 0 };
            for i in 0..len {
                let victim = range.start + (start + i) % len;
                if victim == self.id {
                    continue;
                }
                // Highest queue level whose tasks cannot require both of us:
                // the victim's groups are nested and growing, so it is the
                // last level before the victim's group swallows this worker.
                let mut safe_top = 0;
                for l in 0..self.topo().num_queue_levels() {
                    if self.topo().group_range(victim, l).contains(&self.id) {
                        break;
                    }
                    safe_top = l;
                }
                if self.transfer_steal(victim, safe_top, safe_top) > 0 {
                    self.me().counters.steals.inc();
                    return true;
                }
            }
        }
        false
    }

    /// Transfers up to [`steal_amount`] tasks from `victim`'s queues (levels
    /// `0..=max_qlevel`, largest first) into our own queues, re-levelling
    /// each task for our own hierarchy position (Refinement 3).  Returns the
    /// number of tasks moved.
    pub(super) fn transfer_steal(&mut self, victim: usize, max_qlevel: usize, amount_level: usize) -> usize {
        let me = self.id;
        if victim == me {
            return 0;
        }
        let vshared = &self.shared.workers[victim];
        let max_qlevel = max_qlevel.min(vshared.queues.len() - 1);
        // Occupancy hint: the victim sets a level's bit before pushing and
        // clears it only after observing emptiness, so a clear bit means
        // "empty" and the `top`/`bottom` loads of that deque can be skipped
        // entirely.  (A set bit is only a hint; `len` decides.)
        let occupancy = vshared.occupancy.load(Ordering::Relaxed);
        // The queue level the victim is advertising a team requirement for,
        // if any (its registration's `r` mapped onto its hierarchy position).
        let vreg = vshared.reg.load();
        let advertised_level = if vreg.required > 1 {
            Some(self.topo().level_for_requirement(victim, vreg.required as usize))
        } else {
            None
        };
        for qlevel in (0..=max_qlevel).rev() {
            if !bits::bit_is_set(occupancy, qlevel) {
                continue;
            }
            let vq = &vshared.queues[qlevel];
            let len = vq.len();
            if len == 0 {
                continue;
            }
            // Liveness (ROADMAP flake): never steal the *single* team task a
            // victim is actively building a team for.  Two hierarchy-partner
            // coordinators can otherwise steal the task back and forth
            // forever — each theft empties the other's queue mid-formation,
            // disbands its half-built team and revokes its registrants, so
            // no team ever forms (a stable livelock once queue operations
            // got cheap).  With two or more tasks queued the steal is
            // genuine load balancing and stays allowed.
            if qlevel >= 1 && len == 1 && advertised_level == Some(qlevel) {
                continue;
            }
            let want = steal_amount(len, amount_level);
            let mut moved = 0;
            let mut retries = 0;
            while moved < want {
                match vq.steal_top() {
                    Steal::Stolen(word) => {
                        let ptr = word as *mut TaskNode;
                        // SAFETY: the node is alive while it sits in a queue.
                        let req = unsafe { (*ptr).requirement };
                        let mylevel = self.topo().level_for_requirement(me, req);
                        self.shared.workers[me].push_task(mylevel, ptr);
                        moved += 1;
                        retries = 0;
                    }
                    Steal::Empty => break,
                    Steal::Retry => {
                        retries += 1;
                        if retries > 8 {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
            if moved > 0 {
                self.me().counters.tasks_stolen.add(moved as u64);
                // Locality classification (same split the injector pops
                // report): did this steal stay inside the thief's own
                // hierarchy domain or cross to a remote one?
                if self.shared.domains.domain_of(victim) == self.domain {
                    self.me().counters.steals_local.inc();
                } else {
                    self.me().counters.steals_remote.inc();
                }
                if moved > 1 {
                    // Bulk steal: surplus tasks now sit in our queue — wake
                    // chain so another sleeper can share the load instead
                    // of waiting for us to spawn-into-empty again.  We may
                    // well be the searching worker ourselves, so tolerate
                    // our own searcher count in the gate.
                    self.shared.sleep.notify_work(self.searching);
                }
                if advertised_level == Some(qlevel) && vq.is_empty() {
                    // We drained the level the victim is advertising a team
                    // for: a coordinator parked in `coordinate_level` waits
                    // on exactly this queue becoming empty (its "nothing
                    // left, return" condition) and would otherwise only
                    // notice at the backstop.
                    self.shared.sleep.notify_worker(victim);
                }
                return moved;
            }
        }
        0
    }

    /// Pulls one externally injected root task into the local queue:
    /// this worker's own domain shard first, then the remaining shards in
    /// hierarchy-distance order (DESIGN.md §13).  Lock-free: idle workers
    /// polling empty shards never serialize.
    pub(super) fn pop_injected(&mut self) -> bool {
        let order = self.shared.domains.sweep_order(self.domain);
        match self.shared.injector.pop_sweep(order) {
            Some((TaskPtr(ptr), pos)) => {
                let shard = order[pos];
                if pos == 0 {
                    self.me().counters.injector_local_pops.inc();
                } else {
                    self.me().counters.injector_remote_pops.inc();
                }
                // Stale-work expiry (DESIGN.md §17): a task whose deadline
                // passed (or whose token was cancelled) while it queued is
                // dropped here, before it costs a deque slot, a team or an
                // execution — the pop already made us its exclusive owner.
                if self.retire_if_stale(ptr) {
                    if self.shared.injector.shard_len(shard) > 0 {
                        self.shared.sleep.notify_work_near(
                            self.shared.domains.domain_range(shard),
                            self.searching,
                        );
                    }
                    return true;
                }
                // SAFETY: the node is alive while it sits in the injector.
                let req = unsafe { (*ptr).requirement };
                let level = self.topo().level_for_requirement(self.id, req);
                self.me().push_task(level, ptr);
                self.me().counters.tasks_injected.inc();
                if self.shared.injector.shard_len(shard) > 0 {
                    // Wake chain: the submit-side hint only wakes one worker
                    // per shard's empty→non-empty transition; each consumer
                    // passes the wake on while elements remain in the shard
                    // it popped, preferring a sleeper of that shard's own
                    // domain.  The caller is the searching worker that
                    // popped, so its own searcher count must not suppress
                    // the chain.
                    self.shared.sleep.notify_work_near(
                        self.shared.domains.domain_range(shard),
                        self.searching,
                    );
                }
                if req > 1 {
                    let group = self.topo().group_size(self.id, level);
                    self.announce(group);
                }
                true
            }
            None => false,
        }
    }
}

/// How many tasks one successful steal transfers from a queue of
/// `victim_len` tasks reached at steal level `level` (Section 4, "Number of
/// tasks to steal"): `2^ℓ` — "if we reached the ℓth partner it is likely
/// that all threads in the 2^ℓ block around it are running out of tasks, so
/// steal enough for all of them" — but at least one and never more than half
/// of the victim's queue.
pub(super) fn steal_amount(victim_len: usize, level: usize) -> usize {
    (victim_len / 2).max(1).min(1usize << level.min(20))
}
