//! The schedule enumerator: exhaustive DFS with DPOR-style sleep sets
//! and a bounded-preemption knob, a seeded random-walk mode for state
//! spaces too big to exhaust, and exact replay from a schedule string.
//!
//! The DFS is *stateless* (loom-style): each schedule re-runs the closure
//! from scratch, forcing the recorded choice at every decision point on
//! the current path prefix and default-policy choices beyond it.  After a
//! run, the deepest node with an unexplored, non-sleeping,
//! preemption-feasible alternative becomes the next prefix.

use crate::execution::{Candidate, Decision, Execution, Step};
use crate::{schedule_to_string, Choice};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Outcome summary of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Number of complete schedules executed.
    pub schedules: usize,
    /// True if exploration stopped at the schedule budget rather than
    /// exhausting the state space (only with [`Builder::allow_truncation`]
    /// or in random-walk mode).
    pub truncated: bool,
}

/// Configures and runs an exploration.
#[derive(Debug, Clone)]
pub struct Builder {
    preemption_bound: Option<u32>,
    max_schedules: usize,
    allow_truncation: bool,
    max_steps: usize,
    sleep_sets: bool,
    stale_window: usize,
    random: Option<(u64, usize)>,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            preemption_bound: None,
            max_schedules: 200_000,
            allow_truncation: false,
            max_steps: 20_000,
            sleep_sets: true,
            stale_window: 1,
            random: None,
        }
    }
}

impl Builder {
    /// A builder with the default exhaustive configuration.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Cap the number of context switches away from a still-runnable
    /// thread.  Bounded search is an under-approximation, but most
    /// concurrency bugs manifest within 2–3 preemptions.
    pub fn preemption_bound(mut self, bound: u32) -> Self {
        self.preemption_bound = Some(bound);
        self
    }

    /// Fail (or, with [`Builder::allow_truncation`], stop) after this
    /// many schedules.  This is the CI budget knob.
    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n;
        self
    }

    /// Return a truncated [`Report`] instead of panicking when the
    /// schedule budget is hit.
    pub fn allow_truncation(mut self) -> Self {
        self.allow_truncation = true;
        self
    }

    /// Fail any single run longer than this many steps (livelock guard).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Disable sleep-set pruning (used by the explorer's own tests to
    /// cross-check that pruning does not lose outcomes).
    pub fn without_sleep_sets(mut self) -> Self {
        self.sleep_sets = false;
        self
    }

    /// Disable stale-value branching for `Relaxed` loads (every load
    /// then reads the latest value, i.e. plain SC).
    pub fn without_stale_reads(mut self) -> Self {
        self.stale_window = 0;
        self
    }

    /// Explore `iters` seeded random walks instead of DFS.  For state
    /// spaces too big to exhaust; the report is always `truncated`.
    pub fn random(mut self, seed: u64, iters: usize) -> Self {
        self.random = Some((seed, iters));
        self
    }

    /// Run the exploration, panicking with a schedule string and trace on
    /// the first failing interleaving (deadlock, panicked virtual thread,
    /// or step-budget blowout).
    pub fn check<F>(self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        match self.random {
            Some((seed, iters)) => self.check_random(&f, seed, iters),
            None => self.check_dfs(&f),
        }
    }

    fn check_random(&self, f: &Arc<dyn Fn() + Send + Sync>, seed: u64, iters: usize) -> Report {
        let mut schedules = 0;
        for i in 0..iters {
            let mut rng =
                Rng::new(seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let res = run_once(self, f, |_, cands, _| {
                let c = &cands[rng.next_below(cands.len())];
                let variant = if c.variants > 1 {
                    (rng.next_below(c.variants as usize)) as u8
                } else {
                    0
                };
                Choice {
                    tid: c.tid,
                    variant,
                }
            });
            schedules += 1;
            if let RunOutcome::Failed(msg) = res.outcome {
                fail(schedules, &msg, &res.schedule, &res.trace);
            }
        }
        Report {
            schedules,
            truncated: true,
        }
    }

    fn check_dfs(&self, f: &Arc<dyn Fn() + Send + Sync>) -> Report {
        let mut path: Vec<Node> = Vec::new();
        let mut schedules = 0usize;
        loop {
            if schedules >= self.max_schedules {
                if self.allow_truncation {
                    return Report {
                        schedules,
                        truncated: true,
                    };
                }
                panic!(
                    "model exploration exceeded max_schedules = {} — \
                     bound the test (preemption_bound / fewer ops) or raise the budget",
                    self.max_schedules
                );
            }
            let sleep_sets = self.sleep_sets;
            let bound = self.preemption_bound;
            let res = run_once(self, f, |i, cands, prev| {
                dfs_pick(&mut path, i, cands, prev, sleep_sets, bound)
            });
            schedules += 1;
            if let RunOutcome::Failed(msg) = res.outcome {
                fail(schedules, &msg, &res.schedule, &res.trace);
            }
            // Backtrack: find the deepest node with an unexplored,
            // non-sleeping, preemption-feasible alternative.
            loop {
                let Some(top) = path.last_mut() else {
                    return Report {
                        schedules,
                        truncated: false,
                    };
                };
                top.done.insert(top.chosen);
                if let Some(next) = pick_unexplored(top, self.preemption_bound) {
                    top.chosen = next;
                    break;
                }
                path.pop();
            }
        }
    }
}

/// One decision point on the current DFS path.
struct Node {
    cands: Vec<Candidate>,
    chosen: Choice,
    /// Choices whose subtrees are fully explored.
    done: HashSet<Choice>,
    /// Sleep set on arrival: tids whose scheduling here is provably
    /// redundant with an already-explored sibling branch.
    sleep: BTreeSet<usize>,
    /// tid granted at the parent step (preemption accounting).
    prev_tid: Option<usize>,
    preemptions_before: u32,
}

impl Node {
    fn cand(&self, tid: usize) -> Option<&Candidate> {
        self.cands.iter().find(|c| c.tid == tid)
    }

    fn done_tids(&self) -> BTreeSet<usize> {
        // A tid is fully done only once every variant of its op here has
        // been explored.
        let mut out = BTreeSet::new();
        for c in &self.cands {
            if (0..c.variants).all(|v| {
                self.done.contains(&Choice {
                    tid: c.tid,
                    variant: v,
                })
            }) {
                out.insert(c.tid);
            }
        }
        out
    }
}

fn is_preemption(node_prev: Option<usize>, cands: &[Candidate], tid: usize) -> bool {
    match node_prev {
        Some(prev) => prev != tid && cands.iter().any(|c| c.tid == prev),
        None => false,
    }
}

fn pick_unexplored(node: &Node, bound: Option<u32>) -> Option<Choice> {
    for c in &node.cands {
        if node.sleep.contains(&c.tid) {
            continue;
        }
        if let Some(b) = bound {
            let cost = node.preemptions_before
                + u32::from(is_preemption(node.prev_tid, &node.cands, c.tid));
            if cost > b {
                continue;
            }
        }
        for v in 0..c.variants {
            let ch = Choice {
                tid: c.tid,
                variant: v,
            };
            if !node.done.contains(&ch) {
                return Some(ch);
            }
        }
    }
    None
}

/// Choose at step `i` of a DFS run: forced along the recorded prefix,
/// default policy (stay on the previous thread when possible) beyond it.
fn dfs_pick(
    path: &mut Vec<Node>,
    i: usize,
    cands: &[Candidate],
    prev: Option<usize>,
    sleep_sets: bool,
    bound: Option<u32>,
) -> Choice {
    if i < path.len() {
        let node = &path[i];
        assert!(
            node.cands == cands,
            "nondeterministic model closure: decision point {i} changed between runs \
             (was {:?}, now {:?}) — model closures must not use wall time, OS randomness, \
             or untracked shared state",
            node.cands,
            cands
        );
        return node.chosen;
    }
    debug_assert_eq!(i, path.len());
    // Arrival sleep set: parent's sleep ∪ parent's fully-explored tids,
    // minus threads whose pending op is dependent with the op the parent
    // edge executed, minus threads no longer runnable.
    let (sleep, preemptions_before) = match path.last() {
        Some(parent) if sleep_sets => {
            let exec_cand = parent
                .cand(parent.chosen.tid)
                .expect("chosen tid missing from its own node")
                .clone();
            let mut inherited = parent.sleep.clone();
            inherited.extend(parent.done_tids());
            inherited.remove(&parent.chosen.tid);
            let sleep: BTreeSet<usize> = inherited
                .into_iter()
                .filter(|&q| {
                    cands
                        .iter()
                        .find(|c| c.tid == q)
                        .is_some_and(|qc| !qc.dependent_with(&exec_cand))
                })
                .collect();
            let pre = parent.preemptions_before
                + u32::from(is_preemption(
                    parent.prev_tid,
                    &parent.cands,
                    parent.chosen.tid,
                ));
            (sleep, pre)
        }
        Some(parent) => {
            let pre = parent.preemptions_before
                + u32::from(is_preemption(
                    parent.prev_tid,
                    &parent.cands,
                    parent.chosen.tid,
                ));
            (BTreeSet::new(), pre)
        }
        None => (BTreeSet::new(), 0),
    };
    // Default policy: keep running the previous thread when legal (costs
    // no preemption), otherwise the lowest-tid non-sleeping candidate.
    let pick_tid = prev
        .filter(|p| cands.iter().any(|c| c.tid == *p) && !sleep.contains(p))
        .or_else(|| {
            cands.iter().map(|c| c.tid).find(|t| {
                !sleep.contains(t)
                    && bound
                        .map(|b| {
                            preemptions_before + u32::from(is_preemption(prev, cands, *t)) <= b
                        })
                        .unwrap_or(true)
            })
        })
        // Everything is sleeping or over-bound: the branch is redundant,
        // but the run must still terminate — take the first candidate.
        .unwrap_or(cands[0].tid);
    let chosen = Choice {
        tid: pick_tid,
        variant: 0,
    };
    path.push(Node {
        cands: cands.to_vec(),
        chosen,
        done: HashSet::new(),
        sleep,
        prev_tid: prev,
        preemptions_before,
    });
    chosen
}

enum RunOutcome {
    Complete,
    Failed(String),
}

struct RunResult {
    outcome: RunOutcome,
    schedule: Vec<Choice>,
    trace: Vec<Step>,
}

/// Execute one schedule: drive the controller loop, delegating each
/// decision to `pick(step_index, candidates, prev_tid)`.
fn run_once(
    b: &Builder,
    f: &Arc<dyn Fn() + Send + Sync>,
    mut pick: impl FnMut(usize, &[Candidate], Option<usize>) -> Choice,
) -> RunResult {
    let exec = Execution::new(b.stale_window, b.max_steps);
    exec.start_root(Arc::clone(f));
    let mut schedule: Vec<Choice> = Vec::new();
    loop {
        match exec.decision() {
            Decision::Done => {
                return RunResult {
                    outcome: RunOutcome::Complete,
                    schedule,
                    trace: exec.trace(),
                }
            }
            Decision::Failed(msg) => {
                return RunResult {
                    outcome: RunOutcome::Failed(msg),
                    schedule,
                    trace: exec.trace(),
                }
            }
            Decision::Choose(cands) => {
                let prev = schedule.last().map(|c| c.tid);
                let choice = pick(schedule.len(), &cands, prev);
                debug_assert!(cands.iter().any(|c| c.tid == choice.tid));
                schedule.push(choice);
                exec.grant(choice.tid, choice.variant);
            }
        }
    }
}

fn fail(schedules: usize, msg: &str, schedule: &[Choice], trace: &[Step]) -> ! {
    let tail: Vec<String> = trace
        .iter()
        .rev()
        .take(60)
        .map(|s| s.render())
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    panic!(
        "model check failed on schedule {} (after {} schedule(s)): {}\n\
         schedule: {}\n\
         replay with teamsteal_model::replay(\"{}\", ...)\n\
         trace (last {} steps):\n  {}",
        schedules,
        schedules,
        msg,
        schedule_to_string(schedule),
        schedule_to_string(schedule),
        tail.len(),
        tail.join("\n  "),
    )
}

/// Exhaustively explore `f` with the default configuration, panicking on
/// the first failing interleaving.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f)
}

/// Re-execute `f` under an exact schedule (as printed in a failure
/// report), returning the rendered trace.  Replaying the same schedule
/// twice yields identical traces — the explorer's determinism contract.
pub fn replay<F>(schedule: &str, f: F) -> String
where
    F: Fn() + Send + Sync + 'static,
{
    let choices = crate::parse_schedule(schedule).expect("malformed schedule string");
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let b = Builder::new();
    let mut idx = 0usize;
    let res = run_once(&b, &f, |_, cands, prev| {
        let c = choices.get(idx).copied().unwrap_or_else(|| {
            // Past the recorded schedule (e.g. a hand-trimmed string):
            // fall back to the default stay-on-thread policy.
            let tid = prev
                .filter(|p| cands.iter().any(|c| c.tid == *p))
                .unwrap_or(cands[0].tid);
            Choice { tid, variant: 0 }
        });
        idx += 1;
        assert!(
            cands.iter().any(|k| k.tid == c.tid),
            "schedule step {idx} wants t{} but runnable set is {:?}",
            c.tid,
            cands.iter().map(|k| k.tid).collect::<Vec<_>>()
        );
        c
    });
    if let RunOutcome::Failed(msg) = res.outcome {
        let rendered: Vec<String> = res.trace.iter().map(|s| s.render()).collect();
        return format!("FAILED: {}\n{}", msg, rendered.join("\n"));
    }
    let rendered: Vec<String> = res.trace.iter().map(|s| s.render()).collect();
    rendered.join("\n")
}

/// One seeded random walk, returning `(schedule string, trace string)` —
/// the generator side of the replay-determinism property tests.
pub fn random_walk<F>(seed: u64, f: F) -> (String, String)
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let b = Builder::new();
    let mut rng = Rng::new(seed | 1);
    let res = run_once(&b, &f, |_, cands, _| {
        let c = &cands[rng.next_below(cands.len())];
        let variant = if c.variants > 1 {
            (rng.next_below(c.variants as usize)) as u8
        } else {
            0
        };
        Choice {
            tid: c.tid,
            variant,
        }
    });
    let trace = match res.outcome {
        RunOutcome::Complete => res
            .trace
            .iter()
            .map(|s| s.render())
            .collect::<Vec<_>>()
            .join("\n"),
        RunOutcome::Failed(msg) => format!("FAILED: {msg}"),
    };
    (schedule_to_string(&res.schedule), trace)
}

/// xorshift64* — deterministic, seedable, no external deps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn next_below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
