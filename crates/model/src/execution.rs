//! The execution engine: virtual threads, tracked objects, and the
//! token-passing handshake between them and the schedule explorer.
//!
//! Exactly one virtual thread runs at any moment.  A virtual thread is a
//! real OS thread that, at every *yield point* (atomic access, mutex or
//! condvar operation, spawn/join/yield/sleep), announces the operation it
//! is about to perform and parks until the controller (the explorer loop
//! driving [`Execution`]) grants it the token.  Operation *effects* are
//! applied under the control lock at grant time, so the interleaving of
//! effects is exactly the sequence of grants — which is what the explorer
//! enumerates, replays, and records.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Virtual nanoseconds added to the clock per scheduling step, so that
/// `Instant::elapsed` grows even in runs that never call `sleep`.
const CLOCK_STEP_NS: u64 = 1_000;

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Per-OS-thread context naming the execution it belongs to.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: usize,
}

/// Returns the current virtual-thread context, or `None` when the caller
/// is not running inside a model execution (the model atomics then fall
/// back to plain std behaviour).
pub(crate) fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(ctx: Option<Ctx>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

/// What kind of shared object an id refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjKind {
    Atomic,
    Mutex,
    Condvar,
}

#[derive(Debug)]
struct ObjState {
    /// Only read by debug assertions (compiled out in release).
    #[allow(dead_code)]
    kind: ObjKind,
    /// Modification order (atomics): every value the object has held.
    hist: Vec<u64>,
    /// Per-thread coherence floor: index into `hist` of the newest value
    /// this thread has observed (reads may never go older).
    last_seen: Vec<usize>,
    /// Mutexes: holder tid.
    held_by: Option<usize>,
    /// Condvars: parked waiter tids.
    waiters: Vec<usize>,
}

impl ObjState {
    fn new(kind: ObjKind, initial: u64) -> Self {
        ObjState {
            kind,
            hist: if kind == ObjKind::Atomic {
                vec![initial]
            } else {
                Vec::new()
            },
            last_seen: Vec::new(),
            held_by: None,
            waiters: Vec::new(),
        }
    }

    fn last_seen_mut(&mut self, tid: usize) -> &mut usize {
        if self.last_seen.len() <= tid {
            self.last_seen.resize(tid + 1, 0);
        }
        &mut self.last_seen[tid]
    }

    /// Indices into `hist` a `Relaxed` load by `tid` may legally return,
    /// newest first, deduplicated by value, bounded by `window` stale
    /// entries below the latest.
    fn relaxed_candidates(&mut self, tid: usize, window: usize) -> Vec<usize> {
        let n = self.hist.len();
        let floor = (*self.last_seen_mut(tid)).max(n.saturating_sub(1 + window));
        let mut seen_vals = BTreeSet::new();
        let mut out = Vec::new();
        for idx in (floor..n).rev() {
            if seen_vals.insert(self.hist[idx]) {
                out.push(idx);
            }
        }
        out
    }
}

/// The operation a virtual thread has announced at a yield point.  Only
/// the information the explorer needs for scheduling decisions (enabled-
/// ness, dependence, outcome-variant counts) is carried here; the actual
/// effect runs as a closure at grant time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Thread exists but has not yet executed its first instruction.
    Start,
    /// Atomic load; `relaxed` loads may branch over stale values.
    Load { relaxed: bool },
    /// Atomic store / rmw / cas (all classified as writes).
    Write,
    /// `fence(ordering)`: no state effect under SC, but dependent with
    /// every atomic op for pruning purposes.
    Fence,
    /// Mutex acquire (enabled only while the mutex is free).
    MutexLock,
    /// Mutex release (always enabled).
    MutexUnlock,
    /// Atomically release `mutex` and park on the condvar; the announced
    /// step is the release, after which the thread blocks.
    CondWait {
        mutex: usize,
        timeout_ns: Option<u64>,
    },
    /// notify_one / notify_all on a condvar.
    Notify,
    /// Scheduling hint; no effect.
    Yield,
    /// Advance the virtual clock by `ns` (the model never wall-sleeps).
    Sleep { ns: u64 },
    /// Create a new virtual thread (the entry is created at grant time,
    /// so thread ids are deterministic under a fixed schedule).
    Spawn,
    /// Join on `target`; enabled once the target has finished.
    Join { target: usize },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub(crate) kind: OpKind,
    /// Primary object acted on (`usize::MAX` when none).
    pub(crate) obj: usize,
}

pub(crate) const NO_OBJ: usize = usize::MAX;

/// Why a thread is not currently announcing an op.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// Parked on a condvar (the `CondWait` release step already ran).
    Cond {
        cv: usize,
        mutex: usize,
        deadline: Option<u64>,
    },
    /// Woken (by notify or timeout) and waiting to re-acquire the mutex.
    Reacquire { mutex: usize, timed_out: bool },
}

#[derive(Default)]
struct ThreadCtl {
    /// Announced-but-not-yet-granted operation.
    pending: Option<Op>,
    blocked: Option<Block>,
    finished: bool,
    panic_msg: Option<String>,
    /// Outcome variant selected by the controller for the next grant.
    variant: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    Controller,
    Thread(usize),
    /// Execution failed; virtual threads park forever (the failing test
    /// is about to panic, so the parked OS threads are deliberately
    /// leaked rather than unwound through protocol code).
    Poisoned,
}

/// One recorded step of a run; the trace is the replay-determinism
/// witness (same schedule string ⇒ identical trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) tid: usize,
    pub(crate) variant: u8,
    pub(crate) desc: &'static str,
    pub(crate) obj: usize,
    pub(crate) value: u64,
}

impl Step {
    pub(crate) fn render(&self) -> String {
        let obj = if self.obj == NO_OBJ {
            String::new()
        } else {
            format!("#{}", self.obj)
        };
        let var = if self.variant == 0 {
            String::new()
        } else {
            format!(".{}", self.variant)
        };
        format!(
            "t{}{} {}{} = {:#x}",
            self.tid, var, self.desc, obj, self.value
        )
    }
}

struct Ctl {
    turn: Turn,
    threads: Vec<ThreadCtl>,
    objects: Vec<ObjState>,
    clock_ns: u64,
    steps: usize,
    trace: Vec<Step>,
    failure: Option<String>,
}

/// A candidate scheduling choice the explorer may take at a decision
/// point, with everything sleep sets and preemption bounding need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Candidate {
    pub(crate) tid: usize,
    /// Number of legal outcome variants (>1 only for relaxed loads with
    /// observable stale values).
    pub(crate) variants: u8,
    /// Objects the op touches (for the dependence relation).
    pub(crate) objs: [usize; 2],
    /// Writes (incl. rmw/cas/lock/unlock/notify) are dependent with any
    /// access to the same object; reads commute with reads.
    pub(crate) is_write: bool,
    /// Fences are conservatively dependent with everything.
    pub(crate) is_fence: bool,
}

impl Candidate {
    /// Conservative dependence relation used by the sleep-set pruner.
    pub(crate) fn dependent_with(&self, other: &Candidate) -> bool {
        if self.is_fence || other.is_fence {
            return true;
        }
        for &a in &self.objs {
            if a == NO_OBJ {
                continue;
            }
            for &b in &other.objs {
                if a == b && (self.is_write || other.is_write) {
                    return true;
                }
            }
        }
        false
    }
}

/// What the explorer should do next.
pub(crate) enum Decision {
    /// All virtual threads finished; the run is complete.
    Done,
    /// Pick one of these candidates and call [`Execution::grant`].
    Choose(Vec<Candidate>),
    /// The run failed (deadlock, assertion panic inside a virtual thread,
    /// or step-budget blowout).  The message includes the failure detail;
    /// the explorer wraps it with schedule + trace.
    Failed(String),
}

/// Shared state of one model run.  The explorer holds one `Arc` and each
/// virtual OS thread holds another (via its thread-local [`Ctx`]).
pub(crate) struct Execution {
    ctl: StdMutex<Ctl>,
    cv: StdCondvar,
    /// Stale-value window for `Relaxed` loads (0 disables stale reads).
    stale_window: usize,
    /// Fail the run if it exceeds this many steps (livelock guard).
    max_steps: usize,
    /// Fault-injection hook: number of upcoming eventcount notifications
    /// the shim should silently drop (see [`crate::fault`]).
    pub(crate) drop_notifies: std::sync::atomic::AtomicU64,
}

impl Execution {
    pub(crate) fn new(stale_window: usize, max_steps: usize) -> Arc<Self> {
        Arc::new(Execution {
            ctl: StdMutex::new(Ctl {
                turn: Turn::Controller,
                threads: Vec::new(),
                objects: Vec::new(),
                clock_ns: 0,
                steps: 0,
                trace: Vec::new(),
                failure: None,
            }),
            cv: StdCondvar::new(),
            stale_window,
            max_steps,
            drop_notifies: std::sync::atomic::AtomicU64::new(0),
        })
    }

    // ------------------------------------------------------------------
    // Controller (explorer) side
    // ------------------------------------------------------------------

    /// Launch the root closure as virtual thread 0.
    pub(crate) fn start_root(self: &Arc<Self>, f: Arc<dyn Fn() + Send + Sync>) {
        {
            let mut ctl = self.ctl.lock().unwrap();
            assert!(ctl.threads.is_empty());
            ctl.threads.push(ThreadCtl {
                pending: Some(Op {
                    kind: OpKind::Start,
                    obj: NO_OBJ,
                }),
                ..ThreadCtl::default()
            });
        }
        let exec = Arc::clone(self);
        std::thread::spawn(move || {
            run_vthread(exec, 0, move || f());
        });
    }

    /// Wait until it is the controller's turn, then classify the state.
    /// Deterministic timeout escapes (a parked timed waiter waking because
    /// nothing else can run) are applied internally, so `Choose` always
    /// returns a non-empty candidate list.
    pub(crate) fn decision(&self) -> Decision {
        let mut ctl = self.ctl.lock().unwrap();
        while ctl.turn != Turn::Controller {
            if ctl.turn == Turn::Poisoned {
                return Decision::Failed(ctl.failure.clone().unwrap_or_default());
            }
            ctl = self.cv.wait(ctl).unwrap();
        }
        if let Some(tid) = ctl.threads.iter().position(|t| t.panic_msg.is_some()) {
            let msg = ctl.threads[tid].panic_msg.clone().unwrap();
            let msg = format!("virtual thread {tid} panicked: {msg}");
            self.poison(&mut ctl, msg.clone());
            return Decision::Failed(msg);
        }
        if ctl.steps > self.max_steps {
            let msg = format!(
                "run exceeded {} steps — livelock, or raise Builder::max_steps",
                self.max_steps
            );
            self.poison(&mut ctl, msg.clone());
            return Decision::Failed(msg);
        }
        loop {
            if ctl.threads.iter().all(|t| t.finished) {
                return Decision::Done;
            }
            let cands = self.candidates(&mut ctl);
            if !cands.is_empty() {
                return Decision::Choose(cands);
            }
            // Nothing runnable: let the earliest timed condvar waiter
            // time out (virtual clock jumps to its deadline).  This is
            // the model's deadlock-escape semantics for backstops: a
            // timeout fires only when the system would otherwise block
            // (DESIGN.md §14 discusses why this under-approximation is
            // acceptable for the parking protocol).
            let mut best: Option<(usize, u64)> = None;
            for (tid, t) in ctl.threads.iter().enumerate() {
                if let Some(Block::Cond {
                    deadline: Some(d), ..
                }) = t.blocked
                {
                    if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                        best = Some((tid, d));
                    }
                }
            }
            match best {
                Some((tid, deadline)) => {
                    ctl.clock_ns = ctl.clock_ns.max(deadline);
                    let (cv, mutex) = match ctl.threads[tid].blocked {
                        Some(Block::Cond { cv, mutex, .. }) => (cv, mutex),
                        _ => unreachable!(),
                    };
                    ctl.objects[cv].waiters.retain(|&w| w != tid);
                    ctl.threads[tid].blocked = Some(Block::Reacquire {
                        mutex,
                        timed_out: true,
                    });
                }
                None => {
                    let held = describe_blocked(&ctl);
                    let msg = format!("deadlock: no runnable virtual thread ({held})");
                    self.poison(&mut ctl, msg.clone());
                    return Decision::Failed(msg);
                }
            }
        }
    }

    /// Grant the token to `tid`, taking outcome variant `variant`.
    pub(crate) fn grant(&self, tid: usize, variant: u8) {
        let mut ctl = self.ctl.lock().unwrap();
        debug_assert_eq!(ctl.turn, Turn::Controller);
        ctl.threads[tid].variant = variant;
        ctl.clock_ns += CLOCK_STEP_NS;
        ctl.steps += 1;
        ctl.turn = Turn::Thread(tid);
        self.cv.notify_all();
    }

    pub(crate) fn trace(&self) -> Vec<Step> {
        self.ctl.lock().unwrap().trace.clone()
    }

    fn poison(&self, ctl: &mut Ctl, msg: String) {
        ctl.failure = Some(msg);
        ctl.turn = Turn::Poisoned;
        self.cv.notify_all();
    }

    /// Runnable candidates, lowest tid first (deterministic order).
    fn candidates(&self, ctl: &mut Ctl) -> Vec<Candidate> {
        let mut out = Vec::new();
        for tid in 0..ctl.threads.len() {
            let (pending, blocked, finished) = {
                let t = &ctl.threads[tid];
                (t.pending, t.blocked, t.finished)
            };
            if finished {
                continue;
            }
            if let Some(Block::Reacquire { mutex, .. }) = blocked {
                if ctl.objects[mutex].held_by.is_none() {
                    out.push(Candidate {
                        tid,
                        variants: 1,
                        objs: [mutex, NO_OBJ],
                        is_write: true,
                        is_fence: false,
                    });
                }
                continue;
            }
            if blocked.is_some() {
                continue; // parked on a condvar
            }
            let Some(op) = pending else { continue }; // running (shouldn't happen)
            let cand = match op.kind {
                OpKind::MutexLock if ctl.objects[op.obj].held_by.is_some() => continue,
                OpKind::Join { target } if !ctl.threads[target].finished => continue,
                OpKind::Load { relaxed } => {
                    let variants = if relaxed && self.stale_window > 0 {
                        ctl.objects[op.obj]
                            .relaxed_candidates(tid, self.stale_window)
                            .len()
                            .max(1) as u8
                    } else {
                        1
                    };
                    Candidate {
                        tid,
                        variants,
                        objs: [op.obj, NO_OBJ],
                        is_write: false,
                        is_fence: false,
                    }
                }
                OpKind::Write | OpKind::MutexLock | OpKind::MutexUnlock | OpKind::Notify => {
                    Candidate {
                        tid,
                        variants: 1,
                        objs: [op.obj, NO_OBJ],
                        is_write: true,
                        is_fence: false,
                    }
                }
                OpKind::CondWait { mutex, .. } => Candidate {
                    tid,
                    variants: 1,
                    objs: [op.obj, mutex],
                    is_write: true,
                    is_fence: false,
                },
                OpKind::Fence => Candidate {
                    tid,
                    variants: 1,
                    objs: [NO_OBJ, NO_OBJ],
                    is_write: true,
                    is_fence: true,
                },
                OpKind::Start
                | OpKind::Yield
                | OpKind::Sleep { .. }
                | OpKind::Spawn
                | OpKind::Join { .. } => Candidate {
                    tid,
                    variants: 1,
                    objs: [NO_OBJ, NO_OBJ],
                    is_write: false,
                    is_fence: false,
                },
            };
            out.push(cand);
        }
        out
    }

    // ------------------------------------------------------------------
    // Virtual-thread side (called from the sync/thread/time wrappers via
    // the thread-local Ctx)
    // ------------------------------------------------------------------

    /// Register a shared object, returning its id.  Not a yield point:
    /// object creation is thread-local until the object is shared, and id
    /// assignment is deterministic under a fixed schedule because only
    /// one virtual thread runs at a time.
    pub(crate) fn register_object(&self, kind: ObjKind, initial: u64) -> usize {
        let mut ctl = self.ctl.lock().unwrap();
        ctl.objects.push(ObjState::new(kind, initial));
        ctl.objects.len() - 1
    }

    /// Non-yielding peek at the virtual clock (powers `Instant::now`).
    pub(crate) fn peek_clock_ns(&self) -> u64 {
        self.ctl.lock().unwrap().clock_ns
    }

    /// Core yield-point protocol: announce `op`, park until granted, then
    /// apply `effect` under the control lock and resume user code.
    fn yield_point<R>(&self, tid: usize, op: Op, effect: impl FnOnce(&mut Ctl, u8) -> R) -> R {
        let mut ctl = self.ctl.lock().unwrap();
        debug_assert!(ctl.threads[tid].pending.is_none());
        ctl.threads[tid].pending = Some(op);
        ctl.turn = Turn::Controller;
        self.cv.notify_all();
        loop {
            match ctl.turn {
                Turn::Thread(t) if t == tid => break,
                Turn::Poisoned => park_forever(&self.cv, ctl),
                _ => ctl = self.cv.wait(ctl).unwrap(),
            }
        }
        let variant = ctl.threads[tid].variant;
        ctl.threads[tid].pending = None;
        effect(&mut ctl, variant)
    }

    pub(crate) fn atomic_load(&self, tid: usize, obj: usize, relaxed: bool) -> u64 {
        let window = self.stale_window;
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Load { relaxed },
                obj,
            },
            |ctl, variant| {
                let o = &mut ctl.objects[obj];
                let idx = if relaxed && window > 0 {
                    let cands = o.relaxed_candidates(tid, window);
                    cands[(variant as usize).min(cands.len() - 1)]
                } else {
                    o.hist.len() - 1
                };
                let val = o.hist[idx];
                let floor = o.last_seen_mut(tid);
                *floor = (*floor).max(idx);
                ctl.record(tid, variant, "load", obj, val);
                val
            },
        )
    }

    pub(crate) fn atomic_store(&self, tid: usize, obj: usize, val: u64) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Write,
                obj,
            },
            |ctl, variant| {
                let o = &mut ctl.objects[obj];
                o.hist.push(val);
                let idx = o.hist.len() - 1;
                *o.last_seen_mut(tid) = idx;
                ctl.record(tid, variant, "store", obj, val);
            },
        )
    }

    /// Read-modify-write: reads the latest value (RMWs are never stale),
    /// appends `f(old)`, returns `old`.
    pub(crate) fn atomic_rmw(&self, tid: usize, obj: usize, f: impl FnOnce(u64) -> u64) -> u64 {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Write,
                obj,
            },
            |ctl, variant| {
                let o = &mut ctl.objects[obj];
                let old = *o.hist.last().unwrap();
                o.hist.push(f(old));
                let idx = o.hist.len() - 1;
                *o.last_seen_mut(tid) = idx;
                ctl.record(tid, variant, "rmw", obj, old);
                old
            },
        )
    }

    pub(crate) fn atomic_cas(
        &self,
        tid: usize,
        obj: usize,
        current: u64,
        new: u64,
    ) -> Result<u64, u64> {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Write,
                obj,
            },
            |ctl, variant| {
                let o = &mut ctl.objects[obj];
                let latest = *o.hist.last().unwrap();
                let res = if latest == current {
                    o.hist.push(new);
                    Ok(current)
                } else {
                    Err(latest)
                };
                let idx = o.hist.len() - 1;
                *o.last_seen_mut(tid) = idx;
                ctl.record(
                    tid,
                    variant,
                    if res.is_ok() { "cas+" } else { "cas-" },
                    obj,
                    latest,
                );
                res
            },
        )
    }

    /// A fence; a `seq_cst` one raises `tid`'s coherence floor on every
    /// atomic to its newest value.  That is stronger than C++ (a fence only
    /// guarantees the writes ordered before it in the `SeqCst` order), so it
    /// may hide a bug, never invent one.
    pub(crate) fn fence(&self, tid: usize, seq_cst: bool) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Fence,
                obj: NO_OBJ,
            },
            |ctl, variant| {
                if seq_cst {
                    for o in ctl.objects.iter_mut() {
                        if let Some(newest) = o.hist.len().checked_sub(1) {
                            *o.last_seen_mut(tid) = newest;
                        }
                    }
                }
                ctl.record(tid, variant, "fence", NO_OBJ, 0);
            },
        )
    }

    pub(crate) fn mutex_lock(&self, tid: usize, obj: usize) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::MutexLock,
                obj,
            },
            |ctl, variant| {
                debug_assert_eq!(ctl.objects[obj].kind, ObjKind::Mutex);
                debug_assert!(ctl.objects[obj].held_by.is_none());
                ctl.objects[obj].held_by = Some(tid);
                ctl.record(tid, variant, "lock", obj, 0);
            },
        )
    }

    pub(crate) fn mutex_unlock(&self, tid: usize, obj: usize) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::MutexUnlock,
                obj,
            },
            |ctl, variant| {
                debug_assert_eq!(ctl.objects[obj].held_by, Some(tid));
                ctl.objects[obj].held_by = None;
                ctl.record(tid, variant, "unlock", obj, 0);
            },
        )
    }

    /// Release `mutex`, park on condvar `cv`, and (on wake or timeout)
    /// re-acquire the mutex.  Returns whether the wait timed out.
    pub(crate) fn cond_wait(
        &self,
        tid: usize,
        cv_obj: usize,
        mutex: usize,
        timeout_ns: Option<u64>,
    ) -> bool {
        // Phase 1: the announced step atomically releases the mutex and
        // parks the thread.
        let mut ctl = self.ctl.lock().unwrap();
        debug_assert!(ctl.threads[tid].pending.is_none());
        ctl.threads[tid].pending = Some(Op {
            kind: OpKind::CondWait { mutex, timeout_ns },
            obj: cv_obj,
        });
        ctl.turn = Turn::Controller;
        self.cv.notify_all();
        loop {
            match ctl.turn {
                Turn::Thread(t) if t == tid => break,
                Turn::Poisoned => park_forever(&self.cv, ctl),
                _ => ctl = self.cv.wait(ctl).unwrap(),
            }
        }
        let variant = ctl.threads[tid].variant;
        ctl.threads[tid].pending = None;
        debug_assert_eq!(ctl.objects[mutex].held_by, Some(tid));
        ctl.objects[mutex].held_by = None;
        let deadline = timeout_ns.map(|ns| ctl.clock_ns.saturating_add(ns));
        ctl.objects[cv_obj].waiters.push(tid);
        ctl.threads[tid].blocked = Some(Block::Cond {
            cv: cv_obj,
            mutex,
            deadline,
        });
        ctl.record(tid, variant, "wait", cv_obj, 0);
        // The release step is complete: hand the token back and park
        // until the controller grants us again (via notify or timeout
        // escape, both of which move us to Reacquire).
        ctl.turn = Turn::Controller;
        self.cv.notify_all();
        loop {
            match ctl.turn {
                Turn::Thread(t) if t == tid => break,
                Turn::Poisoned => park_forever(&self.cv, ctl),
                _ => ctl = self.cv.wait(ctl).unwrap(),
            }
        }
        // Phase 2: woken with the mutex free — re-acquire and resume.
        let variant = ctl.threads[tid].variant;
        let timed_out = match ctl.threads[tid].blocked.take() {
            Some(Block::Reacquire {
                mutex: m,
                timed_out,
            }) => {
                debug_assert_eq!(m, mutex);
                timed_out
            }
            other => unreachable!("woken from cond_wait in state {other:?}"),
        };
        debug_assert!(ctl.objects[mutex].held_by.is_none());
        ctl.objects[mutex].held_by = Some(tid);
        ctl.record(
            tid,
            variant,
            if timed_out { "wake-timeout" } else { "wake" },
            cv_obj,
            0,
        );
        timed_out
    }

    pub(crate) fn notify(&self, tid: usize, cv_obj: usize, all: bool) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Notify,
                obj: cv_obj,
            },
            |ctl, variant| {
                let mut woken = 0u64;
                // Lowest-tid waiter first: deterministic, and matches the
                // single-waiter-per-slot usage in the eventcount.
                while let Some(pos) = ctl.objects[cv_obj]
                    .waiters
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &w)| w)
                    .map(|(i, _)| i)
                {
                    let w = ctl.objects[cv_obj].waiters.remove(pos);
                    let mutex = match ctl.threads[w].blocked {
                        Some(Block::Cond { mutex, .. }) => mutex,
                        other => unreachable!("condvar waiter {w} in state {other:?}"),
                    };
                    ctl.threads[w].blocked = Some(Block::Reacquire {
                        mutex,
                        timed_out: false,
                    });
                    woken += 1;
                    if !all {
                        break;
                    }
                }
                ctl.record(
                    tid,
                    variant,
                    if all { "notify-all" } else { "notify-one" },
                    cv_obj,
                    woken,
                );
            },
        )
    }

    pub(crate) fn yield_now(&self, tid: usize) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Yield,
                obj: NO_OBJ,
            },
            |ctl, variant| {
                ctl.record(tid, variant, "yield", NO_OBJ, 0);
            },
        )
    }

    pub(crate) fn sleep(&self, tid: usize, ns: u64) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Sleep { ns },
                obj: NO_OBJ,
            },
            |ctl, variant| {
                ctl.clock_ns = ctl.clock_ns.saturating_add(ns);
                ctl.record(tid, variant, "sleep", NO_OBJ, ns);
            },
        )
    }

    /// Spawn a virtual thread running `f`; returns its tid.
    pub(crate) fn spawn(self: &Arc<Self>, tid: usize, f: Box<dyn FnOnce() + Send>) -> usize {
        let new_tid = self.yield_point(
            tid,
            Op {
                kind: OpKind::Spawn,
                obj: NO_OBJ,
            },
            |ctl, variant| {
                ctl.threads.push(ThreadCtl {
                    pending: Some(Op {
                        kind: OpKind::Start,
                        obj: NO_OBJ,
                    }),
                    ..ThreadCtl::default()
                });
                let new_tid = ctl.threads.len() - 1;
                ctl.record(tid, variant, "spawn", NO_OBJ, new_tid as u64);
                new_tid
            },
        );
        let exec = Arc::clone(self);
        std::thread::spawn(move || run_vthread(exec, new_tid, f));
        new_tid
    }

    pub(crate) fn join(&self, tid: usize, target: usize) {
        self.yield_point(
            tid,
            Op {
                kind: OpKind::Join { target },
                obj: NO_OBJ,
            },
            |ctl, variant| {
                debug_assert!(ctl.threads[target].finished);
                ctl.record(tid, variant, "join", NO_OBJ, target as u64);
            },
        )
    }
}

impl Ctl {
    fn record(&mut self, tid: usize, variant: u8, desc: &'static str, obj: usize, value: u64) {
        self.trace.push(Step {
            tid,
            variant,
            desc,
            obj,
            value,
        });
    }
}

fn describe_blocked(ctl: &Ctl) -> String {
    let mut parts = Vec::new();
    for (tid, t) in ctl.threads.iter().enumerate() {
        if t.finished {
            continue;
        }
        let what = match (&t.blocked, &t.pending) {
            (Some(Block::Cond { cv, .. }), _) => format!("t{tid} parked on condvar #{cv}"),
            (Some(Block::Reacquire { mutex, .. }), _) => {
                format!("t{tid} reacquiring mutex #{mutex}")
            }
            (None, Some(op)) => format!("t{tid} pending {:?} on #{}", op.kind, op.obj),
            (None, None) => format!("t{tid} running"),
        };
        parts.push(what);
    }
    parts.join("; ")
}

/// Never returns: used when the execution is poisoned so that virtual
/// threads neither unwind through protocol code nor touch shared state.
fn park_forever(cv: &StdCondvar, mut guard: std::sync::MutexGuard<'_, Ctl>) -> ! {
    loop {
        guard = cv.wait(guard).unwrap();
    }
}

/// Body of every virtual OS thread: install the context, wait for the
/// first grant (the `Start` op), run the closure, report completion (or
/// panic) back to the controller.
fn run_vthread(exec: Arc<Execution>, tid: usize, f: impl FnOnce() + Send + 'static) {
    set_current(Some(Ctx {
        exec: Arc::clone(&exec),
        tid,
    }));
    {
        let mut ctl = exec.ctl.lock().unwrap();
        loop {
            match ctl.turn {
                Turn::Thread(t) if t == tid => break,
                Turn::Poisoned => park_forever(&exec.cv, ctl),
                _ => ctl = exec.cv.wait(ctl).unwrap(),
            }
        }
        ctl.threads[tid].pending = None;
        ctl.record(tid, 0, "start", NO_OBJ, 0);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    let mut ctl = exec.ctl.lock().unwrap();
    if let Err(payload) = result {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        ctl.threads[tid].panic_msg = Some(msg);
    }
    ctl.threads[tid].finished = true;
    ctl.turn = Turn::Controller;
    exec.cv.notify_all();
    drop(ctl);
    set_current(None);
}
