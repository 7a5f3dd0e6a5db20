//! Virtual threads: `spawn`/`join`/`yield_now`/`sleep` analogues that the
//! explorer schedules deterministically.
//!
//! Outside a model run, `spawn` panics (virtual threads only make sense
//! under a controller), while `yield_now` and `sleep` fall back to their
//! std counterparts so shim code paths stay usable from ordinary tests.

use crate::execution;
use std::sync::{Arc, Mutex as StdMutex};

/// Handle to a spawned virtual thread.
pub struct JoinHandle<T> {
    tid: usize,
    result: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait (a model yield point) until the thread finishes, returning
    /// its result.
    ///
    /// A panicking virtual thread fails the whole model run before any
    /// `join` can observe it, so unlike std this never returns `Err` —
    /// the `Result` is kept for source compatibility.
    pub fn join(self) -> Result<T, Box<dyn std::any::Any + Send>> {
        let ctx =
            execution::current().expect("teamsteal-model JoinHandle::join outside a model run");
        ctx.exec.join(ctx.tid, self.tid);
        let v = self
            .result
            .lock()
            .unwrap()
            .take()
            .expect("joined thread left no result");
        Ok(v)
    }

    /// The virtual thread id (0 is the root closure).
    pub fn tid(&self) -> usize {
        self.tid
    }
}

/// Spawn a virtual thread running `f`.  The spawn itself is a yield
/// point; the new thread starts only when the explorer schedules it.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let ctx = execution::current().expect("teamsteal-model thread::spawn outside a model run");
    let result = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let tid = ctx.exec.spawn(
        ctx.tid,
        Box::new(move || {
            let v = f();
            *slot.lock().unwrap() = Some(v);
        }),
    );
    JoinHandle { tid, result }
}

/// Scheduling hint; inside a run this is a yield point with no effect.
pub fn yield_now() {
    match execution::current() {
        Some(ctx) => ctx.exec.yield_now(ctx.tid),
        None => std::thread::yield_now(),
    }
}

/// Sleep: inside a run this advances the *virtual* clock by `dur` and
/// yields — the model never blocks on wall time.
pub fn sleep(dur: std::time::Duration) {
    match execution::current() {
        Some(ctx) => {
            let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
            ctx.exec.sleep(ctx.tid, ns);
        }
        None => std::thread::sleep(dur),
    }
}
