//! A watchdog around every workload phase.
//!
//! ROADMAP lists a team-formation livelock that can wedge a scheduler with
//! three or more workers for good.  A wedged scheduler cannot be joined, so
//! on expiry the watchdog prints the stall dump and ends the process with a
//! non-zero code and no result line, instead of letting the benchmark hang
//! until its caller kills it.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A phase may take this many times its expected length.
pub const ALLOWANCE: u32 = 4;

/// Exit code of a run that the watchdog ended.
pub const EXIT_WEDGED: i32 = 3;

#[derive(Default)]
struct State {
    /// Name and deadline of the phase being watched.
    armed: Option<(String, Instant)>,
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    changed: Condvar,
}

/// The watchdog thread.  Dropping it stops and joins the thread.
pub struct Watchdog {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog thread.  `on_expiry` gets the phase name and
    /// returns the process exit code; the production hook is [`Watchdog::start`].
    pub fn with_hook(on_expiry: impl Fn(&str) -> i32 + Send + 'static) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("benchmark-watchdog".into())
                .spawn(move || {
                    let mut state = shared.state.lock().expect("watchdog state lock poisoned");
                    while !state.stop {
                        let wait = match &state.armed {
                            Some((name, deadline)) => {
                                match deadline.checked_duration_since(Instant::now()) {
                                    Some(left) if !left.is_zero() => left,
                                    _ => {
                                        let code = on_expiry(name);
                                        std::process::exit(code);
                                    }
                                }
                            }
                            None => Duration::from_secs(3600),
                        };
                        state = shared
                            .changed
                            .wait_timeout(state, wait)
                            .expect("watchdog state lock poisoned")
                            .0;
                    }
                })
                .expect("failed to spawn the watchdog thread")
        };
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// Starts a watchdog that, on expiry, prints every live scheduler's
    /// `debug_state` line, turns on the workers' own stall reports, and
    /// exits with [`EXIT_WEDGED`].
    pub fn start() -> Self {
        Self::with_hook(|phase| {
            eprintln!("watchdog: phase `{phase}` exceeded {ALLOWANCE}x its expected length; the scheduler state is:");
            for line in teamsteal_core::stall_report() {
                eprintln!("watchdog:   {line}");
            }
            teamsteal_core::enable_stall_debug();
            // Give the workers one backstop period to print their own view.
            std::thread::sleep(Duration::from_millis(250));
            eprintln!(
                "{{\"watchdog_expired\": \"{phase}\", \"correct\": false, \"failed_share\": 1}}"
            );
            EXIT_WEDGED
        })
    }

    /// Runs `f` as phase `name`, which is expected to take `expected`.
    pub fn phase<R>(&self, name: &str, expected: Duration, f: impl FnOnce() -> R) -> R {
        self.arm(Some((
            name.to_owned(),
            Instant::now() + expected * ALLOWANCE,
        )));
        let result = f();
        self.arm(None);
        result
    }

    fn arm(&self, armed: Option<(String, Instant)>) {
        self.shared
            .state
            .lock()
            .expect("watchdog state lock poisoned")
            .armed = armed;
        self.shared.changed.notify_all();
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.stop = true;
        }
        self.shared.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            // The thread only panics on a poisoned lock, which this drop
            // must not turn into a second panic.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_that_finish_in_time_pass_through() {
        let wd = Watchdog::with_hook(|phase| panic!("phase {phase} must not expire"));
        for i in 0..3 {
            assert_eq!(wd.phase("quick", Duration::from_secs(5), || i * 2), i * 2);
        }
    }
}
