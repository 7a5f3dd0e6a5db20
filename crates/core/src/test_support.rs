//! Test support shared by this workspace's unit and integration tests: the
//! liveness watchdog.  Not part of the public API (hidden from the docs); it
//! lives here, not in `tests/common`, so crates below the facade can run
//! their own scheduler tests under it.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Default watchdog budget for scheduler stress tests.  Generous enough for
/// a heavily oversubscribed single-CPU CI host; a healthy run finishes these
/// tests in well under a second.
pub const WATCHDOG: Duration = Duration::from_secs(90);

/// Runs `body` on a helper thread and aborts the whole test process with a
/// diagnostic if it has not finished within `timeout`.
///
/// A scheduler liveness bug used to manifest as a silent 40-minute hang (see
/// ROADMAP "scheduler liveness flake"); under the watchdog a recurrence is a
/// fast, loud failure instead.  On timeout the watchdog flips on the
/// scheduler's stall-state dumps ([`crate::enable_stall_debug`]), gives
/// the wedged workers a few seconds to print a thread-state dump of every
/// worker, and then aborts.
///
/// Panics from `body` propagate normally, so assertion failures keep their
/// messages.
pub fn with_watchdog<F>(name: &str, timeout: Duration, body: F)
where
    F: FnOnce() + Send + 'static,
{
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let thread = std::thread::Builder::new()
        .name(format!("watchdog-body-{name}"))
        .spawn(move || {
            body();
            // A panicking body drops the sender without sending; the watchdog
            // side distinguishes that from a timeout.
            let _ = done_tx.send(());
        })
        .expect("failed to spawn watchdog body thread");
    match done_rx.recv_timeout(timeout) {
        Ok(()) => {
            thread
                .join()
                .expect("watchdog body panicked after completing");
        }
        Err(RecvTimeoutError::Disconnected) => {
            // The body panicked: re-raise it on the test thread.
            match thread.join() {
                Ok(()) => unreachable!("body completed without signalling"),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            eprintln!(
                "[watchdog] test '{name}' still running after {timeout:?} — \
                 scheduler liveness regression.  Dumping scheduler state, then \
                 enabling worker stall self-reports for ~5s before aborting."
            );
            // `stall_report` is the same code path as the workers' periodic
            // stall self-reports, so the immediate dump below and the
            // self-reports that follow are directly comparable.
            for (i, line) in crate::stall_report().iter().enumerate() {
                eprintln!("[watchdog] scheduler #{i}: {line}");
            }
            crate::enable_stall_debug();
            std::thread::sleep(Duration::from_secs(5));
            for (i, line) in crate::stall_report().iter().enumerate() {
                eprintln!("[watchdog] scheduler #{i} (after 5s): {line}");
            }
            eprintln!("[watchdog] aborting '{name}'.");
            std::process::abort();
        }
    }
}
