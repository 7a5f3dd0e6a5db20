//! What the benchmark needs to know about the machine and the process.

use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread rule: every workload uses `P = clamp(nproc, 2, 4)` threads in
/// total, so that runnable threads never exceed the hardware threads on a
/// host with two or more, and a 64-core host does not turn the benchmark
/// into a different experiment.
pub fn threads_for(nproc: usize) -> usize {
    nproc.clamp(2, 4)
}

/// Nanoseconds since the first call in this process.  One shared epoch, so
/// the generator thread and the worker threads stamp the same clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Burns `ns` nanoseconds of CPU on the calling thread.
pub fn spin_for_ns(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `unknown`.  `output()`
/// waits for the child, so nothing is left running.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// Commit hash of the checkout, `unknown` outside a git repository (the
/// driver's checkouts are not repositories).
pub fn commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}
