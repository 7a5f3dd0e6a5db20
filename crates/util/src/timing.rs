//! Wall-clock timing of one closure, and the paper's speedup ratio.
//!
//! Aggregating repeated timings — median, percentiles, the paper's average
//! and best of 10 — is not done here: the benchmark package's `stats` module
//! holds the one implementation, and `teamsteal-bench` builds its
//! `TimingSummary` from it.

use std::time::{Duration, Instant};

/// Measures the wall-clock time of a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Speedup of `parallel` relative to `reference` (how the paper's `SU`
/// columns are computed: sequential reference time divided by parallel time).
///
/// Returns 0 when the parallel time is zero (degenerate measurement).
pub fn speedup(reference: Duration, parallel: Duration) -> f64 {
    let p = parallel.as_secs_f64();
    if p == 0.0 {
        0.0
    } else {
        reference.as_secs_f64() / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (d, out) = time(|| {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn speedup_matches_paper_convention() {
        // Table 1, Random 10^7: Seq/STL 0.940 s, MMPar 0.201 s => SU 4.7.
        let su = speedup(Duration::from_millis(940), Duration::from_millis(201));
        assert!((su - 4.676).abs() < 0.01);
        assert_eq!(speedup(Duration::from_secs(1), Duration::ZERO), 0.0);
    }
}
