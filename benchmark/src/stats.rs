//! Order statistics used by every workload and by `repeat`/`compare`.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` percent of the samples at or below it.  0 for no samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of what is left after dropping the lowest and the highest tenth of
/// the samples.  For repetition times that fall into two regimes (two
/// workers contending for one cache line do that) the median jumps from one
/// regime to the other between runs while this moves smoothly, and unlike the
/// plain mean it ignores the odd stalled repetition.  0 for no samples.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let trim = v.len() / 10;
    let kept = &v[trim..v.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest percentile that still has at least ten samples beyond it,
/// with its value: `(percentile, value)`.  `None` below eleven samples.
pub fn pmax_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let index = n - 11;
    Some((100.0 * (index + 1) as f64 / n as f64, sorted[index]))
}

/// Number of statistics windows for a phase of `duration_s` seconds:
/// one-second windows, at least one.
pub fn window_count(duration_s: f64) -> usize {
    (duration_s.round() as usize).max(1)
}

/// Splits samples `(offset_ns, value)` — offset measured from the phase
/// start, here always the time the request was *due* — into `windows` equal
/// windows over `duration_ns` and returns each window's values.  Offsets
/// past the end fall into the last window.
pub fn split_windows(samples: &[(u64, f64)], duration_ns: u64, windows: usize) -> Vec<Vec<f64>> {
    let windows = windows.max(1);
    let width = (duration_ns / windows as u64).max(1);
    let mut out = vec![Vec::new(); windows];
    for &(offset, value) in samples {
        let w = ((offset / width) as usize).min(windows - 1);
        out[w].push(value);
    }
    out
}

/// Median over windows of each window's p50, skipping empty windows, so
/// that one stalled second does not decide the phase.
pub fn median_of_window_p50(windows: &[Vec<f64>]) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect();
    median(&per_window)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` (the
/// default exclusive method) gives them.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[slot] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the driver checks against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        let mut v: Vec<f64> = vec![10.0; 18];
        v.push(0.0);
        v.push(1_000.0);
        assert_eq!(trimmed_mean(&v), 10.0);
        assert_eq!(
            trimmed_mean(&[1.0, 2.0, 3.0]),
            2.0,
            "too few samples to trim"
        );
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn pmax_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = pmax_sorted(&v).unwrap();
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-9);
        assert!(pmax_sorted(&v[..10]).is_none());
        assert_eq!(pmax_sorted(&v[..11]).unwrap().1, 1.0);
    }

    #[test]
    fn one_bad_window_does_not_decide_the_phase() {
        // Five one-second windows at 10 µs, except the third, which a stall
        // pushed to 5000 µs.  A pooled p50 over a run with two such windows
        // of five would move; the median over windows does not.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for k in 0..100u64 {
                let value = if w == 2 { 5000.0 } else { 10.0 };
                samples.push((w * 1_000_000_000 + k * 10_000_000, value));
            }
        }
        let windows = split_windows(&samples, 5_000_000_000, 5);
        assert!(windows.iter().all(|w| w.len() == 100));
        assert_eq!(median_of_window_p50(&windows), 10.0);
        // Late offsets land in the last window instead of being dropped.
        let late = split_windows(&[(9_000_000_000, 1.0)], 5_000_000_000, 5);
        assert_eq!(late[4], vec![1.0]);
        assert_eq!(window_count(5.6), 6);
        assert_eq!(window_count(0.2), 1);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]).unwrap(), [10.0, 20.0, 40.0]);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }
}
