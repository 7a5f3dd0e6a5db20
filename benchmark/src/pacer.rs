//! The open-loop pacer: requests are sent on an absolute schedule, whatever
//! the system under test — or the generator itself — is doing.
//!
//! Request `k` is *due* at `start + k / rate`.  The generator spins until
//! that time and sends; if it has fallen behind (a slow `send`, a
//! descheduled generator) it sends the overdue requests back to back without
//! waiting.  Latency is charged from the due time, so a stall is paid for by
//! every request that was due during it, and the generator's own lateness is
//! logged per request.

/// A nanosecond clock; the production one is [`MonoClock`], tests inject a
/// clock they control.
pub trait Clock {
    fn now_ns(&self) -> u64;
}

/// The process-wide monotonic clock of [`crate::host::now_ns`].
pub struct MonoClock;

impl Clock for MonoClock {
    fn now_ns(&self) -> u64 {
        crate::host::now_ns()
    }
}

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub rate_hz: u64,
    pub count: u64,
}

impl Schedule {
    /// `duration_s` seconds of arrivals at `rate_hz`, starting at `start_ns`.
    pub fn new(start_ns: u64, rate_hz: u64, duration_s: f64) -> Self {
        Schedule {
            start_ns,
            rate_hz,
            count: ((rate_hz as f64 * duration_s) as u64).max(1),
        }
    }

    /// When request `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        // u128: k * 1e9 overflows u64 after ~18 s at 1 GHz-scale products.
        self.start_ns + (u128::from(k) * 1_000_000_000 / u128::from(self.rate_hz.max(1))) as u64
    }

    /// Length of the schedule.
    pub fn duration_ns(&self) -> u64 {
        self.due_ns(self.count) - self.start_ns
    }
}

/// Sends `schedule.count` requests on schedule.  `send(k, due_ns, now_ns)`
/// is called once per request, `now_ns` being the clock reading that ended
/// the wait.  Returns how late the generator was for each request, in
/// nanoseconds (saturating at `u32::MAX`, 4.29 s).
pub fn run_open_loop<C: Clock>(
    clock: &C,
    schedule: &Schedule,
    mut send: impl FnMut(u64, u64, u64),
) -> Vec<u32> {
    let mut late = Vec::with_capacity(schedule.count as usize);
    for k in 0..schedule.count {
        let due = schedule.due_ns(k);
        let mut now = clock.now_ns();
        while now < due {
            std::hint::spin_loop();
            now = clock.now_ns();
        }
        late.push(u32::try_from(now - due).unwrap_or(u32::MAX));
        send(k, due, now);
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that advances 100 ns per reading and can be pushed forward.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.set(self.0.get() + 100);
            self.0.get()
        }
    }

    #[test]
    fn schedule_is_absolute() {
        let s = Schedule::new(1_000, 200_000, 5.0);
        assert_eq!(s.count, 1_000_000);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 6_000);
        assert_eq!(s.due_ns(1_000_000), 5_000_001_000);
        assert_eq!(s.duration_ns(), 5_000_000_000);
        // No drift: the millionth request is due exactly 5 s in, not at a
        // sum of a million rounded periods.
        let odd = Schedule::new(0, 300_000, 1.0);
        assert_eq!(odd.due_ns(300_000), 1_000_000_000);
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_due_during_it() {
        // 100 kHz: one request every 10 µs.  Sending request 100 takes the
        // generator 5 ms (it was descheduled).  The 500 requests due during
        // those 5 ms must be charged from their due times, not from when the
        // generator finally got to them.
        const STALL_NS: u64 = 5_000_000;
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule::new(1_000_000, 100_000, 0.02);
        let mut from_send = Vec::new();
        let mut from_due = Vec::new();
        let late = run_open_loop(&clock, &schedule, |k, due, now| {
            if k == 100 {
                clock.0.set(clock.0.get() + STALL_NS);
            }
            // The fake service completes a request the moment it is sent.
            let done = clock.0.get();
            from_send.push(done - now);
            from_due.push(done - due);
        });
        assert_eq!(late.len(), 2_000);
        // Before the stall the generator is on time (within one clock tick).
        assert!(late[..=100].iter().all(|&l| l <= 100), "{:?}", &late[..5]);
        // Request 101 was due 10 µs into the stall and waited for the rest.
        let first = u64::from(late[101]);
        assert!((STALL_NS - 10_000..=STALL_NS).contains(&first), "{first}");
        // Lateness shrinks by one period (minus the catch-up cost) per
        // request until the generator has caught up.
        let charged: Vec<usize> = (101..2_000).filter(|&k| late[k] > 1_000).collect();
        assert!(
            (480..=520).contains(&charged.len()),
            "{} requests charged",
            charged.len()
        );
        assert!(
            charged.windows(2).all(|w| w[1] == w[0] + 1),
            "one contiguous run"
        );
        assert!(charged.windows(2).all(|w| late[w[1]] < late[w[0]]));
        // After catching up it is on time again.
        assert!(late[700..].iter().all(|&l| l <= 100));
        // Timed from the send, the stall would be invisible to all but the
        // one request that caused it; timed from the due time it is not.
        assert_eq!(from_send.iter().filter(|&&l| l > 1_000).count(), 1);
        assert!(from_due.iter().filter(|&&l| l > 1_000).count() >= 480);
        let total_charged: u64 = from_due.iter().sum();
        assert!(
            total_charged > 500 * STALL_NS / 2 * 9 / 10,
            "{total_charged}"
        );
    }
}
