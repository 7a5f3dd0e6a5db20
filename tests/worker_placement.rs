//! Worker placement (DESIGN.md §13 "Worker placement"): a pool of `p ≥ 2`
//! workers on a mask of exactly `p` CPUs pins worker `i` to the `i`-th
//! allowed CPU, so a team's members run on distinct CPUs; a pool of one, a
//! pool smaller than the mask and an oversubscribed pool keep the mask every
//! thread inherits.  Each member reads its own `Cpus_allowed_list` from
//! `/proc/thread-self/status`, so the check does not go through the code
//! under test.  Cases that the runner's mask cannot express return early.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::sync::{Arc, Mutex};

use teamsteal::Scheduler;

mod common;
use common::{with_watchdog, WATCHDOG};

/// Masks wider than this skip the cases that start one worker per CPU.
const MAX_MASK: usize = 16;

/// Parses a kernel CPU list (`0-3,8,10-11`) into ascending CPU numbers.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.parse().unwrap(), hi.parse().unwrap());
        cpus.extend(lo..=hi);
    }
    cpus
}

/// The calling thread's allowed CPUs, as the kernel reports them.
fn own_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .expect("Cpus_allowed_list in /proc/thread-self/status");
    parse_cpu_list(list)
}

/// Runs a team of all of `scheduler`'s workers and returns each worker's
/// allowed CPUs, indexed by worker id.
fn team_cpus(scheduler: &Scheduler) -> Vec<Vec<usize>> {
    let p = scheduler.num_threads();
    let seen = Arc::new(Mutex::new(vec![Vec::new(); p]));
    let sink = Arc::clone(&seen);
    scheduler.run_team(p, move |ctx| {
        let cpus = own_cpus();
        sink.lock().unwrap()[ctx.global_thread_id()] = cpus;
        ctx.barrier();
    });
    let cpus = seen.lock().unwrap().clone();
    cpus
}

/// Builds a pool of `p` workers and returns each worker's allowed CPUs.
fn worker_cpus(p: usize) -> Vec<Vec<usize>> {
    team_cpus(&Scheduler::with_threads(p))
}

/// The one-CPU lists a pool that takes the whole `mask` must report.
fn one_cpu_each(mask: &[usize]) -> Vec<Vec<usize>> {
    mask.iter().map(|&cpu| vec![cpu]).collect()
}

#[test]
fn parse_cpu_list_examples() {
    assert_eq!(parse_cpu_list("0\n"), vec![0]);
    assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
    assert_eq!(parse_cpu_list("0-3,8,10-11"), vec![0, 1, 2, 3, 8, 10, 11]);
    assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
}

#[test]
fn a_pool_that_takes_the_whole_mask_puts_worker_i_on_the_ith_cpu() {
    with_watchdog("worker placement, whole-mask pool", WATCHDOG, || {
        let mask = own_cpus();
        if !(2..=MAX_MASK).contains(&mask.len()) {
            return;
        }
        assert_eq!(worker_cpus(mask.len()), one_cpu_each(&mask));
    });
}

#[test]
fn two_whole_mask_pools_at_once_both_spread_over_the_whole_mask() {
    with_watchdog("worker placement, two pools at once", WATCHDOG, || {
        let mask = own_cpus();
        if !(2..=MAX_MASK).contains(&mask.len()) {
            return;
        }
        let first = Scheduler::with_threads(mask.len());
        let second = Scheduler::with_threads(mask.len());
        // Worker `i` of each pool is on `mask[i]`: every CPU carries one
        // worker of each pool, and none is left out.
        assert_eq!(team_cpus(&first), one_cpu_each(&mask));
        assert_eq!(team_cpus(&second), one_cpu_each(&mask));
    });
}

#[test]
fn a_pool_of_one_keeps_the_process_mask() {
    with_watchdog("worker placement, pool of one", WATCHDOG, || {
        assert_eq!(worker_cpus(1)[0], own_cpus());
    });
}

#[test]
fn a_pool_smaller_than_the_mask_keeps_the_process_mask() {
    with_watchdog("worker placement, smaller pool", WATCHDOG, || {
        let mask = own_cpus();
        if mask.len() < 3 {
            return;
        }
        for (worker, list) in worker_cpus(2).iter().enumerate() {
            assert_eq!(list, &mask, "worker {worker}");
        }
    });
}

#[test]
fn an_oversubscribed_pool_keeps_the_process_mask() {
    with_watchdog("worker placement, oversubscribed pool", WATCHDOG, || {
        let mask = own_cpus();
        if mask.len() > MAX_MASK {
            return;
        }
        for (worker, list) in worker_cpus(mask.len() + 1).iter().enumerate() {
            assert_eq!(list, &mask, "worker {worker}");
        }
    });
}
