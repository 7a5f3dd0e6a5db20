//! The per-layer ladder: the same empty operation pushed through each
//! successive public boundary, so that a task's nanoseconds can be
//! attributed to a layer (ROADMAP direction 1; the scheduler's analogue of
//! the per-dataflow breakdown in SNIPPETS.md snippet 2).
//!
//! Each rung runs batches for its share of the time budget and reports the
//! median batch.  Rungs run on the calling thread alone unless they say
//! otherwise; the rungs that need a scheduler or a service build one with a
//! single worker, so that `service.tenant.submit_ns`,
//! `core.concurrent_scope.submit_ns` and `deque.sharded.push_pop_ns` measure
//! the same round trip with one more layer each.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teamsteal_core::{ConcurrentScope, Scheduler};
use teamsteal_data::Distribution;
use teamsteal_deque::{Injector, RawDeque, ShardedInjector};
use teamsteal_registration::{AcquireOutcome, AtomicRegistration};
use teamsteal_service::admission::TokenBucket;
use teamsteal_service::gate::DrainGate;
use teamsteal_service::{ServiceBuilder, SubmitOptions, TenantConfig};
use teamsteal_sort::seq::partition_by;
use teamsteal_sort::{sequential_quicksort, std_sort, ParallelPartitioner, SortConfig};
use teamsteal_util::epoch::Domain;
use teamsteal_util::eventcount::{EventCount, ParkClass};
use teamsteal_util::slab::{Recycle, Slab};
use teamsteal_util::timing::time;
use teamsteal_util::SendMutPtr;

use crate::host::now_ns;
use crate::stats::median;
use crate::watchdog::Watchdog;

/// Time budget of one rung.
#[derive(Clone, Copy)]
struct Budget(Duration);

/// Runs `batch` (which performs `ops` operations and returns the seconds
/// they took) until the budget is spent, at least three times, and returns
/// the median nanoseconds per operation.
fn ns_per_op(budget: Budget, ops: u64, mut batch: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget.0 {
        samples.push(batch() * 1e9 / ops as f64);
    }
    median(&samples)
}

fn timed(f: impl FnOnce()) -> f64 {
    time(f).0.as_secs_f64()
}

struct Node {
    free_next: AtomicPtr<Node>,
    payload: [u64; 6],
}

// SAFETY: `free_link` returns the address of the `free_next` field inside
// the object without creating a reference to the rest of it.
unsafe impl Recycle for Node {
    unsafe fn free_link(ptr: *mut Self) -> *mut AtomicPtr<Self> {
        // SAFETY: the caller guarantees `ptr` points into a live slab slot.
        unsafe { std::ptr::addr_of_mut!((*ptr).free_next) }
    }
}

fn slab_alloc_release(budget: Budget) -> f64 {
    const OPS: u64 = 1 << 18;
    let slab: Slab<Node> = Slab::new();
    ns_per_op(budget, OPS, || {
        timed(|| {
            for i in 0..OPS {
                // SAFETY: this thread is the slab's only user, hence its
                // owner; the slot is written before it is read, dropped
                // (`Node` has no destructor) before it is freed, and freed
                // back to the slab it came from.
                unsafe {
                    let (ptr, _) = slab.alloc();
                    ptr.write(Node {
                        free_next: AtomicPtr::new(std::ptr::null_mut()),
                        payload: [i; 6],
                    });
                    black_box((*ptr).payload[0]);
                    slab.free(ptr);
                }
            }
        })
    })
}

fn epoch_pin_unpin(budget: Budget) -> f64 {
    const OPS: u64 = 1 << 18;
    let domain = Domain::new(1);
    let participant = domain.register().expect("a fresh domain has a free slot");
    ns_per_op(budget, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                participant.pin();
                participant.unpin();
            }
        })
    })
}

/// Two threads: a waiter parks on slot 0, this thread notifies that slot;
/// the sample runs from just before `notify_slot` to the waiter running
/// again.  Reported in microseconds (median).
fn eventcount_notify_wake(budget: Budget) -> f64 {
    let ec = Arc::new(EventCount::new(1));
    let woke_at = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let waiter = {
        let (ec, woke_at, stop) = (Arc::clone(&ec), Arc::clone(&woke_at), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let ticket = ec.prepare_wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let reason = ec.park(0, ticket, ParkClass::Idle, Duration::from_millis(100));
                if !reason.is_spurious() {
                    woke_at.store(now_ns(), Ordering::Release);
                }
            }
        })
    };
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 20 || start.elapsed() < budget.0 {
        // Let the waiter get all the way into its condition-variable wait.
        std::thread::sleep(Duration::from_micros(300));
        woke_at.store(0, Ordering::Release);
        let mut sent_at = now_ns();
        while !ec.notify_slot(0) {
            std::hint::spin_loop();
            sent_at = now_ns();
        }
        let mut woke = woke_at.load(Ordering::Acquire);
        while woke == 0 {
            std::hint::spin_loop();
            woke = woke_at.load(Ordering::Acquire);
        }
        samples.push(woke.saturating_sub(sent_at) as f64 / 1e3);
    }
    stop.store(true, Ordering::Release);
    ec.notify_all();
    waiter.join().expect("the eventcount waiter does not panic");
    median(&samples)
}

fn raw_deque_push_pop(budget: Budget) -> f64 {
    const ROUNDS: u64 = 1 << 13;
    const DEPTH: u64 = 32;
    let deque = RawDeque::new();
    ns_per_op(budget, ROUNDS * DEPTH, || {
        timed(|| {
            for round in 0..ROUNDS {
                for i in 0..DEPTH {
                    deque.push_bottom((round * DEPTH + i) as usize);
                }
                for _ in 0..DEPTH {
                    black_box(deque.pop_bottom());
                }
            }
        })
    })
}

/// Uncontended `steal_top` from the thief's side; the pushes that refill
/// the deque are not timed.
fn raw_deque_steal(budget: Budget) -> f64 {
    const ROUNDS: u64 = 1 << 8;
    const DEPTH: u64 = 1 << 10;
    let deque = RawDeque::new();
    ns_per_op(budget, ROUNDS * DEPTH, || {
        let mut secs = 0.0;
        for _ in 0..ROUNDS {
            for i in 0..DEPTH {
                deque.push_bottom(i as usize);
            }
            secs += timed(|| {
                for _ in 0..DEPTH {
                    black_box(deque.steal_top().success());
                }
            });
        }
        secs
    })
}

/// A standalone injector keeps its consumed segments until it is dropped,
/// so each batch gets a fresh one.
const INJECTOR_OPS: u64 = 1 << 17;

fn injector_push_pop(budget: Budget) -> f64 {
    ns_per_op(budget, INJECTOR_OPS, || {
        let injector: Injector<usize> = Injector::new();
        timed(|| {
            for i in 0..INJECTOR_OPS {
                injector.push(i as usize);
                black_box(injector.pop());
            }
        })
    })
}

fn sharded_push_pop(budget: Budget) -> f64 {
    ns_per_op(budget, INJECTOR_OPS, || {
        let injector: ShardedInjector<usize> = ShardedInjector::new(1);
        timed(|| {
            for i in 0..INJECTOR_OPS {
                injector.push_to(0, i as usize);
                black_box(injector.pop_from(0));
            }
        })
    })
}

fn registration_acquire_release(budget: Budget) -> f64 {
    const OPS: u64 = 1 << 18;
    let word = AtomicRegistration::new();
    word.push_requirement(2);
    ns_per_op(budget, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                if let AcquireOutcome::Registered(reg) = word.try_acquire(2) {
                    black_box(word.try_release(reg.counter));
                }
            }
        })
    })
}

fn registration_try_reuse(budget: Budget) -> f64 {
    const OPS: u64 = 1 << 20;
    let word = AtomicRegistration::new();
    word.push_requirement(2);
    assert!(matches!(word.try_acquire(2), AcquireOutcome::Registered(_)));
    word.try_form_team().expect("both members registered");
    ns_per_op(budget, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(word.try_reuse(black_box(2)));
            }
        })
    })
}

/// Build plus drop, in microseconds: spawning and joining `threads` workers.
fn scheduler_build(budget: Budget, threads: usize) -> f64 {
    ns_per_op(budget, 1, || {
        timed(|| drop(Scheduler::with_threads(threads)))
    }) / 1e3
}

const SPAWN_OPS: u64 = 1 << 16;

/// `TaskContext::spawn` on one worker: alloc from the arena, push, pop, run.
fn context_spawn(budget: Budget) -> f64 {
    let scheduler = Scheduler::with_threads(1);
    ns_per_op(budget, SPAWN_OPS, || {
        timed(|| {
            scheduler.run(|ctx| {
                for _ in 0..SPAWN_OPS {
                    ctx.spawn(|_| {});
                }
            })
        })
    })
}

/// `Scope::spawn` from outside into one worker, to completion.
fn scope_spawn(budget: Budget) -> f64 {
    let scheduler = Scheduler::with_threads(1);
    ns_per_op(budget, SPAWN_OPS, || {
        timed(|| {
            scheduler.scope(|scope| {
                for _ in 0..SPAWN_OPS {
                    scope.spawn(|_| {});
                }
            })
        })
    })
}

fn concurrent_scope_submit(budget: Budget) -> f64 {
    let scheduler = Scheduler::with_threads(1);
    let scope = ConcurrentScope::new();
    ns_per_op(budget, SPAWN_OPS, || {
        timed(|| {
            for _ in 0..SPAWN_OPS {
                scope.submit(&scheduler, |_| {});
            }
            scope.wait_idle();
        })
    })
}

/// `Tenant::submit` (or `submit_with` a deadline) into one worker, to
/// completion.
fn tenant_submit(budget: Budget, with_options: bool) -> f64 {
    let service = ServiceBuilder::new()
        .threads(1)
        .refill_rate(1_000_000_000)
        .high_water(usize::MAX / 2)
        .tenant(TenantConfig::new("ladder").burst(1 << 20))
        .build();
    let tenant = service
        .tenant("ladder")
        .expect("the tenant registered above");
    let mut submitted = 0u64;
    ns_per_op(budget, SPAWN_OPS, || {
        timed(|| {
            for _ in 0..SPAWN_OPS {
                let admitted = if with_options {
                    let options = SubmitOptions::new().deadline(Duration::from_secs(60));
                    tenant.submit_with(options, |_| {}).is_ok()
                } else {
                    tenant.submit(|_| {}).is_ok()
                };
                assert!(admitted, "the ladder's budget never binds");
            }
            submitted += SPAWN_OPS;
            while tenant.stats().completed < submitted {
                std::hint::spin_loop();
            }
        })
    })
}

/// `run_team(P, barrier)` back to back (warm) or after an idle gap longer
/// than the keep-alive (cold); median microseconds per call.
fn run_team(budget: Budget, threads: usize, gap: Option<Duration>) -> f64 {
    let scheduler = Scheduler::with_threads(threads);
    ns_per_op(budget, 1, || {
        if let Some(gap) = gap {
            std::thread::sleep(gap);
        }
        timed(|| {
            scheduler.run_team(threads, |ctx| {
                ctx.barrier();
            })
        })
    }) / 1e3
}

fn team_barrier(budget: Budget, threads: usize) -> f64 {
    const ROUNDS: u64 = 1 << 14;
    let scheduler = Scheduler::with_threads(threads);
    ns_per_op(budget, ROUNDS, || {
        timed(|| {
            scheduler.run_team(threads, |ctx| {
                for _ in 0..ROUNDS {
                    ctx.barrier();
                }
            })
        })
    })
}

fn admission_try_acquire(budget: Budget) -> f64 {
    const OPS: u64 = 1 << 18;
    let bucket = TokenBucket::new(1_000_000_000, 1, 1 << 20);
    let mut now_us = 0u64;
    ns_per_op(budget, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                now_us += 1;
                black_box(bucket.try_acquire_at(black_box(now_us)).is_ok());
            }
        })
    })
}

fn gate_enter_exit(budget: Budget) -> f64 {
    const OPS: u64 = 1 << 18;
    let gate = DrainGate::new();
    ns_per_op(budget, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                if black_box(gate.try_enter()) {
                    gate.exit();
                }
            }
        })
    })
}

const SORT_N: usize = 1 << 20;

fn seq_sort(budget: Budget, input: &[u32], sort: impl Fn(&mut [u32])) -> f64 {
    let mut work = input.to_vec();
    ns_per_op(budget, SORT_N as u64, || {
        work.copy_from_slice(input);
        timed(|| sort(&mut work))
    })
}

const PARTITION_N: usize = 1 << 22;

/// Elements per second through the sequential partition loop.
fn seq_partition(budget: Budget, input: &[u32]) -> f64 {
    let mut work = input.to_vec();
    let ns = ns_per_op(budget, PARTITION_N as u64, || {
        work.copy_from_slice(input);
        timed(|| {
            black_box(partition_by(&mut work, |x| x <= u32::MAX / 2));
        })
    });
    1e9 / ns
}

/// Elements per second through one team-parallel partitioning step.
fn team_partition(budget: Budget, input: &[u32], threads: usize) -> f64 {
    let scheduler = Scheduler::with_threads(threads);
    let block = SortConfig::default().block_size;
    let mut work = input.to_vec();
    let ns = ns_per_op(budget, PARTITION_N as u64, || {
        work.copy_from_slice(input);
        let partitioner = Arc::new(ParallelPartitioner::new(work.len(), block, threads));
        let ptr = SendMutPtr::from_slice(&mut work);
        timed(|| {
            // `run_team` returns only after every member has left the
            // partitioner, so `work` is not touched while the team owns it.
            scheduler.run_team(threads, move |ctx| {
                black_box(partitioner.run(ctx, ptr, u32::MAX / 2));
            })
        })
    });
    1e9 / ns
}

fn data_generate(budget: Budget, seed: u64) -> f64 {
    let ns = ns_per_op(budget, SORT_N as u64, || {
        timed(|| {
            black_box(Distribution::Random.generate(SORT_N, 1, seed));
        })
    });
    1e3 / ns
}

/// Runs every rung within about `seconds` and returns `(metric, value)`
/// rows named as in `BENCHMARK.json`.  `threads` is the thread rule's `P`.
pub fn run(
    seconds: f64,
    threads: usize,
    seed: u64,
    watchdog: &Watchdog,
) -> Vec<(&'static str, f64)> {
    const RUNGS: f64 = 25.0;
    let budget = Budget(Duration::from_secs_f64((seconds / RUNGS).max(0.002)));
    let allowance = Duration::from_secs_f64(seconds / RUNGS + 5.0);
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    let mut rung = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        rows.push((name, watchdog.phase(name, allowance, f)));
    };
    let sort_input = Distribution::Random.generate(SORT_N, 1, seed);
    let partition_input = Distribution::Random.generate(PARTITION_N, 1, seed);
    let config = SortConfig::default();
    let cold_gap = Duration::from_micros(400);

    rung("util.slab.alloc_release_ns", &mut || {
        slab_alloc_release(budget)
    });
    rung("util.epoch.pin_unpin_ns", &mut || epoch_pin_unpin(budget));
    rung("util.eventcount.notify_wake_us", &mut || {
        eventcount_notify_wake(budget)
    });
    rung("deque.raw.push_pop_ns", &mut || raw_deque_push_pop(budget));
    rung("deque.raw.steal_ns", &mut || raw_deque_steal(budget));
    rung("deque.injector.push_pop_ns", &mut || {
        injector_push_pop(budget)
    });
    rung("deque.sharded.push_pop_ns", &mut || {
        sharded_push_pop(budget)
    });
    rung("registration.acquire_release_ns", &mut || {
        registration_acquire_release(budget)
    });
    rung("registration.try_reuse_ns", &mut || {
        registration_try_reuse(budget)
    });
    rung("core.scheduler.build_us", &mut || {
        scheduler_build(budget, threads)
    });
    rung("core.context.spawn_ns", &mut || context_spawn(budget));
    rung("core.scope.spawn_ns", &mut || scope_spawn(budget));
    rung("core.concurrent_scope.submit_ns", &mut || {
        concurrent_scope_submit(budget)
    });
    rung("core.run_team.warm_us", &mut || {
        run_team(budget, threads, None)
    });
    rung("core.run_team.cold_us", &mut || {
        run_team(budget, threads, Some(cold_gap))
    });
    rung("core.team.barrier_ns", &mut || {
        team_barrier(budget, threads)
    });
    rung("service.admission.try_acquire_ns", &mut || {
        admission_try_acquire(budget)
    });
    rung("service.gate.enter_exit_ns", &mut || {
        gate_enter_exit(budget)
    });
    rung("service.tenant.submit_ns", &mut || {
        tenant_submit(budget, false)
    });
    rung("service.tenant.submit_with_ns", &mut || {
        tenant_submit(budget, true)
    });
    rung("sort.seq.std_sort_ns_per_elem", &mut || {
        seq_sort(budget, &sort_input, std_sort)
    });
    rung("sort.seq.quicksort_ns_per_elem", &mut || {
        seq_sort(budget, &sort_input, |data| {
            sequential_quicksort(data, &config)
        })
    });
    let mut seq_rate = 0.0;
    rung("sort.seq.partition_melems_per_s", &mut || {
        seq_rate = seq_partition(budget, &partition_input);
        seq_rate / 1e6
    });
    let mut team_rate = 0.0;
    rung("sort.partition.team_melems_per_s", &mut || {
        team_rate = team_partition(budget, &partition_input, threads);
        team_rate / 1e6
    });
    rung("data.generate_melems_per_s", &mut || {
        data_generate(budget, seed)
    });
    // Share of `P` sequential partition loops' worth of work the team step
    // delivers; withheld (0) when there are more threads than cores.
    let efficiency = if threads <= crate::host::nproc() && seq_rate > 0.0 {
        team_rate / (threads as f64 * seq_rate)
    } else {
        0.0
    };
    rows.push(("sort.partition.efficiency", efficiency));
    rows
}
