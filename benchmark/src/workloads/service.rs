//! `service_paced` and `service_slo`: the task service under an open loop.
//!
//! `P - 1` workers serve one tenant whose token budget never binds; the
//! calling thread is the only generator, spin-paced on an absolute schedule
//! ([`crate::pacer`]).  Every request is timed from the moment it was *due*
//! to the moment its completion guard dropped.  Completion is recorded by a
//! guard moved into the task, never by the task body, so a task the service
//! drops without running (expired, cancelled) is still accounted for, and a
//! request that is neither completed nor refused by the end of its phase is
//! reported as lost.
//!
//! `service_paced` goes through `Tenant::submit`: 20 kHz (every arrival
//! finds the worker parked), 100 kHz, 200 kHz, then a closed-loop ceiling
//! with at most 256 requests outstanding.  `service_slo` goes through
//! `Tenant::submit_with` with a deadline and one `CancelToken` per 64
//! requests, every sixteenth batch cancelled right after submission:
//! 100 kHz, a ceiling, and an overload phase offered at twice capacity that
//! only deadline expiry defends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use teamsteal_core::{MetricsSnapshot, TaskContext};
use teamsteal_service::{
    CancelToken, ServiceBuilder, SubmitOptions, TaskService, Tenant, TenantConfig, TenantStats,
};
use teamsteal_util::timing::time;
use teamsteal_util::CachePadded;

use super::{worker_counts, Measured, Params};
use crate::host::{now_ns, spin_for_ns};
use crate::pacer::{run_open_loop, MonoClock, Schedule};
use crate::stats::{
    median, median_of_window_p50, percentile_sorted, pmax_sorted, sorted, split_windows,
    window_count,
};

use crate::trace::{SpanId, Tracer};
use crate::watchdog::Watchdog;

/// Which of the two service workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Paced,
    Slo,
}

const BODY_NS: u64 = 2_000;
const OVERLOAD_BODY_NS_PER_WORKER: u64 = 20_000;
const OVERLOAD_RATE_HZ: u64 = 100_000;
const SLO_DEADLINE: Duration = Duration::from_millis(5);
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(2);
/// A request "meets the limit" when it completes within this of its due time.
const LATENCY_LIMIT_US: f64 = 1_000.0;
const BATCH: u64 = 64;
const CANCEL_EVERY: u64 = 16;
const CEILING_WINDOW: u64 = 256;
/// Ceiling throughput is sampled in windows of this length.
const CEILING_SAMPLE_NS: u64 = 250_000_000;
/// How long a phase waits for stragglers before calling them lost.
const STRAGGLER_WAIT: Duration = Duration::from_secs(5);
/// Requests per phase whose spans go into the Chrome trace.
const TRACE_SAMPLE: usize = 2_000;

// States in the low two bits of a slot; a slot that is still 0 is outstanding.
const RAN: u64 = 1;
const DROPPED: u64 = 2;
const REFUSED: u64 = 3;

/// What the worker threads write for one phase.  Leaked per phase so that
/// tasks hold a plain reference: an `Arc` cloned per request would add a
/// contended counter to the system under test.
struct PhaseRec {
    /// Per request: 0 while outstanding, then `(latency_ns << 2) | state`.
    slots: Vec<AtomicU64>,
    /// Per request, traced runs only: when the body started.
    body_start: Vec<AtomicU64>,
    /// Guards dropped: ran, dropped by the service, or refused.
    completed: CachePadded<AtomicU64>,
    /// Bodies that ran to their end.
    ran: CachePadded<AtomicU64>,
}

impl PhaseRec {
    fn leak(requests: usize, traced: bool) -> &'static PhaseRec {
        let zeroed = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Box::leak(Box::new(PhaseRec {
            slots: zeroed(requests),
            body_start: zeroed(if traced { requests } else { 0 }),
            completed: CachePadded::new(AtomicU64::new(0)),
            ran: CachePadded::new(AtomicU64::new(0)),
        }))
    }
}

/// The completion guard of one request.
struct Done {
    rec: &'static PhaseRec,
    /// Slot index; `None` in the ceiling phase, which only counts.
    index: Option<u32>,
    due_ns: u64,
    ran: bool,
}

impl Drop for Done {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let latency = now_ns().saturating_sub(self.due_ns);
            let state = if self.ran { RAN } else { DROPPED };
            self.rec.slots[index as usize].store((latency << 2) | state, Ordering::Release);
        }
        if self.ran {
            self.rec.ran.fetch_add(1, Ordering::Relaxed);
        }
        self.rec.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// `true` when batch number `batch` is cancelled right after submission.
/// One batch in sixteen, at an offset taken from the seed.
fn batch_cancelled(batch: u64, seed: u64) -> bool {
    (batch + seed) % CANCEL_EVERY == CANCEL_EVERY - 1
}

/// How requests are submitted: `Tenant::submit`, or `Tenant::submit_with`
/// with a deadline and a token shared by each batch.
#[derive(Clone, Copy)]
struct Slo {
    deadline: Duration,
    /// Whether every sixteenth batch is cancelled.
    cancel: bool,
    seed: u64,
}

/// Submits request `k` and returns whether it was admitted.
fn submit_one(
    tenant: &Tenant,
    slo: Option<Slo>,
    token: &mut CancelToken,
    k: u64,
    body_ns: u64,
    done: Done,
) -> bool {
    let rec = done.rec;
    let index = done.index;
    let body = move |_: &TaskContext<'_>| {
        let mut done = done;
        if let (Some(index), false) = (index, rec.body_start.is_empty()) {
            rec.body_start[index as usize].store(now_ns(), Ordering::Relaxed);
        }
        spin_for_ns(body_ns);
        done.ran = true;
    };
    match slo {
        None => tenant.submit(body).is_ok(),
        Some(slo) => {
            if k % BATCH == 0 {
                *token = CancelToken::new();
            }
            let options = SubmitOptions::new()
                .deadline(slo.deadline)
                .cancel_token(token.clone());
            let admitted = tenant.submit_with(options, body).is_ok();
            if slo.cancel && k % BATCH == BATCH - 1 && batch_cancelled(k / BATCH, slo.seed) {
                token.cancel();
            }
            admitted
        }
    }
}

/// Waits until `rec.completed` reaches `expected` or the straggler wait
/// runs out; returns how many never completed.
fn wait_for_stragglers(rec: &PhaseRec, expected: u64) -> u64 {
    let give_up = Instant::now() + STRAGGLER_WAIT;
    loop {
        let completed = rec.completed.load(Ordering::Acquire);
        if completed >= expected {
            return 0;
        }
        if Instant::now() >= give_up {
            return expected - completed;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

struct PacedSpec {
    name: &'static str,
    rate_hz: u64,
    seconds: f64,
    body_ns: u64,
    slo: Option<Slo>,
}

/// What one paced phase measured.
#[derive(Default)]
struct PacedOutcome {
    sent: u64,
    refused: u64,
    lost: u64,
    /// Dropped by the service inside a batch the benchmark cancelled.
    dropped_by_design: u64,
    /// Dropped by the service otherwise: expired, or cancelled by accident.
    dropped_otherwise: u64,
    duration_ns: u64,
    /// `(due offset, latency µs)` of every request that ran.
    ran: Vec<(u64, f64)>,
    /// Requests outside deliberately cancelled batches.
    eligible: u64,
    /// ... of which ran and met [`LATENCY_LIMIT_US`].
    within_limit: u64,
    late_ns: Vec<u32>,
    submit_call_ns: Vec<f64>,
    queue_wait_us: Vec<f64>,
    run_us: Vec<f64>,
}

impl PacedOutcome {
    /// Latencies of the requests that ran, split into one-second windows by
    /// due time.
    fn windows(&self) -> Vec<Vec<f64>> {
        split_windows(
            &self.ran,
            self.duration_ns,
            window_count(self.duration_ns as f64 / 1e9),
        )
    }
}

/// The latency of a phase with every instance weighing in: the median over
/// the one-second windows of all `outcomes` of each window's p50.
fn pooled_p50_us(outcomes: &[PacedOutcome]) -> f64 {
    median_of_window_p50(
        &outcomes
            .iter()
            .flat_map(PacedOutcome::windows)
            .collect::<Vec<_>>(),
    )
}

fn paced_phase(
    tenant: &Tenant,
    spec: &PacedSpec,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> PacedOutcome {
    let traced = tracer.enabled();
    let span = tracer.open(spec.name, parent);
    let schedule = Schedule::new(now_ns() + 1_000_000, spec.rate_hz, spec.seconds);
    let count = schedule.count;
    let rec = PhaseRec::leak(count as usize, traced);
    let mut token = CancelToken::new();
    let mut refused = 0u64;
    let mut submit_end = Vec::with_capacity(if traced { count as usize } else { 0 });
    let late_ns = run_open_loop(&MonoClock, &schedule, |k, due_ns, _now| {
        let done = Done {
            rec,
            index: Some(k as u32),
            due_ns,
            ran: false,
        };
        if !submit_one(tenant, spec.slo, &mut token, k, spec.body_ns, done) {
            // The refused closure's guard has already dropped and marked
            // the slot as dropped; say what really happened.
            rec.slots[k as usize].store(REFUSED, Ordering::Release);
            refused += 1;
        }
        if traced {
            submit_end.push(now_ns());
        }
    });
    let lost = wait_for_stragglers(rec, count);
    tracer.close(span);

    let mut out = PacedOutcome {
        sent: count,
        refused,
        lost,
        duration_ns: schedule.duration_ns(),
        late_ns,
        ..Default::default()
    };
    for k in 0..count {
        let word = rec.slots[k as usize].load(Ordering::Acquire);
        let by_design = spec
            .slo
            .is_some_and(|slo| slo.cancel && batch_cancelled(k / BATCH, slo.seed));
        out.eligible += u64::from(!by_design);
        let latency_us = (word >> 2) as f64 / 1e3;
        match word & 3 {
            RAN => {
                out.ran
                    .push((schedule.due_ns(k) - schedule.start_ns, latency_us));
                out.within_limit += u64::from(!by_design && latency_us <= LATENCY_LIMIT_US);
            }
            DROPPED if by_design => out.dropped_by_design += 1,
            DROPPED => out.dropped_otherwise += 1,
            // Outstanding slots are counted in `lost`, refused in `refused`.
            _ => {}
        }
        if traced && word & 3 == RAN {
            let due = schedule.due_ns(k);
            let sent_at = due + u64::from(out.late_ns[k as usize]);
            let returned_at = submit_end[k as usize];
            let started_at = rec.body_start[k as usize].load(Ordering::Relaxed);
            let ended_at = due + (word >> 2);
            out.submit_call_ns
                .push(returned_at.saturating_sub(sent_at) as f64);
            out.queue_wait_us
                .push(started_at.saturating_sub(returned_at) as f64 / 1e3);
            out.run_us
                .push(ended_at.saturating_sub(started_at) as f64 / 1e3);
            if (k as usize) < TRACE_SAMPLE {
                let request =
                    tracer.push("service.request", sent_at, ended_at, Some(span), Some(k));
                tracer.push(
                    "service.tenant.submit_call",
                    sent_at,
                    returned_at,
                    Some(request),
                    Some(k),
                );
                // A worker may start the body before `submit` has returned
                // to the generator; the wait is then empty, not negative.
                tracer.push(
                    "service.queue_wait",
                    returned_at.min(started_at),
                    started_at,
                    Some(request),
                    Some(k),
                );
                tracer.push("service.run", started_at, ended_at, Some(request), Some(k));
            }
        }
    }
    eprintln!(
        "  {:<24} {:>7} Hz: sent {} refused {} lost {} cancelled-by-design {} dropped-otherwise {} p50 {:.2} us",
        spec.name,
        spec.rate_hz,
        out.sent,
        out.refused,
        out.lost,
        out.dropped_by_design,
        out.dropped_otherwise,
        pooled_p50_us(std::slice::from_ref(&out))
    );
    out
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy)]
enum Until {
    Seconds(f64),
    Requests(u64),
}

#[derive(Default)]
struct CeilingOutcome {
    submitted: u64,
    ran: u64,
    refused: u64,
    lost: u64,
    /// Bodies completed per second, one entry per sampling window.
    window_rates: Vec<f64>,
}

/// Closed loop: the generator keeps at most [`CEILING_WINDOW`] requests
/// outstanding and otherwise submits as fast as it can.
fn closed_loop(tenant: &Tenant, until: Until, slo: Option<Slo>) -> CeilingOutcome {
    let rec = PhaseRec::leak(0, false);
    let mut token = CancelToken::new();
    let mut out = CeilingOutcome::default();
    let start = now_ns();
    let (end, limit) = match until {
        Until::Seconds(seconds) => (start + (seconds * 1e9) as u64, u64::MAX),
        Until::Requests(requests) => (u64::MAX, requests),
    };
    let mut now = start;
    let mut sample_at = start + CEILING_SAMPLE_NS;
    let (mut sampled_ran, mut sampled_ns) = (0u64, start);
    while now < end && out.submitted < limit {
        if out.submitted - rec.completed.load(Ordering::Relaxed) < CEILING_WINDOW {
            let done = Done {
                rec,
                index: None,
                due_ns: 0,
                ran: false,
            };
            if !submit_one(tenant, slo, &mut token, out.submitted, BODY_NS, done) {
                out.refused += 1;
            }
            out.submitted += 1;
            // Reading the clock costs about a tenth of a submission; do it
            // every sixteenth time while the window has room.
            if out.submitted % 16 != 0 {
                continue;
            }
        } else {
            std::hint::spin_loop();
        }
        now = now_ns();
        if now >= sample_at {
            let ran = rec.ran.load(Ordering::Relaxed);
            out.window_rates
                .push((ran - sampled_ran) as f64 / ((now - sampled_ns) as f64 / 1e9));
            (sampled_ran, sampled_ns) = (ran, now);
            sample_at = now + CEILING_SAMPLE_NS;
        }
    }
    // A last partial window counts when it is at least half a window, or
    // when the loop was too short to fill a single one.
    if now - sampled_ns >= CEILING_SAMPLE_NS / 2 || out.window_rates.is_empty() {
        let ran = rec.ran.load(Ordering::Relaxed);
        out.window_rates
            .push((ran - sampled_ran) as f64 / ((now - sampled_ns).max(1) as f64 / 1e9));
    }
    out.lost = wait_for_stragglers(rec, out.submitted);
    out.ran = rec.ran.load(Ordering::Relaxed);
    out
}

fn build_service(workers: usize) -> TaskService {
    // Library defaults throughout, except: the worker count, a token budget
    // that never binds, and a high-water mark that never sheds (in the
    // overload phase expiry is the defence being measured).
    ServiceBuilder::new()
        .threads(workers)
        .refill_rate(1_000_000_000)
        .high_water(usize::MAX / 2)
        .tenant(TenantConfig::new("bench").burst(1 << 20))
        .build()
}

fn pooled(outcomes: &[PacedOutcome], pick: impl Fn(&PacedOutcome) -> &[f64]) -> Vec<f64> {
    sorted(
        &outcomes
            .iter()
            .flat_map(|o| pick(o).iter().copied())
            .collect::<Vec<_>>(),
    )
}

pub fn run(mode: Mode, params: &Params, tracer: &mut Tracer, watchdog: &Watchdog) -> Measured {
    let workers = params.threads - 1;
    let s = params.seconds_per_instance();
    let slo = |deadline: Duration, cancel: bool| {
        Some(Slo {
            deadline,
            cancel,
            seed: params.seed,
        })
    };
    let plain = |name: &'static str, rate_hz: u64, share: f64| PacedSpec {
        name,
        rate_hz,
        seconds: share * s,
        body_ns: BODY_NS,
        slo: None,
    };
    // Shares of an instance's measuring time.  The last paced phase is the
    // busy one.
    let (paced_specs, ceiling_share): (Vec<PacedSpec>, f64) = match mode {
        Mode::Paced => (
            vec![
                plain("service.paced.idle", 20_000, 0.2),
                plain("service.paced.mid", 100_000, 0.15),
                plain("service.paced.busy", 200_000, 0.35),
            ],
            0.3,
        ),
        Mode::Slo => (
            vec![PacedSpec {
                slo: slo(SLO_DEADLINE, true),
                ..plain("service.paced.busy", 100_000, 0.35)
            }],
            0.2,
        ),
    };
    let overload_spec = PacedSpec {
        name: "service.paced.overload",
        rate_hz: OVERLOAD_RATE_HZ,
        seconds: 0.45 * s,
        body_ns: OVERLOAD_BODY_NS_PER_WORKER * workers as u64,
        slo: slo(OVERLOAD_DEADLINE, false),
    };
    // The closed loops share a token per batch but cancel none: with cancel
    // sweeps in the loop the ceiling wanders between regimes from one run
    // to the next.  Cancellation is exercised, and shows, in the paced phase.
    let ceiling_slo = match mode {
        Mode::Paced => None,
        Mode::Slo => slo(SLO_DEADLINE, false),
    };
    let first_use = if params.smoke { 2_000 } else { 16_384 };

    let root = tracer.open(
        match mode {
            Mode::Paced => "service_paced",
            Mode::Slo => "service_slo",
        },
        None,
    );
    let (mut attempted, mut failed, mut lost, mut panicked) = (0u64, 0u64, 0u64, false);
    let mut setup_secs = Vec::new();
    let mut drain_ms = Vec::new();
    // paced[i] holds phase i's outcome of every instance.
    let mut paced: Vec<Vec<PacedOutcome>> = paced_specs.iter().map(|_| Vec::new()).collect();
    let mut ceiling_rates = Vec::new();
    let mut goodput_rates = Vec::new();
    let mut delta = MetricsSnapshot::default();
    let mut stats = TenantStats::default();
    let mut retry_attempts = 0u64;

    for _ in 0..params.instances {
        // Set-up is the service build plus first use: a burst through the
        // workload's own submit path that wakes the workers, grows the node
        // arenas and touches the allocator, so that lazily done work shows
        // here.
        let (took, service) = watchdog.phase("service/set-up", Duration::from_secs(5), || {
            time(|| {
                let service = build_service(workers);
                let tenant = service
                    .tenant("bench")
                    .expect("the tenant registered above");
                closed_loop(&tenant, Until::Requests(first_use), ceiling_slo);
                service
            })
        });
        setup_secs.push(took.as_secs_f64());
        let tenant = service
            .tenant("bench")
            .expect("the tenant registered above");
        let metrics_before = service.metrics();
        let stats_before = tenant.stats();

        for (spec, outcomes) in paced_specs.iter().zip(&mut paced) {
            let cancelled_before = service.report().tasks_cancelled;
            let outcome = watchdog.phase(
                spec.name,
                Duration::from_secs_f64(spec.seconds + 2.0),
                || paced_phase(&tenant, spec, tracer, Some(root)),
            );
            attempted += outcome.sent;
            // Below capacity nothing may be refused or lost, and nothing may
            // be cancelled except what the benchmark itself cancelled.  A
            // task that expired in the queue misses the latency limit (it
            // lowers `service.within_slo_share`); it is not a failed
            // operation.
            let cancelled = service.report().tasks_cancelled - cancelled_before;
            failed += outcome.refused
                + outcome.lost
                + cancelled.saturating_sub(outcome.dropped_by_design);
            lost += outcome.lost;
            outcomes.push(outcome);
        }

        let ceiling_seconds = ceiling_share * s;
        let ceiling = watchdog.phase(
            "service.ceiling",
            Duration::from_secs_f64(ceiling_seconds + 2.0),
            || {
                tracer.scoped("service.ceiling", Some(root), || {
                    closed_loop(&tenant, Until::Seconds(ceiling_seconds), ceiling_slo)
                })
            },
        );
        eprintln!(
            "  {:<24} closed loop: submitted {} ran {} refused {} lost {}",
            "service.ceiling", ceiling.submitted, ceiling.ran, ceiling.refused, ceiling.lost
        );
        attempted += ceiling.submitted;
        failed += ceiling.refused + ceiling.lost;
        lost += ceiling.lost;
        ceiling_rates.extend(ceiling.window_rates);

        if mode == Mode::Slo {
            let spec = &overload_spec;
            let cancelled_before = service.report().tasks_cancelled;
            let overload = watchdog.phase(
                spec.name,
                Duration::from_secs_f64(spec.seconds + 2.0),
                || paced_phase(&tenant, spec, tracer, Some(root)),
            );
            attempted += overload.sent;
            // Offered twice what the workers can serve: expiry is by design
            // and lowers goodput, not correctness.  Nothing was cancelled,
            // so a cancelled task is an accident; refusals and losses are
            // failures.
            failed += overload.refused
                + overload.lost
                + (service.report().tasks_cancelled - cancelled_before);
            lost += overload.lost;
            // A request claimed just before its deadline still runs to the
            // end, so what a caller can rely on is the deadline plus one
            // service time; in a saturated FIFO queue nearly every
            // completion lands in that last sliver, and a limit of the bare
            // deadline would count almost none of them.
            let limit_us = (OVERLOAD_DEADLINE.as_nanos() as u64 + spec.body_ns) as f64 / 1e3;
            let windows = window_count(spec.seconds);
            let in_deadline: Vec<(u64, f64)> = overload
                .ran
                .iter()
                .filter(|(_, latency_us)| *latency_us <= limit_us)
                .copied()
                .collect();
            let window_s = overload.duration_ns as f64 / 1e9 / windows as f64;
            goodput_rates.extend(
                split_windows(&in_deadline, overload.duration_ns, windows)
                    .iter()
                    .map(|w| w.len() as f64 / window_s),
            );
        }

        let drain_start = Instant::now();
        watchdog.phase("service/drain", Duration::from_secs(5), || service.drain());
        drain_ms.push(drain_start.elapsed().as_secs_f64() * 1e3);

        delta = delta.merge(service.metrics().delta_since(&metrics_before));
        let now = tenant.stats();
        stats.offered += now.offered - stats_before.offered;
        stats.admitted += now.admitted - stats_before.admitted;
        stats.rejected += now.rejected - stats_before.rejected;
        stats.shed += now.shed - stats_before.shed;
        retry_attempts += service.report().retry_attempts;
        panicked |= service.take_panic().is_some();
    }
    tracer.close(root);

    let busy = paced.last().expect("every mode has a busy phase");
    let idle = match mode {
        Mode::Paced => &paced[0][..],
        Mode::Slo => &[],
    };
    let ceiling_per_s = median(&ceiling_rates);
    let goodput_per_s = median(&goodput_rates);
    let busy_p50_us = pooled_p50_us(busy);
    let busy_latencies = sorted(
        &busy
            .iter()
            .flat_map(|o| o.ran.iter().map(|&(_, latency)| latency))
            .collect::<Vec<_>>(),
    );
    let (_, pmax_us) = pmax_sorted(&busy_latencies).unwrap_or((0.0, 0.0));
    let late_us = sorted(
        &busy
            .iter()
            .flat_map(|o| o.late_ns.iter().map(|&l| f64::from(l) / 1e3))
            .collect::<Vec<_>>(),
    );
    let queue_wait_us = pooled(busy, |o| &o.queue_wait_us);
    let phase_p50 = |name: &str| {
        paced_specs
            .iter()
            .zip(&paced)
            .find(|(spec, _)| spec.name == name)
            .map_or(0.0, |(_, outcomes)| pooled_p50_us(outcomes))
    };
    let eligible: u64 = busy.iter().map(|o| o.eligible).sum();
    let within_limit: u64 = busy.iter().map(|o| o.within_limit).sum();

    let mut layer = vec![
        ("service.idle_p50_us", phase_p50("service.paced.idle")),
        ("service.mid_p50_us", phase_p50("service.paced.mid")),
        ("service.busy_p50_us", busy_p50_us),
        (
            "service.within_slo_share",
            within_limit as f64 / eligible.max(1) as f64,
        ),
        ("service.ceiling_ktasks_per_s", ceiling_per_s / 1e3),
        ("service.goodput_ktasks_per_s", goodput_per_s / 1e3),
        (
            "service.tenant.submit_call_idle_ns",
            percentile_sorted(&pooled(idle, |o| &o.submit_call_ns), 50.0),
        ),
        (
            "service.tenant.submit_call_busy_ns",
            percentile_sorted(&pooled(busy, |o| &o.submit_call_ns), 50.0),
        ),
        (
            "service.queue_wait_p50_us",
            percentile_sorted(&queue_wait_us, 50.0),
        ),
        (
            "service.queue_wait_p99_us",
            percentile_sorted(&queue_wait_us, 99.0),
        ),
        (
            "service.run_p50_us",
            percentile_sorted(&pooled(busy, |o| &o.run_us), 50.0),
        ),
        (
            "service.latency_p99_us",
            percentile_sorted(&busy_latencies, 99.0),
        ),
        ("service.latency_pmax_us", pmax_us),
        ("service.latency_pmax_samples", busy_latencies.len() as f64),
        ("service.drain_ms", median(&drain_ms)),
        ("service.gen_late_p99_us", percentile_sorted(&late_us, 99.0)),
        (
            "service.gen_late_max_us",
            late_us.last().copied().unwrap_or(0.0),
        ),
        ("service.tenant.offered", stats.offered as f64),
        ("service.tenant.admitted", stats.admitted as f64),
        ("service.tenant.refused", stats.rejected as f64),
        ("service.tenant.shed", stats.shed as f64),
        ("service.tenant.expired", delta.tasks_expired as f64),
        ("service.tenant.cancelled", delta.tasks_cancelled as f64),
        ("service.tenant.retry_attempts", retry_attempts as f64),
        ("service.tenant.lost", lost as f64),
    ];
    layer.extend(worker_counts(&delta));

    // Work completed per second at saturation: for plain `submit` the
    // closed-loop ceiling; for the SLO path the goodput of the overload
    // phase, which is what its users get when the service is saturated (the
    // `submit_with` closed loop is reported per layer: its rate wanders
    // between regimes from run to run by tens of percent).
    let (throughput_per_s, throughput_samples) = match mode {
        Mode::Paced => (ceiling_per_s, ceiling_rates.len()),
        Mode::Slo => (goodput_per_s, goodput_rates.len()),
    };
    Measured {
        correct: lost == 0 && !panicked,
        attempted,
        failed,
        setup_s: median(&setup_secs),
        throughput_kops: throughput_per_s / 1e3,
        latency_p50_us: busy_p50_us,
        layer,
        samples: vec![
            ("throughput_kops_per_s", throughput_samples as u64),
            ("latency_p50_us", busy_latencies.len() as u64),
            ("setup_s", setup_secs.len() as u64),
        ],
    }
}
