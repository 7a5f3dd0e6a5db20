//! Allocation guard for the service's submission paths (DESIGN.md §16).
//!
//! A counting global allocator counts the objects each thread allocates.
//! After a warm-up has grown the submitter's node arena, a `Tenant::submit`
//! allocates nothing on the submitting thread — the task node is recycled,
//! the closure and its completion guard live inline in it — and a tokenless
//! `Tenant::submit_with` allocates exactly one object, the task's
//! `CancelCell`.  The only other allocation on the path is the injector's
//! segment (its header and its slot array), linked in once per
//! `SEGMENT_SLOTS` pushes; the test allows that and no more.
//!
//! Its own binary: the global allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teamsteal_deque::injector::SEGMENT_SLOTS;
use teamsteal_service::{ServiceBuilder, SubmitOptions, Tenant, TenantConfig};

/// `System`, plus a per-thread count of every allocation made.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// thread-local `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Submissions per measured phase.  The warm-up holds more nodes than this
/// live at once, so a measured phase finds its arena grown even if none of
/// its tasks has finished before the next submission.
const MEASURED: usize = 4 * SEGMENT_SLOTS;
const WARM_UP: usize = 2 * MEASURED;

fn wait_until_completed(tenant: &Tenant) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = tenant.stats();
        if stats.completed == stats.admitted {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "tasks did not complete: {stats:?}"
        );
        std::thread::yield_now();
    }
}

/// Objects one injector segment takes: its header and its slot array.
const SEGMENT_OBJECTS: u64 = 2;

/// Counts, per call of `submit`, the objects it allocated on this thread
/// beyond `expected`, and checks that only an injector segment link can
/// account for any excess.
fn check_per_call(what: &str, expected: u64, mut submit: impl FnMut()) {
    let mut segments = 0;
    for _ in 0..MEASURED {
        let before = allocations();
        submit();
        let made = allocations() - before;
        assert!(
            made == expected || made == expected + SEGMENT_OBJECTS,
            "{what} allocated {made} objects in one call, expected {expected} \
             (plus {SEGMENT_OBJECTS} when it links an injector segment)"
        );
        segments += usize::from(made > expected);
    }
    assert!(
        segments <= MEASURED.div_ceil(SEGMENT_SLOTS),
        "{what}: {segments} of {MEASURED} calls allocated a segment, \
         more than the injector's one segment per {SEGMENT_SLOTS} pushes"
    );
}

#[test]
fn submit_allocates_nothing_and_tokenless_submit_with_one_cell() {
    let service = ServiceBuilder::new()
        .threads(1)
        // The burst alone covers every submission: none is refused.
        .tenant(TenantConfig::new("t").burst(1 << 20))
        .build();
    let tenant = service.tenant("t").unwrap();

    // Warm-up: take the per-thread first-use costs, and grow the
    // submitting thread's pin-slot arena past anything a measured phase
    // can have in flight — the worker is held, so every warm-up node is
    // live at once — then let every node come back to it.
    let release = Arc::new(AtomicBool::new(false));
    let hold = Arc::clone(&release);
    tenant
        .submit(move |_| {
            while !hold.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    for _ in 0..WARM_UP {
        tenant.submit(|_| {}).unwrap();
        drop(tenant.submit_with(SubmitOptions::new(), |_| {}).unwrap());
    }
    release.store(true, Ordering::Release);
    wait_until_completed(&tenant);

    check_per_call("submit", 0, || tenant.submit(|_| {}).unwrap());
    wait_until_completed(&tenant);
    check_per_call("tokenless submit_with", 1, || {
        drop(tenant.submit_with(SubmitOptions::new(), |_| {}).unwrap());
    });
    // A deadline is plain data on the node: still the one cell.
    wait_until_completed(&tenant);
    check_per_call("submit_with with a deadline", 1, || {
        let opts = SubmitOptions::new().deadline(Duration::from_secs(60));
        drop(tenant.submit_with(opts, |_| {}).unwrap());
    });

    let report = service.drain();
    assert_eq!(report.completed(), report.admitted());
    assert_eq!(report.admitted(), (1 + 2 * WARM_UP + 3 * MEASURED) as u64);
}
