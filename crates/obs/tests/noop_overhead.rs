//! Pins the "observability off = free" contract: with no session
//! installed, instrumentation sites perform **zero heap allocations**.
//!
//! A counting global allocator records every allocation on the process;
//! the disabled path (`obs::with`, the one gate every site goes through)
//! must not touch it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Measures `f` up to five times and returns the *minimum* allocation
/// count. The counter is process-global, so a concurrently starting
/// harness thread (stdout capture buffers, thread spawn) can leak its
/// allocations into one measured region; it cannot *remove* any, so a
/// single zero observation proves the disabled path allocation-free.
fn min_allocations_during<F: FnMut()>(mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..5 {
        best = best.min(allocations_during(&mut f));
        if best == 0 {
            break;
        }
    }
    best
}

/// The allocation counter is process-global, so tests in this file must
/// not run concurrently: a test that legitimately allocates (or the
/// harness itself) would be charged to another test's measured region.
/// Poison is ignored — the guard protects no data, only ordering, and a
/// panicked neighbour must not cascade into the other tests.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn disabled_instrumentation_does_not_allocate() {
    let _guard = serial_guard();
    assert!(
        usystolic_obs::take().is_none(),
        "test requires no installed session"
    );

    // Touch the thread-local once so lazy TLS initialisation is not
    // charged to the measured region.
    usystolic_obs::with(|o| o.metrics.count("warmup", 1));

    let allocs = min_allocations_during(|| {
        for i in 0..10_000u64 {
            // None of these closures runs: no session installed.
            usystolic_obs::with(|o| o.metrics.count("sim.dram_bytes", i));
            usystolic_obs::with(|o| o.metrics.gauge("sim.utilization", 0.5));
            usystolic_obs::with(|o| o.metrics.observe("core.tile_ns", i));
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled observability path allocated {allocs} times"
    );
}

/// The dimensional sites added for fleet telemetry — labeled counters,
/// gauges and histograms, windowed series and the request-correlation
/// fields — stay allocation-free when disabled: labels are borrowed
/// `&[(&str, &str)]` slices, so no site below may build a `String` or
/// box anything before the session check.
#[test]
fn disabled_labeled_and_sketch_sites_do_not_allocate() {
    let _guard = serial_guard();
    assert!(
        usystolic_obs::take().is_none(),
        "test requires no installed session"
    );
    usystolic_obs::with(|o| o.metrics.count("warmup", 1));

    let allocs = min_allocations_during(|| {
        for i in 0..10_000u64 {
            usystolic_obs::with(|o| {
                o.metrics.count_labeled(
                    "serve.rejected",
                    &[("class", "m"), ("priority", "high")],
                    1,
                );
                o.metrics
                    .gauge_labeled("sim.scaling_efficiency", &[("instances", "4")], 0.9);
                o.metrics
                    .observe_labeled("serve.batch_size", &[("class", "m")], i);
                o.metrics.observe("serve.latency_cycles", i);
                o.metrics
                    .observe_labeled("serve.latency_cycles", &[("class", "m")], 1);
                o.metrics.series_record("serve.arrivals", i, 1.0);
                o.metrics
                    .series_record_labeled("serve.arrivals", &[("class", "m")], i, 1.0);
            });
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled labeled/histogram/series path allocated {allocs} times"
    );
}

#[test]
fn enabled_instrumentation_records() {
    let _guard = serial_guard();
    usystolic_obs::install(usystolic_obs::Session::new());
    usystolic_obs::with(|o| o.metrics.count("k", 2));
    let s = usystolic_obs::take().expect("installed above");
    assert_eq!(s.metrics.counter("k"), 2);
}
