//! Pins the closed-form sweep's memory bound: a window tabulates its input
//! levels only up to `2^12 + 1` levels, so a tiny GEMM at the widest data
//! (24 bits: `2^23 + 1` rate-coded and `2^24 + 1` uGEMM-H levels) builds
//! its rows per input element and allocates a few KB, not a table of every
//! level.
//!
//! A counting global allocator sums the bytes requested while a GEMM runs.
//! Inside that region it refuses the first request that would pass
//! [`CEILING`], so an unbounded table fails fast (the allocation error
//! aborts the test binary, naming the refused size) instead of filling
//! memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use usystolic_core::{
    cycle_accurate_gemm_with, ComputingScheme, KernelMode, KernelPath, SystolicConfig,
};
use usystolic_gemm::{GemmConfig, Matrix};

/// Most bytes a GEMM below may request.
const LIMIT: u64 = 64 * 1024;

/// Bytes past which a measured region's requests are refused.
const CEILING: u64 = 1 << 20;

/// Bytes requested since the measured region began.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Whether a measured region is open.
static MEASURING: AtomicBool = AtomicBool::new(false);

struct CountingAllocator;

/// Charges a request of `size` bytes to an open region. A request that
/// would pass the ceiling is refused and closes the region, so the abort
/// that follows can still report it.
fn charge(size: usize) -> bool {
    if !MEASURING.load(Ordering::SeqCst) {
        return true;
    }
    let granted = BYTES
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |bytes| {
            Some(bytes + size as u64).filter(|&total| total <= CEILING)
        })
        .is_ok();
    if !granted {
        MEASURING.store(false, Ordering::SeqCst);
    }
    granted
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if charge(layout.size()) {
            unsafe { System.alloc(layout) }
        } else {
            null_mut()
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if charge(new_size) {
            unsafe { System.realloc(ptr, layout, new_size) }
        } else {
            null_mut()
        }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes requested while `f` runs.
fn bytes_during(f: impl FnOnce()) -> u64 {
    BYTES.store(0, Ordering::SeqCst);
    MEASURING.store(true, Ordering::SeqCst);
    f();
    MEASURING.store(false, Ordering::SeqCst);
    BYTES.load(Ordering::SeqCst)
}

#[test]
fn widest_windows_build_no_level_table() {
    // 2 × 6 inputs against 6 × 5 weights on a 4 × 3 array, operands across
    // the whole 24-bit range: 12 input elements, far fewer than the levels,
    // and more levels than any table holds.
    let gemm = GemmConfig::matmul(2, 6, 5).expect("valid test shape");
    let top = 1i64 << 23;
    let input = Matrix::from_fn(2, 6, |p, k| (p as i64 * 6 + k as i64) * (top / 6) - top);
    let weights = Matrix::from_fn(6, 5, |k, n| top - (k as i64 * 5 + n as i64) * (top / 15));
    for scheme in [ComputingScheme::UnaryRate, ComputingScheme::UGemmHybrid] {
        let cfg = SystolicConfig::new(4, 3, scheme, 24).expect("valid test configuration");
        assert_eq!(
            KernelMode::Auto.resolve(&cfg),
            KernelPath::ClosedForm,
            "{scheme}"
        );
        let run = |cfg: &SystolicConfig, input: &Matrix<i64>, weights: &Matrix<i64>| {
            let (out, _) =
                cycle_accurate_gemm_with(cfg, &gemm, input, weights, KernelMode::Auto, 1)
                    .expect("closed form executes");
            std::hint::black_box(out);
        };
        // Warm up outside the region on 8-bit data, so lazy thread-local
        // set-up is not charged to the sweep.
        let narrow = SystolicConfig::new(4, 3, scheme, 8).expect("valid test configuration");
        let clamp = |m: &Matrix<i64>| m.map(|&v| v.clamp(-128, 128));
        run(&narrow, &clamp(&input), &clamp(&weights));
        let bytes = bytes_during(|| run(&cfg, &input, &weights));
        assert!(bytes < LIMIT, "{scheme}: {bytes} B requested");
    }
}
