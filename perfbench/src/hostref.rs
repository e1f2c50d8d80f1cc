//! Fixed reference kernels that time the host, not the program.
//!
//! Other tenants of a shared host slow branch-heavy code by up to 1.5× for
//! tens of seconds at a time, while register- and memory-bound loops barely
//! move, and how much a loop slows depends on the kind of work it does. So
//! each workload has a reference shaped like its own hot loops, over fixed
//! pseudo-random words:
//!
//! * [`Kernel::UnaryTile`] (`gemm_layers`): word-packed unary MAC windows —
//!   one heap-allocated comparator stream per PE packed from bit-reversed
//!   sequences, a B-tree cache of enable counts and prefix popcounts, tile
//!   after tile, at two-word and 32-word stream lengths;
//! * [`Kernel::Mixed`] (the fleets): data-dependent branches, an unstable
//!   sort, comparator packing, small-B-tree look-ups and binary-heap churn.
//!
//! The reference is timed between iterations, and host-time metrics are
//! scaled by the kernel's nominal time over its measured time, which
//! cancels most of the host's speed and leaves the program's. Nothing here
//! calls the program, so a change to the program cannot move the
//! reference.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Words the reference works on.
const WORDS: usize = 200_000;

/// Which reference a workload is scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Packed unary MAC windows, like the core tile kernels.
    UnaryTile,
    /// Branches, sort, packing, B-tree and heap, like the fleet's event
    /// loop and scheduler.
    Mixed,
}

impl Kernel {
    /// The kernel's time on an idle 2-vCPU Intel Xeon VM: the host speed
    /// that scaled metrics are quoted at.
    pub fn nominal_s(self) -> f64 {
        match self {
            Self::UnaryTile => 0.035,
            Self::Mixed => 0.06,
        }
    }
}

pub struct HostRef {
    kernel: Kernel,
    words: Vec<u64>,
    sorted: Vec<u64>,
}

impl HostRef {
    pub fn new(kernel: Kernel) -> Self {
        let mut x = 7u64;
        let words: Vec<u64> = (0..WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x >> 11
            })
            .collect();
        let sorted = words.clone();
        Self {
            kernel,
            words,
            sorted,
        }
    }

    /// Runs the reference once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let words = black_box(&self.words);
        match self.kernel {
            Kernel::UnaryTile => {
                // 7-bit and 11-bit magnitudes: two- and 32-word streams.
                black_box(unary_tiles(words, 128, 120, 1_200));
                black_box(unary_tiles(words, 2_048, 20, 600));
            }
            Kernel::Mixed => {
                black_box(branches(words));
                self.sorted.copy_from_slice(words);
                self.sorted.sort_unstable();
                black_box(self.sorted[WORDS / 2]);
                black_box(pack(words));
                black_box(btree(words));
                black_box(heap(words));
            }
        }
        t.elapsed().as_secs_f64()
    }
}

/// The edge array's shape: one packed comparator stream per PE.
const ROWS: usize = 12;
const COLS: usize = 14;

/// Signed product-bit counts of every MAC window of `tiles` tiles with
/// `cycles`-cycle windows (a power of two, at least 64), `inputs` input
/// magnitudes streamed through each.
fn unary_tiles(words: &[u64], cycles: usize, tiles: usize, inputs: usize) -> i64 {
    let bits = cycles.ilog2();
    let mask = cycles as u64 - 1;
    // Bit-reversed counter for the weights, bit-reversed Gray code for the
    // inputs: two low-discrepancy sequences, as the Sobol sources give.
    let seq_w: Vec<u64> = (0..cycles as u32)
        .map(|i| u64::from(i.reverse_bits() >> (32 - bits)))
        .collect();
    let seq_i: Vec<u64> = (0..cycles as u32)
        .map(|i| u64::from((i ^ (i >> 1)).reverse_bits() >> (32 - bits)))
        .collect();
    let mut acc = 0i64;
    for tile in 0..tiles {
        let w0 = (WORDS / 2 + tile * ROWS * COLS) % (WORDS - ROWS * COLS);
        let streams: Vec<Vec<u64>> = words[w0..w0 + ROWS * COLS]
            .iter()
            .map(|w| {
                let magnitude = w & mask;
                let mut stream = Vec::with_capacity(cycles / 64);
                let mut packed = 0u64;
                for (i, &v) in seq_w.iter().enumerate() {
                    if v < magnitude {
                        packed |= 1 << (i % 64);
                    }
                    if i % 64 == 63 {
                        stream.push(packed);
                        packed = 0;
                    }
                }
                stream
            })
            .collect();
        let mut enabled: BTreeMap<u64, usize> = BTreeMap::new();
        let i0 = (tile * inputs) % (WORDS - inputs);
        for &x in &words[i0..i0 + inputs] {
            let magnitude = (x >> 20) & mask;
            let n = *enabled
                .entry(magnitude)
                .or_insert_with(|| seq_i.iter().filter(|&&v| v < magnitude).count());
            let row = (x as usize >> 3) % ROWS;
            let sign = if (x >> 40) & 1 == 0 { 1 } else { -1 };
            for stream in &streams[row * COLS..(row + 1) * COLS] {
                let mut ones: u32 = stream[..n / 64].iter().map(|w| w.count_ones()).sum();
                if !n.is_multiple_of(64) {
                    ones += (stream[n / 64] & ((1u64 << (n % 64)) - 1)).count_ones();
                }
                acc += sign * i64::from(ones);
            }
        }
    }
    acc
}

/// Three-way data-dependent branches, taken at random.
fn branches(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for round in 0..8u64 {
        for &x in words {
            if (x ^ round) & 1 == 0 {
                acc = acc.wrapping_mul(3).wrapping_add(x);
            } else if (x >> 7) & 1 == 0 {
                acc ^= x.rotate_left(5);
            } else {
                acc = acc.wrapping_sub(x >> 3);
            }
        }
    }
    acc
}

/// Packs `word < threshold` comparator bits 64 to a `u64` and counts
/// them, over a sweep of thresholds.
fn pack(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for threshold in (0..256u64).step_by(6) {
        let mut packed = 0u64;
        for (i, &x) in words.iter().enumerate() {
            if (x & 255) < threshold {
                packed |= 1u64 << (i % 64);
            }
            if i % 64 == 63 {
                acc += u64::from(packed.count_ones());
                packed = 0;
            }
        }
    }
    acc
}

/// Look-ups with insertion into a B-tree of a few hundred entries.
fn btree(words: &[u64]) -> u64 {
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for &x in words {
        let key = x & 0xFFFF;
        acc = acc.wrapping_add(*map.entry(key).or_insert(x));
        if map.len() > 512 {
            map.clear();
        }
    }
    acc
}

/// Pushes every word into a min-heap, popping one for every two pushed.
fn heap(words: &[u64]) -> usize {
    let mut heap = BinaryHeap::new();
    for (i, &x) in words.iter().enumerate() {
        heap.push(Reverse(x));
        if i % 2 == 1 {
            heap.pop();
        }
    }
    heap.len()
}
