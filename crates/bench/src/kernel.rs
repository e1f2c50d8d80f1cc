//! Kernel micro-benchmark: bit-serial vs closed-form MAC-window
//! evaluation on the cycle-accurate machine, with bit-exactness and
//! worker-determinism checks (`BENCH_kernel.json`).
//!
//! The headline case is the paper's 8-bit rate-coded configuration on one
//! fully-occupied 16×16 weight tile. Three companion rows time the other
//! cases: the temporal window (uGEMM-T), the bipolar uGEMM-H window, and
//! a 14-bit rate-coded window far wider than one machine word. Every
//! timed fast path is the closed form [`KernelMode::Auto`] resolves to:
//! Sobol prefix counts, one per constant-sign phase, for every unary
//! window. Each timing is the best of several samples in µs per call; a
//! sample batches calls until it spans at least 5 ms of host time, and
//! the serial and fast paths are sampled alternately, so even a
//! microsecond-scale closed-form call is resolved. The report also sweeps
//! the EBT × scheme space asserting the closed form reproduces the
//! bit-serial reference exactly, and re-runs each fast path across worker
//! counts asserting the output checksum never moves.
//!
//! The JSON keys `packed_us`, `hybrid_packed_us` and `multiword_*` predate
//! the closed-form windows; they keep their names because the
//! `obs_cli diff` perf gate and the docs refer to them.

use std::time::{Duration, Instant};

use crate::table::Table;
use usystolic_core::{
    cycle_accurate_gemm_with, ComputingScheme, CycleStats, KernelMode, SystolicConfig,
};
use usystolic_gemm::{GemmConfig, Matrix};
use usystolic_obs::{JsonValue, ToJson};
use usystolic_unary::rng::SplitMix64;

/// Result of one kernel benchmark run.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Tile rows/cols of the headline case (square).
    pub tile: usize,
    /// Data bitwidth of the headline case.
    pub bitwidth: u32,
    /// Input vectors pushed through the tile.
    pub vectors: usize,
    /// Timing samples per case (best-of); each sample is a batch of calls
    /// spanning at least 5 ms of host time.
    pub iters: usize,
    /// Bit-serial wall time, microseconds per call (best of `iters`).
    pub serial_us: f64,
    /// Fast-path ([`KernelMode::Auto`], closed-form) wall time,
    /// microseconds per call (best of `iters`).
    pub packed_us: f64,
    /// `serial_us / packed_us`.
    pub speedup: f64,
    /// Output checksum of the bit-serial run.
    pub checksum_serial: u64,
    /// Output checksum of the fast-path run.
    pub checksum_packed: u64,
    /// Whether the two checksums (and cycle statistics) agree.
    pub checksums_match: bool,
    /// Whether the closed form matched the bit-serial reference exactly
    /// over the full EBT × scheme sweep and the multi-word case.
    pub bit_exact: bool,
    /// Worker counts exercised by the determinism check.
    pub workers: Vec<usize>,
    /// Whether every worker count produced the fast-path checksum.
    pub workers_consistent: bool,
    /// Bit-serial wall time of the temporal (uGEMM-T) case, microseconds.
    pub temporal_serial_us: f64,
    /// Closed-form wall time of the temporal case, microseconds.
    pub temporal_closed_us: f64,
    /// `temporal_serial_us / temporal_closed_us`.
    pub temporal_speedup: f64,
    /// Whether the closed-form temporal window reproduced the bit-serial
    /// reference (outputs and cycle statistics) at every worker count.
    pub temporal_bit_exact: bool,
    /// Bit-serial wall time of the uGEMM-H case, microseconds.
    pub hybrid_serial_us: f64,
    /// Closed-form wall time of the uGEMM-H case, microseconds.
    pub hybrid_packed_us: f64,
    /// `hybrid_serial_us / hybrid_packed_us`.
    pub hybrid_speedup: f64,
    /// Whether the uGEMM-H closed form reproduced the bit-serial reference
    /// (outputs and cycle statistics) at every worker count.
    pub hybrid_bit_exact: bool,
    /// Data bitwidth of the multi-word case (a window of 128 words of 64
    /// cycles).
    pub multiword_bitwidth: u32,
    /// Bit-serial wall time of the multi-word case, microseconds.
    pub multiword_serial_us: f64,
    /// Fast-path (closed-form) wall time of the multi-word case,
    /// microseconds.
    pub multiword_packed_us: f64,
    /// `multiword_serial_us / multiword_packed_us`.
    pub multiword_speedup: f64,
}

/// Order-sensitive FNV-style checksum over an output matrix and its cycle
/// statistics, so "same checksum" means "same result, bit for bit".
#[must_use]
pub fn checksum(out: &Matrix<i64>, stats: &CycleStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &v in out.as_slice() {
        mix(v as u64);
    }
    mix(stats.cycles);
    mix(stats.busy_pe_cycles);
    mix(stats.tiles);
    mix(stats.saturation_events);
    h
}

fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<i64> {
    let mut rng = SplitMix64::new(seed);
    let mut m = Matrix::<i64>::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.range_i64(-127, 127);
    }
    m
}

/// The checksum of one cycle-accurate run.
fn run_checksum(
    cfg: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
    mode: KernelMode,
    workers: usize,
) -> u64 {
    let (out, stats) = cycle_accurate_gemm_with(cfg, gemm, input, weights, mode, workers)
        .expect("benchmark run executes");
    checksum(&out, &stats)
}

fn headline_case(tile: usize, vectors: usize) -> (GemmConfig, Matrix<i64>, Matrix<i64>) {
    let gemm = GemmConfig::matmul(vectors, tile, tile).expect("valid benchmark shape");
    let input = deterministic_matrix(vectors, tile, 0x5eed_0001);
    let weights = deterministic_matrix(tile, tile, 0x5eed_0002);
    (gemm, input, weights)
}

/// Host time one timing sample spans at least. A sample repeats its call
/// until the batch reaches this floor, so a call of about a microsecond
/// is timed over thousands of repetitions instead of one timer read.
const SAMPLE_FLOOR: Duration = Duration::from_millis(5);

/// One timing sample of `f`: a batch of calls spanning at least
/// [`SAMPLE_FLOOR`], in microseconds per call, and `f`'s last result.
fn sample(f: &mut impl FnMut() -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let mut calls = 0u32;
    loop {
        let last = f();
        calls += 1;
        let elapsed = t0.elapsed();
        if elapsed >= SAMPLE_FLOOR {
            return (elapsed.as_secs_f64() * 1e6 / f64::from(calls), last);
        }
    }
}

/// Best of `samples` timing samples of the bit-serial and the fast path,
/// in microseconds per call, with each path's last result. The two paths
/// are sampled alternately, so a slow spell of the host slows both sides
/// of the speedup ratio rather than one.
fn time_pair(
    samples: usize,
    mut serial: impl FnMut() -> u64,
    mut fast: impl FnMut() -> u64,
) -> [(f64, u64); 2] {
    let mut best = [(f64::INFINITY, 0u64); 2];
    for _ in 0..samples.max(1) {
        let pair = [sample(&mut serial), sample(&mut fast)];
        for (slot, (us, last)) in best.iter_mut().zip(pair) {
            *slot = (slot.0.min(us), last);
        }
    }
    best
}

/// One serial-vs-fast comparison: best-of per-call timings, speedup, and a
/// bit-exactness verdict that also replays the fast path at every
/// requested worker count (outputs *and* cycle statistics must agree).
struct PairTiming {
    serial_us: f64,
    fast_us: f64,
    speedup: f64,
    exact: bool,
}

fn timed_pair(
    cfg: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
    iters: usize,
    workers: &[usize],
) -> PairTiming {
    let [(serial_us, checksum_serial), (fast_us, checksum_fast)] = time_pair(
        iters,
        || run_checksum(cfg, gemm, input, weights, KernelMode::Serial, 1),
        || run_checksum(cfg, gemm, input, weights, KernelMode::Auto, 1),
    );
    let mut exact = checksum_serial == checksum_fast;
    for &w in workers {
        exact &= run_checksum(cfg, gemm, input, weights, KernelMode::Auto, w) == checksum_fast;
    }
    PairTiming {
        serial_us,
        fast_us,
        speedup: serial_us / fast_us.max(1e-9),
        exact,
    }
}

/// Runs the kernel benchmark. `short` shrinks the vector count and the
/// timing iterations for CI smoke runs; `workers` is the determinism
/// sweep (deduplicated order kept).
#[must_use]
pub fn run(short: bool, workers: &[usize]) -> KernelBench {
    let tile = 16usize;
    let bitwidth = 8u32;
    let (vectors, iters) = if short { (4, 1) } else { (16, 11) };
    let workers: Vec<usize> = if workers.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        workers.to_vec()
    };
    let cfg = SystolicConfig::new(tile, tile, ComputingScheme::UnaryRate, bitwidth)
        .expect("valid benchmark configuration")
        .with_acc_width(32);
    let (gemm, input, weights) = headline_case(tile, vectors);

    let [(serial_us, checksum_serial), (packed_us, checksum_packed)] = time_pair(
        iters,
        || run_checksum(&cfg, &gemm, &input, &weights, KernelMode::Serial, 1),
        || run_checksum(&cfg, &gemm, &input, &weights, KernelMode::Auto, 1),
    );

    // EBT × scheme bit-exactness sweep (small case keeps smoke runs fast).
    // uGEMM-H rejects true early termination, so it rides along at the
    // full-width no-op EBT, pinning its closed form against the bit-serial
    // bipolar walk.
    let (sweep_gemm, sweep_in, sweep_w) = headline_case(8, 3);
    let mut bit_exact = true;
    for (scheme, ebts) in [
        (ComputingScheme::UnaryRate, &[8u32, 7, 6, 5, 4][..]),
        (ComputingScheme::UnaryTemporal, &[8u32][..]),
        (ComputingScheme::UGemmHybrid, &[8u32][..]),
    ] {
        for &ebt in ebts {
            let sweep_cfg = SystolicConfig::new(8, 8, scheme, bitwidth)
                .expect("valid sweep configuration")
                .with_effective_bitwidth(ebt)
                .expect("valid EBT")
                .with_acc_width(32);
            let [serial, fast] = [KernelMode::Serial, KernelMode::Auto]
                .map(|mode| run_checksum(&sweep_cfg, &sweep_gemm, &sweep_in, &sweep_w, mode, 1));
            bit_exact &= serial == fast;
        }
    }

    // Worker determinism: the fast-path checksum must never move.
    let workers_consistent = workers.iter().all(|&w| {
        run_checksum(&cfg, &gemm, &input, &weights, KernelMode::Auto, w) == checksum_packed
    });

    // Temporal window (uGEMM-T): like every scheme at a wide OREG, it
    // resolves to `KernelPath::ClosedForm`, so no stream is ever
    // materialised — window ones come from the prefix-count arithmetic.
    let temporal_cfg = SystolicConfig::new(tile, tile, ComputingScheme::UnaryTemporal, bitwidth)
        .expect("valid temporal configuration")
        .with_acc_width(32);
    let temporal = timed_pair(&temporal_cfg, &gemm, &input, &weights, iters, &workers);

    // uGEMM-H: the ±1 walk splits into its two constant-sign RNG phases,
    // one Sobol prefix count each. The lump add needs an OREG that cannot
    // clamp mid-window, so the accumulator stays at a full width here.
    let hybrid_tile = 8usize;
    let hybrid_cfg = SystolicConfig::new(
        hybrid_tile,
        hybrid_tile,
        ComputingScheme::UGemmHybrid,
        bitwidth,
    )
    .expect("valid hybrid configuration")
    .with_acc_width(32);
    let (hybrid_gemm, hybrid_in, hybrid_w) = headline_case(hybrid_tile, vectors.min(8));
    let hybrid = timed_pair(
        &hybrid_cfg,
        &hybrid_gemm,
        &hybrid_in,
        &hybrid_w,
        iters,
        &workers,
    );

    // Multi-word case: a 14-bit rate-coded window is 2^13 cycles, 128
    // u64 words had it been packed; the closed form costs O(bitwidth)
    // per window however long the window is.
    let multiword_bitwidth = 14u32;
    let multiword_tile = 4usize;
    let multiword_cfg = SystolicConfig::new(
        multiword_tile,
        multiword_tile,
        ComputingScheme::UnaryRate,
        multiword_bitwidth,
    )
    .expect("valid multi-word configuration")
    .with_acc_width(32);
    let (mw_gemm, mw_in, mw_w) = headline_case(multiword_tile, 2);
    let multiword = timed_pair(&multiword_cfg, &mw_gemm, &mw_in, &mw_w, iters, &workers);
    bit_exact &= multiword.exact;

    KernelBench {
        tile,
        bitwidth,
        vectors,
        iters,
        serial_us,
        packed_us,
        speedup: serial_us / packed_us.max(1e-9),
        checksum_serial,
        checksum_packed,
        checksums_match: checksum_serial == checksum_packed,
        bit_exact,
        workers,
        workers_consistent,
        temporal_serial_us: temporal.serial_us,
        temporal_closed_us: temporal.fast_us,
        temporal_speedup: temporal.speedup,
        temporal_bit_exact: temporal.exact,
        hybrid_serial_us: hybrid.serial_us,
        hybrid_packed_us: hybrid.fast_us,
        hybrid_speedup: hybrid.speedup,
        hybrid_bit_exact: hybrid.exact,
        multiword_bitwidth,
        multiword_serial_us: multiword.serial_us,
        multiword_packed_us: multiword.fast_us,
        multiword_speedup: multiword.speedup,
    }
}

impl KernelBench {
    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Kernel bench: {}-bit rate-coded {}x{} tile, {} vectors",
                self.bitwidth, self.tile, self.tile, self.vectors
            ),
            &["metric", "value"],
        );
        t.push_row(vec!["serial us".into(), format!("{:.1}", self.serial_us)]);
        t.push_row(vec!["fast us".into(), format!("{:.1}", self.packed_us)]);
        t.push_row(vec!["speedup".into(), format!("{:.1}x", self.speedup)]);
        t.push_row(vec![
            "checksums match".into(),
            self.checksums_match.to_string(),
        ]);
        t.push_row(vec![
            "bit exact (EBT sweep)".into(),
            self.bit_exact.to_string(),
        ]);
        t.push_row(vec![
            "workers consistent".into(),
            format!("{} ({:?})", self.workers_consistent, self.workers),
        ]);
        t.push_row(vec![
            "temporal closed-form speedup".into(),
            format!(
                "{:.1}x ({:.1} -> {:.1} us)",
                self.temporal_speedup, self.temporal_serial_us, self.temporal_closed_us
            ),
        ]);
        t.push_row(vec![
            "temporal bit exact".into(),
            self.temporal_bit_exact.to_string(),
        ]);
        t.push_row(vec![
            "uGEMM-H speedup".into(),
            format!(
                "{:.1}x ({:.1} -> {:.1} us)",
                self.hybrid_speedup, self.hybrid_serial_us, self.hybrid_packed_us
            ),
        ]);
        t.push_row(vec![
            "uGEMM-H bit exact".into(),
            self.hybrid_bit_exact.to_string(),
        ]);
        t.push_row(vec![
            format!("multi-word speedup ({}-bit)", self.multiword_bitwidth),
            format!(
                "{:.1}x ({:.1} -> {:.1} us)",
                self.multiword_speedup, self.multiword_serial_us, self.multiword_packed_us
            ),
        ]);
        t
    }
}

impl ToJson for KernelBench {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("tile", (self.tile as u64).to_json()),
            ("bitwidth", u64::from(self.bitwidth).to_json()),
            ("vectors", (self.vectors as u64).to_json()),
            ("iters", (self.iters as u64).to_json()),
            ("serial_us", self.serial_us.to_json()),
            ("packed_us", self.packed_us.to_json()),
            ("speedup", self.speedup.to_json()),
            ("checksum_serial", self.checksum_serial.to_json()),
            ("checksum_packed", self.checksum_packed.to_json()),
            ("checksums_match", JsonValue::Bool(self.checksums_match)),
            ("bit_exact", JsonValue::Bool(self.bit_exact)),
            (
                "workers",
                JsonValue::Array(self.workers.iter().map(|&w| (w as u64).to_json()).collect()),
            ),
            (
                "workers_consistent",
                JsonValue::Bool(self.workers_consistent),
            ),
            ("temporal_serial_us", self.temporal_serial_us.to_json()),
            ("temporal_closed_us", self.temporal_closed_us.to_json()),
            ("temporal_speedup", self.temporal_speedup.to_json()),
            (
                "temporal_bit_exact",
                JsonValue::Bool(self.temporal_bit_exact),
            ),
            ("hybrid_serial_us", self.hybrid_serial_us.to_json()),
            ("hybrid_packed_us", self.hybrid_packed_us.to_json()),
            ("hybrid_speedup", self.hybrid_speedup.to_json()),
            ("hybrid_bit_exact", JsonValue::Bool(self.hybrid_bit_exact)),
            (
                "multiword_bitwidth",
                u64::from(self.multiword_bitwidth).to_json(),
            ),
            ("multiword_serial_us", self.multiword_serial_us.to_json()),
            ("multiword_packed_us", self.multiword_packed_us.to_json()),
            ("multiword_speedup", self.multiword_speedup.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_bench_is_exact_and_deterministic() {
        let report = run(true, &[1, 2, 3]);
        assert!(report.checksums_match, "serial vs fast checksums differ");
        assert!(report.bit_exact, "EBT sweep found a mismatch");
        assert!(report.workers_consistent, "worker count changed results");
        assert!(report.serial_us > 0.0 && report.packed_us > 0.0);
        assert!(report.temporal_bit_exact, "closed-form temporal mismatch");
        assert!(report.hybrid_bit_exact, "uGEMM-H fast path mismatch");
        assert!(report.temporal_serial_us > 0.0 && report.temporal_closed_us > 0.0);
        assert!(report.hybrid_serial_us > 0.0 && report.hybrid_packed_us > 0.0);
        assert!(report.multiword_serial_us > 0.0 && report.multiword_packed_us > 0.0);
        let json = report.to_json().render();
        assert!(json.contains("\"checksums_match\":true"), "{json}");
        assert!(json.contains("\"bit_exact\":true"), "{json}");
        assert!(json.contains("\"workers_consistent\":true"), "{json}");
        assert!(json.contains("\"temporal_bit_exact\":true"), "{json}");
        assert!(json.contains("\"hybrid_bit_exact\":true"), "{json}");
        assert!(json.contains("\"multiword_speedup\""), "{json}");
        assert!(report.table().rows().len() >= 11);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = deterministic_matrix(2, 2, 1);
        let mut b = a.clone();
        let s = CycleStats::default();
        assert_eq!(checksum(&a, &s), checksum(&b, &s));
        let (x, y) = (b[(0, 0)], b[(0, 1)]);
        b[(0, 0)] = y;
        b[(0, 1)] = x;
        assert_ne!(checksum(&a, &s), checksum(&b, &s));
    }
}
