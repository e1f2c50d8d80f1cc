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
//! microsecond-scale closed-form call is resolved. A full run repeats the
//! whole timing matrix [`REPETITIONS`] times and reports every `*_us` and
//! `*speedup` key as its median across the repetitions, so one slow spell
//! of the host cannot set the ledger. The report also sweeps
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
    /// Timing samples per case and repetition (best-of); each sample is a
    /// batch of calls spanning at least 5 ms of host time.
    pub iters: usize,
    /// Repetitions of the whole timing matrix; every timing and speedup
    /// below is the median across them.
    pub repetitions: usize,
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

/// Repetitions of the whole timing matrix in a full run (a short run
/// makes one). Each repetition times every case with best-of-`iters`
/// samples per path, about 0.5 s, so a full run takes about 3.5 s.
pub const REPETITIONS: usize = 7;

/// One timed case: a configuration and its lowered GEMM.
struct Case {
    cfg: SystolicConfig,
    gemm: GemmConfig,
    input: Matrix<i64>,
    weights: Matrix<i64>,
}

impl Case {
    /// Best-of-`iters` per-call timings of the bit-serial and the fast
    /// path, `[serial_us, fast_us]`, with their checksums.
    fn time(&self, iters: usize) -> ([f64; 2], [u64; 2]) {
        let run = |mode| run_checksum(&self.cfg, &self.gemm, &self.input, &self.weights, mode, 1);
        let [(serial_us, serial), (fast_us, fast)] =
            time_pair(iters, || run(KernelMode::Serial), || run(KernelMode::Auto));
        ([serial_us, fast_us], [serial, fast])
    }

    /// The fast path's checksum at one worker count.
    fn fast_checksum(&self, workers: usize) -> u64 {
        run_checksum(
            &self.cfg,
            &self.gemm,
            &self.input,
            &self.weights,
            KernelMode::Auto,
            workers,
        )
    }
}

/// The median of a non-empty sample of odd size ([`REPETITIONS`] or one).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One case's medians across the repetitions: serial and fast µs per call
/// and the speedup (the median of the per-repetition ratios).
struct CaseMedians {
    serial_us: f64,
    fast_us: f64,
    speedup: f64,
}

impl CaseMedians {
    fn of(timings: &[[f64; 2]]) -> Self {
        let key = |f: fn(&[f64; 2]) -> f64| median(timings.iter().map(f).collect());
        Self {
            serial_us: key(|t| t[0]),
            fast_us: key(|t| t[1]),
            speedup: key(|t| t[0] / t[1].max(1e-9)),
        }
    }
}

/// Runs the kernel benchmark. `short` shrinks the vector count, the
/// timing iterations and the repetitions (to one) for CI smoke runs;
/// `workers` is the determinism sweep (deduplicated order kept).
#[must_use]
pub fn run(short: bool, workers: &[usize]) -> KernelBench {
    let tile = 16usize;
    let bitwidth = 8u32;
    let (vectors, iters, repetitions) = if short {
        (4, 1, 1)
    } else {
        (16, 11, REPETITIONS)
    };
    let workers: Vec<usize> = if workers.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        workers.to_vec()
    };
    let case = |tile: usize, vectors: usize, scheme, bitwidth| {
        let (gemm, input, weights) = headline_case(tile, vectors);
        Case {
            cfg: SystolicConfig::new(tile, tile, scheme, bitwidth)
                .expect("valid benchmark configuration")
                .with_acc_width(32),
            gemm,
            input,
            weights,
        }
    };
    // The timing matrix. Headline: the paper's 8-bit rate-coded tile.
    // Temporal (uGEMM-T): like every scheme at a wide OREG, it resolves to
    // `KernelPath::ClosedForm`, so no stream is ever materialised. uGEMM-H:
    // the ±1 walk splits into its two constant-sign RNG phases, one Sobol
    // prefix count each; the lump add needs an OREG that cannot clamp
    // mid-window, so the accumulator stays at a full width. Multi-word: a
    // 14-bit rate-coded window is 2^13 cycles, 128 u64 words had it been
    // packed; the closed form costs O(bitwidth) per window however long
    // the window is.
    let multiword_bitwidth = 14u32;
    let cases = [
        case(tile, vectors, ComputingScheme::UnaryRate, bitwidth),
        case(tile, vectors, ComputingScheme::UnaryTemporal, bitwidth),
        case(8, vectors.min(8), ComputingScheme::UGemmHybrid, bitwidth),
        case(4, 2, ComputingScheme::UnaryRate, multiword_bitwidth),
    ];
    // Every repetition times each case once; a case is exact only if its
    // two paths agree in every repetition.
    let mut timings = vec![Vec::with_capacity(repetitions); cases.len()];
    let mut exact = [true; 4];
    let mut checksums = [0u64; 2];
    for _ in 0..repetitions {
        for (i, case) in cases.iter().enumerate() {
            let (timing, [serial, fast]) = case.time(iters);
            timings[i].push(timing);
            exact[i] &= serial == fast;
            if i == 0 {
                checksums = [serial, fast];
            }
        }
    }
    let [headline, temporal, hybrid, multiword] =
        [0, 1, 2, 3].map(|i| CaseMedians::of(&timings[i]));
    let [checksum_serial, checksum_packed] = checksums;

    // EBT × scheme bit-exactness sweep (small case keeps smoke runs fast).
    // uGEMM-H rejects true early termination, so it rides along at the
    // full-width no-op EBT, pinning its closed form against the bit-serial
    // bipolar walk.
    let (sweep_gemm, sweep_in, sweep_w) = headline_case(8, 3);
    let mut bit_exact = exact[3];
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

    // Worker determinism: no fast-path checksum may move with the worker
    // count (the headline case reports it; the other cases fold it into
    // their bit-exactness verdicts).
    let consistent = |case: &Case| {
        let one = case.fast_checksum(1);
        workers.iter().all(|&w| case.fast_checksum(w) == one)
    };
    let workers_consistent = consistent(&cases[0]);
    let temporal_bit_exact = exact[1] && consistent(&cases[1]);
    let hybrid_bit_exact = exact[2] && consistent(&cases[2]);
    bit_exact &= consistent(&cases[3]);

    KernelBench {
        tile,
        bitwidth,
        vectors,
        iters,
        repetitions,
        serial_us: headline.serial_us,
        packed_us: headline.fast_us,
        speedup: headline.speedup,
        checksum_serial,
        checksum_packed,
        checksums_match: exact[0],
        bit_exact,
        workers,
        workers_consistent,
        temporal_serial_us: temporal.serial_us,
        temporal_closed_us: temporal.fast_us,
        temporal_speedup: temporal.speedup,
        temporal_bit_exact,
        hybrid_serial_us: hybrid.serial_us,
        hybrid_packed_us: hybrid.fast_us,
        hybrid_speedup: hybrid.speedup,
        hybrid_bit_exact,
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
        t.push_row(vec![
            "repetitions (medians)".into(),
            self.repetitions.to_string(),
        ]);
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
            ("repetitions", (self.repetitions as u64).to_json()),
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
    fn medians_take_the_middle_repetition() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        // One outlying repetition cannot move the reported value.
        let m = CaseMedians::of(&[
            [100.0, 1.0],
            [90.0, 1.0],
            [147.0, 1.0],
            [95.0, 1.0],
            [99.0, 1.0],
        ]);
        assert_eq!((m.serial_us, m.fast_us, m.speedup), (99.0, 1.0, 99.0));
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
