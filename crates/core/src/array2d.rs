//! The tile sweep behind every GEMM of the crate: a fully cycle-accurate
//! `R × C` array machine and the closed form that reproduces it.
//!
//! [`cycle_accurate_gemm_with`] is the only GEMM engine;
//! [`crate::exec::GemmExecutor::execute_lowered`] runs it under
//! [`KernelMode::Auto`]. The sweep runs one task per row fold (at most
//! `R` reduction rows), each producing that fold's `M × N` partial sums
//! over every column fold. A fold takes one of two routes.
//!
//! The stepped reference machine ([`KernelMode::Serial`]) advances the
//! whole array cycle by cycle, one weight tile after the other, exactly as
//! Fig. 7 describes it:
//!
//! * `R'` weight-preload cycles per tile;
//! * input vectors injected bottom-row-first through the staircase skew
//!   (the surrounding FIFOs), one new vector per MAC interval;
//! * per row, the leftmost PE generates the (IFM-bit, random-number) pair
//!   each multiply cycle and the pair travels right through the IDFF/RREG
//!   chain — one column per cycle;
//! * at the M-end cycle every PE folds in the partial sum its lower
//!   neighbour published on the previous cycle, and the top row streams
//!   the finished OFM through the early-termination shifters.
//!
//! The closed form ([`KernelMode::resolve`]) evaluates each MAC window in
//! one shot and then replays the M-end cascade with the same registers.
//! One `kernel::ClosedFormWindow`, built once per GEMM with no per-tile
//! state, serves all five schemes. It reuses work the way Fig. 7 reuses
//! bitstreams: each input element's half of its windows (the IFM enable
//! count and the weight RNG's Sobol prefix for rate and temporal coding,
//! both phase prefixes for uGEMM-H, the level itself for binary schemes)
//! is built once per row fold and shared by all `N` PEs of its weight row,
//! across every column fold. Column folds share no partial sums and every
//! number source restarts per window, so sweeping the full contiguous
//! weight row (`weights.row(k)[..N]`) computes exactly what the fold's
//! tiles compute one by one, and its [`CycleStats`] are the per-tile
//! closed-form schedule summed over the fold's tiles. Each row counts its
//! weights eight at a time, class by class
//! ([`usystolic_unary::packed::SobolPrefix::count_lanes`]). The cascade
//! runs vector by vector, each vector's rows bottom-up and each row's
//! columns left to right, keeping one partial sum per column.
//!
//! All five schemes share one OREG semantics, the stepped machine's
//! (the reduced-resolution OREG of Section III-A):
//!
//! * each PE owns a saturating `acc_width`-bit OREG, drained at every
//!   M-end, so one register sees at most `min(R, K)` windows;
//! * partial sums of different row folds meet unclamped in the output
//!   buffer.
//!
//! At the default widths (binary: `2N + ⌈log2 R⌉ + 2` bits) nothing
//! clamps. `tests::matches_fast_executor_*` pin the closed form and
//! `execute_lowered` against the stepped machine for every scheme,
//! `acc_width` 4..=32, `K > R`, `N` wider than one count batch and
//! 1/2/4/8 workers, and `tests::cycle_count_matches_timing_model`
//! cross-validates the measured cycle count against the `usystolic-sim`
//! ideal-cycle formula.

use crate::config::SystolicConfig;
use crate::kernel::{ClosedFormWindow, KernelMode, KernelPath, WindowRow};
use crate::mapping::TileMapping;
use crate::pe::IfmSource;
use crate::scheme::ComputingScheme;
use crate::CoreError;
use std::ops::Range;
use usystolic_gemm::{GemmConfig, Matrix};
use usystolic_unary::add::{BinaryAccumulator, ACC_WIDTHS};
use usystolic_unary::coding::Coding;
use usystolic_unary::rng::{NumberSource, SobolSource};
use usystolic_unary::sign::SignMagnitude;

/// Weights the closed-form cascade counts per [`WindowRow::count`] call:
/// the length of a row fold's stack buffer of window counts.
const BATCH: usize = 64;

/// Statistics of a cycle-accurate run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Total clock cycles summed over all tiles.
    pub cycles: u64,
    /// PE-cycles spent inside MAC windows.
    pub busy_pe_cycles: u64,
    /// Weight tiles executed.
    pub tiles: u64,
    /// OREG saturation events.
    pub saturation_events: u64,
}

impl CycleStats {
    /// Adds another part of the sweep's statistics to these.
    fn absorb(&mut self, other: CycleStats) {
        self.cycles += other.cycles;
        self.busy_pe_cycles += other.busy_pe_cycles;
        self.tiles += other.tiles;
        self.saturation_events += other.saturation_events;
    }
}

/// Per-row bitstream generation state.
enum RowGen {
    /// uSystolic: C-I comparator source + conditional weight RNG.
    Unary {
        ifm_src: IfmSource,
        w_rng: SobolSource,
        ifm: SignMagnitude,
        last_r: u64,
    },
    /// uGEMM-H: bipolar input source + ones/zeros-phase RNG pair.
    Bipolar {
        in_src: SobolSource,
        rng_ones: SobolSource,
        rng_zeros: SobolSource,
        in_threshold: u64,
    },
    /// Binary schemes: exact arithmetic, no bitstreams.
    Binary,
}

impl RowGen {
    /// The (enable/input bit, random number) pair for one multiply cycle.
    fn gen_pair(&mut self) -> (bool, u64) {
        match self {
            RowGen::Unary {
                ifm_src,
                w_rng,
                ifm,
                last_r,
            } => {
                let e = ifm_src.next() < ifm.magnitude;
                if e {
                    *last_r = w_rng.next();
                }
                (e, *last_r)
            }
            RowGen::Bipolar {
                in_src,
                rng_ones,
                rng_zeros,
                in_threshold,
            } => {
                let in_bit = in_src.next() < *in_threshold;
                let r = if in_bit {
                    rng_ones.next()
                } else {
                    rng_zeros.next()
                };
                (in_bit, r)
            }
            RowGen::Binary => (false, 0),
        }
    }
}

/// Runs a lowered GEMM (`input: M × K`, `weights: K × N`) through the
/// cycle-accurate machine: [`cycle_accurate_gemm_with`] under
/// [`KernelMode::Auto`] on one worker.
///
/// # Errors
///
/// Returns [`CoreError::Shape`] for mismatched matrices and
/// [`CoreError::Config`] for an OREG width the accumulator cannot build.
pub fn cycle_accurate_gemm(
    config: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
) -> Result<(Matrix<i64>, CycleStats), CoreError> {
    cycle_accurate_gemm_with(config, gemm, input, weights, KernelMode::Auto, 1)
}

/// Records one unit of the sweep (a serial tile or a closed-form row fold)
/// on the [`usystolic_obs::PID_WALL`] lane: its wall-clock span `name`
/// with `args`, its time in the histogram `metric` (µs) and its `tiles`
/// in `core.tiles{kernel}`. A no-op when no session is installed, in
/// particular on worker threads of the parallel sweep, which carry none.
fn record_unit(
    kernel: &'static str,
    metric: &'static str,
    name: impl FnOnce() -> String,
    args: &[(&str, usize)],
    tiles: usize,
    t0: f64,
) {
    usystolic_obs::with(|o| {
        use usystolic_obs::ToJson;
        let t1 = o.tracer.now_us();
        o.metrics.observe(metric, t1 - t0);
        o.metrics
            .observe_labeled(metric, &[("kernel", kernel)], t1 - t0);
        o.metrics
            .count_labeled("core.tiles", &[("kernel", kernel)], tiles as u64);
        // `correlated_args` stamps the active request/shard ids (set by
        // the serve engine) onto the span, closing the admission → batch
        // → layer → tile chain in the trace.
        let args = o.correlated_args(
            args.iter()
                .map(|&(key, value)| (key.to_owned(), (value as u64).to_json()))
                .collect(),
        );
        o.tracer.complete(
            name(),
            "core",
            usystolic_obs::PID_WALL,
            1,
            t0,
            t1 - t0,
            args,
        );
    });
}

/// [`cycle_accurate_gemm`] with an explicit kernel mode and worker count.
///
/// The sweep is embarrassingly parallel across row folds (they share no
/// machine state, only the output accumulation), so each row fold is one
/// task on `workers` threads of the shared work-stealing pool
/// ([`usystolic_pool`]). A task sweeps its fold across every column fold
/// and returns its own `M × N` block of partial sums, and the blocks are
/// added sequentially in row-fold order — the result is **bit-for-bit
/// identical for every worker count and for every [`KernelMode`]**
/// (`tests::packed_kernel_and_workers_are_bit_exact`).
///
/// Under [`KernelMode::Auto`], every fold evaluates its windows in closed
/// form (see [`crate::kernel`]). uGEMM-H OREGs narrower than
/// `bitwidth + 2` fall back to the stepped machine, tile by tile, where
/// mid-window clamping is real behaviour the lump add cannot reproduce.
///
/// Telemetry follows the unit of work: a closed-form fold records one
/// wall-clock span `cycle_gemm.closed_form tiles r{rf}` and its time in
/// `core.fold_us`; a stepped tile records `cycle_gemm.serial tile
/// c{cf}r{rf}` and `core.tile_us`. `core.tiles{kernel}` counts every tile
/// either way.
///
/// # Errors
///
/// Returns [`CoreError::Shape`] for mismatched matrices and
/// [`CoreError::Config`] for an OREG width outside [`ACC_WIDTHS`] or if
/// the worker pool fails.
pub fn cycle_accurate_gemm_with(
    config: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
    mode: KernelMode,
    workers: usize,
) -> Result<(Matrix<i64>, CycleStats), CoreError> {
    let (k, n) = gemm.lowered_shape();
    let m = gemm.output_pixels();
    if input.rows() != m || input.cols() != k || weights.rows() != k || weights.cols() != n {
        return Err(CoreError::Shape(format!(
            "lowered shapes must be ({m}x{k})·({k}x{n}), got ({}x{})·({}x{})",
            input.rows(),
            input.cols(),
            weights.rows(),
            weights.cols()
        )));
    }
    if !ACC_WIDTHS.contains(&config.acc_width()) {
        return Err(CoreError::Config(format!(
            "unsupported accumulator width {} (the OREG holds {}..={} bits)",
            config.acc_width(),
            ACC_WIDTHS.start(),
            ACC_WIDTHS.end()
        )));
    }

    let map = TileMapping::new(gemm, config.rows(), config.cols());
    let scheme = config.scheme();
    // Resolve the path once per GEMM (not per tile), so a demoted request
    // records exactly one fallback event.
    let path = mode.resolve(config);
    let kernel_label = match path {
        KernelPath::ClosedForm => "closed-form",
        KernelPath::Serial => "serial",
    };
    // A window depends on the GEMM, not the tile: it is built once here
    // and shared by every row fold.
    let closed = (path == KernelPath::ClosedForm)
        .then(|| ClosedFormWindow::new(scheme, config.bitwidth(), config.mul_cycles()));

    let mut sweep_t0 = 0.0;
    usystolic_obs::with(|o| sweep_t0 = o.tracer.now_us());

    // One task per row fold, each returning its own `M × N` block of
    // partial sums. The spans inside the closure are recorded only on the
    // inline (single-worker) path: worker threads carry no thread-local
    // observability session, so the calls no-op there and the sweep-level
    // span below covers the parallel case.
    let partials = usystolic_pool::run_indexed(workers, map.row_folds(), |rf| {
        let mut block = Matrix::<i64>::zeros(m, n);
        let mut fold_stats = CycleStats::default();
        let (k0, rows) = (rf * config.rows(), map.rows_in_fold(rf));
        let mut t0 = 0.0;
        match &closed {
            Some(window) => {
                usystolic_obs::with(|o| t0 = o.tracer.now_us());
                fold_stats.saturation_events = sweep_fold(
                    window,
                    config.acc_width(),
                    input,
                    weights,
                    k0,
                    rows,
                    &mut block,
                );
                for cf in 0..map.col_folds() {
                    fold_stats.absorb(tile_schedule(config, rows, map.cols_in_fold(cf), m));
                }
                record_unit(
                    "cycle_gemm.closed_form",
                    "core.fold_us",
                    || format!("cycle_gemm.closed_form tiles r{rf}"),
                    &[("row_fold", rf), ("rows", rows), ("tiles", map.col_folds())],
                    map.col_folds(),
                    t0,
                );
            }
            None => {
                for cf in 0..map.col_folds() {
                    usystolic_obs::with(|o| t0 = o.tracer.now_us());
                    let tile = TileMachine::new(config, input, weights, &map, rf, cf);
                    let cols = tile.cols;
                    tile.run(&mut block, &mut fold_stats);
                    record_unit(
                        "cycle_gemm.serial",
                        "core.tile_us",
                        || format!("cycle_gemm.serial tile c{cf}r{rf}"),
                        &[
                            ("col_fold", cf),
                            ("row_fold", rf),
                            ("rows", rows),
                            ("cols", cols),
                        ],
                        1,
                        t0,
                    );
                }
            }
        }
        (block, fold_stats)
    })
    .map_err(|e| CoreError::Config(format!("tile sweep worker pool failed: {e}")))?;

    // Deterministic sequential fold in row-fold order: parallelism changes
    // wall-clock time, never one output bit.
    let mut partials = partials.into_iter();
    let (mut out, mut stats) = partials
        .next()
        .unwrap_or_else(|| (Matrix::zeros(m, n), CycleStats::default()));
    for (block, fold_stats) in partials {
        for (total, partial) in out.as_mut_slice().iter_mut().zip(block.as_slice()) {
            *total += partial;
        }
        stats.absorb(fold_stats);
    }

    // Top-row shifters: rescale the early-terminated partial sums once,
    // after all folds have been accumulated (linear, so order-free).
    let shift = config.early_termination().shift();
    if shift > 0 && scheme == ComputingScheme::UnaryRate {
        for v in out.as_mut_slice() {
            *v <<= shift;
        }
    }

    usystolic_obs::with(|o| {
        use usystolic_obs::ToJson;
        let t1 = o.tracer.now_us();
        o.metrics.count(
            match path {
                KernelPath::Serial => "core.cycle.serial_pe_cycles",
                // The historical name of the off-reference-machine PE
                // cycles, which the closed form models.
                KernelPath::ClosedForm => "core.cycle.packed_pe_cycles",
            },
            stats.busy_pe_cycles,
        );
        o.metrics.count("core.cycle.tiles", stats.tiles);
        o.metrics
            .count_labeled("core.cycle.tiles", &[("kernel", kernel_label)], stats.tiles);
        let args = o.correlated_args(vec![
            (
                "kernel".to_owned(),
                usystolic_obs::JsonValue::Str(kernel_label.to_owned()),
            ),
            (
                "packed".to_owned(),
                u64::from(path != KernelPath::Serial).to_json(),
            ),
            ("workers".to_owned(), (workers.max(1) as u64).to_json()),
            ("tiles".to_owned(), stats.tiles.to_json()),
        ]);
        o.tracer.complete(
            format!("cycle_gemm sweep {mode}"),
            "core",
            usystolic_obs::PID_WALL,
            0,
            sweep_t0,
            t1 - sweep_t0,
            args,
        );
    });
    Ok((out, stats))
}

/// One weight tile of the stepped reference machine. [`run`](Self::run)
/// adds the tile's finished partial sums into columns `n0..n0 + C'` of
/// its row fold's `M × N` block.
struct TileMachine<'a> {
    config: &'a SystolicConfig,
    input: &'a Matrix<i64>,
    weights: &'a Matrix<i64>,
    k0: usize,
    n0: usize,
    rows: usize,
    cols: usize,
    m: usize,
}

impl<'a> TileMachine<'a> {
    fn new(
        config: &'a SystolicConfig,
        input: &'a Matrix<i64>,
        weights: &'a Matrix<i64>,
        map: &TileMapping,
        rf: usize,
        cf: usize,
    ) -> Self {
        Self {
            config,
            input,
            weights,
            k0: rf * config.rows(),
            n0: cf * config.cols(),
            rows: map.rows_in_fold(rf),
            cols: map.cols_in_fold(cf),
            m: map.m(),
        }
    }

    fn fresh_row_gen(&self) -> RowGen {
        let bitwidth = self.config.bitwidth();
        match self.config.scheme() {
            s @ (ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal) => RowGen::Unary {
                ifm_src: IfmSource::for_coding(
                    if s == ComputingScheme::UnaryTemporal {
                        Coding::Temporal
                    } else {
                        Coding::Rate
                    },
                    bitwidth,
                ),
                w_rng: SobolSource::dimension(0, bitwidth - 1),
                ifm: SignMagnitude::default(),
                last_r: 0,
            },
            ComputingScheme::UGemmHybrid => RowGen::Bipolar {
                in_src: SobolSource::dimension(1, bitwidth),
                rng_ones: SobolSource::dimension(0, bitwidth),
                rng_zeros: SobolSource::dimension(2, bitwidth),
                in_threshold: 0,
            },
            _ => RowGen::Binary,
        }
    }

    /// Resets a row generator for a new MAC window on `level`.
    fn reset_row_gen(&self, gen: &mut RowGen, level: i64) {
        let bitwidth = self.config.bitwidth();
        match gen {
            RowGen::Unary {
                ifm_src,
                w_rng,
                ifm,
                last_r,
            } => {
                ifm_src.reset();
                w_rng.reset();
                *ifm = SignMagnitude::from_signed(level, bitwidth);
                *last_r = 0;
            }
            RowGen::Bipolar {
                in_src,
                rng_ones,
                rng_zeros,
                in_threshold,
            } => {
                in_src.reset();
                rng_ones.reset();
                rng_zeros.reset();
                let half = 1i64 << (bitwidth - 1);
                *in_threshold = (level.clamp(-half, half) + half) as u64;
            }
            RowGen::Binary => {}
        }
    }

    fn run(self, out: &mut Matrix<i64>, stats: &mut CycleStats) {
        let scheme = self.config.scheme();
        let bitwidth = self.config.bitwidth();
        let mac = self.config.mac_cycles() as i64;
        let mul = self.config.mul_cycles() as i64;
        let half = 1i64 << (bitwidth - 1);
        let preload = self.rows as i64;
        let (rows, cols, m) = (self.rows, self.cols, self.m as i64);

        // Stationary weights of this tile, in the scheme's operand form.
        let w_sm: Vec<Vec<SignMagnitude>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        SignMagnitude::from_signed(
                            self.weights[(self.k0 + r, self.n0 + c)],
                            bitwidth,
                        )
                    })
                    .collect()
            })
            .collect();
        let w_bipolar_thr: Vec<Vec<u64>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let w = self.weights[(self.k0 + r, self.n0 + c)].clamp(-half, half);
                        (w + half) as u64
                    })
                    .collect()
            })
            .collect();

        // Bottom row starts first so partial sums cascade upward.
        let start = |r: usize, c: usize| preload + (rows as i64 - 1 - r as i64) + c as i64;
        let t_end = start(0, cols - 1) + m * mac - 1;

        let mut gens: Vec<RowGen> = (0..rows).map(|_| self.fresh_row_gen()).collect();
        // Per-row (bit, random) delay chains; index c holds the pair
        // generated c cycles ago.
        let mut pipes: Vec<Vec<(bool, u64)>> = vec![vec![(false, 0); cols]; rows];
        let mut accs: Vec<BinaryAccumulator> = (0..rows * cols)
            .map(|_| BinaryAccumulator::new(self.config.acc_width()))
            .collect();
        // Partial sums published at the previous cycle's M-end.
        let mut psum_prev = vec![0i64; rows * cols];
        let mut psum_next = vec![0i64; rows * cols];

        for t in 0..=t_end {
            // Phase 1: leftmost-column generation and pipeline shift.
            for r in 0..rows {
                let local0 = t - start(r, 0);
                let pair = if local0 >= 0 && local0 / mac < m {
                    let phase = local0 % mac;
                    if phase == 0 {
                        let p = (local0 / mac) as usize;
                        let level = self.input[(p, self.k0 + r)];
                        self.reset_row_gen(&mut gens[r], level);
                    }
                    if phase < mul {
                        gens[r].gen_pair()
                    } else {
                        (false, 0)
                    }
                } else {
                    (false, 0)
                };
                // Shift right by one PE; the new pair enters at column 0.
                pipes[r].rotate_right(1);
                pipes[r][0] = pair;
            }

            // Phase 2: PE compute and M-end cascade.
            for r in 0..rows {
                for c in 0..cols {
                    let local = t - start(r, c);
                    if local < 0 || local / mac >= m {
                        continue;
                    }
                    let p = (local / mac) as usize;
                    let phase = local % mac;
                    stats.busy_pe_cycles += 1;
                    let idx = r * cols + c;
                    if phase < mul {
                        match scheme {
                            ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal => {
                                let (e, rand) = pipes[r][c];
                                if e && rand < w_sm[r][c].magnitude {
                                    let ifm = SignMagnitude::from_signed(
                                        self.input[(p, self.k0 + r)],
                                        bitwidth,
                                    );
                                    accs[idx].add(ifm.product_increment(w_sm[r][c]));
                                }
                            }
                            ComputingScheme::UGemmHybrid => {
                                let (in_bit, rand) = pipes[r][c];
                                let thr = w_bipolar_thr[r][c];
                                let bit = if in_bit { rand < thr } else { rand >= thr };
                                accs[idx].add(if bit { 1 } else { -1 });
                            }
                            ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => {
                                // The exact product lands at the final
                                // multiply cycle (serial schemes spread it
                                // over N cycles without changing the value).
                                if phase == mul - 1 {
                                    accs[idx].add(
                                        self.input[(p, self.k0 + r)]
                                            * self.weights[(self.k0 + r, self.n0 + c)],
                                    );
                                }
                            }
                        }
                    }
                    if phase == mac - 1 {
                        // M-end: fold in the lower neighbour's partial sum
                        // (published last cycle) and publish our own.
                        let below = if r + 1 < rows {
                            psum_prev[(r + 1) * cols + c]
                        } else {
                            0
                        };
                        accs[idx].add(below);
                        if accs[idx].saturated() {
                            stats.saturation_events += 1;
                        }
                        let total = accs[idx].drain();
                        if r == 0 {
                            out[(p, self.n0 + c)] += total;
                        } else {
                            psum_next[idx] = total;
                        }
                    }
                }
            }
            std::mem::swap(&mut psum_prev, &mut psum_next);
        }

        stats.cycles += (t_end + 1) as u64;
        stats.tiles += 1;
    }
}

/// The closed-form schedule of one `rows × cols` tile over `m` vectors,
/// exactly what the stepped machine measures: `rows` preload cycles, then
/// the top-right PE starts its first window `rows + cols − 2` cycles after
/// the bottom-left one and runs `m` windows of `mac_cycles` each.
fn tile_schedule(config: &SystolicConfig, rows: usize, cols: usize, m: usize) -> CycleStats {
    let mac = config.mac_cycles();
    CycleStats {
        cycles: (2 * rows + cols - 2) as u64 + m as u64 * mac,
        busy_pe_cycles: (rows * cols * m) as u64 * mac,
        tiles: 1,
        saturation_events: 0,
    }
}

/// Closed-form evaluation of one row fold (reduction rows `k0..k0 +
/// rows`) across every column fold at once, into the fold's zeroed `M ×
/// N` `block`; returns the OREG saturation events.
///
/// Column folds share no partial sums and every number source restarts
/// per window, so one pass over each full weight row
/// (`weights.row(k)[..N]`) computes exactly what the fold's tiles compute
/// one by one. Per vector the cascade runs bottom-up: row `r+1`'s M-end
/// lands one cycle before row `r`'s, so its drained partial sum
/// (`below[c]`, one per column) is what row `r` folds in. `below` is the
/// vector's own row of `block`: it starts zeroed, as the bottom row folds
/// in nothing, and ends holding the top row's totals. Each input element's
/// half of its windows ([`WindowRow`]) is built once for all `N` columns.
///
/// Bit-exact against [`TileMachine::run`]: a window's lump add clamps
/// exactly like its per-cycle adds whenever every increment of the window
/// has the same sign (binary, rate and temporal windows) or the OREG
/// cannot clamp mid-window (uGEMM-H, guaranteed by
/// [`KernelMode::resolve`]). One accumulator serves a whole PE row: `drain()`
/// clears the value and the sticky saturation flag at every M-end, exactly
/// like the per-PE OREGs, so the saturation count matches too.
fn sweep_fold(
    window: &ClosedFormWindow,
    acc_width: u32,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
    k0: usize,
    rows: usize,
    block: &mut Matrix<i64>,
) -> u64 {
    // One monomorphised sweep per window kind keeps every row's count
    // free of the other kinds' arms.
    let fold = (input, weights, k0..k0 + rows);
    match window {
        // The exact product, fused into the M-end: a buffered pass of
        // products is slower.
        ClosedFormWindow::Binary => sweep_rows(fold, block, |level, weights, below| {
            let mut oreg = BinaryAccumulator::new(acc_width);
            let mut saturations = 0;
            for (partial, &weight) in below.iter_mut().zip(weights) {
                if m_end(&mut oreg, level * weight, partial) {
                    saturations += 1;
                }
            }
            saturations
        }),
        ClosedFormWindow::SignMagnitude(w) => {
            let mut counts = [0; BATCH];
            sweep_rows(fold, block, |level, weights, below| {
                cascade(&w.row(level), acc_width, weights, below, &mut counts)
            })
        }
        ClosedFormWindow::Bipolar(w) => {
            let mut counts = [0; BATCH];
            sweep_rows(fold, block, |level, weights, below| {
                cascade(&w.row(level), acc_width, weights, below, &mut counts)
            })
        }
    }
}

/// The vector and row loops of [`sweep_fold`] over reduction rows `ks`:
/// `step(level, weight_row, below)` runs the M-end of one input element's
/// row against its whole weight row and returns the saturation events.
fn sweep_rows(
    (input, weights, ks): (&Matrix<i64>, &Matrix<i64>, Range<usize>),
    block: &mut Matrix<i64>,
    mut step: impl FnMut(i64, &[i64], &mut [i64]) -> u64,
) -> u64 {
    let mut saturations = 0;
    for (p, below) in block
        .as_mut_slice()
        .chunks_exact_mut(weights.cols())
        .enumerate()
    {
        for (k, &level) in ks.clone().zip(&input.row(p)[ks.clone()]).rev() {
            saturations += step(level, weights.row(k), below);
        }
    }
    saturations
}

/// One row's M-end over a whole weight row: the row counts [`BATCH`]
/// weights at a time into `counts` (a buffer of the whole fold, so no row
/// clears one), and each PE's count then folds into the `acc_width`-bit
/// OREG with the partial sum from below. Returns the saturation events.
fn cascade(
    row: &impl WindowRow,
    acc_width: u32,
    weights: &[i64],
    below: &mut [i64],
    counts: &mut [i64; BATCH],
) -> u64 {
    // A local OREG: every M-end drains it, so no state outlives the row.
    let mut oreg = BinaryAccumulator::new(acc_width);
    let mut saturations = 0;
    for (weights, below) in weights.chunks(BATCH).zip(below.chunks_mut(BATCH)) {
        let counts = &mut counts[..weights.len()];
        row.count(weights, counts);
        for (partial, &count) in below.iter_mut().zip(&*counts) {
            if m_end(&mut oreg, count, partial) {
                saturations += 1;
            }
        }
    }
    saturations
}

/// One PE's M-end: its window `count` and the lower neighbour's
/// `partial` sum fold into the OREG, which drains into `partial`.
/// Returns whether the OREG saturated. (Its callers count saturations
/// with a branch, which is never taken at the default widths; summing
/// the flag instead measured slower.)
#[inline]
fn m_end(oreg: &mut BinaryAccumulator, count: i64, partial: &mut i64) -> bool {
    oreg.add(count);
    oreg.add(*partial);
    let saturated = oreg.saturated();
    *partial = oreg.drain();
    saturated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GemmExecutor;
    use usystolic_gemm::im2col;
    use usystolic_gemm::{FeatureMap, WeightSet};
    use usystolic_unary::rng::SplitMix64;

    fn lowered_case(seed: i64) -> (GemmConfig, Matrix<i64>, Matrix<i64>) {
        let gemm = GemmConfig::conv(4, 4, 2, 2, 2, 1, 3).expect("valid test shape");
        let input = FeatureMap::from_fn(4, 4, 2, |h, w, c| {
            ((h as i64 * 37 + w as i64 * 11 + c as i64 * 5 + seed) % 257) - 128
        });
        let weights = WeightSet::from_fn(3, 2, 2, 2, |oc, wh, ww, ic| {
            ((oc as i64 * 53 + wh as i64 * 17 + ww as i64 * 7 + ic as i64 * 3 + seed) % 257) - 128
        });
        let li = im2col::lower_input(&gemm, &input).expect("shapes match");
        let lw = im2col::lower_weights(&gemm, &weights).expect("shapes match");
        (gemm, li, lw)
    }

    /// Differential check of `execute_lowered` and the `Auto` tile paths
    /// against the stepped machine for one scheme at effective bitwidth
    /// `ebt`: every `acc_width` in 4..=32, four SplitMix64 GEMMs with
    /// `K > R` (`K mod R ≠ 0`) and `N > C` (`N mod C ≠ 0`), one of them
    /// wider than a count batch (`N = 70 > BATCH`, ragged in the last
    /// column fold and the last batch), and 1/2/4/8 workers.
    fn assert_differential(scheme: ComputingScheme, ebt: u32) {
        let mut rng = SplitMix64::new(0xD1FF);
        let mut saturating = 0;
        for (m, k, n) in [(2usize, 10usize, 4usize), (3, 7, 5), (1, 13, 7), (2, 9, 70)] {
            let gemm = GemmConfig::matmul(m, k, n).expect("valid test shape");
            let mut level = || rng.below(257) as i64 - 128;
            let input = Matrix::from_fn(m, k, |_, _| level());
            let weights = Matrix::from_fn(k, n, |_, _| level());
            for acc_width in 4..=32 {
                let cfg = SystolicConfig::new(4, 3, scheme, 8)
                    .expect("valid test configuration")
                    .with_effective_bitwidth(ebt)
                    .expect("valid EBT")
                    .with_acc_width(acc_width);
                let case = format!("{scheme} EBT {ebt} acc {acc_width} {m}x{k}x{n}");
                let (serial, serial_stats) =
                    cycle_accurate_gemm_with(&cfg, &gemm, &input, &weights, KernelMode::Serial, 1)
                        .expect("serial path executes");
                saturating += u32::from(serial_stats.saturation_events > 0);
                for workers in [1usize, 2, 4, 8] {
                    let (auto, auto_stats) = cycle_accurate_gemm_with(
                        &cfg,
                        &gemm,
                        &input,
                        &weights,
                        KernelMode::Auto,
                        workers,
                    )
                    .expect("auto path executes");
                    assert_eq!(auto, serial, "{case} workers {workers}");
                    assert_eq!(auto_stats, serial_stats, "{case} workers {workers}");
                    let (exec, exec_stats) = GemmExecutor::new(cfg)
                        .with_workers(workers)
                        .execute_lowered(&gemm, &input, &weights)
                        .expect("executor runs");
                    assert_eq!(exec, serial, "{case} workers {workers}");
                    assert_eq!(
                        exec_stats.saturation_events, serial_stats.saturation_events,
                        "{case} workers {workers}"
                    );
                    assert_eq!(exec_stats.mac_windows, gemm.macs(), "{case}");
                    assert_eq!(
                        exec_stats.compute_cycles,
                        exec_stats.mac_windows * cfg.mac_cycles(),
                        "{case}"
                    );
                }
            }
        }
        assert!(
            saturating > 0,
            "{scheme} EBT {ebt}: no narrow OREG saturated"
        );
    }

    #[test]
    fn matches_fast_executor_unary_rate() {
        assert_differential(ComputingScheme::UnaryRate, 8);
    }

    #[test]
    fn matches_fast_executor_unary_rate_early_terminated() {
        assert_differential(ComputingScheme::UnaryRate, 6);
    }

    #[test]
    fn matches_fast_executor_unary_temporal() {
        assert_differential(ComputingScheme::UnaryTemporal, 8);
    }

    #[test]
    fn matches_fast_executor_binary() {
        assert_differential(ComputingScheme::BinaryParallel, 8);
        assert_differential(ComputingScheme::BinarySerial, 8);
    }

    #[test]
    fn matches_fast_executor_ugemm_h() {
        assert_differential(ComputingScheme::UGemmHybrid, 8);
    }

    #[test]
    fn matches_fast_executor_under_narrow_accumulator_folding() {
        // The documented OREG semantics, for every scheme: a register
        // holds one fold's partial sum (drained at its M-end), and the
        // folds meet unclamped in the output buffer. Full-scale operands
        // give every window the same count `w`, so with 2 rows and K = 6
        // a fold sums to 2w and the output to 6w. The narrowest width
        // that holds 2w must not saturate although 6w exceeds it; one bit
        // less must saturate.
        let gemm = GemmConfig::matmul(2, 6, 3).expect("valid test shape");
        let input = Matrix::from_fn(2, 6, |_, _| 128);
        let weights = Matrix::from_fn(6, 3, |_, _| 128);
        for (scheme, window) in [
            (ComputingScheme::BinaryParallel, 128 * 128),
            (ComputingScheme::BinarySerial, 128 * 128),
            (ComputingScheme::UGemmHybrid, 256),
            (ComputingScheme::UnaryRate, 128),
            (ComputingScheme::UnaryTemporal, 128),
        ] {
            let capacity = |w: u32| (1i64 << (w - 1)) - 1;
            let fits = (4..=32)
                .find(|&w| capacity(w) >= 2 * window)
                .expect("some width holds one fold");
            for (acc_width, saturates) in [(fits, false), (fits - 1, true)] {
                let cfg = SystolicConfig::new(2, 2, scheme, 8)
                    .expect("valid")
                    .with_acc_width(acc_width);
                let (exec, exec_stats) = GemmExecutor::new(cfg)
                    .execute_lowered(&gemm, &input, &weights)
                    .expect("executor runs");
                let (serial, serial_stats) =
                    cycle_accurate_gemm_with(&cfg, &gemm, &input, &weights, KernelMode::Serial, 1)
                        .expect("serial path executes");
                assert_eq!(exec, serial, "{scheme} acc {acc_width}");
                assert_eq!(exec_stats.saturation_events, serial_stats.saturation_events);
                assert_eq!(serial_stats.saturation_events > 0, saturates, "{scheme}");
                if !saturates {
                    assert!(exec.as_slice().iter().all(|&v| v == 6 * window));
                    assert!(6 * window > capacity(acc_width), "{scheme}");
                }
            }
        }
    }

    #[test]
    fn cycle_count_matches_timing_model() {
        // The measured cycles must agree with the analytic per-tile
        // formula `R' + M·mac + R' + C' − 2` within one cycle per tile.
        let (gemm, li, lw) = lowered_case(12);
        for scheme in [ComputingScheme::BinaryParallel, ComputingScheme::UnaryRate] {
            let cfg = SystolicConfig::new(4, 3, scheme, 8)
                .expect("valid")
                .with_acc_width(32);
            let (_, stats) =
                cycle_accurate_gemm(&cfg, &gemm, &li, &lw).expect("cycle path executes");
            let map = TileMapping::new(&gemm, 4, 3);
            let mut ideal = 0i64;
            for rf in 0..map.row_folds() {
                for cf in 0..map.col_folds() {
                    let r = map.rows_in_fold(rf) as i64;
                    let c = map.cols_in_fold(cf) as i64;
                    ideal += r + map.m() as i64 * cfg.mac_cycles() as i64 + r + c - 2;
                }
            }
            let diff = (stats.cycles as i64 - ideal).unsigned_abs();
            assert!(
                diff <= map.tiles() as u64,
                "{scheme}: measured {} vs ideal {ideal}",
                stats.cycles
            );
        }
    }

    #[test]
    fn busy_cycles_match_mac_work() {
        let (gemm, li, lw) = lowered_case(13);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .expect("valid")
            .with_acc_width(32);
        let (_, stats) = cycle_accurate_gemm(&cfg, &gemm, &li, &lw).expect("cycle path executes");
        // Every (vector, weight) pair occupies one PE for mac_cycles.
        let expect = gemm.macs() * cfg.mac_cycles();
        assert_eq!(stats.busy_pe_cycles, expect);
    }

    #[test]
    fn packed_kernel_and_workers_are_bit_exact() {
        // The closed form and the parallel tile sweep must reproduce the
        // bit-serial single-thread machine exactly, over the unary schemes
        // and the full EBT sweep.
        let (gemm, li, lw) = lowered_case(21);
        for (scheme, ebts) in [
            (ComputingScheme::UnaryRate, &[8u32, 7, 6, 5, 4][..]),
            (ComputingScheme::UnaryTemporal, &[8u32][..]),
            (ComputingScheme::UGemmHybrid, &[8u32][..]),
        ] {
            for &ebt in ebts {
                let cfg = SystolicConfig::new(4, 3, scheme, 8)
                    .expect("valid")
                    .with_effective_bitwidth(ebt)
                    .expect("valid EBT")
                    .with_acc_width(32);
                let (serial, serial_stats) =
                    cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                        .expect("serial path executes");
                for workers in [1usize, 2, 4, 8] {
                    let (fast, fast_stats) =
                        cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, workers)
                            .expect("closed form executes");
                    assert_eq!(serial, fast, "{scheme} EBT {ebt} workers {workers}");
                    assert_eq!(
                        serial_stats, fast_stats,
                        "{scheme} EBT {ebt} workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_stats_match_serial_stats() {
        // The closed form emits its statistics from the closed-form
        // schedule; they must equal the stepped machine's measurements,
        // saturation events included (narrow accumulator forces clamping).
        let (gemm, li, lw) = lowered_case(22);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .expect("valid")
            .with_acc_width(4);
        let (serial, serial_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                .expect("serial path executes");
        let (fast, fast_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, 1)
                .expect("closed form executes");
        assert!(serial_stats.saturation_events > 0, "case must saturate");
        assert_eq!(serial, fast);
        assert_eq!(serial_stats, fast_stats);
    }

    #[test]
    fn unpackable_schemes_fall_back_to_serial() {
        // A uGEMM-H OREG too narrow for the lump add is the one
        // configuration the closed form does not cover: Auto runs the bit-serial
        // reference there, with identical results and stats. (The
        // fallback is counted and warned about, not silent; see
        // `crate::kernel::tests::fallbacks_are_counted_not_silent`.)
        let (gemm, li, lw) = lowered_case(23);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UGemmHybrid, 8)
            .expect("valid")
            .with_acc_width(9); // < bitwidth + 2
        assert_eq!(KernelMode::Auto.resolve(&cfg), KernelPath::Serial);
        let (serial, serial_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                .expect("serial path executes");
        let (auto, auto_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, 4)
                .expect("fallback path executes");
        assert_eq!(serial, auto);
        assert_eq!(serial_stats, auto_stats);
    }

    #[test]
    fn temporal_closed_form_matches_serial_across_bitwidths() {
        // The closed form must reproduce the stepped machine at every
        // bitwidth from 2 to 12: for temporal coding, for rate coding at
        // every EBT (plus one 14-bit case, a 128-word stream) and for
        // uGEMM-H (up to a 4,096-cycle window at 12 bits). The operands
        // include |I| and |W| = 0, 1 and the inclusive maximum 2^(N-1),
        // K = 8 folds over 4 rows, and every configuration runs at its
        // default and at a narrow OREG (the narrowest uGEMM-H width the
        // closed form accepts) and at 1/2/4/8 workers. uGEMM-H also runs
        // one bit narrower, where Auto demotes to the stepped machine.
        let (gemm, li, lw) = lowered_case(24);
        let mut cases = vec![(ComputingScheme::UnaryRate, 14u32, 14u32)];
        for bitwidth in 2..=12u32 {
            cases.extend((1..=bitwidth).map(|ebt| (ComputingScheme::UnaryRate, bitwidth, ebt)));
            cases.push((ComputingScheme::UnaryTemporal, bitwidth, bitwidth));
            if bitwidth <= 10 || bitwidth == 12 {
                cases.push((ComputingScheme::UGemmHybrid, bitwidth, bitwidth));
            }
        }
        let mut saturating = 0;
        for (scheme, bitwidth, ebt) in cases {
            let half = 1i64 << (bitwidth - 1);
            let clamp = |m: &Matrix<i64>| {
                let mut c = m.clone();
                for v in c.as_mut_slice() {
                    *v = (*v).clamp(-half, half);
                }
                c
            };
            let (mut li, mut lw) = (clamp(&li), clamp(&lw));
            for (k, level) in [0, 1, half, -half, -1].into_iter().enumerate() {
                li[(0, k)] = level;
                lw[(k, 1)] = level;
            }
            let base = SystolicConfig::new(4, 3, scheme, bitwidth)
                .expect("valid")
                .with_effective_bitwidth(ebt)
                .expect("valid EBT");
            let hybrid = scheme == ComputingScheme::UGemmHybrid;
            let mut configs = vec![
                base,
                base.with_acc_width(if hybrid { bitwidth + 2 } else { 4 }),
            ];
            if hybrid {
                configs.push(base.with_acc_width(bitwidth + 1));
            }
            for cfg in configs {
                let case = format!("{scheme} N {bitwidth} EBT {ebt} acc {}", cfg.acc_width());
                let demoted = hybrid && cfg.acc_width() < bitwidth + 2;
                assert_eq!(
                    KernelMode::Auto.resolve(&cfg),
                    if demoted {
                        KernelPath::Serial
                    } else {
                        KernelPath::ClosedForm
                    },
                    "{case}"
                );
                let (serial, serial_stats) =
                    cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                        .expect("serial path executes");
                saturating += u32::from(serial_stats.saturation_events > 0);
                for workers in [1usize, 2, 4, 8] {
                    let (fast, fast_stats) =
                        cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, workers)
                            .expect("fast path executes");
                    assert_eq!(serial, fast, "{case} workers {workers}");
                    assert_eq!(serial_stats, fast_stats, "{case} workers {workers}");
                }
            }
        }
        assert!(saturating > 0, "no narrow OREG saturated");
    }

    #[test]
    fn hybrid_packed_matches_serial_stats_under_saturation() {
        // At the narrowest OREG the uGEMM-H closed form still accepts
        // (acc_width = bitwidth + 2), the M-end cascade genuinely clamps —
        // the closed form must reproduce results AND saturation counts.
        let (gemm, li, lw) = lowered_case(25);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UGemmHybrid, 8)
            .expect("valid")
            .with_acc_width(10);
        assert_eq!(KernelMode::Auto.resolve(&cfg), KernelPath::ClosedForm);
        let (serial, serial_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                .expect("serial path executes");
        assert!(
            serial_stats.saturation_events > 0,
            "case must saturate to be a meaningful pin"
        );
        for workers in [1usize, 2, 4, 8] {
            let (fast, fast_stats) =
                cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, workers)
                    .expect("closed form executes");
            assert_eq!(serial, fast, "workers {workers}");
            assert_eq!(serial_stats, fast_stats, "workers {workers}");
        }
    }

    #[test]
    fn telemetry_follows_the_unit_of_work() {
        // K = 9 over 4 rows and N = 5 over 3 columns: 3 row folds × 2
        // column folds. The closed form records one span and one
        // `core.fold_us` sample per row fold, the stepped machine one of
        // each per tile, and both count every tile in `core.tiles`.
        let gemm = GemmConfig::matmul(2, 9, 5).expect("valid test shape");
        let input = Matrix::from_fn(2, 9, |p, k| (p * 9 + k) as i64 - 8);
        let weights = Matrix::from_fn(9, 5, |k, n| (k * 5 + n) as i64 - 20);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).expect("valid");
        for (mode, kernel, metric, spans) in [
            (
                KernelMode::Auto,
                "cycle_gemm.closed_form",
                "core.fold_us",
                3,
            ),
            (KernelMode::Serial, "cycle_gemm.serial", "core.tile_us", 6),
        ] {
            let previous = usystolic_obs::install(usystolic_obs::Session::new());
            cycle_accurate_gemm_with(&cfg, &gemm, &input, &weights, mode, 1)
                .expect("sweep executes");
            let session = usystolic_obs::take().expect("session installed above");
            if let Some(prev) = previous {
                usystolic_obs::install(prev);
            }
            let m = &session.metrics;
            assert_eq!(m.counter_labeled("core.tiles", &[("kernel", kernel)]), 6);
            let samples = |name| m.histogram(name).map_or(0, |h| h.count());
            assert_eq!(samples(metric), spans, "{mode}");
            assert_eq!(samples("core.fold_us") + samples("core.tile_us"), spans);
            let names: Vec<String> = session
                .tracer
                .events()
                .filter(|e| e.name.starts_with(kernel))
                .map(|e| e.name.clone())
                .collect();
            assert_eq!(names.len(), spans as usize, "{mode}: {names:?}");
            if mode == KernelMode::Auto {
                assert_eq!(names[0], "cycle_gemm.closed_form tiles r0");
            } else {
                assert_eq!(names[0], "cycle_gemm.serial tile c0r0");
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let (gemm, li, _) = lowered_case(14);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).expect("valid");
        let bad = Matrix::<i64>::zeros(2, 2);
        assert!(cycle_accurate_gemm(&cfg, &gemm, &li, &bad).is_err());
    }

    #[test]
    fn unsupported_accumulator_widths_are_config_errors() {
        // An OREG the accumulator cannot build is an error up front, for
        // every path and the executor, never a panic mid-sweep.
        let (gemm, li, lw) = lowered_case(15);
        for scheme in [ComputingScheme::UnaryRate, ComputingScheme::UGemmHybrid] {
            for acc_width in [0u32, 1, 64, 200] {
                let cfg = SystolicConfig::new(4, 3, scheme, 8)
                    .expect("valid")
                    .with_acc_width(acc_width);
                for mode in [KernelMode::Auto, KernelMode::Serial] {
                    let r = cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, mode, 1);
                    assert!(
                        matches!(&r, Err(CoreError::Config(m)) if m.contains("accumulator width")),
                        "{scheme} acc {acc_width} {mode}: {r:?}"
                    );
                }
                let r = GemmExecutor::new(cfg).execute_lowered(&gemm, &li, &lw);
                assert!(
                    matches!(r, Err(CoreError::Config(_))),
                    "{scheme} acc {acc_width}"
                );
            }
        }
    }
}
