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
//! one shot and then sums the M-end cascade: plainly where the fold
//! provably cannot clamp, through the same registers otherwise.
//! One `kernel::ClosedFormWindow`, built once per GEMM with no per-tile
//! state, serves all five schemes. It reuses work the way Fig. 7 reuses
//! bitstreams: each input element's half of its windows (the weight RNG's
//! Sobol prefix over the IFM enable count for rate and temporal coding,
//! both phase prefixes for uGEMM-H, the level itself for binary schemes)
//! depends only on the element's level, so the window builds it once per
//! level and GEMM where the inputs repeat levels (and per element
//! otherwise), and shares it with all `N` PEs of its weight row, across
//! every column fold. Each fold converts its weights to lane thresholds
//! once. Column folds share no partial sums and every number source
//! restarts per window, so sweeping the full contiguous weight row
//! (`weights.row(k)[..N]`) computes exactly what the fold's tiles compute
//! one by one, and its [`CycleStats`] are the per-tile closed-form
//! schedule summed over the fold's tiles. Each row counts its weights
//! eight at a time, class by class
//! ([`usystolic_unary::packed::PrefixClasses::count_lanes`]), into `i32`
//! lane groups. The cascade runs vector by vector, each vector's rows
//! bottom-up and each row's columns left to right, keeping one partial
//! sum per column.
//!
//! All five schemes share one OREG semantics, the stepped machine's
//! (the reduced-resolution OREG of Section III-A):
//!
//! * each PE owns a saturating `acc_width`-bit OREG, drained at every
//!   M-end, so one register sees at most `min(R, K)` windows;
//! * partial sums of different row folds meet unclamped in the output
//!   buffer.
//!
//! Section III-A sizes the OREG to hold any one fold's partial sum, and
//! the sweep proves that per row fold before the fold's windows run
//! (`fold_is_exact`): `rows · bound ≤ 2^(acc_width−1) − 1`, with `bound`
//! the most one window moves an OREG (`ClosedFormWindow::bound`; the
//! argument is in [`crate::kernel`]). A proven fold cannot clamp, in the
//! stepped machine or here, so its cascade is a plain sum with no
//! saturation event: a unary fold sums each vector's windows over its
//! rows in `i32` lanes and widens them into the fold's partial sums once
//! (flushing every `⌊(2^31 − 1) / bound⌋` rows, which no edge fold
//! reaches), and a binary fold adds each product into them. At every
//! default width (binary: `2N + ⌈log2 R⌉ + 2`
//! bits, unary: `N + ⌈log2 R⌉ + 2`) every fold is proven. On narrower
//! OREGs the folds it cannot prove replay the clamping cascade, and the
//! caller counts them in `core.cycle.saturable_folds`.
//! `tests::matches_fast_executor_*` pin the closed form and
//! `execute_lowered` against the stepped machine for every scheme,
//! `acc_width` 4..=32, `K > R`, `N` ragged in its last lane group and
//! wider than 64 columns, proven and saturable folds in one GEMM, and
//! 1/2/4/8 workers, `tests::proven_folds_flush_their_lanes_before_an_i32_overflows`
//! pins the lane flush at 24 bits, and
//! `tests::cycle_count_matches_timing_model` cross-validates the
//! measured cycle count against the `usystolic-sim` ideal-cycle formula.

use crate::config::SystolicConfig;
use crate::kernel::{ClosedFormWindow, KernelMode, KernelPath, LaneGroup, UnaryWindow, WindowRow};
use crate::mapping::TileMapping;
use crate::pe::IfmSource;
use crate::scheme::ComputingScheme;
use crate::CoreError;
use std::ops::Range;
use std::time::Instant;
use usystolic_gemm::{GemmConfig, Matrix};
use usystolic_unary::add::{BinaryAccumulator, ACC_WIDTHS};
use usystolic_unary::coding::Coding;
use usystolic_unary::packed::LANES;
use usystolic_unary::rng::{NumberSource, SobolSource};
use usystolic_unary::sign::SignMagnitude;

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
/// Before a closed-form fold runs, the caller proves its OREG bound
/// (`fold_is_exact`): a proven fold sums its M-end cascade plainly, and
/// the others, which only narrow OREGs have, replay the clamping cascade
/// and are counted once per GEMM in `core.cycle.saturable_folds` (only
/// when nonzero).
///
/// Telemetry follows the unit of work: a closed-form fold records one
/// wall-clock span `cycle_gemm.closed_form tiles r{rf}` and its time in
/// `core.fold_ns`; a stepped tile records `cycle_gemm.serial tile
/// c{cf}r{rf}` and `core.tile_ns`. Only the calling thread records: when
/// it holds a session, each task times its units and hands the timings
/// back beside its block, and the caller records them in row-fold order,
/// so the telemetry is the same at any worker count. Each span takes the
/// lowest lane (`tid` 1, 2, …) free at its start: one worker keeps every
/// span on lane 1, and spans that ran at the same time never share one.
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
    // Pool workers carry no session. Untraced, a task reads no clock and
    // returns an empty `Vec` of unit timings.
    let mut origin = None;
    usystolic_obs::with(|o| origin = Some((o.tracer.now_us(), Instant::now())));
    let traced = origin.is_some();

    // A window depends on the GEMM, not the tile: it is built once here
    // (with its level table, where the inputs repeat levels), inside the
    // sweep's span, and shared by every row fold.
    let closed = (path == KernelPath::ClosedForm)
        .then(|| ClosedFormWindow::new(scheme, config.bitwidth(), config.mul_cycles(), m * k));
    // The OREG bound, proved once per row fold before its windows run: a
    // fold it covers cannot clamp, so it skips the clamping M-end.
    let bound = closed.as_ref().map(|window| window.bound(input, weights));
    let exact = |rows| bound.is_some_and(|bound| fold_is_exact(rows, bound, config.acc_width()));
    let saturable_folds = (0..map.row_folds())
        .filter(|&rf| bound.is_some() && !exact(map.rows_in_fold(rf)))
        .count();

    // One task per row fold, each returning its own `M × N` block of
    // partial sums. A unit is `(row fold, column fold of a stepped tile,
    // wall-clock time)`.
    let partials = usystolic_pool::run_indexed(workers, map.row_folds(), |rf| {
        let mut block = Matrix::<i64>::zeros(m, n);
        let mut fold_stats = CycleStats::default();
        let mut units = Vec::new();
        let (k0, rows) = (rf * config.rows(), map.rows_in_fold(rf));
        match &closed {
            Some(window) => {
                let t0 = traced.then(Instant::now);
                fold_stats.saturation_events = sweep_fold(
                    window,
                    (!exact(rows)).then_some(config.acc_width()),
                    input,
                    weights,
                    k0,
                    rows,
                    &mut block,
                );
                for cf in 0..map.col_folds() {
                    fold_stats.absorb(tile_schedule(config, rows, map.cols_in_fold(cf), m));
                }
                units.extend(t0.map(|t0| (rf, None, t0..Instant::now())));
            }
            None => {
                for cf in 0..map.col_folds() {
                    let t0 = traced.then(Instant::now);
                    TileMachine::new(config, input, weights, &map, rf, cf)
                        .run(&mut block, &mut fold_stats);
                    units.extend(t0.map(|t0| (rf, Some(cf), t0..Instant::now())));
                }
            }
        }
        (block, fold_stats, units)
    })
    .map_err(|e| CoreError::Config(format!("tile sweep worker pool failed: {e}")))?;

    // Deterministic sequential fold in row-fold order: parallelism changes
    // wall-clock time, never one output bit.
    let mut partials = partials.into_iter();
    let (mut out, mut stats, mut units) = partials
        .next()
        .unwrap_or_else(|| (Matrix::zeros(m, n), CycleStats::default(), Vec::new()));
    for (block, fold_stats, fold_units) in partials {
        for (total, partial) in out.as_mut_slice().iter_mut().zip(block.as_slice()) {
            *total += partial;
        }
        stats.absorb(fold_stats);
        units.extend(fold_units);
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
        // Set whenever a session is, which never changes mid-sweep.
        let Some((sweep_t0, origin)) = origin else {
            return;
        };
        let t1 = o.tracer.now_us();
        // The end of each lane's last span: a unit takes the lowest lane
        // that is free at its start.
        let mut lanes: Vec<Instant> = Vec::new();
        for (rf, cf, time) in units {
            let lane = match lanes.iter().position(|&end| end <= time.start) {
                Some(lane) => {
                    lanes[lane] = time.end;
                    lane
                }
                None => {
                    lanes.push(time.end);
                    lanes.len() - 1
                }
            };
            let arg = |key: &str, value: usize| (key.to_owned(), (value as u64).to_json());
            let rows = map.rows_in_fold(rf);
            let (name, metric, args) = match cf {
                None => (
                    format!("cycle_gemm.closed_form tiles r{rf}"),
                    "core.fold_ns",
                    vec![
                        arg("row_fold", rf),
                        arg("rows", rows),
                        arg("tiles", map.col_folds()),
                    ],
                ),
                Some(cf) => (
                    format!("cycle_gemm.serial tile c{cf}r{rf}"),
                    "core.tile_ns",
                    vec![
                        arg("col_fold", cf),
                        arg("row_fold", rf),
                        arg("rows", rows),
                        arg("cols", map.cols_in_fold(cf)),
                    ],
                ),
            };
            let dur = time.end - time.start;
            o.metrics.observe(metric, dur.as_nanos() as u64);
            o.tracer.complete(
                name,
                "core",
                usystolic_obs::PID_WALL,
                u32::try_from(lane + 1).unwrap_or(u32::MAX),
                sweep_t0 + (time.start - origin).as_secs_f64() * 1.0e6,
                dur.as_secs_f64() * 1.0e6,
                args,
            );
        }
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
        if saturable_folds > 0 {
            o.metrics
                .count("core.cycle.saturable_folds", saturable_folds as u64);
        }
        o.tracer.complete(
            format!("cycle_gemm sweep {mode}"),
            "core",
            usystolic_obs::PID_WALL,
            0,
            sweep_t0,
            t1 - sweep_t0,
            vec![
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
            ],
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

/// Whether an `acc_width`-bit OREG provably holds a row fold of `rows`
/// windows, each moving it by at most `bound`
/// ([`ClosedFormWindow::bound`]): `rows · bound` within the positive
/// capacity `2^(acc_width−1) − 1`, the smaller side of the register's
/// range. Nothing such a fold adds can clamp (see [`crate::kernel`]).
fn fold_is_exact(rows: usize, bound: u128, acc_width: u32) -> bool {
    let capacity = (1u128 << (acc_width - 1)) - 1;
    (rows as u128)
        .checked_mul(bound)
        .is_some_and(|sum| sum <= capacity)
}

/// Closed-form evaluation of one row fold (reduction rows `k0..k0 +
/// rows`) across every column fold at once, into the fold's zeroed `M ×
/// N` `block`; returns the OREG saturation events.
///
/// Column folds share no partial sums and every number source restarts
/// per window, so one pass over each full weight row
/// (`weights.row(k)[..N]`) computes exactly what the fold's tiles compute
/// one by one. Both operand halves of a unary window are ready before the
/// vectors: each input element's row ([`UnaryWindow::row`], a lookup in
/// the window's level table or built for all `N` columns at once) and the
/// fold's weights as lane groups ([`UnaryWindow::lanes`], converted once
/// per fold).
///
/// A fold the OREG bound covers ([`fold_is_exact`], `clamp` is `None`)
/// cannot clamp, so its M-end cascade is a plain sum: a unary fold sums
/// each vector's windows over its rows in `i32` lanes
/// ([`WindowRow::accumulate`]) and widens them into the vector's row of
/// `block` once, a binary fold adds each product into that row, and the
/// fold saturates nowhere. Any other fold (`clamp` is `Some(acc_width)`)
/// replays the cascade through the `acc_width`-bit OREGs, per vector
/// bottom-up: row `r+1`'s M-end lands one cycle before row `r`'s, so its
/// drained partial sum (`below[c]`, one per column) is what row `r` folds
/// in. `below` is the vector's own row of `block`: it starts zeroed, as
/// the bottom row folds in nothing, and ends holding the top row's totals.
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
    clamp: Option<u32>,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
    k0: usize,
    rows: usize,
    block: &mut Matrix<i64>,
) -> u64 {
    // One monomorphised sweep per window kind keeps every row's count
    // free of the other kinds' arms.
    let fold = (input, weights, k0..k0 + rows);
    match (window, clamp) {
        (ClosedFormWindow::Binary, None) => sweep_rows(fold, block, |level, _, weights, below| {
            for (partial, &weight) in below.iter_mut().zip(weights) {
                *partial += level * weight;
            }
            0
        }),
        // The exact product, fused into the M-end: a buffered pass of
        // products is slower.
        (ClosedFormWindow::Binary, Some(acc_width)) => {
            sweep_rows(fold, block, |level, _, weights, below| {
                let mut oreg = BinaryAccumulator::new(acc_width);
                let mut saturations = 0;
                for (partial, &weight) in below.iter_mut().zip(weights) {
                    if m_end(&mut oreg, level * weight, partial) {
                        saturations += 1;
                    }
                }
                saturations
            })
        }
        (ClosedFormWindow::SignMagnitude(w), clamp) => sweep_unary(w, clamp, fold, block),
        (ClosedFormWindow::Bipolar(w), clamp) => sweep_unary(w, clamp, fold, block),
    }
}

/// [`sweep_fold`] of a unary window: converts the fold's weights to lane
/// groups once, into a buffer of the fold (`groups` per weight row), and
/// runs each input element's row against them, once per vector and row.
/// One vector's window counts live in `sums`, a lane group per eight
/// columns.
///
/// A proven fold sums each vector's windows over its rows in the `i32`
/// lanes and widens them into the vector's row of `block` once. A window
/// moves a lane by at most [`UnaryWindow::bound`], so the lanes flush into
/// `block` every `⌊(2^31 − 1) / bound⌋` rows: never within an 8- or
/// 12-bit edge fold, every 255 rows at 24-bit rate coding. The clamping
/// cascade zeroes the lanes per row and drains them through [`m_end`],
/// row by row bottom-up.
fn sweep_unary(
    window: &impl UnaryWindow,
    clamp: Option<u32>,
    fold: (&Matrix<i64>, &Matrix<i64>, Range<usize>),
    block: &mut Matrix<i64>,
) -> u64 {
    let (input, weights, ks) = &fold;
    let groups = weights.cols().div_ceil(LANES);
    let mut lanes = vec![LaneGroup::default(); ks.len() * groups];
    for (k, row_lanes) in ks.clone().zip(lanes.chunks_exact_mut(groups)) {
        window.lanes(weights.row(k), row_lanes);
    }
    let mut sums = vec![[0i32; LANES]; groups];
    let Some(acc_width) = clamp else {
        // Rows whose windows an `i32` lane holds: at least 127, as a
        // window moves it by at most 2^MAX_BITWIDTH.
        let flush = (i32::MAX as u64 / window.bound()) as usize;
        for (p, out) in block
            .as_mut_slice()
            .chunks_exact_mut(weights.cols())
            .enumerate()
        {
            let levels = &input.row(p)[ks.clone()];
            for (levels, lanes) in levels.chunks(flush).zip(lanes.chunks(flush * groups)) {
                sums.fill([0; LANES]);
                for (&level, row_lanes) in levels.iter().zip(lanes.chunks_exact(groups)) {
                    window.row(level).accumulate(row_lanes, &mut sums);
                }
                for (total, &sum) in out.iter_mut().zip(sums.as_flattened()) {
                    *total += i64::from(sum);
                }
            }
        }
        return 0;
    };
    sweep_rows(fold, block, |level, r, _, below| {
        sums.fill([0; LANES]);
        window
            .row(level)
            .accumulate(&lanes[r * groups..][..groups], &mut sums);
        // A local OREG: every M-end drains it, so no state outlives the row.
        let mut oreg = BinaryAccumulator::new(acc_width);
        let mut saturations = 0;
        for (partial, &count) in below.iter_mut().zip(sums.as_flattened()) {
            saturations += u64::from(m_end(&mut oreg, i64::from(count), partial));
        }
        saturations
    })
}

/// The vector and row loops of [`sweep_fold`] over reduction rows `ks`:
/// `step(level, r, weight_row, below)` runs the M-end of one input
/// element's row (the fold's `r`-th) against its whole weight row and
/// returns the saturation events.
fn sweep_rows(
    (input, weights, ks): (&Matrix<i64>, &Matrix<i64>, Range<usize>),
    block: &mut Matrix<i64>,
    mut step: impl FnMut(i64, usize, &[i64], &mut [i64]) -> u64,
) -> u64 {
    let mut saturations = 0;
    for (p, below) in block
        .as_mut_slice()
        .chunks_exact_mut(weights.cols())
        .enumerate()
    {
        for (r, (k, &level)) in ks.clone().zip(&input.row(p)[ks.clone()]).enumerate().rev() {
            saturations += step(level, r, weights.row(k), below);
        }
    }
    saturations
}

/// One PE's clamping M-end: its window `count` and the lower neighbour's
/// `partial` sum fold into the OREG, which drains into `partial`.
/// Returns whether the OREG saturated.
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
    /// `K > R` (`K mod R ≠ 0`) and `N > C` (`N mod C ≠ 0`), every `N`
    /// ragged in its last lane group and one wider than 64 columns
    /// (`N = 70`, ragged in the last column fold too), and 1/2/4/8
    /// workers.
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

    /// Runs `Auto` at 1/2/4/8 workers against the stepped machine, each
    /// under its own obs session: outputs and statistics must match, and
    /// every `Auto` run must count `saturable` closed-form row folds in
    /// `core.cycle.saturable_folds` (the stepped machine counts none).
    /// Returns the stepped machine's outputs and statistics.
    fn assert_auto_matches_serial(
        cfg: &SystolicConfig,
        gemm: &GemmConfig,
        input: &Matrix<i64>,
        weights: &Matrix<i64>,
        saturable: u64,
        case: &str,
    ) -> (Matrix<i64>, CycleStats) {
        let run = |mode, workers| {
            let previous = usystolic_obs::install(usystolic_obs::Session::new());
            let result = cycle_accurate_gemm_with(cfg, gemm, input, weights, mode, workers)
                .expect("sweep executes");
            let session = usystolic_obs::take().expect("session installed above");
            if let Some(prev) = previous {
                usystolic_obs::install(prev);
            }
            (
                result,
                session.metrics.counter("core.cycle.saturable_folds"),
            )
        };
        let (serial, serial_saturable) = run(KernelMode::Serial, 1);
        assert_eq!(serial_saturable, 0, "{case} serial");
        for workers in [1usize, 2, 4, 8] {
            let (auto, auto_saturable) = run(KernelMode::Auto, workers);
            assert_eq!(auto, serial, "{case} workers {workers}");
            assert_eq!(auto_saturable, saturable, "{case} workers {workers}");
        }
        serial
    }

    #[test]
    fn matches_fast_executor_under_narrow_accumulator_folding() {
        // The documented OREG semantics, for every scheme: a register
        // holds one fold's partial sum (drained at its M-end), and the
        // folds meet unclamped in the output buffer. Full-scale operands
        // give every window the same count `w`, so with 2 rows and K = 6
        // a fold sums to 2w and the output to 6w. The narrowest width
        // that holds 2w must not saturate although 6w exceeds it, and the
        // sweep proves its 3 folds clamp-free; one bit less must saturate,
        // and no fold is proven.
        //
        // Negative full-scale operands sum to −2w, which the one-bit
        // narrower OREG still holds (its range reaches −2^(acc_width−1)):
        // nothing saturates, yet the proof must use the positive capacity,
        // so all 3 folds run the clamping M-end.
        //
        // A ragged fold: K = 7 over 3 rows folds as 3 + 3 + 1 rows. At the
        // narrowest width that holds one window but not three, the two
        // 3-row folds saturate (each ends at the capacity) and the 1-row
        // fold is proven, in one GEMM.
        let capacity = |w: u32| (1i64 << (w - 1)) - 1;
        let full = |m: usize, k: usize, n: usize, level: i64| {
            let gemm = GemmConfig::matmul(m, k, n).expect("valid test shape");
            let input = Matrix::from_fn(m, k, |_, _| level);
            let weights = Matrix::from_fn(k, n, |_, _| 128);
            (gemm, input, weights)
        };
        for (scheme, window) in [
            (ComputingScheme::BinaryParallel, 128 * 128),
            (ComputingScheme::BinarySerial, 128 * 128),
            (ComputingScheme::UGemmHybrid, 256),
            (ComputingScheme::UnaryRate, 128),
            (ComputingScheme::UnaryTemporal, 128),
        ] {
            let fits = (4..=32)
                .find(|&w| capacity(w) >= 2 * window)
                .expect("some width holds one fold");
            for (acc_width, saturates) in [(fits, false), (fits - 1, true)] {
                let cfg = SystolicConfig::new(2, 2, scheme, 8)
                    .expect("valid")
                    .with_acc_width(acc_width);
                let case = format!("{scheme} acc {acc_width}");
                let saturable = if saturates { 3 } else { 0 };
                let (gemm, input, weights) = full(2, 6, 3, 128);
                let (serial, serial_stats) =
                    assert_auto_matches_serial(&cfg, &gemm, &input, &weights, saturable, &case);
                let (exec, exec_stats) = GemmExecutor::new(cfg)
                    .execute_lowered(&gemm, &input, &weights)
                    .expect("executor runs");
                assert_eq!(exec, serial, "{case}");
                assert_eq!(exec_stats.saturation_events, serial_stats.saturation_events);
                assert_eq!(serial_stats.saturation_events > 0, saturates, "{case}");
                if !saturates {
                    assert!(exec.as_slice().iter().all(|&v| v == 6 * window));
                    assert!(6 * window > capacity(acc_width), "{case}");
                }

                let case = format!("{case} negative");
                let (gemm, input, weights) = full(2, 6, 3, -128);
                let (serial, serial_stats) =
                    assert_auto_matches_serial(&cfg, &gemm, &input, &weights, saturable, &case);
                assert_eq!(serial_stats.saturation_events, 0, "{case}");
                assert!(
                    serial.as_slice().iter().all(|&v| v == -6 * window),
                    "{case}"
                );
            }

            let one = (4..=32)
                .find(|&w| capacity(w) >= window)
                .expect("some width holds one window");
            assert!(capacity(one) < 3 * window, "{scheme}");
            let cfg = SystolicConfig::new(3, 2, scheme, 8)
                .expect("valid")
                .with_acc_width(one);
            let case = format!("{scheme} acc {one} ragged");
            let (gemm, input, weights) = full(2, 7, 3, 128);
            let (serial, serial_stats) =
                assert_auto_matches_serial(&cfg, &gemm, &input, &weights, 2, &case);
            assert!(serial_stats.saturation_events > 0, "{case}");
            let total = 2 * capacity(one) + window;
            assert!(serial.as_slice().iter().all(|&v| v == total), "{case}");
        }
    }

    #[test]
    fn proven_folds_flush_their_lanes_before_an_i32_overflows() {
        // A proven unary fold sums each vector's windows in `i32` lanes and
        // flushes them into its block every ⌊(2^31 − 1) / bound⌋ rows.
        // Full-scale operands move every window by exactly its bound, so
        // one 256-row fold of 24-bit rate or temporal windows (bound 2^23,
        // a flush every 255 rows) and one 128-row fold of 24-bit uGEMM-H
        // windows (bound 2^24, every 127 rows) each sum to exactly 2^31,
        // one past `i32::MAX`. N = 11 leaves a ragged lane group.
        let top = 1i64 << 23;
        for (scheme, rows) in [
            (ComputingScheme::UnaryRate, 256usize),
            (ComputingScheme::UnaryTemporal, 256),
            (ComputingScheme::UGemmHybrid, 128),
        ] {
            let gemm = GemmConfig::matmul(2, rows, 11).expect("valid test shape");
            let input = Matrix::from_fn(2, rows, |_, _| top);
            let weights = Matrix::from_fn(rows, 11, |_, _| top);
            let cfg = SystolicConfig::new(rows, 4, scheme, 24).expect("valid test configuration");
            let window = ClosedFormWindow::new(scheme, 24, cfg.mul_cycles(), 2 * rows);
            let bound = window.bound(&input, &weights);
            assert_eq!(rows as u128 * bound, 1 << 31, "{scheme}");
            assert!(fold_is_exact(rows, bound, cfg.acc_width()), "{scheme}");
            for workers in [1usize, 2, 4, 8] {
                let (out, stats) = cycle_accurate_gemm_with(
                    &cfg,
                    &gemm,
                    &input,
                    &weights,
                    KernelMode::Auto,
                    workers,
                )
                .expect("closed form executes");
                assert!(
                    out.as_slice().iter().all(|&v| v == 1 << 31),
                    "{scheme} workers {workers}: {:?}",
                    &out.as_slice()[..3]
                );
                assert_eq!(stats.saturation_events, 0, "{scheme} workers {workers}");
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
        // `core.fold_ns` sample per row fold, the stepped machine one of
        // each per tile, and the calling thread records them all, in
        // row-fold order, at every worker count.
        let gemm = GemmConfig::matmul(2, 9, 5).expect("valid test shape");
        let input = Matrix::from_fn(2, 9, |p, k| (p * 9 + k) as i64 - 8);
        let weights = Matrix::from_fn(9, 5, |k, n| (k * 5 + n) as i64 - 20);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).expect("valid");
        for (mode, kernel, kernel_label, metric, spans) in [
            (
                KernelMode::Auto,
                "cycle_gemm.closed_form",
                "closed-form",
                "core.fold_ns",
                vec!["tiles r0", "tiles r1", "tiles r2"],
            ),
            (
                KernelMode::Serial,
                "cycle_gemm.serial",
                "serial",
                "core.tile_ns",
                vec![
                    "tile c0r0",
                    "tile c1r0",
                    "tile c0r1",
                    "tile c1r1",
                    "tile c0r2",
                    "tile c1r2",
                ],
            ),
        ] {
            let mut one_worker = None;
            for workers in [1usize, 2, 4, 8] {
                let case = format!("{mode} workers {workers}");
                let previous = usystolic_obs::install(usystolic_obs::Session::new());
                cycle_accurate_gemm_with(&cfg, &gemm, &input, &weights, mode, workers)
                    .expect("sweep executes");
                let session = usystolic_obs::take().expect("session installed above");
                if let Some(prev) = previous {
                    usystolic_obs::install(prev);
                }
                let m = &session.metrics;
                assert_eq!(
                    m.counter_labeled("core.cycle.tiles", &[("kernel", kernel_label)]),
                    6,
                    "{case}"
                );
                let samples = |name| m.histogram(name).map_or(0, |h| h.count());
                assert_eq!(samples(metric), spans.len() as u64, "{case}");
                assert_eq!(
                    samples("core.fold_ns") + samples("core.tile_ns"),
                    spans.len() as u64,
                    "{case}"
                );
                // Counters and histogram keys and sample counts match one
                // worker's; only the wall-clock values may differ.
                let shape = (
                    m.counters()
                        .map(|(k, v)| (k.canonical(), v))
                        .collect::<Vec<_>>(),
                    m.histograms()
                        .map(|(k, h)| (k.canonical(), h.count()))
                        .collect::<Vec<_>>(),
                );
                let baseline = one_worker.get_or_insert_with(|| shape.clone());
                assert_eq!(&shape, baseline, "{case}");

                let units: Vec<_> = session
                    .tracer
                    .events()
                    .filter(|e| e.name.starts_with(kernel))
                    .collect();
                let names: Vec<&str> = units
                    .iter()
                    .map(|e| e.name[kernel.len() + 1..].as_ref())
                    .collect();
                assert_eq!(names, spans, "{case}");
                for (i, a) in units.iter().enumerate() {
                    assert!(a.tid >= 1, "{case}: {} on the sweep lane", a.name);
                    if workers == 1 {
                        assert_eq!(a.tid, 1, "{case}: {}", a.name);
                    }
                    for b in units[i + 1..].iter().filter(|b| b.tid == a.tid) {
                        // 1 ns of slack for the float timestamps.
                        let apart = b.ts + 1.0e-3 >= a.ts + a.dur || a.ts + 1.0e-3 >= b.ts + b.dur;
                        assert!(
                            apart,
                            "{case}: {} and {} overlap on lane {}",
                            a.name, b.name, a.tid
                        );
                    }
                }
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
