//! The tile sweep behind every GEMM of the crate: a fully cycle-accurate
//! `R × C` array machine and the fast tile paths that reproduce it.
//!
//! [`cycle_accurate_gemm_with`] is the only GEMM engine;
//! [`crate::exec::GemmExecutor::execute_lowered`] runs it under
//! [`KernelMode::Auto`]. Each weight tile takes one of two routes.
//!
//! The stepped reference machine ([`KernelMode::Serial`]) advances the
//! whole array cycle by cycle exactly as Fig. 7 describes it:
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
//! The fast paths ([`KernelMode::resolve`]) evaluate each MAC window in
//! one shot and then replay the M-end cascade with the same registers. A
//! binary window is the exact product. A rate- or temporal-coded window
//! is a table lookup by `|I|` plus a van der Corput digit DP
//! (`kernel::ClosedFormTileKernel`, built once per GEMM, no per-tile
//! stream). A uGEMM-H window adds the same digit DP for its ones
//! phase to a word-packed prefix popcount for its zeros phase
//! (`kernel::PackedHybridTileKernel`, packed per tile).
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
//! clamps. `tests::matches_fast_executor_*` pin the fast paths and
//! `execute_lowered` against the stepped machine for every scheme,
//! `acc_width` 4..=32, `K > R` and 1/2/4/8 workers, and
//! `tests::cycle_count_matches_timing_model` cross-validates the measured
//! cycle count against the `usystolic-sim` ideal-cycle formula.

use crate::config::SystolicConfig;
use crate::kernel::{ClosedFormTileKernel, KernelMode, KernelPath, PackedHybridTileKernel};
use crate::mapping::TileMapping;
use crate::pe::IfmSource;
use crate::scheme::ComputingScheme;
use crate::CoreError;
use usystolic_gemm::{GemmConfig, Matrix};
use usystolic_unary::add::BinaryAccumulator;
use usystolic_unary::coding::Coding;
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
/// Returns [`CoreError::Shape`] for mismatched matrices.
pub fn cycle_accurate_gemm(
    config: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
) -> Result<(Matrix<i64>, CycleStats), CoreError> {
    cycle_accurate_gemm_with(config, gemm, input, weights, KernelMode::Auto, 1)
}

/// Records one tile's wall-clock span on the [`usystolic_obs::PID_WALL`]
/// lane (no-op when no session is installed — in particular on worker
/// threads of the parallel tile sweep, which carry no session).
fn record_tile(kernel: &'static str, cf: usize, rf: usize, rows: usize, cols: usize, t0: f64) {
    usystolic_obs::with(|o| {
        use usystolic_obs::ToJson;
        let t1 = o.tracer.now_us();
        o.metrics.observe("core.tile_us", t1 - t0);
        o.metrics
            .observe_labeled("core.tile_us", &[("kernel", kernel)], t1 - t0);
        o.metrics
            .count_labeled("core.tiles", &[("kernel", kernel)], 1);
        // `correlated_args` stamps the active request/shard ids (set by
        // the serve engine) onto the tile span, closing the admission →
        // batch → layer → tile chain in the trace.
        let args = o.correlated_args(vec![
            ("col_fold".to_owned(), (cf as u64).to_json()),
            ("row_fold".to_owned(), (rf as u64).to_json()),
            ("rows".to_owned(), (rows as u64).to_json()),
            ("cols".to_owned(), (cols as u64).to_json()),
        ]);
        o.tracer.complete(
            format!("{kernel} tile c{cf}r{rf}"),
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
/// The weight-tile sweep is embarrassingly parallel (tiles share no
/// machine state, only the output accumulation), so tiles are dispatched
/// across `workers` threads of the shared work-stealing pool
/// ([`usystolic_pool`]). Each tile returns only its own `M × C'` output
/// block, and the blocks are folded sequentially in the canonical
/// `(col_fold, row_fold)` order — the result is **bit-for-bit identical
/// for every worker count and for every [`KernelMode`]**
/// (`tests::packed_kernel_and_workers_are_bit_exact`).
///
/// Under [`KernelMode::Auto`], each tile is evaluated by the fastest path
/// [`KernelMode::resolve`] grants the configuration: the closed form for
/// rate and temporal coding and the binary schemes, and for uGEMM-H the
/// kernel whose zeros phase is word-packed (64 multiply cycles per `u64`
/// word, see [`crate::kernel`]). uGEMM-H OREGs narrower than
/// `bitwidth + 2` fall back to the stepped machine, where mid-window
/// clamping is real behaviour the lump add cannot reproduce.
///
/// # Errors
///
/// Returns [`CoreError::Shape`] for mismatched matrices and
/// [`CoreError::Config`] if the worker pool fails.
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

    let map = TileMapping::new(gemm, config.rows(), config.cols());
    let scheme = config.scheme();
    // Resolve the dispatch table once per GEMM (not per tile), so a
    // demoted request records exactly one fallback event.
    let path = mode.resolve(config);
    let kernel_label = match path {
        KernelPath::ClosedForm => "closed-form",
        KernelPath::Packed => "packed",
        KernelPath::Serial => "serial",
    };
    // A rate- or temporal-coded window depends on the GEMM, not the
    // tile: its enable table is built once here and shared by every tile.
    let closed = match (path, scheme.coding()) {
        (KernelPath::ClosedForm, Some(coding)) => Some(ClosedFormTileKernel::new(
            coding,
            config.bitwidth(),
            config.mul_cycles(),
        )),
        _ => None,
    };
    let tiles: Vec<(usize, usize)> = (0..map.col_folds())
        .flat_map(|cf| (0..map.row_folds()).map(move |rf| (cf, rf)))
        .collect();

    let mut sweep_t0 = 0.0;
    usystolic_obs::with(|o| sweep_t0 = o.tracer.now_us());

    // Per-tile blocks in parallel. The per-tile spans inside the closure
    // are recorded only on the inline (single-worker) path: worker threads
    // carry no thread-local observability session, so the calls no-op
    // there and the sweep-level span below covers the parallel case.
    let partials = usystolic_pool::run_indexed(workers, tiles.len(), |i| {
        let (cf, rf) = tiles[i];
        let mut tile_stats = CycleStats::default();
        let mut t0 = 0.0;
        usystolic_obs::with(|o| t0 = o.tracer.now_us());
        let tile = TileMachine::new(config, input, weights, &map, rf, cf);
        let (rows, cols) = (tile.rows, tile.cols);
        let mut block = Matrix::<i64>::zeros(m, cols);
        match (path, &closed) {
            (KernelPath::Serial, _) => tile.run(&mut block, &mut tile_stats),
            (KernelPath::ClosedForm, Some(kernel)) => {
                tile.run_closed(kernel, &mut block, &mut tile_stats)
            }
            (KernelPath::ClosedForm, None) => tile.run_binary(&mut block, &mut tile_stats),
            (KernelPath::Packed, _) => tile.run_packed_hybrid(&mut block, &mut tile_stats),
        }
        record_tile(
            match path {
                KernelPath::ClosedForm => "cycle_gemm.closed_form",
                KernelPath::Packed => "cycle_gemm.packed",
                KernelPath::Serial => "cycle_gemm.serial",
            },
            cf,
            rf,
            rows,
            cols,
            t0,
        );
        (block, tile_stats)
    })
    .map_err(|e| CoreError::Config(format!("tile sweep worker pool failed: {e}")))?;

    // Deterministic sequential fold in tile order: parallelism changes
    // wall-clock time, never one output bit.
    let mut out = Matrix::<i64>::zeros(m, n);
    let mut stats = CycleStats::default();
    for ((block, tile_stats), &(cf, _)) in partials.iter().zip(&tiles) {
        let n0 = cf * config.cols();
        for p in 0..m {
            for c in 0..block.cols() {
                out[(p, n0 + c)] += block[(p, c)];
            }
        }
        stats.cycles += tile_stats.cycles;
        stats.busy_pe_cycles += tile_stats.busy_pe_cycles;
        stats.tiles += tile_stats.tiles;
        stats.saturation_events += tile_stats.saturation_events;
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
                // The closed form models the same packed schedule; both
                // count as off-reference-machine PE cycles.
                KernelPath::Packed | KernelPath::ClosedForm => "core.cycle.packed_pe_cycles",
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

/// One weight tile. Every run method adds the tile's finished partial
/// sums into `out`, the tile's own `M × C'` output block (column `c` of
/// the block is output column `n0 + c`).
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
                            out[(p, c)] += total;
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

    /// Closed-form evaluation of a rate- or temporal-coded tile: every
    /// window count is `O(bitwidth)` arithmetic
    /// ([`crate::kernel::ClosedFormTileKernel`], shared by every tile of
    /// the GEMM), with no per-tile stream of any kind.
    ///
    /// Bit-exact against [`run`](Self::run): within one MAC window every
    /// increment of a PE carries the same sign, the accumulator clamps
    /// monotonically, and `drain()` clears both the value and the sticky
    /// saturation flag at every M-end — so the lump add per window
    /// reproduces the per-cycle adds, clamping and saturation count
    /// included.
    fn run_closed(
        self,
        kernel: &ClosedFormTileKernel,
        out: &mut Matrix<i64>,
        stats: &mut CycleStats,
    ) {
        let bitwidth = self.config.bitwidth();
        let w_sm = self.tile_w_sm();
        self.cascade_replay(
            |p, r, c| {
                let ifm = SignMagnitude::from_signed(self.input[(p, self.k0 + r)], bitwidth);
                kernel.window_count(ifm, w_sm[r][c])
            },
            out,
            stats,
        );
    }

    /// Closed-form evaluation of a binary tile: every window is the exact
    /// product `I·W`, added into the OREG in one step. The stepped
    /// machine also lands the product in a single cycle (the last
    /// multiply cycle) and folds in the lower partial sum at the M-end,
    /// so the cascade replay is bit-exact against [`run`](Self::run),
    /// clamping and saturation count included.
    fn run_binary(self, out: &mut Matrix<i64>, stats: &mut CycleStats) {
        self.cascade_replay(
            |p, r, c| self.input[(p, self.k0 + r)] * self.weights[(self.k0 + r, self.n0 + c)],
            out,
            stats,
        );
    }

    /// Fast evaluation of a uGEMM-H tile: each bipolar window's ±1 walk
    /// splits into the constant-sign ones-/zeros-phase counts of
    /// [`crate::kernel::PackedHybridTileKernel`] and lumps into one
    /// accumulator add per window. [`KernelMode::resolve`] guarantees the
    /// OREG cannot clamp mid-window here (`acc_width ≥ bitwidth + 2`), so
    /// the lump add — and the saturation count of the M-end cascade — is
    /// bit-exact against [`run`](Self::run).
    fn run_packed_hybrid(self, out: &mut Matrix<i64>, stats: &mut CycleStats) {
        let bitwidth = self.config.bitwidth();
        let half = 1i64 << (bitwidth - 1);
        let w_thr: Vec<Vec<u64>> = (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| {
                        let w = self.weights[(self.k0 + r, self.n0 + c)].clamp(-half, half);
                        (w + half) as u64
                    })
                    .collect()
            })
            .collect();
        let kernel = PackedHybridTileKernel::new(bitwidth, &w_thr);
        self.cascade_replay(
            |p, r, c| {
                let level = self.input[(p, self.k0 + r)].clamp(-half, half);
                kernel.window_sum(r, c, (level + half) as u64)
            },
            out,
            stats,
        );
    }

    /// This tile's stationary weights in sign-magnitude form.
    fn tile_w_sm(&self) -> Vec<Vec<SignMagnitude>> {
        let bitwidth = self.config.bitwidth();
        (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| {
                        SignMagnitude::from_signed(
                            self.weights[(self.k0 + r, self.n0 + c)],
                            bitwidth,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Shared backbone of the fast tile paths: the M-end cascade replayed
    /// per `(vector, column)` bottom-up (row `r+1`'s M-end lands one
    /// cycle before row `r`'s, so its drained partial sum is what row `r`
    /// folds in), plus the closed-form schedule statistics. One
    /// accumulator is reused across windows: `drain()` clears the value
    /// and the sticky saturation flag, exactly like the per-PE OREGs.
    fn cascade_replay<F: FnMut(usize, usize, usize) -> i64>(
        &self,
        mut window: F,
        out: &mut Matrix<i64>,
        stats: &mut CycleStats,
    ) {
        let mac = self.config.mac_cycles() as i64;
        let preload = self.rows as i64;
        let (rows, cols, m) = (self.rows, self.cols, self.m);

        let mut acc = BinaryAccumulator::new(self.config.acc_width());
        for p in 0..m {
            for c in 0..cols {
                let mut below = 0i64;
                for r in (0..rows).rev() {
                    acc.add(window(p, r, c));
                    acc.add(below);
                    if acc.saturated() {
                        stats.saturation_events += 1;
                    }
                    below = acc.drain();
                }
                out[(p, c)] += below;
            }
        }

        let t_end = preload + (rows as i64 - 1) + (cols as i64 - 1) + m as i64 * mac - 1;
        stats.cycles += (t_end + 1) as u64;
        stats.busy_pe_cycles += (rows * cols * m) as u64 * self.config.mac_cycles();
        stats.tiles += 1;
    }
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
    /// `ebt`: every `acc_width` in 4..=32, three SplitMix64 GEMMs with
    /// `K > R` (`K mod R ≠ 0`) and `N > C` (`N mod C ≠ 0`), and 1/2/4/8
    /// workers.
    fn assert_differential(scheme: ComputingScheme, ebt: u32) {
        let mut rng = SplitMix64::new(0xD1FF);
        let mut saturating = 0;
        for (m, k, n) in [(2usize, 10usize, 4usize), (3, 7, 5), (1, 13, 7)] {
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
        // The fast kernels and the parallel tile sweep must reproduce the
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
                    let (packed, packed_stats) =
                        cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, workers)
                            .expect("packed path executes");
                    assert_eq!(serial, packed, "{scheme} EBT {ebt} workers {workers}");
                    assert_eq!(
                        serial_stats, packed_stats,
                        "{scheme} EBT {ebt} workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_stats_match_serial_stats() {
        // The fast paths emit their statistics from the closed-form
        // schedule; they must equal the stepped machine's measurements,
        // saturation events included (narrow accumulator forces clamping).
        let (gemm, li, lw) = lowered_case(22);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .expect("valid")
            .with_acc_width(4);
        let (serial, serial_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                .expect("serial path executes");
        let (packed, packed_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, 1)
                .expect("packed path executes");
        assert!(serial_stats.saturation_events > 0, "case must saturate");
        assert_eq!(serial, packed);
        assert_eq!(serial_stats, packed_stats);
    }

    #[test]
    fn unpackable_schemes_fall_back_to_serial() {
        // A uGEMM-H OREG too narrow for the lump add is the one
        // configuration no fast path covers: Auto runs the bit-serial
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
        // The fast paths must reproduce the stepped machine at every
        // bitwidth from 2 to 12: the closed form for temporal coding and
        // for rate coding at every EBT (plus one 14-bit case, a
        // 128-word stream), and the uGEMM-H kernel up to 10 bits. The
        // operands include |I| and |W| = 0, 1 and the inclusive maximum
        // 2^(N-1), K = 8 folds over 4 rows, and every configuration runs
        // at its default and at a narrow OREG (the narrowest uGEMM-H
        // width the kernel accepts) and at 1/2/4/8 workers.
        let (gemm, li, lw) = lowered_case(24);
        let mut cases = vec![(ComputingScheme::UnaryRate, 14u32, 14u32)];
        for bitwidth in 2..=12u32 {
            cases.extend((1..=bitwidth).map(|ebt| (ComputingScheme::UnaryRate, bitwidth, ebt)));
            cases.push((ComputingScheme::UnaryTemporal, bitwidth, bitwidth));
            if bitwidth <= 10 {
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
            let narrow = if scheme == ComputingScheme::UGemmHybrid {
                bitwidth + 2
            } else {
                4
            };
            for cfg in [base, base.with_acc_width(narrow)] {
                let case = format!("{scheme} N {bitwidth} EBT {ebt} acc {}", cfg.acc_width());
                assert_eq!(
                    KernelMode::Auto.resolve(&cfg),
                    crate::kernel_paths(scheme)[0],
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
        // At the narrowest OREG the packed hybrid path still accepts
        // (acc_width = bitwidth + 2), the M-end cascade genuinely clamps —
        // the packed path must reproduce results AND saturation counts.
        let (gemm, li, lw) = lowered_case(25);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UGemmHybrid, 8)
            .expect("valid")
            .with_acc_width(10);
        assert_eq!(KernelMode::Auto.resolve(&cfg), KernelPath::Packed);
        let (serial, serial_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                .expect("serial path executes");
        assert!(
            serial_stats.saturation_events > 0,
            "case must saturate to be a meaningful pin"
        );
        for workers in [1usize, 2, 4, 8] {
            let (packed, packed_stats) =
                cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, workers)
                    .expect("packed path executes");
            assert_eq!(serial, packed, "workers {workers}");
            assert_eq!(serial_stats, packed_stats, "workers {workers}");
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let (gemm, li, _) = lowered_case(14);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).expect("valid");
        let bad = Matrix::<i64>::zeros(2, 2);
        assert!(cycle_accurate_gemm(&cfg, &gemm, &li, &bad).is_err());
    }
}
