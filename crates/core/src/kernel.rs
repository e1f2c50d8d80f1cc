//! MAC-window kernels of the tile sweep, and the per-scheme dispatch
//! table that picks one.
//!
//! [`crate::array2d`] runs every GEMM tile by tile. Per tile it either
//! steps the bit-serial reference machine or evaluates each MAC window in
//! one shot with a kernel from this module, then replays the M-end
//! partial-sum cascade through the reduced-resolution OREGs. Which path a
//! tile takes is [`KernelMode::resolve`]'s decision over the table of
//! [`kernel_paths`].
//!
//! A uSystolic MAC window is fully determined by two comparator sequences
//! that restart from the same seed every window (Fig. 4/7): the C-I
//! comparator of the IFM source, and per column the C-W comparator of the
//! conditionally-advanced weight RNG. Both reduce to counts, for rate and
//! temporal coding alike (`ClosedFormTileKernel`):
//!
//! * the weight RNG advances only on enabled cycles, so a window sees only
//!   *how many* enable bits its IFM produced. That count depends on `|I|`
//!   alone and is read from one table, built once per GEMM;
//! * the weight RNG is Sobol dimension 0, the base-2 van der Corput
//!   sequence, so the number of its first `n_en` outputs below `|W|` is
//!   the digit DP [`usystolic_unary::packed::vdc_prefix_count`],
//!   `O(bitwidth)` per window. No window outlasts one RNG period
//!   (`mul_cycles ≤ 2^(bitwidth−1)`), which is where the DP is exact;
//! * a window's signed count is `sign · vdc_prefix_count(n_en, |W|)`
//!   instead of `mul_cycles` scalar iterations.
//!
//! The lump-signed count is bit-exact against the cycle-by-cycle
//! accumulation because every increment of one window carries the same
//! sign (`ISIGN ⊕ WSIGN` is constant over a window) and the downstream
//! [`usystolic_unary::add::BinaryAccumulator`] clamps monotonically.
//! `crate::array2d::tests` pin the equivalence against the stepped machine.
//!
//! uGEMM-H's bipolar windows mix +1 and −1 increments.
//! `PackedHybridTileKernel` splits each into its two constant-sign
//! phases: the ones phase is the same digit DP, and the zeros phase
//! (Sobol dimension 2, which has no closed form here) is a word-packed
//! prefix popcount ([`usystolic_unary::packed::PackedCbsg`]).

use crate::config::SystolicConfig;
use crate::scheme::ComputingScheme;
use std::sync::atomic::{AtomicBool, Ordering};
use usystolic_unary::coding::Coding;
use usystolic_unary::packed::{self, PackedCbsg};
use usystolic_unary::rng::{NumberSource, SobolSource};
use usystolic_unary::sign::SignMagnitude;

use crate::pe::IfmSource;

/// Selects how the tile sweep evaluates MAC windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Use the fastest legal path from the dispatch table for each
    /// scheme: the closed form for rate and temporal coding and the
    /// binary schemes, the word-packed kernel for uGEMM-H.
    #[default]
    Auto,
    /// Always step the bit-serial reference machine.
    Serial,
}

/// A concrete strategy for evaluating one scheme's MAC windows.
///
/// Together with [`kernel_paths`] this forms the dispatch table that
/// [`KernelMode::Auto`] consults: each scheme maps to the ordered list of
/// paths that are *legal* for it (bit-exact against the reference),
/// fastest first. `crates/analyze` re-derives the same table from the
/// schemes' window semantics and a tier-1 test pins the two in agreement,
/// so a new scheme cannot silently claim a path it cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Closed-form window arithmetic, no per-tile stream and no
    /// comparator words. A binary window is the exact product, added in
    /// one step. A rate- or temporal-coded window's enable count is a
    /// lookup by `|I|` and its weight prefix count a digit DP
    /// ([`usystolic_unary::packed::vdc_prefix_count`]), `O(bitwidth)`
    /// per window.
    ClosedForm,
    /// Word-packed popcount kernel, 64 window cycles per `u64` word:
    /// uGEMM-H's zeros phase.
    Packed,
    /// Cycle-by-cycle bit-serial reference machine.
    Serial,
}

impl core::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelPath::ClosedForm => write!(f, "closed-form"),
            KernelPath::Packed => write!(f, "packed"),
            KernelPath::Serial => write!(f, "serial"),
        }
    }
}

/// Legal kernel paths for `scheme`, fastest first.
///
/// The closed form requires an analytic window. The binary schemes add
/// the exact product once per window (the stepped machine does the same
/// in a single cycle). A sign-magnitude unary window (rate or temporal
/// coding) has a constant sign `ISIGN ⊕ WSIGN`, an enable count that
/// depends on `|I|` alone, and a weight count that is the van der Corput
/// digit DP. uGEMM-H's bipolar windows split into the two constant-advance
/// RNG phases selected by the input bit; its zeros phase has no closed
/// form, so it takes the packed kernel (`PackedHybridTileKernel`). The
/// serial reference machine is legal everywhere.
#[must_use]
pub fn kernel_paths(scheme: ComputingScheme) -> &'static [KernelPath] {
    const CLOSED_FORM: &[KernelPath] = &[KernelPath::ClosedForm, KernelPath::Serial];
    const PACKED: &[KernelPath] = &[KernelPath::Packed, KernelPath::Serial];
    match scheme {
        ComputingScheme::UGemmHybrid => PACKED,
        ComputingScheme::UnaryRate
        | ComputingScheme::UnaryTemporal
        | ComputingScheme::BinaryParallel
        | ComputingScheme::BinarySerial => CLOSED_FORM,
    }
}

/// Set once the first denied fast path has been reported;
/// later fallbacks only count the metric (a long sweep would otherwise
/// spam stderr with one line per tile).
static FALLBACK_WARNED: AtomicBool = AtomicBool::new(false);

/// Records a denied fast path: bumps the
/// `core.kernel.fallback` counter (labelled with the scheme and reason)
/// and warns on stderr the first time in the process.
fn record_fallback(scheme: ComputingScheme, reason: &'static str) {
    usystolic_obs::with(|o| {
        o.metrics.count_labeled(
            "core.kernel.fallback",
            &[("scheme", scheme.label()), ("reason", reason)],
            1,
        );
    });
    if !FALLBACK_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: kernel: requested fast path falls back to the bit-serial reference \
             for {scheme} ({reason}); counting further fallbacks silently \
             (obs counter core.kernel.fallback)"
        );
    }
}

impl KernelMode {
    /// The path this mode selects for `scheme`: the fastest legal path
    /// from the dispatch table, unless the mode forbids it.
    ///
    /// This is the *static* table lookup; [`resolve`](Self::resolve)
    /// additionally applies per-configuration legality guards and is
    /// what the tile sweep consults.
    #[must_use]
    pub fn path(self, scheme: ComputingScheme) -> KernelPath {
        match self {
            KernelMode::Serial => KernelPath::Serial,
            KernelMode::Auto => kernel_paths(scheme)[0],
        }
    }

    /// The path this mode selects for `config`, after per-configuration
    /// guards — the resolver the tile sweep actually dispatches on.
    ///
    /// One demotion applies, and it is *visible* (metric + one-shot
    /// stderr warning) rather than silent: uGEMM-H packing lumps each
    /// window's ±1 walk into one accumulator add, which is bit-exact
    /// (sticky saturation flag included) only when the OREG cannot clamp
    /// mid-window — capacity `2^(acc_width−1)−1 ≥ 2^bitwidth` window
    /// cycles, i.e. `acc_width ≥ bitwidth + 2`. Narrower OREGs step the
    /// reference machine so transient mid-window clamping is reproduced
    /// exactly.
    #[must_use]
    pub fn resolve(self, config: &SystolicConfig) -> KernelPath {
        let scheme = config.scheme();
        let requested = self.path(scheme);
        if requested == KernelPath::Packed
            && scheme == ComputingScheme::UGemmHybrid
            && config.acc_width() < config.bitwidth() + 2
        {
            record_fallback(scheme, "narrow accumulator");
            return KernelPath::Serial;
        }
        requested
    }
}

impl core::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelMode::Auto => write!(f, "auto"),
            KernelMode::Serial => write!(f, "serial"),
        }
    }
}

/// Flattens a rows-of-columns tile row-major, validating that every row
/// has the same length.
///
/// # Panics
///
/// Panics with a clear message on a ragged tile — flattened indexing
/// (`r * cols + c`) would otherwise silently read the wrong PE's state.
fn flatten_tile<T: Copy>(tile: &[Vec<T>]) -> (Vec<T>, usize) {
    let cols = tile.first().map_or(0, Vec::len);
    for (r, row) in tile.iter().enumerate() {
        assert!(
            row.len() == cols,
            "ragged weight tile: row {r} has {} columns, row 0 has {cols}",
            row.len()
        );
    }
    (tile.iter().flatten().copied().collect(), cols)
}

/// Closed-form evaluation of rate- and temporal-coded MAC windows:
/// `O(bitwidth)` arithmetic per window, built once per GEMM and shared by
/// every tile.
///
/// Both comparator streams of a sign-magnitude window reduce to counts:
///
/// * the C-I enable count depends only on `|I|`. `enabled[|I|]` counts
///   the IFM source's window sequence below `|I|`, drained once and
///   prefix-summed. For temporal coding the table equals
///   [`packed::counter_prefix_count`];
/// * the conditionally-advanced weight RNG is the base-2 Sobol sequence,
///   whose prefix count below `|W|` is the digit DP
///   [`packed::vdc_prefix_count`].
///
/// `tests::closed_form_matches_stepped_row` pins both codings against the
/// stepped [`crate::pe::UnaryRow::run`].
pub(crate) struct ClosedFormTileKernel {
    /// Comparator width of both sources (`bitwidth − 1`).
    width: u32,
    /// `enabled[m]`: enable-bit count of a window on an IFM of magnitude
    /// `m`, for `m` in `0..=2^width`.
    enabled: Vec<u64>,
}

impl ClosedFormTileKernel {
    /// Tabulates the enable counts of `coding`-coded windows of
    /// `mul_cycles` multiply cycles at `bitwidth`-bit data.
    ///
    /// # Panics
    ///
    /// Panics if `mul_cycles` exceeds the weight RNG period
    /// `2^(bitwidth−1)`: the Sobol prefix count has no closed form past
    /// one period. Rate windows (`2^(EBT−1)` cycles) and temporal windows
    /// are at most one period by construction.
    pub(crate) fn new(coding: Coding, bitwidth: u32, mul_cycles: u64) -> Self {
        let width = bitwidth - 1;
        let period = 1u64 << width;
        assert!(
            mul_cycles <= period,
            "window of {mul_cycles} cycles exceeds the RNG period {period}"
        );
        // Histogram the window's IFM source outputs (all below the
        // period), then prefix-sum: enabled[m] = #{ t : seq[t] < m }.
        let mut enabled = vec![0u64; period as usize + 1];
        let mut ifm_src = IfmSource::for_coding(coding, bitwidth);
        for _ in 0..mul_cycles {
            enabled[ifm_src.next() as usize + 1] += 1;
        }
        for m in 1..enabled.len() {
            enabled[m] += enabled[m - 1];
        }
        Self { width, enabled }
    }

    /// The signed count a PE holding weight `w` contributes for one MAC
    /// window on `ifm`, identical to what the stepped machine accumulates.
    pub(crate) fn window_count(&self, ifm: SignMagnitude, w: SignMagnitude) -> i64 {
        let n_en = self.enabled[ifm.magnitude as usize];
        let ones = packed::vdc_prefix_count(self.width, n_en, w.magnitude);
        ifm.product_increment(w) * ones as i64
    }
}

/// Evaluation of uGEMM-H's bipolar MAC windows: the ones phase in closed
/// form, the zeros phase word-packed.
///
/// A bipolar window mixes +1/−1 increments, so it cannot lump into one
/// signed count directly — but the mixing is *structured*: the input bit
/// selects which of two RNGs advances (ones-phase vs zeros-phase, Fig. 4
/// of the uGEMM lineage), and each phase is a conditionally advanced
/// comparator exactly like the C-BSG. Splitting the window into its two
/// constant-sign enable masks reduces it to two prefix counts:
///
/// ```text
/// n1   = #{ t < len : seq_in[t] < T_in } = min(T_in, len)   (input-high cycles)
/// pos  = vdc_prefix_count(n1, T_w)                          (+1s while input high)
///      + #{ j < len−n1 : seq_zeros[j] ≥ T_w }               (+1s while input low)
/// sum  = 2·pos − len
/// ```
///
/// The input RNG runs exactly one full period, a permutation of
/// `0..len`, so its count below `T_in` is a `min`. The ones-phase RNG is
/// Sobol dimension 0 (the digit DP); the zeros-phase RNG is dimension 2,
/// packed per PE.
///
/// The lump add into the OREG is bit-exact against the cycle-by-cycle
/// ±1 walk whenever the accumulator cannot clamp mid-window
/// (`acc_width ≥ bitwidth + 2`, enforced by [`KernelMode::resolve`]).
pub(crate) struct PackedHybridTileKernel {
    /// Comparator width of all three RNGs (`bitwidth`: bipolar streams
    /// carry one extra resolution bit).
    width: u32,
    /// Per-PE weight thresholds `T_w`.
    w_thr: Vec<u64>,
    /// Per-PE zeros-phase `+1` stream: the comparator `≥ T_w`, packed.
    zeros_ge: Vec<PackedCbsg>,
    cols: usize,
}

impl PackedHybridTileKernel {
    /// Packs one tile's stationary bipolar weight thresholds
    /// (`w_thr[r][c] = clamp(W) + 2^(bitwidth−1)`, rows of equal length).
    ///
    /// # Panics
    ///
    /// Panics on a ragged tile.
    pub(crate) fn new(bitwidth: u32, w_thr: &[Vec<u64>]) -> Self {
        let seq_zeros = packed::sequence(&mut SobolSource::dimension(2, bitwidth), 1 << bitwidth);
        let (w_thr, cols) = flatten_tile(w_thr);
        // The zeros phase emits +1 on `rand >= T_w`; pack the complement
        // comparator directly so it is a plain prefix popcount too.
        let zeros_ge = w_thr
            .iter()
            .map(|&thr| PackedCbsg::from_stream(packed::comparator_stream(&seq_zeros, thr).not()))
            .collect();
        Self {
            width: bitwidth,
            w_thr,
            zeros_ge,
            cols,
        }
    }

    /// The signed sum PE `(r, c)`'s ±1 walk reaches over one MAC window
    /// on an input of `in_threshold` — identical to the value the
    /// bit-serial machine's OREG holds at the window's end.
    pub(crate) fn window_sum(&self, r: usize, c: usize, in_threshold: u64) -> i64 {
        let len = 1u64 << self.width;
        let n1 = in_threshold.min(len);
        let idx = r * self.cols + c;
        let pos = packed::vdc_prefix_count(self.width, n1, self.w_thr[idx])
            + self.zeros_ge[idx].ones_given(len - n1);
        2 * pos as i64 - len as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::UnaryRow;

    #[test]
    fn mode_packs_all_unary_schemes() {
        // Every unary scheme — rate, temporal AND uGEMM-H — declares a
        // non-serial fastest path, and so do the binary baselines through
        // their closed form: no scheme is serial-only.
        for scheme in ComputingScheme::ALL {
            assert_ne!(
                KernelMode::Auto.path(scheme),
                KernelPath::Serial,
                "{scheme}"
            );
        }
        assert_eq!(KernelMode::default(), KernelMode::Auto);
        assert_eq!(KernelMode::Auto.to_string(), "auto");
        assert_eq!(KernelMode::Serial.to_string(), "serial");
    }

    #[test]
    fn dispatch_table_is_ordered_and_complete() {
        for scheme in ComputingScheme::ALL {
            let paths = kernel_paths(scheme);
            // Every scheme can always fall back to the reference machine,
            // and the table is ordered fastest-first.
            assert_eq!(*paths.last().unwrap(), KernelPath::Serial);
            assert!(!paths.is_empty());
            assert_eq!(
                KernelMode::Auto.path(scheme),
                paths[0],
                "Auto must select the fastest legal path for {scheme:?}"
            );
            assert_eq!(KernelMode::Serial.path(scheme), KernelPath::Serial);
        }
        // Rate, temporal and the binary baselines lead with the closed
        // form, uGEMM-H with the packed kernel.
        for scheme in [
            ComputingScheme::UnaryRate,
            ComputingScheme::UnaryTemporal,
            ComputingScheme::BinaryParallel,
            ComputingScheme::BinarySerial,
        ] {
            assert_eq!(kernel_paths(scheme)[0], KernelPath::ClosedForm);
        }
        assert_eq!(
            kernel_paths(ComputingScheme::UGemmHybrid)[0],
            KernelPath::Packed
        );
        assert_eq!(KernelPath::ClosedForm.to_string(), "closed-form");
        assert_eq!(KernelPath::Packed.to_string(), "packed");
        assert_eq!(KernelPath::Serial.to_string(), "serial");
    }

    #[test]
    fn resolve_applies_per_config_guards() {
        let cfg = |scheme, acc| {
            SystolicConfig::new(4, 4, scheme, 8)
                .expect("valid test configuration")
                .with_acc_width(acc)
        };
        // uGEMM-H packs at acc_width ≥ bitwidth + 2 and not below (the
        // lump add could clamp mid-window there).
        let ug = ComputingScheme::UGemmHybrid;
        assert_eq!(KernelMode::Auto.resolve(&cfg(ug, 10)), KernelPath::Packed);
        assert_eq!(KernelMode::Auto.resolve(&cfg(ug, 32)), KernelPath::Packed);
        assert_eq!(KernelMode::Auto.resolve(&cfg(ug, 9)), KernelPath::Serial);
        // Rate and temporal resolve to the closed form regardless of OREG
        // width (constant-sign windows clamp monotonically).
        for coded in [ComputingScheme::UnaryRate, ComputingScheme::UnaryTemporal] {
            assert_eq!(
                KernelMode::Auto.resolve(&cfg(coded, 4)),
                KernelPath::ClosedForm
            );
        }
        // So do the binary baselines: one exact add per window clamps
        // exactly like the stepped machine's single-cycle add.
        let bp = ComputingScheme::BinaryParallel;
        assert_eq!(
            KernelMode::Auto.resolve(&cfg(bp, 4)),
            KernelPath::ClosedForm
        );
        assert_eq!(KernelMode::Serial.resolve(&cfg(ug, 32)), KernelPath::Serial);
    }

    #[test]
    fn fallbacks_are_counted_not_silent() {
        let previous = usystolic_obs::install(usystolic_obs::Session::new());
        let narrow = SystolicConfig::new(2, 2, ComputingScheme::UGemmHybrid, 8)
            .expect("valid test configuration")
            .with_acc_width(8);
        assert_eq!(KernelMode::Auto.resolve(&narrow), KernelPath::Serial);
        // A Serial request is not a denied fast path.
        assert_eq!(KernelMode::Serial.resolve(&narrow), KernelPath::Serial);
        let session = usystolic_obs::take().expect("session installed above");
        assert_eq!(
            session.metrics.counter_labeled(
                "core.kernel.fallback",
                &[("scheme", "UG"), ("reason", "narrow accumulator")],
            ),
            1
        );
        if let Some(prev) = previous {
            usystolic_obs::install(prev);
        }
    }

    #[test]
    #[should_panic(expected = "ragged weight tile: row 1 has 2 columns, row 0 has 3")]
    fn ragged_tiles_are_rejected_up_front() {
        let ragged = vec![vec![1u64, 2, 3], vec![4, 5]];
        let _ = PackedHybridTileKernel::new(8, &ragged);
    }

    #[test]
    fn closed_form_matches_stepped_row() {
        // The closed form must agree with the stepped pipeline of a unary
        // row for both codings and every window shape, including
        // word-boundary multiply counts. bitwidth 7 puts the full window
        // at 64 cycles, bitwidth 8 at 128.
        let sm = |v: i64, bw: u32| SignMagnitude::from_signed(v, bw);
        for coding in [Coding::Rate, Coding::Temporal] {
            for bitwidth in [2u32, 4, 7, 8] {
                let period = 1u64 << (bitwidth - 1);
                let half = period as i64;
                let row_w = vec![
                    sm(half, bitwidth),
                    sm(-3, bitwidth),
                    sm(0, bitwidth),
                    sm(1 - half, bitwidth),
                    sm(1, bitwidth),
                    sm(half / 2, bitwidth),
                ];
                for mul in [1u64, period - 1, period] {
                    let kernel = ClosedFormTileKernel::new(coding, bitwidth, mul);
                    for level in [0i64, 1, -1, half / 3, -half / 2, half, -half] {
                        let ifm = sm(level, bitwidth);
                        let mut row = UnaryRow::new(bitwidth, ifm, row_w.clone(), coding);
                        let stepped = row.run(mul).to_vec();
                        for (c, &w) in row_w.iter().enumerate() {
                            assert_eq!(
                                kernel.window_count(ifm, w),
                                stepped[c],
                                "{coding:?} bitwidth {bitwidth} mul {mul} level {level} col {c}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_kernel_matches_bipolar_bit_serial_walk() {
        // Scalar reference: the exact RowGen::Bipolar ± walk of the
        // cycle-accurate machine, reproduced inline.
        fn serial_window_sum(bitwidth: u32, in_thr: u64, w_thr: u64) -> i64 {
            let mut in_src = SobolSource::dimension(1, bitwidth);
            let mut rng_ones = SobolSource::dimension(0, bitwidth);
            let mut rng_zeros = SobolSource::dimension(2, bitwidth);
            let mut sum = 0i64;
            for _ in 0..(1u64 << bitwidth) {
                let in_bit = in_src.next() < in_thr;
                let r = if in_bit {
                    rng_ones.next()
                } else {
                    rng_zeros.next()
                };
                let bit = if in_bit { r < w_thr } else { r >= w_thr };
                sum += if bit { 1 } else { -1 };
            }
            sum
        }

        for bitwidth in [2u32, 4, 6, 8] {
            let len = 1u64 << bitwidth;
            let w_thr = vec![vec![0u64, 1, len / 2], vec![len / 3, len - 1, len]];
            let kernel = PackedHybridTileKernel::new(bitwidth, &w_thr);
            for in_thr in [0u64, 1, len / 2 - 1, len / 2, len / 2 + 1, len - 1, len] {
                for (r, row) in w_thr.iter().enumerate() {
                    for (c, &thr) in row.iter().enumerate() {
                        assert_eq!(
                            kernel.window_sum(r, c, in_thr),
                            serial_window_sum(bitwidth, in_thr, thr),
                            "bitwidth {bitwidth} in_thr {in_thr} pe ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_kernel_matches_row_fast_path() {
        let sm = |v: i64| SignMagnitude::from_signed(v, 8);
        let row_w = vec![sm(100), sm(-3), sm(77), sm(0), sm(-128), sm(55)];
        for coding in [Coding::Rate, Coding::Temporal] {
            for mul in [16u64, 128] {
                let kernel = ClosedFormTileKernel::new(coding, 8, mul);
                for ifm_level in [0i64, 1, -77, 111, 128, -128] {
                    let mut row = UnaryRow::new(8, sm(ifm_level), row_w.clone(), coding);
                    let reference = row.run_packed(mul).to_vec();
                    for (c, &expect) in reference.iter().enumerate() {
                        assert_eq!(
                            kernel.window_count(sm(ifm_level), row_w[c]),
                            expect,
                            "{coding:?} mul {mul} ifm {ifm_level} col {c}"
                        );
                    }
                }
            }
        }
    }
}
