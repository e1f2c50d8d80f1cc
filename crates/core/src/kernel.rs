//! MAC-window evaluation for the tile sweep: one closed form for every
//! scheme, and the one dispatch decision between it and the stepped
//! reference machine.
//!
//! [`crate::array2d`] runs every GEMM one row fold at a time. Per fold it
//! either steps the bit-serial reference machine tile by tile or evaluates
//! each MAC window in one shot with `ClosedFormWindow`, then replays the
//! M-end partial-sum cascade through the reduced-resolution OREGs.
//! [`KernelMode::resolve`] picks one of the two per GEMM.
//!
//! Every window reduces to counts of comparator outputs below a
//! threshold, over number sources that restart from the same seed every
//! window (Fig. 4/7). Each count is a closed-form Sobol prefix count
//! ([`usystolic_unary::packed::SobolPrefix`]), split the way the array
//! splits the work, and both halves are built ahead of the windows. The
//! input element's half, `row(input)`, depends only on its level, and a
//! GEMM's inputs take at most `2^(N−1)+1` magnitude levels (`2^N+1`
//! bipolar thresholds), so the window builds every level's row once per
//! GEMM ([`usystolic_unary::packed::PrefixTable`]) and `row(input)` looks
//! it up; the row is shared by all `N` PEs of its weight row, across every
//! column fold, as Fig. 7's leftmost PE generates the (IFM bit, random
//! number) pair once for the whole row. A window tabulates only when the
//! table cannot cost more than it saves: at most as many levels as the
//! GEMM has input elements (`M·K`) and at most `2^12 + 1` levels, so
//! memory stays bounded up to `MAX_BITWIDTH`. Otherwise `row(input)`
//! splits the element's prefix in `O(bitwidth)`, on the stack. The
//! weight's half is its lane threshold ([`UnaryWindow::lane`]) beside its
//! sign as an `i32` mask (a [`LaneGroup`] per eight weights), converted
//! once per row fold. The row then counts its whole weight row
//! ([`WindowRow::accumulate`]), eight weights at a time: per prefix class
//! one add and one shift across eight `u32` lanes
//! ([`usystolic_unary::packed::PrefixClasses::count_lanes`]), then an
//! xor, a subtract and an add in `i32` lanes, no branch on the data.
//! `ClosedFormWindow` is built once per GEMM and holds no per-fold state:
//!
//! * a binary window is the exact product `I·W`;
//! * a rate- or temporal-coded window is `sign · count₀(enabled(|I|), |W|)`.
//!   The weight RNG (Sobol dimension 0) advances only on enabled cycles,
//!   so a window sees only *how many* enable bits its IFM produced: the
//!   IFM source's own prefix count below `|I|` ([`IfmSource::prefix`]:
//!   Sobol dimension 1 at `mul_cycles` for rate coding, a counter for
//!   temporal coding). The row is the weight RNG's prefix over that
//!   count. Every increment of one window carries the same sign
//!   (`ISIGN ⊕ WSIGN`), and the downstream
//!   [`usystolic_unary::add::BinaryAccumulator`] clamps monotonically, so
//!   the lump-signed count is bit-exact;
//! * a uGEMM-H window mixes +1 and −1 increments. The input bit selects
//!   which of two RNGs advances (ones phase: Sobol dimension 0, zeros
//!   phase: dimension 2), and the input RNG runs one full period, a
//!   permutation, so `n1 = min(T_in, 2^N)` cycles are input-high and
//!   `n0 = 2^N − n1` input-low. The row holds both phase prefixes, and
//!   the window sums to `2·(count₀(n1, T_w) + n0 − count₂(n0, T_w)) − 2^N`.
//!   The lump add is bit-exact only when the OREG cannot clamp mid-window
//!   (`acc_width ≥ bitwidth + 2`), which [`KernelMode::resolve`] enforces.
//!
//! No window outlasts one RNG period (`mul_cycles ≤ 2^(bitwidth−1)` for
//! sign-magnitude windows, `2^N` for uGEMM-H's `N`-bit RNGs), which is
//! where the prefix counts are exact. `crate::array2d::tests` pin every
//! scheme against the stepped machine.
//!
//! Every window also bounds how far it can move an OREG
//! (`ClosedFormWindow::bound`): a rate or temporal window counts at most
//! its `mul_cycles` enabled cycles, a uGEMM-H window walks `2^N` steps of
//! ±1, and a binary window adds one product, at most `max|I|·max|W|` over
//! the GEMM's operands. An OREG sums at most one row fold's windows
//! between two drains, one per row, and every partial value it holds on
//! the way (mid-window or at an M-end) is a sum of whole windows plus at
//! most one window's prefix. So where `rows · bound ≤ 2^(acc_width−1) − 1`,
//! the positive capacity (the range `−2^(acc_width−1) ..= 2^(acc_width−1)
//! − 1` is asymmetric, so the smaller side bounds both), no add of the
//! fold can clamp, in the stepped machine or in the closed form: the
//! fold's M-end cascade is a plain sum with no saturation event. The tile
//! sweep then sums each vector's windows over the fold's rows in `i32`
//! lanes ([`WindowRow::accumulate`] adds into them) and widens them into
//! the fold's `i64` partial sums once, flushing every `⌊(2^31 − 1) /
//! bound⌋` rows so no lane overflows (`bound ≤ 2^MAX_BITWIDTH`, so at
//! least every 127 rows; never within an edge fold). It runs the
//! clamping cascade only on folds the bound does not cover.

use crate::config::SystolicConfig;
use crate::pe::{IfmPrefix, IfmSource};
use crate::scheme::ComputingScheme;
use std::sync::atomic::{AtomicBool, Ordering};
use usystolic_gemm::Matrix;
use usystolic_unary::coding::Coding;
use usystolic_unary::packed::{PrefixClasses, PrefixTable, SobolPrefix, LANES};
use usystolic_unary::rng::SobolSource;

/// Selects how the tile sweep evaluates MAC windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Evaluate every window in closed form wherever that is bit-exact
    /// (everywhere but a uGEMM-H OREG narrower than `bitwidth + 2`).
    #[default]
    Auto,
    /// Always step the bit-serial reference machine.
    Serial,
}

/// How the tile sweep evaluates one GEMM's MAC windows, as
/// [`KernelMode::resolve`] decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Closed-form window arithmetic: a table lookup (or `O(bitwidth)`)
    /// per input element and branch-free per window, with no stream of
    /// any kind (see the module docs).
    ClosedForm,
    /// Cycle-by-cycle bit-serial reference machine.
    Serial,
}

impl core::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelPath::ClosedForm => write!(f, "closed-form"),
            KernelPath::Serial => write!(f, "serial"),
        }
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
    /// The path this mode selects for `config` — the one dispatch
    /// decision of the tile sweep.
    ///
    /// [`KernelMode::Auto`] takes the closed form, with one demotion that
    /// is *visible* (metric + one-shot stderr warning) rather than silent:
    /// a uGEMM-H window lumps its ±1 walk into one accumulator add, which
    /// is bit-exact (sticky saturation flag included) only when the OREG
    /// cannot clamp mid-window — capacity `2^(acc_width−1)−1 ≥ 2^bitwidth`
    /// window cycles, i.e. `acc_width ≥ bitwidth + 2`. Narrower OREGs step
    /// the reference machine so transient mid-window clamping is
    /// reproduced exactly. Every other window has a constant sign and
    /// clamps monotonically, so it takes the closed form at any width.
    #[must_use]
    pub fn resolve(self, config: &SystolicConfig) -> KernelPath {
        let scheme = config.scheme();
        if self == KernelMode::Serial {
            return KernelPath::Serial;
        }
        if scheme == ComputingScheme::UGemmHybrid && config.acc_width() < config.bitwidth() + 2 {
            record_fallback(scheme, "narrow accumulator");
            return KernelPath::Serial;
        }
        KernelPath::ClosedForm
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

/// Most input levels a window tabulates: `2^12 + 1`, the levels of a
/// 12-bit uGEMM-H or a 13-bit rate- or temporal-coded window. Wider data
/// builds each row on its own, so the table stays bounded (a few hundred
/// KB) up to [`usystolic_unary::MAX_BITWIDTH`].
const MAX_TABLE_LEVELS: u64 = (1 << 12) + 1;

/// Whether a window over `levels` input levels tabulates its rows for a
/// GEMM of `elements` input elements: only where the table cannot cost
/// more rows than it saves (every level could recur) and stays bounded.
fn tabulate(levels: u64, elements: usize) -> bool {
    levels <= MAX_TABLE_LEVELS && levels <= elements as u64
}

/// The closed-form MAC window of one GEMM's scheme: built once per GEMM,
/// shared by every row fold. Each unary kind splits a window into the
/// input element's half (`row(input)`, a [`WindowRow`]) and the weight's
/// lane threshold ([`UnaryWindow::lane`]), so the tile sweep stays
/// monomorphised per kind (see the module docs).
pub(crate) enum ClosedFormWindow {
    /// Binary schemes: the exact product, which the tile sweep fuses into
    /// its M-end cascade.
    Binary,
    /// Rate and temporal coding: a signed weight prefix count.
    SignMagnitude(SignMagnitudeWindow),
    /// uGEMM-H: the two constant-sign phases of a bipolar window.
    Bipolar(BipolarWindow),
}

impl ClosedFormWindow {
    /// The window of `scheme` at `bitwidth`-bit data, `mul_cycles`
    /// multiply cycles per window (a uGEMM-H window is always its full
    /// `2^bitwidth`-cycle period), for a GEMM of `elements` input
    /// elements (`M·K`): a window tabulates the rows of every input level
    /// when the GEMM has at least as many elements as levels and at most
    /// `2^12 + 1` levels, and builds each row on its own otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a rate- or temporal-coded window exceeds the weight RNG
    /// period `2^(bitwidth−1)`: the Sobol prefix count has no closed form
    /// past one period. Rate windows (`2^(EBT−1)` cycles) and temporal
    /// windows are at most one period by construction.
    pub(crate) fn new(
        scheme: ComputingScheme,
        bitwidth: u32,
        mul_cycles: u64,
        elements: usize,
    ) -> Self {
        let coding = match scheme {
            ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => return Self::Binary,
            ComputingScheme::UGemmHybrid => {
                return Self::Bipolar(BipolarWindow::new(bitwidth, elements))
            }
            ComputingScheme::UnaryRate => Coding::Rate,
            ComputingScheme::UnaryTemporal => Coding::Temporal,
        };
        Self::SignMagnitude(SignMagnitudeWindow::new(
            coding, bitwidth, mul_cycles, elements,
        ))
    }

    /// The most one window of the GEMM `input · weights` moves an OREG, in
    /// magnitude, on its way or at its end: `mul_cycles` for rate and
    /// temporal coding, `2^bitwidth` for uGEMM-H and `max|I|·max|W|` for a
    /// binary product (see the module docs).
    pub(crate) fn bound(&self, input: &Matrix<i64>, weights: &Matrix<i64>) -> u128 {
        let max_abs = |m: &Matrix<i64>| {
            let max = m.as_slice().iter().map(|v| v.unsigned_abs()).max();
            u128::from(max.unwrap_or(0))
        };
        match self {
            Self::Binary => max_abs(input) * max_abs(weights),
            Self::SignMagnitude(window) => u128::from(window.bound()),
            Self::Bipolar(window) => u128::from(window.bound()),
        }
    }
}

/// A unary window kind of [`ClosedFormWindow`]: the two operand halves
/// the tile sweep builds ahead of its windows.
pub(crate) trait UnaryWindow {
    /// One input element's half of its windows.
    type Row<'a>: WindowRow
    where
        Self: 'a;

    /// The row of input level `input`: a lookup when the window
    /// tabulates its levels, built in `O(bitwidth)` otherwise.
    fn row(&self, input: i64) -> Self::Row<'_>;

    /// The lane threshold a PE holding weight level `weight` counts
    /// against.
    fn lane(&self, weight: i64) -> u32;

    /// The most one window moves an OREG, in magnitude: at most
    /// `2^MAX_BITWIDTH`, so one window's count fits an `i32` lane.
    fn bound(&self) -> u64;

    /// Writes the lane groups of `weights` to `groups`, [`LANES`] weights
    /// per group; the spare lanes of a ragged last group keep their value.
    fn lanes(&self, weights: &[i64], groups: &mut [LaneGroup]) {
        for (group, weights) in groups.iter_mut().zip(weights.chunks(LANES)) {
            let lanes = group.thresholds.iter_mut().zip(&mut group.signs);
            for ((threshold, sign), &weight) in lanes.zip(weights) {
                *threshold = self.lane(weight);
                *sign = -i32::from(weight < 0);
            }
        }
    }
}

/// [`LANES`] weights of a row fold as its PEs hold them, converted once
/// per fold: each weight's lane threshold ([`UnaryWindow::lane`]) and its
/// sign `WSIGN` as an `i32` mask.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneGroup {
    /// The weights' lane thresholds.
    thresholds: [u32; LANES],
    /// All ones for a negative weight, zero otherwise. A uGEMM-H window's
    /// threshold carries its weight's sign, so it ignores these.
    signs: [i32; LANES],
}

/// One input element's half of a closed-form MAC window: everything that
/// depends on the input alone, counted against its whole row of the
/// weight matrix.
pub(crate) trait WindowRow {
    /// Adds to lane `l` of `sums[g]` the signed count a PE holding lane
    /// `l` of `groups[g]` accumulates over one MAC window on this row's
    /// input, identical to what the stepped machine accumulates: the
    /// lane-group kernel of the sweep, branch-free in `i32` lanes. One
    /// count moves a lane by at most [`UnaryWindow::bound`]; keeping the
    /// sums within `i32` across rows is the caller's part. Adding serves
    /// both of the sweep's M-ends: a fold the OREG bound covers sums a
    /// vector's windows over its rows, and the clamping cascade counts one
    /// row into zeroed groups.
    fn accumulate(&self, groups: &[LaneGroup], sums: &mut [[i32; LANES]]);
}

/// One Sobol prefix of a row: a row of its window's level table, or split
/// for this row alone.
enum Prefix<'a> {
    /// A row of the level table.
    Table(PrefixClasses<'a>),
    /// Split for this row.
    Own(SobolPrefix),
}

impl Prefix<'_> {
    #[inline]
    fn classes(&self) -> PrefixClasses<'_> {
        match self {
            Prefix::Table(classes) => *classes,
            Prefix::Own(prefix) => prefix.classes(),
        }
    }
}

/// A rate- or temporal-coded window (see the module docs).
pub(crate) struct SignMagnitudeWindow {
    /// Enable counts of a `mul_cycles`-cycle window, by IFM magnitude.
    ifm: IfmPrefix,
    /// Direction numbers of the weight RNG (Sobol dimension 0).
    weight_rng: Vec<u64>,
    /// `2^(bitwidth−1)`: the largest magnitude.
    period: u64,
    /// `mul_cycles`: the window's length, so the most it counts.
    cycles: u64,
    /// Row `l`: the weight RNG's prefix over the enable count of input
    /// magnitude `l`, for every magnitude `0..=period`, when the window
    /// tabulates its levels.
    levels: Option<PrefixTable>,
}

impl SignMagnitudeWindow {
    fn new(coding: Coding, bitwidth: u32, mul_cycles: u64, elements: usize) -> Self {
        let period = 1u64 << (bitwidth - 1);
        assert!(
            mul_cycles <= period,
            "window of {mul_cycles} cycles exceeds the RNG period {period}"
        );
        let ifm = IfmSource::for_coding(coding, bitwidth).prefix(mul_cycles);
        let weight_rng = SobolSource::dimension(0, bitwidth - 1)
            .directions()
            .to_vec();
        let levels = tabulate(period + 1, elements).then(|| {
            PrefixTable::new(
                &weight_rng,
                (0..=period).map(|magnitude| ifm.enable_count(magnitude)),
            )
        });
        Self {
            ifm,
            weight_rng,
            period,
            cycles: mul_cycles,
            levels,
        }
    }
}

impl UnaryWindow for SignMagnitudeWindow {
    type Row<'a> = SignMagnitudeRow<'a>;

    /// The weight RNG's prefix over the window's enable count, and the
    /// input's sign.
    #[inline]
    fn row(&self, input: i64) -> SignMagnitudeRow<'_> {
        // Sign-magnitude operands clamp their magnitude to the period
        // 2^(bitwidth−1), like `SignMagnitude::from_signed` (clamping
        // keeps the sign). The IFM source and the weight RNG both have
        // that period, and both prefix counts clamp their threshold to it.
        let magnitude = input.unsigned_abs().min(self.period);
        let weight = match &self.levels {
            Some(table) => Prefix::Table(table.row(magnitude as usize)),
            None => Prefix::Own(SobolPrefix::new(
                &self.weight_rng,
                self.ifm.enable_count(magnitude),
            )),
        };
        SignMagnitudeRow {
            weight,
            sign: -i32::from(input < 0),
        }
    }

    /// `|W|`; any magnitude past the period clamps to it in the count.
    #[inline]
    fn lane(&self, weight: i64) -> u32 {
        u32::try_from(weight.unsigned_abs()).unwrap_or(u32::MAX)
    }

    /// `mul_cycles`: a window counts at most its enabled cycles.
    fn bound(&self) -> u64 {
        self.cycles
    }
}

/// A rate- or temporal-coded window's row.
pub(crate) struct SignMagnitudeRow<'a> {
    /// The weight RNG's prefix over the window's enabled cycles.
    weight: Prefix<'a>,
    /// `ISIGN` as a mask: all ones for a negative input.
    sign: i32,
}

impl WindowRow for SignMagnitudeRow<'_> {
    fn accumulate(&self, groups: &[LaneGroup], sums: &mut [[i32; LANES]]) {
        let weight = self.weight.classes();
        for (group, sums) in groups.iter().zip(sums) {
            let ones = weight.count_lanes(group.thresholds);
            for ((sum, &ones), &wsign) in sums.iter_mut().zip(&ones).zip(&group.signs) {
                // All ones for `ISIGN ⊕ WSIGN`: `(x ^ sign) − sign` negates
                // the count without a branch on the data. At most
                // `mul_cycles ≤ 2^23` ones: lint: allow(narrowing)
                let (ones, sign) = (ones as i32, wsign ^ self.sign);
                *sum += (ones ^ sign) - sign;
            }
        }
    }
}

/// A uGEMM-H window (see the module docs).
pub(crate) struct BipolarWindow {
    /// `2^(bitwidth−1)`: the offset of a bipolar threshold.
    half: i64,
    /// Direction numbers of the ones-phase RNG (Sobol dimension 0).
    ones_rng: Vec<u64>,
    /// Direction numbers of the zeros-phase RNG (Sobol dimension 2).
    zeros_rng: Vec<u64>,
    /// Row `n` of each: the phase RNG's prefix over `n` cycles, for every
    /// `n` in `0..=2^bitwidth`, when the window tabulates its levels.
    levels: Option<[PrefixTable; 2]>,
}

/// The bipolar threshold `clamp(level) + half` of a level, with
/// `half = 2^(bitwidth−1)`.
fn bipolar_threshold(level: i64, half: i64) -> u64 {
    (level.clamp(-half, half) + half) as u64
}

impl BipolarWindow {
    fn new(bitwidth: u32, elements: usize) -> Self {
        let ones_rng = SobolSource::dimension(0, bitwidth).directions().to_vec();
        let zeros_rng = SobolSource::dimension(2, bitwidth).directions().to_vec();
        let period = 1u64 << bitwidth;
        let levels = tabulate(period + 1, elements)
            .then(|| [&ones_rng, &zeros_rng].map(|rng| PrefixTable::new(rng, 0..=period)));
        Self {
            half: 1i64 << (bitwidth - 1),
            ones_rng,
            zeros_rng,
            levels,
        }
    }
}

impl UnaryWindow for BipolarWindow {
    type Row<'a> = BipolarRow<'a>;

    /// `n1` input-high cycles on the ones RNG, `n0` input-low cycles on
    /// the zeros RNG.
    #[inline]
    fn row(&self, input: i64) -> BipolarRow<'_> {
        let n1 = bipolar_threshold(input, self.half);
        let n0 = 2 * self.half as u64 - n1;
        let (ones, zeros) = match &self.levels {
            Some([ones, zeros]) => (
                Prefix::Table(ones.row(n1 as usize)),
                Prefix::Table(zeros.row(n0 as usize)),
            ),
            None => (
                Prefix::Own(SobolPrefix::new(&self.ones_rng, n1)),
                Prefix::Own(SobolPrefix::new(&self.zeros_rng, n0)),
            ),
        };
        BipolarRow {
            ones,
            zeros,
            // |n0 − half| ≤ 2^(bitwidth−1) ≤ 2^23: lint: allow(narrowing)
            base: 2 * (n0 as i64 - self.half) as i32,
        }
    }

    /// The bipolar threshold of the weight.
    #[inline]
    fn lane(&self, weight: i64) -> u32 {
        // At most 2^bitwidth ≤ 2^24: lint: allow(narrowing)
        bipolar_threshold(weight, self.half) as u32
    }

    /// `2^bitwidth`: a window walks that many steps of ±1.
    fn bound(&self) -> u64 {
        2 * self.half.unsigned_abs()
    }
}

/// A uGEMM-H window's row.
pub(crate) struct BipolarRow<'a> {
    /// The ones-phase RNG's prefix over the input-high cycles.
    ones: Prefix<'a>,
    /// The zeros-phase RNG's prefix over the input-low cycles.
    zeros: Prefix<'a>,
    /// `2·(n0 − 2^(bitwidth−1))`: the window's sum against threshold 0,
    /// where neither phase counts a random number below it.
    base: i32,
}

impl WindowRow for BipolarRow<'_> {
    fn accumulate(&self, groups: &[LaneGroup], sums: &mut [[i32; LANES]]) {
        let (ones, zeros) = (self.ones.classes(), self.zeros.classes());
        for (group, sums) in groups.iter().zip(sums) {
            let ones = ones.count_lanes(group.thresholds);
            let zeros = zeros.count_lanes(group.thresholds);
            for ((sum, &ones), &zeros) in sums.iter_mut().zip(&ones).zip(&zeros) {
                // `2·(ones + n0 − zeros) − 2^bitwidth`, with both counts at
                // most 2^bitwidth ≤ 2^24: lint: allow(narrowing)
                *sum += 2 * (ones as i32 - zeros as i32) + self.base;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::UnaryRow;
    use usystolic_unary::rng::NumberSource;
    use usystolic_unary::sign::SignMagnitude;

    /// The counts of one input element against a row of weights, through
    /// one shared row the way the tile sweep evaluates them.
    fn row_counts(window: &ClosedFormWindow, input: i64, weights: &[i64]) -> Vec<i64> {
        match window {
            ClosedFormWindow::Binary => weights.iter().map(|&w| input * w).collect(),
            ClosedFormWindow::SignMagnitude(w) => unary_counts(w, input, weights),
            ClosedFormWindow::Bipolar(w) => unary_counts(w, input, weights),
        }
    }

    fn unary_counts(window: &impl UnaryWindow, input: i64, weights: &[i64]) -> Vec<i64> {
        let mut groups = vec![LaneGroup::default(); weights.len().div_ceil(LANES)];
        window.lanes(weights, &mut groups);
        let mut sums = vec![[0; LANES]; groups.len()];
        window.row(input).accumulate(&groups, &mut sums);
        let counts = &sums.as_flattened()[..weights.len()];
        counts.iter().map(|&count| i64::from(count)).collect()
    }

    #[test]
    fn mode_packs_all_unary_schemes() {
        // Every scheme — rate, temporal, uGEMM-H and the binary baselines
        // — takes the closed form at its default OREG: no scheme is
        // serial-only, and a Serial request always steps the machine.
        for scheme in ComputingScheme::ALL {
            let cfg = SystolicConfig::new(4, 4, scheme, 8).expect("valid test configuration");
            assert_eq!(
                KernelMode::Auto.resolve(&cfg),
                KernelPath::ClosedForm,
                "{scheme}"
            );
            assert_eq!(
                KernelMode::Serial.resolve(&cfg),
                KernelPath::Serial,
                "{scheme}"
            );
        }
        assert_eq!(KernelMode::default(), KernelMode::Auto);
        assert_eq!(KernelMode::Auto.to_string(), "auto");
        assert_eq!(KernelMode::Serial.to_string(), "serial");
        assert_eq!(KernelPath::ClosedForm.to_string(), "closed-form");
        assert_eq!(KernelPath::Serial.to_string(), "serial");
    }

    #[test]
    fn resolve_applies_per_config_guards() {
        let cfg = |scheme, acc| {
            SystolicConfig::new(4, 4, scheme, 8)
                .expect("valid test configuration")
                .with_acc_width(acc)
        };
        // uGEMM-H takes the closed form at acc_width ≥ bitwidth + 2 and
        // not below (the lump add could clamp mid-window there).
        let ug = ComputingScheme::UGemmHybrid;
        assert_eq!(
            KernelMode::Auto.resolve(&cfg(ug, 10)),
            KernelPath::ClosedForm
        );
        assert_eq!(
            KernelMode::Auto.resolve(&cfg(ug, 32)),
            KernelPath::ClosedForm
        );
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
    fn closed_form_matches_stepped_row() {
        // The closed form must agree with the stepped pipeline of a unary
        // row for both codings and every window shape, including
        // word-boundary multiply counts. bitwidth 7 puts the full window
        // at 64 cycles, bitwidth 8 at 128.
        let sm = |v: i64, bw: u32| SignMagnitude::from_signed(v, bw);
        for (scheme, coding) in [
            (ComputingScheme::UnaryRate, Coding::Rate),
            (ComputingScheme::UnaryTemporal, Coding::Temporal),
        ] {
            for bitwidth in [2u32, 4, 7, 8] {
                let period = 1u64 << (bitwidth - 1);
                let half = period as i64;
                let row_w = [half, -3, 0, 1 - half, 1, half / 2];
                for (mul, elements) in [1u64, period - 1, period]
                    .into_iter()
                    .flat_map(|mul| [(mul, 0), (mul, usize::MAX)])
                {
                    let window = ClosedFormWindow::new(scheme, bitwidth, mul, elements);
                    for level in [0i64, 1, -1, half / 3, -half / 2, half, -half] {
                        let weights = row_w.iter().map(|&w| sm(w, bitwidth)).collect();
                        let mut row = UnaryRow::new(bitwidth, sm(level, bitwidth), weights, coding);
                        assert_eq!(
                            row_counts(&window, level, &row_w),
                            row.run(mul).to_vec(),
                            "{coding:?} bitwidth {bitwidth} mul {mul} level {level} \
                             elements {elements}"
                        );
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

        for (bitwidth, elements) in [2u32, 4, 6, 8, 12]
            .into_iter()
            .flat_map(|bitwidth| [(bitwidth, 0), (bitwidth, usize::MAX)])
        {
            let len = 1u64 << bitwidth;
            let half = len as i64 / 2;
            let window =
                ClosedFormWindow::new(ComputingScheme::UGemmHybrid, bitwidth, len, elements);
            let w_thrs = [0u64, 1, len / 3, len / 2, len - 1, len];
            let weights: Vec<i64> = w_thrs.iter().map(|&t| t as i64 - half).collect();
            for in_thr in [0u64, 1, len / 2 - 1, len / 2, len / 2 + 1, len - 1, len] {
                let counts = row_counts(&window, in_thr as i64 - half, &weights);
                for (&w_thr, count) in w_thrs.iter().zip(counts) {
                    assert_eq!(
                        count,
                        serial_window_sum(bitwidth, in_thr, w_thr),
                        "bitwidth {bitwidth} in_thr {in_thr} w_thr {w_thr} elements {elements}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_kernel_matches_row_fast_path() {
        let sm = |v: i64| SignMagnitude::from_signed(v, 8);
        let row_w = [100i64, -3, 77, 0, -128, 55];
        for (scheme, coding) in [
            (ComputingScheme::UnaryRate, Coding::Rate),
            (ComputingScheme::UnaryTemporal, Coding::Temporal),
        ] {
            for (mul, elements) in [(16u64, 0), (16, usize::MAX), (128, 0), (128, usize::MAX)] {
                let window = ClosedFormWindow::new(scheme, 8, mul, elements);
                for ifm_level in [0i64, 1, -77, 111, 128, -128] {
                    let weights = row_w.iter().map(|&w| sm(w)).collect();
                    let mut row = UnaryRow::new(8, sm(ifm_level), weights, coding);
                    assert_eq!(
                        row_counts(&window, ifm_level, &row_w),
                        row.run_packed(mul).to_vec(),
                        "{coding:?} mul {mul} ifm {ifm_level} elements {elements}"
                    );
                }
            }
        }
    }

    /// Whether `window` tabulates its input levels.
    fn tabulated(window: &ClosedFormWindow) -> bool {
        match window {
            ClosedFormWindow::Binary => false,
            ClosedFormWindow::SignMagnitude(w) => w.levels.is_some(),
            ClosedFormWindow::Bipolar(w) => w.levels.is_some(),
        }
    }

    #[test]
    fn windows_tabulate_only_levels_that_can_recur() {
        // 8 bits: 129 rate/temporal levels, 257 uGEMM-H levels; a table
        // needs at least as many input elements, and at most 2^12 + 1
        // levels whatever the GEMM (a 13-bit rate and a 12-bit uGEMM-H
        // window tabulate, a 14-bit rate and a 13-bit uGEMM-H do not).
        let ur = ComputingScheme::UnaryRate;
        let ut = ComputingScheme::UnaryTemporal;
        let ug = ComputingScheme::UGemmHybrid;
        for (scheme, bitwidth, levels) in [
            (ur, 8u32, 129usize),
            (ut, 8, 129),
            (ug, 8, 257),
            (ur, 13, 4097),
            (ug, 12, 4097),
        ] {
            let mul = if scheme == ug {
                1 << bitwidth
            } else {
                1 << (bitwidth - 1)
            };
            for (elements, tabled) in [(levels - 1, false), (levels, true), (usize::MAX, true)] {
                assert_eq!(
                    tabulated(&ClosedFormWindow::new(scheme, bitwidth, mul, elements)),
                    tabled,
                    "{scheme} N {bitwidth} elements {elements}"
                );
            }
        }
        for (scheme, bitwidth, mul) in [(ur, 14u32, 1 << 13), (ug, 13, 1 << 13), (ur, 24, 1 << 23)]
        {
            let window = ClosedFormWindow::new(scheme, bitwidth, mul, usize::MAX);
            assert!(!tabulated(&window), "{scheme} N {bitwidth}");
        }
        let bp = ComputingScheme::BinaryParallel;
        assert!(!tabulated(&ClosedFormWindow::new(bp, 8, 1, usize::MAX)));
    }

    #[test]
    fn level_tables_count_what_rows_built_per_element_count() {
        // Every input level, including magnitudes past the period, counts
        // the same through the table as through a row built on its own:
        // rate and temporal coding at 2..=13 bits (short, odd and full
        // windows) and uGEMM-H at 2..=12 bits, against weights at every
        // edge of the range.
        let mut cases = Vec::new();
        for bitwidth in 2u32..=13 {
            let period = 1u64 << (bitwidth - 1);
            for scheme in [ComputingScheme::UnaryRate, ComputingScheme::UnaryTemporal] {
                for mul in [1, (period / 2).max(1) + 1, period] {
                    cases.push((scheme, bitwidth, mul.min(period)));
                }
            }
            if bitwidth <= 12 {
                cases.push((ComputingScheme::UGemmHybrid, bitwidth, 2 * period));
            }
        }
        for (scheme, bitwidth, mul) in cases {
            let top = 1i64 << (bitwidth - 1);
            let range = if scheme == ComputingScheme::UGemmHybrid {
                top
            } else {
                2 * top
            };
            let weights: Vec<i64> = [0, 1, -1, top / 3, -top / 2, top - 1, top, -top]
                .into_iter()
                .chain([range + 5, -range - 5, 17 % (top + 1), -(29 % (top + 1))])
                .collect();
            let table = ClosedFormWindow::new(scheme, bitwidth, mul, usize::MAX);
            let own = ClosedFormWindow::new(scheme, bitwidth, mul, 0);
            assert!(tabulated(&table) && !tabulated(&own));
            for level in -range - 3..=range + 3 {
                assert_eq!(
                    row_counts(&table, level, &weights),
                    row_counts(&own, level, &weights),
                    "{scheme} N {bitwidth} mul {mul} level {level}"
                );
            }
        }
    }

    #[test]
    fn gemms_on_both_sides_of_the_table_rule_match_the_stepped_machine() {
        // 8-bit rate (129 levels) and uGEMM-H (257 levels): one GEMM with
        // exactly as many input elements as levels takes the table, one
        // with one element fewer builds its rows per element, and both
        // reproduce the stepped machine, outputs and statistics, at 1 and
        // 4 workers. Inputs sweep every level of the scheme.
        let mut rng = usystolic_unary::rng::SplitMix64::new(0x7AB1E);
        for (scheme, levels) in [
            (ComputingScheme::UnaryRate, 129usize),
            (ComputingScheme::UGemmHybrid, 257),
        ] {
            for (m, k) in [(1usize, levels), (1, levels - 1)] {
                let gemm = usystolic_gemm::GemmConfig::matmul(m, k, 5).expect("valid test shape");
                let input = usystolic_gemm::Matrix::from_fn(m, k, |_, j| (j % 257) as i64 - 128);
                let weights =
                    usystolic_gemm::Matrix::from_fn(k, 5, |_, _| rng.below(257) as i64 - 128);
                let cfg = SystolicConfig::new(16, 3, scheme, 8).expect("valid test configuration");
                let case = format!("{scheme} {m}x{k}");
                let window = ClosedFormWindow::new(scheme, 8, cfg.mul_cycles(), m * k);
                assert_eq!(tabulated(&window), m * k >= levels, "{case}");
                let (serial, serial_stats) = crate::cycle_accurate_gemm_with(
                    &cfg,
                    &gemm,
                    &input,
                    &weights,
                    KernelMode::Serial,
                    1,
                )
                .expect("serial path executes");
                for workers in [1usize, 4] {
                    let (fast, fast_stats) = crate::cycle_accurate_gemm_with(
                        &cfg,
                        &gemm,
                        &input,
                        &weights,
                        KernelMode::Auto,
                        workers,
                    )
                    .expect("closed form executes");
                    assert_eq!(fast, serial, "{case} workers {workers}");
                    assert_eq!(fast_stats, serial_stats, "{case} workers {workers}");
                }
            }
        }
    }
}
