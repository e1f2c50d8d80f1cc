//! MAC-window evaluation for the tile sweep: one closed form for every
//! scheme, and the one dispatch decision between it and the stepped
//! reference machine.
//!
//! [`crate::array2d`] runs every GEMM tile by tile. Per tile it either
//! steps the bit-serial reference machine or evaluates each MAC window in
//! one shot with `ClosedFormWindow`, then replays the M-end partial-sum
//! cascade through the reduced-resolution OREGs.
//! [`KernelMode::resolve`] picks one of the two per GEMM.
//!
//! Every window reduces to counts of comparator outputs below a
//! threshold, over number sources that restart from the same seed every
//! window (Fig. 4/7). Each count is a closed-form Sobol prefix count
//! ([`usystolic_unary::packed::SobolPrefix`]), split the way the array
//! splits the work. The input element's half, `row(input)`, is built once
//! per input element in `O(bitwidth)` and shared by the ≤ C PEs of its
//! row, as Fig. 7's leftmost PE generates the (IFM bit, random number)
//! pair once for the whole row. Each PE's half, `count(weight)`, is then a
//! branch-free sum of one add and one shift per prefix class.
//! `ClosedFormWindow` is built once per GEMM and holds no per-tile state:
//!
//! * a binary window is the exact product `I·W`;
//! * a rate- or temporal-coded window is `sign · count₀(enabled(|I|), |W|)`.
//!   The weight RNG (Sobol dimension 0) advances only on enabled cycles,
//!   so a window sees only *how many* enable bits its IFM produced: the
//!   IFM source's own prefix count below `|I|` ([`IfmSource::prefix`]:
//!   Sobol dimension 1 at `mul_cycles` for rate coding, a counter for
//!   temporal coding). The row builds the weight RNG's prefix over that
//!   count. Every increment of one window carries the same sign
//!   (`ISIGN ⊕ WSIGN`), and the downstream
//!   [`usystolic_unary::add::BinaryAccumulator`] clamps monotonically, so
//!   the lump-signed count is bit-exact;
//! * a uGEMM-H window mixes +1 and −1 increments. The input bit selects
//!   which of two RNGs advances (ones phase: Sobol dimension 0, zeros
//!   phase: dimension 2), and the input RNG runs one full period, a
//!   permutation, so `n1 = min(T_in, 2^N)` cycles are input-high and
//!   `n0 = 2^N − n1` input-low. The row builds both phase prefixes, and
//!   the window sums to `2·(count₀(n1, T_w) + n0 − count₂(n0, T_w)) − 2^N`.
//!   The lump add is bit-exact only when the OREG cannot clamp mid-window
//!   (`acc_width ≥ bitwidth + 2`), which [`KernelMode::resolve`] enforces.
//!
//! No window outlasts one RNG period (`mul_cycles ≤ 2^(bitwidth−1)` for
//! sign-magnitude windows, `2^N` for uGEMM-H's `N`-bit RNGs), which is
//! where the prefix counts are exact. `crate::array2d::tests` pin every
//! scheme against the stepped machine.

use crate::config::SystolicConfig;
use crate::pe::{IfmPrefix, IfmSource};
use crate::scheme::ComputingScheme;
use std::sync::atomic::{AtomicBool, Ordering};
use usystolic_unary::coding::Coding;
use usystolic_unary::packed::SobolPrefix;
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
    /// Closed-form window arithmetic, `O(bitwidth)` per input element and
    /// branch-free per window, with no per-tile stream of any kind (see
    /// the module docs).
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

/// The closed-form MAC window of one GEMM's scheme: built once per GEMM,
/// shared by every tile. Each kind splits a window into the input
/// element's half (`row(input)`, a [`WindowRow`]) and the per-weight
/// count, so the tile sweep stays monomorphised per kind (see the module
/// docs).
pub(crate) enum ClosedFormWindow {
    /// Binary schemes: the exact product ([`BinaryRow`]).
    Binary,
    /// Rate and temporal coding: a signed weight prefix count.
    SignMagnitude(SignMagnitudeWindow),
    /// uGEMM-H: the two constant-sign phases of a bipolar window.
    Bipolar(BipolarWindow),
}

impl ClosedFormWindow {
    /// The window of `scheme` at `bitwidth`-bit data, `mul_cycles`
    /// multiply cycles per window (a uGEMM-H window is always its full
    /// `2^bitwidth`-cycle period).
    ///
    /// # Panics
    ///
    /// Panics if a rate- or temporal-coded window exceeds the weight RNG
    /// period `2^(bitwidth−1)`: the Sobol prefix count has no closed form
    /// past one period. Rate windows (`2^(EBT−1)` cycles) and temporal
    /// windows are at most one period by construction.
    pub(crate) fn new(scheme: ComputingScheme, bitwidth: u32, mul_cycles: u64) -> Self {
        let coding = match scheme {
            ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => return Self::Binary,
            ComputingScheme::UGemmHybrid => {
                return Self::Bipolar(BipolarWindow {
                    half: 1i64 << (bitwidth - 1),
                    ones_rng: SobolSource::dimension(0, bitwidth).directions().to_vec(),
                    zeros_rng: SobolSource::dimension(2, bitwidth).directions().to_vec(),
                })
            }
            ComputingScheme::UnaryRate => Coding::Rate,
            ComputingScheme::UnaryTemporal => Coding::Temporal,
        };
        let period = 1u64 << (bitwidth - 1);
        assert!(
            mul_cycles <= period,
            "window of {mul_cycles} cycles exceeds the RNG period {period}"
        );
        Self::SignMagnitude(SignMagnitudeWindow {
            ifm: IfmSource::for_coding(coding, bitwidth).prefix(mul_cycles),
            weight_rng: SobolSource::dimension(0, bitwidth - 1)
                .directions()
                .to_vec(),
        })
    }
}

/// One input element's half of a closed-form MAC window: everything that
/// depends on the input alone, built once per input element and counted
/// against every weight of its PE row.
pub(crate) trait WindowRow {
    /// The signed count a PE holding weight level `weight` accumulates
    /// over one MAC window on this row's input, identical to what the
    /// stepped machine accumulates.
    fn count(&self, weight: i64) -> i64;
}

/// A binary window's row: the input level itself.
pub(crate) struct BinaryRow(pub(crate) i64);

impl WindowRow for BinaryRow {
    fn count(&self, weight: i64) -> i64 {
        self.0 * weight
    }
}

/// A rate- or temporal-coded window (see the module docs).
pub(crate) struct SignMagnitudeWindow {
    /// Enable counts of a `mul_cycles`-cycle window, by IFM magnitude.
    ifm: IfmPrefix,
    /// Direction numbers of the weight RNG (Sobol dimension 0).
    weight_rng: Vec<u64>,
}

impl SignMagnitudeWindow {
    /// The row of input level `input`: the weight RNG's prefix over the
    /// window's enable count, and the input's sign.
    pub(crate) fn row(&self, input: i64) -> SignMagnitudeRow {
        // Sign-magnitude operands clamp their magnitude to the period
        // 2^(bitwidth−1), like `SignMagnitude::from_signed` (clamping
        // keeps the sign). The IFM source and the weight RNG both have
        // that period, and both prefix counts clamp their threshold to it.
        let enabled = self.ifm.enable_count(input.unsigned_abs());
        SignMagnitudeRow {
            weight: SobolPrefix::new(&self.weight_rng, enabled),
            negative: input < 0,
        }
    }
}

/// A rate- or temporal-coded window's row.
pub(crate) struct SignMagnitudeRow {
    /// The weight RNG's prefix over the window's enabled cycles.
    weight: SobolPrefix,
    /// `ISIGN`.
    negative: bool,
}

impl WindowRow for SignMagnitudeRow {
    fn count(&self, weight: i64) -> i64 {
        let ones = self.weight.count(weight.unsigned_abs()) as i64;
        if (weight < 0) != self.negative {
            -ones
        } else {
            ones
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
}

/// The bipolar threshold `clamp(level) + half` of a level, with
/// `half = 2^(bitwidth−1)`.
fn bipolar_threshold(level: i64, half: i64) -> u64 {
    (level.clamp(-half, half) + half) as u64
}

impl BipolarWindow {
    /// The row of input level `input`: `n1` input-high cycles on the ones
    /// RNG, `n0` input-low cycles on the zeros RNG.
    pub(crate) fn row(&self, input: i64) -> BipolarRow {
        let n1 = bipolar_threshold(input, self.half);
        let n0 = 2 * self.half as u64 - n1;
        BipolarRow {
            ones: SobolPrefix::new(&self.ones_rng, n1),
            zeros: SobolPrefix::new(&self.zeros_rng, n0),
            n0,
            half: self.half,
        }
    }
}

/// A uGEMM-H window's row.
pub(crate) struct BipolarRow {
    /// The ones-phase RNG's prefix over the input-high cycles.
    ones: SobolPrefix,
    /// The zeros-phase RNG's prefix over the input-low cycles.
    zeros: SobolPrefix,
    /// Input-low cycles.
    n0: u64,
    /// `2^(bitwidth−1)`.
    half: i64,
}

impl WindowRow for BipolarRow {
    fn count(&self, weight: i64) -> i64 {
        let t_w = bipolar_threshold(weight, self.half);
        let plus = self.ones.count(t_w) + self.n0 - self.zeros.count(t_w);
        2 * (plus as i64 - self.half)
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
        fn counts(row: &impl WindowRow, weights: &[i64]) -> Vec<i64> {
            weights.iter().map(|&w| row.count(w)).collect()
        }
        match window {
            ClosedFormWindow::Binary => counts(&BinaryRow(input), weights),
            ClosedFormWindow::SignMagnitude(w) => counts(&w.row(input), weights),
            ClosedFormWindow::Bipolar(w) => counts(&w.row(input), weights),
        }
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
                for mul in [1u64, period - 1, period] {
                    let window = ClosedFormWindow::new(scheme, bitwidth, mul);
                    for level in [0i64, 1, -1, half / 3, -half / 2, half, -half] {
                        let weights = row_w.iter().map(|&w| sm(w, bitwidth)).collect();
                        let mut row = UnaryRow::new(bitwidth, sm(level, bitwidth), weights, coding);
                        assert_eq!(
                            row_counts(&window, level, &row_w),
                            row.run(mul).to_vec(),
                            "{coding:?} bitwidth {bitwidth} mul {mul} level {level}"
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

        for bitwidth in [2u32, 4, 6, 8, 12] {
            let len = 1u64 << bitwidth;
            let half = len as i64 / 2;
            let window = ClosedFormWindow::new(ComputingScheme::UGemmHybrid, bitwidth, len);
            let w_thrs = [0u64, 1, len / 3, len / 2, len - 1, len];
            let weights: Vec<i64> = w_thrs.iter().map(|&t| t as i64 - half).collect();
            for in_thr in [0u64, 1, len / 2 - 1, len / 2, len / 2 + 1, len - 1, len] {
                let counts = row_counts(&window, in_thr as i64 - half, &weights);
                for (&w_thr, count) in w_thrs.iter().zip(counts) {
                    assert_eq!(
                        count,
                        serial_window_sum(bitwidth, in_thr, w_thr),
                        "bitwidth {bitwidth} in_thr {in_thr} w_thr {w_thr}"
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
            for mul in [16u64, 128] {
                let window = ClosedFormWindow::new(scheme, 8, mul);
                for ifm_level in [0i64, 1, -77, 111, 128, -128] {
                    let weights = row_w.iter().map(|&w| sm(w)).collect();
                    let mut row = UnaryRow::new(8, sm(ifm_level), weights, coding);
                    assert_eq!(
                        row_counts(&window, ifm_level, &row_w),
                        row.run_packed(mul).to_vec(),
                        "{coding:?} mul {mul} ifm {ifm_level}"
                    );
                }
            }
        }
    }
}
