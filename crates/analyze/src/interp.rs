//! Whole-network abstract interpretation over calibrated value ranges.
//!
//! The per-layer checks ([`crate::checks`]) reason with *worst-case*
//! operand ranges: every input and weight at full scale. This module
//! propagates the **calibrated** level ranges of
//! [`usystolic_models::calibration`] through a [`Network`] layer by layer
//! and re-derives the accumulator question with real ranges:
//!
//! * the per-window signed count of a MAC window is *monotone* in both
//!   operand magnitudes (a larger comparator threshold can only enable
//!   more cycles), so evaluating the tile sweep's closed-form window at
//!   the range extremes yields the exact per-window maximum — not an
//!   estimate;
//! * one OREG accumulates at most `depth = min(rows, K)` windows before
//!   its M-end drain (the partial-sum cascade of Fig. 7), so the exact
//!   accumulated bound is `depth × window_bound`;
//! * comparing that bound against the register capacity `2^(w-1) - 1`
//!   yields either a **proof of overflow freedom** (`USY060`, a note —
//!   even where the worst-case rule `USY020` rejects) or a **proof of
//!   saturation** (`USY061`, an error: a data point inside the calibrated
//!   ranges realises the bound).
//!
//! Early termination composes across layers: truncating a rate-coded
//! window from `2^(N-1)` to `2^(n-1)` cycles perturbs the scaled count by
//! at most `2^(N-n+1) + 2` (the van-der-Corput discrepancy of the Sobol
//! comparator sequences is ≤ 1 per threshold count). Dividing by the
//! layer's full-precision window bound gives a per-layer relative error,
//! and the network-level bound is the first-order Lipschitz composition
//! `Π(1+ε_l) − 1`, checked against a user budget (`USY062`/`USY063`).

use crate::checks::required_acc_width;
use crate::diag::Report;
use crate::spec::RawSpec;
use usystolic_core::{ComputingScheme, IfmSource};
use usystolic_models::calibration::{calibrate, NetworkCalibration};
use usystolic_models::zoo::Network;
use usystolic_obs::{JsonValue, ToJson};
use usystolic_unary::add::ACC_WIDTHS;
use usystolic_unary::packed::sobol_prefix_count;
use usystolic_unary::rng::SobolSource;
use usystolic_unary::MAX_BITWIDTH;

/// Exact largest signed-count magnitude one MAC window can contribute to
/// the OREG, given level-magnitude bounds on the two operands.
///
/// For the sign-magnitude unary schemes this evaluates the tile sweep's
/// closed-form window at the extremes (`input_levels`, `weight_levels`):
/// the enable count below `|I|` of the IFM source's prefix
/// ([`IfmSource::prefix`]), then the weight RNG's Sobol prefix count
/// below `|W|`. That is exact and achievable, by monotonicity of the two
/// comparator counts in their thresholds. A window longer than one RNG period (no
/// [`usystolic_core::SystolicConfig`] builds one) has no closed form and
/// gets the cycle count `mul_cycles`, which is sound. Binary schemes
/// contribute the full product. uGEMM-H's bipolar windows add ±1 every
/// multiply cycle, so `mul_cycles` is a sound (but not
/// achievability-proving) bound.
///
/// # Panics
///
/// Panics if a rate- or temporal-coded `bitwidth` exceeds
/// `MAX_BITWIDTH + 1`: its Sobol generators are wider than any prefix
/// splits ([`usystolic_unary::packed::SobolPrefix`]). [`analyze_network`]
/// rejects a spec past [`MAX_BITWIDTH`] before it gets here.
#[must_use]
pub fn window_bound(
    scheme: ComputingScheme,
    bitwidth: u32,
    mul_cycles: u64,
    input_levels: u64,
    weight_levels: u64,
) -> u64 {
    match scheme {
        ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => {
            input_levels * weight_levels
        }
        ComputingScheme::UGemmHybrid => mul_cycles,
        ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal => {
            // UR/UT always define a coding; the product fallback keeps
            // the bound sound if that invariant ever changes.
            let Some(coding) = scheme.coding() else {
                return input_levels * weight_levels;
            };
            let period = 1u64 << (bitwidth - 1);
            if mul_cycles > period {
                return mul_cycles;
            }
            let enabled = IfmSource::for_coding(coding, bitwidth)
                .prefix(mul_cycles)
                .enable_count(input_levels);
            let w_rng = SobolSource::dimension(0, bitwidth - 1);
            sobol_prefix_count(w_rng.directions(), enabled, weight_levels)
        }
    }
}

/// Sound per-window absolute error bound (in count units, post-shift) of
/// early-terminating a rate-coded window from `N` to `n` effective bits:
/// `2^(N-n+1) + 2`, zero when nothing is truncated.
#[must_use]
pub fn et_window_error(bitwidth: u32, effective_bitwidth: u32) -> u64 {
    if effective_bitwidth >= bitwidth {
        return 0;
    }
    (1u64 << (bitwidth - effective_bitwidth + 1)) + 2
}

/// The abstract interpreter's verdict on one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerVerdict {
    /// Layer name.
    pub name: String,
    /// Calibrated input level-magnitude bound.
    pub input_levels: u64,
    /// Calibrated weight level-magnitude bound.
    pub weight_levels: u64,
    /// Per-fold reduction depth `min(rows, K)`.
    pub depth: usize,
    /// Exact per-window count bound at the range extremes.
    pub window_bound: u64,
    /// Accumulated OREG bound `depth × window_bound`.
    pub acc_bound: u64,
    /// OREG capacity `2^(w-1) - 1` at the spec's accumulator width.
    pub acc_capacity: u64,
    /// Width the worst-case Section III-A rule would demand.
    pub worst_case_width: u32,
    /// Relative early-termination error bound of this layer.
    pub et_rel_error: f64,
}

impl ToJson for LayerVerdict {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", self.name.as_str().to_json()),
            ("input_levels", self.input_levels.to_json()),
            ("weight_levels", self.weight_levels.to_json()),
            ("depth", self.depth.to_json()),
            ("window_bound", self.window_bound.to_json()),
            ("acc_bound", self.acc_bound.to_json()),
            ("acc_capacity", self.acc_capacity.to_json()),
            ("worst_case_width", self.worst_case_width.to_json()),
            ("et_rel_error", self.et_rel_error.to_json()),
        ])
    }
}

/// Result of interpreting a whole network against one array spec.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkAnalysis {
    /// Network-level diagnostics (`USY06x`).
    pub report: Report,
    /// Per-layer verdicts, in execution order.
    pub layers: Vec<LayerVerdict>,
    /// Composed relative ET error bound `Π(1+ε_l) − 1` across layers.
    pub composed_et_error: f64,
}

impl ToJson for NetworkAnalysis {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("report", self.report.to_json()),
            (
                "layers",
                JsonValue::Array(self.layers.iter().map(ToJson::to_json).collect()),
            ),
            ("composed_et_error", self.composed_et_error.to_json()),
        ])
    }
}

/// Resolves the spec's early-termination request to an effective
/// bitwidth, mirroring the per-layer checks (which own the error
/// reporting for inconsistent requests).
fn resolved_effective_bitwidth(spec: &RawSpec) -> u32 {
    let full = spec.bitwidth;
    if let Some(cycles) = spec.mul_cycles {
        if cycles.is_power_of_two() {
            let n = cycles.trailing_zeros() + 1;
            if n <= full {
                return n;
            }
        }
        return full;
    }
    match spec.effective_bitwidth {
        Some(n) if (1..=full).contains(&n) => n,
        _ => full,
    }
}

/// Interprets `network` abstractly under `spec`'s array configuration,
/// proving per-layer overflow freedom or saturation with calibrated
/// ranges and composing early-termination error against `acc_budget`
/// (a full-scale relative error bound, e.g. `0.05`).
///
/// The returned report contains only network-level codes (`USY060`–
/// `USY063`); combine it with the per-layer [`crate::analyze`] reports
/// for the complete picture. Specs whose construction is too broken to
/// interpret (zero rows, unsupported bitwidth, an accumulator outside
/// [`ACC_WIDTHS`]) come back empty — the per-layer checks have already
/// rejected them (`USY001`, `USY002`, `USY020`/`USY022`).
#[must_use]
pub fn analyze_network(
    spec: &RawSpec,
    network: &Network,
    acc_budget: Option<f64>,
) -> NetworkAnalysis {
    let mut analysis = NetworkAnalysis::default();
    if spec.rows == 0 || !(2..=MAX_BITWIDTH).contains(&spec.bitwidth) {
        return analysis;
    }
    let full = spec.bitwidth;
    let ebt = resolved_effective_bitwidth(spec);
    let full_mul = 1u64 << (full - 1);
    let mul_cycles = match spec.scheme {
        ComputingScheme::BinaryParallel => 1,
        ComputingScheme::BinarySerial => u64::from(full),
        ComputingScheme::UGemmHybrid => 1u64 << full,
        ComputingScheme::UnaryRate => 1u64 << (ebt - 1),
        ComputingScheme::UnaryTemporal => full_mul,
    };

    let cal: NetworkCalibration = calibrate(network, full);
    let mut composed = 1.0f64;
    for (i, layer) in network.layers.iter().enumerate() {
        let depth = spec.rows.min(layer.gemm.reduction_len().max(1));
        let worst = required_acc_width(spec.scheme, full, depth);
        let acc = spec.acc_width.unwrap_or(worst);
        if !ACC_WIDTHS.contains(&acc) {
            return NetworkAnalysis::default();
        }
        let capacity = (1u64 << (acc - 1)) - 1;
        let (input_levels, weight_levels) = (cal.input_levels(i), cal.weight_levels(i));
        let bound = window_bound(spec.scheme, full, mul_cycles, input_levels, weight_levels);
        let acc_bound = depth as u64 * bound;

        if acc < worst && acc_bound <= capacity {
            analysis.report.note(
                "USY060",
                "acc_width",
                format!(
                    "{}/{}: accumulator width {acc} is below the worst-case requirement of \
                     {worst} bits, but calibrated ranges (|I| ≤ {input_levels}, |W| ≤ \
                     {weight_levels} levels) bound the {depth}-deep reduction at {acc_bound} ≤ \
                     capacity {capacity} — overflow-free",
                    network.name, layer.name
                ),
                "the reduced-resolution OREG can stay this narrow for this network".into(),
            );
        }
        if acc_bound > capacity && spec.scheme != ComputingScheme::UGemmHybrid {
            analysis.report.error(
                "USY061",
                "acc_width",
                format!(
                    "{}/{}: a {depth}-deep reduction of windows at the calibrated range extremes \
                     (|I| ≤ {input_levels}, |W| ≤ {weight_levels} levels) accumulates {acc_bound} \
                     > capacity {capacity} of the {acc}-bit OREG — saturation is reachable, not \
                     just possible",
                    network.name, layer.name
                ),
                format!("widen acc_width to at least {worst} or requantize the network"),
            );
        }

        let et_rel_error = if spec.scheme == ComputingScheme::UnaryRate && ebt < full {
            let full_bound = window_bound(spec.scheme, full, full_mul, input_levels, weight_levels);
            et_window_error(full, ebt) as f64 / full_bound.max(1) as f64
        } else {
            0.0
        };
        composed *= 1.0 + et_rel_error;

        analysis.layers.push(LayerVerdict {
            name: layer.name.clone(),
            input_levels,
            weight_levels,
            depth,
            window_bound: bound,
            acc_bound,
            acc_capacity: capacity,
            worst_case_width: worst,
            et_rel_error,
        });
    }
    analysis.composed_et_error = composed - 1.0;

    if let Some(budget) = acc_budget {
        let err = analysis.composed_et_error;
        if err > budget {
            analysis.report.error(
                "USY062",
                "acc_budget",
                format!(
                    "{}: composed early-termination error bound {err:.4} exceeds the accuracy \
                     budget {budget:.4} over {} layers",
                    network.name,
                    network.layers.len()
                ),
                "raise the effective bitwidth (fewer truncated cycles) or relax the budget".into(),
            );
        } else if err > budget / 2.0 {
            analysis.report.warning(
                "USY063",
                "acc_budget",
                format!(
                    "{}: composed early-termination error bound {err:.4} is within 2x of the \
                     accuracy budget {budget:.4}",
                    network.name
                ),
                "one more truncated bit would likely blow the budget; keep margin".into(),
            );
        }
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_models::zoo::mnist_cnn4;

    fn ur_edge() -> RawSpec {
        RawSpec::new(12, 14, ComputingScheme::UnaryRate, 8)
    }

    #[test]
    fn window_bound_is_monotone_and_capped() {
        let full = 128;
        let mut prev = 0;
        for levels in [0u64, 1, 16, 64, 127] {
            let b = window_bound(ComputingScheme::UnaryRate, 8, full, levels, 127);
            assert!(b >= prev, "monotone in |I|");
            assert!(b <= levels.min(full), "bounded by min(mul, |I|)");
            prev = b;
        }
        let mut prev = 0;
        for levels in [0u64, 1, 16, 64, 127] {
            let b = window_bound(ComputingScheme::UnaryRate, 8, full, 127, levels);
            assert!(b >= prev, "monotone in |W|");
            prev = b;
        }
        // Early termination caps the window count at mul_cycles.
        assert!(window_bound(ComputingScheme::UnaryRate, 8, 8, 127, 127) <= 8);
        // Binary is the exact product; uGEMM-H is the cycle count.
        assert_eq!(
            window_bound(ComputingScheme::BinaryParallel, 8, 1, 100, 50),
            5000
        );
        assert_eq!(
            window_bound(ComputingScheme::UGemmHybrid, 8, 256, 1, 1),
            256
        );
    }

    #[test]
    fn window_bound_full_run_reaches_the_operand_min() {
        // Over the full 2^(N-1) cycles the Sobol sequence is a
        // permutation of 0..128, so a weight at the sign-magnitude
        // maximum 128 passes every enabled cycle: the bound is exactly
        // |I|. At level 127 exactly one comparator value (127) fails.
        for i in [1u64, 5, 77, 127] {
            let b = window_bound(ComputingScheme::UnaryRate, 8, 128, i, 128);
            assert_eq!(b, i, "max-magnitude weight passes every enabled cycle");
            let b127 = window_bound(ComputingScheme::UnaryRate, 8, 128, i, 127);
            assert!(b127 == i || b127 == i - 1, "|W|=127 misses at most one");
        }
    }

    #[test]
    fn window_bound_matches_the_stepped_row() {
        // The bound is the tile sweep's closed form, so at every operand
        // pair it equals the count a stepped row of PEs accumulates.
        use usystolic_core::UnaryRow;
        use usystolic_unary::coding::Coding;
        use usystolic_unary::SignMagnitude;
        let sm = |v: u64| SignMagnitude::from_signed(v as i64, 8);
        for (scheme, coding) in [
            (ComputingScheme::UnaryRate, Coding::Rate),
            (ComputingScheme::UnaryTemporal, Coding::Temporal),
        ] {
            for mul in [8u64, 32, 127, 128] {
                for i in [0u64, 1, 77, 127, 128] {
                    for w in [0u64, 1, 64, 127, 128] {
                        let mut row = UnaryRow::new(8, sm(i), vec![sm(w)], coding);
                        assert_eq!(
                            window_bound(scheme, 8, mul, i, w),
                            row.run(mul)[0].unsigned_abs(),
                            "{scheme} mul {mul} |I| {i} |W| {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn window_bound_is_total_past_one_period() {
        // No configuration builds a window longer than the RNG period, but
        // the bound stays total (and sound) there: the cycle count.
        for scheme in [ComputingScheme::UnaryRate, ComputingScheme::UnaryTemporal] {
            assert_eq!(window_bound(scheme, 8, 1000, 127, 127), 1000);
            assert_eq!(window_bound(scheme, 8, 129, 300, 300), 129);
            // Levels past the largest magnitude clamp to it.
            assert_eq!(window_bound(scheme, 8, 128, 500, 500), 128);
        }
    }

    #[test]
    fn calibrated_ranges_prove_overflow_freedom_where_worst_case_rejects() {
        // Worst case demands 12 bits for a 12-deep 8-bit unary reduction;
        // the first MNIST layers' calibrated ranges fit a narrower OREG.
        let need = required_acc_width(ComputingScheme::UnaryRate, 8, 12);
        let spec = ur_edge().with_acc_width(need - 2);
        let net = mnist_cnn4();
        let a = analyze_network(&spec, &net, None);
        assert!(a.report.has("USY060"), "{}", a.report);
        assert!(a.report.is_legal(), "notes must not reject: {}", a.report);
        assert_eq!(a.layers.len(), 4);
    }

    #[test]
    fn tiny_accumulator_provably_saturates() {
        let spec = ur_edge().with_acc_width(4);
        let a = analyze_network(&spec, &mnist_cnn4(), None);
        assert!(a.report.has("USY061"), "{}", a.report);
        assert!(!a.report.is_legal());
    }

    #[test]
    fn default_width_never_saturates_and_never_notes() {
        // At the worst-case default width there is nothing to prove and
        // nothing to reject, for every scheme.
        for scheme in ComputingScheme::ALL {
            let spec = RawSpec::new(12, 14, scheme, 8);
            let a = analyze_network(&spec, &mnist_cnn4(), None);
            assert!(!a.report.has("USY060"), "{scheme:?}");
            assert!(!a.report.has("USY061"), "{scheme:?}");
        }
    }

    #[test]
    fn et_error_composes_and_gates_on_budget() {
        let spec = ur_edge().with_mul_cycles(8); // n = 4: aggressive ET
        let tight = analyze_network(&spec, &mnist_cnn4(), Some(0.01));
        assert!(tight.report.has("USY062"), "{}", tight.report);
        assert!(tight.composed_et_error > 0.0);

        let full = analyze_network(&ur_edge().with_mul_cycles(128), &mnist_cnn4(), Some(0.01));
        assert!(full.report.is_legal(), "{}", full.report);
        assert_eq!(full.composed_et_error, 0.0);
    }

    #[test]
    fn near_budget_warns_without_rejecting() {
        // Find a budget sitting between err and 2*err: warn, don't error.
        let spec = ur_edge().with_mul_cycles(8);
        let err = analyze_network(&spec, &mnist_cnn4(), None).composed_et_error;
        assert!(err > 0.0);
        let a = analyze_network(&spec, &mnist_cnn4(), Some(err * 1.5));
        assert!(a.report.has("USY063"), "{}", a.report);
        assert!(a.report.is_legal(), "{}", a.report);
    }

    #[test]
    fn et_error_shrinks_with_more_effective_bits() {
        let net = mnist_cnn4();
        let coarse = analyze_network(&ur_edge().with_mul_cycles(8), &net, None);
        let fine = analyze_network(&ur_edge().with_mul_cycles(64), &net, None);
        assert!(fine.composed_et_error < coarse.composed_et_error);
    }

    #[test]
    fn broken_specs_interpret_to_nothing() {
        let a = analyze_network(
            &RawSpec::new(0, 14, ComputingScheme::UnaryRate, 8),
            &mnist_cnn4(),
            None,
        );
        assert!(a.layers.is_empty() && a.report.diagnostics.is_empty());
        let a = analyze_network(&ur_edge().with_acc_width(1), &mnist_cnn4(), Some(0.01));
        assert!(a.layers.is_empty() && a.report.diagnostics.is_empty());
    }

    #[test]
    fn verdicts_serialize_to_json() {
        let a = analyze_network(&ur_edge(), &mnist_cnn4(), None);
        let json = a.to_json().render();
        assert!(json.contains("\"window_bound\""), "{json}");
        assert!(json.contains("\"composed_et_error\""), "{json}");
    }
}
