//! The invariant checks.
//!
//! [`analyze`] runs every check that its inputs allow: the spec alone
//! covers construction, early termination, accumulator width and RNG
//! wiring; adding a [`GemmConfig`] enables schedule/fold checks and
//! workload-aware accumulator depth; adding a [`MemoryHierarchy`] enables
//! the bandwidth-feasibility checks. All checks are closed-form — nothing
//! is simulated.

use crate::diag::Report;
use crate::spec::{RawSpec, RngWiring};
use usystolic_core::{ComputingScheme, SystolicConfig, TileMapping};
use usystolic_gemm::GemmConfig;
use usystolic_sim::memory::MemoryHierarchy;
use usystolic_sim::runtime::ideal_cycles;
use usystolic_sim::traffic::layer_traffic;
use usystolic_unary::add::ACC_WIDTHS;
use usystolic_unary::MAX_BITWIDTH;

/// Minimum accumulator (OREG) width for a reduction of `depth` products.
///
/// Binary schemes produce full-resolution `2N`-bit products; the HUB
/// schemes (uSystolic, uGEMM-H) keep products at the input resolution
/// `N` — the reduced-resolution accumulation of Section III-A. Summing
/// `depth` of them adds `ceil(log2(depth))` carry bits, plus one sign bit
/// and one guard bit for the sign-magnitude maximum of `2^(N-1)`
/// inclusive.
#[must_use]
pub fn required_acc_width(scheme: ComputingScheme, bitwidth: u32, depth: usize) -> u32 {
    let fold_bits = (depth.max(2) - 1).ilog2() + 1;
    match scheme {
        ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => {
            2 * bitwidth + fold_bits + 2
        }
        ComputingScheme::UGemmHybrid
        | ComputingScheme::UnaryRate
        | ComputingScheme::UnaryTemporal => bitwidth + fold_bits + 2,
    }
}

/// Runs every applicable invariant check over the inputs.
///
/// Pass `gemm` to also validate the weight-stationary schedule for a
/// specific workload, and `memory` (with `gemm`) to validate bandwidth
/// feasibility of the memory hierarchy.
#[must_use]
pub fn analyze(
    spec: &RawSpec,
    gemm: Option<&GemmConfig>,
    memory: Option<&MemoryHierarchy>,
) -> Report {
    let mut report = Report::default();
    check_construction(spec, &mut report);
    let ebt = check_early_termination(spec, &mut report);
    check_accumulator(spec, gemm, &mut report);
    check_wiring(spec, &mut report);
    check_fifo(spec, &mut report);
    if let Some(gemm) = gemm {
        check_schedule(spec, gemm, &mut report);
        if let Some(memory) = memory {
            check_bandwidth(spec, ebt, gemm, memory, &mut report);
        }
    }
    report
}

fn check_construction(spec: &RawSpec, report: &mut Report) {
    if spec.rows == 0 || spec.cols == 0 {
        report.error(
            "USY001",
            "rows",
            format!(
                "array shape {}x{} has a zero dimension",
                spec.rows, spec.cols
            ),
            "use a non-empty array, e.g. the paper's 12x14 edge or 256x256 cloud shape".into(),
        );
    }
    if !(2..=MAX_BITWIDTH).contains(&spec.bitwidth) {
        report.error(
            "USY002",
            "bitwidth",
            format!(
                "data bitwidth {} outside the supported 2..={MAX_BITWIDTH}",
                spec.bitwidth
            ),
            "the paper evaluates 4..16-bit data; pick a bitwidth in range".into(),
        );
    }
}

/// Resolves the requested early-termination policy to an effective
/// bitwidth, reporting every inconsistency on the way. Returns the
/// resolved `n` (full bitwidth when nothing was requested or the request
/// was unresolvable).
fn check_early_termination(spec: &RawSpec, report: &mut Report) -> u32 {
    let full = spec.bitwidth;
    let mut resolved = full;

    if let Some(cycles) = spec.mul_cycles {
        if cycles.is_power_of_two() {
            // mul_cycles = 2^(n-1)  =>  n = log2(cycles) + 1.
            let n = cycles.trailing_zeros() + 1;
            if n > full {
                report.error(
                    "USY011",
                    "mul_cycles",
                    format!(
                        "{cycles} multiply cycles implies effective bitwidth {n} > data bitwidth \
                         {full}"
                    ),
                    format!(
                        "rate-coded multiplication runs at most 2^(N-1) = {} cycles",
                        1u64 << (full - 1)
                    ),
                );
            } else {
                resolved = n;
            }
            if let Some(ebt) = spec.effective_bitwidth {
                if ebt != n {
                    report.error(
                        "USY012",
                        "mul_cycles",
                        format!(
                            "mul_cycles {cycles} implies effective bitwidth {n} (shift {}), but \
                             effective_bitwidth {ebt} (shift {}) was also requested",
                            full.saturating_sub(n),
                            full.saturating_sub(ebt),
                        ),
                        "the top-row shifters scale by N - n; specify only one of \
                         mul_cycles / effective_bitwidth, or make them agree"
                            .into(),
                    );
                }
            }
        } else {
            report.error(
                "USY011",
                "mul_cycles",
                format!("{cycles} multiply cycles is not a power of two"),
                "early termination stops after 2^(n-1) cycles; use 1, 2, 4, … 2^(N-1)".into(),
            );
        }
    } else if let Some(ebt) = spec.effective_bitwidth {
        if ebt == 0 || ebt > full {
            report.error(
                "USY011",
                "effective_bitwidth",
                format!("effective bitwidth {ebt} not in 1..={full}"),
                "early termination can only drop output bits, not add them".into(),
            );
        } else {
            resolved = ebt;
        }
    }

    if resolved < full && !spec.scheme.supports_early_termination() {
        let why = match spec.scheme {
            ComputingScheme::UnaryTemporal => {
                "temporal coding orders bits by significance, so truncation biases the product \
                 (Section II-B3)"
            }
            ComputingScheme::UGemmHybrid => {
                "uGEMM-H's bipolar streams have no early-termination support in the paper"
            }
            _ => "binary schemes have no unary cycle count to truncate",
        };
        report.error(
            "USY010",
            "effective_bitwidth",
            format!(
                "early termination (n = {resolved} < N = {full}) requested for {}",
                spec.scheme.label()
            ),
            format!("{why}; use the rate-coded UR scheme or drop the policy"),
        );
    }
    resolved
}

fn check_accumulator(spec: &RawSpec, gemm: Option<&GemmConfig>, report: &mut Report) {
    if spec.rows == 0 {
        return; // USY001 already reported; depth math would be meaningless.
    }
    // Per-fold reduction depth: one column of the array, capped by the
    // workload's reduction length when known.
    let depth = match gemm {
        Some(g) => spec.rows.min(g.reduction_len().max(1)),
        None => spec.rows,
    };
    let required = required_acc_width(spec.scheme, spec.bitwidth, depth);
    let acc = spec.acc_width.unwrap_or(required);
    if acc < required {
        report.error(
            "USY020",
            "acc_width",
            format!(
                "accumulator width {acc} cannot hold a {}-deep reduction of {}-bit {} products \
                 (needs {required} bits)",
                depth,
                spec.bitwidth,
                if spec.scheme.is_unary() {
                    "reduced-resolution"
                } else {
                    "full-resolution"
                },
            ),
            format!(
                "widen acc_width to at least {required}, or fold the reduction over more tiles"
            ),
        );
    }
    if acc > *ACC_WIDTHS.end() {
        report.error(
            "USY022",
            "acc_width",
            format!(
                "accumulator width {acc} exceeds the {}-bit OREG the array can build",
                ACC_WIDTHS.end()
            ),
            format!(
                "use at most {} bits; this reduction needs {required}",
                ACC_WIDTHS.end()
            ),
        );
        return;
    }
    // Wider than even a full-resolution binary reduction would need: the
    // OREG area the paper fights to shrink is being wasted.
    let binary_need = required_acc_width(ComputingScheme::BinaryParallel, spec.bitwidth, depth);
    if acc > binary_need {
        report.warning(
            "USY021",
            "acc_width",
            format!(
                "accumulator width {acc} exceeds the full-resolution requirement of {binary_need} \
                 bits"
            ),
            format!(
                "shrink acc_width to {required} to realise the reduced-resolution OREG saving \
                 (Section III-A)"
            ),
        );
    }
}

fn check_wiring(spec: &RawSpec, report: &mut Report) {
    let rate_coded = matches!(
        spec.scheme,
        ComputingScheme::UnaryRate | ComputingScheme::UGemmHybrid
    );
    if rate_coded && spec.wiring == RngWiring::Independent {
        report.error(
            "USY030",
            "wiring",
            format!(
                "{} with independent per-PE RNGs: operand streams are not structurally \
                 SCC = 0, so AND-gate products are biased (Eq. 1)",
                spec.scheme.label()
            ),
            "share one RNG per row/column and decorrelate with per-PE delay registers \
             (the C-BSG wiring of Fig. 7)"
                .into(),
        );
    }
}

fn check_fifo(spec: &RawSpec, report: &mut Report) {
    let Some(depth) = spec.fifo_depth else {
        return;
    };
    let required = spec.rows.max(spec.cols).saturating_sub(1);
    if depth < required {
        report.error(
            "USY040",
            "fifo_depth",
            format!(
                "skew-FIFO depth {depth} cannot align a {}x{} array (needs {required})",
                spec.rows, spec.cols
            ),
            format!(
                "the weight-stationary dataflow skews row i by i cycles and drains columns \
                 across {} cycles; deepen the FIFOs to at least {required}",
                spec.cols.saturating_sub(1)
            ),
        );
    }
}

fn check_schedule(spec: &RawSpec, gemm: &GemmConfig, report: &mut Report) {
    if spec.rows == 0 || spec.cols == 0 {
        return; // USY001 already reported.
    }
    let map = TileMapping::new(gemm, spec.rows, spec.cols);
    // The ISA encodes fold indices as u32 (`LoadWeights { row_fold, col_fold }`).
    let limit = u32::MAX as usize;
    if map.row_folds() > limit || map.col_folds() > limit {
        report.error(
            "USY041",
            "gemm",
            format!(
                "fold counts {}x{} overflow the ISA's 32-bit fold indices",
                map.row_folds(),
                map.col_folds()
            ),
            "split the GEMM into smaller tiles before compiling".into(),
        );
    }
    let util = map.utilization();
    if util < 0.05 {
        report.warning(
            "USY042",
            "gemm",
            format!(
                "MAC utilisation {:.2}% on the {}x{} array (K={}, N={})",
                util * 100.0,
                spec.rows,
                spec.cols,
                map.k(),
                map.n()
            ),
            "small/skinny GEMMs waste most of the array (Section V-G); consider the edge shape"
                .into(),
        );
    }
}

/// Builds a validated config mirroring the spec, for the closed-form
/// traffic/timing models. Returns `None` when the spec is too broken to
/// validate — construction diagnostics have already been reported.
fn validated_config(spec: &RawSpec, ebt: u32) -> Option<SystolicConfig> {
    let mut cfg = SystolicConfig::new(spec.rows, spec.cols, spec.scheme, spec.bitwidth).ok()?;
    if ebt < spec.bitwidth {
        cfg = cfg.with_effective_bitwidth(ebt).ok()?;
    }
    if let Some(acc) = spec.acc_width {
        cfg = cfg.with_acc_width(acc);
    }
    Some(cfg)
}

fn check_bandwidth(
    spec: &RawSpec,
    ebt: u32,
    gemm: &GemmConfig,
    memory: &MemoryHierarchy,
    report: &mut Report,
) {
    let Some(cfg) = validated_config(spec, ebt) else {
        return;
    };
    let traffic = layer_traffic(gemm, &cfg, memory);
    let ideal = ideal_cycles(gemm, &cfg).max(1);
    let sustained = memory.dram.sustained_bytes_per_cycle();
    let needed = traffic.dram.total() as f64 / ideal as f64;

    if needed > sustained {
        let msg = format!(
            "layer needs {needed:.2} DRAM bytes/cycle but the DRAM sustains {sustained:.2} \
             ({} bytes over {ideal} compute cycles)",
            traffic.dram.total()
        );
        if memory.has_sram() {
            report.warning(
                "USY051",
                "memory",
                msg,
                "the run will be memory-bound despite the SRAM; lengthen the MAC interval \
                 (crawling) or accept the stall overhead (Section V-D)"
                    .into(),
            );
        } else {
            report.error(
                "USY050",
                "memory",
                msg,
                "SRAM-free operation is only feasible for low-bandwidth (unary, long-MAC) \
                 schemes (Section V-B); add SRAM or switch scheme"
                    .into(),
            );
        }
    }

    if let Some(sram) = memory.sram {
        let ifm_raw = gemm.input_elems() * u64::from(spec.bitwidth.div_ceil(8));
        if ifm_raw > sram.capacity_bytes {
            let map = TileMapping::new(gemm, cfg.rows(), cfg.cols());
            report.warning(
                "USY052",
                "memory",
                format!(
                    "raw IFM of {ifm_raw} bytes exceeds the {}-byte SRAM slice; it will be \
                     refetched once per column fold ({}x)",
                    sram.capacity_bytes,
                    map.col_folds()
                ),
                "shrink the layer, enlarge the SRAM, or accept the refetch traffic".into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ur_edge() -> RawSpec {
        RawSpec::new(12, 14, ComputingScheme::UnaryRate, 8)
    }

    #[test]
    fn default_spec_is_clean() {
        let r = analyze(&ur_edge(), None, None);
        assert!(r.is_legal(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn required_width_matches_core_default() {
        // The analyzer's requirement equals the width core assigns by
        // default, for every scheme and both paper shapes.
        for scheme in ComputingScheme::ALL {
            for rows in [12usize, 256] {
                let cfg = SystolicConfig::new(rows, rows, scheme, 8).unwrap();
                assert_eq!(
                    required_acc_width(scheme, 8, rows),
                    cfg.acc_width(),
                    "{scheme:?} {rows}"
                );
            }
        }
    }

    #[test]
    fn acc_width_boundary_exact_vs_one_short() {
        let need = required_acc_width(ComputingScheme::UnaryRate, 8, 12);
        let exact = analyze(&ur_edge().with_acc_width(need), None, None);
        assert!(exact.is_legal(), "{exact}");
        let short = analyze(&ur_edge().with_acc_width(need - 1), None, None);
        assert!(short.has("USY020"), "{short}");
        assert!(!short.is_legal());
    }

    #[test]
    fn workload_caps_reduction_depth() {
        // K = 4 < rows = 12: the per-fold depth is 4, so a narrower
        // accumulator becomes legal once the workload is known.
        let gemm = GemmConfig::matmul(1, 4, 14).unwrap();
        let need_k4 = required_acc_width(ComputingScheme::UnaryRate, 8, 4);
        let spec = ur_edge().with_acc_width(need_k4);
        assert!(analyze(&spec, Some(&gemm), None).is_legal());
        assert!(analyze(&spec, None, None).has("USY020"));
    }

    #[test]
    fn overprovisioned_accumulator_warns() {
        let binary_need = required_acc_width(ComputingScheme::BinaryParallel, 8, 12);
        let r = analyze(&ur_edge().with_acc_width(binary_need + 1), None, None);
        assert!(r.is_legal(), "warning must not reject: {r}");
        assert!(r.has("USY021"), "{r}");
    }

    #[test]
    fn unbuildable_accumulator_is_rejected() {
        // 63 bits is the widest OREG the array builds: legal (if wasteful);
        // one more bit is an error, not a USY021 warning.
        let widest = analyze(&ur_edge().with_acc_width(63), None, None);
        assert!(widest.is_legal() && !widest.has("USY022"), "{widest}");
        let r = analyze(&ur_edge().with_acc_width(64), None, None);
        assert!(r.has("USY022") && !r.is_legal(), "{r}");
        assert!(!r.has("USY021"), "{r}");
    }

    #[test]
    fn ebt_boundary_n_equals_full_vs_above() {
        let ok = analyze(&ur_edge().with_effective_bitwidth(8), None, None);
        assert!(ok.is_legal(), "{ok}");
        let over = analyze(&ur_edge().with_effective_bitwidth(9), None, None);
        assert!(over.has("USY011"), "{over}");
    }

    #[test]
    fn mul_cycles_boundary_max_vs_double() {
        // 2^(N-1) = 128 is the full-length run; 256 implies n = 9 > 8.
        let ok = analyze(&ur_edge().with_mul_cycles(128), None, None);
        assert!(ok.is_legal(), "{ok}");
        let over = analyze(&ur_edge().with_mul_cycles(256), None, None);
        assert!(over.has("USY011"), "{over}");
    }

    #[test]
    fn non_power_of_two_cycles_rejected() {
        let r = analyze(&ur_edge().with_mul_cycles(33), None, None);
        assert!(r.has("USY011"), "{r}");
    }

    #[test]
    fn inconsistent_et_pair_rejected() {
        // 32 cycles implies n = 6; requesting n = 7 alongside mismatches
        // the shifter scale.
        let r = analyze(
            &ur_edge().with_mul_cycles(32).with_effective_bitwidth(7),
            None,
            None,
        );
        assert!(r.has("USY012"), "{r}");
        let ok = analyze(
            &ur_edge().with_mul_cycles(32).with_effective_bitwidth(6),
            None,
            None,
        );
        assert!(ok.is_legal(), "{ok}");
    }

    #[test]
    fn et_on_non_rate_schemes_rejected() {
        for scheme in [
            ComputingScheme::BinaryParallel,
            ComputingScheme::BinarySerial,
            ComputingScheme::UGemmHybrid,
            ComputingScheme::UnaryTemporal,
        ] {
            let spec = RawSpec::new(12, 14, scheme, 8).with_effective_bitwidth(6);
            let r = analyze(&spec, None, None);
            assert!(r.has("USY010"), "{scheme:?}: {r}");
        }
    }

    #[test]
    fn independent_wiring_rejected_for_rate_coded() {
        for scheme in [ComputingScheme::UnaryRate, ComputingScheme::UGemmHybrid] {
            let spec = RawSpec::new(12, 14, scheme, 8).with_wiring(RngWiring::Independent);
            let r = analyze(&spec, None, None);
            assert!(r.has("USY030"), "{scheme:?}: {r}");
        }
        // Temporal streams are deterministic; binary has no RNG at all.
        for scheme in [
            ComputingScheme::UnaryTemporal,
            ComputingScheme::BinaryParallel,
        ] {
            let spec = RawSpec::new(12, 14, scheme, 8).with_wiring(RngWiring::Independent);
            assert!(analyze(&spec, None, None).is_legal(), "{scheme:?}");
        }
    }

    #[test]
    fn shallow_fifo_rejected_exact_depth_accepted() {
        let r = analyze(&ur_edge().with_fifo_depth(12), None, None);
        assert!(r.has("USY040"), "{r}");
        let ok = analyze(&ur_edge().with_fifo_depth(13), None, None);
        assert!(ok.is_legal(), "{ok}");
    }

    #[test]
    fn empty_array_and_bad_bitwidth() {
        let r = analyze(
            &RawSpec::new(0, 14, ComputingScheme::UnaryRate, 8),
            None,
            None,
        );
        assert!(r.has("USY001"), "{r}");
        let r = analyze(
            &RawSpec::new(12, 14, ComputingScheme::UnaryRate, 1),
            None,
            None,
        );
        assert!(r.has("USY002"), "{r}");
        let r = analyze(
            &RawSpec::new(12, 14, ComputingScheme::UnaryRate, MAX_BITWIDTH + 1),
            None,
            None,
        );
        assert!(r.has("USY002"), "{r}");
    }

    #[test]
    fn binary_without_sram_is_bandwidth_infeasible() {
        // The paper's motivating case: binary parallel cannot drop the
        // SRAM on a memory-hungry AlexNet-class layer.
        let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
        let spec = RawSpec::new(12, 14, ComputingScheme::BinaryParallel, 8);
        let r = analyze(&spec, Some(&gemm), Some(&MemoryHierarchy::no_sram()));
        assert!(r.has("USY050"), "{r}");
        assert!(!r.is_legal());
    }

    #[test]
    fn crawling_unary_without_sram_is_feasible() {
        let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
        let spec = RawSpec::new(12, 14, ComputingScheme::UnaryRate, 8).with_mul_cycles(128);
        let r = analyze(&spec, Some(&gemm), Some(&MemoryHierarchy::no_sram()));
        assert!(r.is_legal(), "{r}");
    }

    #[test]
    fn low_utilization_warns() {
        let gemm = GemmConfig::matmul(1, 4, 4).unwrap();
        let spec = RawSpec::new(256, 256, ComputingScheme::BinaryParallel, 8);
        let r = analyze(&spec, Some(&gemm), None);
        assert!(r.has("USY042"), "{r}");
        assert!(r.is_legal(), "utilisation is a warning: {r}");
    }
}
