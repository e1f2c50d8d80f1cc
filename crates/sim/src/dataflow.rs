//! Dataflow comparison: weight-stationary vs input-stationary.
//!
//! The paper fixes the weight-stationary (WS) dataflow (Section II-A), but
//! footnote 1 observes that C-BSG "allows the dataflow to be either input
//! or weight stationary". This module models the input-stationary (IS)
//! alternative at the timing/traffic level, quantifying when each wins:
//!
//! * **WS** pins a `K×N` weight tile and streams the `M` input vectors —
//!   efficient when the *stationary* `N` dimension fills the array
//!   columns (FC layers, where `N` is in the thousands);
//! * **IS** pins a `K×M` input tile and streams the `N` weight vectors —
//!   efficient when `M ≫ N` (early conv layers with many pixels but few
//!   output channels, which leave a WS array's columns mostly idle).
//!
//! Either way the winner is the dataflow whose stationary dimension
//! utilises the columns best — the quantified version of "DNN dataflow
//! choice is overrated" \[73\]: for the bulk of AlexNet's layers both
//! dataflows land within a small factor.

use crate::traffic::{input_elem_bytes, output_elem_bytes, LayerTraffic, VariableTraffic};
use usystolic_core::SystolicConfig;
use usystolic_gemm::GemmConfig;

/// The stationary operand of the systolic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weights stay in the PEs; inputs stream (the paper's choice).
    WeightStationary,
    /// Inputs stay in the PEs; weights stream (footnote 1's alternative).
    InputStationary,
}

impl core::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Dataflow::WeightStationary => "weight-stationary",
            Dataflow::InputStationary => "input-stationary",
        })
    }
}

/// The stationary and streamed extents `(S, T)`: the `S` values one
/// tile pins across the array columns and the `T` vectors that stream
/// through every tile.
fn extents(gemm: &GemmConfig, dataflow: Dataflow) -> (u64, u64) {
    let m = gemm.output_pixels() as u64;
    let n = gemm.output_channels() as u64;
    match dataflow {
        Dataflow::WeightStationary => (n, m),
        Dataflow::InputStationary => (m, n),
    }
}

/// Stall-free compute cycles under the chosen dataflow: the SCALE-Sim
/// pipeline model summed in closed form.
///
/// Each `r × c` tile preloads `r` rows, streams `T` vectors at the MAC
/// interval and drains through `r + c − 2` cycles of systolic skew. The
/// ragged last row and column folds only shift the per-fold `r` and `c`
/// sums, which telescope to `K` and `S`:
///
/// ```text
/// Σ_rf Σ_cf (r + T·mac + r + c − 2)
///   = 2·col_folds·K + row_folds·S + row_folds·col_folds·(T·mac − 2)
/// ```
///
/// Every tile has `r, c ≥ 1`, so `r + c − 2` never clamps and the sum is
/// exact.
#[must_use]
pub fn ideal_cycles_with(gemm: &GemmConfig, config: &SystolicConfig, dataflow: Dataflow) -> u64 {
    let k = gemm.reduction_len() as u64;
    let (s, t) = extents(gemm, dataflow);
    let row_folds = k.div_ceil(config.rows() as u64);
    let col_folds = s.div_ceil(config.cols() as u64);
    let tiles = row_folds * col_folds;
    // Every tile's term is at least 2, so the sum of the positive parts
    // covers the subtrahend and the u64 subtraction cannot underflow.
    2 * col_folds * k + row_folds * s + tiles * t * config.mac_cycles() - 2 * tiles
}

/// Streamed DRAM traffic under the chosen dataflow (no-SRAM accounting, as
/// the unary designs run), and the array-side volumes of
/// [`layer_traffic`](crate::traffic::layer_traffic): the `T` streamed
/// vectors are re-streamed once per column fold (`T·K·⌈S/C⌉`), the
/// stationary operand is preloaded once (`K·S`), and each output is
/// written once per row fold and read back once per later one
/// (`M·N·(2·⌈K/R⌉ − 1)`).
#[must_use]
pub fn layer_traffic_with(
    gemm: &GemmConfig,
    config: &SystolicConfig,
    dataflow: Dataflow,
) -> LayerTraffic {
    let in_bytes = input_elem_bytes(config.bitwidth());
    let out_bytes = output_elem_bytes(config);
    let k = gemm.reduction_len() as u64;
    let (s, t) = extents(gemm, dataflow);
    let row_folds = k.div_ceil(config.rows() as u64);
    let col_folds = s.div_ceil(config.cols() as u64);
    let streamed = t * k * col_folds * in_bytes;
    let stationary = k * s * in_bytes;
    let (ifm, weight) = match dataflow {
        Dataflow::WeightStationary => (streamed, stationary),
        Dataflow::InputStationary => (stationary, streamed),
    };
    LayerTraffic {
        sram: VariableTraffic::default(),
        dram: VariableTraffic {
            ifm,
            weight,
            ofm: s * t * (2 * row_folds - 1) * out_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_core::ComputingScheme;

    fn edge() -> SystolicConfig {
        SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
            .with_mul_cycles(128)
            .expect("valid EBT")
    }

    #[test]
    fn ws_matches_the_base_model() {
        // The generalised WS path must agree with the dedicated model.
        let gemm = GemmConfig::conv(15, 15, 64, 3, 3, 1, 96).expect("valid layer");
        let cfg = edge();
        assert_eq!(
            ideal_cycles_with(&gemm, &cfg, Dataflow::WeightStationary),
            crate::runtime::ideal_cycles(&gemm, &cfg)
        );
        let no_sram = crate::memory::MemoryHierarchy::no_sram();
        let base = crate::traffic::layer_traffic(&gemm, &cfg, &no_sram);
        let gen = layer_traffic_with(&gemm, &cfg, Dataflow::WeightStationary);
        assert_eq!(base.dram, gen.dram);
    }

    #[test]
    fn ws_wins_on_batch1_fc_layers() {
        // FC with M=1: the IS array pins a single input column (1/14th
        // utilisation) and re-streams all weights per row fold; WS fills
        // its columns with the 1024 output channels.
        let fc = GemmConfig::matmul(1, 1024, 1024).expect("valid layer");
        let cfg = edge();
        let ws = ideal_cycles_with(&fc, &cfg, Dataflow::WeightStationary);
        let is = ideal_cycles_with(&fc, &cfg, Dataflow::InputStationary);
        assert!(
            ws < is / 4,
            "WS {ws} should be far below IS {is} for batch-1 FC"
        );
    }

    #[test]
    fn is_wins_on_few_channel_conv_layers() {
        // Conv with M ≫ N: WS leaves most columns idle (only 8 output
        // channels); IS pins the abundant pixels instead.
        let conv = GemmConfig::conv(31, 31, 16, 5, 5, 1, 8).expect("valid layer");
        let cfg = edge();
        let ws = ideal_cycles_with(&conv, &cfg, Dataflow::WeightStationary);
        let is = ideal_cycles_with(&conv, &cfg, Dataflow::InputStationary);
        assert!(is < ws, "IS {is} should beat WS {ws} for few-channel conv");
    }

    #[test]
    fn traffic_mirrors_the_stationary_operand() {
        let gemm = GemmConfig::matmul(40, 48, 56).expect("valid layer");
        let cfg = edge();
        let ws = layer_traffic_with(&gemm, &cfg, Dataflow::WeightStationary);
        let is = layer_traffic_with(&gemm, &cfg, Dataflow::InputStationary);
        // WS reads each weight once but re-streams inputs per column
        // fold; IS is the exact mirror.
        assert_eq!(ws.dram.weight, 48 * 56);
        assert_eq!(is.dram.ifm, 40 * 48);
        assert!(ws.dram.ifm > is.dram.ifm);
        assert!(is.dram.weight > ws.dram.weight);
    }

    #[test]
    fn display_names() {
        assert_eq!(Dataflow::WeightStationary.to_string(), "weight-stationary");
        assert_eq!(Dataflow::InputStationary.to_string(), "input-stationary");
    }
}
