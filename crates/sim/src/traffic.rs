//! Memory traffic accounting per GEMM layer.
//!
//! Traffic is derived from the weight-stationary tile mapping, at two
//! levels:
//!
//! * **array-side traffic** — what the PEs actually consume/produce:
//!   expanded (im2col) IFM streams, one weight preload per tile, and
//!   partial-sum write/read pairs per row fold. This is what the SRAM
//!   serves when present.
//! * **DRAM traffic** — with SRAM, only compulsory transfers reach DRAM
//!   (raw IFM once per column-fold group when it does not fit, each weight
//!   once, the final OFM once, plus partial-sum spills when the working
//!   set overflows); without SRAM, the array-side traffic hits DRAM
//!   directly — which is exactly why binary designs cannot drop the SRAM
//!   and crawling uSystolic can (Section V-B).

use crate::dataflow::{layer_traffic_with, Dataflow};
use crate::memory::MemoryHierarchy;
use usystolic_core::{SystolicConfig, TileMapping};
use usystolic_gemm::GemmConfig;

/// Byte counts per GEMM variable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VariableTraffic {
    /// Input-feature-map bytes.
    pub ifm: u64,
    /// Weight bytes.
    pub weight: u64,
    /// Output-feature-map bytes (partial + final).
    pub ofm: u64,
}

impl VariableTraffic {
    /// Total bytes across the three variables.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ifm + self.weight + self.ofm
    }
}

/// The complete traffic picture of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Bytes served by the on-chip SRAM (zero when SRAM is absent).
    pub sram: VariableTraffic,
    /// Bytes served by the off-chip DRAM.
    pub dram: VariableTraffic,
}

/// Bytes per element at the array's input interfaces (IFM and weights).
#[must_use]
pub fn input_elem_bytes(bitwidth: u32) -> u64 {
    u64::from(bitwidth.div_ceil(8))
}

/// Bytes per OFM element.
///
/// Binary designs produce `2N`-bit products/partials; the HUB designs
/// (uSystolic and uGEMM-H) keep the output at the input resolution
/// (Section III-A), halving OFM traffic.
#[must_use]
pub fn output_elem_bytes(config: &SystolicConfig) -> u64 {
    use usystolic_core::ComputingScheme as S;
    match config.scheme() {
        S::BinaryParallel | S::BinarySerial => u64::from((2 * config.bitwidth()).div_ceil(8)),
        S::UGemmHybrid | S::UnaryRate | S::UnaryTemporal => {
            u64::from(config.bitwidth().div_ceil(8))
        }
    }
}

/// Computes the layer's traffic under the given array and memory
/// configuration. Pure: [`Simulator::simulate`](crate::Simulator::simulate)
/// records the `sim.*` byte counters.
#[must_use]
pub fn layer_traffic(
    gemm: &GemmConfig,
    config: &SystolicConfig,
    memory: &MemoryHierarchy,
) -> LayerTraffic {
    // Array-side (streamed) volumes: the weight-stationary case of the
    // dataflow model, which without SRAM is the whole DRAM picture.
    let no_sram = layer_traffic_with(gemm, config, Dataflow::WeightStationary);
    match memory.sram {
        Some(sram) => {
            let map = TileMapping::new(gemm, config.rows(), config.cols());
            let out_bytes = output_elem_bytes(config);
            let m = map.m() as u64;
            let streamed = no_sram.dram;
            // Compulsory (raw) volumes.
            let ifm_raw = gemm.input_elems() * input_elem_bytes(config.bitwidth());
            let ofm_final = m * map.n() as u64 * out_bytes;
            // SRAM serves the streamed traffic; DRAM sees compulsory
            // transfers plus capacity-miss refetches/spills.
            let ifm_fits = ifm_raw <= sram.capacity_bytes;
            let dram_ifm = if ifm_fits {
                ifm_raw
            } else {
                ifm_raw * map.col_folds() as u64
            };
            // Weights always stream through once (weight-stationary reuse
            // happens in the PEs, not the SRAM).
            let dram_weight = streamed.weight;
            // Partial-sum working set per column fold.
            let ofm_ws = m * map.cols_in_fold(0) as u64 * out_bytes;
            let ofm_fits = ofm_ws <= sram.capacity_bytes;
            let dram_ofm = if ofm_fits { ofm_final } else { streamed.ofm };
            LayerTraffic {
                sram: VariableTraffic {
                    ifm: streamed.ifm + dram_ifm, // reads by array + fills from DRAM
                    weight: 2 * streamed.weight,  // fill + drain to the array
                    ofm: streamed.ofm + dram_ofm,
                },
                dram: VariableTraffic {
                    ifm: dram_ifm,
                    weight: dram_weight,
                    ofm: dram_ofm,
                },
            }
        }
        None => no_sram,
    }
}

impl usystolic_obs::ToJson for VariableTraffic {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("ifm", self.ifm.to_json()),
            ("weight", self.weight.to_json()),
            ("ofm", self.ofm.to_json()),
            ("total", self.total().to_json()),
        ])
    }
}

impl usystolic_obs::ToJson for LayerTraffic {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("sram", self.sram.to_json()),
            ("dram", self.dram.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_core::ComputingScheme;

    fn edge(scheme: ComputingScheme) -> SystolicConfig {
        SystolicConfig::edge(scheme, 8)
    }

    #[test]
    fn element_bytes() {
        assert_eq!(input_elem_bytes(8), 1);
        assert_eq!(input_elem_bytes(16), 2);
        assert_eq!(output_elem_bytes(&edge(ComputingScheme::BinaryParallel)), 2);
        assert_eq!(output_elem_bytes(&edge(ComputingScheme::UnaryRate)), 1);
        assert_eq!(output_elem_bytes(&edge(ComputingScheme::UGemmHybrid)), 1);
    }

    #[test]
    fn no_sram_routes_streams_to_dram() {
        let gemm = GemmConfig::matmul(4, 24, 28).unwrap();
        let cfg = edge(ComputingScheme::UnaryRate);
        let t = layer_traffic(&gemm, &cfg, &MemoryHierarchy::no_sram());
        assert_eq!(t.sram.total(), 0);
        // 2 row folds, 2 col folds.
        assert_eq!(t.dram.ifm, 4 * 24 * 2);
        assert_eq!(t.dram.weight, 24 * 28);
        assert_eq!(t.dram.ofm, 4 * 28 * 3);
    }

    #[test]
    fn sram_reduces_dram_traffic() {
        let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 64).unwrap();
        let cfg = edge(ComputingScheme::BinaryParallel);
        let with = layer_traffic(&gemm, &cfg, &MemoryHierarchy::edge_with_sram());
        let without = layer_traffic(&gemm, &cfg, &MemoryHierarchy::no_sram());
        assert!(with.dram.total() < without.dram.total());
        assert!(with.sram.total() > 0);
    }

    #[test]
    fn ifm_refetched_when_it_overflows_sram() {
        // Raw IFM of 256 KB exceeds the 64 KB edge SRAM slice.
        let gemm = GemmConfig::conv(512, 512, 1, 3, 3, 1, 64).unwrap();
        let cfg = edge(ComputingScheme::BinaryParallel);
        let t = layer_traffic(&gemm, &cfg, &MemoryHierarchy::edge_with_sram());
        let map = TileMapping::new(&gemm, 12, 14);
        assert_eq!(t.dram.ifm, gemm.input_elems() * map.col_folds() as u64);
    }

    #[test]
    fn binary_ofm_traffic_doubles_unary() {
        let gemm = GemmConfig::matmul(8, 12, 14).unwrap();
        let mem = MemoryHierarchy::no_sram();
        let b = layer_traffic(&gemm, &edge(ComputingScheme::BinaryParallel), &mem);
        let u = layer_traffic(&gemm, &edge(ComputingScheme::UnaryRate), &mem);
        assert_eq!(b.dram.ofm, 2 * u.dram.ofm);
        assert_eq!(b.dram.ifm, u.dram.ifm);
    }

    #[test]
    fn totals_add_up() {
        let v = VariableTraffic {
            ifm: 1,
            weight: 2,
            ofm: 3,
        };
        assert_eq!(v.total(), 6);
    }
}
