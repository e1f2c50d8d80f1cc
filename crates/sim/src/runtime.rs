//! Layer runtime model: ideal weight-stationary pipeline cycles plus
//! memory-contention stalls.
//!
//! The compute side follows the SCALE-Sim pipeline model: per weight tile,
//! `R'` preload cycles, then `M` input vectors at one vector per MAC
//! interval with `R' + C' − 2` cycles of systolic skew, summed over the
//! folds in closed form ([`ideal_cycles_with`]). The memory side
//! converts the layer's DRAM and SRAM traffic into minimum service cycles
//! at the sustained bandwidths; the runtime is the maximum of compute and
//! memory service (perfectly overlapped double buffering), and the
//! difference to the ideal compute time is the *memory contention
//! overhead* of Section V-D.

use crate::dataflow::{ideal_cycles_with, Dataflow};
use crate::memory::MemoryHierarchy;
use crate::traffic::{layer_traffic, LayerTraffic};
use usystolic_core::SystolicConfig;
use usystolic_gemm::GemmConfig;

/// Cycle-level timing of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTiming {
    /// Stall-free compute cycles of the weight-stationary pipeline.
    pub ideal_cycles: u64,
    /// Cycles added by memory contention.
    pub stall_cycles: u64,
    /// Total runtime cycles.
    pub runtime_cycles: u64,
}

impl LayerTiming {
    /// Memory-contention overhead: `stall / ideal` (the percentage the
    /// paper quotes, e.g. "+161.8 % average runtime overhead").
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.stall_cycles as f64 / self.ideal_cycles as f64
    }
}

/// Ideal (stall-free) compute cycles of a layer: the weight-stationary
/// case of [`ideal_cycles_with`].
#[must_use]
pub fn ideal_cycles(gemm: &GemmConfig, config: &SystolicConfig) -> u64 {
    ideal_cycles_with(gemm, config, Dataflow::WeightStationary)
}

/// Computes the layer timing under the given memory hierarchy.
#[must_use]
pub fn layer_timing(
    gemm: &GemmConfig,
    config: &SystolicConfig,
    memory: &MemoryHierarchy,
) -> LayerTiming {
    let traffic = layer_traffic(gemm, config, memory);
    layer_timing_from_traffic(gemm, config, memory, &traffic)
}

/// Computes the layer timing from pre-computed traffic (avoids recomputing
/// traffic when both are needed): the maximum of the ideal compute
/// cycles, the DRAM service cycles and the busiest SRAM variable's
/// service cycles. Pure:
/// [`Simulator::simulate`](crate::Simulator::simulate) records the
/// `sim.*` timing counters.
#[must_use]
pub fn layer_timing_from_traffic(
    gemm: &GemmConfig,
    config: &SystolicConfig,
    memory: &MemoryHierarchy,
    traffic: &LayerTraffic,
) -> LayerTiming {
    let ideal = ideal_cycles(gemm, config);
    let dram_cycles =
        (traffic.dram.total() as f64 / memory.dram.sustained_bytes_per_cycle()).ceil() as u64;
    let sram_cycles = memory.sram.map_or(0, |s| {
        [traffic.sram.ifm, traffic.sram.weight, traffic.sram.ofm]
            .iter()
            .map(|&b| (b as f64 / s.bytes_per_cycle() as f64).ceil() as u64)
            .max()
            .unwrap_or(0)
    });
    let runtime = ideal.max(dram_cycles).max(sram_cycles);
    LayerTiming {
        ideal_cycles: ideal,
        stall_cycles: runtime - ideal,
        runtime_cycles: runtime,
    }
}

impl usystolic_obs::ToJson for LayerTiming {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("ideal_cycles", self.ideal_cycles.to_json()),
            ("stall_cycles", self.stall_cycles.to_json()),
            ("runtime_cycles", self.runtime_cycles.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::layer_traffic_with;
    use usystolic_core::ComputingScheme;

    #[test]
    fn ideal_cycles_scale_with_mac_interval() {
        let gemm = GemmConfig::matmul(100, 12, 14).unwrap();
        let bp = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        let ur = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
            .with_mul_cycles(128)
            .unwrap();
        let a = ideal_cycles(&gemm, &bp);
        let b = ideal_cycles(&gemm, &ur);
        // The 129× MAC interval dominates (preload/skew dilute it a bit).
        assert!(b > 90 * a && b < 130 * a, "{b} vs {a}");
    }

    #[test]
    fn folds_multiply_cycles() {
        let small = GemmConfig::matmul(10, 12, 14).unwrap();
        let doubled = GemmConfig::matmul(10, 24, 14).unwrap();
        let cfg = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        assert_eq!(ideal_cycles(&doubled, &cfg), 2 * ideal_cycles(&small, &cfg));
    }

    #[test]
    fn binary_without_sram_stalls() {
        // A memory-hungry layer on binary parallel with no SRAM is
        // DRAM-bound (the paper's 10.49 GB/s point).
        let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
        let cfg = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        let t = layer_timing(&gemm, &cfg, &MemoryHierarchy::no_sram());
        assert!(t.stall_cycles > 0, "expected DRAM-bound run");
        assert!(t.overhead() > 0.5);
    }

    #[test]
    fn crawling_unary_hides_memory_without_sram() {
        // The headline claim: uSystolic with long MAC intervals needs so
        // little bandwidth that removing SRAM costs (almost) nothing.
        let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
        let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
            .with_mul_cycles(128)
            .unwrap();
        let t = layer_timing(&gemm, &cfg, &MemoryHierarchy::no_sram());
        assert_eq!(t.stall_cycles, 0, "unary should be compute-bound");
    }

    #[test]
    fn sram_removes_binary_stalls_on_edge() {
        let gemm = GemmConfig::conv(13, 13, 192, 3, 3, 1, 384).unwrap();
        let cfg = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        let without = layer_timing(&gemm, &cfg, &MemoryHierarchy::no_sram());
        let with = layer_timing(&gemm, &cfg, &MemoryHierarchy::edge_with_sram());
        assert!(with.runtime_cycles <= without.runtime_cycles);
    }

    #[test]
    fn cloud_binary_has_more_contention_than_edge() {
        // Section V-D: heavy memory contention for binary parallel on the
        // cloud configuration.
        let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
        let edge = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        let cloud = SystolicConfig::cloud(ComputingScheme::BinaryParallel, 8);
        let te = layer_timing(&gemm, &edge, &MemoryHierarchy::edge_with_sram());
        let tc = layer_timing(&gemm, &cloud, &MemoryHierarchy::cloud_with_sram());
        assert!(
            tc.overhead() > te.overhead(),
            "cloud {} vs edge {}",
            tc.overhead(),
            te.overhead()
        );
    }

    /// The SCALE-Sim schedule walked fold by fold: the oracle the closed
    /// form must reproduce. `K` folds over the array rows, the stationary
    /// extent over its columns, and the streamed vectors pass through
    /// every tile.
    fn fold_walk(gemm: &GemmConfig, config: &SystolicConfig, dataflow: Dataflow) -> u64 {
        let (m, n) = (gemm.output_pixels(), gemm.output_channels());
        let (stationary, streamed) = match dataflow {
            Dataflow::WeightStationary => (n, m),
            Dataflow::InputStationary => (m, n),
        };
        let (rows, cols, k) = (config.rows(), config.cols(), gemm.reduction_len());
        let mac = config.mac_cycles();
        let mut total = 0u64;
        for rf in 0..k.div_ceil(rows) {
            let r = rows.min(k - rf * rows) as u64;
            for cf in 0..stationary.div_ceil(cols) {
                let c = cols.min(stationary - cf * cols) as u64;
                // Preload R' rows, stream the vectors at the MAC
                // interval, drain through the systolic skew.
                total += r + streamed as u64 * mac + (r + c).saturating_sub(2);
            }
        }
        total
    }

    #[test]
    fn closed_form_matches_the_fold_walk_exactly() {
        let dataflows = [Dataflow::WeightStationary, Dataflow::InputStationary];
        // Every small shape, ragged in both dimensions, at MAC intervals
        // 1 (binary parallel), 2 (one-cycle unary rate) and 129 (8-bit
        // unary rate).
        let intervals = [
            (ComputingScheme::BinaryParallel, None, 1),
            (ComputingScheme::UnaryRate, Some(1), 2),
            (ComputingScheme::UnaryRate, None, 129),
        ];
        for (scheme, mul_cycles, mac) in intervals {
            for (rows, cols) in (1..=5).flat_map(|r| (1..=5).map(move |c| (r, c))) {
                let mut cfg = SystolicConfig::new(rows, cols, scheme, 8).unwrap();
                if let Some(c) = mul_cycles {
                    cfg = cfg.with_mul_cycles(c).unwrap();
                }
                assert_eq!(cfg.mac_cycles(), mac);
                for m in 1..=13 {
                    for k in 1..=13 {
                        for n in 1..=13 {
                            let gemm = GemmConfig::matmul(m, k, n).unwrap();
                            for df in dataflows {
                                assert_eq!(
                                    ideal_cycles_with(&gemm, &cfg, df),
                                    fold_walk(&gemm, &cfg, df),
                                    "{rows}x{cols} array, mac {mac}, {m}x{k}x{n} {df}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // Layer-sized shapes on the paper's edge and cloud arrays. The
        // weight-stationary case is `ideal_cycles`, and its streamed DRAM
        // traffic is the base model's no-SRAM traffic.
        let shapes = [
            GemmConfig::matmul(1, 1, 1).unwrap(),
            GemmConfig::matmul(64, 64, 64).unwrap(),
            GemmConfig::matmul(100, 12, 14).unwrap(),
            GemmConfig::matmul(3, 17, 33).unwrap(),
            GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).unwrap(),
            GemmConfig::conv(13, 13, 192, 3, 3, 1, 384).unwrap(),
        ];
        let configs = [
            SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(128)
                .unwrap(),
            SystolicConfig::cloud(ComputingScheme::UnaryTemporal, 8),
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(32)
                .unwrap(),
        ];
        for gemm in &shapes {
            for cfg in &configs {
                for df in dataflows {
                    assert_eq!(
                        ideal_cycles_with(gemm, cfg, df),
                        fold_walk(gemm, cfg, df),
                        "closed form diverged for {gemm:?} {df} on {:?}",
                        cfg.scheme()
                    );
                }
                assert_eq!(
                    ideal_cycles(gemm, cfg),
                    fold_walk(gemm, cfg, Dataflow::WeightStationary)
                );
                let base = layer_traffic(gemm, cfg, &MemoryHierarchy::no_sram());
                let streamed = layer_traffic_with(gemm, cfg, Dataflow::WeightStationary);
                assert_eq!(base.dram, streamed.dram);
            }
        }
    }

    /// The layer model is pure: only `Simulator::simulate` records, so
    /// traffic and timing leave an installed session empty, with SRAM
    /// and without.
    #[test]
    fn layer_model_leaves_an_installed_session_empty() {
        usystolic_obs::install(usystolic_obs::Session::new());
        let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
        let cfg = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        for memory in [
            MemoryHierarchy::no_sram(),
            MemoryHierarchy::edge_with_sram(),
        ] {
            let traffic = layer_traffic(&gemm, &cfg, &memory);
            let timing = layer_timing_from_traffic(&gemm, &cfg, &memory, &traffic);
            assert!(timing.runtime_cycles > 0);
        }
        let session = usystolic_obs::take().expect("session installed");
        assert!(session.metrics.is_empty(), "{:?}", session.metrics);
        assert!(session.tracer.is_empty());
        assert_eq!(session.sim_cycles, 0);
    }

    #[test]
    fn runtime_is_max_of_compute_and_memory() {
        let gemm = GemmConfig::matmul(4, 12, 14).unwrap();
        let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8);
        let t = layer_timing(&gemm, &cfg, &MemoryHierarchy::no_sram());
        assert_eq!(t.runtime_cycles, t.ideal_cycles + t.stall_cycles);
    }
}
