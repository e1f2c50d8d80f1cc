//! System-level modelling of tiled uSystolic instances (Section V-H).
//!
//! "When considering multiple tiled uSystolic instances with
//! interconnections, uSystolic's low bandwidth empowers better
//! scalability." This module models `n` identical array instances running
//! data-parallel work against one shared DRAM: each instance's ideal
//! compute time is unchanged, but the DRAM must now serve the *sum* of
//! the instances' traffic. Low-bandwidth (byte-crawling) designs scale
//! almost linearly; high-bandwidth binary designs hit the memory wall.

use crate::memory::MemoryHierarchy;
use crate::report::{LayerReport, Simulator, CLOCK_HZ};
use usystolic_core::SystolicConfig;
use usystolic_gemm::GemmConfig;

/// The scaling behaviour of `n` instances on one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingReport {
    /// Instance count.
    pub instances: usize,
    /// Aggregate throughput (layers/s across all instances).
    pub aggregate_throughput: f64,
    /// Scaling efficiency: aggregate throughput over `n×` the
    /// single-instance throughput, in `(0, 1]`.
    pub scaling_efficiency: f64,
    /// Whether the shared DRAM limits the system.
    pub dram_limited: bool,
}

impl usystolic_obs::ToJson for ScalingReport {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("instances", self.instances.to_json()),
            ("aggregate_throughput", self.aggregate_throughput.to_json()),
            ("scaling_efficiency", self.scaling_efficiency.to_json()),
            ("dram_limited", self.dram_limited.to_json()),
        ])
    }
}

/// A system of identical array instances sharing one DRAM.
///
/// # Example
///
/// ```
/// use usystolic_core::{ComputingScheme, SystolicConfig};
/// use usystolic_sim::{MemoryHierarchy, MultiInstanceSystem, Simulator};
/// use usystolic_gemm::GemmConfig;
///
/// let array = SystolicConfig::edge(ComputingScheme::UnaryRate, 8).with_mul_cycles(128)?;
/// let memory = MemoryHierarchy::no_sram();
/// let layer = GemmConfig::conv(31, 31, 96, 5, 5, 1, 256)?;
/// let one = Simulator::new(array, memory).simulate(&layer);
/// // Byte-crawling instances share one DRAM almost perfectly.
/// let sys = MultiInstanceSystem::new(array, memory);
/// assert!(sys.scale(&one, 16).scaling_efficiency > 0.95);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiInstanceSystem {
    config: SystolicConfig,
    memory: MemoryHierarchy,
}

impl MultiInstanceSystem {
    /// Creates the system descriptor (instances are chosen per query).
    #[must_use]
    pub fn new(config: SystolicConfig, memory: MemoryHierarchy) -> Self {
        Self { config, memory }
    }

    /// Scaling of `instances` copies running data-parallel replicas of
    /// one layer, given that layer's one-instance report on this system's
    /// array and memory (what [`Simulator::simulate`] returns). The query
    /// only rescales the report: it simulates nothing, so an obs session
    /// sees no second layer.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero.
    #[must_use]
    pub fn scale(&self, one: &LayerReport, instances: usize) -> ScalingReport {
        assert!(instances > 0, "need at least one instance");
        // Shared DRAM: n instances demand n× the bytes in the same window.
        let dram_cycles = (instances as f64 * one.traffic.dram.total() as f64
            / self.memory.dram.sustained_bytes_per_cycle())
        .ceil() as u64;
        // Each instance still needs its own compute and SRAM service.
        let sram_bound = one.timing.runtime_cycles;
        let system_cycles = sram_bound.max(dram_cycles);
        let per_layer_s = system_cycles as f64 / CLOCK_HZ;
        let aggregate = instances as f64 / per_layer_s;
        let report = ScalingReport {
            instances,
            aggregate_throughput: aggregate,
            scaling_efficiency: aggregate / (instances as f64 * one.throughput_per_s),
            dram_limited: dram_cycles > sram_bound,
        };
        usystolic_obs::with(|o| {
            // Per-instance-count breakdown: the label keeps every scaling
            // query of one sweep as its own series.
            let n = instances.to_string();
            let scheme = self.config.scheme().label();
            o.metrics.count("sim.scaling_queries", 1);
            o.metrics.gauge_labeled(
                "sim.scaling_efficiency",
                &[("instances", &n), ("scheme", scheme)],
                report.scaling_efficiency,
            );
            o.metrics.gauge_labeled(
                "sim.aggregate_throughput",
                &[("instances", &n), ("scheme", scheme)],
                report.aggregate_throughput,
            );
        });
        report
    }

    /// The largest instance count that still scales with at least
    /// `min_efficiency` (searching 1..=max), i.e. where the system hits
    /// the memory wall.
    #[must_use]
    pub fn max_instances(&self, gemm: &GemmConfig, min_efficiency: f64, max: usize) -> usize {
        let one = Simulator::new(self.config, self.memory).simulate(gemm);
        let mut best = 1;
        for n in 1..=max {
            if self.scale(&one, n).scaling_efficiency >= min_efficiency {
                best = n;
            } else {
                break;
            }
        }
        best
    }
}

/// A battery-lifetime estimate (the §V-H edge scenario: "if the power
/// supply … is running out, early termination improves energy and power
/// efficiency to prolong the system lifespan").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeReport {
    /// Inferences achievable from the energy budget.
    pub inferences: f64,
    /// Seconds of continuous operation the budget sustains.
    pub lifetime_s: f64,
}

/// Estimates how many runs of `layers` a given on-chip energy budget
/// sustains, given per-layer energy and runtime from the caller's
/// hardware model (joules and seconds per full pass).
#[must_use]
pub fn battery_lifetime(
    energy_per_pass_j: f64,
    runtime_per_pass_s: f64,
    budget_j: f64,
) -> LifetimeReport {
    let inferences = if energy_per_pass_j > 0.0 {
        budget_j / energy_per_pass_j
    } else {
        0.0
    };
    LifetimeReport {
        inferences,
        lifetime_s: inferences * runtime_per_pass_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_core::ComputingScheme;

    fn conv_layer() -> GemmConfig {
        GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).expect("valid layer")
    }

    /// A DRAM-only system of `config` arrays and one instance's report
    /// of the conv layer.
    fn system(config: SystolicConfig) -> (MultiInstanceSystem, LayerReport) {
        let memory = MemoryHierarchy::no_sram();
        let one = Simulator::new(config, memory).simulate(&conv_layer());
        (MultiInstanceSystem::new(config, memory), one)
    }

    #[test]
    fn single_instance_is_perfectly_efficient() {
        let (sys, one) = system(SystolicConfig::edge(ComputingScheme::UnaryRate, 8));
        let r = sys.scale(&one, 1);
        assert!((r.scaling_efficiency - 1.0).abs() < 1e-9);
        assert_eq!(r.instances, 1);
    }

    #[test]
    fn crawling_unary_scales_further_than_binary() {
        // Section V-H: low bandwidth empowers better scalability.
        let unary = MultiInstanceSystem::new(
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(128)
                .expect("valid"),
            MemoryHierarchy::no_sram(),
        );
        let binary = MultiInstanceSystem::new(
            SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
            MemoryHierarchy::no_sram(),
        );
        let layer = conv_layer();
        let u_max = unary.max_instances(&layer, 0.9, 128);
        let b_max = binary.max_instances(&layer, 0.9, 128);
        assert!(
            u_max >= 8 * b_max,
            "unary sustains {u_max} instances vs binary {b_max}"
        );
    }

    #[test]
    fn efficiency_degrades_monotonically_past_the_wall() {
        let (sys, one) = system(SystolicConfig::edge(ComputingScheme::BinaryParallel, 8));
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 4, 8, 16] {
            let r = sys.scale(&one, n);
            assert!(r.scaling_efficiency <= last + 1e-9, "n={n}");
            last = r.scaling_efficiency;
        }
        assert!(sys.scale(&one, 16).dram_limited);
    }

    #[test]
    fn aggregate_throughput_never_decreases_with_instances() {
        let (sys, one) = system(SystolicConfig::edge(ComputingScheme::UnaryRate, 8));
        let mut last = 0.0;
        for n in 1..=8 {
            let r = sys.scale(&one, n);
            assert!(r.aggregate_throughput >= last, "n={n}");
            last = r.aggregate_throughput;
        }
    }

    #[test]
    fn battery_lifetime_arithmetic() {
        let r = battery_lifetime(2.0e-3, 0.5, 10.0);
        assert!((r.inferences - 5000.0).abs() < 1e-9);
        assert!((r.lifetime_s - 2500.0).abs() < 1e-9);
        let none = battery_lifetime(0.0, 1.0, 10.0);
        assert_eq!(none.inferences, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_rejected() {
        let (sys, one) = system(SystolicConfig::edge(ComputingScheme::UnaryRate, 8));
        let _ = sys.scale(&one, 0);
    }
}
