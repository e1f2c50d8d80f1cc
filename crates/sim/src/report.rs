//! The layer-level simulation report: the [`Simulator`] ties traffic and
//! timing together and converts them to the physical units the paper
//! plots (GB/s bandwidth, layers/s throughput).

use crate::memory::MemoryHierarchy;
use crate::runtime::{
    ideal_cycles_closed_form, layer_timing_from_parts, layer_timing_from_traffic, LayerTiming,
};
use crate::traffic::{layer_traffic, LayerTraffic};
use usystolic_core::{SystolicConfig, TileMapping};
use usystolic_des::Fidelity;
use usystolic_gemm::GemmConfig;
use usystolic_obs::ToJson;

/// The array clock of every synthesised design: 400 MHz (Section IV-C2).
pub const CLOCK_HZ: f64 = 400.0e6;

/// Everything the timing simulator knows about one layer's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerReport {
    /// Cycle-level timing.
    pub timing: LayerTiming,
    /// Byte traffic at both memory levels.
    pub traffic: LayerTraffic,
    /// Wall-clock runtime in seconds at [`CLOCK_HZ`].
    pub runtime_s: f64,
    /// Average DRAM bandwidth in GB/s over the layer (Fig. 10's upper
    /// plane).
    pub dram_bandwidth_gbps: f64,
    /// Average SRAM bandwidth in GB/s (Fig. 10's lower plane; zero when
    /// SRAM is absent).
    pub sram_bandwidth_gbps: f64,
    /// Layer throughput: layers per second (Fig. 12).
    pub throughput_per_s: f64,
    /// Average MAC (PE) utilisation of the tile mapping.
    pub utilization: f64,
    /// Total MAC operations of the layer.
    pub macs: u64,
}

/// A configured timing simulator (array + memory hierarchy + clock).
///
/// # Example
///
/// ```
/// use usystolic_core::{ComputingScheme, SystolicConfig};
/// use usystolic_sim::{MemoryHierarchy, Simulator};
/// use usystolic_gemm::GemmConfig;
///
/// let array = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
///     .with_mul_cycles(128).unwrap();
/// let sim = Simulator::new(array, MemoryHierarchy::no_sram());
/// let conv2 = GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).unwrap();
/// let report = sim.simulate(&conv2);
/// // Crawling bytes: well under 1 GB/s of DRAM, no SRAM at all.
/// assert!(report.dram_bandwidth_gbps < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulator {
    config: SystolicConfig,
    memory: MemoryHierarchy,
    clock_hz: f64,
    fidelity: Fidelity,
}

impl Simulator {
    /// Creates a simulator at the paper's 400 MHz clock, at
    /// [`Fidelity::CycleAccurate`].
    #[must_use]
    pub fn new(config: SystolicConfig, memory: MemoryHierarchy) -> Self {
        Self {
            config,
            memory,
            clock_hz: CLOCK_HZ,
            fidelity: Fidelity::CycleAccurate,
        }
    }

    /// Overrides the model fidelity. [`Fidelity::Packed`] swaps the
    /// fold-walk compute model for its closed form (bit-identical,
    /// `O(1)` per layer); [`Fidelity::Analytic`] additionally drops the
    /// per-variable SRAM service bound (exact for compute- or DRAM-bound
    /// layers — the paper's crawling regime — and optimistic otherwise).
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The model fidelity layers are simulated at.
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Overrides the clock (Hz).
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is not positive.
    #[must_use]
    pub fn with_clock(mut self, clock_hz: f64) -> Self {
        assert!(clock_hz > 0.0, "clock must be positive");
        self.clock_hz = clock_hz;
        self
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// The memory hierarchy.
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.memory
    }

    /// The clock in Hz.
    #[must_use]
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Simulates one GEMM layer.
    #[must_use]
    pub fn simulate(&self, gemm: &GemmConfig) -> LayerReport {
        let traffic = layer_traffic(gemm, &self.config, &self.memory);
        let timing = match self.fidelity {
            // The reference: walk every fold of the tile mapping.
            Fidelity::CycleAccurate => {
                layer_timing_from_traffic(gemm, &self.config, &self.memory, &traffic)
            }
            // Closed-form compute, full memory model — same bits, O(1).
            Fidelity::Packed => layer_timing_from_parts(
                ideal_cycles_closed_form(gemm, &self.config),
                &self.memory,
                &traffic,
                true,
            ),
            // Closed-form compute, DRAM bound only.
            Fidelity::Analytic => layer_timing_from_parts(
                ideal_cycles_closed_form(gemm, &self.config),
                &self.memory,
                &traffic,
                false,
            ),
        };
        let runtime_s = timing.runtime_cycles as f64 / self.clock_hz;
        let gb = 1.0e9;
        let map = TileMapping::new(gemm, self.config.rows(), self.config.cols());
        let report = LayerReport {
            timing,
            traffic,
            runtime_s,
            dram_bandwidth_gbps: traffic.dram.total() as f64 / runtime_s / gb,
            sram_bandwidth_gbps: traffic.sram.total() as f64 / runtime_s / gb,
            throughput_per_s: 1.0 / runtime_s,
            utilization: map.utilization(),
            macs: gemm.macs(),
        };
        usystolic_obs::with(|o| {
            let scheme_label = self.config.scheme().label();
            o.metrics.count("sim.layers", 1);
            o.metrics
                .count_labeled("sim.layers", &[("scheme", scheme_label)], 1);
            o.metrics.count("sim.macs", report.macs);
            o.metrics.count_labeled(
                "sim.runtime_cycles_by_scheme",
                &[("scheme", scheme_label)],
                report.timing.runtime_cycles,
            );
            o.metrics
                .gauge("sim.dram_bandwidth_gbps", report.dram_bandwidth_gbps);
            o.metrics.gauge("sim.utilization", report.utilization);
            // One simulated cycle maps to one microsecond-unit tick on the
            // PID_SIM lane; layers abut on a virtual cursor the session
            // advances because the timing model is analytic.
            let ts = o.sim_cycles as f64;
            let args = o.correlated_args(vec![
                ("scheme".to_owned(), self.config.scheme().to_json()),
                ("macs".to_owned(), report.macs.to_json()),
                (
                    "ideal_cycles".to_owned(),
                    report.timing.ideal_cycles.to_json(),
                ),
                (
                    "stall_cycles".to_owned(),
                    report.timing.stall_cycles.to_json(),
                ),
                (
                    "dram_bytes".to_owned(),
                    report.traffic.dram.total().to_json(),
                ),
                ("utilization".to_owned(), report.utilization.to_json()),
            ]);
            o.tracer.complete(
                format!("layer {}", self.config.scheme().label()),
                "sim",
                usystolic_obs::PID_SIM,
                0,
                ts,
                report.timing.runtime_cycles as f64,
                args,
            );
            o.tracer.counter(
                "sim.dram_bandwidth_gbps",
                "sim",
                usystolic_obs::PID_SIM,
                ts,
                report.dram_bandwidth_gbps,
            );
            o.sim_cycles += report.timing.runtime_cycles;
        });
        report
    }

    /// Simulates a sequence of layers (e.g. a network), returning one
    /// report per layer. Layers run in order, as the paper's simulator
    /// times a network: the makespan is the sum of the layer runtimes.
    #[must_use]
    pub fn simulate_network(&self, layers: &[GemmConfig]) -> Vec<LayerReport> {
        layers.iter().map(|l| self.simulate(l)).collect()
    }
}

impl usystolic_obs::ToJson for LayerReport {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("timing", self.timing.to_json()),
            ("traffic", self.traffic.to_json()),
            ("runtime_s", self.runtime_s.to_json()),
            ("dram_bandwidth_gbps", self.dram_bandwidth_gbps.to_json()),
            ("sram_bandwidth_gbps", self.sram_bandwidth_gbps.to_json()),
            ("throughput_per_s", self.throughput_per_s.to_json()),
            ("utilization", self.utilization.to_json()),
            ("macs", self.macs.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_core::ComputingScheme;

    fn alexnet_conv2() -> GemmConfig {
        GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).unwrap()
    }

    fn two_layers() -> Vec<GemmConfig> {
        vec![alexnet_conv2(), GemmConfig::matmul(1, 9216, 4096).unwrap()]
    }

    #[test]
    fn report_units_are_consistent() {
        let sim = Simulator::new(
            SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
            MemoryHierarchy::edge_with_sram(),
        );
        let r = sim.simulate(&alexnet_conv2());
        assert!((r.runtime_s - r.timing.runtime_cycles as f64 / CLOCK_HZ).abs() < 1e-12);
        assert!((r.throughput_per_s * r.runtime_s - 1.0).abs() < 1e-9);
        assert!(r.dram_bandwidth_gbps > 0.0);
        assert!(r.sram_bandwidth_gbps > 0.0);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        assert_eq!(r.macs, alexnet_conv2().macs());
    }

    #[test]
    fn longer_mac_cycles_reduce_dram_bandwidth() {
        // Fig. 10 (edge): more multiplication cycles always decrease DRAM
        // bandwidth under light contention.
        let mem = MemoryHierarchy::no_sram();
        let mut last = f64::INFINITY;
        for cycles in [32u64, 64, 128] {
            let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(cycles)
                .unwrap();
            let r = Simulator::new(cfg, mem).simulate(&alexnet_conv2());
            assert!(
                r.dram_bandwidth_gbps < last,
                "{cycles}c: {} not below {last}",
                r.dram_bandwidth_gbps
            );
            last = r.dram_bandwidth_gbps;
        }
    }

    #[test]
    fn unary_dram_bandwidth_is_crawling() {
        // Paper: [0.11, 0.47] GB/s for compute-bound conv layers without
        // SRAM. Check the order of magnitude.
        let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
            .with_mul_cycles(32)
            .unwrap();
        let r = Simulator::new(cfg, MemoryHierarchy::no_sram()).simulate(&alexnet_conv2());
        assert!(
            r.dram_bandwidth_gbps < 1.0,
            "unary conv bandwidth {} should crawl",
            r.dram_bandwidth_gbps
        );
    }

    #[test]
    fn binary_needs_orders_of_magnitude_more_bandwidth() {
        let mem = MemoryHierarchy::no_sram();
        let bp = Simulator::new(
            SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
            mem,
        )
        .simulate(&alexnet_conv2());
        let ur = Simulator::new(
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(128)
                .unwrap(),
            mem,
        )
        .simulate(&alexnet_conv2());
        assert!(
            bp.dram_bandwidth_gbps > 10.0 * ur.dram_bandwidth_gbps,
            "BP {} vs UR {}",
            bp.dram_bandwidth_gbps,
            ur.dram_bandwidth_gbps
        );
    }

    #[test]
    fn early_termination_scales_throughput_almost_linearly() {
        // Section V-D takeaway: on the edge, throughput grows almost
        // linearly with the reciprocal of MAC cycles.
        let mem = MemoryHierarchy::no_sram();
        let t32 = Simulator::new(
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(32)
                .unwrap(),
            mem,
        )
        .simulate(&alexnet_conv2())
        .throughput_per_s;
        let t128 = Simulator::new(
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(128)
                .unwrap(),
            mem,
        )
        .simulate(&alexnet_conv2())
        .throughput_per_s;
        let ratio = t32 / t128;
        assert!(
            (ratio - 129.0 / 33.0).abs() / (129.0 / 33.0) < 0.1,
            "ratio {ratio} should be near {}",
            129.0 / 33.0
        );
    }

    #[test]
    fn network_simulation_reports_per_layer() {
        let sim = Simulator::new(
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8),
            MemoryHierarchy::no_sram(),
        );
        let reports = sim.simulate_network(&two_layers());
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn packed_fidelity_is_bit_identical_per_layer() {
        let cycle = Simulator::new(
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(128)
                .unwrap(),
            MemoryHierarchy::edge_with_sram(),
        );
        let packed = cycle.with_fidelity(Fidelity::Packed);
        assert_eq!(
            cycle.simulate_network(&two_layers()),
            packed.simulate_network(&two_layers())
        );
    }

    #[test]
    fn analytic_fidelity_never_slows_a_layer_down() {
        // Dropping the SRAM service bound can only shorten runtimes.
        let exact = Simulator::new(
            SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
            MemoryHierarchy::edge_with_sram(),
        );
        let analytic = exact.with_fidelity(Fidelity::Analytic);
        for (e, a) in exact
            .simulate_network(&two_layers())
            .iter()
            .zip(analytic.simulate_network(&two_layers()))
        {
            assert!(a.timing.runtime_cycles <= e.timing.runtime_cycles);
        }
    }

    #[test]
    fn custom_clock_rescales_time() {
        let cfg = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        let mem = MemoryHierarchy::edge_with_sram();
        let base = Simulator::new(cfg, mem).simulate(&alexnet_conv2());
        let fast = Simulator::new(cfg, mem)
            .with_clock(800.0e6)
            .simulate(&alexnet_conv2());
        assert!((fast.runtime_s - base.runtime_s / 2.0).abs() < 1e-9);
    }
}
