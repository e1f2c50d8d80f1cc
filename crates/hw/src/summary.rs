//! Network-level aggregation of per-layer evaluations: one inference's
//! total runtime, energy and average power, plus derived
//! inferences-per-joule — the numbers system designers actually budget
//! with (§V-H's battery scenario).

use crate::evaluate::{evaluate_network, LayerEvaluation};
use usystolic_core::SystolicConfig;
use usystolic_gemm::GemmConfig;
use usystolic_sim::MemoryHierarchy;

/// Aggregated evaluation of one full network pass.
#[derive(Debug, Clone)]
pub struct NetworkEvaluation {
    /// Per-layer records, in execution order.
    pub layers: Vec<LayerEvaluation>,
    /// Total runtime of one inference in seconds.
    pub runtime_s: f64,
    /// Total on-chip energy per inference in joules.
    pub on_chip_j: f64,
    /// Total energy (including DRAM) per inference in joules.
    pub total_j: f64,
    /// Total MAC operations.
    pub macs: u64,
}

impl NetworkEvaluation {
    /// Evaluates every layer, in order, and aggregates.
    #[must_use]
    pub fn evaluate(
        config: &SystolicConfig,
        memory: &MemoryHierarchy,
        gemms: &[GemmConfig],
    ) -> Self {
        let layers = evaluate_network(config, memory, gemms);
        let runtime_s = layers.iter().map(|l| l.report.runtime_s).sum();
        let on_chip_j = layers.iter().map(|l| l.energy.on_chip_j()).sum();
        let total_j = layers.iter().map(|l| l.energy.total_j()).sum();
        let macs = layers.iter().map(|l| l.report.macs).sum();
        Self {
            layers,
            runtime_s,
            on_chip_j,
            total_j,
            macs,
        }
    }

    /// Inferences per second.
    #[must_use]
    pub fn inferences_per_s(&self) -> f64 {
        1.0 / self.runtime_s
    }

    /// Average on-chip power over one inference, in watts.
    #[must_use]
    pub fn on_chip_power_w(&self) -> f64 {
        self.on_chip_j / self.runtime_s
    }

    /// Average total power, in watts.
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.total_j / self.runtime_s
    }

    /// Inferences per joule of on-chip energy (the battery metric).
    #[must_use]
    pub fn inferences_per_on_chip_joule(&self) -> f64 {
        1.0 / self.on_chip_j
    }

    /// Effective MAC throughput in GOPS (two ops per MAC).
    #[must_use]
    pub fn gops(&self) -> f64 {
        2.0 * self.macs as f64 / self.runtime_s / 1.0e9
    }
}

impl usystolic_obs::ToJson for NetworkEvaluation {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("layers", self.layers.to_json()),
            ("runtime_s", self.runtime_s.to_json()),
            ("on_chip_j", self.on_chip_j.to_json()),
            ("total_j", self.total_j.to_json()),
            ("macs", self.macs.to_json()),
            ("inferences_per_s", self.inferences_per_s().to_json()),
            ("gops", self.gops().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_core::ComputingScheme;
    use usystolic_models::zoo::alexnet;

    fn eval(scheme: ComputingScheme, cycles: Option<u64>) -> NetworkEvaluation {
        let mut cfg = SystolicConfig::edge(scheme, 8);
        if let Some(c) = cycles {
            cfg = cfg.with_mul_cycles(c).expect("valid EBT");
        }
        let mem = if scheme.is_unary() {
            MemoryHierarchy::no_sram()
        } else {
            MemoryHierarchy::edge_with_sram()
        };
        NetworkEvaluation::evaluate(&cfg, &mem, &alexnet().gemms())
    }

    #[test]
    fn totals_sum_per_layer_records() {
        let ev = eval(ComputingScheme::UnaryRate, Some(64));
        assert_eq!(ev.layers.len(), 8);
        let rt: f64 = ev.layers.iter().map(|l| l.report.runtime_s).sum();
        assert!((ev.runtime_s - rt).abs() < 1e-12);
        assert!(ev.total_j > ev.on_chip_j);
        assert_eq!(ev.macs, alexnet().macs());
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let ev = eval(ComputingScheme::BinaryParallel, None);
        assert!((ev.inferences_per_s() * ev.runtime_s - 1.0).abs() < 1e-9);
        assert!((ev.on_chip_power_w() * ev.runtime_s - ev.on_chip_j).abs() / ev.on_chip_j < 1e-9);
        assert!(ev.gops() > 0.0);
    }

    #[test]
    fn early_termination_improves_the_battery_metric() {
        let e32 = eval(ComputingScheme::UnaryRate, Some(32));
        let e128 = eval(ComputingScheme::UnaryRate, Some(128));
        assert!(e32.inferences_per_on_chip_joule() > e128.inferences_per_on_chip_joule());
        // And binary burns more on-chip energy per inference than
        // early-terminated unary.
        let bp = eval(ComputingScheme::BinaryParallel, None);
        assert!(e32.on_chip_j < bp.on_chip_j);
    }
}
