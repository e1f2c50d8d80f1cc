//! One-call layer evaluation: timing + traffic + area + energy + power +
//! efficiency, the record every experiment binary consumes.

use crate::area::OnChipArea;
use crate::energy::{LayerEdp, LayerEnergy};
use crate::power::{Efficiency, LayerPower};
use usystolic_core::SystolicConfig;
use usystolic_gemm::GemmConfig;
use usystolic_sim::{LayerReport, MemoryHierarchy, Simulator};

/// Full hardware evaluation of one GEMM layer on one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerEvaluation {
    /// Timing / traffic / bandwidth report from the simulator.
    pub report: LayerReport,
    /// Energy breakdown.
    pub energy: LayerEnergy,
    /// Average power breakdown.
    pub power: LayerPower,
    /// Energy-delay products.
    pub edp: LayerEdp,
    /// On-chip efficiency (throughput over on-chip energy / power).
    pub on_chip_efficiency: Efficiency,
    /// Total efficiency (including DRAM).
    pub total_efficiency: Efficiency,
    /// On-chip area of the design point (constant across layers).
    pub area: OnChipArea,
}

/// Wraps an already-simulated [`LayerReport`] with the hardware model:
/// energy, power, EDP, efficiency and area for the given design
/// point. This is the one place a report becomes an evaluation.
#[must_use]
pub fn evaluate_from_report(
    config: &SystolicConfig,
    memory: &MemoryHierarchy,
    report: LayerReport,
) -> LayerEvaluation {
    let energy = LayerEnergy::compute(config, memory, &report);
    let power = LayerPower::new(&energy, report.runtime_s);
    LayerEvaluation {
        report,
        energy,
        power,
        edp: LayerEdp::new(&energy, report.runtime_s),
        on_chip_efficiency: Efficiency::on_chip(&energy, report.runtime_s, report.throughput_per_s),
        total_efficiency: Efficiency::total(&energy, report.runtime_s, report.throughput_per_s),
        area: OnChipArea::for_config(config, memory),
    }
}

/// Evaluates one layer on one design point (array + memory hierarchy).
#[must_use]
pub fn evaluate_layer(
    config: &SystolicConfig,
    memory: &MemoryHierarchy,
    gemm: &GemmConfig,
) -> LayerEvaluation {
    let report = Simulator::new(*config, *memory).simulate(gemm);
    evaluate_from_report(config, memory, report)
}

/// Evaluates a whole network on one design point, one record per layer,
/// in order ([`Simulator::simulate_network`]).
#[must_use]
pub fn evaluate_network(
    config: &SystolicConfig,
    memory: &MemoryHierarchy,
    layers: &[GemmConfig],
) -> Vec<LayerEvaluation> {
    Simulator::new(*config, *memory)
        .simulate_network(layers)
        .into_iter()
        .map(|report| evaluate_from_report(config, memory, report))
        .collect()
}

impl usystolic_obs::ToJson for LayerEvaluation {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("report", self.report.to_json()),
            ("energy", self.energy.to_json()),
            ("power", self.power.to_json()),
            ("edp", self.edp.to_json()),
            ("on_chip_efficiency", self.on_chip_efficiency.to_json()),
            ("total_efficiency", self.total_efficiency.to_json()),
            ("area", self.area.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_core::ComputingScheme;

    #[test]
    fn evaluation_is_internally_consistent() {
        let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
            .with_mul_cycles(64)
            .unwrap();
        let mem = MemoryHierarchy::no_sram();
        let gemm = GemmConfig::conv(13, 13, 64, 3, 3, 1, 96).unwrap();
        let ev = evaluate_layer(&cfg, &mem, &gemm);
        assert!(
            (ev.power.total_w() * ev.report.runtime_s - ev.energy.total_j()).abs()
                / ev.energy.total_j()
                < 1e-9
        );
        assert!(ev.on_chip_efficiency.energy_eff > ev.total_efficiency.energy_eff);
        assert_eq!(ev.area.sram_mm2, 0.0);
        assert!(ev.edp.total_js > 0.0);
    }

    #[test]
    fn network_evaluation_covers_all_layers() {
        let cfg = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        let mem = MemoryHierarchy::edge_with_sram();
        let layers = [
            GemmConfig::matmul(1, 256, 128).unwrap(),
            GemmConfig::conv(13, 13, 64, 3, 3, 1, 96).unwrap(),
        ];
        let evs = evaluate_network(&cfg, &mem, &layers);
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.energy.total_j() > 0.0));
    }
}
