//! Section V-H: system-level discussion experiments — multi-instance
//! scaling at the shared DRAM and battery lifetime under early
//! termination.

use crate::design::ArrayShape;
use crate::table::Table;
use usystolic_core::{ComputingScheme, SystolicConfig};
use usystolic_gemm::GemmConfig;
use usystolic_hw::LayerEnergy;
use usystolic_models::zoo::alexnet;
use usystolic_sim::{battery_lifetime, MemoryHierarchy, MultiInstanceSystem, Simulator};

fn designs(shape: ArrayShape) -> Vec<(String, SystolicConfig)> {
    let base = |scheme| match shape {
        ArrayShape::Edge => SystolicConfig::edge(scheme, 8),
        ArrayShape::Cloud => SystolicConfig::cloud(scheme, 8),
    };
    vec![
        (
            "Binary Parallel".into(),
            base(ComputingScheme::BinaryParallel),
        ),
        ("Binary Serial".into(), base(ComputingScheme::BinarySerial)),
        (
            "Unary-32c".into(),
            base(ComputingScheme::UnaryRate)
                .with_mul_cycles(32)
                .expect("valid EBT"),
        ),
        (
            "Unary-128c".into(),
            base(ComputingScheme::UnaryRate)
                .with_mul_cycles(128)
                .expect("valid EBT"),
        ),
    ]
}

/// Multi-instance scaling efficiency (%) per design and instance count,
/// all instances sharing one DRAM with no per-instance SRAM.
#[must_use]
pub fn scaling_table(shape: ArrayShape) -> Table {
    let layer = GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).expect("valid layer");
    let counts = [1usize, 2, 4, 8, 16, 32, 64];
    let mut headers: Vec<String> = vec!["design".into()];
    headers.extend(counts.iter().map(|n| format!("n={n}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Section V-H: multi-instance scaling efficiency (%), {shape}"),
        &header_refs,
    );
    for (name, cfg) in designs(shape) {
        let memory = MemoryHierarchy::no_sram();
        let one = Simulator::new(cfg, memory).simulate(&layer);
        let sys = MultiInstanceSystem::new(cfg, memory);
        let mut row = vec![name];
        for &n in &counts {
            row.push(format!(
                "{:.0}",
                100.0 * sys.scale(&one, n).scaling_efficiency
            ));
        }
        table.push_row(row);
    }
    table
}

/// Battery lifetime: AlexNet inferences from a 100 J on-chip energy
/// budget across the early-termination points.
#[must_use]
pub fn battery_table() -> Table {
    let mut table = Table::new(
        "Section V-H: AlexNet inferences from a 100 J on-chip budget (edge)",
        &["design", "inferences", "lifetime (s)"],
    );
    for cycles in [32u64, 64, 128] {
        let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
            .with_mul_cycles(cycles)
            .expect("valid EBT");
        let mem = MemoryHierarchy::no_sram();
        let sim = Simulator::new(cfg, mem);
        let (mut energy, mut runtime) = (0.0, 0.0);
        for l in alexnet().gemms() {
            let report = sim.simulate(&l);
            energy += LayerEnergy::compute(&cfg, &mem, &report).on_chip_j();
            runtime += report.runtime_s;
        }
        let r = battery_lifetime(energy, runtime, 100.0);
        table.push_row(vec![
            format!("Unary-{cycles}c"),
            format!("{:.0}", r.inferences),
            format!("{:.0}", r.lifetime_s),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_scales_further_than_binary() {
        let t = scaling_table(ArrayShape::Edge);
        // At n=16: binary parallel far below 100 %, Unary-128c at 100 %.
        let eff = |row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        let n16 = 5; // columns: design, 1, 2, 4, 8, 16, ...
        assert!(eff(0, n16) < 50.0, "BP at n=16: {}", eff(0, n16));
        assert!(eff(3, n16) > 90.0, "Unary-128c at n=16: {}", eff(3, n16));
    }

    #[test]
    fn early_termination_prolongs_battery() {
        let t = battery_table();
        let inf = |row: usize| -> f64 { t.rows()[row][1].parse().unwrap() };
        assert!(
            inf(0) > inf(1) && inf(1) > inf(2),
            "32c > 64c > 128c inferences"
        );
    }
}
