//! System-level trade-offs (Section V-H): multi-instance scaling at the
//! shared-DRAM memory wall, and battery lifetime under early termination.
//!
//! ```sh
//! cargo run --release --example system_tradeoffs
//! ```

use usystolic::arch::{ComputingScheme, SystolicConfig};
use usystolic::gemm::GemmConfig;
use usystolic::hw::LayerEnergy;
use usystolic::models::zoo::alexnet;
use usystolic::sim::{battery_lifetime, MemoryHierarchy, MultiInstanceSystem, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layer = GemmConfig::conv(31, 31, 96, 5, 5, 1, 256)?; // AlexNet Conv2

    // Part 1: how many instances can share one DRAM before the memory
    // wall? (Paper: "uSystolic's low bandwidth empowers better
    // scalability.")
    println!("multi-instance scaling on one shared DRAM (AlexNet Conv2, edge arrays):\n");
    println!(
        "{:<24} {:>10} {:>14} {:>12}",
        "design", "instances", "agg. layers/s", "efficiency"
    );
    let designs = [
        (
            "Binary Parallel",
            SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
        ),
        (
            "uSystolic rate 32c",
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8).with_mul_cycles(32)?,
        ),
        (
            "uSystolic rate 128c",
            SystolicConfig::edge(ComputingScheme::UnaryRate, 8).with_mul_cycles(128)?,
        ),
    ];
    for (name, cfg) in designs {
        let memory = MemoryHierarchy::no_sram();
        let one = Simulator::new(cfg, memory).simulate(&layer);
        let sys = MultiInstanceSystem::new(cfg, memory);
        for n in [1usize, 4, 16, 64] {
            let r = sys.scale(&one, n);
            println!(
                "{:<24} {:>10} {:>14.1} {:>11.0}%{}",
                name,
                n,
                r.aggregate_throughput,
                100.0 * r.scaling_efficiency,
                if r.dram_limited {
                    "  <- memory wall"
                } else {
                    ""
                }
            );
        }
        println!();
    }

    // Part 2: battery lifetime — a 100 J budget running full AlexNet
    // passes, on-chip energy only (the battery scenario of §V-H).
    println!("battery lifetime for a 100 J on-chip budget (8-bit AlexNet):\n");
    println!(
        "{:<24} {:>14} {:>14}",
        "design", "inferences", "lifetime (s)"
    );
    for cycles in [32u64, 64, 128] {
        let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8).with_mul_cycles(cycles)?;
        let mem = MemoryHierarchy::no_sram();
        let sim = Simulator::new(cfg, mem);
        let (mut energy, mut runtime) = (0.0, 0.0);
        for l in alexnet().gemms() {
            let report = sim.simulate(&l);
            energy += LayerEnergy::compute(&cfg, &mem, &report).on_chip_j();
            runtime += report.runtime_s;
        }
        let r = battery_lifetime(energy, runtime, 100.0);
        println!(
            "{:<24} {:>14.0} {:>14.0}",
            format!("uSystolic rate {cycles}c"),
            r.inferences,
            r.lifetime_s
        );
    }
    println!("\nEarly termination stretches the same battery across more inferences.");
    Ok(())
}
