//! Conservation and monotonicity invariants of the timing/memory
//! simulator, checked across a grid of design points and layer shapes,
//! plus fixed-seed SplitMix64 sweeps over dataflows and jitter slack.

use usystolic::arch::{ComputingScheme, SystolicConfig};
use usystolic::gemm::GemmConfig;
use usystolic::sim::{
    ideal_cycles, ideal_cycles_with, layer_traffic_with, Dataflow, MemoryHierarchy, Simulator,
    SlackBudget,
};
use usystolic::unary::rng::SplitMix64;

fn layer_grid() -> Vec<GemmConfig> {
    vec![
        GemmConfig::matmul(1, 64, 64).expect("valid"),
        GemmConfig::matmul(1, 9216, 4096).expect("valid"),
        GemmConfig::matmul(32, 512, 512).expect("valid"),
        GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).expect("valid"),
        GemmConfig::conv(15, 15, 384, 3, 3, 1, 384).expect("valid"),
        GemmConfig::conv(227, 227, 3, 11, 11, 4, 96).expect("valid"),
        GemmConfig::conv(5, 5, 1, 3, 3, 2, 2).expect("valid"),
    ]
}

fn design_grid() -> Vec<(SystolicConfig, MemoryHierarchy)> {
    let mut out = Vec::new();
    for scheme in ComputingScheme::ALL {
        for (cfg, sram) in [
            (
                SystolicConfig::edge(scheme, 8),
                MemoryHierarchy::edge_with_sram(),
            ),
            (
                SystolicConfig::cloud(scheme, 8),
                MemoryHierarchy::cloud_with_sram(),
            ),
        ] {
            out.push((cfg, sram));
            out.push((cfg, MemoryHierarchy::no_sram()));
        }
    }
    out
}

#[test]
fn runtime_never_beats_ideal() {
    for (cfg, mem) in design_grid() {
        let sim = Simulator::new(cfg, mem);
        for gemm in layer_grid() {
            let r = sim.simulate(&gemm);
            assert!(
                r.timing.runtime_cycles >= r.timing.ideal_cycles,
                "{cfg} {gemm}"
            );
            assert_eq!(
                r.timing.runtime_cycles,
                r.timing.ideal_cycles + r.timing.stall_cycles
            );
        }
    }
}

#[test]
fn dram_bandwidth_never_exceeds_sustained_rate() {
    for (cfg, mem) in design_grid() {
        let sim = Simulator::new(cfg, mem);
        let limit = mem.dram.sustained_bytes_per_cycle() * usystolic::sim::CLOCK_HZ / 1.0e9;
        for gemm in layer_grid() {
            let r = sim.simulate(&gemm);
            assert!(
                r.dram_bandwidth_gbps <= limit * 1.001,
                "{cfg} {gemm}: {} GB/s over the {limit} GB/s DRAM limit",
                r.dram_bandwidth_gbps
            );
        }
    }
}

#[test]
fn removing_sram_never_reduces_dram_traffic() {
    for scheme in ComputingScheme::ALL {
        let cfg = SystolicConfig::edge(scheme, 8);
        for gemm in layer_grid() {
            let with = Simulator::new(cfg, MemoryHierarchy::edge_with_sram()).simulate(&gemm);
            let without = Simulator::new(cfg, MemoryHierarchy::no_sram()).simulate(&gemm);
            assert!(
                without.traffic.dram.total() >= with.traffic.dram.total(),
                "{scheme} {gemm}: no-SRAM traffic {} below with-SRAM {}",
                without.traffic.dram.total(),
                with.traffic.dram.total()
            );
            assert_eq!(without.traffic.sram.total(), 0);
        }
    }
}

#[test]
fn longer_mac_intervals_increase_runtime() {
    for gemm in layer_grid() {
        let mut last = 0u64;
        for cycles in [32u64, 64, 128] {
            let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(cycles)
                .expect("valid cycle count");
            let r = Simulator::new(cfg, MemoryHierarchy::no_sram()).simulate(&gemm);
            assert!(
                r.timing.runtime_cycles > last,
                "{gemm}: {cycles}c runtime {} not above previous {last}",
                r.timing.runtime_cycles
            );
            last = r.timing.runtime_cycles;
        }
    }
}

#[test]
fn ideal_cycles_scale_with_gemm_size() {
    let cfg = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
    let small = GemmConfig::matmul(10, 12, 14).expect("valid");
    let big = GemmConfig::matmul(20, 12, 14).expect("valid");
    assert!(ideal_cycles(&big, &cfg) > ideal_cycles(&small, &cfg));
}

#[test]
fn bigger_arrays_do_not_slow_layers_down() {
    // For a fixed compute-bound layer, the cloud array is at least as fast
    // as the edge array under every scheme.
    let gemm = GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).expect("valid");
    for scheme in ComputingScheme::ALL {
        let edge = Simulator::new(
            SystolicConfig::edge(scheme, 8),
            MemoryHierarchy::edge_with_sram(),
        )
        .simulate(&gemm);
        let cloud = Simulator::new(
            SystolicConfig::cloud(scheme, 8),
            MemoryHierarchy::cloud_with_sram(),
        )
        .simulate(&gemm);
        assert!(
            cloud.runtime_s <= edge.runtime_s,
            "{scheme}: cloud {} vs edge {}",
            cloud.runtime_s,
            edge.runtime_s
        );
    }
}

#[test]
fn sixteen_bit_layers_move_more_bytes() {
    for scheme in [ComputingScheme::BinaryParallel, ComputingScheme::UnaryRate] {
        let gemm = GemmConfig::conv(15, 15, 64, 3, 3, 1, 64).expect("valid");
        let t8 = Simulator::new(SystolicConfig::edge(scheme, 8), MemoryHierarchy::no_sram())
            .simulate(&gemm);
        let t16 = Simulator::new(SystolicConfig::edge(scheme, 16), MemoryHierarchy::no_sram())
            .simulate(&gemm);
        assert!(
            t16.traffic.dram.total() >= 2 * t8.traffic.dram.total(),
            "{scheme}"
        );
    }
}

/// On random matmuls, both dataflows schedule non-empty work, and each
/// reads its stationary operand from DRAM exactly once and its streamed
/// operand at least once.
#[test]
fn dataflows_read_their_stationary_operand_once() {
    let mut rng = SplitMix64::new(0xDA7A);
    for case in 0..128 {
        let m = 1 + rng.below(29) as usize;
        let k = 1 + rng.below(59) as usize;
        let n = 1 + rng.below(59) as usize;
        let gemm = GemmConfig::matmul(m, k, n).expect("valid shape");
        assert_eq!(gemm.macs(), (m * k * n) as u64);
        let bp = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
        let ur = SystolicConfig::edge(ComputingScheme::UnaryRate, 8);
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            assert!(ideal_cycles_with(&gemm, &bp, df) > 0, "case {case} {df:?}");
        }
        let ws = layer_traffic_with(&gemm, &ur, Dataflow::WeightStationary);
        let is = layer_traffic_with(&gemm, &ur, Dataflow::InputStationary);
        let (ifm, weight) = ((m * k) as u64, (k * n) as u64);
        assert_eq!((ws.dram.weight, is.dram.ifm), (weight, ifm), "case {case}");
        assert!(
            ws.dram.ifm >= ifm && is.dram.weight >= weight,
            "case {case}"
        );
    }
}

/// Jitter slack: no stall up to the tolerated jitter, a linear stall past
/// it, expected stall monotone in the jitter bound, and throughput
/// retention in (0, 1], for 16- to 128-cycle multiply windows and every
/// jitter below 300 cycles.
#[test]
fn jitter_slack_is_free_then_linear() {
    for cycles_exp in 0..4u32 {
        let cfg = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
            .with_mul_cycles(16 << cycles_exp)
            .expect("valid EBT");
        let b = SlackBudget::for_config(&cfg);
        for jitter in 0..300u64 {
            let stall = jitter.saturating_sub(b.tolerated_jitter());
            assert_eq!(
                b.stall_for(jitter),
                stall,
                "mul {} jitter {jitter}",
                16 << cycles_exp
            );
            assert!(b.expected_stall(jitter) <= b.expected_stall(jitter + 10));
            let r = b.throughput_retention(jitter);
            assert!(r > 0.0 && r <= 1.0, "retention {r}");
        }
    }
}
