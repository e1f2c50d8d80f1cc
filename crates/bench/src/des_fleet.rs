//! Fleet-scale fidelity benchmark for the serve event loop
//! (`BENCH_des.json`).
//!
//! Serves a VGG-16 workload on a ≥256-instance fleet twice on the same
//! event calendar: once at the cycle-accurate reference tier (layer
//! profiles re-derived from the raw GEMMs at every batch dispatch) and
//! once at the analytic tier (O(1) interpolation of the `analyze`
//! service estimate). The analytic tier must be ≥10× faster wall-clock
//! while keeping its latency estimates within tolerance of the exact
//! run — the quantitative case for choosing a run's fidelity tier. A packed
//! run rides along to re-assert the middle tier is bit-identical to the
//! reference.

use std::time::Instant;

use crate::table::Table;
use usystolic_core::{ComputingScheme, SystolicConfig};
use usystolic_des::Fidelity;
use usystolic_models::zoo;
use usystolic_obs::{JsonValue, ToJson};
use usystolic_serve::loadgen::{ArrivalProcess, LoadGenConfig};
use usystolic_serve::{serve, FleetFaultPlan, ServeConfig, ServeReport, Workload};
use usystolic_sim::MemoryHierarchy;

/// Result of the fleet fidelity benchmark.
#[derive(Debug, Clone)]
pub struct DesFleetBench {
    /// Array instances in the simulated fleet.
    pub instances: usize,
    /// Requests that arrived during the horizon.
    pub offered: u64,
    /// Cycle-accurate wall time, milliseconds (best-of-iters).
    pub cycle_ms: f64,
    /// Analytic wall time, milliseconds (best-of-iters).
    pub analytic_ms: f64,
    /// `cycle_ms / analytic_ms`.
    pub speedup: f64,
    /// Speedup the run was required to reach (10 full, 2 short).
    pub speedup_target: f64,
    /// Whether the measured speedup reached the target.
    pub speedup_target_met: bool,
    /// Exact-tier report.
    pub cycle: ServeReport,
    /// Analytic-tier report.
    pub analytic: ServeReport,
    /// Whether the packed tier reproduced the cycle-accurate report bit
    /// for bit.
    pub packed_bit_identical: bool,
    /// Relative error of the analytic service p50 against exact.
    pub service_p50_rel_err: f64,
    /// Relative error of the analytic end-to-end latency p50.
    pub latency_p50_rel_err: f64,
    /// Whether the analytic estimates stayed within tolerance: no lost
    /// requests on either tier, identical completion counts, service p50
    /// within 10% and latency p50 within 25% of exact.
    pub estimates_within_tolerance: bool,
}

/// The benchmark fleet: VGG-16 inference on rate-coded unary arrays.
fn config(instances: usize, duration_cycles: u64, fidelity: Fidelity) -> ServeConfig {
    ServeConfig {
        array: SystolicConfig::edge(ComputingScheme::UnaryRate, 8),
        memory: MemoryHierarchy::no_sram(),
        instances,
        queue_capacity: 4096,
        max_batch: 8,
        workers: 1,
        duration_cycles,
        load: LoadGenConfig {
            process: ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: 2_000.0,
            },
            seed: 42,
            classes: 1,
            high_priority_fraction: 0.0,
            deadline_cycles: None,
        },
        faults: FleetFaultPlan {
            seed: 42,
            ..FleetFaultPlan::default()
        },
        fidelity,
    }
}

fn timed(cfg: &ServeConfig, workloads: &[Workload], iters: usize) -> (f64, ServeReport) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let r = serve(cfg, workloads).expect("benchmark config is valid");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        report = Some(r);
    }
    (best, report.expect("at least one iteration"))
}

fn rel_err(estimate: u64, exact: u64) -> f64 {
    (estimate as f64 - exact as f64).abs() / (exact as f64).max(1.0)
}

/// Runs the benchmark. `--short` shrinks the fleet and the horizon for
/// CI smoke runs (and relaxes the speedup bar accordingly — timing at
/// smoke scale is noise-dominated).
#[must_use]
pub fn run(short: bool) -> DesFleetBench {
    let (instances, duration_cycles, iters, speedup_target) = if short {
        (64, 500_000, 1, 2.0)
    } else {
        (256, 4_000_000, 3, 10.0)
    };
    let workloads = vec![Workload::from_network(&zoo::vgg16())];

    let cycle_cfg = config(instances, duration_cycles, Fidelity::CycleAccurate);
    let (cycle_ms, cycle) = timed(&cycle_cfg, &workloads, iters);
    let analytic_cfg = config(instances, duration_cycles, Fidelity::Analytic);
    let (analytic_ms, analytic) = timed(&analytic_cfg, &workloads, iters);
    let packed_cfg = config(instances, duration_cycles, Fidelity::Packed);
    let (_, packed) = timed(&packed_cfg, &workloads, 1);

    let speedup = cycle_ms / analytic_ms.max(1e-9);
    let service_p50_rel_err = rel_err(analytic.service.p50_cycles, cycle.service.p50_cycles);
    let latency_p50_rel_err = rel_err(analytic.latency.p50_cycles, cycle.latency.p50_cycles);
    let estimates_within_tolerance = cycle.lost() == 0
        && analytic.lost() == 0
        && analytic.completed == cycle.completed
        && service_p50_rel_err <= 0.10
        && latency_p50_rel_err <= 0.25;
    DesFleetBench {
        instances,
        offered: cycle.offered,
        cycle_ms,
        analytic_ms,
        speedup,
        speedup_target,
        speedup_target_met: speedup >= speedup_target,
        packed_bit_identical: packed.to_json().render() == cycle.to_json().render(),
        service_p50_rel_err,
        latency_p50_rel_err,
        estimates_within_tolerance,
        cycle,
        analytic,
    }
}

impl DesFleetBench {
    /// Summary table for the terminal.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "DES fleet fidelity (VGG-16 serving)",
            &["tier", "wall ms", "completed", "p50 service", "p50 latency"],
        );
        t.push_row(vec![
            "cycle".to_string(),
            format!("{:.2}", self.cycle_ms),
            self.cycle.completed.to_string(),
            self.cycle.service.p50_cycles.to_string(),
            self.cycle.latency.p50_cycles.to_string(),
        ]);
        t.push_row(vec![
            "analytic".to_string(),
            format!("{:.2}", self.analytic_ms),
            self.analytic.completed.to_string(),
            self.analytic.service.p50_cycles.to_string(),
            self.analytic.latency.p50_cycles.to_string(),
        ]);
        t.push_row(vec![
            "speedup".to_string(),
            format!("{:.1}x", self.speedup),
            format!("target {:.0}x", self.speedup_target),
            format!("svc err {:.1}%", self.service_p50_rel_err * 100.0),
            format!("lat err {:.1}%", self.latency_p50_rel_err * 100.0),
        ]);
        t
    }
}

impl ToJson for DesFleetBench {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("instances", self.instances.to_json()),
            ("offered", self.offered.to_json()),
            ("cycle_ms", self.cycle_ms.to_json()),
            ("analytic_ms", self.analytic_ms.to_json()),
            ("speedup", self.speedup.to_json()),
            ("speedup_target", self.speedup_target.to_json()),
            ("speedup_target_met", self.speedup_target_met.to_json()),
            ("packed_bit_identical", self.packed_bit_identical.to_json()),
            ("service_p50_rel_err", self.service_p50_rel_err.to_json()),
            ("latency_p50_rel_err", self.latency_p50_rel_err.to_json()),
            (
                "estimates_within_tolerance",
                self.estimates_within_tolerance.to_json(),
            ),
            ("cycle", self.cycle.to_json()),
            ("analytic", self.analytic.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_holds_the_fidelity_contract() {
        let bench = run(true);
        assert!(bench.packed_bit_identical);
        assert_eq!(bench.cycle.lost(), 0);
        assert_eq!(bench.analytic.lost(), 0);
        assert_eq!(bench.analytic.completed, bench.cycle.completed);
        assert!(bench.service_p50_rel_err <= 0.10, "{bench:?}");
    }
}
