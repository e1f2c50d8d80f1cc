//! Serving configuration, errors and the end-of-run report.

use crate::faults::FleetFaultPlan;
use crate::loadgen::LoadGenConfig;
use crate::pool::PoolError;
use usystolic_core::SystolicConfig;
use usystolic_des::Fidelity;
use usystolic_obs::{JsonValue, QuantileHistogram, ToJson};
use usystolic_sim::{MemoryHierarchy, CLOCK_HZ};

/// Everything the serving engine needs besides the workloads themselves.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The systolic array every instance simulates.
    pub array: SystolicConfig,
    /// The memory hierarchy (SRAM per instance, DRAM shared).
    pub memory: MemoryHierarchy,
    /// Number of simulated array instances.
    pub instances: usize,
    /// Admission queue bound (requests beyond it are rejected).
    pub queue_capacity: usize,
    /// Largest batch one dispatch may carry.
    pub max_batch: usize,
    /// Host worker threads for profiling the workloads before the event
    /// loop (clamped to ≥ 1). The event loop itself is sequential, so
    /// this changes wall-clock time, never a result.
    pub workers: usize,
    /// Arrival horizon: no request arrives at or after this cycle
    /// (in-flight work still drains to completion).
    pub duration_cycles: u64,
    /// Load generator configuration. The engine overrides
    /// [`LoadGenConfig::classes`] with the number of workloads.
    pub load: LoadGenConfig,
    /// Fleet fault plan ([`FleetFaultPlan::default`] for a quiet,
    /// fault-free run — the engine is then bit-identical to one without
    /// the fault layer).
    pub faults: FleetFaultPlan,
    /// Model resolution the event loop dispatches at.
    /// [`Fidelity::CycleAccurate`] (the default) and [`Fidelity::Packed`]
    /// are bit-identical; [`Fidelity::Analytic`] trades exactness for
    /// `O(1)` service estimates at fleet scale.
    pub fidelity: Fidelity,
}

/// Errors from [`serve`](crate::engine::serve).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// No workloads were registered.
    NoWorkloads,
    /// A workload has no layers (named).
    EmptyWorkload(String),
    /// A degenerate knob (zero instances, queue, batch or duration).
    InvalidConfig(&'static str),
    /// A worker thread failed during a parallel phase.
    Pool(PoolError),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::NoWorkloads => write!(f, "no workloads registered"),
            ServeError::EmptyWorkload(name) => {
                write!(f, "workload '{name}' has no layers")
            }
            ServeError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            ServeError::Pool(e) => write!(f, "worker pool failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Pool(e) => Some(e),
            _ => None,
        }
    }
}

/// The percentile summary of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean in cycles.
    pub mean_cycles: f64,
    /// Median (nearest-rank p50) in cycles.
    pub p50_cycles: u64,
    /// Nearest-rank p95 in cycles.
    pub p95_cycles: u64,
    /// Nearest-rank p99 in cycles.
    pub p99_cycles: u64,
    /// Largest sample in cycles.
    pub max_cycles: u64,
}

impl From<&QuantileHistogram> for LatencySummary {
    /// The p50/p95/p99 summary used throughout the serving reports (all
    /// zero when the histogram is empty).
    fn from(h: &QuantileHistogram) -> Self {
        Self {
            count: h.count(),
            mean_cycles: h.mean(),
            p50_cycles: h.percentile(50.0).unwrap_or(0),
            p95_cycles: h.percentile(95.0).unwrap_or(0),
            p99_cycles: h.percentile(99.0).unwrap_or(0),
            max_cycles: h.max().unwrap_or(0),
        }
    }
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("count", self.count.to_json()),
            ("mean_cycles", self.mean_cycles.to_json()),
            ("p50_cycles", self.p50_cycles.to_json()),
            ("p95_cycles", self.p95_cycles.to_json()),
            ("p99_cycles", self.p99_cycles.to_json()),
            ("max_cycles", self.max_cycles.to_json()),
        ])
    }
}

/// The end-of-run serving report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Simulated array instances.
    pub instances: usize,
    /// Host worker threads used for profiling.
    pub workers: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Batch bound.
    pub max_batch: usize,
    /// Configured arrival horizon in cycles.
    pub duration_cycles: u64,
    /// Cycle of the last event (≥ `duration_cycles`; the drain tail).
    pub makespan_cycles: u64,
    /// Requests that arrived.
    pub offered: u64,
    /// Requests past admission.
    pub admitted: u64,
    /// Requests turned away (bounded queue full).
    pub rejected: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Admitted requests that expired while queued (wait budget or
    /// deadline shedding).
    pub timed_out: u64,
    /// Admitted requests lost to shard failure with retries exhausted.
    pub failed: u64,
    /// Retry attempts scheduled after shard crashes.
    pub retries: u64,
    /// Requests re-routed to surviving shards after their shard crashed.
    pub failovers: u64,
    /// Requests served degraded under brown-out.
    pub brownout_requests: u64,
    /// Shards that fail-stopped during the run.
    pub shard_crashes: u64,
    /// Requests that missed their deadline (late or never completed).
    pub deadline_missed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: usize,
    /// End-to-end latency (arrival → completion).
    pub latency: LatencySummary,
    /// Queue wait (arrival → dispatch).
    pub queue_wait: LatencySummary,
    /// Service time (dispatch → completion).
    pub service: LatencySummary,
    /// Busy cycles per instance.
    pub instance_busy_cycles: Vec<u64>,
    /// Completed requests per second of simulated time.
    pub throughput_per_s: f64,
    /// Mean busy fraction across instances over the makespan.
    pub mean_utilization: f64,
    /// Registered workload class names (index = request class).
    pub workload_names: Vec<String>,
    /// Completions per workload class.
    pub per_class_completed: Vec<u64>,
}

impl ServeReport {
    /// Mean batch size over all dispatches (0 when nothing dispatched).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Converts cycles to milliseconds at the simulator clock.
    #[must_use]
    pub fn cycles_to_ms(cycles: u64) -> f64 {
        cycles as f64 / CLOCK_HZ * 1.0e3
    }

    /// Requests unaccounted for: admitted minus every terminal
    /// disposition. Zero on every run — the engine asserts it — and
    /// exported so external harnesses can check shard-kill scenarios
    /// lose nothing.
    #[must_use]
    pub fn lost(&self) -> i64 {
        self.admitted.cast_signed() - (self.completed + self.timed_out + self.failed).cast_signed()
    }

    /// The request-conservation ledger: every offered request is
    /// admitted or rejected, and every admitted request completes,
    /// times out or fails — nothing is silently dropped, even under
    /// shard crashes and retries.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.offered == self.admitted + self.rejected && self.lost() == 0
    }
}

fn summary_json(s: &LatencySummary) -> JsonValue {
    let mut j = s.to_json();
    if let JsonValue::Object(pairs) = &mut j {
        pairs.push((
            "p50_ms".to_owned(),
            ServeReport::cycles_to_ms(s.p50_cycles).to_json(),
        ));
        pairs.push((
            "p95_ms".to_owned(),
            ServeReport::cycles_to_ms(s.p95_cycles).to_json(),
        ));
        pairs.push((
            "p99_ms".to_owned(),
            ServeReport::cycles_to_ms(s.p99_cycles).to_json(),
        ));
    }
    j
}

impl ToJson for ServeReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("instances", self.instances.to_json()),
            ("workers", self.workers.to_json()),
            ("queue_capacity", self.queue_capacity.to_json()),
            ("max_batch", self.max_batch.to_json()),
            ("duration_cycles", self.duration_cycles.to_json()),
            ("makespan_cycles", self.makespan_cycles.to_json()),
            ("offered", self.offered.to_json()),
            ("admitted", self.admitted.to_json()),
            ("rejected", self.rejected.to_json()),
            ("completed", self.completed.to_json()),
            ("timed_out", self.timed_out.to_json()),
            ("failed", self.failed.to_json()),
            ("lost", self.lost().to_json()),
            ("conserved", self.conserved().to_json()),
            ("retries", self.retries.to_json()),
            ("failovers", self.failovers.to_json()),
            ("brownout_requests", self.brownout_requests.to_json()),
            ("shard_crashes", self.shard_crashes.to_json()),
            ("deadline_missed", self.deadline_missed.to_json()),
            ("batches", self.batches.to_json()),
            ("mean_batch_size", self.mean_batch_size().to_json()),
            ("max_queue_depth", self.max_queue_depth.to_json()),
            ("latency", summary_json(&self.latency)),
            ("queue_wait", summary_json(&self.queue_wait)),
            ("service", summary_json(&self.service)),
            (
                "instance_busy_cycles",
                JsonValue::Array(
                    self.instance_busy_cycles
                        .iter()
                        .map(ToJson::to_json)
                        .collect(),
                ),
            ),
            ("throughput_per_s", self.throughput_per_s.to_json()),
            ("mean_utilization", self.mean_utilization.to_json()),
            (
                "workloads",
                JsonValue::Array(
                    self.workload_names
                        .iter()
                        .zip(&self.per_class_completed)
                        .map(|(name, &done)| {
                            JsonValue::object(vec![
                                ("name", name.to_json()),
                                ("completed", done.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            ServeError::NoWorkloads.to_string(),
            "no workloads registered"
        );
        assert!(ServeError::EmptyWorkload("vgg16".to_owned())
            .to_string()
            .contains("vgg16"));
        assert!(ServeError::InvalidConfig("instances must be at least 1")
            .to_string()
            .contains("instances"));
        assert!(ServeError::Pool(PoolError::WorkerFailed)
            .to_string()
            .contains("worker"));
    }

    #[test]
    fn cycles_to_ms_uses_the_sim_clock() {
        // 400 MHz: 400k cycles = 1 ms.
        let ms = ServeReport::cycles_to_ms(400_000);
        assert!((ms - 1.0).abs() < 1e-12);
    }
}
