//! # usystolic-serve — batched request serving on simulated array pools
//!
//! A discrete-event serving simulator for pools of uSystolic array
//! instances. Inference requests — a zoo network or a raw GEMM, an
//! arrival cycle, a priority and an optional deadline — flow through
//! three stages:
//!
//! * [`admission`] — a bounded queue with explicit rejection: overload
//!   produces back-pressure the report can see, never unbounded memory;
//! * [`scheduler`] — priority-tiered earliest-deadline-first dispatch
//!   that packs same-class batches onto free instances, amortising each
//!   class's weight preload across the batch;
//! * completion — per-request stage timelines folded into the obs
//!   crate's [`QuantileHistogram`](usystolic_obs::QuantileHistogram) for
//!   p50/p95/p99 as each request leaves the system (exact below its
//!   2^18-key cap, rounded to fewer significant bits above it);
//!   [`serve_with`] also hands every [`RequestRecord`] to a caller's
//!   sink.
//!
//! Service times come from the workspace's own timing model
//! ([`workload`] wraps `ideal_cycles` / `layer_traffic`), including the
//! §V-H shared-DRAM contention of `MultiInstanceSystem` as concurrency
//! rises. Load is generated deterministically ([`loadgen`]): open-loop
//! Poisson-like, open-loop uniform, or closed-loop with think time, all
//! seeded through the workspace's shared SplitMix64.
//!
//! The engine ([`engine::serve`]) is **bit-for-bit deterministic for any
//! worker count**. It runs two phases. The shared host-side work-stealing
//! pool ([`usystolic_pool`], re-exported as [`pool`]) only profiles the
//! workloads, a pure phase, before the event loop. Every admission,
//! scheduling and timing decision, and every statistic, then happens in
//! the fleet's one sequential loop over a `usystolic_des` event
//! calendar. `--workers` changes wall-clock time, never one number in the
//! report. Open-loop arrivals are drawn one ahead and each request is
//! folded into the statistics as it leaves, so the calendar holds one
//! arrival plus the in-flight work and no per-request record is kept.
//! Service times resolve at a configurable [`Fidelity`], and both tiers
//! are bit-identical: cycle-accurate re-derives a class's layer profiles
//! at every dispatch, packed reads the totals hoisted before the loop.
//!
//! Fleet resilience is scripted through [`faults`]: shard crashes with
//! epoch-invalidated completions, bounded retry with deterministic
//! exponential backoff and seeded jitter, queue-wait timeouts, deadline
//! shedding, shard slowdowns, and brown-out degradation under overload.
//! The engine asserts *request conservation* — every admitted request
//! completes, times out or fails; nothing is silently lost, even when
//! shards die mid-batch ([`ServeReport::lost`] is always zero).
//!
//! ```
//! use usystolic_core::{ComputingScheme, SystolicConfig};
//! use usystolic_gemm::GemmConfig;
//! use usystolic_serve::loadgen::{ArrivalProcess, LoadGenConfig};
//! use usystolic_serve::{serve, FleetFaultPlan, ServeConfig, Workload};
//! use usystolic_sim::MemoryHierarchy;
//!
//! let config = ServeConfig {
//!     array: SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
//!     memory: MemoryHierarchy::edge_with_sram(),
//!     instances: 2,
//!     queue_capacity: 16,
//!     max_batch: 4,
//!     workers: 2,
//!     duration_cycles: 200_000,
//!     load: LoadGenConfig {
//!         process: ArrivalProcess::OpenPoisson { mean_interarrival_cycles: 4000.0 },
//!         seed: 7,
//!         classes: 1, // overridden with the workload count
//!         high_priority_fraction: 0.1,
//!         deadline_cycles: Some(100_000),
//!     },
//!     faults: FleetFaultPlan::default(), // quiet: no fleet faults
//!     fidelity: usystolic_serve::Fidelity::CycleAccurate,
//! };
//! let gemm = GemmConfig::matmul(64, 64, 64).expect("valid");
//! let report = serve(&config, &[Workload::from_gemm("m64", gemm)]).expect("valid config");
//! assert_eq!(report.offered, report.admitted + report.rejected);
//! # let _ = report.latency.p99_cycles;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod faults;
pub mod loadgen;
pub mod report;
pub mod request;
pub mod scheduler;
pub mod workload;

pub use admission::{Admission, AdmissionController};
pub use engine::{serve, serve_with, EventKind};
pub use faults::{BrownoutPolicy, FleetFaultPlan, RetryPolicy, ShardFailure, ShardSlowdown};
pub use loadgen::{ArrivalProcess, LoadGen, LoadGenConfig};
pub use report::{LatencySummary, ServeConfig, ServeError, ServeReport};
pub use request::{Disposition, Priority, Request, RequestRecord};
pub use scheduler::Scheduler;
pub use usystolic_des::Fidelity;
pub use usystolic_pool as pool;
pub use usystolic_pool::{run_indexed, PoolError};
pub use workload::{LayerProfile, Workload, WorkloadProfile};
