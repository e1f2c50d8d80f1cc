//! # uSystolic — byte-crawling unary systolic array
//!
//! Facade crate for the reproduction of *"uSystolic: Byte-Crawling Unary
//! Systolic Array"* (Wu & San Miguel, HPCA 2022). It re-exports the
//! workspace crates under stable module names:
//!
//! * [`unary`] — unary computing substrate (bitstreams, Sobol/LFSR RNGs,
//!   rate/temporal coding, uMUL, SCC, early termination).
//! * [`gemm`] — GEMM configuration (Table II), reference loop nest,
//!   tensors and fixed-point quantisation.
//! * [`arch`] — functional systolic arrays: the uSystolic PE array plus the
//!   binary parallel, binary serial and uGEMM-H baselines.
//! * [`des`] — the deterministic event calendar behind [`serve`]'s fleet
//!   loop, and the `CycleAccurate | Packed | Analytic` fidelity tier that
//!   [`sim`] and [`serve`] apply to a whole run.
//! * [`sim`] — the uSystolic-Sim substitute: weight-stationary timing,
//!   SRAM/DRAM memory hierarchy, per-layer bandwidth and runtime; a
//!   network is timed as the in-order sequence of its layers.
//! * [`hw`] — hardware cost models (area, leakage/dynamic energy, power,
//!   efficiency) standing in for Design Compiler + CACTI.
//! * [`models`] — DNN workload zoo (AlexNet, ResNet18, MNIST CNN,
//!   MLPerf-like suite) and a pure-Rust CNN trainer.
//! * [`obs`] — zero-dependency observability: cycle-level tracing with
//!   Chrome `trace_event`/JSONL export, a metrics registry and the
//!   [`obs::ToJson`] structured-JSON trait.
//! * [`analyze`] — static invariant checker: validates raw (possibly
//!   illegal) configurations against the paper's invariants without
//!   simulation, reporting stable `USYxxx` diagnostics.
//! * [`serve`] — batched request serving on simulated instance pools:
//!   bounded admission, deadline/priority-aware batching dispatch,
//!   deterministic load generation and exact p50/p95/p99 latency
//!   histograms.
//! * [`pool`] — the shared host-side work-stealing thread pool behind the
//!   workload profiling of [`serve`] and the tile sweeps of [`arch`]
//!   (deterministic: worker count never changes results).
//! * [`faults`] — deterministic fault injection: seeded transient bit
//!   flips, stuck-at PEs and memory word corruption with bit-identical
//!   serial/packed outcomes, plus the binary resilience baseline.
//!
//! # Quickstart
//!
//! ```
//! use usystolic::arch::{ComputingScheme, SystolicConfig};
//! use usystolic::gemm::GemmConfig;
//!
//! // An 8-bit uSystolic rate-coded array in the paper's edge shape.
//! let config = SystolicConfig::edge(ComputingScheme::UnaryRate, 8);
//! let gemm = GemmConfig::matmul(4, 6, 5);
//! # let _ = (config, gemm);
//! ```

pub use usystolic_analyze as analyze;
pub use usystolic_core as arch;
pub use usystolic_des as des;
pub use usystolic_faults as faults;
pub use usystolic_gemm as gemm;
pub use usystolic_hw as hw;
pub use usystolic_models as models;
pub use usystolic_obs as obs;
pub use usystolic_pool as pool;
pub use usystolic_serve as serve;
pub use usystolic_sim as sim;
pub use usystolic_unary as unary;
