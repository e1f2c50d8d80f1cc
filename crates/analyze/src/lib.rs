//! Static invariant checker for uSystolic configurations and schedules.
//!
//! The simulator and the functional executor can only run *legal*
//! configurations — [`SystolicConfig`](usystolic_core::SystolicConfig)'s
//! constructors reject everything else with a single error. This crate
//! answers the richer question: given an arbitrary, possibly-illegal
//! proposed configuration (and optionally a workload and a memory
//! hierarchy), *which* paper invariants does it violate, and how should
//! it be fixed? All checks are closed-form over the byte-crawling
//! weight-stationary model — nothing is simulated.
//!
//! The checks and their stable diagnostic codes:
//!
//! * **construction** — non-empty array, supported bitwidth
//!   (`USY001`/`USY002`);
//! * **early termination** — rate-coded-only, `mul_cycles = 2^(n-1)`,
//!   `n ≤ N`, shifter consistency (`USY010`–`USY012`, Section III-C);
//! * **accumulator width** — the reduced-resolution accumulation rule
//!   `N + ⌈log2 depth⌉ + 2` (unary) vs `2N + ⌈log2 depth⌉ + 2` (binary)
//!   (`USY020`/`USY021`, Section III-A);
//! * **zero-SCC wiring** — rate-coded schemes must share RNGs with
//!   per-PE delay registers (`USY030`, Section II-B2/III-B);
//! * **schedule / skew FIFOs** — weight-stationary fold legality and
//!   array-edge FIFO depth (`USY040`–`USY042`);
//! * **memory feasibility** — DRAM bandwidth vs the layer's byte demand
//!   per compute cycle, SRAM capacity refetch (`USY050`–`USY052`,
//!   Section V-B/V-D);
//! * **network abstract interpretation** — calibrated value ranges
//!   propagated through a whole network prove per-layer
//!   overflow-freedom or saturation and compose early-termination error
//!   against an accuracy budget (`USY060`–`USY063`, [`interp`]);
//! * **serving feasibility** — utilisation, deadline and DRAM bounds
//!   from the closed-form batched service-time model, before any event
//!   is simulated (`USY070`–`USY073`, [`serving`]).
//!
//! # Example
//!
//! ```
//! use usystolic_analyze::{analyze, RawSpec};
//! use usystolic_core::ComputingScheme;
//!
//! // An 8-bit rate-coded array early-terminated to 256 cycles: illegal,
//! // because 2^(N-1) = 128 is the full-length run.
//! let spec = RawSpec::new(12, 14, ComputingScheme::UnaryRate, 8).with_mul_cycles(256);
//! let report = analyze(&spec, None, None);
//! assert!(!report.is_legal());
//! assert!(report.has("USY011"));
//! ```

mod checks;
mod diag;
pub mod interp;
pub mod serving;
mod spec;

pub use checks::{analyze, required_acc_width};
pub use diag::{Diagnostic, Report, Severity};
pub use interp::{analyze_network, et_window_error, window_bound, LayerVerdict, NetworkAnalysis};
pub use serving::{check_serving, ServiceEstimate, ServingSpec};
pub use spec::{RawSpec, RngWiring};
