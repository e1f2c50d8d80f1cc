//! uSystolic-Sim substitute: the timing and memory-hierarchy simulator.
//!
//! The paper's bandwidth (Fig. 10) and throughput (Fig. 12) numbers come
//! from a customised systolic-array simulator adapted from ARM's
//! SCALE-Sim, supporting varying computing schemes, data bitwidths and
//! memory-contention-aware scheduling. This crate rebuilds that
//! functionality:
//!
//! * [`memory`] — the paper's memory hierarchy: optional per-variable
//!   double-buffered SRAMs (edge: 64 KB × 3, cloud: 8 MB × 3, 16 banks)
//!   and a 1 GB DDR3 DRAM (8 banks, 8192-bit pages).
//! * [`traffic`] — per-layer byte traffic at the SRAM and DRAM levels,
//!   derived from the weight-stationary tile mapping.
//! * [`runtime`] — ideal pipeline cycles plus memory-contention stalls.
//!   The compute model is one closed-form fold sum
//!   ([`ideal_cycles_with`]; [`ideal_cycles`] is its weight-stationary
//!   case), `O(1)` per layer however many folds the tile mapping has.
//! * [`dataflow`] — the same model and the streamed traffic under the
//!   weight- or input-stationary dataflow.
//! * [`report`] — [`Simulator`]: one call per layer returning bandwidth,
//!   runtime, throughput and utilisation in the paper's units.
//!   [`Simulator::simulate_network`] times a network as the in-order
//!   sequence of its layers, and [`MultiInstanceSystem::scale`] rescales
//!   one layer's report to `n` instances sharing one DRAM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod dram_model;
pub mod jitter;
pub mod memory;
pub mod multi;
pub mod report;
pub mod runtime;
pub mod trace;
pub mod traffic;

pub use dataflow::{ideal_cycles_with, layer_traffic_with, Dataflow};
pub use dram_model::{analyze_trace, DramAnalysis};
pub use jitter::SlackBudget;
pub use memory::{DramSpec, MemoryHierarchy, SramSpec, Variable, WordCorruption};
pub use multi::{battery_lifetime, LifetimeReport, MultiInstanceSystem, ScalingReport};
pub use report::{LayerReport, Simulator, CLOCK_HZ};
pub use runtime::{ideal_cycles, layer_timing, LayerTiming};
pub use trace::{Access, TraceEvent, TraceGenerator};
pub use traffic::{layer_traffic, LayerTraffic, VariableTraffic};
