//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each evaluation artefact has a module computing its data and a binary
//! (`src/bin/exp_*.rs`) printing it in the paper's layout:
//!
//! | Artefact | Module | Binary |
//! |---|---|---|
//! | Fig. 9 (accuracy vs EBT) | [`accuracy`] | `exp_accuracy` |
//! | Fig. 10 (layerwise bandwidth) | [`bandwidth`] | `exp_bandwidth` |
//! | Fig. 11 (area breakdown) | [`area`] | `exp_area` |
//! | Fig. 12 (layerwise throughput) | [`throughput`] | `exp_throughput` |
//! | Fig. 13 (layerwise energy) | [`energy`] | `exp_energy` |
//! | §V-F (layerwise power) | [`power`] | `exp_power` |
//! | Fig. 14 (efficiency gains, AlexNet + MLPerf) | [`efficiency`] | `exp_efficiency` |
//! | §V-H (system-level scaling & battery) | [`system`] | `exp_system` |
//! | Table I (quantified) | [`table1`] | `exp_table1` |
//! | §V-G SRAM sweep + footnote-1 dataflows | [`design_space`] | `exp_design_space` |
//! | §III-C / §V-A ablations | [`ablation`] | `exp_ablation` |
//! | Kernel perf (serial vs packed MAC, `BENCH_kernel.json`) | [`kernel`] | `exp_kernel` |
//! | Resilience (accuracy vs BER, `BENCH_faults.json`) | [`faults`] | `exp_faults` |
//!
//! The command-line tools `sim_cli` and `serve_cli` share one argument,
//! configuration and export layer, [`cli`].
//!
//! The [`design`] module enumerates the paper's design points (computing
//! scheme × early termination × SRAM presence) and [`table`] renders
//! aligned text tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod accuracy;
pub mod area;
pub mod bandwidth;
pub mod cli;
pub mod des_fleet;
pub mod design;
pub mod design_space;
pub mod efficiency;
pub mod energy;
pub mod faults;
pub mod kernel;
pub mod power;
pub mod system;
pub mod table;
pub mod table1;
pub mod throughput;

pub use design::{alexnet_8bit_layers, design_points, ArrayShape, DesignPoint};
pub use table::Table;
