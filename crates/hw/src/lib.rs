//! Hardware cost models for the uSystolic evaluation: the Design Compiler
//! (+ CACTI 7) substitute.
//!
//! * [`tech`] — 32 nm / 400 MHz technology constants, calibrated so the
//!   paper's structural claims hold (SRAM leakage dominance, DRAM access
//!   dominance, superquadratic binary multipliers).
//! * [`pe_area`] — gate-level per-PE area model for all five computing
//!   schemes, with the leftmost-column amortisation of uSystolic's
//!   bitstream reuse.
//! * [`area`] — array- and chip-level areas (Fig. 11).
//! * [`energy`] — per-layer energy decomposition (Fig. 13) and EDP.
//! * [`power`] — per-layer power (Section V-F) and throughput-normalised
//!   efficiency (Fig. 14).
//! * [`evaluate`] — one-call [`evaluate::LayerEvaluation`]
//!   joining timing, area, energy, power and efficiency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod energy;
pub mod evaluate;
pub mod pe_area;
pub mod power;
pub mod summary;
pub mod tech;

pub use area::{ArrayArea, OnChipArea};
pub use energy::{LayerEdp, LayerEnergy};
pub use evaluate::{evaluate_from_report, evaluate_layer, evaluate_network, LayerEvaluation};
pub use pe_area::PeComponents;
pub use power::{improvement, reduction_percent, Efficiency, LayerPower};
pub use summary::NetworkEvaluation;
