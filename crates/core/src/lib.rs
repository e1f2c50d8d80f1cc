//! The uSystolic architecture: functional hybrid unary-binary systolic
//! arrays with spatial-temporal bitstream reuse (the paper's primary
//! contribution, Section III), plus the evaluated baselines.
//!
//! * [`scheme`] — the five computing schemes of the evaluation
//!   (BP / BS / UG / UR / UT) with their cycle counts.
//! * [`config`] — [`SystolicConfig`]: array shape (edge = Eyeriss 12×14,
//!   cloud = TPU 256×256), bitwidth, early termination, accumulator width.
//! * [`pe`] — cycle-level PEs of Fig. 7: C-BSG at the leftmost column,
//!   IDFF/RREG reuse pipelines, sign-steered binary accumulation.
//! * [`mapping`] — weight-stationary tile mapping (folds, utilisation).
//! * [`array2d`] — the one GEMM engine: a tile sweep over the fully
//!   cycle-accurate machine (every PE, pipeline register and partial-sum
//!   cascade), with reduced-resolution OREGs and top-row shifters for
//!   all five schemes, run one row fold per task across every column
//!   fold.
//! * [`kernel`] — the closed-form MAC window that lets the sweep skip
//!   the stepping for every scheme (Sobol prefix counts for the unary
//!   windows, the product for the binary ones): each input level's half
//!   is built once per GEMM (a lookup table, where the inputs repeat
//!   levels) and counted against the element's whole weight row, whose
//!   lane thresholds each row fold converts once. Bit-exact against the
//!   stepped machine; [`KernelMode`] picks between the two.
//! * [`fifo`] — the synchronising skew FIFOs surrounding the array.
//! * [`fsu`] — the fully-streaming unary (uGEMM-style) reference
//!   architecture used to quantify Table I.
//! * [`isa`] — the TPU-like instruction set augmented with the MAC-cycle
//!   indicator field (Section III-D), with a compiler and interpreter.
//! * [`exec`] — [`GemmExecutor`]: quantise → lower → run the tile sweep →
//!   dequantise, the one-call API used by the accuracy experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array2d;
pub mod check;
pub mod config;
pub mod exec;
pub mod fifo;
pub mod fsu;
pub mod isa;
pub mod kernel;
pub mod mapping;
pub mod pe;
pub mod scheme;

pub use array2d::{cycle_accurate_gemm, cycle_accurate_gemm_with, CycleStats};
pub use check::{differential_check, SchemeCheck};
pub use config::{ConfigError, SystolicConfig, CLOUD_COLS, CLOUD_ROWS, EDGE_COLS, EDGE_ROWS};
pub use exec::{ExecStats, GemmExecutor, GemmOutcome};
pub use fifo::{DelayLine, SkewBank, SkewOrder};
pub use fsu::FsuGemm;
pub use isa::{Instruction, IsaError, Processor, Program, ProgramBuilder};
pub use kernel::{KernelMode, KernelPath};
pub use mapping::TileMapping;
pub use pe::{IfmPrefix, IfmSource, UnaryRow};
pub use scheme::ComputingScheme;

/// Errors produced by the architecture crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An invalid configuration, or a tile-sweep worker pool failure.
    Config(String),
    /// A tensor/matrix shape mismatch.
    Shape(String),
    /// An error bubbled up from the GEMM substrate.
    Gemm(usystolic_gemm::GemmError),
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
            CoreError::Shape(msg) => write!(f, "shape error: {msg}"),
            CoreError::Gemm(e) => write!(f, "gemm error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Gemm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<usystolic_gemm::GemmError> for CoreError {
    fn from(e: usystolic_gemm::GemmError) -> Self {
        CoreError::Gemm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = CoreError::Config("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(e.source().is_none());
        let g: CoreError = usystolic_gemm::GemmError::InvalidConfig("x".into()).into();
        assert!(g.to_string().contains("x"));
        assert!(g.source().is_some());
    }
}
