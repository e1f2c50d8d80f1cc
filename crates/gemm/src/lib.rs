//! GEMM substrate for the uSystolic reproduction.
//!
//! The paper unifies matrix convolution and matrix multiplication under a
//! single parameterisation (Table II) executed by one loop nest
//! (Algorithm 1). This crate provides:
//!
//! * [`tensor`] — dense row-major tensors: [`tensor::Matrix`],
//!   [`tensor::FeatureMap`] (height × width × channels) and
//!   [`tensor::WeightSet`] (out-channels × height × width ×
//!   in-channels).
//! * [`config`] — [`config::GemmConfig`], the Table-II
//!   parameter block, with derived shapes, operation counts and data
//!   volumes.
//! * [`loopnest`] — the Algorithm-1 reference executor, both concrete and
//!   generic over a user-supplied multiply-accumulate so that computing
//!   schemes can be plugged in.
//! * [`im2col`] — lowering of matrix convolution to matrix multiplication,
//!   the form a weight-stationary systolic array actually consumes.
//! * [`quant`] — fixed-point quantisation: the paper's FXP-o-res and
//!   FXP-i-res comparison schemes (Section V-A).
//! * [`stats`] — error statistics (mean / standard deviation / max) of a
//!   computed GEMM against a reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod im2col;
pub mod loopnest;
pub mod pad;
pub mod quant;
pub mod stats;
pub mod tensor;

pub use config::{GemmConfig, GemmKind, MAX_MACS};
pub use loopnest::{gemm_reference, gemm_with_mac};
pub use pad::{pad_feature_map, padded_conv};
pub use quant::{FxpFormat, Quantizer};
pub use stats::ErrorStats;
pub use tensor::{FeatureMap, Matrix, WeightSet};

/// Errors produced by the GEMM substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GemmError {
    /// A dimension was zero or inconsistent.
    InvalidConfig(String),
    /// Tensor shapes do not match the configuration.
    ShapeMismatch {
        /// What was expected, human-readable.
        expected: String,
        /// What was found.
        found: String,
    },
}

impl core::fmt::Display for GemmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GemmError::InvalidConfig(msg) => write!(f, "invalid GEMM configuration: {msg}"),
            GemmError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for GemmError {}
