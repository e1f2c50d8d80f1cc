//! Deterministic fault injection for the uSystolic stack.
//!
//! Unary computing's resilience story (the paper's motivation for rate
//! coding, quantified by the CMU exploration work on unary matrix units)
//! is that a transient flip anywhere in a `2^(N-1)`-cycle product stream
//! perturbs the decoded product by exactly **one LSB**, where a flip in a
//! binary product register is worth up to `2^(2N-1)`. This crate makes
//! that claim measurable:
//!
//! * [`DeviceFaults`] describes a device-level fault model: transient
//!   flips at a configurable bit-error rate (BER), stuck-at-0/1 PE
//!   outputs, and corruption of memory-resident weight words (via
//!   [`usystolic_sim::WordCorruption`]).
//! * [`mask`] derives **word-granularity fault masks** from a
//!   SplitMix64 stream keyed per MAC window: transient flips are XOR
//!   masks, stuck-at faults AND/OR masks, so the closed-form kernel
//!   visits only the flip sites and stays bit-identical with the
//!   bit-serial reference under the same seed.
//! * [`faulty_unary_gemm`] runs a faulted unary GEMM through either the
//!   bit-serial or the closed-form kernel ([`FaultKernel`]); the two are
//!   bit-identical for every seed (`tests` pin it).
//! * [`faulty_binary_gemm`] is the binary baseline: the same BER applied
//!   to `2N`-bit product registers, where a single flip can be
//!   catastrophic.
//!
//! **Determinism contract**: every fault site is a pure function of
//! `(seed, window, cycle)` — same seed ⇒ same sites, same outcomes, same
//! [`FaultReport`], regardless of kernel path, evaluation order or worker
//! count. See `docs/faults.md`.

pub mod binary;
pub mod config;
pub mod gemm;
pub mod mask;

pub use binary::{faulty_binary_gemm, product_register_bits};
pub use config::{DeviceFaults, FaultError, StuckAt};
pub use gemm::{faulty_unary_gemm, FaultKernel, FaultReport, FaultSite, GemmShape};
pub use mask::{window_mask, WindowMask};
