//! Fault-model configuration: what to inject, where, and from which seed.
//!
//! A [`DeviceFaults`] value is the single source of truth for a faulted
//! run. Everything in it is plain data — the same value handed to the
//! bit-serial kernel, the closed-form kernel and the binary baseline
//! produces the same fault sites, because every site is derived from
//! `(seed, window, cycle)` and never from evaluation order.

use usystolic_obs::{JsonValue, ToJson};
use usystolic_sim::WordCorruption;

/// A processing element whose product output is stuck at a constant.
///
/// Under the weight-stationary mapping a MAC window `(mi, ki, ni)` is
/// evaluated by the physical PE at `(ki % rows, ni % cols)` of the
/// [`DeviceFaults`] grid; a stuck PE forces the product bit of every
/// window it computes, on every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckAt {
    /// PE row in the physical grid.
    pub row: usize,
    /// PE column in the physical grid.
    pub col: usize,
    /// The constant the product wire is stuck at.
    pub value: bool,
}

impl ToJson for StuckAt {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("row", (self.row as u64).to_json()),
            ("col", (self.col as u64).to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

/// The device-level fault model for one run.
///
/// Built with [`DeviceFaults::new`] plus the `with_*` builders; checked
/// once by [`validate`](Self::validate) (the GEMM entry points call it
/// for you).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceFaults {
    /// Master seed. Every fault site in the run — transient flips,
    /// memory corruption — is a pure function of this seed and a
    /// position, never of evaluation order.
    pub seed: u64,
    /// Transient bit-error rate: the probability that any single
    /// product-bit opportunity (one cycle of a unary stream, one bit of
    /// a binary product register) is inverted. `0.0` disables flips.
    pub ber: f64,
    /// Stuck-at PE faults. When several entries cover the same grid
    /// cell, the first match wins.
    pub stuck: Vec<StuckAt>,
    /// Physical PE grid rows (windows map by `ki % rows`).
    pub rows: usize,
    /// Physical PE grid columns (windows map by `ni % cols`).
    pub cols: usize,
    /// Optional corruption of operand words while they sit in DRAM/SRAM,
    /// applied once before streaming (see [`usystolic_sim::WordCorruption`]).
    pub memory: Option<WordCorruption>,
}

impl DeviceFaults {
    /// A quiet fault model (no flips, no stuck PEs, no memory
    /// corruption) on the default 8×8 PE grid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ber: 0.0,
            stuck: Vec::new(),
            rows: 8,
            cols: 8,
            memory: None,
        }
    }

    /// Sets the transient bit-error rate.
    #[must_use]
    pub fn with_ber(mut self, ber: f64) -> Self {
        self.ber = ber;
        self
    }

    /// Adds a stuck-at PE fault.
    #[must_use]
    pub fn with_stuck(mut self, fault: StuckAt) -> Self {
        self.stuck.push(fault);
        self
    }

    /// Sets the physical PE grid the stuck-at coordinates refer to.
    #[must_use]
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Enables memory word corruption of the stored operands.
    #[must_use]
    pub fn with_memory(mut self, corruption: WordCorruption) -> Self {
        self.memory = Some(corruption);
        self
    }

    /// Whether this model injects nothing (a quiet run is bit-identical
    /// to the fault-free kernels).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.ber <= 0.0
            && self.stuck.is_empty()
            && self.memory.as_ref().is_none_or(|m| m.word_ber <= 0.0)
    }

    /// Checks the model for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidBer`] when the bit-error rate is not
    /// a finite probability in `[0, 1]`, [`FaultError::EmptyGrid`] when
    /// either grid dimension is zero, and [`FaultError::StuckOutsideGrid`]
    /// when a stuck-at coordinate falls outside the grid.
    pub fn validate(&self) -> Result<(), FaultError> {
        if !self.ber.is_finite() || !(0.0..=1.0).contains(&self.ber) {
            return Err(FaultError::InvalidBer(self.ber));
        }
        if self.rows == 0 || self.cols == 0 {
            return Err(FaultError::EmptyGrid);
        }
        for s in &self.stuck {
            if s.row >= self.rows || s.col >= self.cols {
                return Err(FaultError::StuckOutsideGrid {
                    row: s.row,
                    col: s.col,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
        }
        Ok(())
    }

    /// The stuck value (if any) forced on the window computed at
    /// reduction index `ki`, output column `ni`.
    #[must_use]
    pub fn stuck_at(&self, ki: usize, ni: usize) -> Option<bool> {
        self.stuck
            .iter()
            .find(|s| ki % self.rows == s.row && ni % self.cols == s.col)
            .map(|s| s.value)
    }
}

impl ToJson for DeviceFaults {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seed", self.seed.to_json()),
            ("ber", self.ber.to_json()),
            ("stuck", self.stuck.to_json()),
            ("rows", (self.rows as u64).to_json()),
            ("cols", (self.cols as u64).to_json()),
            ("memory", self.memory.to_json()),
        ])
    }
}

/// Errors produced by the fault-injection layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// The bit-error rate is not a finite probability in `[0, 1]`.
    InvalidBer(f64),
    /// The PE grid has a zero dimension.
    EmptyGrid,
    /// A stuck-at fault names a PE outside the grid.
    StuckOutsideGrid {
        /// Requested row.
        row: usize,
        /// Requested column.
        col: usize,
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// An operand slice does not match the GEMM shape.
    ShapeMismatch {
        /// Which operand is wrong (`"A"` or `"B"`).
        operand: &'static str,
        /// Elements the shape demands.
        expected: usize,
        /// Elements the slice holds.
        got: usize,
    },
    /// A data bitwidth outside the supported range was requested.
    UnsupportedBitwidth(u32),
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultError::InvalidBer(ber) => {
                write!(f, "bit-error rate {ber} is not a probability in [0, 1]")
            }
            FaultError::EmptyGrid => write!(f, "PE grid has a zero dimension"),
            FaultError::StuckOutsideGrid {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "stuck-at PE ({row}, {col}) is outside the {rows}x{cols} grid"
            ),
            FaultError::ShapeMismatch {
                operand,
                expected,
                got,
            } => write!(
                f,
                "operand {operand} holds {got} elements, shape demands {expected}"
            ),
            FaultError::UnsupportedBitwidth(w) => write!(
                f,
                "unsupported data bitwidth {w} (expected 2..={})",
                usystolic_unary::MAX_BITWIDTH
            ),
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_default_validates() {
        let f = DeviceFaults::new(1);
        assert!(f.is_quiet());
        assert!(f.validate().is_ok());
        assert_eq!(f.stuck_at(3, 5), None);
    }

    #[test]
    fn builders_compose_and_validate() {
        let f = DeviceFaults::new(7)
            .with_ber(1e-3)
            .with_grid(4, 4)
            .with_stuck(StuckAt {
                row: 1,
                col: 2,
                value: true,
            })
            .with_memory(WordCorruption::new(7, 0.5, 7));
        assert!(!f.is_quiet());
        assert!(f.validate().is_ok());
        // ki % 4 == 1, ni % 4 == 2 hits the stuck PE.
        assert_eq!(f.stuck_at(5, 6), Some(true));
        assert_eq!(f.stuck_at(5, 7), None);
    }

    #[test]
    fn first_matching_stuck_entry_wins() {
        let f = DeviceFaults::new(0)
            .with_stuck(StuckAt {
                row: 0,
                col: 0,
                value: true,
            })
            .with_stuck(StuckAt {
                row: 0,
                col: 0,
                value: false,
            });
        assert_eq!(f.stuck_at(0, 0), Some(true));
    }

    #[test]
    fn validation_rejects_bad_models() {
        assert_eq!(
            DeviceFaults::new(0).with_ber(1.5).validate(),
            Err(FaultError::InvalidBer(1.5))
        );
        assert!(matches!(
            DeviceFaults::new(0).with_ber(f64::NAN).validate(),
            Err(FaultError::InvalidBer(b)) if b.is_nan()
        ));
        assert_eq!(
            DeviceFaults::new(0).with_grid(0, 8).validate(),
            Err(FaultError::EmptyGrid)
        );
        let out = DeviceFaults::new(0).with_grid(2, 2).with_stuck(StuckAt {
            row: 2,
            col: 0,
            value: false,
        });
        assert!(matches!(
            out.validate(),
            Err(FaultError::StuckOutsideGrid { .. })
        ));
    }

    #[test]
    fn nan_ber_compares_equal_in_error() {
        // PartialEq on FaultError with a NaN payload: NaN != NaN, so the
        // errors differ — validate() still reports InvalidBer.
        let e = DeviceFaults::new(0).with_ber(f64::NAN).validate();
        assert!(matches!(e, Err(FaultError::InvalidBer(b)) if b.is_nan()));
    }

    #[test]
    fn json_round_trips_structure() {
        let f = DeviceFaults::new(3).with_ber(0.25).with_stuck(StuckAt {
            row: 1,
            col: 1,
            value: false,
        });
        let j = f.to_json();
        assert_eq!(j.get("seed"), Some(&JsonValue::UInt(3)));
        assert!(j.get("stuck").is_some());
        assert_eq!(j.get("memory"), Some(&JsonValue::Null));
    }

    #[test]
    fn errors_display_meaningfully() {
        assert!(FaultError::InvalidBer(2.0).to_string().contains('2'));
        assert!(FaultError::EmptyGrid.to_string().contains("zero"));
        let s = FaultError::StuckOutsideGrid {
            row: 9,
            col: 0,
            rows: 8,
            cols: 8,
        }
        .to_string();
        assert!(s.contains("9") && s.contains("8x8"));
        let s = FaultError::ShapeMismatch {
            operand: "A",
            expected: 6,
            got: 5,
        }
        .to_string();
        assert!(s.contains('A') && s.contains('6') && s.contains('5'));
        assert!(FaultError::UnsupportedBitwidth(99)
            .to_string()
            .contains("99"));
    }
}
