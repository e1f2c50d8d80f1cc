//! The model-resolution switch.
//!
//! One tier per run: `usystolic_sim::Simulator` times every layer at its
//! configured tier, and `usystolic_serve` applies `ServeConfig::fidelity`
//! to every dispatch of a run.

use std::fmt;
use std::str::FromStr;

use usystolic_obs::{JsonValue, ToJson};

/// How faithfully a run models timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Fidelity {
    /// Re-derive timing from first principles (fold walks, per-variable
    /// SRAM stalls) at every dispatch. Bit-identical reference tier.
    #[default]
    CycleAccurate,
    /// Hoisted exact closed forms — the same bits as
    /// [`CycleAccurate`](Self::CycleAccurate), computed without the
    /// per-fold walk. The timing analogue of the word-packed kernel.
    Packed,
    /// `O(1)` closed-form estimates (linear interpolation over the
    /// `analyze` ServiceEstimate). Approximate; trades exactness for
    /// fleet-scale speed.
    Analytic,
}

impl Fidelity {
    /// All tiers, highest fidelity first.
    pub const ALL: [Fidelity; 3] = [
        Fidelity::CycleAccurate,
        Fidelity::Packed,
        Fidelity::Analytic,
    ];

    /// Stable lowercase label used for CLI flags, JSON, and obs labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::CycleAccurate => "cycle",
            Fidelity::Packed => "packed",
            Fidelity::Analytic => "analytic",
        }
    }

    /// Whether this tier reproduces the cycle-accurate timing bits
    /// exactly (true for everything except [`Analytic`](Self::Analytic)).
    #[must_use]
    pub fn is_exact(self) -> bool {
        !matches!(self, Fidelity::Analytic)
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown fidelity name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFidelityError(String);

impl fmt::Display for ParseFidelityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown fidelity '{}' (expected cycle|packed|analytic)",
            self.0
        )
    }
}

impl std::error::Error for ParseFidelityError {}

impl FromStr for Fidelity {
    type Err = ParseFidelityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cycle" | "cycle-accurate" | "cycleaccurate" => Ok(Fidelity::CycleAccurate),
            "packed" => Ok(Fidelity::Packed),
            "analytic" | "analytical" => Ok(Fidelity::Analytic),
            other => Err(ParseFidelityError(other.to_string())),
        }
    }
}

impl ToJson for Fidelity {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.label().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_label_round_trip() {
        for tier in Fidelity::ALL {
            assert_eq!(tier.label().parse::<Fidelity>(), Ok(tier));
            assert_eq!(tier.to_string(), tier.label());
        }
    }

    #[test]
    fn accepts_spelling_variants() {
        assert_eq!(
            "cycle-accurate".parse::<Fidelity>(),
            Ok(Fidelity::CycleAccurate)
        );
        assert_eq!("CYCLE".parse::<Fidelity>(), Ok(Fidelity::CycleAccurate));
        assert_eq!("analytical".parse::<Fidelity>(), Ok(Fidelity::Analytic));
    }

    #[test]
    fn rejects_unknown_names() {
        assert!("fast".parse::<Fidelity>().is_err());
    }

    #[test]
    fn default_is_cycle_accurate_and_exactness_is_tiered() {
        assert_eq!(Fidelity::default(), Fidelity::CycleAccurate);
        assert!(Fidelity::CycleAccurate.is_exact());
        assert!(Fidelity::Packed.is_exact());
        assert!(!Fidelity::Analytic.is_exact());
    }
}
