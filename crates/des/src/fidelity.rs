//! The serve fleet's timing-resolution switch.
//!
//! Both tiers are exact: `usystolic_serve` applies
//! `ServeConfig::fidelity` to every dispatch of a run, and the two differ
//! only in when a class's layer profiles are derived.

use std::fmt;
use std::str::FromStr;

use usystolic_obs::{JsonValue, ToJson};

/// When a serve run derives its service times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Fidelity {
    /// Re-derive the class's layer profiles from its raw GEMMs at every
    /// dispatch. The reference the hoisted totals are checked against.
    #[default]
    CycleAccurate,
    /// Read the class totals hoisted out of the event loop: the layer
    /// profiles are derived once, before the first event, and every
    /// dispatch reuses them. The same bits as
    /// [`CycleAccurate`](Self::CycleAccurate).
    Packed,
}

impl Fidelity {
    /// Stable lowercase label used for CLI flags, JSON, and obs labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::CycleAccurate => "cycle",
            Fidelity::Packed => "packed",
        }
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
        write!(f, "unknown fidelity '{}' (expected cycle|packed)", self.0)
    }
}

impl std::error::Error for ParseFidelityError {}

impl FromStr for Fidelity {
    type Err = ParseFidelityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cycle" | "cycle-accurate" | "cycleaccurate" => Ok(Fidelity::CycleAccurate),
            "packed" => Ok(Fidelity::Packed),
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
        for tier in [Fidelity::CycleAccurate, Fidelity::Packed] {
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
        assert_eq!("PACKED".parse::<Fidelity>(), Ok(Fidelity::Packed));
    }

    #[test]
    fn rejects_unknown_names() {
        assert!("fast".parse::<Fidelity>().is_err());
        assert!("analytic".parse::<Fidelity>().is_err());
    }

    #[test]
    fn default_is_cycle_accurate() {
        assert_eq!(Fidelity::default(), Fidelity::CycleAccurate);
    }
}
