//! Fixed-point quantisation: the paper's FXP comparison schemes.
//!
//! Section V-A compares uSystolic against two fixed-point binary designs
//! derived from the FP32 model by quantising all variables:
//!
//! * **FXP-o-res(n)** — the *output* resolution is `n` bits, so the two MAC
//!   inputs get `n/2` bits each (for odd `n`, `(n+1)/2` and `n/2`,
//!   whichever pairing is more accurate);
//! * **FXP-i-res(n)** — the *inputs* are `n` bits, producing a `2n`-bit
//!   output.
//!
//! uSystolic with EBT `n` keeps both input and output at `n` bits and lands
//! between the two.

use crate::config::GemmConfig;
use crate::loopnest::gemm_with_mac;
use crate::tensor::{FeatureMap, WeightSet};
use crate::GemmError;

/// A symmetric signed linear quantiser mapping `[-max_abs, max_abs]` onto
/// integer levels `[-(2^(bits-1) - 1), 2^(bits-1) - 1]`.
///
/// The top level is `2^(bits-1) - 1`, not `2^(bits-1)`: `+2^(bits-1)` is
/// not representable in `bits`-bit two's complement, so `±max_abs` (and
/// anything beyond) clamps to the symmetric representable extreme at one
/// quantisation step of error.
///
/// # Example
///
/// ```
/// use usystolic_gemm::Quantizer;
///
/// let q = Quantizer::from_max(8, 2.0);
/// let level = q.quantize(1.0);
/// assert_eq!(level, 64);
/// assert!((q.dequantize(level) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u32,
    scale: f64,
}

impl Quantizer {
    /// Creates a quantiser for `bits`-bit signed data spanning
    /// `[-max_abs, max_abs]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `max_abs` is not a positive finite number.
    #[must_use]
    pub fn from_max(bits: u32, max_abs: f64) -> Self {
        assert!(bits >= 2, "need at least 2 bits");
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "max_abs must be positive and finite"
        );
        Self {
            bits,
            scale: (1u64 << (bits - 1)) as f64 / max_abs,
        }
    }

    /// Creates a quantiser covering the maximum absolute value of `data`
    /// (per-tensor calibration). Non-finite samples (NaN, ±∞) are ignored;
    /// falls back to 1.0 when no finite non-zero sample exists.
    #[must_use]
    pub fn calibrated(bits: u32, data: &[f64]) -> Self {
        let max = data
            .iter()
            .map(|x| x.abs())
            .filter(|a| a.is_finite())
            .fold(0.0f64, f64::max);
        Self::from_max(bits, if max > 0.0 { max } else { 1.0 })
    }

    /// Quantises a value to its integer level, rounding to nearest and
    /// clamping the magnitude to the representable range
    /// `±(2^(bits-1) - 1)`. NaN maps to level 0.
    #[must_use]
    pub fn quantize(&self, x: f64) -> i64 {
        let max = (1i64 << (self.bits - 1)) - 1;
        ((x * self.scale).round() as i64).clamp(-max, max)
    }

    /// Recovers the real value of an integer level.
    #[must_use]
    pub fn dequantize(&self, level: i64) -> f64 {
        level as f64 / self.scale
    }

    /// The data bitwidth.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The scale factor (levels per unit).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// One of the paper's fixed-point comparison formats at effective bitwidth
/// `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FxpFormat {
    /// FXP-o-res: the output is `n` bits; inputs split `n` between them.
    OutputRes(u32),
    /// FXP-i-res: inputs are `n` bits; the output is `2n` bits.
    InputRes(u32),
}

impl FxpFormat {
    /// The `(weight_bits, input_bits)` pair this format assigns to the MAC
    /// inputs.
    ///
    /// For odd `n` in FXP-o-res, the extra bit goes to the weight (the
    /// paper picks whichever is more accurate; weights typically have the
    /// wider dynamic range in CNNs).
    #[must_use]
    pub fn input_bits(&self) -> (u32, u32) {
        match *self {
            FxpFormat::OutputRes(n) => (n.div_ceil(2).max(2), (n / 2).max(2)),
            FxpFormat::InputRes(n) => (n, n),
        }
    }

    /// The output resolution in bits.
    #[must_use]
    pub fn output_bits(&self) -> u32 {
        match *self {
            FxpFormat::OutputRes(n) => n,
            FxpFormat::InputRes(n) => 2 * n,
        }
    }

    /// The nominal effective bitwidth `n` this format is parameterised by.
    #[must_use]
    pub fn effective_bitwidth(&self) -> u32 {
        match *self {
            FxpFormat::OutputRes(n) | FxpFormat::InputRes(n) => n,
        }
    }
}

impl core::fmt::Display for FxpFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FxpFormat::OutputRes(n) => write!(f, "FXP-o-res({n})"),
            FxpFormat::InputRes(n) => write!(f, "FXP-i-res({n})"),
        }
    }
}

/// Quantises a whole feature map with a calibrated quantiser, returning
/// the integer tensor and the quantiser used.
///
/// # Example
///
/// ```
/// use usystolic_gemm::quant::quantize_feature_map;
/// use usystolic_gemm::FeatureMap;
///
/// let fm = FeatureMap::from_fn(1, 1, 4, |_, _, c| c as f64 / 2.0 - 1.0);
/// let (int, q) = quantize_feature_map(&fm, 8);
/// assert_eq!(int[(0, 0, 0)], q.quantize(-1.0));
/// ```
#[must_use]
pub fn quantize_feature_map(fm: &FeatureMap<f64>, bits: u32) -> (FeatureMap<i64>, Quantizer) {
    let q = Quantizer::calibrated(bits, fm.as_slice());
    let int = FeatureMap::from_fn(fm.height(), fm.width(), fm.channels(), |h, w, c| {
        q.quantize(fm[(h, w, c)])
    });
    (int, q)
}

/// Quantises a whole weight set with a calibrated quantiser.
#[must_use]
pub fn quantize_weight_set(ws: &WeightSet<f64>, bits: u32) -> (WeightSet<i64>, Quantizer) {
    let q = Quantizer::calibrated(bits, ws.as_slice());
    let int = WeightSet::from_fn(
        ws.out_channels(),
        ws.height(),
        ws.width(),
        ws.in_channels(),
        |oc, wh, www, ic| q.quantize(ws[(oc, wh, www, ic)]),
    );
    (int, q)
}

/// Executes a GEMM under fixed-point quantisation and returns the
/// dequantised `f64` result, for accuracy comparison against
/// [`gemm_reference`](crate::loopnest::gemm_reference).
///
/// Inputs and weights are calibrated per-tensor; the integer accumulation
/// is exact (binary accumulators do not saturate in the paper's FXP
/// baselines — resolution is only constrained at the *data* interfaces,
/// which this models by re-quantising the output to
/// [`FxpFormat::output_bits`]).
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if the tensors do not match the
/// configuration.
pub fn fxp_gemm(
    config: &GemmConfig,
    input: &FeatureMap<f64>,
    weights: &WeightSet<f64>,
    format: FxpFormat,
) -> Result<FeatureMap<f64>, GemmError> {
    let (w_bits, i_bits) = format.input_bits();
    let (w_int, qw) = quantize_weight_set(weights, w_bits);
    let (i_int, qi) = quantize_feature_map(input, i_bits);

    let int_out = gemm_with_mac(config, &i_int, &w_int, 0i64, |acc, &w, &i| acc + w * i)?;

    // Dequantise, then clamp precision to the format's output resolution by
    // re-quantising the output tensor.
    let real: Vec<f64> = int_out
        .as_slice()
        .iter()
        .map(|&v| v as f64 / (qw.scale() * qi.scale()))
        .collect();
    let qo = Quantizer::calibrated(format.output_bits(), &real);
    let mut idx = 0;
    let out = FeatureMap::from_fn(
        int_out.height(),
        int_out.width(),
        int_out.channels(),
        |_, _, _| {
            let v = qo.dequantize(qo.quantize(real[idx]));
            idx += 1;
            v
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopnest::gemm_reference;
    use crate::stats::ErrorStats;

    #[test]
    fn quantizer_roundtrip_within_half_step() {
        // Strictly inside the range, rounding is the only error source.
        let q = Quantizer::from_max(8, 1.0);
        for &x in &[-0.99, -0.37, 0.0, 0.5, 0.99] {
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= 0.5 / 128.0 + 1e-12, "x={x} err={err}");
        }
    }

    #[test]
    fn quantizer_roundtrip_at_extremes() {
        // ±max_abs would round to ±2^(bits-1), which two's complement
        // cannot represent — they clamp to ±(2^(bits-1) − 1) and round
        // trip within one full step instead of a half step.
        let q = Quantizer::from_max(8, 1.0);
        assert_eq!(q.quantize(1.0), 127);
        assert_eq!(q.quantize(-1.0), -127);
        for &x in &[1.0, -1.0] {
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= 1.0 / 128.0 + 1e-12, "x={x} err={err}");
        }
        // Values just above the range clamp to the same extreme level.
        assert_eq!(q.quantize(1.0 + 1e-9), 127);
        assert_eq!(q.quantize(-1.0 - 1e-9), -127);
        // The last exactly-representable level round trips losslessly.
        let top = q.dequantize(127);
        assert_eq!(q.quantize(top), 127);
        assert!((q.dequantize(q.quantize(top)) - top).abs() < 1e-12);
    }

    #[test]
    fn quantizer_clamps() {
        let q = Quantizer::from_max(8, 1.0);
        assert_eq!(q.quantize(5.0), 127);
        assert_eq!(q.quantize(-5.0), -127);
        assert_eq!(q.quantize(f64::INFINITY), 127);
        assert_eq!(q.quantize(f64::NEG_INFINITY), -127);
        assert_eq!(q.quantize(f64::NAN), 0);
    }

    #[test]
    fn calibrated_covers_data() {
        let q = Quantizer::calibrated(8, &[-3.0, 1.0, 2.5]);
        assert_eq!(q.quantize(3.0), 127);
        let q0 = Quantizer::calibrated(8, &[0.0, 0.0]);
        assert_eq!(q0.quantize(0.0), 0);
    }

    #[test]
    fn calibration_ignores_non_finite_samples() {
        // NaN/∞ samples must not poison (or panic) the calibration: the
        // scale comes from the finite samples only.
        let q = Quantizer::calibrated(8, &[f64::NAN, -2.0, f64::INFINITY, 1.0]);
        assert_eq!(q.quantize(2.0), 127);
        assert_eq!(q.quantize(-2.0), -127);
        assert_eq!(q.quantize(1.0), 64);
        // All-non-finite data falls back to max_abs = 1.0.
        let q1 = Quantizer::calibrated(8, &[f64::NAN, f64::INFINITY]);
        assert_eq!(q1.quantize(0.5), 64);
        assert_eq!(q1.quantize(1.0), 127);
    }

    #[test]
    fn format_bit_allocation() {
        assert_eq!(FxpFormat::OutputRes(8).input_bits(), (4, 4));
        assert_eq!(FxpFormat::OutputRes(7).input_bits(), (4, 3));
        assert_eq!(FxpFormat::InputRes(8).input_bits(), (8, 8));
        assert_eq!(FxpFormat::OutputRes(8).output_bits(), 8);
        assert_eq!(FxpFormat::InputRes(8).output_bits(), 16);
        assert_eq!(FxpFormat::InputRes(6).effective_bitwidth(), 6);
        assert_eq!(FxpFormat::OutputRes(8).to_string(), "FXP-o-res(8)");
    }

    fn random_case() -> (GemmConfig, FeatureMap<f64>, WeightSet<f64>) {
        let cfg = GemmConfig::conv(6, 6, 3, 3, 3, 1, 4).unwrap();
        let input = FeatureMap::from_fn(6, 6, 3, |h, w, c| {
            ((h * 17 + w * 5 + c * 3) % 11) as f64 / 11.0 - 0.5
        });
        let weights = WeightSet::from_fn(4, 3, 3, 3, |oc, wh, ww, ic| {
            ((oc * 7 + wh * 13 + ww * 3 + ic) % 13) as f64 / 13.0 - 0.4
        });
        (cfg, input, weights)
    }

    #[test]
    fn i_res_is_more_accurate_than_o_res() {
        // The paper's ranking: error(FXP-i-res) < error(FXP-o-res) at the
        // same nominal n, because i-res gives each input the full n bits.
        let (cfg, input, weights) = random_case();
        let reference = gemm_reference(&cfg, &input, &weights).unwrap();
        let o_res = fxp_gemm(&cfg, &input, &weights, FxpFormat::OutputRes(8)).unwrap();
        let i_res = fxp_gemm(&cfg, &input, &weights, FxpFormat::InputRes(8)).unwrap();
        let e_o = ErrorStats::compare(reference.as_slice(), o_res.as_slice()).unwrap();
        let e_i = ErrorStats::compare(reference.as_slice(), i_res.as_slice()).unwrap();
        assert!(
            e_i.rmse() < e_o.rmse(),
            "i-res rmse {} should beat o-res rmse {}",
            e_i.rmse(),
            e_o.rmse()
        );
    }

    #[test]
    fn more_bits_reduce_error() {
        let (cfg, input, weights) = random_case();
        let reference = gemm_reference(&cfg, &input, &weights).unwrap();
        let mut last = f64::INFINITY;
        for n in [4u32, 6, 8, 10] {
            let got = fxp_gemm(&cfg, &input, &weights, FxpFormat::InputRes(n)).unwrap();
            let e = ErrorStats::compare(reference.as_slice(), got.as_slice()).unwrap();
            assert!(e.rmse() <= last + 1e-12, "n={n}: {} > {}", e.rmse(), last);
            last = e.rmse();
        }
        assert!(last < 1e-3);
    }
}
