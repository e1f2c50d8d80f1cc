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

/// `2^62`: past the widest quantiser's largest level `2^62 − 1`, and
/// within the range where a truncating `f64 → i64` cast is exact.
const LIMIT: f64 = 4_611_686_018_427_387_904.0;

/// Maxima [`Quantizer::calibrated`] keeps at once.
const MAXIMA: usize = 8;

impl Quantizer {
    /// Creates a quantiser for `bits`-bit signed data spanning
    /// `[-max_abs, max_abs]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=63` (an `i64` level holds at most
    /// 63 bits of signed data) or `max_abs` is not a positive finite
    /// number.
    #[must_use]
    pub fn from_max(bits: u32, max_abs: f64) -> Self {
        assert!((2..=63).contains(&bits), "need 2 to 63 bits, got {bits}");
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
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=63`, like [`Quantizer::from_max`].
    #[must_use]
    pub fn calibrated(bits: u32, data: &[f64]) -> Self {
        // Independent running maxima, so the comparisons pipeline instead
        // of waiting on one serial chain. A NaN or infinite |x| fails
        // `< ∞` and is skipped.
        let mut maxima = [0.0f64; MAXIMA];
        let keep = |max: &mut f64, x: f64| {
            let a = x.abs();
            if a > *max && a < f64::INFINITY {
                *max = a;
            }
        };
        let chunks = data.chunks_exact(MAXIMA);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (max, &x) in maxima.iter_mut().zip(chunk) {
                keep(max, x);
            }
        }
        for (max, &x) in maxima.iter_mut().zip(tail) {
            keep(max, x);
        }
        let max = maxima.into_iter().fold(0.0f64, f64::max);
        Self::from_max(bits, if max > 0.0 { max } else { 1.0 })
    }

    /// Quantises a value to its integer level, rounding to nearest (half
    /// away from zero, like [`f64::round`]) and clamping the magnitude to
    /// the representable range `±(2^(bits-1) - 1)`. NaN maps to level 0.
    #[must_use]
    #[inline]
    pub fn quantize(&self, x: f64) -> i64 {
        let max = (1i64 << (self.bits - 1)) - 1;
        // Within ±2^62 the cast truncates exactly and `y − trunc(y)` is
        // exact too, so stepping by that fraction rounds without a libm
        // call. The clamp keeps NaN, which the cast maps to 0.
        let y = (x * self.scale).clamp(-LIMIT, LIMIT);
        let trunc = y as i64;
        let frac = y - trunc as f64;
        (trunc + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)).clamp(-max, max)
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
    (fm.map(|&x| q.quantize(x)), q)
}

/// Quantises a whole weight set with a calibrated quantiser.
#[must_use]
pub fn quantize_weight_set(ws: &WeightSet<f64>, bits: u32) -> (WeightSet<i64>, Quantizer) {
    let q = Quantizer::calibrated(bits, ws.as_slice());
    (ws.map(|&x| q.quantize(x)), q)
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
    let real = int_out.map(|&v| v as f64 / (qw.scale() * qi.scale()));
    let qo = Quantizer::calibrated(format.output_bits(), real.as_slice());
    Ok(real.map(|&v| qo.dequantize(qo.quantize(v))))
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

    /// The quantiser's rounding before slice-speed rounding: libm
    /// `round`, then the saturating cast and the clamp.
    fn round_reference(bits: u32, y: f64) -> i64 {
        let max = (1i64 << (bits - 1)) - 1;
        (y.round() as i64).clamp(-max, max)
    }

    /// SplitMix64, for random bit patterns.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn quantize_rounds_like_the_round_reference_at_every_width() {
        // Unit scale, so `quantize(y)` rounds `y` itself: halves and their
        // neighbours, the largest double below one half, the ±max edges,
        // powers of two up to and past 2^63, NaN, ±∞, ±0, subnormals and
        // random bit patterns, at every width from 2 to 63 bits.
        let mut state = 0x5EED;
        let mut fixed = vec![
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            f64::NAN,
            f64::INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
        ];
        for e in 0..=70 {
            let p = 2f64.powi(e);
            fixed.extend([
                p,
                p + 0.5,
                p - 0.5,
                (p + 0.5).next_up(),
                (p + 0.5).next_down(),
            ]);
        }
        for k in 0..200 {
            fixed.push(f64::from(k) + 0.5);
        }
        for bits in 2u32..=63 {
            let q = Quantizer { bits, scale: 1.0 };
            let max = ((1u64 << (bits - 1)) - 1) as f64;
            let mut cases = fixed.clone();
            for edge in [max, max + 1.0, max - 1.0] {
                cases.extend([
                    edge,
                    edge + 0.5,
                    edge - 0.5,
                    edge.next_up(),
                    edge.next_down(),
                ]);
            }
            for _ in 0..2_000 {
                let r = splitmix(&mut state);
                let level = (r % (1 << (bits - 1))) as f64;
                cases.extend([f64::from_bits(r), level + 0.5, (level + 0.5).next_down()]);
                cases.push((r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * max);
            }
            for y in cases.into_iter().flat_map(|y| [y, -y]) {
                assert_eq!(
                    q.quantize(y),
                    round_reference(bits, y),
                    "bits {bits} y {y:e} ({:#018x})",
                    y.to_bits()
                );
            }
        }
        // The same through a calibrated scale.
        let q = Quantizer::from_max(8, 3.0);
        for x in [-3.5, -1.5, -0.01171875, 0.01171875, 0.5, 1.0, 2.9, 3.0] {
            assert_eq!(q.quantize(x), round_reference(8, x * q.scale()), "x {x}");
        }
    }

    #[test]
    #[should_panic(expected = "need 2 to 63 bits")]
    fn quantizers_reject_64_bits() {
        let _ = Quantizer::from_max(64, 1.0);
    }

    #[test]
    #[should_panic(expected = "need 2 to 63 bits")]
    fn quantizers_reject_65_bits() {
        let _ = Quantizer::calibrated(65, &[1.0]);
    }

    #[test]
    fn calibration_keeps_the_serial_maximum() {
        // The serial fold calibration took before its maxima ran in
        // parallel lanes.
        let serial = |data: &[f64]| {
            let max = data
                .iter()
                .map(|x| x.abs())
                .filter(|a| a.is_finite())
                .fold(0.0f64, f64::max);
            Quantizer::from_max(8, if max > 0.0 { max } else { 1.0 })
        };
        let mut state = 0xCA1;
        let mut sets: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0; 11],
            vec![-0.0; 17],
            vec![f64::NAN; 9],
            vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN],
            vec![-0.0, 0.0, f64::NAN, -2.0, f64::INFINITY, 1.0],
            vec![f64::MAX, -f64::MAX, f64::NEG_INFINITY],
            vec![f64::from_bits(1), -0.0],
        ];
        for len in 1..=40 {
            // The largest magnitude in every lane and in the tail, among
            // non-finite samples.
            for at in 0..len {
                let mut data: Vec<f64> = (0..len)
                    .map(|i| match i % 4 {
                        0 => f64::NAN,
                        1 => f64::NEG_INFINITY,
                        _ => (i as f64) * 0.25 - 3.0,
                    })
                    .collect();
                data[at] = -100.0;
                sets.push(data);
            }
            sets.push(
                (0..len)
                    .map(|_| f64::from_bits(splitmix(&mut state)))
                    .collect(),
            );
        }
        for data in sets {
            assert_eq!(Quantizer::calibrated(8, &data), serial(&data), "{data:?}");
        }
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
