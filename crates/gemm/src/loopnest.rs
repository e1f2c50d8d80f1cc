//! The Algorithm-1 reference loop nest.
//!
//! ```text
//! for {oh, ow, oc, wh, ww, ic} in {OH, OW, OC, WH, WW, IC}:
//!     O[oh, ow, oc] += W[oc, wh, ww, ic] · I[wh + oh·S, ww + ow·S, ic]
//! ```
//!
//! Both a concrete `f64` reference and a version generic over the MAC
//! operation are provided; the latter lets a computing-scheme model (e.g.
//! a quantised HUB MAC) replace the exact multiply-accumulate while the
//! loop structure — and hence the data-reuse pattern — stays identical.

use crate::config::GemmConfig;
use crate::tensor::{FeatureMap, WeightSet};
use crate::GemmError;

fn check_shapes<T>(
    config: &GemmConfig,
    input: &FeatureMap<T>,
    weights: &WeightSet<T>,
) -> Result<(), GemmError> {
    let want_in = (
        config.input_height(),
        config.input_width(),
        config.input_channels(),
    );
    let got_in = (input.height(), input.width(), input.channels());
    if want_in != got_in {
        return Err(GemmError::ShapeMismatch {
            expected: format!("input {want_in:?}"),
            found: format!("{got_in:?}"),
        });
    }
    let want_w = (
        config.output_channels(),
        config.weight_height(),
        config.weight_width(),
        config.input_channels(),
    );
    let got_w = (
        weights.out_channels(),
        weights.height(),
        weights.width(),
        weights.in_channels(),
    );
    if want_w != got_w {
        return Err(GemmError::ShapeMismatch {
            expected: format!("weights {want_w:?}"),
            found: format!("{got_w:?}"),
        });
    }
    Ok(())
}

/// Runs Algorithm 1 exactly in `f64`, producing the output feature map.
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if the tensors do not match the
/// configuration.
///
/// # Example
///
/// ```
/// use usystolic_gemm::{gemm_reference, FeatureMap, GemmConfig, WeightSet};
///
/// let cfg = GemmConfig::conv(3, 3, 1, 2, 2, 1, 1).unwrap();
/// let input = FeatureMap::from_fn(3, 3, 1, |h, w, _| (h * 3 + w) as f64);
/// let weights = WeightSet::from_fn(1, 2, 2, 1, |_, _, _, _| 1.0);
/// let out = gemm_reference(&cfg, &input, &weights).unwrap();
/// // Top-left 2×2 window sums 0+1+3+4 = 8.
/// assert_eq!(out[(0, 0, 0)], 8.0);
/// ```
pub fn gemm_reference(
    config: &GemmConfig,
    input: &FeatureMap<f64>,
    weights: &WeightSet<f64>,
) -> Result<FeatureMap<f64>, GemmError> {
    gemm_with_mac(config, input, weights, 0.0, |acc, w, i| acc + w * i)
}

/// Runs the Algorithm-1 loop nest with a caller-supplied MAC.
///
/// `mac(acc, w, i)` must fold one weight/input pair into the running
/// accumulator; the accumulator starts at `init` for every output element.
/// Works for any element type (fixed-point integers, floats, interval
/// arithmetic, ...).
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if the tensors do not match the
/// configuration.
pub fn gemm_with_mac<T, A>(
    config: &GemmConfig,
    input: &FeatureMap<T>,
    weights: &WeightSet<T>,
    init: A,
    mut mac: impl FnMut(A, &T, &T) -> A,
) -> Result<FeatureMap<A>, GemmError>
where
    A: Clone + Default,
{
    check_shapes(config, input, weights)?;
    // Filter `oc` is `K` contiguous weights, and for one output pixel and
    // kernel row both the filter's and the receptive field's `WW·IC`
    // elements are contiguous: the MACs run over slices, in the loop
    // nest's `(wh, ww, ic)` order.
    let (iw, ic, s) = (
        config.input_width(),
        config.input_channels(),
        config.stride(),
    );
    let span = config.weight_width() * ic;
    let data = input.as_slice();
    let mut out = Vec::with_capacity(config.output_pixels() * config.output_channels());
    for oh in 0..config.output_height() {
        for ow in 0..config.output_width() {
            for filter in weights.as_slice().chunks_exact(config.reduction_len()) {
                let mut acc = init.clone();
                for (wh, taps) in filter.chunks_exact(span).enumerate() {
                    let start = ((oh * s + wh) * iw + ow * s) * ic;
                    for (w, i) in taps.iter().zip(&data[start..start + span]) {
                        acc = mac(acc, w, i);
                    }
                }
                out.push(acc);
            }
        }
    }
    FeatureMap::from_vec(
        config.output_height(),
        config.output_width(),
        config.output_channels(),
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GemmConfig;

    #[test]
    fn identity_kernel_copies_input() {
        let cfg = GemmConfig::conv(4, 4, 1, 1, 1, 1, 1).unwrap();
        let input = FeatureMap::from_fn(4, 4, 1, |h, w, _| (h * 4 + w) as f64);
        let weights = WeightSet::from_fn(1, 1, 1, 1, |_, _, _, _| 1.0);
        let out = gemm_reference(&cfg, &input, &weights).unwrap();
        for h in 0..4 {
            for w in 0..4 {
                assert_eq!(out[(h, w, 0)], input[(h, w, 0)]);
            }
        }
    }

    #[test]
    fn matmul_matches_manual_product() {
        // (2 x 3) · (3 x 2) with known values.
        let cfg = GemmConfig::matmul(2, 3, 2).unwrap();
        // Input I[m, 0, k] = A[m][k].
        let a = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let b = [[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]]; // B[k][n]
        let input = FeatureMap::from_fn(2, 1, 3, |m, _, k| a[m][k]);
        let weights = WeightSet::from_fn(2, 1, 1, 3, |n, _, _, k| b[k][n]);
        let out = gemm_reference(&cfg, &input, &weights).unwrap();
        assert_eq!(out[(0, 0, 0)], 58.0);
        assert_eq!(out[(0, 0, 1)], 64.0);
        assert_eq!(out[(1, 0, 0)], 139.0);
        assert_eq!(out[(1, 0, 1)], 154.0);
    }

    #[test]
    fn strided_conv_reads_correct_windows() {
        let cfg = GemmConfig::conv(5, 5, 1, 1, 1, 2, 1).unwrap();
        let input = FeatureMap::from_fn(5, 5, 1, |h, w, _| (h * 5 + w) as f64);
        let weights = WeightSet::from_fn(1, 1, 1, 1, |_, _, _, _| 1.0);
        let out = gemm_reference(&cfg, &input, &weights).unwrap();
        assert_eq!(out.height(), 3);
        assert_eq!(out[(1, 1, 0)], input[(2, 2, 0)]);
        assert_eq!(out[(2, 2, 0)], input[(4, 4, 0)]);
    }

    #[test]
    fn multichannel_reduction_sums_channels() {
        let cfg = GemmConfig::conv(2, 2, 3, 2, 2, 1, 2).unwrap();
        let input = FeatureMap::from_fn(2, 2, 3, |_, _, _| 1.0);
        let weights = WeightSet::from_fn(2, 2, 2, 3, |oc, _, _, _| (oc + 1) as f64);
        let out = gemm_reference(&cfg, &input, &weights).unwrap();
        // Each output sums 2*2*3 = 12 terms.
        assert_eq!(out[(0, 0, 0)], 12.0);
        assert_eq!(out[(0, 0, 1)], 24.0);
    }

    #[test]
    fn generic_mac_supports_integers() {
        let cfg = GemmConfig::matmul(1, 4, 1).unwrap();
        let input = FeatureMap::from_fn(1, 1, 4, |_, _, k| (k + 1) as i64);
        let weights = WeightSet::from_fn(1, 1, 1, 4, |_, _, _, _| 2i64);
        let out = gemm_with_mac(&cfg, &input, &weights, 0i64, |acc, &w, &i| acc + w * i).unwrap();
        assert_eq!(out[(0, 0, 0)], 2 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn macs_follow_the_loop_nest_in_order() {
        // Every output element folds exactly Algorithm 1's (weight, input)
        // pairs, in its `(wh, ww, ic)` order, so a float sum keeps every
        // bit: strides 1–3 (with and without a ragged last window),
        // square, rectangular and 1 × 1 kernels, one and several input
        // channels.
        for stride in 1..=3 {
            for (wh, ww) in [(1, 1), (2, 3), (3, 2), (3, 3)] {
                for ic in [1, 3] {
                    for extra in [0, 1] {
                        let (ih, iw) = (wh + 2 * stride + extra, ww + 3 * stride + extra);
                        let cfg = GemmConfig::conv(ih, iw, ic, wh, ww, stride, 4).unwrap();
                        let input = FeatureMap::from_fn(ih, iw, ic, |h, w, c| {
                            ((h * iw + w) * ic + c) as i64
                        });
                        let weights = WeightSet::from_fn(4, wh, ww, ic, |o, h, w, c| {
                            -((((o * wh + h) * ww + w) * ic + c) as i64)
                        });
                        let out =
                            gemm_with_mac(&cfg, &input, &weights, Vec::new(), |mut acc, &w, &i| {
                                acc.push((w, i));
                                acc
                            })
                            .unwrap();
                        for (oh, ow, oc) in (0..out.height()).flat_map(|oh| {
                            (0..out.width()).flat_map(move |ow| (0..4).map(move |oc| (oh, ow, oc)))
                        }) {
                            let mut pairs = Vec::new();
                            for kh in 0..wh {
                                for kw in 0..ww {
                                    for c in 0..ic {
                                        pairs.push((
                                            weights[(oc, kh, kw, c)],
                                            input[(kh + oh * stride, kw + ow * stride, c)],
                                        ));
                                    }
                                }
                            }
                            assert_eq!(
                                out[(oh, ow, oc)],
                                pairs,
                                "{ih}x{iw}x{ic} kernel {wh}x{ww} stride {stride} at ({oh},{ow},{oc})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let cfg = GemmConfig::conv(4, 4, 1, 3, 3, 1, 1).unwrap();
        let input = FeatureMap::<f64>::zeros(4, 4, 2); // wrong channels
        let weights = WeightSet::<f64>::zeros(1, 3, 3, 1);
        assert!(gemm_reference(&cfg, &input, &weights).is_err());
        let input = FeatureMap::<f64>::zeros(4, 4, 1);
        let weights = WeightSet::<f64>::zeros(2, 3, 3, 1); // wrong oc
        assert!(gemm_reference(&cfg, &input, &weights).is_err());
    }
}
