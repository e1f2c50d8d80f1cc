//! Lowering matrix convolution to matrix multiplication (im2col).
//!
//! A weight-stationary systolic array consumes GEMMs in lowered form: the
//! weights become a `(WH·WW·IC) × OC` matrix held stationary in the PEs,
//! and the input becomes a `(OH·OW) × (WH·WW·IC)` matrix of unrolled
//! receptive-field columns streamed through the rows. This module performs
//! that lowering and folds the result back.

use crate::config::GemmConfig;
use crate::tensor::{FeatureMap, Matrix, WeightSet};
use crate::GemmError;

/// Lowers the input feature map into the `(OH·OW) × (WH·WW·IC)` streaming
/// matrix: row `p` holds the receptive field of output pixel `p`
/// (`p = oh·OW + ow`), unrolled in `(wh, ww, ic)` order to match
/// [`lower_weights`].
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if `input` does not match the
/// configuration.
pub fn lower_input<T: Clone + Default>(
    config: &GemmConfig,
    input: &FeatureMap<T>,
) -> Result<Matrix<T>, GemmError> {
    if (input.height(), input.width(), input.channels())
        != (
            config.input_height(),
            config.input_width(),
            config.input_channels(),
        )
    {
        return Err(GemmError::ShapeMismatch {
            expected: format!(
                "input {}x{}x{}",
                config.input_height(),
                config.input_width(),
                config.input_channels()
            ),
            found: format!("{}x{}x{}", input.height(), input.width(), input.channels()),
        });
    }
    // For one output pixel and kernel row, the receptive field's `WW·IC`
    // elements are contiguous in the `(h, w, c)` storage: one slice each.
    let (iw, ic, s) = (
        config.input_width(),
        config.input_channels(),
        config.stride(),
    );
    let span = config.weight_width() * ic;
    let data = input.as_slice();
    let mut out = Vec::with_capacity(config.output_pixels() * config.reduction_len());
    for oh in 0..config.output_height() {
        for ow in 0..config.output_width() {
            for wh in 0..config.weight_height() {
                let start = ((oh * s + wh) * iw + ow * s) * ic;
                out.extend_from_slice(&data[start..start + span]);
            }
        }
    }
    Matrix::from_vec(config.output_pixels(), config.reduction_len(), out)
}

/// Lowers the weights into the `(WH·WW·IC) × OC` stationary matrix: column
/// `oc` holds filter `oc` unrolled in `(wh, ww, ic)` order.
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if `weights` does not match the
/// configuration.
pub fn lower_weights<T: Clone + Default>(
    config: &GemmConfig,
    weights: &WeightSet<T>,
) -> Result<Matrix<T>, GemmError> {
    if (
        weights.out_channels(),
        weights.height(),
        weights.width(),
        weights.in_channels(),
    ) != (
        config.output_channels(),
        config.weight_height(),
        config.weight_width(),
        config.input_channels(),
    ) {
        return Err(GemmError::ShapeMismatch {
            expected: "weights matching config".into(),
            found: "different shape".into(),
        });
    }
    // The weights are the contiguous `OC × K` matrix of unrolled filters;
    // the result is its transpose, written row by row.
    let k = config.reduction_len();
    let data = weights.as_slice();
    let mut out = Vec::with_capacity(data.len());
    for row in 0..k {
        out.extend(data[row..].iter().step_by(k).cloned());
    }
    Matrix::from_vec(k, config.output_channels(), out)
}

/// Folds a lowered `(OH·OW) × OC` output matrix back into the output
/// feature map.
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if the matrix shape does not match
/// the configuration's output.
pub fn fold_output<T: Clone + Default>(
    config: &GemmConfig,
    lowered: &Matrix<T>,
) -> Result<FeatureMap<T>, GemmError> {
    if lowered.rows() != config.output_pixels() || lowered.cols() != config.output_channels() {
        return Err(GemmError::ShapeMismatch {
            expected: format!("{}x{}", config.output_pixels(), config.output_channels()),
            found: format!("{}x{}", lowered.rows(), lowered.cols()),
        });
    }
    // Row `oh·OW + ow` of the lowered output is pixel `(oh, ow)`: the
    // `(OH·OW) × OC` storage already has the `(OH, OW, OC)` layout.
    FeatureMap::from_vec(
        config.output_height(),
        config.output_width(),
        config.output_channels(),
        lowered.as_slice().to_vec(),
    )
}

/// Plain dense matrix product `a · b` for `f64` matrices (the lowered GEMM
/// check).
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if the inner dimensions disagree.
pub fn matmul_f64(a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>, GemmError> {
    if a.cols() != b.rows() {
        return Err(GemmError::ShapeMismatch {
            expected: format!("inner dim {}", a.cols()),
            found: format!("{}", b.rows()),
        });
    }
    let mut out = Matrix::<f64>::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a[(i, k)];
            for j in 0..b.cols() {
                out[(i, j)] += aik * b[(k, j)];
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopnest::gemm_reference;

    #[test]
    fn lowered_product_equals_direct_convolution() {
        let cfg = GemmConfig::conv(5, 6, 3, 3, 2, 1, 4).unwrap();
        let input = FeatureMap::from_fn(5, 6, 3, |h, w, c| (h * 31 + w * 7 + c) as f64 * 0.1 - 2.0);
        let weights = WeightSet::from_fn(4, 3, 2, 3, |oc, wh, ww, ic| {
            ((oc * 13 + wh * 5 + ww * 3 + ic) % 7) as f64 - 3.0
        });
        let direct = gemm_reference(&cfg, &input, &weights).unwrap();

        let a = lower_input(&cfg, &input).unwrap();
        let b = lower_weights(&cfg, &weights).unwrap();
        let lowered = matmul_f64(&a, &b).unwrap();
        let folded = fold_output(&cfg, &lowered).unwrap();

        for h in 0..direct.height() {
            for w in 0..direct.width() {
                for c in 0..direct.channels() {
                    assert!(
                        (direct[(h, w, c)] - folded[(h, w, c)]).abs() < 1e-9,
                        "mismatch at ({h},{w},{c})"
                    );
                }
            }
        }
    }

    /// `lower_input` by its definition: element `(p, col)` is input
    /// `(oh·S + wh, ow·S + ww, ic)`, with `p = oh·OW + ow` and `col` running
    /// over `(wh, ww, ic)`.
    fn lower_input_by_index<T: Clone + Default>(
        config: &GemmConfig,
        input: &FeatureMap<T>,
    ) -> Matrix<T> {
        let (ow_max, s) = (config.output_width(), config.stride());
        let mut out = Matrix::<T>::zeros(config.output_pixels(), config.reduction_len());
        for oh in 0..config.output_height() {
            for ow in 0..ow_max {
                let mut col = 0;
                for wh in 0..config.weight_height() {
                    for ww in 0..config.weight_width() {
                        for ic in 0..config.input_channels() {
                            out[(oh * ow_max + ow, col)] =
                                input[(wh + oh * s, ww + ow * s, ic)].clone();
                            col += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// `lower_weights` by its definition: column `oc` is filter `oc`
    /// unrolled in `(wh, ww, ic)` order.
    fn lower_weights_by_index<T: Clone + Default>(
        config: &GemmConfig,
        weights: &WeightSet<T>,
    ) -> Matrix<T> {
        let mut out = Matrix::<T>::zeros(config.reduction_len(), config.output_channels());
        for oc in 0..config.output_channels() {
            let mut row = 0;
            for wh in 0..config.weight_height() {
                for ww in 0..config.weight_width() {
                    for ic in 0..config.input_channels() {
                        out[(row, oc)] = weights[(oc, wh, ww, ic)].clone();
                        row += 1;
                    }
                }
            }
        }
        out
    }

    /// `fold_output` by its definition: pixel `(oh, ow, oc)` is element
    /// `(oh·OW + ow, oc)`.
    fn fold_output_by_index<T: Clone + Default>(
        config: &GemmConfig,
        lowered: &Matrix<T>,
    ) -> FeatureMap<T> {
        let ow_max = config.output_width();
        FeatureMap::from_fn(
            config.output_height(),
            ow_max,
            config.output_channels(),
            |oh, ow, oc| lowered[(oh * ow_max + ow, oc)].clone(),
        )
    }

    fn assert_lowering_matches_definition<T>(make: impl Fn(usize) -> T)
    where
        T: Clone + Default + PartialEq + core::fmt::Debug,
    {
        // Strides 1–3 (with and without a ragged last window), square,
        // rectangular and 1 × 1 kernels, one and several input channels.
        for stride in 1..=3 {
            for (wh, ww) in [(1, 1), (2, 3), (3, 2), (3, 3)] {
                for ic in [1, 3] {
                    for extra in [0, 1] {
                        let (ih, iw) = (wh + 2 * stride + extra, ww + 3 * stride + extra);
                        let cfg = GemmConfig::conv(ih, iw, ic, wh, ww, stride, 4).unwrap();
                        let case = format!("{ih}x{iw}x{ic} kernel {wh}x{ww} stride {stride}");
                        let mut next = 0;
                        let mut value = || {
                            next += 1;
                            make(next)
                        };
                        let input = FeatureMap::from_fn(ih, iw, ic, |_, _, _| value());
                        let weights = WeightSet::from_fn(4, wh, ww, ic, |_, _, _, _| value());
                        assert_eq!(
                            lower_input(&cfg, &input).unwrap(),
                            lower_input_by_index(&cfg, &input),
                            "{case}"
                        );
                        assert_eq!(
                            lower_weights(&cfg, &weights).unwrap(),
                            lower_weights_by_index(&cfg, &weights),
                            "{case}"
                        );
                        let lowered = Matrix::from_fn(cfg.output_pixels(), 4, |_, _| value());
                        assert_eq!(
                            fold_output(&cfg, &lowered).unwrap(),
                            fold_output_by_index(&cfg, &lowered),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lowering_matches_its_index_definition() {
        assert_lowering_matches_definition(|i| i as f64 * 0.5 - 7.0);
        assert_lowering_matches_definition(|i| i as i64 * 3 - 50);
    }

    #[test]
    fn lowered_shapes() {
        let cfg = GemmConfig::conv(8, 8, 2, 3, 3, 1, 5).unwrap();
        let input = FeatureMap::<f64>::zeros(8, 8, 2);
        let weights = WeightSet::<f64>::zeros(5, 3, 3, 2);
        let a = lower_input(&cfg, &input).unwrap();
        let b = lower_weights(&cfg, &weights).unwrap();
        assert_eq!((a.rows(), a.cols()), (36, 18));
        assert_eq!((b.rows(), b.cols()), (18, 5));
    }

    #[test]
    fn matmul_case_is_trivially_lowered() {
        let cfg = GemmConfig::matmul(3, 4, 2).unwrap();
        let input = FeatureMap::from_fn(3, 1, 4, |m, _, k| (m * 4 + k) as f64);
        let a = lower_input(&cfg, &input).unwrap();
        // im2col of a 1×1 kernel is the input reinterpreted as M×K.
        assert_eq!((a.rows(), a.cols()), (3, 4));
        assert_eq!(a[(2, 3)], 11.0);
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let cfg = GemmConfig::conv(4, 4, 1, 3, 3, 1, 1).unwrap();
        assert!(lower_input(&cfg, &FeatureMap::<f64>::zeros(4, 4, 2)).is_err());
        assert!(lower_weights(&cfg, &WeightSet::<f64>::zeros(2, 3, 3, 1)).is_err());
        assert!(fold_output(&cfg, &Matrix::<f64>::zeros(3, 3)).is_err());
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(4, 2);
        assert!(matmul_f64(&a, &b).is_err());
    }
}
