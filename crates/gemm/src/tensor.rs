//! Dense row-major tensors used throughout the workspace.

use crate::GemmError;

/// A dense row-major matrix.
///
/// # Example
///
/// ```
/// use usystolic_gemm::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 2)] = 5.0;
/// assert_eq!(m[(0, 2)], 5.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, GemmError> {
        if data.len() != rows * cols {
            return Err(GemmError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }
}

impl<T> Matrix<T> {
    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements (never true for a constructed
    /// matrix; kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major view of the underlying storage.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Applies `f` to every element, producing a new matrix.
    #[must_use]
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T> core::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> core::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

/// An input/output feature map: `height × width × channels`, row-major with
/// channel innermost (the `I` and `O` variables of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMap<T = f64> {
    height: usize,
    width: usize,
    channels: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> FeatureMap<T> {
    /// Creates a zero-filled feature map.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(height: usize, width: usize, channels: usize) -> Self {
        assert!(
            height > 0 && width > 0 && channels > 0,
            "feature map dimensions must be non-zero"
        );
        Self {
            height,
            width,
            channels,
            data: vec![T::default(); height * width * channels],
        }
    }

    /// Creates a feature map from a row-major `(h, w, c)` data vector.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] if `data.len() != height *
    /// width * channels`.
    pub(crate) fn from_vec(
        height: usize,
        width: usize,
        channels: usize,
        data: Vec<T>,
    ) -> Result<Self, GemmError> {
        if data.len() != height * width * channels {
            return Err(GemmError::ShapeMismatch {
                expected: format!(
                    "{height}x{width}x{channels} = {} elements",
                    height * width * channels
                ),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Self {
            height,
            width,
            channels,
            data,
        })
    }

    /// Builds a feature map by evaluating `f(h, w, c)` everywhere.
    #[must_use]
    pub fn from_fn(
        height: usize,
        width: usize,
        channels: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(height * width * channels);
        for h in 0..height {
            for w in 0..width {
                for c in 0..channels {
                    data.push(f(h, w, c));
                }
            }
        }
        Self {
            height,
            width,
            channels,
            data,
        }
    }
}

impl<T> FeatureMap<T> {
    /// Height (`IH`/`OH`).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width (`IW`/`OW`).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Channel count (`IC`/`OC`).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major (h, w, c) view of the storage.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable storage view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Applies `f` to every element, producing a new feature map.
    #[must_use]
    pub(crate) fn map<U>(&self, f: impl Fn(&T) -> U) -> FeatureMap<U> {
        FeatureMap {
            height: self.height,
            width: self.width,
            channels: self.channels,
            data: self.data.iter().map(f).collect(),
        }
    }

    fn offset(&self, h: usize, w: usize, c: usize) -> usize {
        debug_assert!(h < self.height && w < self.width && c < self.channels);
        (h * self.width + w) * self.channels + c
    }
}

impl<T> core::ops::Index<(usize, usize, usize)> for FeatureMap<T> {
    type Output = T;

    fn index(&self, (h, w, c): (usize, usize, usize)) -> &T {
        assert!(
            h < self.height && w < self.width && c < self.channels,
            "index ({h},{w},{c}) out of {}x{}x{}",
            self.height,
            self.width,
            self.channels
        );
        &self.data[self.offset(h, w, c)]
    }
}

impl<T> core::ops::IndexMut<(usize, usize, usize)> for FeatureMap<T> {
    fn index_mut(&mut self, (h, w, c): (usize, usize, usize)) -> &mut T {
        assert!(
            h < self.height && w < self.width && c < self.channels,
            "index ({h},{w},{c}) out of {}x{}x{}",
            self.height,
            self.width,
            self.channels
        );
        let o = self.offset(h, w, c);
        &mut self.data[o]
    }
}

/// A set of convolution weights: `out-channels × height × width ×
/// in-channels` (the `W` variable of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSet<T = f64> {
    out_channels: usize,
    height: usize,
    width: usize,
    in_channels: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> WeightSet<T> {
    /// Creates a zero-filled weight set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(out_channels: usize, height: usize, width: usize, in_channels: usize) -> Self {
        assert!(
            out_channels > 0 && height > 0 && width > 0 && in_channels > 0,
            "weight dimensions must be non-zero"
        );
        Self {
            out_channels,
            height,
            width,
            in_channels,
            data: vec![T::default(); out_channels * height * width * in_channels],
        }
    }

    /// Builds a weight set by evaluating `f(oc, wh, ww, ic)` everywhere.
    #[must_use]
    pub fn from_fn(
        out_channels: usize,
        height: usize,
        width: usize,
        in_channels: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(out_channels * height * width * in_channels);
        for oc in 0..out_channels {
            for wh in 0..height {
                for ww in 0..width {
                    for ic in 0..in_channels {
                        data.push(f(oc, wh, ww, ic));
                    }
                }
            }
        }
        Self {
            out_channels,
            height,
            width,
            in_channels,
            data,
        }
    }
}

impl<T> WeightSet<T> {
    /// Output channel count (`OC`).
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel height (`WH`).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Kernel width (`WW`).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Input channel count (`IC`).
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the set holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major (oc, wh, ww, ic) storage view.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable storage view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Applies `f` to every element, producing a new weight set.
    #[must_use]
    pub(crate) fn map<U>(&self, f: impl Fn(&T) -> U) -> WeightSet<U> {
        WeightSet {
            out_channels: self.out_channels,
            height: self.height,
            width: self.width,
            in_channels: self.in_channels,
            data: self.data.iter().map(f).collect(),
        }
    }

    fn offset(&self, oc: usize, wh: usize, ww: usize, ic: usize) -> usize {
        ((oc * self.height + wh) * self.width + ww) * self.in_channels + ic
    }
}

impl<T> core::ops::Index<(usize, usize, usize, usize)> for WeightSet<T> {
    type Output = T;

    fn index(&self, (oc, wh, ww, ic): (usize, usize, usize, usize)) -> &T {
        assert!(
            oc < self.out_channels && wh < self.height && ww < self.width && ic < self.in_channels,
            "weight index out of range"
        );
        &self.data[self.offset(oc, wh, ww, ic)]
    }
}

impl<T> core::ops::IndexMut<(usize, usize, usize, usize)> for WeightSet<T> {
    fn index_mut(&mut self, (oc, wh, ww, ic): (usize, usize, usize, usize)) -> &mut T {
        assert!(
            oc < self.out_channels && wh < self.height && ww < self.width && ic < self.in_channels,
            "weight index out of range"
        );
        let o = self.offset(oc, wh, ww, ic);
        &mut self.data[o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_index_roundtrip() {
        let mut m = Matrix::<i64>::zeros(3, 4);
        m[(2, 3)] = 7;
        m[(0, 0)] = -1;
        assert_eq!(m[(2, 3)], 7);
        assert_eq!(m[(0, 0)], -1);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
    }

    #[test]
    fn matrix_from_vec_checks_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn matrix_from_fn_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as i64);
        assert_eq!(m.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(m.row(1), &[10, 11, 12]);
    }

    #[test]
    fn matrix_map_converts_type() {
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as i64);
        let f = m.map(|&v| v as f64 * 0.5);
        assert_eq!(f[(1, 1)], 1.0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn matrix_index_out_of_range_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn feature_map_channel_innermost() {
        let fm = FeatureMap::from_fn(2, 2, 3, |h, w, c| (h * 100 + w * 10 + c) as i64);
        assert_eq!(fm[(1, 0, 2)], 102);
        assert_eq!(fm.as_slice()[..3], [0, 1, 2]);
        assert_eq!(fm.len(), 12);
    }

    #[test]
    fn weight_set_layout() {
        let ws = WeightSet::from_fn(2, 3, 3, 4, |oc, wh, ww, ic| {
            (oc * 1000 + wh * 100 + ww * 10 + ic) as i64
        });
        assert_eq!(ws[(1, 2, 0, 3)], 1203);
        assert_eq!(ws.len(), 2 * 3 * 3 * 4);
        assert_eq!(ws.out_channels(), 2);
        assert_eq!(ws.in_channels(), 4);
    }

    #[test]
    fn feature_map_from_vec_checks_shape_and_map_keeps_it() {
        let fm = FeatureMap::from_vec(1, 2, 3, (0..6).collect()).expect("6 elements");
        assert_eq!(fm[(0, 1, 2)], 5);
        assert!(FeatureMap::from_vec(1, 2, 3, vec![0; 5]).is_err());
        let halves = fm.map(|&v| v as f64 / 2.0);
        assert_eq!(
            (halves.height(), halves.width(), halves.channels()),
            (1, 2, 3)
        );
        assert_eq!(halves[(0, 1, 0)], 1.5);
        let ws = WeightSet::from_fn(2, 1, 2, 3, |oc, _, ww, ic| (oc * 6 + ww * 3 + ic) as i64);
        let negated = ws.map(|&v| -v);
        assert_eq!(negated.as_slice(), (0..12).map(|v| -v).collect::<Vec<_>>());
        assert_eq!(negated.in_channels(), 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = FeatureMap::<f64>::zeros(0, 1, 1);
    }

    #[test]
    fn mutable_slices_write_through() {
        let mut m = Matrix::<i64>::zeros(2, 2);
        m.as_mut_slice()[3] = 9;
        assert_eq!(m[(1, 1)], 9);
        let mut fm = FeatureMap::<i64>::zeros(1, 1, 2);
        fm.as_mut_slice()[1] = 5;
        assert_eq!(fm[(0, 0, 1)], 5);
        let mut ws = WeightSet::<i64>::zeros(1, 1, 1, 2);
        ws.as_mut_slice()[0] = 4;
        assert_eq!(ws[(0, 0, 0, 0)], 4);
    }
}
