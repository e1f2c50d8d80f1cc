//! Weight-stationary tile mapping of a GEMM onto an `R × C` array.
//!
//! Under the weight-stationary dataflow the lowered weight matrix
//! (`K × N`, `K = WH·WW·IC`, `N = OC`) is cut into `⌈K/R⌉ × ⌈N/C⌉` tiles.
//! Each tile is preloaded once; all `M = OH·OW` input column vectors are
//! then streamed through it. The mapping drives both the functional
//! executor and the timing simulator.

use usystolic_gemm::GemmConfig;

/// The fold structure of one GEMM on one array shape.
///
/// # Example
///
/// ```
/// use usystolic_core::TileMapping;
/// use usystolic_gemm::GemmConfig;
///
/// // AlexNet FC6 on the 12x14 edge array: K = 9216 reduction rows fold
/// // 768 times; N = 4096 output channels fold 293 times.
/// let fc6 = GemmConfig::matmul(1, 9216, 4096)?;
/// let map = TileMapping::new(&fc6, 12, 14);
/// assert_eq!(map.row_folds(), 768);
/// assert_eq!(map.col_folds(), 293);
/// # Ok::<(), usystolic_gemm::GemmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileMapping {
    rows: usize,
    cols: usize,
    k: usize,
    n: usize,
    m: usize,
}

impl TileMapping {
    /// Maps `gemm` onto an array of `rows × cols` PEs.
    ///
    /// # Panics
    ///
    /// Panics if either array dimension is zero.
    #[must_use]
    pub fn new(gemm: &GemmConfig, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self {
            rows,
            cols,
            k: gemm.reduction_len(),
            n: gemm.output_channels(),
            m: gemm.output_pixels(),
        }
    }

    /// Row folds: `⌈K/R⌉`.
    #[must_use]
    pub fn row_folds(&self) -> usize {
        self.k.div_ceil(self.rows)
    }

    /// Column folds: `⌈N/C⌉`.
    #[must_use]
    pub fn col_folds(&self) -> usize {
        self.n.div_ceil(self.cols)
    }

    /// Total weight tiles preloaded over the GEMM.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.row_folds() * self.col_folds()
    }

    /// Streaming passes: every tile sees all `M` input vectors once.
    #[must_use]
    pub fn input_passes(&self) -> usize {
        self.m
    }

    /// Rows occupied by row-fold `rf` (the last fold may be partial).
    #[must_use]
    pub fn rows_in_fold(&self, rf: usize) -> usize {
        let start = rf * self.rows;
        self.rows.min(self.k.saturating_sub(start))
    }

    /// Columns occupied by column-fold `cf`.
    #[must_use]
    pub fn cols_in_fold(&self, cf: usize) -> usize {
        let start = cf * self.cols;
        self.cols.min(self.n.saturating_sub(start))
    }

    /// Average PE utilisation over the whole GEMM: occupied PE-tiles over
    /// total PE-tiles (the "MAC utilisation" of Section V-G), in `O(1)`.
    /// The folds partition `K` rows and `N` columns, so the tiles occupy
    /// exactly `K·N` PEs between them.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        (self.k * self.n) as f64 / (self.tiles() * self.rows * self.cols) as f64
    }

    /// Reduction length `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-channel count `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Streaming vector count `M`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Array rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_has_one_tile() {
        let g = GemmConfig::matmul(10, 12, 14).unwrap();
        let t = TileMapping::new(&g, 12, 14);
        assert_eq!(t.row_folds(), 1);
        assert_eq!(t.col_folds(), 1);
        assert_eq!(t.tiles(), 1);
        assert_eq!(t.input_passes(), 10);
        assert!((t.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_folds() {
        let g = GemmConfig::matmul(3, 25, 30).unwrap();
        let t = TileMapping::new(&g, 12, 14);
        assert_eq!(t.row_folds(), 3); // 12 + 12 + 1
        assert_eq!(t.col_folds(), 3); // 14 + 14 + 2
        assert_eq!(t.rows_in_fold(0), 12);
        assert_eq!(t.rows_in_fold(2), 1);
        assert_eq!(t.cols_in_fold(2), 2);
        assert!(t.utilization() < 1.0);
    }

    #[test]
    fn conv_mapping_uses_reduction_len() {
        let g = GemmConfig::conv(8, 8, 3, 3, 3, 1, 16).unwrap();
        let t = TileMapping::new(&g, 12, 14);
        assert_eq!(t.k(), 27);
        assert_eq!(t.n(), 16);
        assert_eq!(t.m(), 36);
        assert_eq!(t.row_folds(), 3);
        assert_eq!(t.col_folds(), 2);
    }

    #[test]
    fn small_gemm_underutilizes_big_array() {
        let g = GemmConfig::matmul(1, 4, 4).unwrap();
        let t = TileMapping::new(&g, 256, 256);
        assert_eq!(t.tiles(), 1);
        assert!(t.utilization() < 0.001);
    }

    #[test]
    fn utilization_equals_the_fold_walk_on_ragged_shapes() {
        // The closed form must give the same integers, hence the same
        // f64, as summing the occupied PEs of every fold.
        for (k, n) in [(1, 1), (13, 14), (25, 30), (7, 3), (1600, 10), (9216, 4096)] {
            let g = GemmConfig::matmul(1, k, n).unwrap();
            for (rows, cols) in [(12, 14), (4, 3), (256, 256), (1, 1), (5, 7)] {
                let t = TileMapping::new(&g, rows, cols);
                let mut occupied = 0usize;
                for rf in 0..t.row_folds() {
                    for cf in 0..t.col_folds() {
                        occupied += t.rows_in_fold(rf) * t.cols_in_fold(cf);
                    }
                }
                let walk = occupied as f64 / (t.tiles() * rows * cols) as f64;
                assert_eq!(t.utilization(), walk, "K {k} N {n} on {rows}x{cols}");
            }
        }
    }

    #[test]
    fn utilization_accounts_partial_tiles() {
        // K=13, R=12 → folds of 12 and 1; N=C → full columns.
        let g = GemmConfig::matmul(1, 13, 14).unwrap();
        let t = TileMapping::new(&g, 12, 14);
        let expect = (12.0 * 14.0 + 1.0 * 14.0) / (2.0 * 12.0 * 14.0);
        assert!((t.utilization() - expect).abs() < 1e-12);
    }
}
