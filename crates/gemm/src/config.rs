//! The GEMM parameterisation of Table II.
//!
//! One parameter block covers both matrix convolution and matrix
//! multiplication (Table II of the paper, parameter values after the ARM
//! SCALE-Sim convention \[55\]). A matrix multiplication `(M × K) · (K × N)`
//! is expressed as a 1×1 convolution: `IH = M`, `IW = 1`, `IC = K`,
//! `WH = WW = 1`, `S = 1`, `OC = N`.

use crate::GemmError;

/// Whether a GEMM is a matrix convolution or a matrix multiplication
/// (the *type* axis of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmKind {
    /// Matrix convolution (`Conv` layers).
    Convolution,
    /// Matrix multiplication (`FC` layers and friends).
    MatrixMultiply,
}

impl core::fmt::Display for GemmKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            GemmKind::Convolution => "conv",
            GemmKind::MatrixMultiply => "matmul",
        })
    }
}

/// Largest GEMM a [`GemmConfig`] describes, in MACs (2^38): the bound
/// keeps every cycle and byte count derived from a shape inside `u64`.
/// The costliest product the simulator forms is `macs × mac_cycles`, and
/// the longest MAC interval is uGEMM-H's at 24-bit data
/// (`2^24 + 1` cycles), so `2^38 · (2^24 + 1) < 2^63` holds on any array,
/// a 1×1 one included. The largest layer of the model zoo and the
/// MLPerf suite (1,849,688,064 MACs) sits ~150× below it. The bound also
/// caps the input feature map's element count, the one data volume a
/// strided convolution does not bound by its MAC count.
pub const MAX_MACS: u64 = 1 << 38;

/// A complete GEMM configuration: the nine parameters of Table II plus the
/// operation kind.
///
/// # Example
///
/// ```
/// use usystolic_gemm::GemmConfig;
///
/// // AlexNet Conv1: 227×227×3 input, 11×11 kernels, stride 4, 96 filters.
/// let conv1 = GemmConfig::conv(227, 227, 3, 11, 11, 4, 96).unwrap();
/// assert_eq!(conv1.output_height(), 55);
/// assert_eq!(conv1.macs(), 55 * 55 * 96 * 11 * 11 * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmConfig {
    kind: GemmKind,
    ih: usize,
    iw: usize,
    ic: usize,
    wh: usize,
    ww: usize,
    stride: usize,
    oc: usize,
}

impl GemmConfig {
    /// Creates a matrix-convolution configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::InvalidConfig`] if any dimension is zero, if
    /// the kernel does not fit in the input, or if the MAC count or the
    /// input element count exceeds [`MAX_MACS`].
    pub fn conv(
        ih: usize,
        iw: usize,
        ic: usize,
        wh: usize,
        ww: usize,
        stride: usize,
        oc: usize,
    ) -> Result<Self, GemmError> {
        let cfg = Self {
            kind: GemmKind::Convolution,
            ih,
            iw,
            ic,
            wh,
            ww,
            stride,
            oc,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Creates a matrix-multiplication configuration for
    /// `(m × k) · (k × n)`, following the Table-II mapping
    /// (`IH = m, IW = 1, IC = k, WH = WW = S = 1, OC = n`).
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::InvalidConfig`] if any dimension is zero or if
    /// the MAC count `m·k·n` exceeds [`MAX_MACS`].
    pub fn matmul(m: usize, k: usize, n: usize) -> Result<Self, GemmError> {
        let cfg = Self {
            kind: GemmKind::MatrixMultiply,
            ih: m,
            iw: 1,
            ic: k,
            wh: 1,
            ww: 1,
            stride: 1,
            oc: n,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), GemmError> {
        if self.ih == 0
            || self.iw == 0
            || self.ic == 0
            || self.wh == 0
            || self.ww == 0
            || self.stride == 0
            || self.oc == 0
        {
            return Err(GemmError::InvalidConfig(
                "all parameters must be non-zero".into(),
            ));
        }
        if self.wh > self.ih || self.ww > self.iw {
            return Err(GemmError::InvalidConfig(format!(
                "kernel {}x{} does not fit input {}x{}",
                self.wh, self.ww, self.ih, self.iw
            )));
        }
        // Checked products: an overflowing shape is as oversized as one
        // past the bound.
        let product = |dims: &[usize]| {
            dims.iter()
                .try_fold(1u64, |acc, &d| acc.checked_mul(u64::try_from(d).ok()?))
                .filter(|&p| p <= MAX_MACS)
        };
        let (oh, ow) = (self.output_height(), self.output_width());
        if product(&[oh, ow, self.oc, self.wh, self.ww, self.ic]).is_none() {
            return Err(GemmError::InvalidConfig(format!(
                "{oh}x{ow}x{} outputs of {}x{}x{} MACs each exceed the {MAX_MACS}-MAC limit",
                self.oc, self.wh, self.ww, self.ic
            )));
        }
        if product(&[self.ih, self.iw, self.ic]).is_none() {
            return Err(GemmError::InvalidConfig(format!(
                "input {}x{}x{} exceeds the {MAX_MACS}-element limit",
                self.ih, self.iw, self.ic
            )));
        }
        Ok(())
    }

    /// The operation kind.
    #[must_use]
    pub fn kind(&self) -> GemmKind {
        self.kind
    }

    /// Input feature map height `IH`.
    #[must_use]
    pub fn input_height(&self) -> usize {
        self.ih
    }

    /// Input feature map width `IW`.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.iw
    }

    /// Input channel count `IC`.
    #[must_use]
    pub fn input_channels(&self) -> usize {
        self.ic
    }

    /// Weight kernel height `WH`.
    #[must_use]
    pub fn weight_height(&self) -> usize {
        self.wh
    }

    /// Weight kernel width `WW`.
    #[must_use]
    pub fn weight_width(&self) -> usize {
        self.ww
    }

    /// Convolution stride `S`.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Output channel count `OC`.
    #[must_use]
    pub fn output_channels(&self) -> usize {
        self.oc
    }

    /// Output height `OH = (IH − WH) / S + 1` (Table II).
    #[must_use]
    pub fn output_height(&self) -> usize {
        (self.ih - self.wh) / self.stride + 1
    }

    /// Output width `OW = (IW − WW) / S + 1` (Table II).
    #[must_use]
    pub fn output_width(&self) -> usize {
        (self.iw - self.ww) / self.stride + 1
    }

    /// Reduction length per output element: `WH · WW · IC` — the number of
    /// systolic rows a fold occupies under weight-stationary mapping.
    #[must_use]
    pub fn reduction_len(&self) -> usize {
        self.wh * self.ww * self.ic
    }

    /// Number of output pixels per channel: `OH · OW` — the number of
    /// input column vectors streamed through the array.
    #[must_use]
    pub fn output_pixels(&self) -> usize {
        self.output_height() * self.output_width()
    }

    /// Total multiply-accumulate count of Algorithm 1.
    #[must_use]
    pub fn macs(&self) -> u64 {
        (self.output_pixels() * self.oc * self.reduction_len()) as u64
    }

    /// Input feature map element count.
    #[must_use]
    pub fn input_elems(&self) -> u64 {
        (self.ih * self.iw * self.ic) as u64
    }

    /// Weight element count.
    #[must_use]
    pub fn weight_elems(&self) -> u64 {
        (self.oc * self.wh * self.ww * self.ic) as u64
    }

    /// Output feature map element count.
    #[must_use]
    pub fn output_elems(&self) -> u64 {
        (self.output_pixels() * self.oc) as u64
    }

    /// The `(rows, cols)` of the lowered matrix-multiplication view:
    /// `rows = reduction_len` (mapped to array rows under weight-stationary
    /// dataflow), `cols = OC` (mapped to array columns).
    #[must_use]
    pub fn lowered_shape(&self) -> (usize, usize) {
        (self.reduction_len(), self.oc)
    }
}

impl core::fmt::Display for GemmConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} I({}x{}x{}) W({}x{}x{}→{}) S{} O({}x{}x{})",
            self.kind,
            self.ih,
            self.iw,
            self.ic,
            self.wh,
            self.ww,
            self.ic,
            self.oc,
            self.stride,
            self.output_height(),
            self.output_width(),
            self.oc
        )
    }
}

impl usystolic_obs::ToJson for GemmKind {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::Str(self.to_string())
    }
}

impl usystolic_obs::ToJson for GemmConfig {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("kind", self.kind().to_json()),
            ("input_height", self.input_height().to_json()),
            ("input_width", self.input_width().to_json()),
            ("input_channels", self.input_channels().to_json()),
            ("weight_height", self.weight_height().to_json()),
            ("weight_width", self.weight_width().to_json()),
            ("stride", self.stride().to_json()),
            ("output_channels", self.output_channels().to_json()),
            ("output_height", self.output_height().to_json()),
            ("output_width", self.output_width().to_json()),
            ("macs", self.macs().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_conv1_shape() {
        let c = GemmConfig::conv(227, 227, 3, 11, 11, 4, 96).unwrap();
        assert_eq!(c.output_height(), 55);
        assert_eq!(c.output_width(), 55);
        assert_eq!(c.reduction_len(), 363);
        assert_eq!(c.macs(), 105_415_200);
    }

    #[test]
    fn matmul_follows_table_ii_mapping() {
        let m = GemmConfig::matmul(4, 9216, 4096).unwrap();
        assert_eq!(m.kind(), GemmKind::MatrixMultiply);
        assert_eq!(m.input_height(), 4);
        assert_eq!(m.input_width(), 1);
        assert_eq!(m.weight_height(), 1);
        assert_eq!(m.weight_width(), 1);
        assert_eq!(m.stride(), 1);
        assert_eq!(m.output_height(), 4);
        assert_eq!(m.output_width(), 1);
        assert_eq!(m.output_channels(), 4096);
        assert_eq!(m.macs(), 4 * 9216 * 4096);
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(GemmConfig::conv(0, 4, 1, 1, 1, 1, 1).is_err());
        assert!(GemmConfig::matmul(1, 0, 1).is_err());
        assert!(GemmConfig::conv(4, 4, 1, 1, 1, 0, 1).is_err());
    }

    #[test]
    fn shapes_up_to_the_mac_limit_are_accepted() {
        let at = GemmConfig::matmul(1, 1 << 19, 1 << 19).expect("2^38 MACs is the limit");
        assert_eq!(at.macs(), MAX_MACS);
        let at = GemmConfig::conv(1 << 10, 1, 1 << 9, 1, 1, 1, 1 << 19).expect("at the limit");
        assert_eq!(at.macs(), MAX_MACS);
        // The bound leaves the costliest cycle product, uGEMM-H's 24-bit
        // MAC interval on a 1x1 array, inside u64.
        assert!(MAX_MACS.checked_mul((1 << 24) + 1).is_some());
    }

    #[test]
    fn shapes_past_the_mac_limit_are_rejected() {
        // 2^38 + 1 = 5 · 54,975,581,389.
        let past = GemmConfig::matmul(5, 54_975_581_389, 1);
        assert!(
            matches!(&past, Err(GemmError::InvalidConfig(m)) if m.contains("MAC limit")),
            "{past:?}"
        );
        let past = GemmConfig::conv(1 << 10, 1, (1 << 9) + 1, 1, 1, 1, 1 << 19);
        assert!(past.is_err(), "{past:?}");
        // Products that overflow u64 are rejected, not wrapped.
        assert!(GemmConfig::matmul(100_000_000, 100_000_000, 100_000_000).is_err());
        assert!(GemmConfig::matmul(usize::MAX, usize::MAX, 2).is_err());
        // A stride that skips inputs bounds the MACs, not the input.
        let sparse = GemmConfig::conv(1 << 20, 1 << 20, 1, 1, 1, 1 << 20, 1);
        assert!(
            matches!(&sparse, Err(GemmError::InvalidConfig(m)) if m.contains("element limit")),
            "{sparse:?}"
        );
    }

    #[test]
    fn oversized_kernel_rejected() {
        assert!(GemmConfig::conv(3, 3, 1, 5, 5, 1, 1).is_err());
    }

    #[test]
    fn data_volumes() {
        let c = GemmConfig::conv(8, 8, 2, 3, 3, 1, 4).unwrap();
        assert_eq!(c.input_elems(), 128);
        assert_eq!(c.weight_elems(), 4 * 9 * 2);
        assert_eq!(c.output_elems(), 36 * 4);
        assert_eq!(c.lowered_shape(), (18, 4));
    }

    #[test]
    fn stride_shrinks_output() {
        let c = GemmConfig::conv(7, 7, 1, 3, 3, 2, 1).unwrap();
        assert_eq!(c.output_height(), 3);
        assert_eq!(c.output_width(), 3);
    }

    #[test]
    fn display_contains_dims() {
        let c = GemmConfig::conv(8, 8, 2, 3, 3, 1, 4).unwrap();
        let s = c.to_string();
        assert!(s.contains("conv"));
        assert!(s.contains("8x8x2"));
    }
}
