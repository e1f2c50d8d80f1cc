//! Resilience characterization: accuracy vs bit-error rate for the
//! unary codings against the binary baseline (`BENCH_faults.json`).
//!
//! The experiment runs the deterministic fault-injection kernels of
//! `usystolic_faults` over a BER sweep on one seeded GEMM, computing
//! each variant's NRMSE against its own fault-free output. Because a
//! unary flip is always worth one LSB of the product while a binary
//! flip at register bit `i` is worth `2^i`, the unary curves must sit
//! strictly below the binary curve at every non-zero BER even though
//! the unary stream exposes `2^(N-1)` flip opportunities per window to
//! the register's `2(N-1)+1` — the claim `unary_graceful` pins.

use crate::table::Table;
use usystolic_faults::{
    faulty_binary_gemm, faulty_unary_gemm, DeviceFaults, FaultKernel, FaultReport, GemmShape,
};
use usystolic_obs::{JsonValue, ToJson};
use usystolic_unary::coding::Coding;
use usystolic_unary::rng::SplitMix64;
use usystolic_unary::stream_len;

/// The BER sweep. The floor of `3e-3` keeps the binary baseline's
/// expected flip count well above one even on the short bench shape, so
/// the strict unary-vs-binary comparison is meaningful at every point
/// (a lone flip that happens to land on a low register bit would
/// otherwise make the curves incomparable noise).
pub const BER_SWEEP: [f64; 6] = [0.0, 3e-3, 5e-3, 1e-2, 3e-2, 0.1];

/// One point of the accuracy-vs-BER curve.
#[derive(Debug, Clone, Copy)]
pub struct BerPoint {
    /// Transient bit-error rate injected at this point.
    pub ber: f64,
    /// Rate-coded unary NRMSE vs its fault-free output.
    pub rate_nrmse: f64,
    /// Temporal-coded unary NRMSE vs its fault-free output.
    pub temporal_nrmse: f64,
    /// Binary-baseline NRMSE vs its fault-free output.
    pub binary_nrmse: f64,
    /// Flips injected into the rate-coded unary streams.
    pub rate_flips: u64,
    /// Flips injected into the binary product registers.
    pub binary_flips: u64,
    /// Whether the bit-serial and word-packed unary kernels agreed bit
    /// for bit at this point (rate coding).
    pub kernels_agree: bool,
    /// Checksum of the rate-coded packed run (the determinism oracle).
    pub rate_checksum: u64,
}

impl ToJson for BerPoint {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("ber", self.ber.to_json()),
            ("rate_nrmse", self.rate_nrmse.to_json()),
            ("temporal_nrmse", self.temporal_nrmse.to_json()),
            ("binary_nrmse", self.binary_nrmse.to_json()),
            ("rate_flips", self.rate_flips.to_json()),
            ("binary_flips", self.binary_flips.to_json()),
            ("kernels_agree", JsonValue::Bool(self.kernels_agree)),
            ("rate_checksum", self.rate_checksum.to_json()),
        ])
    }
}

/// Result of the resilience characterization.
#[derive(Debug, Clone)]
pub struct FaultsBench {
    /// GEMM shape `(m, k, n)` of the characterized window.
    pub shape: (usize, usize, usize),
    /// Operand bitwidth.
    pub bitwidth: u32,
    /// Master fault seed.
    pub seed: u64,
    /// The accuracy-vs-BER curve.
    pub points: Vec<BerPoint>,
    /// Whether serial and packed unary kernels agreed at every point.
    pub kernels_agree: bool,
    /// Whether re-running the highest-BER point reproduced its checksum.
    pub deterministic: bool,
    /// Whether both unary codings sit strictly below the binary curve at
    /// every non-zero BER — the graceful-degradation claim.
    pub unary_graceful: bool,
}

/// NRMSE of `faulty` against `clean`, normalized by the clean RMS
/// (absolute RMSE when the clean output is all zero).
#[must_use]
pub fn nrmse(faulty: &FaultReport, clean: &FaultReport) -> f64 {
    let n = clean.output.len() as f64;
    let mse: f64 = faulty
        .output
        .iter()
        .zip(&clean.output)
        .map(|(&f, &c)| {
            let d = (f - c) as f64;
            d * d
        })
        .sum::<f64>()
        / n;
    let ref_ms: f64 = clean
        .output
        .iter()
        .map(|&c| (c as f64) * (c as f64))
        .sum::<f64>()
        / n;
    if ref_ms > 0.0 {
        (mse / ref_ms).sqrt()
    } else {
        mse.sqrt()
    }
}

/// Runs the characterization. `short` shrinks the GEMM window for CI
/// smoke runs; `seed` keys every fault site and the operand draw.
#[must_use]
pub fn run(short: bool, seed: u64) -> FaultsBench {
    let (m, k, n) = if short { (4, 8, 4) } else { (8, 16, 8) };
    let shape = GemmShape { m, k, n };
    let bitwidth = 8u32;
    let hi = (stream_len(bitwidth) - 1).cast_signed();
    let mut rng = SplitMix64::new(seed);
    let a: Vec<i64> = (0..m * k).map(|_| rng.range_i64(-hi, hi)).collect();
    let b: Vec<i64> = (0..k * n).map(|_| rng.range_i64(-hi, hi)).collect();

    let unary = |ber: f64, coding: Coding, kernel: FaultKernel| {
        let model = DeviceFaults::new(seed).with_ber(ber);
        faulty_unary_gemm(&a, &b, shape, bitwidth, coding, &model, kernel)
            .expect("valid bench fault model")
    };
    let binary = |ber: f64| {
        let model = DeviceFaults::new(seed).with_ber(ber);
        faulty_binary_gemm(&a, &b, shape, bitwidth, &model).expect("valid bench fault model")
    };

    let rate_clean = unary(0.0, Coding::Rate, FaultKernel::Packed);
    let temporal_clean = unary(0.0, Coding::Temporal, FaultKernel::Packed);
    let binary_clean = binary(0.0);

    let points: Vec<BerPoint> = BER_SWEEP
        .iter()
        .map(|&ber| {
            let rate_serial = unary(ber, Coding::Rate, FaultKernel::Serial);
            let rate_packed = unary(ber, Coding::Rate, FaultKernel::Packed);
            let temporal = unary(ber, Coding::Temporal, FaultKernel::Packed);
            let bin = binary(ber);
            BerPoint {
                ber,
                rate_nrmse: nrmse(&rate_packed, &rate_clean),
                temporal_nrmse: nrmse(&temporal, &temporal_clean),
                binary_nrmse: nrmse(&bin, &binary_clean),
                rate_flips: rate_packed.transient_flips,
                binary_flips: bin.transient_flips,
                kernels_agree: rate_serial == rate_packed,
                rate_checksum: rate_packed.checksum(),
            }
        })
        .collect();

    let top_ber = BER_SWEEP[BER_SWEEP.len() - 1];
    let replay = unary(top_ber, Coding::Rate, FaultKernel::Packed).checksum();
    let deterministic = points.last().is_some_and(|p| p.rate_checksum == replay);
    let kernels_agree = points.iter().all(|p| p.kernels_agree);
    let unary_graceful = points
        .iter()
        .filter(|p| p.ber > 0.0)
        .all(|p| p.rate_nrmse < p.binary_nrmse && p.temporal_nrmse < p.binary_nrmse);

    FaultsBench {
        shape: (m, k, n),
        bitwidth,
        seed,
        points,
        kernels_agree,
        deterministic,
        unary_graceful,
    }
}

impl FaultsBench {
    /// Whether every pinned claim held.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.kernels_agree && self.deterministic && self.unary_graceful
    }

    /// Renders the accuracy-vs-BER curve as an aligned text table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Accuracy vs BER: {}-bit {}x{}x{} GEMM, seed {}",
                self.bitwidth, self.shape.0, self.shape.1, self.shape.2, self.seed
            ),
            &[
                "BER",
                "unary rate",
                "unary temporal",
                "binary",
                "rate flips",
                "binary flips",
            ],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0e}", p.ber),
                format!("{:.4}", p.rate_nrmse),
                format!("{:.4}", p.temporal_nrmse),
                format!("{:.4}", p.binary_nrmse),
                p.rate_flips.to_string(),
                p.binary_flips.to_string(),
            ]);
        }
        t.push_row(vec![
            "graceful".into(),
            self.unary_graceful.to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        t
    }
}

impl ToJson for FaultsBench {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "shape",
                JsonValue::object(vec![
                    ("m", (self.shape.0 as u64).to_json()),
                    ("k", (self.shape.1 as u64).to_json()),
                    ("n", (self.shape.2 as u64).to_json()),
                ]),
            ),
            ("bitwidth", u64::from(self.bitwidth).to_json()),
            ("seed", self.seed.to_json()),
            (
                "points",
                JsonValue::Array(self.points.iter().map(ToJson::to_json).collect()),
            ),
            ("kernels_agree", JsonValue::Bool(self.kernels_agree)),
            ("deterministic", JsonValue::Bool(self.deterministic)),
            ("unary_graceful", JsonValue::Bool(self.unary_graceful)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_bench_pins_graceful_degradation() {
        let bench = run(true, 0x5eed_fa11);
        assert!(bench.kernels_agree, "serial and packed kernels diverged");
        assert!(bench.deterministic, "replay changed the checksum");
        assert!(
            bench.unary_graceful,
            "a unary curve crossed the binary curve: {:?}",
            bench.points
        );
        assert_eq!(bench.points.len(), BER_SWEEP.len());
        // The curve is anchored at zero and strictly positive afterwards.
        assert_eq!(bench.points[0].rate_nrmse, 0.0);
        assert_eq!(bench.points[0].binary_nrmse, 0.0);
        assert!(bench.points.iter().skip(1).all(|p| p.binary_nrmse > 0.0));
    }

    #[test]
    fn same_seed_reproduces_the_whole_report() {
        let x = run(true, 9);
        let y = run(true, 9);
        let (jx, jy) = (x.to_json().render(), y.to_json().render());
        assert_eq!(jx, jy);
        let z = run(true, 10);
        assert_ne!(jx, z.to_json().render());
    }

    #[test]
    fn json_and_table_carry_the_curve() {
        let bench = run(true, 1);
        let json = bench.to_json().render();
        assert!(json.contains("\"unary_graceful\""), "{json}");
        assert!(json.contains("\"points\""), "{json}");
        assert!(bench.table().rows().len() > BER_SWEEP.len());
    }
}
