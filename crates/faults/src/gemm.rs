//! Faulted unary GEMM: bit-serial and closed-form paths, bit-identical.
//!
//! Both kernels evaluate `C[m][n] = A[m][k] · B[k][n]` as `m·k·n` unary
//! MAC windows with the same RNG wiring as the fault-free
//! `usystolic_core` kernels (the IFM comparator on core's own
//! [`IfmSource`], weight C-BSG on Sobol dimension 0), then inject the
//! [`DeviceFaults`] model:
//!
//! * **transient flips** — the per-window XOR mask of [`crate::mask`] is
//!   applied to the product stream. The serial kernel XORs cycle by
//!   cycle; the closed-form kernel starts from the fault-free prefix
//!   count and adjusts per flip site using the identity
//!   `product[j] = enable[j] && w_seq[rank(j)]`, where `rank(j)` counts
//!   the enabled cycles before `j` (the C-BSG advanced once per enabled
//!   cycle). That is exactly the bit the serial C-BSG emits at cycle
//!   `j`, and `rank(j)` is itself a prefix count of the IFM source.
//! * **stuck-at PEs** — the product wire of an afflicted window is
//!   forced to the stuck value on every cycle (flips still invert it:
//!   a transient upset rides on top of the hard fault).
//! * **memory corruption** — operand magnitudes are XOR-corrupted once,
//!   before streaming, via [`usystolic_sim::WordCorruption`].
//!
//! Because masks, stuck lookups and corruption are pure functions of the
//! fault model, the two kernels return identical [`FaultReport`]s — the
//! module tests pin it and `tests/faults.rs` re-pins it end to end.

use crate::config::{DeviceFaults, FaultError};
use crate::mask::{window_mask, WindowMask};
use usystolic_core::{IfmPrefix, IfmSource};
use usystolic_obs::{JsonValue, ToJson};
use usystolic_sim::{Variable, WordCorruption};
use usystolic_unary::bsg::ConditionalBsg;
use usystolic_unary::coding::Coding;
use usystolic_unary::packed::{sequence, sobol_prefix_count};
use usystolic_unary::rng::SobolSource;
use usystolic_unary::{stream_len, SignMagnitude, MAX_BITWIDTH};

/// Which kernel implementation evaluates the faulted MAC windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKernel {
    /// Cycle-by-cycle reference: one comparator step per multiply cycle.
    Serial,
    /// Closed-form prefix counts plus per-flip adjustment.
    ClosedForm,
}

impl core::fmt::Display for FaultKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FaultKernel::Serial => "serial",
            FaultKernel::ClosedForm => "closed-form",
        })
    }
}

/// GEMM problem shape: `C[m][n] = A[m][k] · B[k][n]`, row-major slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Output rows.
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmShape {
    /// The window index of MAC `(mi, ki, ni)` — the key every fault mask
    /// is derived from, shared by all kernels and the binary baseline.
    #[must_use]
    pub fn window(&self, mi: usize, ki: usize, ni: usize) -> u64 {
        ((mi * self.k + ki) * self.n + ni) as u64
    }
}

/// One injected transient flip, identified by its window and cycle.
///
/// Site lists are the determinism oracle's finest grain: two runs (or
/// two kernels) under the same seed produce *equal* site lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// The MAC window ([`GemmShape::window`]).
    pub window: u64,
    /// The flipped cycle within the window (bit position for the binary
    /// baseline).
    pub cycle: u64,
}

impl ToJson for FaultSite {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("window", self.window.to_json()),
            ("cycle", self.cycle.to_json()),
        ])
    }
}

/// Cap on individually recorded [`FaultSite`]s per report; counts keep
/// accumulating past it.
pub const MAX_RECORDED_SITES: usize = 64;

/// Outcome of one faulted GEMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The accumulated outputs, row-major `m × n`. Unary kernels count
    /// product bits (the exact value scaled by the stream length); the
    /// binary baseline accumulates full products.
    pub output: Vec<i64>,
    /// Transient flips injected across all windows.
    pub transient_flips: u64,
    /// Windows evaluated by a stuck PE.
    pub stuck_windows: u64,
    /// Cycles (or register bits, for the binary baseline) forced by
    /// stuck PEs.
    pub stuck_cycles: u64,
    /// Operand words corrupted in memory before streaming.
    pub corrupted_words: u64,
    /// The first [`MAX_RECORDED_SITES`] transient-flip sites, in
    /// evaluation order.
    pub sites: Vec<FaultSite>,
}

impl FaultReport {
    /// FNV-1a digest over outputs and fault counters — one number whose
    /// equality across runs/kernels/worker counts is the cheap
    /// determinism check used by the CLIs and CI.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for &o in &self.output {
            eat(o.cast_unsigned());
        }
        eat(self.transient_flips);
        eat(self.stuck_windows);
        eat(self.stuck_cycles);
        eat(self.corrupted_words);
        for s in &self.sites {
            eat(s.window);
            eat(s.cycle);
        }
        h
    }
}

impl ToJson for FaultReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "output",
                JsonValue::Array(self.output.iter().map(|&v| JsonValue::Int(v)).collect()),
            ),
            ("transient_flips", self.transient_flips.to_json()),
            ("stuck_windows", self.stuck_windows.to_json()),
            ("stuck_cycles", self.stuck_cycles.to_json()),
            ("corrupted_words", self.corrupted_words.to_json()),
            ("sites", self.sites.to_json()),
            ("checksum", self.checksum().to_json()),
        ])
    }
}

/// Validates bitwidth and operand lengths against the shape.
pub(crate) fn check_inputs(
    a_len: usize,
    b_len: usize,
    shape: GemmShape,
    bitwidth: u32,
) -> Result<(), FaultError> {
    if !(2..=MAX_BITWIDTH).contains(&bitwidth) {
        return Err(FaultError::UnsupportedBitwidth(bitwidth));
    }
    if a_len != shape.m * shape.k {
        return Err(FaultError::ShapeMismatch {
            operand: "A",
            expected: shape.m * shape.k,
            got: a_len,
        });
    }
    if b_len != shape.k * shape.n {
        return Err(FaultError::ShapeMismatch {
            operand: "B",
            expected: shape.k * shape.n,
            got: b_len,
        });
    }
    Ok(())
}

/// Converts operands to sign-magnitude, applying memory corruption to
/// the stored magnitudes (random-access, index-keyed, so the count and
/// the sites never depend on evaluation order). Returns the converted
/// slice and the number of corrupted words.
pub(crate) fn corrupted_operands(
    values: &[i64],
    region: Variable,
    memory: Option<&WordCorruption>,
    bitwidth: u32,
) -> (Vec<SignMagnitude>, u64) {
    let max = stream_len(bitwidth);
    let mut hits = 0u64;
    let sm = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let mut s = SignMagnitude::from_signed(v, bitwidth);
            if let Some(c) = memory {
                let mask = c.mask_for(region, i as u64);
                if mask != 0 {
                    hits += 1;
                    s.magnitude = (s.magnitude ^ mask).min(max);
                }
            }
            s
        })
        .collect();
    (sm, hits)
}

/// Folds one window's fault bookkeeping into the report.
pub(crate) fn record_window(
    report: &mut FaultReport,
    window: u64,
    mask: &WindowMask,
    stuck: Option<bool>,
    forced_cycles: usize,
) {
    report.transient_flips += mask.flips();
    if report.sites.len() < MAX_RECORDED_SITES && mask.flips() > 0 {
        for cycle in mask.cycles() {
            if report.sites.len() == MAX_RECORDED_SITES {
                break;
            }
            report.sites.push(FaultSite { window, cycle });
        }
    }
    if stuck.is_some() {
        report.stuck_windows += 1;
        report.stuck_cycles += forced_cycles as u64;
    }
}

/// Runs a faulted unary GEMM through the chosen kernel.
///
/// `a` is `m × k` and `b` is `k × n`, both row-major with `bitwidth`-bit
/// signed entries (clamped to sign-magnitude range). The output counts
/// signed product bits per entry: a fault-free window contributes
/// approximately `A[mi][ki] · B[ki][ni] / 2^(bitwidth-1)`.
///
/// Same `faults` ⇒ same [`FaultReport`] from both [`FaultKernel`]s, bit
/// for bit.
///
/// # Errors
///
/// Returns the [`DeviceFaults::validate`] errors, plus
/// [`FaultError::UnsupportedBitwidth`] and [`FaultError::ShapeMismatch`]
/// when the operands disagree with `shape`.
pub fn faulty_unary_gemm(
    a: &[i64],
    b: &[i64],
    shape: GemmShape,
    bitwidth: u32,
    coding: Coding,
    faults: &DeviceFaults,
    kernel: FaultKernel,
) -> Result<FaultReport, FaultError> {
    faults.validate()?;
    check_inputs(a.len(), b.len(), shape, bitwidth)?;
    let len = stream_len(bitwidth) as usize;
    let wiring = Wiring::new(coding, bitwidth);
    let (a_sm, hits_a) = corrupted_operands(a, Variable::Ifm, faults.memory.as_ref(), bitwidth);
    let (b_sm, hits_b) = corrupted_operands(b, Variable::Weight, faults.memory.as_ref(), bitwidth);
    let mut report = FaultReport {
        output: Vec::with_capacity(shape.m * shape.n),
        transient_flips: 0,
        stuck_windows: 0,
        stuck_cycles: 0,
        corrupted_words: hits_a + hits_b,
        sites: Vec::new(),
    };
    for mi in 0..shape.m {
        for ni in 0..shape.n {
            let mut acc = 0i64;
            for ki in 0..shape.k {
                let window = shape.window(mi, ki, ni);
                let x = a_sm[mi * shape.k + ki];
                let w = b_sm[ki * shape.n + ni];
                let stuck = faults.stuck_at(ki, ni);
                let mask = window_mask(faults.seed, window, len, faults.ber);
                record_window(&mut report, window, &mask, stuck, len);
                let ones = match kernel {
                    FaultKernel::Serial => wiring.serial(x, w, stuck, &mask),
                    FaultKernel::ClosedForm => wiring.closed_form(x, w, stuck, &mask),
                };
                acc += x.product_increment(w) * ones.cast_signed();
            }
            report.output.push(acc);
        }
    }
    Ok(report)
}

/// The fault-free wiring of `usystolic_core`'s windows: the IFM enable
/// comparator on core's [`IfmSource`] for the coding, and the weight
/// C-BSG on Sobol dimension 0. Sources reset per window, so one drained
/// sequence of each serves every window.
struct Wiring {
    /// The IFM source (its closed-form enable count gives `rank`).
    ifm: IfmSource,
    /// The IFM source's prefix over a whole window: the enabled cycles of
    /// a fault-free window on any IFM magnitude.
    window: IfmPrefix,
    /// The weight RNG.
    w_rng: SobolSource,
    /// The IFM source's window sequence.
    ifm_seq: Vec<u64>,
    /// The weight RNG's window sequence.
    w_seq: Vec<u64>,
}

impl Wiring {
    fn new(coding: Coding, bitwidth: u32) -> Self {
        let len = stream_len(bitwidth);
        let ifm = IfmSource::for_coding(coding, bitwidth);
        let w_rng = SobolSource::dimension(0, bitwidth - 1);
        let ifm_seq = sequence(&mut ifm.clone(), len);
        let w_seq = sequence(&mut w_rng.clone(), len);
        Self {
            window: ifm.prefix(len),
            ifm,
            w_rng,
            ifm_seq,
            w_seq,
        }
    }

    /// Enabled cycles among the first `cycles` of a window on an IFM of
    /// magnitude `magnitude`: a prefix count of the IFM source.
    fn rank(&self, cycles: u64, magnitude: u64) -> u64 {
        self.ifm.prefix(cycles).enable_count(magnitude)
    }

    /// Bit-serial evaluation of one faulted MAC window.
    fn serial(
        &self,
        x: SignMagnitude,
        w: SignMagnitude,
        stuck: Option<bool>,
        mask: &WindowMask,
    ) -> u64 {
        let mut ones = 0u64;
        match stuck {
            Some(v) => {
                for j in 0..self.ifm_seq.len() {
                    ones += u64::from(v ^ mask.flip(j));
                }
            }
            None => {
                let mut cbsg = ConditionalBsg::new(w.magnitude, self.w_rng.clone());
                for (j, &s) in self.ifm_seq.iter().enumerate() {
                    let bit = cbsg.step(s < x.magnitude) ^ mask.flip(j);
                    ones += u64::from(bit);
                }
            }
        }
        ones
    }

    /// Closed-form evaluation of one faulted MAC window: the fault-free
    /// prefix count, adjusted per flip site by the product bit the serial
    /// C-BSG emits there.
    fn closed_form(
        &self,
        x: SignMagnitude,
        w: SignMagnitude,
        stuck: Option<bool>,
        mask: &WindowMask,
    ) -> u64 {
        let len = self.ifm_seq.len() as u64;
        if let Some(v) = stuck {
            // Forced product wire: flips invert the constant.
            return if v { len - mask.flips() } else { mask.flips() };
        }
        let enabled = self.window.enable_count(x.magnitude);
        let mut ones = sobol_prefix_count(self.w_rng.directions(), enabled, w.magnitude);
        for cycle in mask.cycles() {
            // product[j] = enable[j] && w_seq[rank(j)]: the C-BSG has
            // advanced once per prior enabled cycle.
            let product = self.ifm_seq[cycle as usize] < x.magnitude
                && self.w_seq[self.rank(cycle, x.magnitude) as usize] < w.magnitude;
            if product {
                ones -= 1;
            } else {
                ones += 1;
            }
        }
        ones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StuckAt;
    use usystolic_unary::rng::SplitMix64;

    fn matrix(rng: &mut SplitMix64, len: usize, hi: i64) -> Vec<i64> {
        (0..len).map(|_| rng.range_i64(-hi, hi)).collect()
    }

    fn run(
        faults: &DeviceFaults,
        coding: Coding,
        kernel: FaultKernel,
        bitwidth: u32,
    ) -> FaultReport {
        let shape = GemmShape { m: 3, k: 4, n: 2 };
        let mut rng = SplitMix64::new(99);
        let hi = (usystolic_unary::stream_len(bitwidth) - 1) as i64;
        let a = matrix(&mut rng, shape.m * shape.k, hi);
        let b = matrix(&mut rng, shape.k * shape.n, hi);
        faulty_unary_gemm(&a, &b, shape, bitwidth, coding, faults, kernel).expect("valid gemm")
    }

    #[test]
    fn serial_and_packed_agree_bit_for_bit() {
        for coding in [Coding::Rate, Coding::Temporal] {
            for seed in [1u64, 7, 42] {
                for ber in [0.0, 0.004, 0.08] {
                    let faults = DeviceFaults::new(seed)
                        .with_ber(ber)
                        .with_grid(4, 2)
                        .with_stuck(StuckAt {
                            row: 2,
                            col: 1,
                            value: true,
                        })
                        .with_memory(usystolic_sim::WordCorruption::new(seed, 0.1, 5));
                    let serial = run(&faults, coding, FaultKernel::Serial, 7);
                    let packed = run(&faults, coding, FaultKernel::ClosedForm, 7);
                    assert_eq!(serial, packed, "{coding} seed {seed} ber {ber}");
                    assert_eq!(serial.checksum(), packed.checksum());
                }
            }
        }
    }

    #[test]
    fn quiet_faults_reproduce_the_fault_free_kernel() {
        let quiet = DeviceFaults::new(5);
        let report = run(&quiet, Coding::Rate, FaultKernel::ClosedForm, 8);
        assert_eq!(report.transient_flips, 0);
        assert_eq!(report.stuck_windows, 0);
        assert_eq!(report.corrupted_words, 0);
        assert!(report.sites.is_empty());
        // The unary output approximates the exact product sum scaled by
        // the stream length; with Sobol sources the per-window error is
        // logarithmic in the stream length.
        let shape = GemmShape { m: 3, k: 4, n: 2 };
        let mut rng = SplitMix64::new(99);
        let a = matrix(&mut rng, shape.m * shape.k, 127);
        let b = matrix(&mut rng, shape.k * shape.n, 127);
        for mi in 0..shape.m {
            for ni in 0..shape.n {
                let exact: i64 = (0..shape.k)
                    .map(|ki| a[mi * shape.k + ki] * b[ki * shape.n + ni])
                    .sum();
                let got = report.output[mi * shape.n + ni] as f64;
                let want = exact as f64 / 128.0;
                assert!(
                    (got - want).abs() <= shape.k as f64 * 9.0,
                    "C[{mi}][{ni}] = {got}, exact/128 = {want}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_report_different_seed_different_flips() {
        let f1 = DeviceFaults::new(11).with_ber(0.01);
        let a = run(&f1, Coding::Rate, FaultKernel::ClosedForm, 8);
        let b = run(&f1, Coding::Rate, FaultKernel::ClosedForm, 8);
        assert_eq!(a, b);
        let f2 = DeviceFaults::new(12).with_ber(0.01);
        let c = run(&f2, Coding::Rate, FaultKernel::ClosedForm, 8);
        assert_ne!(a.sites, c.sites);
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn stuck_pe_accounting_matches_the_grid_mapping() {
        // Direct grid (rows = k, cols = n): PE (1, 0) owns exactly the
        // windows with ki == 1, ni == 0 — one per output row.
        let shape = GemmShape { m: 3, k: 4, n: 2 };
        let faults = DeviceFaults::new(0).with_grid(4, 2).with_stuck(StuckAt {
            row: 1,
            col: 0,
            value: true,
        });
        let a = vec![0i64; shape.m * shape.k];
        let b = vec![0i64; shape.k * shape.n];
        let r = faulty_unary_gemm(
            &a,
            &b,
            shape,
            8,
            Coding::Rate,
            &faults,
            FaultKernel::ClosedForm,
        )
        .expect("valid gemm");
        assert_eq!(r.stuck_windows, shape.m as u64);
        assert_eq!(r.stuck_cycles, shape.m as u64 * 128);
        // Stuck-at-1 forces 128 ones per afflicted window even with
        // all-zero operands; the sign of 0·0 is positive.
        for mi in 0..shape.m {
            assert_eq!(r.output[mi * shape.n], 128);
            assert_eq!(r.output[mi * shape.n + 1], 0);
        }
    }

    #[test]
    fn memory_corruption_is_counted_and_changes_output() {
        let shape = GemmShape { m: 2, k: 2, n: 2 };
        let a = vec![40i64, -30, 20, 10];
        let b = vec![5i64, -6, 7, 8];
        let clean = faulty_unary_gemm(
            &a,
            &b,
            shape,
            8,
            Coding::Rate,
            &DeviceFaults::new(1),
            FaultKernel::ClosedForm,
        )
        .expect("valid gemm");
        let corrupted = faulty_unary_gemm(
            &a,
            &b,
            shape,
            8,
            Coding::Rate,
            &DeviceFaults::new(1).with_memory(usystolic_sim::WordCorruption::new(1, 1.0, 7)),
            FaultKernel::ClosedForm,
        )
        .expect("valid gemm");
        // word_ber = 1 corrupts every stored operand word.
        assert_eq!(corrupted.corrupted_words, (a.len() + b.len()) as u64);
        assert_ne!(clean.output, corrupted.output);
    }

    #[test]
    fn rejects_bad_inputs() {
        let shape = GemmShape { m: 2, k: 2, n: 2 };
        let quiet = DeviceFaults::new(0);
        let short = faulty_unary_gemm(
            &[1, 2, 3],
            &[1, 2, 3, 4],
            shape,
            8,
            Coding::Rate,
            &quiet,
            FaultKernel::Serial,
        );
        assert!(matches!(
            short,
            Err(FaultError::ShapeMismatch { operand: "A", .. })
        ));
        let bad_width = faulty_unary_gemm(
            &[1, 2, 3, 4],
            &[1, 2, 3, 4],
            shape,
            1,
            Coding::Rate,
            &quiet,
            FaultKernel::Serial,
        );
        assert!(matches!(bad_width, Err(FaultError::UnsupportedBitwidth(1))));
        let bad_ber = faulty_unary_gemm(
            &[1, 2, 3, 4],
            &[1, 2, 3, 4],
            shape,
            8,
            Coding::Rate,
            &DeviceFaults::new(0).with_ber(-0.5),
            FaultKernel::Serial,
        );
        assert!(matches!(bad_ber, Err(FaultError::InvalidBer(_))));
    }

    #[test]
    fn site_recording_caps_but_counting_continues() {
        let faults = DeviceFaults::new(2).with_ber(0.5);
        let r = run(&faults, Coding::Rate, FaultKernel::ClosedForm, 8);
        assert_eq!(r.sites.len(), MAX_RECORDED_SITES);
        assert!(r.transient_flips > MAX_RECORDED_SITES as u64);
    }

    #[test]
    fn report_json_carries_counters_and_checksum() {
        let faults = DeviceFaults::new(3).with_ber(0.02);
        let r = run(&faults, Coding::Temporal, FaultKernel::Serial, 7);
        let j = r.to_json();
        assert_eq!(
            j.get("transient_flips"),
            Some(&JsonValue::UInt(r.transient_flips))
        );
        assert_eq!(j.get("checksum"), Some(&JsonValue::UInt(r.checksum())));
        assert!(j.get("output").is_some() && j.get("sites").is_some());
    }
}
