//! Deterministic number sources for bitstream generation.
//!
//! A comparator-based bitstream generator (Fig. 3 of the paper) compares the
//! stationary binary source value `SRC` against a fresh number every cycle:
//!
//! * **rate coding** draws from a pseudo-random generator — the paper uses
//!   the low-discrepancy **Sobol** generator \[42\], here [`SobolSource`], with
//!   a maximal-length **LFSR** ([`LfsrSource`]) as the classic alternative;
//! * **temporal coding** draws from a plain **counter** ([`CounterSource`]),
//!   yielding deterministic, contiguous bit patterns.
//!
//! All sources emit `width`-bit numbers and are periodic with period
//! `2^width` (the LFSR has period `2^width - 1`; it never emits the
//! all-zero state and is wrapped to still behave sensibly as a comparator
//! input).

/// A deterministic source of `width`-bit numbers driving a comparator-based
/// bitstream generator.
///
/// Implementors are cycle-level hardware models: each [`next`](Self::next)
/// call corresponds to one clock edge on the RNG/CNT block of Fig. 3.
pub trait NumberSource {
    /// Advances the source by one cycle and returns the new number in
    /// `0..2^width()`.
    fn next(&mut self) -> u64;

    /// Bit width of the emitted numbers.
    fn width(&self) -> u32;

    /// Restores the source to its initial state.
    fn reset(&mut self);

    /// Period after which the emitted sequence repeats.
    fn period(&self) -> u64 {
        1u64 << self.width()
    }
}

impl<S: NumberSource + ?Sized> NumberSource for Box<S> {
    fn next(&mut self) -> u64 {
        (**self).next()
    }
    fn width(&self) -> u32 {
        (**self).width()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn period(&self) -> u64 {
        (**self).period()
    }
}

/// Direction-number seeds for the first 16 Sobol dimensions
/// (degree `s`, polynomial coefficient mask `a`, initial odd values `m`),
/// after Joe & Kuo. Dimension 0 is the van der Corput sequence in base 2
/// (handled specially).
const SOBOL_SEEDS: &[(u32, u64, &[u64])] = &[
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
    (5, 4, &[1, 1, 5, 5, 5]),
    (5, 7, &[1, 1, 7, 11, 19]),
    (5, 11, &[1, 1, 5, 1, 1]),
    (5, 13, &[1, 1, 1, 3, 11]),
    (5, 14, &[1, 3, 5, 5, 31]),
    (6, 1, &[1, 3, 3, 9, 7, 49]),
    (6, 13, &[1, 1, 1, 15, 21, 21]),
    (6, 16, &[1, 3, 1, 13, 27, 49]),
];

/// Number of distinct Sobol dimensions available from
/// [`SobolSource::dimension`].
pub const SOBOL_DIMENSIONS: usize = SOBOL_SEEDS.len() + 1;

/// Gray-code Sobol low-discrepancy sequence generator.
///
/// This is the paper's high-quality RNG \[42\] (Section III-B configures the
/// RNG in uSystolic to be Sobol). Two properties matter for unary
/// computing:
///
/// 1. Over a full period of `2^width` outputs every value in
///    `0..2^width` appears **exactly once** (the generator matrix is
///    invertible), so a comparator against threshold `T` emits exactly `T`
///    ones — rate coding is *exact* over a full stream.
/// 2. Any prefix of `k` outputs contains `⌊k·T/2^width⌋` or `⌈k·T/2^width⌉`
///    values below `T` for dimension 0 (low discrepancy), which is what
///    makes early termination accurate.
///
/// # Example
///
/// ```
/// use usystolic_unary::rng::{NumberSource, SobolSource};
///
/// let mut s = SobolSource::dimension(0, 4);
/// let first: Vec<u64> = (0..8).map(|_| s.next()).collect();
/// assert_eq!(first, [0, 8, 12, 4, 6, 14, 10, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct SobolSource {
    direction: Vec<u64>,
    width: u32,
    state: u64,
    index: u64,
}

impl SobolSource {
    /// Creates the Sobol generator for `dimension` (0-based, up to
    /// [`SOBOL_DIMENSIONS`]) emitting `width`-bit numbers.
    ///
    /// Dimension 0 is the base-2 van der Corput (bit-reversal) sequence;
    /// higher dimensions use Joe–Kuo direction numbers. Dimensions wrap
    /// modulo [`SOBOL_DIMENSIONS`] so that callers may index freely (e.g.
    /// one dimension per array row).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 63.
    #[must_use]
    pub fn dimension(dimension: usize, width: u32) -> Self {
        assert!(width > 0 && width < 64, "unsupported Sobol width {width}");
        let dimension = dimension % SOBOL_DIMENSIONS;
        let direction = if dimension == 0 {
            // v_j = 2^(width - j): plain bit-reversed counter.
            (1..=width as u64)
                .map(|j| 1u64 << (width as u64 - j))
                .collect()
        } else {
            let (s, a, m_init) = SOBOL_SEEDS[dimension - 1];
            let mut m: Vec<u64> = m_init.to_vec();
            for j in s as usize..width as usize {
                // Recurrence: m_j = 2 a_1 m_{j-1} ^ 4 a_2 m_{j-2} ^ ...
                //             ^ 2^s m_{j-s} ^ m_{j-s}
                let mut val = m[j - s as usize] ^ (m[j - s as usize] << s);
                for k in 1..s as usize {
                    let a_k = (a >> (s as usize - 1 - k)) & 1;
                    if a_k == 1 {
                        val ^= m[j - k] << k;
                    }
                }
                m.push(val);
            }
            (0..width as usize)
                .map(|j| m[j] << (width as usize - j - 1))
                .collect()
        };
        Self {
            direction,
            width,
            state: 0,
            index: 0,
        }
    }

    /// The direction numbers `v_0, …, v_(width−1)`: output `i` is the XOR
    /// of the `v_b` selected by the set bits of `gray(i) = i ^ (i >> 1)`,
    /// and `v_b = m_b · 2^(width−1−b)` with `m_b` odd. This is what
    /// [`crate::packed::sobol_prefix_count`] counts over.
    #[must_use]
    pub fn directions(&self) -> &[u64] {
        &self.direction
    }

    /// The sequence index of the *next* output (0 before the first call to
    /// `next`).
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }
}

impl NumberSource for SobolSource {
    fn next(&mut self) -> u64 {
        // Gray-code construction: output for index i is the running XOR of
        // direction numbers selected by the trailing-zero count. The first
        // output (index 0) is 0.
        let out = self.state;
        let c = self.index.trailing_ones() as usize % self.direction.len();
        self.state ^= self.direction[c];
        self.index = self.index.wrapping_add(1);
        out
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn reset(&mut self) {
        self.state = 0;
        self.index = 0;
    }
}

/// Fibonacci maximal-length LFSR emitting `width`-bit numbers.
///
/// A cheap hardware RNG often used in stochastic-computing literature as
/// the low-cost (but higher-variance) alternative to Sobol. The register
/// never reaches the all-zero state, so its period is `2^width - 1`.
#[derive(Debug, Clone)]
pub struct LfsrSource {
    state: u64,
    seed: u64,
    width: u32,
    taps: u64,
}

/// Maximal-length feedback tap masks for LFSR widths 2..=24 (taps are the
/// XOR'd bit positions of a Fibonacci LFSR, LSB = stage 1).
const LFSR_TAPS: [u64; 23] = [
    0b11,                            // 2
    0b110,                           // 3
    0b1100,                          // 4
    0b1_0100,                        // 5
    0b11_0000,                       // 6
    0b110_0000,                      // 7
    0b1011_1000,                     // 8
    0b1_0001_0000,                   // 9
    0b10_0100_0000,                  // 10
    0b101_0000_0000,                 // 11
    0b1110_0000_1000,                // 12 (x^12+x^11+x^10+x^4+1)
    0b1_1100_1000_0000,              // 13 (x^13+x^12+x^11+x^8+1)
    0b11_1000_0000_0010,             // 14 (x^14+x^13+x^12+x^2+1)
    0b110_0000_0000_0000,            // 15
    0b1101_0000_0000_1000,           // 16 (x^16+x^15+x^13+x^4+1)
    0b1_0010_0000_0000_0000,         // 17
    0b10_0000_0100_0000_0000,        // 18
    0b111_0010_0000_0000_0000,       // 19 — x^19+x^18+x^17+x^14+1
    0b1001_0000_0000_0000_0000,      // 20
    0b1_0100_0000_0000_0000_0000,    // 21
    0b11_0000_0000_0000_0000_0000,   // 22
    0b100_0010_0000_0000_0000_0000,  // 23 — x^23+x^18+1
    0b1110_0000_1000_0000_0000_0000, // 24 — x^24+x^23+x^22+x^17+1
];

impl LfsrSource {
    /// Creates a maximal-length LFSR of `width` bits seeded with `seed`
    /// (forced non-zero internally).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=24`.
    #[must_use]
    pub fn new(width: u32, seed: u64) -> Self {
        assert!((2..=24).contains(&width), "unsupported LFSR width {width}");
        let mask = (1u64 << width) - 1;
        let seed = if seed & mask == 0 { 1 } else { seed & mask };
        Self {
            state: seed,
            seed,
            width,
            taps: LFSR_TAPS[(width - 2) as usize],
        }
    }
}

impl NumberSource for LfsrSource {
    fn next(&mut self) -> u64 {
        let out = self.state;
        let feedback = (self.state & self.taps).count_ones() as u64 & 1;
        self.state = ((self.state << 1) | feedback) & ((1u64 << self.width) - 1);
        out
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn reset(&mut self) {
        self.state = self.seed;
    }

    fn period(&self) -> u64 {
        (1u64 << self.width) - 1
    }
}

/// Plain wrapping up-counter: the CNT block of temporal coding (Fig. 3b).
///
/// Comparing a value `T` against the counter yields a stream whose first
/// `T` bits are ones — deterministic temporal coding.
#[derive(Debug, Clone, Default)]
pub struct CounterSource {
    width: u32,
    state: u64,
    start: u64,
}

impl CounterSource {
    /// Creates a `width`-bit counter starting from 0.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 63.
    #[must_use]
    pub fn new(width: u32) -> Self {
        Self::starting_at(width, 0)
    }

    /// Creates a `width`-bit counter with an arbitrary phase (used to model
    /// staggered rows).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 63.
    #[must_use]
    pub fn starting_at(width: u32, start: u64) -> Self {
        assert!(width > 0 && width < 64, "unsupported counter width {width}");
        let start = start & ((1u64 << width) - 1);
        Self {
            width,
            state: start,
            start,
        }
    }
}

impl NumberSource for CounterSource {
    fn next(&mut self) -> u64 {
        let out = self.state;
        self.state = (self.state + 1) & ((1u64 << self.width) - 1);
        out
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn reset(&mut self) {
        self.state = self.start;
    }
}

/// Deterministic 64-bit software PRNG (SplitMix64, Steele et al.).
///
/// This is **not** a hardware number source like [`SobolSource`] or
/// [`LfsrSource`] — it is the workspace's replacement for the external
/// `rand` crate wherever experiments need reproducible test tensors,
/// weight initialisation or shuffles. One multiply-xorshift round per
/// output, full 64-bit state, and a fixed seed gives a fixed sequence on
/// every platform.
///
/// # Example
///
/// ```
/// use usystolic_unary::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits of the next output).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        // Rejection sampling over the largest multiple of n.
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// A uniform boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_period(src: &mut dyn NumberSource) -> Vec<u64> {
        (0..src.period()).map(|_| src.next()).collect()
    }

    #[test]
    fn sobol_dim0_is_bit_reversal() {
        let mut s = SobolSource::dimension(0, 3);
        let seq = full_period(&mut s);
        assert_eq!(seq, [0, 4, 6, 2, 3, 7, 5, 1]);
    }

    #[test]
    fn sobol_every_dimension_is_a_permutation() {
        for dim in 0..SOBOL_DIMENSIONS {
            let mut s = SobolSource::dimension(dim, 8);
            let mut seq = full_period(&mut s);
            seq.sort_unstable();
            let expect: Vec<u64> = (0..256).collect();
            assert_eq!(seq, expect, "dimension {dim} is not a permutation");
        }
    }

    #[test]
    fn sobol_prefix_balance_dim0() {
        // Low-discrepancy property that makes early termination work:
        // among the first k outputs, the count below T is within 1+eps of
        // k*T/2^w.
        let w = 8;
        let t = 100u64;
        let mut s = SobolSource::dimension(0, w);
        let mut below = 0u64;
        for k in 1..=256u64 {
            if s.next() < t {
                below += 1;
            }
            let ideal = (k * t) as f64 / 256.0;
            // Star-discrepancy bound for radical-inverse sequences: the
            // prefix count deviates by at most ~log2(k) + 1.
            let bound = (k as f64).log2() + 1.0;
            assert!(
                (below as f64 - ideal).abs() <= bound,
                "prefix {k}: {below} vs ideal {ideal} (bound {bound})"
            );
        }
    }

    #[test]
    fn sobol_reset_restores_sequence() {
        let mut s = SobolSource::dimension(3, 6);
        let a: Vec<u64> = (0..10).map(|_| s.next()).collect();
        s.reset();
        let b: Vec<u64> = (0..10).map(|_| s.next()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sobol_dimensions_differ() {
        let mut a = SobolSource::dimension(0, 8);
        let mut b = SobolSource::dimension(1, 8);
        let sa: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn lfsr_has_maximal_period() {
        for width in 2..=16u32 {
            let mut l = LfsrSource::new(width, 1);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..l.period() {
                assert!(seen.insert(l.next()), "width {width}: state repeated early");
            }
            // After a full period the state returns to the seed.
            assert_eq!(l.next(), 1, "width {width}: period is not maximal");
        }
    }

    #[test]
    fn lfsr_never_emits_zero() {
        let mut l = LfsrSource::new(8, 42);
        for _ in 0..255 {
            assert_ne!(l.next(), 0);
        }
    }

    #[test]
    fn lfsr_zero_seed_is_coerced() {
        let mut l = LfsrSource::new(4, 0);
        assert_ne!(l.next(), 0);
    }

    #[test]
    fn counter_counts_and_wraps() {
        let mut c = CounterSource::new(2);
        assert_eq!(
            (0..6).map(|_| c.next()).collect::<Vec<_>>(),
            [0, 1, 2, 3, 0, 1]
        );
    }

    #[test]
    fn counter_with_phase() {
        let mut c = CounterSource::starting_at(3, 6);
        assert_eq!((0..4).map(|_| c.next()).collect::<Vec<_>>(), [6, 7, 0, 1]);
        c.reset();
        assert_eq!(c.next(), 6);
    }

    #[test]
    fn splitmix_is_deterministic_and_uniform_enough() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Crude uniformity: mean of 4k floats within 5% of 0.5.
        let mut r = SplitMix64::new(1);
        let mean: f64 = (0..4096).map(|_| r.next_f64()).sum::<f64>() / 4096.0;
        assert!((mean - 0.5).abs() < 0.025, "mean {mean}");
    }

    #[test]
    fn splitmix_ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let v = r.range_i64(-1, 1);
            assert!((-1..=1).contains(&v));
        }
        // All three values of [-1, 1] appear.
        let mut seen = [false; 3];
        let mut r = SplitMix64::new(4);
        for _ in 0..100 {
            seen[(r.range_i64(-1, 1) + 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn splitmix_below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn boxed_source_delegates() {
        let mut b: Box<dyn NumberSource> = Box::new(CounterSource::new(4));
        assert_eq!(b.width(), 4);
        assert_eq!(b.period(), 16);
        assert_eq!(b.next(), 0);
        b.reset();
        assert_eq!(b.next(), 0);
    }
}
