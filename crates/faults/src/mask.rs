//! Word-granularity fault masks from a per-window SplitMix64 stream.
//!
//! Transient flips are sampled with **geometric skips** (inverse-transform
//! sampling of the gap between Bernoulli successes), so building a mask
//! costs `O(flips)` rather than `O(cycles)` and the mask arrives already
//! packed 64 bits per word — the closed-form kernel walks its flip sites
//! word-at-a-time while the bit-serial kernel queries it cycle-at-a-time,
//! and both see the exact same fault sites because the mask is a pure
//! function of `(seed, window)`.

use usystolic_unary::rng::SplitMix64;
use usystolic_unary::Bitstream;

/// Decorrelation constant mixed into the per-window key so the transient
/// stream never collides with the memory-corruption stream of
/// [`usystolic_sim::WordCorruption`] (which keys on region/index).
const WINDOW_STREAM_SALT: u64 = 0xD6E8_FEB8_6659_FD93;

/// The SplitMix64 generator owning fault decisions for one MAC window.
///
/// Shared by the unary kernels and the binary baseline: the same
/// `(seed, window)` always yields the same flip pattern, which is what
/// makes cross-kernel fault sites comparable.
#[must_use]
pub fn window_rng(seed: u64, window: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ WINDOW_STREAM_SALT)
}

/// A packed XOR mask of transient flips over one window's cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowMask {
    bits: Bitstream,
}

impl WindowMask {
    /// Number of flips the mask injects.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.bits.count_ones()
    }

    /// Whether cycle `cycle` is flipped (false past the end) — the
    /// bit-serial kernel's per-cycle query.
    #[must_use]
    pub fn flip(&self, cycle: usize) -> bool {
        self.bits.get(cycle).unwrap_or(false)
    }

    /// Flipped cycle indices in ascending order (the fault sites).
    #[must_use]
    pub fn cycles(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.flips() as usize);
        for (wi, &word) in self.bits.words().iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as u64;
                out.push(wi as u64 * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }

    /// Number of cycles the mask covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask covers no cycles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// Samples the transient-flip mask for one window: each of `len` cycles
/// is flipped independently with probability `ber`, using geometric-skip
/// sampling from [`window_rng`].
///
/// `ber <= 0` yields an empty mask, `ber >= 1` a full mask; anything in
/// between draws gaps `g = floor(ln(1-u) / ln(1-ber))` between flips.
#[must_use]
pub fn window_mask(seed: u64, window: u64, len: usize, ber: f64) -> WindowMask {
    if ber <= 0.0 || len == 0 {
        return WindowMask {
            bits: Bitstream::zeros(len),
        };
    }
    if ber >= 1.0 {
        return WindowMask {
            bits: Bitstream::ones(len),
        };
    }
    let mut rng = window_rng(seed, window);
    let mut bits = Bitstream::zeros(len);
    let log_q = (1.0 - ber).ln(); // < 0 for ber in (0, 1)
    let mut pos: u64 = 0;
    loop {
        let u = rng.next_f64();
        // f64 -> u64 casts saturate, so astronomically long gaps simply
        // land past the end of the window.
        let gap = ((1.0 - u).ln() / log_q).floor() as u64;
        pos = pos.saturating_add(gap);
        if pos >= len as u64 {
            break;
        }
        bits.set(pos as usize, true);
        pos += 1;
    }
    WindowMask { bits }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_are_deterministic() {
        let a = window_mask(42, 7, 4096, 0.01);
        let b = window_mask(42, 7, 4096, 0.01);
        assert_eq!(a, b);
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn windows_and_seeds_decorrelate() {
        let a = window_mask(42, 7, 4096, 0.05);
        let b = window_mask(42, 8, 4096, 0.05);
        let c = window_mask(43, 7, 4096, 0.05);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn edge_rates() {
        let zero = window_mask(1, 0, 128, 0.0);
        assert_eq!(zero.flips(), 0);
        assert!(zero.cycles().is_empty());
        let one = window_mask(1, 0, 128, 1.0);
        assert_eq!(one.flips(), 128);
        assert!(one.flip(0) && one.flip(127));
        let empty = window_mask(1, 0, 0, 0.5);
        assert!(empty.is_empty());
        assert_eq!(empty.flips(), 0);
    }

    #[test]
    fn density_tracks_ber() {
        // 64 windows x 4096 cycles at BER 0.01: expect ~2621 flips; the
        // binomial std dev is ~51, so +-6 sigma bounds are generous.
        let total: u64 = (0..64).map(|w| window_mask(9, w, 4096, 0.01).flips()).sum();
        assert!(
            (2300..=2950).contains(&total),
            "flip density off: {total} of 262144 at BER 0.01"
        );
    }

    #[test]
    fn cycles_agree_with_per_cycle_queries() {
        let m = window_mask(3, 11, 1000, 0.02);
        let listed = m.cycles();
        let scanned: Vec<u64> = (0..1000u64).filter(|&j| m.flip(j as usize)).collect();
        assert_eq!(listed, scanned);
        assert_eq!(m.flips() as usize, listed.len());
        assert_eq!(m.len(), 1000);
        // Ascending and in range.
        assert!(listed.windows(2).all(|p| p[0] < p[1]));
        assert!(listed.iter().all(|&c| c < 1000));
    }

    #[test]
    fn mask_never_marks_cycles_past_len() {
        for w in 0..32 {
            let m = window_mask(5, w, 70, 0.5);
            assert!(m.cycles().iter().all(|&c| c < 70));
            assert!(!m.flip(70) && !m.flip(1000));
        }
    }
}
