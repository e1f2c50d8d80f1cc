//! The workspace's one quantile mechanism: an exact-when-small
//! histogram over `u64` samples with a fixed memory cap.
//!
//! [`QuantileHistogram`] keeps one counter per distinct value in a
//! `BTreeMap` while that map holds at most [`CAP`] keys, and
//! [`percentile`](QuantileHistogram::percentile) implements the
//! nearest-rank definition: the `p`-th percentile of `n` samples is the
//! value at rank `⌈p/100 · n⌉` (1-based) in sorted order — exactly what a
//! sorted-vector reference computes. The serve report's latency,
//! queue-wait and service summaries and the registry's `quantiles`
//! family all read this type.
//!
//! ## Past the cap
//!
//! Saturated traffic makes almost every latency distinct, so an exact map
//! would grow with the request count. When an insert pushes the map past
//! `CAP` keys, the histogram keeps only each sample's top `sig`
//! significant bits, rounded down, and folds colliding keys together.
//! `sig` first drops straight to the bit length of the largest sample (a
//! no-op on the keys), then one bit at a time until at most `CAP / 2`
//! keys would remain, and the map is rebuilt once at that `sig`; the
//! halved target keeps rebuilds rare. Rounding down is monotone, so a
//! reported percentile is the true nearest-rank value rounded down to
//! `sig` bits: its relative error is below `2^(1−sig)`. `count`, `sum`,
//! `mean`, `min` and `max` are tracked apart from the keys and stay
//! exact.
//!
//! The histogram is a pure function of its sample sequence (a merge, of
//! the two histograms in argument order), so identical streams give
//! identical bytes.

use crate::json::{JsonValue, ToJson};
use std::collections::BTreeMap;

/// The most distinct keys a [`QuantileHistogram`] holds (about 7.3 MB of
/// `BTreeMap` nodes). Below it every percentile is exact.
pub const CAP: usize = 1 << 18;

/// A value→count histogram: exact below [`CAP`] distinct values, rounded
/// to `sig` significant bits above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileHistogram {
    counts: BTreeMap<u64, u64>,
    sig: u32,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for QuantileHistogram {
    fn default() -> Self {
        Self {
            counts: BTreeMap::new(),
            sig: u64::BITS,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Number of significant bits in `v` (0 for 0).
fn bit_len(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// `v` with all but its top `sig` significant bits cleared.
fn round(v: u64, sig: u32) -> u64 {
    let drop = bit_len(v).saturating_sub(sig);
    v >> drop << drop
}

impl QuantileHistogram {
    /// Creates an empty, exact histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.insert(v, 1);
    }

    /// Folds another histogram into this one. Below the cap the result
    /// equals observing both streams; above it, the coarser of the two
    /// resolutions wins.
    pub fn merge(&mut self, other: &QuantileHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.sig < self.sig {
            self.rebuild(other.sig);
        }
        for (&v, &n) in &other.counts {
            self.insert(v, n);
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the value at
    /// 1-based rank `⌈p/100 · n⌉` in sorted order, rounded down to the
    /// significant bits kept (all 64 below [`CAP`]). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        if self.count == 0 {
            return None;
        }
        let rank = (p / 100.0 * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (&v, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(v);
            }
        }
        self.counts.keys().next_back().copied()
    }

    /// Adds `n` samples of `v`, coarsening once the map passes the cap.
    fn insert(&mut self, v: u64, n: u64) {
        *self.counts.entry(round(v, self.sig)).or_insert(0) += n;
        if self.counts.len() > CAP {
            self.coarsen();
        }
    }

    /// Rebuilds the map at the largest `sig` that leaves at most
    /// `CAP / 2` keys.
    fn coarsen(&mut self) {
        // Bits above the largest sample's length are already exact, so
        // the search starts one below it. At `sig` 1 at most 65 keys
        // remain, so it ends before `sig` reaches 0.
        let mut sig = self.sig.min(bit_len(self.max)) - 1;
        while self.keys_at(sig) > CAP / 2 {
            sig -= 1;
        }
        self.rebuild(sig);
    }

    /// How many keys the map would hold at `sig` significant bits.
    fn keys_at(&self, sig: u32) -> usize {
        let mut last = None;
        self.counts
            .keys()
            .filter(|&&v| {
                let key = round(v, sig);
                last.replace(key) != Some(key)
            })
            .count()
    }

    /// Re-keys every counter at `sig` significant bits.
    fn rebuild(&mut self, sig: u32) {
        self.sig = sig;
        for (v, n) in std::mem::take(&mut self.counts) {
            *self.counts.entry(round(v, sig)).or_insert(0) += n;
        }
    }
}

impl ToJson for QuantileHistogram {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("count", self.count.to_json()),
            ("sum", (self.sum as f64).to_json()),
            ("min", self.min().to_json()),
            ("max", self.max().to_json()),
            ("sig", self.sig.to_json()),
            ("p50", self.percentile(50.0).to_json()),
            ("p95", self.percentile(95.0).to_json()),
            ("p99", self.percentile(99.0).to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERCENTILES: [f64; 8] = [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0];

    /// The sorted-vector nearest-rank reference the histogram must match.
    fn reference_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// A SplitMix64 stream of `n` values below `bound`.
    fn samples(seed: u64, n: usize, bound: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % bound
            })
            .collect()
    }

    fn histogram_of(values: &[u64]) -> QuantileHistogram {
        let mut h = QuantileHistogram::new();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn matches_sorted_vector_reference() {
        let mut values = samples(11, 5000, 10_000);
        let h = histogram_of(&values);
        values.sort_unstable();
        for p in PERCENTILES {
            assert_eq!(
                h.percentile(p),
                Some(reference_percentile(&values, p)),
                "p{p}"
            );
        }
        assert_eq!(h.sig, 64);
    }

    #[test]
    fn small_counts_follow_nearest_rank() {
        let h = histogram_of(&[10, 20, 30, 40]);
        // n = 4: p50 → rank 2, p75 → rank 3, p76 → rank 4.
        assert_eq!(h.percentile(50.0), Some(20));
        assert_eq!(h.percentile(75.0), Some(30));
        assert_eq!(h.percentile(76.0), Some(40));
        assert_eq!(h.percentile(100.0), Some(40));
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.mean(), 25.0);
    }

    #[test]
    fn empty_histogram_is_none() {
        let h = QuantileHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.counts.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of (0, 100]")]
    fn zero_percentile_rejected() {
        let h = histogram_of(&[1]);
        let _ = h.percentile(0.0);
    }

    #[test]
    fn summary_json_shape() {
        let values: Vec<u64> = (1..=100).collect();
        let j = histogram_of(&values).to_json();
        assert_eq!(j.get("count").and_then(JsonValue::as_u64), Some(100));
        assert_eq!(j.get("sum").and_then(JsonValue::as_f64), Some(5050.0));
        assert_eq!(j.get("min").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(j.get("sig").and_then(JsonValue::as_u64), Some(64));
        assert_eq!(j.get("p50").and_then(JsonValue::as_u64), Some(50));
        assert_eq!(j.get("p99").and_then(JsonValue::as_u64), Some(99));
    }

    /// Past the cap the map stays bounded, every percentile is the exact
    /// nearest-rank value rounded down to `sig` bits, and the moments
    /// tracked apart from the keys stay exact.
    #[test]
    fn past_the_cap_percentiles_are_the_reference_rounded_down() {
        let mut values = samples(3, 3 * CAP / 2, 1 << 40);
        let h = histogram_of(&values);
        values.sort_unstable();
        let distinct = 1 + values.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(distinct > CAP, "stream must pass the cap");

        assert!(h.counts.len() <= CAP, "{} keys", h.counts.len());
        let sig = h.sig;
        assert!(sig < 64, "histogram must have coarsened");
        for p in PERCENTILES {
            let exact = reference_percentile(&values, p);
            assert_eq!(h.percentile(p), Some(round(exact, sig)), "p{p}");
            let err = (exact - round(exact, sig)) as f64 / exact as f64;
            assert!(err < 2f64.powi(1 - sig as i32), "p{p}: error {err}");
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), values.first().copied());
        assert_eq!(h.max(), values.last().copied());
        let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        assert_eq!(h.sum(), sum);
        assert_eq!(h.mean(), sum as f64 / values.len() as f64);
    }

    #[test]
    fn identical_streams_give_identical_bytes() {
        for n in [4096, CAP + 1] {
            let values = samples(5, n, 1 << 40);
            let a = histogram_of(&values);
            let b = histogram_of(&values);
            assert_eq!(a, b);
            assert_eq!(a.to_json_string(), b.to_json_string());
        }
    }

    /// Merging with a coarsened histogram re-keys the finer side at the
    /// coarser `sig`, so the merge is the same in either order.
    #[test]
    fn merge_past_the_cap_keeps_the_coarser_resolution() {
        let coarse = histogram_of(&samples(9, CAP + 1, 1 << 40));
        let exact = histogram_of(&samples(10, 1000, 1 << 40));
        assert!(coarse.sig < 64);
        let mut a = exact.clone();
        a.merge(&coarse);
        let mut b = coarse.clone();
        b.merge(&exact);
        assert_eq!(a.sig, coarse.sig);
        assert_eq!(a, b);
        assert_eq!(a.count(), coarse.count() + exact.count());
    }

    #[test]
    fn merge_below_the_cap_equals_observing_both_streams() {
        let left = samples(7, 3000, 5000);
        let right = samples(8, 2000, 9000);
        let mut merged = histogram_of(&left);
        merged.merge(&histogram_of(&right));
        merged.merge(&QuantileHistogram::new());
        let both: Vec<u64> = left.iter().chain(&right).copied().collect();
        assert_eq!(merged, histogram_of(&both));
    }
}
