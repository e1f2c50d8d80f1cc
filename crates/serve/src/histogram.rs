//! Exact streaming latency histograms.
//!
//! Latencies in this crate are integer cycle counts, so exact percentiles
//! do not need sampling or fixed buckets: a [`CycleHistogram`] keeps one
//! counter per distinct value in a `BTreeMap`. Observation is `O(log d)`
//! in the number of distinct values `d` (typically far below the request
//! count — many requests share identical service paths), and
//! [`percentile`](CycleHistogram::percentile)
//! implements the nearest-rank definition: the `p`-th percentile of `n`
//! samples is the value at rank `⌈p/100 · n⌉` (1-based) in sorted order —
//! exactly what a sorted-vector reference computes.

use std::collections::BTreeMap;
use usystolic_obs::{JsonValue, ToJson};

/// An exact value→count histogram over integer cycle counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

impl CycleHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean sample, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the value at
    /// 1-based rank `⌈p/100 · n⌉` in sorted order. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        if self.total == 0 {
            return None;
        }
        let rank = (p / 100.0 * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return Some(v);
            }
        }
        self.max()
    }

    /// The p50/p95/p99 summary used throughout the serving reports.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.total,
            mean_cycles: self.mean(),
            p50_cycles: self.percentile(50.0).unwrap_or(0),
            p95_cycles: self.percentile(95.0).unwrap_or(0),
            p99_cycles: self.percentile(99.0).unwrap_or(0),
            max_cycles: self.max().unwrap_or(0),
        }
    }
}

/// The percentile summary of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean in cycles.
    pub mean_cycles: f64,
    /// Median (nearest-rank p50) in cycles.
    pub p50_cycles: u64,
    /// Nearest-rank p95 in cycles.
    pub p95_cycles: u64,
    /// Nearest-rank p99 in cycles.
    pub p99_cycles: u64,
    /// Largest sample in cycles.
    pub max_cycles: u64,
}

impl LatencySummary {
    /// Converts a cycle count to milliseconds at the given clock.
    #[must_use]
    pub fn cycles_to_ms(cycles: f64, clock_hz: f64) -> f64 {
        cycles / clock_hz * 1.0e3
    }
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("count", self.count.to_json()),
            ("mean_cycles", self.mean_cycles.to_json()),
            ("p50_cycles", self.p50_cycles.to_json()),
            ("p95_cycles", self.p95_cycles.to_json()),
            ("p99_cycles", self.p99_cycles.to_json()),
            ("max_cycles", self.max_cycles.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sorted-vector nearest-rank reference the histogram must match.
    fn reference_percentile(samples: &mut [u64], p: f64) -> u64 {
        samples.sort_unstable();
        let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).max(1);
        samples[rank - 1]
    }

    #[test]
    fn matches_sorted_vector_reference() {
        let mut rng = usystolic_unary::rng::SplitMix64::new(11);
        let mut h = CycleHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..5000 {
            let v = rng.below(10_000);
            h.observe(v);
            samples.push(v);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                h.percentile(p),
                Some(reference_percentile(&mut samples.clone(), p)),
                "p{p}"
            );
        }
    }

    #[test]
    fn small_counts_follow_nearest_rank() {
        let mut h = CycleHistogram::new();
        for v in [10, 20, 30, 40] {
            h.observe(v);
        }
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
        let h = CycleHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        let s = h.summary();
        assert_eq!(s.p99_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "out of (0, 100]")]
    fn zero_percentile_rejected() {
        let mut h = CycleHistogram::new();
        h.observe(1);
        let _ = h.percentile(0.0);
    }

    #[test]
    fn summary_json_shape() {
        let mut h = CycleHistogram::new();
        for v in 1..=100 {
            h.observe(v);
        }
        let j = h.summary().to_json();
        assert_eq!(j.get("count").and_then(|v| v.as_u64()), Some(100));
        assert_eq!(j.get("p50_cycles").and_then(|v| v.as_u64()), Some(50));
        assert_eq!(j.get("p99_cycles").and_then(|v| v.as_u64()), Some(99));
    }
}
