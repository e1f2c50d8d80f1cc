//! Windowed time series: a ring of fixed-width cycle buckets per metric.
//!
//! Counters answer "how many in total"; an autoscaler needs "how many
//! *lately*". A [`TimeSeries`] aggregates samples into contiguous
//! fixed-width buckets on the simulated-cycle axis and retains only the
//! most recent `capacity` buckets, so the serve engine can expose
//! rolling arrival / rejection / queue-depth rates at O(capacity) memory
//! regardless of run length. Buckets are addressed by absolute index
//! (`cycle / bucket_width`), so series of one geometry over the same
//! clock line up bucket for bucket.
//!
//! Everything is integer bucket arithmetic — no wall clock, no rounding
//! modes — so the series is a pure function of the (cycle, value) sample
//! sequence.

use crate::json::{JsonValue, ToJson};
use std::collections::VecDeque;

/// Default bucket width in cycles when a series is recorded without
/// prior registration.
pub const DEFAULT_BUCKET_WIDTH: u64 = 4096;

/// Default number of retained buckets.
pub const DEFAULT_CAPACITY: usize = 64;

/// One aggregation bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesBucket {
    /// Samples recorded in this bucket.
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
}

impl SeriesBucket {
    /// Mean value of the bucket, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A ring of fixed-width cycle buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_width: u64,
    capacity: usize,
    /// Absolute index (`cycle / bucket_width`) of `buckets[0]`.
    start: u64,
    buckets: VecDeque<SeriesBucket>,
    /// Samples that arrived for buckets already evicted from the window.
    late: u64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new(DEFAULT_BUCKET_WIDTH, DEFAULT_CAPACITY)
    }
}

impl TimeSeries {
    /// Creates a series with the given bucket width (cycles) and retained
    /// bucket count. Zero arguments are clamped to 1.
    #[must_use]
    pub fn new(bucket_width: u64, capacity: usize) -> Self {
        Self {
            bucket_width: bucket_width.max(1),
            capacity: capacity.max(1),
            start: 0,
            buckets: VecDeque::new(),
            late: 0,
        }
    }

    /// Records a sample at the given cycle.
    pub fn record(&mut self, cycle: u64, value: f64) {
        let idx = cycle / self.bucket_width;
        if self.buckets.is_empty() {
            self.start = idx;
            self.buckets.push_back(SeriesBucket::default());
        }
        if idx < self.start {
            self.late += 1;
            return;
        }
        // Grow the window forward to end at `idx`, evicting the oldest
        // buckets beyond capacity. The window moves in one step, not
        // bucket by bucket, so a sample at a saturated far-future cycle
        // costs O(capacity).
        if idx - self.start >= self.buckets.len() as u64 {
            let new_start = idx.saturating_sub(self.capacity as u64 - 1).max(self.start);
            let evicted = (new_start - self.start).min(self.buckets.len() as u64);
            self.buckets.drain(..evicted as usize);
            self.start = new_start;
            self.buckets
                .resize((idx - new_start + 1) as usize, SeriesBucket::default());
        }
        let slot = (idx - self.start) as usize;
        let b = &mut self.buckets[slot];
        b.count += 1;
        b.sum += value;
    }

    /// The bucket width in cycles.
    #[must_use]
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// The retained-bucket capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The first cycle covered by the retained window.
    #[must_use]
    pub fn start_cycle(&self) -> u64 {
        self.start * self.bucket_width
    }

    /// Number of buckets currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when no samples were ever recorded in the current window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Samples that fell before the retained window and were dropped.
    #[must_use]
    pub fn late_samples(&self) -> u64 {
        self.late
    }

    /// Total sample count across retained buckets.
    #[must_use]
    pub fn window_count(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Iterates `(bucket_start_cycle, bucket)` oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SeriesBucket)> {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, b)| ((self.start + i as u64) * self.bucket_width, b))
    }

    /// Mean event rate over the retained window, in events per cycle.
    #[must_use]
    pub fn window_rate_per_cycle(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        self.window_count() as f64 / (self.buckets.len() as u64 * self.bucket_width) as f64
    }
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("bucket_width", self.bucket_width.to_json()),
            ("start_cycle", self.start_cycle().to_json()),
            ("late", self.late.to_json()),
            (
                "counts",
                JsonValue::Array(self.buckets.iter().map(|b| b.count.to_json()).collect()),
            ),
            (
                "sums",
                JsonValue::Array(self.buckets.iter().map(|b| b.sum.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_width_buckets() {
        let mut s = TimeSeries::new(10, 8);
        s.record(0, 1.0);
        s.record(9, 2.0);
        s.record(10, 3.0);
        s.record(25, 4.0);
        assert_eq!(s.len(), 3);
        let buckets: Vec<(u64, u64, f64)> = s.iter().map(|(c, b)| (c, b.count, b.sum)).collect();
        assert_eq!(buckets, [(0, 2, 3.0), (10, 1, 3.0), (20, 1, 4.0)]);
        assert_eq!(s.window_count(), 4);
    }

    #[test]
    fn window_evicts_oldest_buckets() {
        let mut s = TimeSeries::new(1, 4);
        for c in 0..10 {
            s.record(c, 1.0);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.start_cycle(), 6);
        assert_eq!(s.window_count(), 4);
    }

    #[test]
    fn late_samples_are_counted_not_folded() {
        let mut s = TimeSeries::new(1, 2);
        s.record(10, 1.0);
        s.record(11, 1.0);
        s.record(3, 1.0);
        assert_eq!(s.late_samples(), 1);
        assert_eq!(s.window_count(), 2);
    }

    #[test]
    fn sparse_gaps_create_empty_buckets() {
        let mut s = TimeSeries::new(5, 8);
        s.record(0, 1.0);
        s.record(20, 1.0);
        assert_eq!(s.len(), 5);
        let counts: Vec<u64> = s.iter().map(|(_, b)| b.count).collect();
        assert_eq!(counts, [1, 0, 0, 0, 1]);
    }

    /// Window growth one bucket at a time: the reference `record`'s
    /// one-step move must reproduce.
    fn record_stepwise(s: &mut TimeSeries, cycle: u64, value: f64) {
        let idx = cycle / s.bucket_width;
        if s.buckets.is_empty() {
            s.start = idx;
            s.buckets.push_back(SeriesBucket::default());
        }
        if idx < s.start {
            s.late += 1;
            return;
        }
        while idx - s.start >= s.buckets.len() as u64 {
            if s.buckets.len() == s.capacity {
                s.buckets.pop_front();
                s.start += 1;
            }
            s.buckets.push_back(SeriesBucket::default());
        }
        let slot = (idx - s.start) as usize;
        s.buckets[slot].count += 1;
        s.buckets[slot].sum += value;
    }

    #[test]
    fn far_future_gaps_jump_to_the_stepwise_window() {
        // SplitMix64, so the sample streams are fixed.
        let mut state = 0x5e71_e5e5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..400 {
            // Wide buckets keep the stepwise reference to at most 2^10
            // steps even for gaps reaching `u64::MAX`; narrow ones only
            // see short gaps.
            let wide = next() % 2 == 0;
            let width = if wide {
                u64::MAX >> (next() % 11)
            } else {
                1 + next() % 16
            };
            let capacity = 1 + (next() % 8) as usize;
            let (mut jump, mut step) = (
                TimeSeries::new(width, capacity),
                TimeSeries::new(width, capacity),
            );
            let mut cycle = next() % 64;
            for i in 0..24 {
                let buckets = next() % (4 * capacity as u64);
                cycle = match next() % 6 {
                    _ if !wide => cycle + buckets * width + next() % width,
                    0 => u64::MAX,
                    1 => cycle.saturating_add(next()),
                    2 => cycle.saturating_sub(buckets.saturating_mul(width)),
                    _ => cycle.saturating_add(buckets.saturating_mul(width)),
                };
                jump.record(cycle, i as f64);
                record_stepwise(&mut step, cycle, i as f64);
                assert_eq!(
                    jump, step,
                    "width {width} capacity {capacity} cycle {cycle}"
                );
            }
        }
        // At the default width the stepwise loop would walk ~4.5e15
        // buckets; the jump lands on the final window directly.
        let mut s = TimeSeries::default();
        s.record(0, 1.0);
        s.record(u64::MAX, 2.0);
        let last = u64::MAX / DEFAULT_BUCKET_WIDTH;
        assert_eq!(s.len(), DEFAULT_CAPACITY);
        assert_eq!(
            s.start_cycle(),
            (last + 1 - DEFAULT_CAPACITY as u64) * DEFAULT_BUCKET_WIDTH
        );
        assert_eq!(s.window_count(), 1);
    }

    #[test]
    fn rate_over_window() {
        let mut s = TimeSeries::new(10, 8);
        for c in [0, 5, 12, 18, 25, 29] {
            s.record(c, 1.0);
        }
        // 6 events over 3 buckets of width 10.
        assert!((s.window_rate_per_cycle() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn json_shape() {
        let mut s = TimeSeries::new(10, 4);
        s.record(3, 2.0);
        s.record(14, 4.0);
        let j = s.to_json();
        assert_eq!(j.get("bucket_width").unwrap().as_u64(), Some(10));
        assert_eq!(j.get("counts").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(j.get("late").unwrap().as_u64(), Some(0));
    }
}
