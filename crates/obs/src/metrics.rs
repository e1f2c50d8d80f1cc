//! A dimensional metrics registry: counters, gauges, fixed-bucket
//! histograms, quantile histograms and windowed time series,
//! keyed by `(name, sorted label set)` and exported as a JSON snapshot.
//!
//! The registry is the accounting side of the observability layer: the
//! simulator and the functional executors fold their per-layer numbers
//! (DRAM/SRAM bytes, stall cycles, MAC windows, early-termination savings,
//! tile folds) into it, and experiment binaries dump one snapshot per run
//! as a before/after artifact for performance work. Every metric family
//! comes in an unlabeled flavour (`count`, `gauge`, `observe`, …) and a
//! labeled flavour (`count_labeled`, …) taking a `&[(&str, &str)]` slice —
//! typically built with the [`labels!`](crate::labels) macro — so one
//! logical signal can be split per scheme, shard, or priority class.
//! All maps are `BTreeMap`s over [`MetricKey`], which orders by name then
//! sorted labels: snapshots and exports are deterministic.

use crate::histogram::QuantileHistogram;
use crate::json::{JsonValue, ToJson};
use crate::label::MetricKey;
use crate::series::TimeSeries;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Counter incremented by [`Registry::absorb`] when two histograms or
/// series with the same key cannot be merged (mismatched bucket bounds
/// or widths).
pub const ABSORB_CONFLICTS: &str = "obs.absorb_conflicts";

/// A fixed-bucket histogram with an implicit overflow (`+Inf`) bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given upper bucket bounds
    /// (inclusive). A sample `v` falls into the first bucket whose bound
    /// satisfies `v <= bound`, or into the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn with_buckets(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Ten exponential buckets from 1 upward (1, 2, 4, … 512) — the
    /// default when a histogram is observed without prior registration.
    #[must_use]
    pub fn exponential_default() -> Self {
        let bounds: Vec<f64> = (0..10).map(|i| f64::from(1u32 << i)).collect();
        Self::with_buckets(&bounds)
    }

    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one: per-bucket counts, sum,
    /// count, min and max all merge. Returns `false` (and changes
    /// nothing) when the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        true
    }

    /// Upper bucket bounds (without the overflow bucket).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or `None` when empty.
    #[must_use]
    pub fn min_value(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    #[must_use]
    pub fn max_value(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("bounds", self.bounds.to_json()),
            ("counts", self.counts.to_json()),
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("min", self.min_value().to_json()),
            ("max", self.max_value().to_json()),
        ])
    }
}

/// A named, labeled collection of counters, gauges, histograms, quantile
/// histograms and windowed time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
    quantiles: BTreeMap<MetricKey, QuantileHistogram>,
    series: BTreeMap<MetricKey, TimeSeries>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    // ---- counters ----------------------------------------------------

    /// Adds `v` to the named counter, creating it at zero first.
    pub fn count(&mut self, name: &str, v: u64) {
        self.count_labeled(name, &[], v);
    }

    /// Adds `v` to the counter `(name, labels)`.
    pub fn count_labeled(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        *self
            .counters
            .entry(MetricKey::new(name, labels))
            .or_insert(0) += v;
    }

    /// Reads an unlabeled counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_labeled(name, &[])
    }

    /// Reads a labeled counter (0 when absent).
    #[must_use]
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    // ---- gauges ------------------------------------------------------

    /// Sets the named gauge to `v`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.gauge_labeled(name, &[], v);
    }

    /// Sets the gauge `(name, labels)` to `v`.
    pub fn gauge_labeled(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Reads an unlabeled gauge.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauge_value_labeled(name, &[])
    }

    /// Reads a labeled gauge.
    #[must_use]
    pub fn gauge_value_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    // ---- histograms --------------------------------------------------

    /// Registers a histogram with explicit bucket bounds, replacing any
    /// existing histogram of the same name.
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
        self.register_histogram_labeled(name, &[], bounds);
    }

    /// Registers a labeled histogram with explicit bucket bounds.
    pub fn register_histogram_labeled(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) {
        self.histograms.insert(
            MetricKey::new(name, labels),
            Histogram::with_buckets(bounds),
        );
    }

    /// Records a sample, auto-registering with
    /// [`Histogram::exponential_default`] buckets when the name is new.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_labeled(name, &[], v);
    }

    /// Records a labeled sample, auto-registering default buckets when
    /// the key is new.
    pub fn observe_labeled(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_insert_with(Histogram::exponential_default)
            .observe(v);
    }

    /// Reads an unlabeled histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_labeled(name, &[])
    }

    /// Reads a labeled histogram.
    #[must_use]
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&MetricKey::new(name, labels))
    }

    // ---- quantile histograms ----------------------------------------

    /// Records a sample into the named quantile histogram, creating it
    /// when the key is new.
    pub fn record_quantile(&mut self, name: &str, v: u64) {
        self.record_quantile_labeled(name, &[], v);
    }

    /// Records a labeled quantile-histogram sample.
    pub fn record_quantile_labeled(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.quantiles
            .entry(MetricKey::new(name, labels))
            .or_default()
            .observe(v);
    }

    /// Folds a whole histogram into the named quantile histogram, as if
    /// each of its samples had been recorded. A new key takes `h` as is,
    /// without a copy.
    pub fn merge_quantile(&mut self, name: &str, h: QuantileHistogram) {
        match self.quantiles.entry(MetricKey::new(name, &[])) {
            Entry::Vacant(slot) => {
                slot.insert(h);
            }
            Entry::Occupied(mut slot) => slot.get_mut().merge(&h),
        }
    }

    /// Reads an unlabeled quantile histogram.
    #[must_use]
    pub fn quantile(&self, name: &str) -> Option<&QuantileHistogram> {
        self.quantile_labeled(name, &[])
    }

    /// Reads a labeled quantile histogram.
    #[must_use]
    pub fn quantile_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&QuantileHistogram> {
        self.quantiles.get(&MetricKey::new(name, labels))
    }

    // ---- windowed time series ----------------------------------------

    /// Registers a windowed time series with the given bucket width
    /// (cycles) and retained-bucket capacity, replacing any existing
    /// series of the same key.
    pub fn register_series(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bucket_width: u64,
        capacity: usize,
    ) {
        self.series.insert(
            MetricKey::new(name, labels),
            TimeSeries::new(bucket_width, capacity),
        );
    }

    /// Records a sample at `cycle` into the named series,
    /// auto-registering with default geometry when the key is new.
    pub fn series_record(&mut self, name: &str, cycle: u64, v: f64) {
        self.series_record_labeled(name, &[], cycle, v);
    }

    /// Records a labeled series sample at `cycle`.
    pub fn series_record_labeled(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        cycle: u64,
        v: f64,
    ) {
        self.series
            .entry(MetricKey::new(name, labels))
            .or_default()
            .record(cycle, v);
    }

    /// Reads an unlabeled series.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series_labeled(name, &[])
    }

    /// Reads a labeled series.
    #[must_use]
    pub fn series_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&TimeSeries> {
        self.series.get(&MetricKey::new(name, labels))
    }

    // ---- iteration (exporters) ---------------------------------------

    /// Iterates all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates all gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates all histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    /// Iterates all quantile histograms in key order.
    pub fn quantiles(&self) -> impl Iterator<Item = (&MetricKey, &QuantileHistogram)> {
        self.quantiles.iter()
    }

    /// Iterates all time series in key order.
    pub fn all_series(&self) -> impl Iterator<Item = (&MetricKey, &TimeSeries)> {
        self.series.iter()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.quantiles.is_empty()
            && self.series.is_empty()
    }

    // ---- folding -----------------------------------------------------

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value, histograms / quantiles / series merge
    /// element-wise. When a histogram collides with different bucket
    /// bounds (or a series with a different bucket width) the existing
    /// entry is kept and the [`ABSORB_CONFLICTS`] counter is bumped —
    /// samples are never silently replaced.
    pub fn absorb(&mut self, other: &Registry) {
        let mut conflicts: u64 = 0;
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.entry(k.clone()) {
                Entry::Vacant(slot) => {
                    slot.insert(v.clone());
                }
                Entry::Occupied(mut slot) => {
                    if !slot.get_mut().merge(v) {
                        conflicts += 1;
                    }
                }
            }
        }
        for (k, v) in &other.quantiles {
            self.quantiles.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.series {
            match self.series.entry(k.clone()) {
                Entry::Vacant(slot) => {
                    slot.insert(v.clone());
                }
                Entry::Occupied(mut slot) => {
                    if !slot.get_mut().merge(v) {
                        conflicts += 1;
                    }
                }
            }
        }
        if conflicts > 0 {
            self.count(ABSORB_CONFLICTS, conflicts);
        }
    }

    /// Writes the snapshot to a file as pretty-enough compact JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_snapshot(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

fn section<V: ToJson>(map: &BTreeMap<MetricKey, V>) -> JsonValue {
    JsonValue::Object(
        map.iter()
            .map(|(k, v)| (k.canonical(), v.to_json()))
            .collect(),
    )
}

impl ToJson for Registry {
    fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("counters".to_owned(), section(&self.counters)),
            ("gauges".to_owned(), section(&self.gauges)),
            ("histograms".to_owned(), section(&self.histograms)),
        ];
        if !self.quantiles.is_empty() {
            pairs.push(("quantiles".to_owned(), section(&self.quantiles)));
        }
        if !self.series.is_empty() {
            pairs.push(("series".to_owned(), section(&self.series)));
        }
        JsonValue::Object(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.count("sim.dram_bytes", 10);
        r.count("sim.dram_bytes", 5);
        assert_eq!(r.counter("sim.dram_bytes"), 15);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn labeled_counters_are_separate_series() {
        let mut r = Registry::new();
        r.count_labeled("serve.rejected", labels!("class" => "a"), 2);
        r.count_labeled("serve.rejected", labels!("class" => "b"), 3);
        r.count("serve.rejected", 1);
        assert_eq!(
            r.counter_labeled("serve.rejected", labels!("class" => "a")),
            2
        );
        assert_eq!(
            r.counter_labeled("serve.rejected", labels!("class" => "b")),
            3
        );
        assert_eq!(r.counter("serve.rejected"), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = Registry::new();
        r.count_labeled("c", labels!("x" => "1", "y" => "2"), 1);
        r.count_labeled("c", labels!("y" => "2", "x" => "1"), 1);
        assert_eq!(r.counter_labeled("c", labels!("x" => "1", "y" => "2")), 2);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge("util", 0.25);
        r.gauge("util", 0.75);
        assert_eq!(r.gauge_value("util"), Some(0.75));
        assert_eq!(r.gauge_value("missing"), None);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::with_buckets(&[1.0, 2.0, 4.0]);
        // Exactly on a bound falls into that bucket (v <= bound).
        h.observe(1.0);
        h.observe(2.0);
        h.observe(4.0);
        assert_eq!(h.counts(), &[1, 1, 1, 0]);
        // Just above a bound falls into the next bucket.
        h.observe(1.0 + f64::EPSILON * 2.0);
        assert_eq!(h.counts(), &[1, 2, 1, 0]);
        // Above the last bound goes to overflow.
        h.observe(4.1);
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        // Below the first bound goes to the first bucket.
        h.observe(-3.0);
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::with_buckets(&[10.0]);
        h.observe(2.0);
        h.observe(6.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 8.0);
        assert_eq!(h.mean(), 4.0);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("min").unwrap().as_f64(), Some(2.0));
        assert_eq!(j.get("max").unwrap().as_f64(), Some(6.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::with_buckets(&[2.0, 1.0]);
    }

    #[test]
    fn observe_auto_registers() {
        let mut r = Registry::new();
        r.observe("lat", 3.0);
        assert_eq!(r.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Registry::new();
        a.count("c", 1);
        let mut b = Registry::new();
        b.count("c", 2);
        b.gauge("g", 9.0);
        a.absorb(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge_value("g"), Some(9.0));
    }

    #[test]
    fn absorb_merges_histograms_instead_of_replacing() {
        let mut a = Registry::new();
        a.register_histogram("lat", &[1.0, 10.0]);
        a.observe("lat", 0.5);
        a.observe("lat", 5.0);
        let mut b = Registry::new();
        b.register_histogram("lat", &[1.0, 10.0]);
        b.observe("lat", 100.0);
        b.observe("lat", 0.25);
        a.absorb(&b);
        let h = a.histogram("lat").expect("merged");
        assert_eq!(h.count(), 4);
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.sum(), 105.75);
        assert_eq!(h.min_value(), Some(0.25));
        assert_eq!(h.max_value(), Some(100.0));
        assert_eq!(a.counter(ABSORB_CONFLICTS), 0);
    }

    #[test]
    fn absorb_counts_bound_conflicts() {
        let mut a = Registry::new();
        a.register_histogram("lat", &[1.0, 10.0]);
        a.observe("lat", 0.5);
        let mut b = Registry::new();
        b.register_histogram("lat", &[2.0, 20.0]);
        b.observe("lat", 0.5);
        a.absorb(&b);
        // The existing histogram is kept untouched and the conflict counted.
        assert_eq!(a.histogram("lat").unwrap().count(), 1);
        assert_eq!(a.histogram("lat").unwrap().bounds(), &[1.0, 10.0]);
        assert_eq!(a.counter(ABSORB_CONFLICTS), 1);
    }

    #[test]
    fn absorb_merges_sketches_and_series() {
        let mut a = Registry::new();
        a.record_quantile("q", 1);
        a.series_record("s", 0, 1.0);
        let mut b = Registry::new();
        b.record_quantile("q", 3);
        b.series_record("s", 0, 2.0);
        a.absorb(&b);
        let q = a.quantile("q").unwrap();
        assert_eq!(q.count(), 2);
        assert_eq!((q.min(), q.max()), (Some(1), Some(3)));
        assert_eq!(a.series("s").unwrap().window_count(), 2);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut r = Registry::new();
        r.count("a.b", 7);
        r.gauge("g", 1.5);
        r.register_histogram("h", &[1.0, 2.0]);
        r.observe("h", 1.5);
        let parsed = crate::json::JsonValue::parse(&r.to_json_string()).unwrap();
        assert_eq!(
            parsed.get("counters").unwrap().get("a.b").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(
            parsed.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(1.5)
        );
        let h = parsed.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("counts").unwrap().as_array().unwrap().len(), 3);
        // Quantile/series sections appear only when used.
        assert!(parsed.get("quantiles").is_none());
        assert!(parsed.get("series").is_none());
    }

    #[test]
    fn labeled_snapshot_uses_canonical_keys() {
        let mut r = Registry::new();
        r.count_labeled(
            "serve.rejected",
            labels!("prio" => "high", "class" => "a"),
            4,
        );
        r.record_quantile_labeled("lat", labels!("class" => "a"), 2);
        let parsed = crate::json::JsonValue::parse(&r.to_json_string()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("serve.rejected{class=\"a\",prio=\"high\"}")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        assert_eq!(
            parsed
                .get("quantiles")
                .unwrap()
                .get("lat{class=\"a\"}")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}
