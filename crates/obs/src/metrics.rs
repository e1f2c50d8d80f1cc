//! A dimensional metrics registry: counters, gauges, histograms and
//! windowed time series, keyed by `(name, sorted label set)` and exported
//! as a JSON snapshot.
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
//! Every sample distribution is a [`QuantileHistogram`] over `u64`
//! samples, so a site records integers in its own unit (ns, cycles,
//! permille) and reads nearest-rank percentiles back, exact below
//! [`crate::histogram::CAP`] distinct values.
//! All maps are `BTreeMap`s over [`MetricKey`], which orders by name then
//! sorted labels: snapshots and exports are deterministic.

use crate::histogram::QuantileHistogram;
use crate::json::{JsonValue, ToJson};
use crate::label::MetricKey;
use crate::series::TimeSeries;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A named, labeled collection of counters, gauges, histograms and
/// windowed time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, QuantileHistogram>,
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

    /// Records a sample into the named histogram, creating it when the
    /// name is new.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.observe_labeled(name, &[], v);
    }

    /// Records a labeled sample, creating the histogram when the key is
    /// new.
    pub fn observe_labeled(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_default()
            .observe(v);
    }

    /// Folds a whole histogram into the named histogram, as if each of its
    /// samples had been recorded. A new key takes `h` as is, without a
    /// copy.
    pub fn merge_histogram(&mut self, name: &str, h: QuantileHistogram) {
        match self.histograms.entry(MetricKey::new(name, &[])) {
            Entry::Vacant(slot) => {
                slot.insert(h);
            }
            Entry::Occupied(mut slot) => slot.get_mut().merge(&h),
        }
    }

    /// Reads an unlabeled histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&QuantileHistogram> {
        self.histogram_labeled(name, &[])
    }

    /// Reads a labeled histogram.
    #[must_use]
    pub fn histogram_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&QuantileHistogram> {
        self.histograms.get(&MetricKey::new(name, labels))
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
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &QuantileHistogram)> {
        self.histograms.iter()
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
            && self.series.is_empty()
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
        JsonValue::object(vec![
            ("counters", section(&self.counters)),
            ("gauges", section(&self.gauges)),
            ("histograms", section(&self.histograms)),
            ("series", section(&self.series)),
        ])
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
    fn histogram_summary_stats() {
        let mut r = Registry::new();
        r.observe("lat", 2);
        r.observe("lat", 6);
        let h = r.histogram("lat").expect("recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 8);
        assert_eq!(h.mean(), 4.0);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("min").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("max").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn observe_auto_registers() {
        let mut r = Registry::new();
        r.observe("lat", 3);
        assert_eq!(r.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn merge_histogram_folds_into_recorded_samples() {
        let mut r = Registry::new();
        r.observe("lat", 4);
        let mut h = QuantileHistogram::new();
        h.observe(8);
        r.merge_histogram("lat", h.clone());
        r.merge_histogram("fresh", h);
        let lat = r.histogram("lat").unwrap();
        assert_eq!((lat.count(), lat.min(), lat.max()), (2, Some(4), Some(8)));
        assert_eq!(r.histogram("fresh").unwrap().count(), 1);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut r = Registry::new();
        r.count("a.b", 7);
        r.gauge("g", 1.5);
        r.observe("h", 2);
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
        assert_eq!(h.get("p50").unwrap().as_u64(), Some(2));
        // Exactly four sections, present even when empty.
        let JsonValue::Object(sections) = parsed else {
            panic!("snapshot is an object");
        };
        let names: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["counters", "gauges", "histograms", "series"]);
    }

    #[test]
    fn labeled_snapshot_uses_canonical_keys() {
        let mut r = Registry::new();
        r.count_labeled(
            "serve.rejected",
            labels!("prio" => "high", "class" => "a"),
            4,
        );
        r.observe_labeled("lat", labels!("class" => "a"), 2);
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
                .get("histograms")
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
