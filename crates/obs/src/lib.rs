//! # usystolic-obs — zero-dependency observability
//!
//! Cycle-level tracing, a dimensional metrics registry and structured
//! JSON export for the uSystolic workspace, with **no external
//! dependencies**:
//!
//! * [`json`] — a hand-rolled JSON writer/parser and the [`ToJson`] trait
//!   (the workspace's stand-in for `serde::Serialize`);
//! * [`label`] — `(name, sorted label set)` metric keys and the
//!   [`labels!`] builder macro;
//! * [`metrics`] — counters, gauges, fixed-bucket histograms, quantile
//!   histograms and windowed time series, all label-aware;
//! * [`histogram`] — the one quantile mechanism: exact nearest-rank
//!   percentiles below [`histogram::CAP`] distinct values, rounded to
//!   fewer significant bits above it;
//! * [`series`] — rings of fixed-width cycle buckets for rolling rates;
//! * [`trace`] — a bounded-ring-buffer span/event tracer exporting Chrome
//!   `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) and
//!   JSONL;
//! * [`export`] — Prometheus text exposition and a self-contained HTML
//!   report with inline SVG sparklines;
//! * [`diff`] — a snapshot differ with regression thresholds, the engine
//!   behind `obs_cli diff`.
//!
//! ## Sessions
//!
//! Instrumentation throughout the simulator and functional executors is
//! routed through a thread-local [`Session`]. By default **no session is
//! installed** and every instrumentation site reduces to one thread-local
//! load and a branch — no heap allocation, no formatting, no locking (a
//! property pinned by the `noop_overhead` integration test). To observe a
//! run:
//!
//! ```
//! use usystolic_obs as obs;
//!
//! obs::install(obs::Session::new());
//! // ... run instrumented code: Simulator::simulate, GemmExecutor::execute ...
//! obs::with(|o| o.metrics.count("my.counter", 1));
//! obs::count_labeled("my.rejected", obs::labels!("class" => "edge"), 1);
//! let session = obs::take().expect("installed above");
//! assert_eq!(session.metrics.counter("my.counter"), 1);
//! let chrome_json = session.tracer.export_chrome();
//! # let _ = chrome_json;
//! ```
//!
//! Sessions are deliberately thread-local: the simulator is
//! single-threaded per design point, and sweep harnesses that fan out
//! across threads install one session per worker and
//! [`Registry::absorb`] the results (histograms, quantiles and series all
//! merge rather than clobber).
//!
//! ## Request correlation
//!
//! A session carries an optional `request_id` / `shard_id` pair. The
//! serve engine sets them around admission and batch dispatch, and every
//! span recorded through [`Session::correlated_args`] picks them up, so
//! one request's admission → batch → layer → tile path reconstructs in
//! Perfetto by filtering on `req`.

pub mod diff;
pub mod export;
pub mod histogram;
pub mod json;
pub mod label;
pub mod metrics;
pub mod series;
pub mod trace;

pub use diff::{DiffOptions, DiffReport, DiffRow, Direction};
pub use export::{html_report, prometheus_text};
pub use histogram::QuantileHistogram;
pub use json::{JsonError, JsonValue, ToJson};
pub use label::{LabelSet, MetricKey};
pub use metrics::{Histogram, Registry, ABSORB_CONFLICTS};
pub use series::{SeriesBucket, TimeSeries};
pub use trace::{Phase, TraceEvent, Tracer, DEFAULT_CAPACITY, PID_SIM, PID_WALL};

use std::cell::RefCell;

/// One observability session: a tracer, a metrics registry, the virtual
/// cycle cursor the timing simulator advances, and the correlation
/// fields the serve engine threads through spans.
#[derive(Debug, Default)]
pub struct Session {
    /// Span/event ring buffer.
    pub tracer: Tracer,
    /// Counters, gauges, histograms, quantiles, series.
    pub metrics: Registry,
    /// Virtual timeline cursor for simulated-cycle spans: each
    /// `Simulator::simulate` call places its layer span here and advances
    /// the cursor by the layer's runtime cycles.
    pub sim_cycles: u64,
    /// The request currently being served, if any; spans recorded while
    /// set carry a `req` argument.
    pub request_id: Option<u64>,
    /// The shard/instance currently executing, if any; spans recorded
    /// while set carry a `shard` argument.
    pub shard_id: Option<u64>,
}

impl Session {
    /// Creates a session with the default tracer capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a session whose tracer holds at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            tracer: Tracer::new(capacity),
            ..Self::default()
        }
    }

    /// Appends the active correlation fields (`req`, `shard`) to a span
    /// argument list and returns it — instrumentation sites pass their
    /// own args through this so traces become request-filterable.
    #[must_use]
    pub fn correlated_args(&self, mut args: Vec<(String, JsonValue)>) -> Vec<(String, JsonValue)> {
        if let Some(req) = self.request_id {
            args.push(("req".to_owned(), JsonValue::UInt(req)));
        }
        if let Some(shard) = self.shard_id {
            args.push(("shard".to_owned(), JsonValue::UInt(shard)));
        }
        args
    }
}

thread_local! {
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// Installs a session on this thread, returning the previous one.
pub fn install(session: Session) -> Option<Session> {
    SESSION.with(|s| s.borrow_mut().replace(session))
}

/// Removes and returns this thread's session, disabling instrumentation.
pub fn take() -> Option<Session> {
    SESSION.with(|s| s.borrow_mut().take())
}

/// Whether a session is installed on this thread.
#[must_use]
pub fn is_enabled() -> bool {
    SESSION.with(|s| s.borrow().is_some())
}

/// Runs `f` against this thread's session, or does nothing when none is
/// installed. This is the single gate every instrumentation site goes
/// through: the disabled path is a thread-local load plus a branch.
pub fn with<F: FnOnce(&mut Session)>(f: F) {
    SESSION.with(|s| {
        if let Some(session) = s.borrow_mut().as_mut() {
            f(session);
        }
    });
}

/// Convenience: adds to a counter in the installed session (no-op when
/// disabled).
pub fn count(name: &str, v: u64) {
    with(|o| o.metrics.count(name, v));
}

/// Convenience: adds to a labeled counter (no-op when disabled; the
/// label slice is borrowed, so the disabled path does not allocate).
pub fn count_labeled(name: &str, labels: &[(&str, &str)], v: u64) {
    with(|o| o.metrics.count_labeled(name, labels, v));
}

/// Convenience: sets a gauge in the installed session (no-op when
/// disabled).
pub fn gauge(name: &str, v: f64) {
    with(|o| o.metrics.gauge(name, v));
}

/// Convenience: sets a labeled gauge (no-op when disabled).
pub fn gauge_labeled(name: &str, labels: &[(&str, &str)], v: f64) {
    with(|o| o.metrics.gauge_labeled(name, labels, v));
}

/// Convenience: records a histogram sample in the installed session
/// (no-op when disabled).
pub fn observe(name: &str, v: f64) {
    with(|o| o.metrics.observe(name, v));
}

/// Convenience: records a labeled histogram sample (no-op when
/// disabled).
pub fn observe_labeled(name: &str, labels: &[(&str, &str)], v: f64) {
    with(|o| o.metrics.observe_labeled(name, labels, v));
}

/// Convenience: records a quantile-histogram sample (no-op when
/// disabled).
pub fn record_quantile(name: &str, v: u64) {
    with(|o| o.metrics.record_quantile(name, v));
}

/// Convenience: records a labeled quantile-histogram sample (no-op
/// when disabled).
pub fn record_quantile_labeled(name: &str, labels: &[(&str, &str)], v: u64) {
    with(|o| o.metrics.record_quantile_labeled(name, labels, v));
}

/// Convenience: records a windowed time-series sample (no-op when
/// disabled).
pub fn series_record(name: &str, cycle: u64, v: f64) {
    with(|o| o.metrics.series_record(name, cycle, v));
}

/// Convenience: records a labeled windowed time-series sample (no-op
/// when disabled).
pub fn series_record_labeled(name: &str, labels: &[(&str, &str)], cycle: u64, v: f64) {
    with(|o| o.metrics.series_record_labeled(name, labels, cycle, v));
}

/// Sets (or clears) the request-correlation id on the installed session
/// (no-op when disabled).
pub fn set_request_id(id: Option<u64>) {
    with(|o| o.request_id = id);
}

/// Sets (or clears) the shard-correlation id on the installed session
/// (no-op when disabled).
pub fn set_shard_id(id: Option<u64>) {
    with(|o| o.shard_id = id);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_with_take_round_trip() {
        assert!(take().is_none());
        assert!(!is_enabled());
        install(Session::new());
        assert!(is_enabled());
        count("x", 2);
        count("x", 3);
        gauge("g", 1.0);
        observe("h", 4.0);
        let s = take().expect("session installed");
        assert_eq!(s.metrics.counter("x"), 5);
        assert_eq!(s.metrics.gauge_value("g"), Some(1.0));
        assert_eq!(s.metrics.histogram("h").unwrap().count(), 1);
        assert!(!is_enabled());
    }

    #[test]
    fn disabled_helpers_are_noops() {
        assert!(take().is_none());
        count("never", 1);
        gauge("never", 1.0);
        observe("never", 1.0);
        count_labeled("never", labels!("k" => "v"), 1);
        record_quantile("never", 1);
        series_record("never", 0, 1.0);
        set_request_id(Some(1));
        with(|_| panic!("must not run without a session"));
        assert!(take().is_none());
    }

    #[test]
    fn install_returns_previous_session() {
        install(Session::new());
        count("a", 1);
        let prev = install(Session::new()).expect("previous session");
        assert_eq!(prev.metrics.counter("a"), 1);
        let fresh = take().expect("fresh session");
        assert_eq!(fresh.metrics.counter("a"), 0);
    }

    #[test]
    fn labeled_helpers_hit_the_registry() {
        install(Session::new());
        count_labeled("c", labels!("k" => "v"), 2);
        gauge_labeled("g", labels!("k" => "v"), 1.5);
        observe_labeled("h", labels!("k" => "v"), 3.0);
        record_quantile_labeled("q", labels!("k" => "v"), 4);
        series_record_labeled("s", labels!("k" => "v"), 100, 1.0);
        let s = take().expect("installed");
        assert_eq!(s.metrics.counter_labeled("c", labels!("k" => "v")), 2);
        assert_eq!(
            s.metrics.gauge_value_labeled("g", labels!("k" => "v")),
            Some(1.5)
        );
        assert_eq!(
            s.metrics
                .histogram_labeled("h", labels!("k" => "v"))
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            s.metrics
                .quantile_labeled("q", labels!("k" => "v"))
                .unwrap()
                .percentile(50.0),
            Some(4)
        );
        assert_eq!(
            s.metrics
                .series_labeled("s", labels!("k" => "v"))
                .unwrap()
                .window_count(),
            1
        );
    }

    #[test]
    fn correlation_ids_thread_into_span_args() {
        install(Session::new());
        set_request_id(Some(7));
        set_shard_id(Some(3));
        with(|o| {
            let args = o.correlated_args(vec![("x".to_owned(), JsonValue::UInt(1))]);
            let ts = o.tracer.now_us();
            o.tracer
                .complete("work", "test", PID_WALL, 0, ts, 1.0, args);
        });
        set_request_id(None);
        set_shard_id(None);
        let s = take().expect("installed");
        let ev = s.tracer.events().next().expect("one span");
        let args = &ev.args;
        assert!(args
            .iter()
            .any(|(k, v)| k == "req" && v.as_u64() == Some(7)));
        assert!(args
            .iter()
            .any(|(k, v)| k == "shard" && v.as_u64() == Some(3)));
        assert_eq!(s.request_id, None);
        assert_eq!(s.shard_id, None);
    }
}
