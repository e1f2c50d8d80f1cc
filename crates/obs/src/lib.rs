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
//! * [`metrics`] — counters, gauges, histograms and windowed time series,
//!   all label-aware;
//! * [`histogram`] — the one distribution type: exact nearest-rank
//!   percentiles below [`histogram::CAP`] distinct values, rounded to
//!   fewer significant bits above it;
//! * [`series`] — rings of fixed-width cycle buckets for rolling rates;
//! * [`trace`] — a bounded-ring-buffer span/event tracer exporting Chrome
//!   `trace_event` JSON (loadable in `chrome://tracing` / Perfetto);
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
//! obs::with(|o| {
//!     o.metrics.count("my.counter", 1);
//!     o.metrics.observe_labeled("my.wait_ns", obs::labels!("class" => "edge"), 250);
//! });
//! let session = obs::take().expect("installed above");
//! assert_eq!(session.metrics.counter("my.counter"), 1);
//! let chrome_json = session.tracer.export_chrome();
//! # let _ = chrome_json;
//! ```
//!
//! Sessions are deliberately thread-local: only the thread that
//! installed a session records. Work that runs on pool threads hands its
//! numbers back to that thread instead: the parallel tile sweep's tasks
//! return their fold timings with their partial sums, and the calling
//! thread records every fold's span and sample, so the telemetry is the
//! same at any worker count.

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
pub use metrics::Registry;
pub use series::{SeriesBucket, TimeSeries};
pub use trace::{Phase, TraceEvent, Tracer, DEFAULT_CAPACITY, PID_SIM, PID_WALL};

use std::cell::RefCell;

/// One observability session: a tracer, a metrics registry and the
/// virtual cycle cursor the timing simulator advances.
#[derive(Debug, Default)]
pub struct Session {
    /// Span/event ring buffer.
    pub tracer: Tracer,
    /// Counters, gauges, histograms, series.
    pub metrics: Registry,
    /// Virtual timeline cursor for simulated-cycle spans: each
    /// `Simulator::simulate` call places its layer span here and advances
    /// the cursor by the layer's runtime cycles.
    pub sim_cycles: u64,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_with_take_round_trip() {
        assert!(take().is_none());
        install(Session::new());
        with(|o| {
            o.metrics.count("x", 2);
            o.metrics.count("x", 3);
            o.metrics.gauge("g", 1.0);
            o.metrics.observe("h", 4);
        });
        let s = take().expect("session installed");
        assert_eq!(s.metrics.counter("x"), 5);
        assert_eq!(s.metrics.gauge_value("g"), Some(1.0));
        assert_eq!(s.metrics.histogram("h").unwrap().count(), 1);
        assert!(take().is_none());
    }

    #[test]
    fn disabled_helpers_are_noops() {
        assert!(take().is_none());
        with(|_| panic!("must not run without a session"));
        assert!(take().is_none());
    }

    #[test]
    fn install_returns_previous_session() {
        install(Session::new());
        with(|o| o.metrics.count("a", 1));
        let prev = install(Session::new()).expect("previous session");
        assert_eq!(prev.metrics.counter("a"), 1);
        let fresh = take().expect("fresh session");
        assert_eq!(fresh.metrics.counter("a"), 0);
    }

    #[test]
    fn labeled_helpers_hit_the_registry() {
        install(Session::new());
        with(|o| {
            o.metrics.count_labeled("c", labels!("k" => "v"), 2);
            o.metrics.gauge_labeled("g", labels!("k" => "v"), 1.5);
            o.metrics.observe_labeled("h", labels!("k" => "v"), 4);
            o.metrics
                .series_record_labeled("s", labels!("k" => "v"), 100, 1.0);
        });
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
}
