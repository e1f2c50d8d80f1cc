//! A span/event tracer with a bounded ring buffer and a Chrome
//! `trace_event` exporter.
//!
//! Events carry explicit timestamps so that both time bases of the
//! workspace fit in one trace:
//!
//! * **wall time** — functional execution ([`GemmExecutor`]-level spans)
//!   stamps events with [`Tracer::now_us`], microseconds since the tracer
//!   was created;
//! * **simulated cycles** — the timing simulator is analytic (it never
//!   steps a clock), so its per-layer spans advance a virtual cycle
//!   cursor and record one cycle as one microsecond-unit tick.
//!
//! The two bases are kept apart by process-id lanes ([`PID_WALL`] and
//! [`PID_SIM`]) so `chrome://tracing` / Perfetto renders them as separate
//! tracks. The buffer is bounded: when full, the oldest events are
//! dropped and counted, never reallocated — tracing a long network sweep
//! cannot exhaust memory.
//!
//! [`GemmExecutor`]: ../usystolic_core/struct.GemmExecutor.html

use crate::json::{JsonValue, ToJson};
use std::collections::VecDeque;
use std::time::Instant;

/// Trace lane for wall-clock (host execution) events.
pub const PID_WALL: u32 = 1;
/// Trace lane for simulated-cycle (timing model) events.
pub const PID_SIM: u32 = 2;

/// The Chrome `trace_event` phases the tracer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `"X"` — a complete span with a duration.
    Complete,
    /// `"i"` — an instant event.
    Instant,
    /// `"C"` — a counter sample.
    Counter,
}

impl Phase {
    /// The single-character phase code of the trace_event format.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }
}

/// One trace event, aligned with the Chrome `trace_event` JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`name`).
    pub name: String,
    /// Category (`cat`), used by trace viewers to filter.
    pub cat: &'static str,
    /// Phase (`ph`).
    pub ph: Phase,
    /// Timestamp in microsecond units (`ts`).
    pub ts: f64,
    /// Duration in microsecond units (`dur`, complete spans only).
    pub dur: f64,
    /// Process-id lane (`pid`): [`PID_WALL`] or [`PID_SIM`].
    pub pid: u32,
    /// Thread-id lane (`tid`).
    pub tid: u32,
    /// Free-form arguments (`args`).
    pub args: Vec<(String, JsonValue)>,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("name".to_owned(), JsonValue::Str(self.name.clone())),
            ("cat".to_owned(), JsonValue::Str(self.cat.to_owned())),
            ("ph".to_owned(), JsonValue::Str(self.ph.code().to_owned())),
            ("ts".to_owned(), JsonValue::Float(self.ts)),
            ("pid".to_owned(), JsonValue::UInt(u64::from(self.pid))),
            ("tid".to_owned(), JsonValue::UInt(u64::from(self.tid))),
        ];
        if self.ph == Phase::Complete {
            pairs.insert(4, ("dur".to_owned(), JsonValue::Float(self.dur)));
        }
        if !self.args.is_empty() {
            pairs.push(("args".to_owned(), JsonValue::Object(self.args.clone())));
        }
        JsonValue::Object(pairs)
    }
}

/// A bounded-ring-buffer tracer.
#[derive(Debug)]
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    epoch: Instant,
}

/// Default event capacity: enough for a full AlexNet sweep with per-tile
/// spans while staying well under 100 MB.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl Default for Tracer {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Self {
            events: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity,
            dropped: 0,
            epoch: Instant::now(),
        }
    }

    /// A tracer that records nothing, for a session that keeps only
    /// metrics: every span is discarded before it is stored, and none
    /// counts as dropped.
    #[must_use]
    pub fn off() -> Self {
        Self {
            events: VecDeque::new(),
            capacity: 0,
            dropped: 0,
            epoch: Instant::now(),
        }
    }

    /// Whether the tracer records events (false only for
    /// [`off`](Self::off)). Instrumentation whose span is costly to build
    /// checks it first.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Microseconds of wall time since the tracer was created.
    #[must_use]
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1.0e6
    }

    fn push(&mut self, ev: TraceEvent) {
        if !self.enabled() {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Records a complete span (`ph: "X"`).
    #[allow(clippy::too_many_arguments)] // mirrors the trace_event field list
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u32,
        ts: f64,
        dur: f64,
        args: Vec<(String, JsonValue)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::Complete,
            ts,
            dur,
            pid,
            tid,
            args,
        });
    }

    /// Records an instant event (`ph: "i"`).
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u32,
        ts: f64,
        args: Vec<(String, JsonValue)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::Instant,
            ts,
            dur: 0.0,
            pid,
            tid,
            args,
        });
    }

    /// Records a counter sample (`ph: "C"`): trace viewers plot these as a
    /// stacked time series.
    pub fn counter(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        ts: f64,
        value: f64,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: Phase::Counter,
            ts,
            dur: 0.0,
            pid,
            tid: 0,
            args: vec![("value".to_owned(), JsonValue::Float(value))],
        });
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the ring buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity (0 for [`off`](Self::off)).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Exports the buffer as a Chrome `trace_event` JSON object —
    /// loadable in `chrome://tracing` and Perfetto.
    #[must_use]
    pub fn export_chrome(&self) -> String {
        let events: Vec<JsonValue> = self.events.iter().map(ToJson::to_json).collect();
        JsonValue::object(vec![
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", JsonValue::Str("ms".to_owned())),
            (
                "otherData",
                JsonValue::object(vec![
                    ("producer", JsonValue::Str("usystolic-obs".to_owned())),
                    ("droppedEvents", JsonValue::UInt(self.dropped)),
                ]),
            ),
        ])
        .render()
    }

    /// Writes the Chrome trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.export_chrome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t: &mut Tracer, name: &str, ts: f64) {
        t.complete(name, "test", PID_SIM, 0, ts, 1.0, vec![]);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = Tracer::new(3);
        for i in 0..5 {
            span(&mut t, &format!("e{i}"), i as f64);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let names: Vec<&str> = t.events().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
    }

    #[test]
    fn an_off_tracer_keeps_and_drops_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled() && Tracer::default().enabled());
        for i in 0..5 {
            span(&mut t, &format!("e{i}"), i as f64);
        }
        t.instant("i", "test", PID_SIM, 0, 0.0, vec![]);
        t.counter("c", "test", PID_SIM, 0.0, 1.0);
        assert!(t.is_empty());
        assert_eq!((t.dropped(), t.capacity()), (0, 0));
    }

    #[test]
    fn chrome_export_is_valid_json_with_required_keys() {
        let mut t = Tracer::new(16);
        t.complete(
            "layer",
            "sim",
            PID_SIM,
            0,
            0.0,
            42.0,
            vec![("macs".to_owned(), JsonValue::UInt(100))],
        );
        t.instant("start", "sim", PID_SIM, 0, 0.0, vec![]);
        t.counter("dram_bw", "sim", PID_SIM, 1.0, 0.25);
        let parsed = JsonValue::parse(&t.export_chrome()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let complete = &events[0];
        assert_eq!(complete.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(complete.get("dur").unwrap().as_f64(), Some(42.0));
        assert_eq!(
            complete.get("pid").unwrap().as_u64(),
            Some(u64::from(PID_SIM))
        );
        assert_eq!(
            complete.get("args").unwrap().get("macs").unwrap().as_u64(),
            Some(100)
        );
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(events[2].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }

    #[test]
    fn chrome_export_carries_drop_count() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            span(&mut t, &format!("e{i}"), i as f64);
        }
        let parsed = JsonValue::parse(&t.export_chrome()).unwrap();
        let other = parsed.get("otherData").unwrap();
        assert_eq!(other.get("droppedEvents").unwrap().as_u64(), Some(3));
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn now_us_is_monotonic() {
        let t = Tracer::new(4);
        let a = t.now_us();
        let b = t.now_us();
        assert!(b >= a);
    }

    #[test]
    fn instant_has_no_dur_key() {
        let mut t = Tracer::new(4);
        t.instant("i", "c", PID_WALL, 0, 0.0, vec![]);
        let j = t.events().next().unwrap().to_json();
        assert!(j.get("dur").is_none());
    }
}
