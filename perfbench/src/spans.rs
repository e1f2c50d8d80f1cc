//! In-memory spans recorded by the benchmark around its calls into each
//! layer (crate) of the program.
//!
//! The program itself is not instrumented: a span covers one call the
//! benchmark makes into a crate's public API. A disabled recorder only
//! runs the closure, so untraced iterations execute the same code.

use std::collections::BTreeMap;
use std::time::Instant;
use usystolic_obs::{JsonValue, ToJson};

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    /// What was called, e.g. `core.exec_lowered_s.ur8`.
    name: &'static str,
    /// The crate (stack layer) the call enters, e.g. `core`.
    layer: &'static str,
    /// Nanoseconds since the recorder's origin.
    start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder; disabled recorders keep nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans.
    pub fn enabled(origin: Instant) -> Self {
        Self {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that only runs the closures it is given.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.nest(layer, name, |_| f())
    }

    /// Like [`span`](Self::span), for a closure that records child spans
    /// on this recorder.
    pub fn nest<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children run sequentially inside their parent).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Self seconds summed per span name.
    pub fn self_s_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Self seconds summed per layer, over the spans under `root`
    /// (the root itself included).
    pub fn self_s_by_layer_under(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.descends_from(i, root) {
                *out.entry(s.layer).or_insert(0.0) += own[i] as f64 * 1e-9;
            }
        }
        out
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }
}

impl ToJson for Spans {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::object(vec![
                        ("name", s.name.to_json()),
                        ("layer", s.layer.to_json()),
                        ("start_ns", s.start_ns.to_json()),
                        ("end_ns", s.end_ns.to_json()),
                        (
                            "parent",
                            s.parent.map_or(JsonValue::Null, |p| (p as u64).to_json()),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
