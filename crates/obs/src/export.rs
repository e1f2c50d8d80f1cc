//! Registry exporters: Prometheus text exposition and a self-contained
//! HTML report.
//!
//! Both exporters are pure functions of a [`Registry`] snapshot and emit
//! deterministic output (the registry's `BTreeMap` ordering carries
//! through), so exported artifacts are diffable and CI can grep them.
//!
//! * [`prometheus_text`] follows the text exposition format version
//!   0.0.4: `# TYPE` headers, `name{label="value"}` sample lines, and
//!   `quantile=`-labeled summary lines for the histograms. Metric names
//!   are sanitized (`.` → `_`) to the Prometheus grammar.
//! * [`html_report`] renders one standalone HTML page — no external
//!   assets — with metric tables and inline SVG sparklines for every
//!   windowed time series, so a serve run's rolling arrival/rejection
//!   rates are viewable straight from the artifact store.

use crate::label::LabelSet;
use crate::metrics::Registry;
use crate::series::TimeSeries;

/// Rewrites a metric name into the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (dots and other separators become `_`).
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Renders a label set, optionally extended with extra pairs
/// (`quantile`), as the `{…}` clause of a sample line.
fn label_clause(labels: &LabelSet, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Emits a `# TYPE` header once per metric name within a sorted
/// iteration.
struct TypeHeader<'a> {
    kind: &'a str,
    last: Option<String>,
}

impl<'a> TypeHeader<'a> {
    fn new(kind: &'a str) -> Self {
        Self { kind, last: None }
    }

    fn emit(&mut self, out: &mut String, sanitized: &str) {
        if self.last.as_deref() != Some(sanitized) {
            out.push_str("# TYPE ");
            out.push_str(sanitized);
            out.push(' ');
            out.push_str(self.kind);
            out.push('\n');
            self.last = Some(sanitized.to_owned());
        }
    }
}

/// Exports the registry in the Prometheus text exposition format.
///
/// Counters and gauges map to their native Prometheus types; histograms
/// are exposed as summaries with `quantile="0.5" / "0.95" / "0.99"`
/// series. Windowed time series have no Prometheus equivalent and are
/// exposed through the JSON snapshot and [`html_report`] instead.
#[must_use]
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();

    let mut header = TypeHeader::new("counter");
    for (key, v) in registry.counters() {
        let name = sanitize_metric_name(key.name());
        header.emit(&mut out, &name);
        out.push_str(&name);
        out.push_str(&label_clause(key.labels(), &[]));
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }

    let mut header = TypeHeader::new("gauge");
    for (key, v) in registry.gauges() {
        let name = sanitize_metric_name(key.name());
        header.emit(&mut out, &name);
        out.push_str(&name);
        out.push_str(&label_clause(key.labels(), &[]));
        out.push(' ');
        out.push_str(&fmt_value(v));
        out.push('\n');
    }

    let mut header = TypeHeader::new("summary");
    for (key, s) in registry.histograms() {
        let name = sanitize_metric_name(key.name());
        header.emit(&mut out, &name);
        let quantiles = s.percentiles([50.0, 95.0, 99.0]);
        for (q, label) in quantiles.into_iter().zip(["0.5", "0.95", "0.99"]) {
            if let Some(v) = q {
                out.push_str(&name);
                out.push_str(&label_clause(key.labels(), &[("quantile", label)]));
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
        }
        out.push_str(&name);
        out.push_str("_sum");
        out.push_str(&label_clause(key.labels(), &[]));
        out.push(' ');
        out.push_str(&s.sum().to_string());
        out.push('\n');
        out.push_str(&name);
        out.push_str("_count");
        out.push_str(&label_clause(key.labels(), &[]));
        out.push(' ');
        out.push_str(&s.count().to_string());
        out.push('\n');
    }

    out
}

fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
    out
}

/// Renders one series as an inline SVG sparkline of per-bucket counts.
fn sparkline_svg(series: &TimeSeries) -> String {
    const W: f64 = 240.0;
    const H: f64 = 36.0;
    const PAD: f64 = 2.0;
    let counts: Vec<u64> = series.iter().map(|(_, b)| b.count).collect();
    if counts.is_empty() {
        return String::from("<svg width=\"240\" height=\"36\"></svg>");
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1) as f64;
    let n = counts.len();
    let step = if n > 1 {
        (W - 2.0 * PAD) / (n as f64 - 1.0)
    } else {
        0.0
    };
    let mut points = String::new();
    for (i, c) in counts.iter().enumerate() {
        let x = PAD + step * i as f64;
        let y = H - PAD - (H - 2.0 * PAD) * (*c as f64 / max);
        if i > 0 {
            points.push(' ');
        }
        points.push_str(&format!("{x:.1},{y:.1}"));
    }
    format!(
        "<svg width=\"240\" height=\"36\" viewBox=\"0 0 240 36\" \
         role=\"img\"><polyline fill=\"none\" stroke=\"#2b6cb0\" \
         stroke-width=\"1.5\" points=\"{points}\"/></svg>"
    )
}

fn table_open(out: &mut String, title: &str, headers: &[&str]) {
    out.push_str("<h2>");
    out.push_str(&escape_html(title));
    out.push_str("</h2>\n<table>\n<tr>");
    for h in headers {
        out.push_str("<th>");
        out.push_str(h);
        out.push_str("</th>");
    }
    out.push_str("</tr>\n");
}

fn td(out: &mut String, cell: &str) {
    out.push_str("<td>");
    out.push_str(&escape_html(cell));
    out.push_str("</td>");
}

/// Renders the registry as one self-contained HTML page: metric tables
/// plus an inline SVG sparkline per windowed time series. No external
/// assets, scripts or stylesheets are referenced.
#[must_use]
pub fn html_report(title: &str, registry: &Registry) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>");
    out.push_str(&escape_html(title));
    out.push_str("</title>\n<style>\n");
    out.push_str(
        "body{font-family:ui-monospace,monospace;margin:2em;color:#1a202c}\n\
         table{border-collapse:collapse;margin-bottom:1.5em}\n\
         th,td{border:1px solid #cbd5e0;padding:3px 10px;text-align:left;\
         font-size:13px}\nth{background:#edf2f7}\nh1{font-size:20px}\n\
         h2{font-size:16px;margin-top:1.2em}\n",
    );
    out.push_str("</style>\n</head>\n<body>\n<h1>");
    out.push_str(&escape_html(title));
    out.push_str("</h1>\n");

    if registry.counters().next().is_some() {
        table_open(&mut out, "Counters", &["metric", "value"]);
        for (key, v) in registry.counters() {
            out.push_str("<tr>");
            td(&mut out, &key.canonical());
            td(&mut out, &v.to_string());
            out.push_str("</tr>\n");
        }
        out.push_str("</table>\n");
    }

    if registry.gauges().next().is_some() {
        table_open(&mut out, "Gauges", &["metric", "value"]);
        for (key, v) in registry.gauges() {
            out.push_str("<tr>");
            td(&mut out, &key.canonical());
            td(&mut out, &fmt_value(v));
            out.push_str("</tr>\n");
        }
        out.push_str("</table>\n");
    }

    if registry.histograms().next().is_some() {
        table_open(
            &mut out,
            "Histograms",
            &["metric", "count", "p50", "p95", "p99", "min", "max"],
        );
        let cell = |v: Option<u64>| v.map_or_else(|| "-".into(), |v| v.to_string());
        for (key, s) in registry.histograms() {
            out.push_str("<tr>");
            td(&mut out, &key.canonical());
            td(&mut out, &s.count().to_string());
            for q in s.percentiles([50.0, 95.0, 99.0]) {
                td(&mut out, &cell(q));
            }
            td(&mut out, &cell(s.min()));
            td(&mut out, &cell(s.max()));
            out.push_str("</tr>\n");
        }
        out.push_str("</table>\n");
    }

    if registry.all_series().next().is_some() {
        table_open(
            &mut out,
            "Windowed series",
            &[
                "metric",
                "sparkline (per-bucket count)",
                "window events",
                "bucket width",
                "rate/cycle",
            ],
        );
        for (key, s) in registry.all_series() {
            out.push_str("<tr>");
            td(&mut out, &key.canonical());
            out.push_str("<td>");
            out.push_str(&sparkline_svg(s));
            out.push_str("</td>");
            td(&mut out, &s.window_count().to_string());
            td(&mut out, &s.bucket_width().to_string());
            td(&mut out, &format!("{:.6}", s.window_rate_per_cycle()));
            out.push_str("</tr>\n");
        }
        out.push_str("</table>\n");
    }

    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.count("sim.dram_bytes", 1024);
        r.count_labeled(
            "serve.rejected",
            labels!("class" => "edge", "prio" => "high"),
            3,
        );
        r.count_labeled(
            "serve.rejected",
            labels!("class" => "edge", "prio" => "normal"),
            5,
        );
        r.gauge("sim.utilization", 0.75);
        for v in 1..=100 {
            r.observe("serve.latency", v);
        }
        for c in 0..32 {
            r.series_record("serve.arrivals", c * 100, 1.0);
        }
        r
    }

    #[test]
    fn prometheus_counters_and_type_headers() {
        let text = prometheus_text(&sample_registry());
        assert!(text.contains("# TYPE sim_dram_bytes counter\n"));
        assert!(
            text.contains("\nsim_dram_bytes 1024\n") || text.starts_with("# TYPE serve_rejected")
        );
        assert!(text.contains("serve_rejected{class=\"edge\",prio=\"high\"} 3\n"));
        assert!(text.contains("serve_rejected{class=\"edge\",prio=\"normal\"} 5\n"));
        // One TYPE header per family, not per series.
        assert_eq!(text.matches("# TYPE serve_rejected counter").count(), 1);
    }

    #[test]
    fn prometheus_sketch_is_a_summary() {
        let text = prometheus_text(&sample_registry());
        assert!(text.contains("# TYPE serve_latency summary\n"));
        assert!(text.contains("serve_latency{quantile=\"0.5\"} 50\n"));
        assert!(text.contains("serve_latency{quantile=\"0.99\"} 99\n"));
        assert!(text.contains("serve_latency_sum 5050\n"));
        assert!(text.contains("serve_latency_count 100\n"));
    }

    #[test]
    fn prometheus_output_is_deterministic() {
        let a = prometheus_text(&sample_registry());
        let b = prometheus_text(&sample_registry());
        assert_eq!(a, b);
    }

    #[test]
    fn sanitizer_maps_to_grammar() {
        assert_eq!(sanitize_metric_name("sim.dram_bytes"), "sim_dram_bytes");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn html_report_is_self_contained() {
        let html = html_report("serve run", &sample_registry());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h1>serve run</h1>"));
        assert!(html.contains("serve.rejected{class=&quot;edge&quot;"));
        assert!(html.contains("<h2>Histograms</h2>"));
        assert!(html.contains("<td>serve.latency</td><td>100</td><td>50</td>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("polyline"));
        // Self-contained: no external references.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let r = Registry::new();
        assert_eq!(prometheus_text(&r), "");
        let html = html_report("empty", &r);
        assert!(html.contains("<h1>empty</h1>"));
    }
}
