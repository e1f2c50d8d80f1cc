//! End-to-end observability coverage: trace export shape, counter
//! reconciliation against the simulator's own report, and the
//! instrumented functional path.
//!
//! The zero-overhead (no-session) contract is pinned separately in
//! `crates/obs/tests/noop_overhead.rs` with a counting global allocator.

use usystolic::arch::{ComputingScheme, GemmExecutor, SystolicConfig};
use usystolic::gemm::{FeatureMap, GemmConfig, WeightSet};
use usystolic::hw::evaluate_layer;
use usystolic::models::zoo;
use usystolic::obs::{self, JsonValue, ToJson};
use usystolic::sim::{MemoryHierarchy, MultiInstanceSystem, Simulator};

fn alexnet_conv2() -> GemmConfig {
    GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).unwrap()
}

fn crawling_edge() -> SystolicConfig {
    SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
        .with_mul_cycles(128)
        .unwrap()
}

/// The Chrome `trace_event` export of a simulated layer matches the
/// golden shape `chrome://tracing` / Perfetto require: a `traceEvents`
/// array of objects with `name`/`cat`/`ph`/`ts`/`pid`/`tid`, `dur` on
/// complete spans, and the top-level `displayTimeUnit`.
#[test]
fn chrome_trace_export_has_golden_shape() {
    obs::install(obs::Session::new());
    let sim = Simulator::new(crawling_edge(), MemoryHierarchy::no_sram());
    let report = sim.simulate(&alexnet_conv2());
    let session = obs::take().expect("session installed");

    let parsed = JsonValue::parse(&session.tracer.export_chrome()).expect("valid JSON");
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ms")
    );
    assert!(parsed
        .get("otherData")
        .and_then(|o| o.get("producer"))
        .is_some());

    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty());
    for ev in events {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(
                ev.get(key).is_some(),
                "event missing {key}: {}",
                ev.render()
            );
        }
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap();
        assert!(["X", "i", "C"].contains(&ph), "unknown phase {ph}");
        if ph == "X" {
            assert!(ev.get("dur").and_then(JsonValue::as_f64).is_some());
        }
    }

    // The layer span sits on the simulated-cycle lane, one tick per
    // cycle, and carries the report's own numbers as args.
    let span = events
        .iter()
        .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .expect("layer span");
    assert_eq!(
        span.get("pid").and_then(JsonValue::as_u64),
        Some(u64::from(obs::PID_SIM))
    );
    assert_eq!(
        span.get("dur").and_then(JsonValue::as_f64),
        Some(report.timing.runtime_cycles as f64)
    );
    assert_eq!(
        span.get("args")
            .and_then(|a| a.get("macs"))
            .and_then(JsonValue::as_u64),
        Some(report.macs)
    );
}

/// The metrics a simulation run accumulates reconcile exactly with the
/// `LayerReport` the same run returns — no double counting anywhere in
/// the traffic/timing/report call chain.
#[test]
fn simulator_counters_reconcile_with_report() {
    obs::install(obs::Session::new());
    let sim = Simulator::new(crawling_edge(), MemoryHierarchy::no_sram());
    let report = sim.simulate(&alexnet_conv2());
    let session = obs::take().expect("session installed");
    let m = &session.metrics;

    assert_eq!(m.counter("sim.layers"), 1);
    assert_eq!(m.counter("sim.macs"), report.macs);
    assert_eq!(m.counter("sim.dram_bytes"), report.traffic.dram.total());
    assert_eq!(m.counter("sim.dram_ifm_bytes"), report.traffic.dram.ifm);
    assert_eq!(
        m.counter("sim.dram_weight_bytes"),
        report.traffic.dram.weight
    );
    assert_eq!(m.counter("sim.dram_ofm_bytes"), report.traffic.dram.ofm);
    assert_eq!(m.counter("sim.sram_bytes"), report.traffic.sram.total());
    assert_eq!(m.counter("sim.ideal_cycles"), report.timing.ideal_cycles);
    assert_eq!(m.counter("sim.stall_cycles"), report.timing.stall_cycles);
    assert_eq!(
        m.counter("sim.runtime_cycles"),
        report.timing.runtime_cycles
    );
    assert_eq!(m.gauge_value("sim.utilization"), Some(report.utilization));
}

/// `sim_cli --instances` evaluates the layer once and rescales that
/// report: the session holds one layer's `sim.*` counters, the same as a
/// run without `--instances`, plus the scaling query's own.
#[test]
fn instances_query_records_one_layers_sim_counters() {
    let memory = MemoryHierarchy::no_sram();
    let run = |instances: Option<usize>| {
        obs::install(obs::Session::new());
        let ev = evaluate_layer(&crawling_edge(), &memory, &alexnet_conv2());
        if let Some(n) = instances {
            let _ = MultiInstanceSystem::new(crawling_edge(), memory).scale(&ev.report, n);
        }
        (ev.report, obs::take().expect("session installed").metrics)
    };
    let (report, scaled) = run(Some(16));
    let (_, alone) = run(None);
    assert_eq!(scaled.counter("sim.layers"), 1);
    assert_eq!(
        scaled.counter("sim.dram_bytes"),
        report.traffic.dram.total()
    );
    assert_eq!(scaled.counter("sim.scaling_queries"), 1);
    let layer_counters = |m: &obs::Registry| -> Vec<(String, u64)> {
        m.counters()
            .filter(|(k, _)| k.name() != "sim.scaling_queries")
            .map(|(k, v)| (k.canonical(), v))
            .collect()
    };
    assert_eq!(layer_counters(&scaled), layer_counters(&alone));
}

/// Counters accumulate across a multi-layer network simulation.
#[test]
fn network_counters_sum_over_layers() {
    obs::install(obs::Session::new());
    let sim = Simulator::new(
        SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
        MemoryHierarchy::edge_with_sram(),
    );
    let layers = [alexnet_conv2(), GemmConfig::matmul(1, 9216, 4096).unwrap()];
    let reports = sim.simulate_network(&layers);
    let session = obs::take().expect("session installed");

    assert_eq!(session.metrics.counter("sim.layers"), reports.len() as u64);
    assert_eq!(
        session.metrics.counter("sim.dram_bytes"),
        reports.iter().map(|r| r.traffic.dram.total()).sum::<u64>()
    );
    assert_eq!(
        session.metrics.counter("sim.runtime_cycles"),
        reports.iter().map(|r| r.timing.runtime_cycles).sum::<u64>()
    );
    // Layer spans abut on the virtual cycle cursor.
    assert_eq!(
        session.sim_cycles,
        session.metrics.counter("sim.runtime_cycles")
    );
}

/// The functional execution path emits wall-clock spans (executor +
/// per-tile) and MAC-window counters that match the returned stats.
#[test]
fn functional_execution_traces_wall_clock_spans() {
    obs::install(obs::Session::new());
    let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).unwrap();
    let gemm = GemmConfig::conv(5, 5, 2, 2, 2, 1, 3).unwrap();
    let input = FeatureMap::from_fn(5, 5, 2, |h, w, c| (h + w + c) as f64 * 0.05 - 0.3);
    let weights = WeightSet::from_fn(3, 2, 2, 2, |oc, wh, ww, ic| {
        (oc + wh + ww + ic) as f64 * 0.04 - 0.2
    });
    let outcome = GemmExecutor::new(cfg)
        .execute(&gemm, &input, &weights)
        .unwrap();
    let session = obs::take().expect("session installed");

    assert_eq!(session.metrics.counter("core.gemm_executions"), 1);
    assert_eq!(
        session.metrics.counter("core.mac_windows"),
        outcome.stats.mac_windows
    );
    assert_eq!(
        session.metrics.counter("core.cycle.packed_pe_cycles"),
        outcome.stats.compute_cycles
    );

    let spans: Vec<_> = session
        .tracer
        .events()
        .filter(|e| e.pid == obs::PID_WALL && e.ph == obs::Phase::Complete)
        .collect();
    assert!(
        spans.iter().any(|e| e.name.starts_with("gemm.execute")),
        "executor span"
    );
    assert!(
        spans.iter().any(|e| e.name.contains("tile")),
        "per-tile spans"
    );
    for span in spans {
        assert!(span.dur >= 0.0, "negative duration in {}", span.name);
    }
}

// ---------------------------------------------------------------------------
// Fleet-grade telemetry: dimensional metrics, histograms, series, correlation.
// ---------------------------------------------------------------------------

use usystolic::serve::loadgen::{ArrivalProcess, LoadGenConfig};
use usystolic::serve::{serve, FleetFaultPlan, LatencySummary, ServeConfig, Workload};

/// An overloaded two-instance pool: enough completions (>600) for
/// meaningful tail percentiles, and enough pressure on the bounded queue
/// to produce rejections for the labeled counters.
fn overloaded_pool(workers: usize) -> (ServeConfig, Vec<Workload>) {
    let gemm = GemmConfig::matmul(64, 64, 64).unwrap();
    let workloads = vec![Workload::from_gemm("matmul64", gemm)];
    let config = ServeConfig {
        array: SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
        memory: MemoryHierarchy::edge_with_sram(),
        instances: 2,
        queue_capacity: 8,
        max_batch: 4,
        workers,
        duration_cycles: 4_000_000,
        load: LoadGenConfig {
            process: ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: 1000.0,
            },
            seed: 7,
            classes: workloads.len(),
            high_priority_fraction: 0.25,
            deadline_cycles: None,
        },
        faults: FleetFaultPlan::default(),
        fidelity: usystolic::serve::Fidelity::CycleAccurate,
    };
    (config, workloads)
}

/// The session's latency quantiles and the serve report read one
/// histogram type over the same samples, so p50/p95/p99 agree exactly.
#[test]
fn serve_latency_sketch_agrees_with_exact_histogram() {
    obs::install(obs::Session::new());
    let (config, workloads) = overloaded_pool(1);
    let report = serve(&config, &workloads).unwrap();
    let session = obs::take().expect("session installed");

    let latency = session
        .metrics
        .histogram("serve.latency_cycles")
        .expect("latency quantiles recorded");
    assert_eq!(latency.count(), report.latency.count);
    assert!(
        latency.count() > 600,
        "need a non-trivial sample, got {}",
        latency.count()
    );
    for (p, exact) in [
        (50.0, report.latency.p50_cycles),
        (95.0, report.latency.p95_cycles),
        (99.0, report.latency.p99_cycles),
    ] {
        assert_eq!(latency.percentile(p), Some(exact), "p{p}");
    }

    // The queue-wait quantiles saw every completion too, and the
    // per-class partition adds back up to the unlabeled total.
    let wait = session
        .metrics
        .histogram("serve.queue_wait_cycles")
        .expect("queue-wait quantiles");
    assert_eq!(wait.count(), report.queue_wait.count);
    assert_eq!(LatencySummary::from(wait), report.queue_wait);
    let by_class = session
        .metrics
        .histogram_labeled("serve.latency_cycles", &[("class", "matmul64")])
        .expect("per-class latency quantiles");
    assert_eq!(by_class.count(), latency.count());
}

/// Labeled counters partition their unlabeled totals: rejected and
/// completed split by `{class, priority}` sum back to the report's
/// scalars, and the windowed arrival series preserves every sample.
#[test]
fn serve_labeled_metrics_reconcile_with_report() {
    obs::install(obs::Session::new());
    let (config, workloads) = overloaded_pool(1);
    let report = serve(&config, &workloads).unwrap();
    let session = obs::take().expect("session installed");
    let m = &session.metrics;

    assert!(report.rejected > 0, "test needs an overloaded queue");
    for (name, total) in [
        ("serve.rejected", report.rejected),
        ("serve.completed", report.completed),
    ] {
        let by_label: u64 = ["normal", "high"]
            .iter()
            .map(|prio| m.counter_labeled(name, &[("class", "matmul64"), ("priority", prio)]))
            .sum();
        assert_eq!(by_label, total, "{name} labels must partition the total");
        assert_eq!(m.counter(name), total, "{name} unlabeled total");
    }

    let arrivals = m.series("serve.arrivals").expect("arrival series");
    let seen: f64 = arrivals.iter().map(|(_, b)| b.count as f64).sum();
    assert_eq!(seen as u64, report.offered, "series kept every arrival");
    assert_eq!(arrivals.late_samples(), 0);
    let rejections = m.series("serve.rejections").expect("rejection series");
    let rej: f64 = rejections.iter().map(|(_, b)| b.count as f64).sum();
    assert_eq!(rej as u64, report.rejected);

    // One batch-size sample per dispatched batch, partitioned by class,
    // and one latency sample per completion.
    let samples =
        |name, labels: &[(&str, &str)]| m.histogram_labeled(name, labels).map_or(0, |h| h.count());
    assert_eq!(samples("serve.batch_size", &[]), report.batches);
    let by_class: u64 = workloads
        .iter()
        .map(|w| samples("serve.batch_size", &[("class", w.name.as_str())]))
        .sum();
    assert_eq!(by_class, report.batches, "batch-size classes partition");
    assert_eq!(samples("serve.latency_cycles", &[]), report.completed);
}

/// The `serve.rejections` series samples every request that leaves
/// unserved, whatever the reason, so its samples add up to the
/// `serve.rejections{reason}` counters: on a run that sheds by deadline
/// and loses both shards, those sheds and shard-down failures included.
#[test]
fn rejection_series_counts_every_unserved_request() {
    let args = usystolic_bench::cli::ServeArgs::parse(
        "--network mnist --instances 2 --duration 0.02 --arrival-rate 40000 \
         --shard-fail 4,1 --shard-fail 6,2 --retry-max 0 --deadline 1 --shed-expired"
            .split_whitespace()
            .map(str::to_owned),
    )
    .expect("valid argv");
    obs::install(obs::Session::new());
    serve(&args.config, &args.workloads).unwrap();
    let session = obs::take().expect("session installed");
    let m = &session.metrics;

    let by_reason = |reason| m.counter_labeled("serve.rejections", &[("reason", reason)]);
    assert!(by_reason("deadline") > 0, "the run must shed by deadline");
    assert!(by_reason("shard_down") > 0, "the run must lose shards");
    let rejections: u64 = m
        .counters()
        .filter(|(key, _)| key.name() == "serve.rejections")
        .map(|(_, v)| v)
        .sum();
    let series = m.series("serve.rejections").expect("rejection series");
    assert_eq!(
        series.window_count() + series.late_samples(),
        rejections,
        "one series sample per unserved request"
    );
}

/// The metrics registry — labeled counters, histograms, windowed series and
/// all — renders bit-identically for every worker count: the host pool
/// only parallelises pure phases, so telemetry is part of the
/// determinism contract. The multi-layer class gives the profile phase
/// more than one task, so past one worker it really runs on pool threads.
#[test]
fn serve_metrics_bit_identical_across_worker_counts() {
    let mut renders = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        obs::install(obs::Session::new());
        let (config, mut workloads) = overloaded_pool(workers);
        workloads.push(Workload::from_network(&zoo::mnist_cnn4()));
        serve(&config, &workloads).unwrap();
        let session = obs::take().expect("session installed");
        renders.push((workers, session.metrics.to_json().render()));
    }
    let (_, baseline) = &renders[0];
    for (workers, render) in &renders[1..] {
        assert_eq!(
            render, baseline,
            "metrics diverged between workers=1 and workers={workers}"
        );
    }
}

/// Batch spans carry the request correlation a trace viewer needs to
/// reconstruct one request's admission → batch → completion path: the
/// lead request id, the instance (shard), and the full batch id list.
#[test]
fn serve_spans_carry_request_correlation() {
    obs::install(obs::Session::new());
    let (config, workloads) = overloaded_pool(1);
    let report = serve(&config, &workloads).unwrap();
    let session = obs::take().expect("session installed");

    let arg = |span: &obs::TraceEvent, key: &str| {
        span.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let batches: Vec<_> = session
        .tracer
        .events()
        .filter(|e| e.ph == obs::Phase::Complete && e.name.starts_with("batch"))
        .collect();
    assert!(!batches.is_empty(), "batch spans recorded");
    let mut correlated_ids = 0u64;
    for span in &batches {
        let req = arg(span, "req").and_then(|v| v.as_u64()).expect("req arg");
        let shard = arg(span, "shard")
            .and_then(|v| v.as_u64())
            .expect("shard arg");
        assert!((1..=report.instances as u64).contains(&shard));
        let ids = arg(span, "req_ids").expect("req_ids arg");
        let ids = ids.as_array().expect("req_ids array");
        assert_eq!(ids.first().and_then(JsonValue::as_u64), Some(req));
        correlated_ids += ids.len() as u64;
    }
    // Every admitted request appears in exactly one batch span (the ring
    // is large enough for this run to keep them all).
    assert_eq!(correlated_ids, report.admitted);
    assert_eq!(session.tracer.dropped(), 0);

    // Rejection instants carry the rejected request's id too.
    let rejected = session
        .tracer
        .events()
        .find(|e| e.ph == obs::Phase::Instant && e.name == "rejected")
        .expect("rejection instant");
    assert!(arg(rejected, "req").and_then(|v| v.as_u64()).is_some());
}
