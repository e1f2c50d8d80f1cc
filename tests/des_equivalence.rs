//! Golden equivalence for the event calendar (`crates/des`).
//!
//! The five files under `tests/golden/` pin `sim_cli` and `serve_cli`
//! output. These tests parse each capture's argv through the CLIs' own
//! argument layer (`usystolic_bench::cli`), rebuild the JSON record
//! in-process and assert the engines reproduce the pinned bytes bit for
//! bit — report fields *and* obs metric snapshots — at every worker
//! count.
//! The serve event loop's own `des.*` metrics are not in the captures,
//! so they are stripped before the golden comparison and asserted
//! present separately; everything else must not move by a single bit.

use usystolic::arch::{kernel_paths, ComputingScheme};
use usystolic::des::Fidelity;
use usystolic::hw::evaluate_layer_with;
use usystolic::hw::summary::NetworkEvaluation;
use usystolic::obs::{JsonValue, ToJson};
use usystolic::serve::{serve, ServeConfig, Workload};
use usystolic_bench::cli::{self, ServeArgs, SimArgs};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {path}: {e}"))
        .trim_end()
        .to_owned()
}

/// Drops the event loop's own `des.*` keys from every metrics section —
/// the only keys the captures leave out.
fn strip_des_metrics(mut metrics: JsonValue) -> JsonValue {
    if let JsonValue::Object(sections) = &mut metrics {
        for (_, section) in sections.iter_mut() {
            if let JsonValue::Object(entries) = section {
                entries.retain(|(key, _)| !key.starts_with("des."));
            }
        }
    }
    metrics
}

/// Splits a space-separated argv the way a shell would for these
/// quote-free command lines.
fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_owned).collect()
}

/// `serve_cli --seed 7 --workers W --instances 4 --arrival-rate 2000000
/// --duration 0.002 --queue-depth 16 --deadline 1.0 --json`.
fn overload_config(workers: usize) -> (ServeConfig, Vec<Workload>) {
    let args = ServeArgs::parse(argv(&format!(
        "--seed 7 --workers {workers} --instances 4 --arrival-rate 2000000 \
         --duration 0.002 --queue-depth 16 --deadline 1.0 --json"
    )))
    .expect("valid argv");
    (args.config, args.workloads)
}

/// `serve_cli --matmul 64,64,64 --instances 2 --duration 0.01
/// --arrival-rate 2000 --shard-fail 4,1 --retry-max 3 --retry-backoff
/// 0.05 --retry-jitter 250 --timeout 2 --brownout 500,600 --shed-expired
/// --fault-seed 11 --workers W --json`.
fn shardkill_config(workers: usize) -> (ServeConfig, Vec<Workload>) {
    let args = ServeArgs::parse(argv(&format!(
        "--matmul 64,64,64 --instances 2 --duration 0.01 --arrival-rate 2000 \
         --shard-fail 4,1 --retry-max 3 --retry-backoff 0.05 --retry-jitter 250 \
         --timeout 2 --brownout 500,600 --shed-expired --fault-seed 11 \
         --workers {workers} --json"
    )))
    .expect("valid argv");
    (args.config, args.workloads)
}

/// Runs the engine under a fresh obs session and rebuilds `serve_cli`'s
/// `--json` record. Returns `(record, metrics)` so callers can compare
/// both the des-stripped and untouched renders.
fn serve_record(config: &ServeConfig, workloads: &[Workload]) -> (JsonValue, JsonValue) {
    let prior = usystolic::obs::take();
    usystolic::obs::install(usystolic::obs::Session::new());
    let report = serve(config, workloads).expect("valid config");
    let session = usystolic::obs::take().unwrap_or_default();
    if let Some(p) = prior {
        usystolic::obs::install(p);
    }
    let metrics = session.metrics.to_json();
    (cli::serve_record(config, &report, metrics.clone()), metrics)
}

/// The report renders `"workers":N` exactly once; pin it to 1 so runs at
/// different worker counts are byte-comparable.
fn normalize_workers(render: &str, workers: usize) -> String {
    render.replacen(&format!("\"workers\":{workers}"), "\"workers\":1", 1)
}

fn assert_serve_golden(name: &str, build: fn(usize) -> (ServeConfig, Vec<Workload>)) {
    let pinned = golden(name);
    let mut unfiltered = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (config, workloads) = build(workers);
        let (record, metrics) = serve_record(&config, &workloads);
        // Bit-for-bit against the capture, modulo the des.* keys and the
        // worker count baked into the report.
        let (mut stripped, report_rest) = match record.clone() {
            JsonValue::Object(mut pairs) => {
                let m = pairs.pop().expect("metrics last");
                (m, JsonValue::Object(pairs))
            }
            other => panic!("record is not an object: {other:?}"),
        };
        stripped.1 = strip_des_metrics(stripped.1);
        let filtered = match report_rest {
            JsonValue::Object(mut pairs) => {
                pairs.push(stripped);
                JsonValue::Object(pairs)
            }
            other => panic!("unreachable: {other:?}"),
        };
        assert_eq!(
            normalize_workers(&filtered.render(), workers),
            pinned,
            "{name} diverged from the pre-port golden at workers={workers}"
        );
        // The event loop's own metrics must be present and counted on
        // the sequential loop (identical at every worker count).
        if let JsonValue::Object(sections) = &metrics {
            let counters = sections
                .iter()
                .find(|(k, _)| k == "counters")
                .map(|(_, v)| v)
                .expect("counters section");
            if let JsonValue::Object(entries) = counters {
                for key in [
                    "des.events.scheduled",
                    "des.events.dispatched",
                    "des.dispatch{fidelity=\"cycle\"}",
                ] {
                    assert!(
                        entries.iter().any(|(k, _)| k == key),
                        "{name}: missing {key} at workers={workers}"
                    );
                }
            }
        }
        unfiltered.push(normalize_workers(&record.render(), workers));
    }
    // Worker-count invariance of the *unfiltered* record: even the des.*
    // series must not depend on the pool width.
    for render in &unfiltered[1..] {
        assert_eq!(render, &unfiltered[0], "{name}: workers changed a bit");
    }
}

#[test]
fn serve_overload_golden_is_bit_identical_at_every_worker_count() {
    assert_serve_golden("serve_seed7_overload.json", overload_config);
}

#[test]
fn serve_shardkill_golden_is_bit_identical_at_every_worker_count() {
    assert_serve_golden("serve_faults_shardkill.json", shardkill_config);
}

#[test]
fn serve_packed_tier_matches_cycle_accurate_bit_for_bit() {
    for build in [overload_config, shardkill_config] {
        let (config, workloads) = build(1);
        let (cycle, _) = serve_record(&config, &workloads);
        let mut packed_cfg = config.clone();
        packed_cfg.fidelity = Fidelity::Packed;
        let (packed, _) = serve_record(&packed_cfg, &workloads);
        // Reports must be identical; only the fidelity label on
        // des.dispatch may differ, so compare des-stripped renders.
        let strip = |v: JsonValue| match v {
            JsonValue::Object(mut pairs) => {
                for (k, section) in pairs.iter_mut() {
                    if k == "metrics" {
                        *section = strip_des_metrics(section.clone());
                    }
                }
                JsonValue::Object(pairs)
            }
            other => other,
        };
        assert_eq!(strip(cycle).render(), strip(packed).render());
    }
}

/// `sim_cli ARGV --json`, rebuilt in-process: the layer or network
/// record without the optional scaling and faults sections.
fn sim_json(line: &str) -> String {
    let args = SimArgs::parse(argv(line)).expect("valid argv");
    let sim = args.simulator().expect("valid array");
    let pairs = match (&args.gemm, &args.network) {
        (Some(gemm), _) => {
            let ev = evaluate_layer_with(&sim, gemm);
            cli::sim_record(&sim, ("gemm", gemm.to_json()), ev.to_json())
        }
        (None, Some(net)) => {
            let ev = NetworkEvaluation::evaluate_with(&sim, &net.gemms());
            cli::sim_record(&sim, ("network", net.to_json()), ev.to_json())
        }
        (None, None) => panic!("{line}: nothing to simulate"),
    };
    JsonValue::object(pairs).render()
}

#[test]
fn sim_layer_goldens_are_bit_identical() {
    assert_eq!(
        sim_json("--scheme UR --cycles 128 --no-sram --conv 31,31,96,5,5,1,256 --json"),
        golden("sim_ur128_conv2.json")
    );
    assert_eq!(
        sim_json("--scheme BP --matmul 64,64,64 --json"),
        golden("sim_bp_matmul64.json")
    );
}

#[test]
fn sim_network_golden_survives_the_des_port() {
    // The network path times its layers in order and must not move a
    // single bit.
    assert_eq!(
        sim_json("--scheme UR --network mnist --json"),
        golden("sim_ur_mnist.json")
    );
}

#[test]
fn analytic_tier_tracks_exact_latency_within_tolerance() {
    let (config, workloads) = overload_config(1);
    let exact = serve(&config, &workloads).expect("valid");
    let mut analytic_cfg = config.clone();
    analytic_cfg.fidelity = Fidelity::Analytic;
    let analytic = serve(&analytic_cfg, &workloads).expect("valid");
    assert_eq!(exact.lost(), 0);
    assert_eq!(analytic.lost(), 0);
    let tolerance = |a: u64, b: u64| {
        let (a, b) = (a as f64, b as f64);
        (a - b).abs() / b.max(1.0) <= 0.25
    };
    assert!(
        tolerance(analytic.latency.p50_cycles, exact.latency.p50_cycles),
        "analytic p50 {} vs exact {}",
        analytic.latency.p50_cycles,
        exact.latency.p50_cycles
    );
    assert!(
        tolerance(analytic.service.p50_cycles, exact.service.p50_cycles),
        "analytic service p50 {} vs exact {}",
        analytic.service.p50_cycles,
        exact.service.p50_cycles
    );
}

#[test]
fn kernel_dispatch_table_agrees_with_the_analyzer() {
    // Satellite check: KernelMode::Auto's static per-scheme table and
    // the analyzer's independently derived paths never drift apart.
    for scheme in [
        ComputingScheme::BinaryParallel,
        ComputingScheme::BinarySerial,
        ComputingScheme::UGemmHybrid,
        ComputingScheme::UnaryRate,
        ComputingScheme::UnaryTemporal,
    ] {
        assert_eq!(
            kernel_paths(scheme),
            usystolic::analyze::derive_kernel_paths(scheme).as_slice(),
            "kernel table drifted for {scheme:?}"
        );
    }
}
