//! Golden equivalence for the event calendar (`crates/des`).
//!
//! The files under `tests/golden/` pin `sim_cli` and `serve_cli`
//! output. These tests parse each capture's argv through the CLIs' own
//! argument layer (`usystolic_bench::cli`), rebuild the JSON record
//! in-process and assert the engines reproduce the pinned bytes bit for
//! bit — report fields *and* obs metric snapshots — at every worker
//! count.
//! The serve event loop's own `des.*` metrics are not in the captures,
//! so they are stripped before the golden comparison and asserted
//! present separately; everything else must not move by a single bit.
//!
//! The ignored `regenerate_serve_goldens` test writes every serve
//! capture through that same path into `$CARGO_TARGET_TMPDIR/goldens/`:
//!
//! ```sh
//! cargo test -q --test des_equivalence -- --ignored regenerate
//! ```
//!
//! `scripts/verify.sh` runs it and `cmp`s each written file against
//! `tests/golden/`; after a legitimate change to serve's output, copy
//! the written files over the captures.

use usystolic::des::Fidelity;
use usystolic::hw::evaluate_layer;
use usystolic::hw::summary::NetworkEvaluation;
use usystolic::obs::{JsonValue, ToJson};
use usystolic::serve::{
    serve, ArrivalProcess, LayerProfile, RetryPolicy, ServeConfig, ShardFailure, ShardSlowdown,
    Workload, WorkloadProfile,
};
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

/// `serve_cli --matmul 64,64,64 --instances 96 --duration 0.01
/// --arrival-rate 400000 --queue-depth 256 --shard-fail 2,70 --shard-fail
/// 3,1 --retry-max 2 --timeout 0.1 --fault-seed 5 --workers W --json`:
/// every instance busy, so the lowest idle instance is picked across more
/// than one 64-bit word, and a crash lands above instance 64.
fn fleet96_config(workers: usize) -> (ServeConfig, Vec<Workload>) {
    let args = ServeArgs::parse(argv(&format!(
        "--matmul 64,64,64 --instances 96 --duration 0.01 --arrival-rate 400000 \
         --queue-depth 256 --shard-fail 2,70 --shard-fail 3,1 --retry-max 2 \
         --timeout 0.1 --fault-seed 5 --workers {workers} --json"
    )))
    .expect("valid argv");
    (args.config, args.workloads)
}

/// Batch-1 service cycles of the single class of `workloads`, asserted
/// the same at every concurrency up to `config.instances` (no shared-DRAM
/// stretch), so a `--max-batch 1` fleet completes a fixed time after
/// each dispatch.
fn batch1_service_cycles(config: &ServeConfig, workloads: &[Workload]) -> u64 {
    let layers: Vec<LayerProfile> = workloads[0]
        .layers
        .iter()
        .map(|g| LayerProfile::compute(g, &config.array, &config.memory))
        .collect();
    let profile = WorkloadProfile::from_layers(&workloads[0].name, &layers, &config.memory);
    let service = profile.service_cycles(1, 1);
    assert!(
        (1..=config.instances).all(|c| profile.service_cycles(1, c) == service),
        "batch-1 service must not depend on concurrency"
    );
    service
}

/// `serve_cli --matmul 64,64,64 --instances 3 --queue-depth 6 --max-batch 1
/// --workers W --json` on a grid of `S / 4` cycles, `S` being the batch-1
/// service time: uniform arrivals every `S / 4` (an open loop no CLI flag
/// makes), a 6-step timeout, a crash of instance 2 at step 41 (mid-batch)
/// whose request retries after 2 steps, and instance 3 at half speed from
/// step 80. Every event lands on a step, so completions, the crash,
/// timeouts, retries and arrivals share cycles and the same-cycle class
/// order decides the outcome: a timeout that frees a queue slot before a
/// same-cycle arrival turns a rejection into an admission.
fn ties_open_config(workers: usize) -> (ServeConfig, Vec<Workload>) {
    let args = ServeArgs::parse(argv(&format!(
        "--matmul 64,64,64 --instances 3 --queue-depth 6 --max-batch 1 \
         --workers {workers} --json"
    )))
    .expect("valid argv");
    let (mut config, workloads) = (args.config, args.workloads);
    let service = batch1_service_cycles(&config, &workloads);
    assert_eq!(service % 4, 0, "the grid step must divide the service time");
    let step = service / 4;
    config.load.process = ArrivalProcess::OpenUniform {
        interval_cycles: step,
    };
    config.duration_cycles = 200 * step;
    config.faults.timeout_cycles = Some(6 * step);
    config.faults.failures = vec![ShardFailure {
        at: 41 * step,
        instance: 2,
    }];
    config.faults.slowdowns = vec![ShardSlowdown {
        at: 80 * step,
        instance: 3,
        factor_percent: 200,
    }];
    config.faults.retry = RetryPolicy {
        max_retries: 2,
        backoff_base_cycles: 2 * step,
        jitter_permille: 0,
    };
    (config, workloads)
}

/// [`ties_open_config`]'s fleet and fault plan under a closed loop of 8
/// clients with no think time: each completion issues its client's next
/// request on the same cycle, and the 2 × `S` timeout of a request
/// admitted on a completion lands on that instance's completion two
/// batches later.
fn ties_closed_config(workers: usize) -> (ServeConfig, Vec<Workload>) {
    let (mut config, workloads) = ties_open_config(workers);
    let service = batch1_service_cycles(&config, &workloads);
    config.load.process = ArrivalProcess::ClosedLoop {
        clients: 8,
        think_cycles: 0,
    };
    config.faults.timeout_cycles = Some(2 * service);
    (config, workloads)
}

/// Builds a serve capture's config and workloads at a worker count.
type Build = fn(usize) -> (ServeConfig, Vec<Workload>);

/// Every serve capture under `tests/golden/` and the argv that makes it.
const SERVE_GOLDENS: [(&str, Build); 5] = [
    ("serve_seed7_overload.json", overload_config),
    ("serve_faults_shardkill.json", shardkill_config),
    ("serve_fleet96_shardkill.json", fleet96_config),
    ("serve_ties_open.json", ties_open_config),
    ("serve_ties_closed.json", ties_closed_config),
];

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

/// The record as the captures pin it: `des.*` keys dropped from the
/// trailing metrics section and the worker count normalised to 1.
fn golden_render(record: &JsonValue, workers: usize) -> String {
    let filtered = match record.clone() {
        JsonValue::Object(mut pairs) => {
            let (key, metrics) = pairs.pop().expect("metrics last");
            pairs.push((key, strip_des_metrics(metrics)));
            JsonValue::Object(pairs)
        }
        other => panic!("record is not an object: {other:?}"),
    };
    normalize_workers(&filtered.render(), workers)
}

fn assert_serve_golden(name: &str, build: Build) {
    let pinned = golden(name);
    let mut unfiltered = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (config, workloads) = build(workers);
        let (record, metrics) = serve_record(&config, &workloads);
        // Bit-for-bit against the capture, modulo the des.* keys and the
        // worker count baked into the report.
        assert_eq!(
            golden_render(&record, workers),
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
                assert!(
                    entries.iter().any(|(k, _)| k == "des.events.dispatched"),
                    "{name}: missing des.events.dispatched at workers={workers}"
                );
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
fn serve_fleet96_golden_is_bit_identical_at_every_worker_count() {
    assert_serve_golden("serve_fleet96_shardkill.json", fleet96_config);
}

#[test]
fn serve_open_loop_ties_golden_is_bit_identical_at_every_worker_count() {
    assert_serve_golden("serve_ties_open.json", ties_open_config);
}

#[test]
fn serve_closed_loop_ties_golden_is_bit_identical_at_every_worker_count() {
    assert_serve_golden("serve_ties_closed.json", ties_closed_config);
}

/// Writes every serve capture, rendered exactly as the comparisons above
/// read it, to `$CARGO_TARGET_TMPDIR/goldens/`. Ignored because it only
/// writes; `scripts/verify.sh` runs it and compares the files with
/// `tests/golden/`.
#[test]
#[ignore = "writes captures; run by scripts/verify.sh"]
fn regenerate_serve_goldens() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens");
    std::fs::create_dir_all(&dir).expect("create the capture directory");
    for (name, build) in SERVE_GOLDENS {
        let (config, workloads) = build(1);
        let (record, _) = serve_record(&config, &workloads);
        let path = dir.join(name);
        std::fs::write(&path, golden_render(&record, 1) + "\n")
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}

#[test]
fn serve_packed_tier_matches_cycle_accurate_bit_for_bit() {
    for (_, build) in SERVE_GOLDENS {
        let (config, workloads) = build(1);
        let (cycle, _) = serve_record(&config, &workloads);
        let mut packed_cfg = config.clone();
        packed_cfg.fidelity = Fidelity::Packed;
        let (packed, _) = serve_record(&packed_cfg, &workloads);
        // Reports and metrics, des.* included, must be identical.
        assert_eq!(cycle.render(), packed.render());
    }
}

/// `sim_cli ARGV --json`, rebuilt in-process: the layer or network
/// record without the optional scaling and faults sections.
fn sim_json(line: &str) -> String {
    let args = SimArgs::parse(argv(line)).expect("valid argv");
    let sim = args.simulator().expect("valid array");
    let pairs = match (&args.gemm, &args.network) {
        (Some(gemm), _) => {
            let ev = evaluate_layer(sim.config(), sim.memory(), gemm);
            cli::sim_record(&sim, ("gemm", gemm.to_json()), ev.to_json())
        }
        (None, Some(net)) => {
            let ev = NetworkEvaluation::evaluate(sim.config(), sim.memory(), &net.gemms());
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
