//! Command-line load harness for the serving simulator.
//!
//! ```sh
//! cargo run --release -p usystolic-bench --bin serve_cli -- \
//!     --seed 7 --workers 4 --instances 4 \
//!     --arrival-rate 2000000 --duration 0.002
//! cargo run --release -p usystolic-bench --bin serve_cli -- \
//!     --network mnist --instances 8 --arrival-rate 2000 --duration 0.5 \
//!     --deadline 2.0 --json
//! cargo run --release -p usystolic-bench --bin serve_cli -- \
//!     --closed-loop 16 --think 0.1 --duration 0.01 --max-batch 8
//! ```
//!
//! The run is **bit-for-bit deterministic**: the same seed and
//! configuration print the same report (including `--json`) on every run
//! and for every `--workers` value — the worker pool only parallelises
//! pure phases. Under overload the bounded admission queue rejects
//! explicitly; rejections, deadline misses and exact p50/p95/p99
//! latencies all land in the report. `--trace`/`--metrics` export the
//! observability session (per-batch spans on the simulated-cycle lane,
//! queue-depth gauges, stage histograms).

use std::process::ExitCode;

use usystolic_analyze::{check_serving, Report, ServingSpec};
use usystolic_bench::cli::{self, serve_record, CliError, ServeArgs};
use usystolic_obs::{JsonValue, ToJson};
use usystolic_serve::loadgen::ArrivalProcess;
use usystolic_serve::workload::{LayerProfile, WorkloadProfile};
use usystolic_serve::{serve, LatencySummary, ServeConfig, ServeReport, Workload};
use usystolic_sim::CLOCK_HZ;

fn ms(cycles: u64) -> f64 {
    ServeReport::cycles_to_ms(cycles)
}

fn print_stage(name: &str, s: &LatencySummary) {
    println!(
        "{name:<12} p50 {:>10.4} ms   p95 {:>10.4} ms   p99 {:>10.4} ms   max {:>10.4} ms",
        ms(s.p50_cycles),
        ms(s.p95_cycles),
        ms(s.p99_cycles),
        ms(s.max_cycles)
    );
}

/// The static `USY07x` pre-flight (`--check`): feasibility verdicts from
/// the closed-form service model, without simulating a single event.
fn run_check(json: bool, config: &ServeConfig, workloads: &[Workload]) -> cli::Result<ExitCode> {
    if config.instances == 0 || config.max_batch == 0 {
        return Err(CliError::Invalid(
            "--check needs at least one instance and a non-zero --max-batch".to_owned(),
        ));
    }
    let mean_interarrival_cycles = match config.load.process {
        ArrivalProcess::OpenPoisson {
            mean_interarrival_cycles,
        } => mean_interarrival_cycles,
        ArrivalProcess::OpenUniform { interval_cycles } => interval_cycles as f64,
        // A closed loop self-limits: it never offers more than the
        // system completes, so the overload bound is vacuous.
        ArrivalProcess::ClosedLoop { .. } => f64::INFINITY,
    };
    let spec = ServingSpec {
        mean_interarrival_cycles,
        instances: config.instances,
        max_batch: config.max_batch,
        queue_capacity: config.queue_capacity,
        deadline_cycles: config.load.deadline_cycles,
    };

    let mut report = Report::default();
    let mut estimates = Vec::new();
    for wl in workloads {
        let layers: Vec<LayerProfile> = wl
            .layers
            .iter()
            .map(|g| LayerProfile::compute(g, &config.array, &config.memory))
            .collect();
        let profile = WorkloadProfile::from_layers(&wl.name, &layers, &config.memory);
        let estimate = profile.service_estimate(config.max_batch, config.instances);
        report.merge(check_serving(&estimate, &spec));
        estimates.push(estimate);
    }
    // Requests per second the pool completes at full batches.
    let capacity_per_s = |batch_cycles: u64| {
        spec.instances as f64 * spec.max_batch as f64 / batch_cycles.max(1) as f64 * CLOCK_HZ
    };

    if json {
        let classes: Vec<JsonValue> = estimates
            .iter()
            .map(|e| {
                JsonValue::object(vec![
                    ("name", e.name.to_json()),
                    ("batch_cycles", e.batch_cycles.to_json()),
                    ("single_request_cycles", e.single_cycles.to_json()),
                    ("dram_limited", e.dram_limited.to_json()),
                    (
                        "capacity_req_per_s",
                        capacity_per_s(e.batch_cycles).to_json(),
                    ),
                ])
            })
            .collect();
        let record = JsonValue::object(vec![
            ("config", config.array.to_json()),
            ("memory", config.memory.to_json()),
            ("instances", spec.instances.to_json()),
            ("max_batch", spec.max_batch.to_json()),
            ("queue_capacity", spec.queue_capacity.to_json()),
            (
                "mean_interarrival_cycles",
                spec.mean_interarrival_cycles.to_json(),
            ),
            ("workloads", JsonValue::Array(classes)),
            ("report", report.to_json()),
        ]);
        println!("{}", record.render());
    } else {
        println!("array:      {}", config.array);
        println!(
            "pool:       {} instance(s), queue {} deep, batch <= {}",
            spec.instances, spec.queue_capacity, spec.max_batch
        );
        match config.load.process {
            ArrivalProcess::OpenPoisson { .. } => println!(
                "arrivals:   open Poisson, {:.1} req/s offered",
                CLOCK_HZ / mean_interarrival_cycles
            ),
            ArrivalProcess::OpenUniform { .. } => println!(
                "arrivals:   open uniform, {:.1} req/s offered",
                CLOCK_HZ / mean_interarrival_cycles
            ),
            ArrivalProcess::ClosedLoop { clients, .. } => {
                println!("arrivals:   closed loop, {clients} client(s) (cannot overload)");
            }
        }
        println!();
        println!(
            "{:<24} {:>14} {:>14} {:>14}  dram",
            "workload", "min lat (ms)", "batch (cyc)", "cap (req/s)"
        );
        for e in &estimates {
            println!(
                "{:<24} {:>14.4} {:>14} {:>14.1}  {}",
                e.name,
                ms(e.single_cycles),
                e.batch_cycles,
                capacity_per_s(e.batch_cycles),
                if e.dram_limited { "limited" } else { "ok" }
            );
        }
        println!();
        println!("{report}");
        println!(
            "serving plan is {}",
            if report.is_legal() {
                "FEASIBLE"
            } else {
                "INFEASIBLE"
            }
        );
    }
    Ok(ExitCode::from(u8::from(!report.is_legal())))
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| cli::fail("serve_cli", cli::SERVE_USAGE, &e))
}

/// Parses argv, then checks or serves.
fn run() -> cli::Result<ExitCode> {
    let ServeArgs {
        obs,
        check,
        config,
        workloads,
    } = ServeArgs::parse(std::env::args().skip(1))?;
    if check {
        return run_check(obs.json, &config, &workloads);
    }

    // The session also feeds the --json "metrics" section, so install it
    // unconditionally; every recorded value is simulation-derived (no
    // wall-clock), keeping the output bit-for-bit reproducible.
    usystolic_obs::install(usystolic_obs::Session::new());
    let report = serve(&config, &workloads).map_err(|e| e.to_string())?;
    let session = usystolic_obs::take().unwrap_or_default();
    obs.export_session("serve_cli", &session)?;

    if obs.json {
        let record = serve_record(&config, &report, session.metrics.to_json());
        println!("{}", record.render());
        return Ok(ExitCode::SUCCESS);
    }

    println!("array:      {}", config.array);
    println!(
        "pool:       {} instance(s), {} worker(s), queue {} deep, batch <= {}",
        report.instances, report.workers, report.queue_capacity, report.max_batch
    );
    println!("workloads:  {}", report.workload_names.join(", "));
    println!(
        "horizon:    {:.4} ms ({} cycles), makespan {:.4} ms",
        ms(report.duration_cycles),
        report.duration_cycles,
        ms(report.makespan_cycles)
    );
    println!();
    println!(
        "offered {}   admitted {}   rejected {}   completed {}   deadline missed {}",
        report.offered, report.admitted, report.rejected, report.completed, report.deadline_missed
    );
    println!(
        "batches {}   mean batch {:.2}   max queue depth {}   utilization {:.1}%",
        report.batches,
        report.mean_batch_size(),
        report.max_queue_depth,
        100.0 * report.mean_utilization
    );
    println!("throughput  {:.1} req/s", report.throughput_per_s);
    if !config.faults.is_quiet() {
        println!(
            "resilience  crashes {}   retries {}   failovers {}   timed out {}   failed {}   \
             brownout {}   lost {}",
            report.shard_crashes,
            report.retries,
            report.failovers,
            report.timed_out,
            report.failed,
            report.brownout_requests,
            report.lost()
        );
    }
    println!();
    print_stage("latency", &report.latency);
    print_stage("queue wait", &report.queue_wait);
    print_stage("service", &report.service);
    Ok(ExitCode::SUCCESS)
}
