//! Tier-1 contracts of the serving subsystem (`crates/serve`):
//!
//! * determinism — one seed produces identical per-request timelines for
//!   any worker count and on repeated runs;
//! * admission — the bounded queue never exceeds its capacity and
//!   rejects explicitly under overload;
//! * deadlines — the missed counter matches a closed-form oracle on a
//!   constant-service `D/D/1` workload;
//! * percentiles — the streaming histogram matches a sorted-vector
//!   nearest-rank reference on real report data;
//! * bounded calendar — an open loop keeps one arrival ahead on the event
//!   calendar, not its whole arrival stream.

use usystolic::arch::{ComputingScheme, SystolicConfig};
use usystolic::gemm::GemmConfig;
use usystolic::obs;
use usystolic::serve::loadgen::{ArrivalProcess, LoadGenConfig};
use usystolic::serve::{
    serve, serve_with, FleetFaultPlan, LayerProfile, RequestRecord, ServeConfig, ServeReport,
    Workload, WorkloadProfile,
};
use usystolic::sim::MemoryHierarchy;

fn m64() -> Workload {
    Workload::from_gemm("m64", GemmConfig::matmul(64, 64, 64).unwrap())
}

fn base_config(process: ArrivalProcess, seed: u64) -> ServeConfig {
    ServeConfig {
        array: SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
        memory: MemoryHierarchy::edge_with_sram(),
        instances: 2,
        queue_capacity: 32,
        max_batch: 4,
        workers: 1,
        duration_cycles: 400_000,
        load: LoadGenConfig {
            process,
            seed,
            classes: 1,
            high_priority_fraction: 0.25,
            deadline_cycles: Some(50_000),
        },
        faults: FleetFaultPlan::default(),
        fidelity: usystolic::serve::Fidelity::CycleAccurate,
    }
}

fn poisson(mean: f64) -> ArrivalProcess {
    ArrivalProcess::OpenPoisson {
        mean_interarrival_cycles: mean,
    }
}

/// Runs the engine and collects every per-request record through its
/// record sink, in the order the engine hands them out.
fn serve_recorded(
    config: &ServeConfig,
    workloads: &[Workload],
) -> (ServeReport, Vec<RequestRecord>) {
    let mut records = Vec::new();
    let report =
        serve_with(config, workloads, |r: &RequestRecord| records.push(*r)).expect("valid config");
    (report, records)
}

/// One seed ⇒ one result, bit for bit, whatever the worker count. The
/// worker pool only parallelises pure phases, so `workers` must never
/// change a single per-request timeline.
#[test]
fn fixed_seed_is_deterministic_across_worker_counts() {
    let workloads = [
        m64(),
        Workload::from_gemm("m128", GemmConfig::matmul(128, 64, 64).unwrap()),
    ];
    let run = |workers: usize| -> (ServeReport, Vec<RequestRecord>) {
        let mut config = base_config(poisson(2_000.0), 7);
        config.workers = workers;
        serve_recorded(&config, &workloads)
    };
    let (one, one_records) = run(1);
    assert!(one.completed > 0, "workload must actually serve requests");
    for workers in [2, 4, 8] {
        let (other, other_records) = run(workers);
        // Identical per-request timelines, in the same order...
        assert_eq!(one_records, other_records, "workers={workers}");
        // ...and identical derived statistics.
        assert_eq!(one.latency, other.latency, "workers={workers}");
        assert_eq!(one.queue_wait, other.queue_wait, "workers={workers}");
        assert_eq!(one.service, other.service, "workers={workers}");
        assert_eq!(one.deadline_missed, other.deadline_missed);
        assert_eq!(one.instance_busy_cycles, other.instance_busy_cycles);
    }
    // Repeated runs reproduce too; a different seed does not.
    assert_eq!(run(4).1, one_records);
    let mut reseeded = base_config(poisson(2_000.0), 8);
    reseeded.workers = 4;
    let (_, other_seed_records) = serve_recorded(&reseeded, &workloads);
    assert_ne!(one_records, other_seed_records);
}

/// Overload: the admission queue never grows past its bound, rejections
/// are explicit and non-zero, and the request ledger balances.
#[test]
fn admission_bounds_the_queue_under_overload() {
    let mut config = base_config(poisson(50.0), 3); // ~8000 arrivals/400k cycles
    config.queue_capacity = 16;
    config.instances = 1;
    let (report, records) = serve_recorded(&config, &[m64()]);
    assert!(report.rejected > 0, "overload must reject");
    assert!(
        report.max_queue_depth <= config.queue_capacity,
        "{} > {}",
        report.max_queue_depth,
        config.queue_capacity
    );
    assert_eq!(report.offered, report.admitted + report.rejected);
    assert_eq!(report.admitted, report.completed, "admitted work drains");
    assert_eq!(
        u64::try_from(records.len()).unwrap(),
        report.offered,
        "one record per offered request"
    );
}

/// Constant-service `D/D/1` oracle: uniform arrivals every `T ≥ S` with a
/// single class, one instance and batch 1 make every latency exactly the
/// closed-form service time `S`, so the deadline-missed counter is all-
/// or-nothing around `S`.
#[test]
fn deadline_misses_match_the_constant_service_oracle() {
    let array = SystolicConfig::edge(ComputingScheme::BinaryParallel, 8);
    let memory = MemoryHierarchy::edge_with_sram();
    let workload = m64();
    let profile = WorkloadProfile::from_layers(
        &workload.name,
        &[LayerProfile::compute(&workload.layers[0], &array, &memory)],
        &memory,
    );
    let service = profile.service_cycles(1, 1);
    let interval = service + 100; // T ≥ S: no queueing ever builds up
    let arrivals = 100_000u64.div_ceil(interval); // arrivals in the horizon

    let run = |deadline: Option<u64>| -> ServeReport {
        let config = ServeConfig {
            array,
            memory,
            instances: 1,
            queue_capacity: 4,
            max_batch: 1,
            workers: 2,
            duration_cycles: 100_000,
            load: LoadGenConfig {
                process: ArrivalProcess::OpenUniform {
                    interval_cycles: interval,
                },
                seed: 1,
                classes: 1,
                high_priority_fraction: 0.0,
                deadline_cycles: deadline,
            },
            faults: FleetFaultPlan::default(),
            fidelity: usystolic::serve::Fidelity::CycleAccurate,
        };
        serve(&config, std::slice::from_ref(&workload)).expect("valid config")
    };

    // Sanity: every request completes with latency exactly S.
    let baseline = run(None);
    assert_eq!(baseline.completed, arrivals);
    assert_eq!(baseline.rejected, 0);
    assert_eq!(baseline.latency.p50_cycles, service);
    assert_eq!(baseline.latency.p99_cycles, service);
    assert_eq!(baseline.latency.max_cycles, service);
    assert_eq!(baseline.deadline_missed, 0);

    // Deadline one cycle short of S: every request misses.
    assert_eq!(run(Some(service - 1)).deadline_missed, arrivals);
    // Deadline exactly S: none miss (completion == deadline is on time).
    assert_eq!(run(Some(service)).deadline_missed, 0);
}

/// The report's percentile summaries agree with a sorted-vector
/// nearest-rank reference recomputed from the raw per-request records.
#[test]
fn report_percentiles_match_sorted_vector_reference() {
    let config = base_config(poisson(600.0), 11);
    let (report, records) = serve_recorded(&config, &[m64()]);
    assert!(report.completed > 100, "need a non-trivial sample");

    let mut latencies: Vec<u64> = records.iter().filter_map(|r| r.latency_cycles()).collect();
    latencies.sort_unstable();
    let reference = |p: f64| -> u64 {
        let rank = ((p / 100.0 * latencies.len() as f64).ceil() as usize).max(1);
        latencies[rank - 1]
    };
    assert_eq!(report.latency.count, latencies.len() as u64);
    assert_eq!(report.latency.p50_cycles, reference(50.0));
    assert_eq!(report.latency.p95_cycles, reference(95.0));
    assert_eq!(report.latency.p99_cycles, reference(99.0));
    assert_eq!(report.latency.max_cycles, *latencies.last().unwrap());

    // And the standalone histogram agrees sample by sample.
    let mut h = obs::QuantileHistogram::new();
    for &v in &latencies {
        h.observe(v);
    }
    for p in [10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
        assert_eq!(h.percentile(p), Some(reference(p)), "p{p}");
    }
}

/// Closed-loop load self-throttles: offered load tracks completions, so
/// a bounded client population cannot overload the admission queue.
#[test]
fn closed_loop_never_rejects_with_enough_queue() {
    let mut config = base_config(
        ArrivalProcess::ClosedLoop {
            clients: 8,
            think_cycles: 500,
        },
        5,
    );
    config.queue_capacity = 8; // exactly the client population
    let report = serve(&config, &[m64()]).expect("valid config");
    assert!(report.completed > 0);
    assert_eq!(report.rejected, 0, "at most one outstanding per client");
    assert!(report.max_queue_depth <= 8);
}

/// An open loop draws its arrivals one ahead, so the event calendar holds
/// at most one pending arrival plus one completion per instance, never
/// the whole arrival stream. Without faults or timeouts nothing else is
/// ever scheduled, so every bucket of the engine's post-dispatch
/// `des.queue_depth{component="fleet"}` series averages at most
/// `instances + 1`.
#[test]
fn open_loop_calendar_stays_bounded_by_the_fleet() {
    let mut config = base_config(poisson(500.0), 19);
    // Inside the default series window (64 buckets of 4096 cycles), drain
    // tail included, so every dispatch lands in a retained bucket.
    config.duration_cycles = 200_000;
    let prior = obs::install(obs::Session::new());
    let report = serve(&config, &[m64()]).expect("valid config");
    let session = obs::take().expect("session installed");
    if let Some(p) = prior {
        obs::install(p);
    }
    assert!(report.offered > 300, "need a real arrival stream");
    let depth = session
        .metrics
        .series_labeled("des.queue_depth", &[("component", "fleet")])
        .expect("the engine records calendar depth");
    assert_eq!(depth.late_samples(), 0, "window must cover the whole run");
    assert_eq!(depth.start_cycle(), 0);
    let bound = (config.instances + 1) as f64;
    for (cycle, bucket) in depth.iter() {
        assert!(
            bucket.mean() <= bound,
            "calendar averaged {} pending events in the bucket at cycle {cycle}, \
             more than {bound} ({} offered)",
            bucket.mean(),
            report.offered
        );
    }
}
