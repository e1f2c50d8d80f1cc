//! Tier-1 contracts of the fault-injection layer (`crates/faults` and
//! the fleet faults of `crates/serve`):
//!
//! * graceful degradation — one flipped bit in a rate-coded stream of
//!   length `2^(N-1)` moves the decoded value by exactly one LSB, while
//!   a binary register flip at bit `i` is worth `2^i` (the MSB of the
//!   8-bit product register is worth `2^14`);
//! * determinism — same seed ⇒ identical fault sites, outputs and
//!   checksums, from both unary kernels, on repeated runs;
//! * conservation — shard crashes, retries, timeouts and brown-out
//!   never lose a request: the serving ledger always balances, at every
//!   worker count.

use usystolic::arch::{ComputingScheme, SystolicConfig};
use usystolic::faults::{
    faulty_binary_gemm, faulty_unary_gemm, product_register_bits, DeviceFaults, FaultKernel,
    GemmShape,
};
use usystolic::gemm::GemmConfig;
use usystolic::serve::loadgen::{ArrivalProcess, LoadGenConfig};
use usystolic::serve::{
    serve, serve_with, BrownoutPolicy, Disposition, FleetFaultPlan, RequestRecord, RetryPolicy,
    ServeConfig, ServeReport, ShardFailure, ShardSlowdown, Workload,
};
use usystolic::sim::MemoryHierarchy;
use usystolic::unary::bsg::ConditionalBsg;
use usystolic::unary::coding::Coding;
use usystolic::unary::packed::sequence;
use usystolic::unary::rng::{SobolSource, SplitMix64};
use usystolic::unary::stream_len;

/// One flipped bit in a rate-coded product stream of length `2^(N-1)`
/// changes the decoded value (the ones count) by exactly one LSB — for
/// every operand pair and every cycle position.
#[test]
fn one_rate_flip_moves_the_decoded_value_by_one_lsb() {
    let bitwidth = 8u32;
    let len = stream_len(bitwidth) as usize;
    assert_eq!(len, 1 << (bitwidth - 1));
    let ifm_seq = sequence(&mut SobolSource::dimension(1, bitwidth - 1), len as u64);
    let mut rng = SplitMix64::new(0x00F1_1B17);
    for _ in 0..24 {
        let x = rng.below(len as u64 + 1);
        let w = rng.below(len as u64 + 1);
        // The actual product bitstream the PE emits for |x|·|w|.
        let mut cbsg = ConditionalBsg::new(w, SobolSource::dimension(0, bitwidth - 1));
        let stream: Vec<bool> = ifm_seq.iter().map(|&s| cbsg.step(s < x)).collect();
        let decoded = stream.iter().filter(|&&b| b).count() as i64;
        for j in 0..len {
            let mut upset = stream.clone();
            upset[j] = !upset[j];
            let re_decoded = upset.iter().filter(|&&b| b).count() as i64;
            assert_eq!(
                (re_decoded - decoded).abs(),
                1,
                "flip at cycle {j} of |{x}|*|{w}| moved the value by more than one LSB"
            );
        }
    }
}

/// The binary baseline has no such bound: a flip at register bit `i`
/// changes the decoded product by `2^i`, and the 8-bit product register
/// tops out at `2^14` — sixteen thousand unary LSBs. Verified end to end
/// through the injection kernel's recorded fault sites.
#[test]
fn binary_register_flips_scale_with_bit_position() {
    let shape = GemmShape { m: 1, k: 1, n: 1 };
    assert_eq!(product_register_bits(8), 15);
    let clean = faulty_binary_gemm(&[96], &[85], shape, 8, &DeviceFaults::new(0))
        .expect("valid gemm")
        .output[0];
    assert_eq!(clean, 96 * 85);
    // Scan seeds for single-flip runs: deterministic, so each seed's
    // flip site and output delta are frozen facts.
    let mut seen_msb = false;
    let mut singles = 0u32;
    for seed in 0..400u64 {
        let model = DeviceFaults::new(seed).with_ber(0.05);
        let r = faulty_binary_gemm(&[96], &[85], shape, 8, &model).expect("valid gemm");
        if r.transient_flips != 1 {
            continue;
        }
        singles += 1;
        let bit = r.sites[0].cycle;
        assert_eq!(
            (r.output[0] - clean).abs(),
            1 << bit,
            "seed {seed}: flip at bit {bit} must be worth 2^{bit}"
        );
        seen_msb |= bit == 14;
        // The same seed on the unary kernel costs at most one LSB per
        // flip, however many land.
        let u = faulty_unary_gemm(
            &[96],
            &[85],
            shape,
            8,
            Coding::Rate,
            &model,
            FaultKernel::Packed,
        )
        .expect("valid gemm");
        let u_clean = faulty_unary_gemm(
            &[96],
            &[85],
            shape,
            8,
            Coding::Rate,
            &DeviceFaults::new(seed),
            FaultKernel::Packed,
        )
        .expect("valid gemm");
        assert!(
            (u.output[0] - u_clean.output[0]).unsigned_abs() <= u.transient_flips,
            "seed {seed}: unary error exceeded one LSB per flip"
        );
    }
    assert!(singles >= 20, "seed scan found too few single-flip runs");
    assert!(seen_msb, "seed scan never hit the MSB; widen the scan");
}

/// Same seed ⇒ bit-identical fault sites and outputs, from both kernels,
/// for both codings, on repeated runs. Different seed ⇒ different sites.
#[test]
fn device_faults_are_deterministic_end_to_end() {
    let shape = GemmShape { m: 4, k: 6, n: 3 };
    let mut rng = SplitMix64::new(77);
    let a: Vec<i64> = (0..shape.m * shape.k)
        .map(|_| rng.range_i64(-127, 127))
        .collect();
    let b: Vec<i64> = (0..shape.k * shape.n)
        .map(|_| rng.range_i64(-127, 127))
        .collect();
    let run = |seed: u64, coding: Coding, kernel: FaultKernel| {
        let model = DeviceFaults::new(seed).with_ber(0.02);
        faulty_unary_gemm(&a, &b, shape, 8, coding, &model, kernel).expect("valid gemm")
    };
    for coding in [Coding::Rate, Coding::Temporal] {
        let first = run(11, coding, FaultKernel::Serial);
        assert_eq!(first, run(11, coding, FaultKernel::Serial), "replay");
        assert_eq!(first, run(11, coding, FaultKernel::Packed), "kernels");
        assert_ne!(
            first.sites,
            run(12, coding, FaultKernel::Serial).sites,
            "seeds"
        );
        assert!(first.transient_flips > 0, "BER 0.02 must inject");
    }
}

fn fault_config(faults: FleetFaultPlan, seed: u64) -> ServeConfig {
    ServeConfig {
        array: SystolicConfig::edge(ComputingScheme::BinaryParallel, 8),
        memory: MemoryHierarchy::edge_with_sram(),
        instances: 2,
        queue_capacity: 32,
        max_batch: 4,
        workers: 1,
        duration_cycles: 400_000,
        load: LoadGenConfig {
            process: ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: 2_000.0,
            },
            seed,
            classes: 1,
            high_priority_fraction: 0.25,
            deadline_cycles: Some(50_000),
        },
        faults,
        fidelity: usystolic::serve::Fidelity::CycleAccurate,
    }
}

fn m64() -> Workload {
    Workload::from_gemm("m64", GemmConfig::matmul(64, 64, 64).unwrap())
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

/// Killing a shard mid-run loses nothing: every admitted request still
/// completes, times out or fails, and failover re-routes the crashed
/// shard's in-flight work to the survivor.
#[test]
fn shard_kill_conserves_every_request() {
    let plan = FleetFaultPlan {
        seed: 5,
        failures: vec![ShardFailure {
            at: 150_000,
            instance: 1,
        }],
        retry: RetryPolicy {
            max_retries: 3,
            backoff_base_cycles: 1_000,
            jitter_permille: 100,
        },
        ..FleetFaultPlan::default()
    };
    let report = serve(&fault_config(plan, 5), &[m64()]).expect("valid config");
    assert_eq!(report.shard_crashes, 1);
    assert!(report.completed > 0, "the survivor keeps serving");
    assert!(
        report.retries > 0 && report.failovers > 0,
        "the crash must strand a batch mid-flight: retries={} failovers={}",
        report.retries,
        report.failovers
    );
    assert_eq!(report.lost(), 0);
    assert!(report.conserved(), "ledger must balance after a crash");
    // The dead shard accrues no busy cycles after the crash: the run's
    // tail is carried entirely by instance 2.
    assert!(report.instance_busy_cycles[0] < report.instance_busy_cycles[1]);
}

/// With the whole fleet down and retries exhausted, requests fail — they
/// are never silently dropped.
#[test]
fn whole_fleet_down_fails_requests_without_losing_them() {
    let plan = FleetFaultPlan {
        seed: 1,
        failures: vec![
            ShardFailure {
                at: 100_000,
                instance: 1,
            },
            ShardFailure {
                at: 100_000,
                instance: 2,
            },
        ],
        ..FleetFaultPlan::default()
    };
    let report = serve(&fault_config(plan, 9), &[m64()]).expect("valid config");
    assert_eq!(report.shard_crashes, 2);
    assert!(report.failed > 0, "stranded requests must fail explicitly");
    assert_eq!(report.lost(), 0);
    assert!(report.conserved());
}

/// The full fault gauntlet — crash, slowdown, timeouts, deadline
/// shedding, retry and brown-out at once — reproduces bit for bit at
/// every worker count, including the resilience counters.
#[test]
fn fleet_faults_are_deterministic_across_worker_counts() {
    let plan = FleetFaultPlan {
        seed: 13,
        failures: vec![ShardFailure {
            at: 200_000,
            instance: 2,
        }],
        slowdowns: vec![ShardSlowdown {
            at: 80_000,
            instance: 1,
            factor_percent: 250,
        }],
        timeout_cycles: Some(40_000),
        shed_expired: true,
        retry: RetryPolicy {
            max_retries: 2,
            backoff_base_cycles: 2_048,
            jitter_permille: 250,
        },
        brownout: Some(BrownoutPolicy {
            depth_permille: 500,
            service_permille: 600,
        }),
    };
    let run = |workers: usize| -> (ServeReport, Vec<RequestRecord>) {
        let mut config = fault_config(plan.clone(), 21);
        config.workers = workers;
        serve_recorded(&config, &[m64()])
    };
    let (one, one_records) = run(1);
    assert!(one.conserved());
    assert!(one.completed > 0);
    for workers in [2, 4, 8] {
        let (other, other_records) = run(workers);
        assert_eq!(one_records, other_records, "workers={workers}");
        assert_eq!(one.retries, other.retries, "workers={workers}");
        assert_eq!(one.timed_out, other.timed_out, "workers={workers}");
        assert_eq!(one.failovers, other.failovers, "workers={workers}");
        assert_eq!(one.failed, other.failed, "workers={workers}");
        assert_eq!(one.brownout_requests, other.brownout_requests);
        assert_eq!(one.latency, other.latency, "workers={workers}");
        assert_eq!(one.instance_busy_cycles, other.instance_busy_cycles);
    }
    assert_eq!(run(4).1, one_records, "replay");
}

/// Brown-out turns overload into degraded service instead of rejection:
/// under pressure it serves strictly more requests than the same
/// configuration without it, and the quiet plan stays bit-identical to
/// the default engine.
#[test]
fn brownout_trades_precision_for_admission() {
    let overload = |faults: FleetFaultPlan| -> ServeReport {
        let mut config = fault_config(faults, 17);
        config.load.process = ArrivalProcess::OpenPoisson {
            mean_interarrival_cycles: 300.0,
        };
        config.queue_capacity = 8;
        config.instances = 1;
        serve(&config, &[m64()]).expect("valid config")
    };
    let strict = overload(FleetFaultPlan::default());
    let browned = overload(FleetFaultPlan {
        brownout: Some(BrownoutPolicy {
            depth_permille: 500,
            service_permille: 500,
        }),
        ..FleetFaultPlan::default()
    });
    assert!(strict.rejected > 0, "the baseline must actually overload");
    assert!(browned.brownout_requests > 0, "brown-out must engage");
    assert!(
        browned.admitted > strict.admitted,
        "brown-out admitted {} vs strict {}",
        browned.admitted,
        strict.admitted
    );
    assert!(browned.rejected < strict.rejected);
    assert!(strict.conserved() && browned.conserved());
}

/// Queue-wait timeouts expire waiting requests explicitly, and the
/// ledger still balances.
#[test]
fn timeouts_expire_queued_requests_explicitly() {
    let plan = FleetFaultPlan {
        timeout_cycles: Some(10_000),
        ..FleetFaultPlan::default()
    };
    let mut config = fault_config(plan, 3);
    config.load.process = ArrivalProcess::OpenPoisson {
        mean_interarrival_cycles: 500.0,
    };
    config.instances = 1;
    let report = serve(&config, &[m64()]).expect("valid config");
    assert!(report.timed_out > 0, "pressure must exceed the wait budget");
    assert_eq!(report.lost(), 0);
    assert!(report.conserved());
}

/// A crash resubmits a request with a fresh wait budget, so the timer
/// armed at its first admission must not expire the retry. Request 0 is
/// in service on shard 1 when that shard dies; its retry then waits for
/// the survivor past the first budget, and must still complete.
#[test]
fn retry_restarts_the_timeout_budget() {
    let budget = 250_000;
    let plan = FleetFaultPlan {
        failures: vec![ShardFailure {
            at: 120_000,
            instance: 1,
        }],
        timeout_cycles: Some(budget),
        retry: RetryPolicy {
            max_retries: 3,
            backoff_base_cycles: 1_000,
            jitter_permille: 0,
        },
        ..FleetFaultPlan::default()
    };
    let mut config = fault_config(plan, 1);
    config.array = SystolicConfig::edge(ComputingScheme::UnaryRate, 8);
    config.load.process = ArrivalProcess::OpenUniform {
        interval_cycles: 50_000,
    };
    config.load.high_priority_fraction = 0.0;
    config.load.deadline_cycles = None;
    let (report, records) = serve_recorded(&config, &[m64()]);
    let retried: Vec<_> = records.iter().filter(|r| r.retries > 0).collect();
    assert_eq!(retried.len(), 1, "only the crashed batch retries");
    let record = retried[0];
    assert_eq!(
        record.disposition,
        Disposition::Completed,
        "the first timer expired the retry: {record:?}"
    );
    assert!(
        record.dispatch > record.request.arrival + budget,
        "the retry must wait past its first budget: {record:?}"
    );
    assert!(report.conserved());
}
