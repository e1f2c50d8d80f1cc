//! `fleet_steady`, `fleet_saturated` and `fleet_faults`: `serve()` on a
//! 64-instance edge fleet (UR 8-bit, no SRAM) serving four classes under
//! open-loop Poisson arrivals (in simulated cycles).
//!
//! `serve()` is one call into the program, so a traced iteration has one
//! span. Its inner layers are split by probes: each times one public
//! function of a crate on this workload's own inputs (the arrival stream,
//! the class layers, a queue filled to the run's deepest point), and the
//! probe's unit cost times the count the program recorded estimates that
//! layer's share of `serve()`.

use crate::hostref::Kernel;
use crate::spans::Spans;
use crate::{median, Bench, Checked};
use std::collections::BTreeMap;
use std::time::Instant;
use usystolic_core::{ComputingScheme, SystolicConfig};
use usystolic_des::{EventQueue, Fidelity};
use usystolic_gemm::GemmConfig;
use usystolic_models::zoo;
use usystolic_obs::{Session, ToJson};
use usystolic_serve::{
    serve, AdmissionController, ArrivalProcess, EventKind, FleetFaultPlan, LoadGen, LoadGenConfig,
    Request, RetryPolicy, Scheduler, ServeConfig, ServeReport, ShardFailure, Workload,
};
use usystolic_sim::{ideal_cycles, layer_traffic, MemoryHierarchy};
use usystolic_unary::rng::SplitMix64;

const INSTANCES: usize = 64;
const QUEUE: usize = 4096;
const MAX_BATCH: usize = 8;
/// Mean Poisson inter-arrival gap that loads the fleet to ~0.84
/// utilisation with these four classes.
const STEADY_GAP_CYCLES: f64 = 40_000.0;
/// Samples per queue probe; the probe reports their median.
const QUEUE_PROBE_SAMPLES: usize = 15;

/// Which of the three fleets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ~0.84 utilisation, shallow queue, packed fidelity.
    Steady,
    /// About twice the arrival rate: the bounded queue stays full.
    Saturated,
    /// Cycle-accurate fidelity with shard crashes, retries and timeouts.
    Faults,
}

/// Offered requests and mean inter-arrival gap of each fleet.
fn load(kind: Kind, short: bool) -> (f64, f64) {
    let (offered, gap) = match kind {
        Kind::Steady => (1.0e6, STEADY_GAP_CYCLES),
        Kind::Saturated => (2.0e5, STEADY_GAP_CYCLES / 2.0),
        Kind::Faults => (2.0e5, STEADY_GAP_CYCLES),
    };
    (if short { offered / 10.0 } else { offered }, gap)
}

fn classes() -> Result<Vec<Workload>, String> {
    let gemm = |r: Result<GemmConfig, _>| r.map_err(|e: usystolic_gemm::GemmError| e.to_string());
    Ok(vec![
        Workload::from_network(&zoo::mnist_cnn4()),
        Workload::from_gemm("matmul64", gemm(GemmConfig::matmul(64, 64, 64))?),
        Workload::from_gemm("matmul128", gemm(GemmConfig::matmul(128, 128, 128))?),
        Workload::from_gemm("conv14", gemm(GemmConfig::conv(14, 14, 32, 3, 3, 1, 32))?),
    ])
}

fn config(kind: Kind, seed: u64, duration_cycles: u64, gap: f64) -> ServeConfig {
    let faults = match kind {
        Kind::Faults => FleetFaultPlan {
            seed: seed ^ 0x5EED_FA17,
            failures: vec![
                ShardFailure {
                    at: duration_cycles / 3,
                    instance: 7,
                },
                ShardFailure {
                    at: duration_cycles * 2 / 3,
                    instance: 42,
                },
            ],
            timeout_cycles: Some(FAULT_TIMEOUT_CYCLES),
            retry: RetryPolicy {
                max_retries: 2,
                backoff_base_cycles: 4096,
                jitter_permille: 250,
            },
            ..FleetFaultPlan::default()
        },
        Kind::Steady | Kind::Saturated => FleetFaultPlan::default(),
    };
    ServeConfig {
        array: SystolicConfig::edge(ComputingScheme::UnaryRate, 8),
        memory: MemoryHierarchy::no_sram(),
        instances: INSTANCES,
        queue_capacity: QUEUE,
        max_batch: MAX_BATCH,
        workers: 1,
        duration_cycles,
        load: LoadGenConfig {
            process: ArrivalProcess::OpenPoisson {
                mean_interarrival_cycles: gap,
            },
            seed,
            classes: 4,
            high_priority_fraction: 0.0,
            deadline_cycles: None,
        },
        faults,
        fidelity: if kind == Kind::Faults {
            Fidelity::CycleAccurate
        } else {
            Fidelity::Packed
        },
    }
}

/// Queue-wait budget of `fleet_faults`: the tail of the wait
/// distribution, so that some timeouts fire.
const FAULT_TIMEOUT_CYCLES: u64 = 100_000;

/// A fleet workload.
pub struct Fleet {
    config: ServeConfig,
    classes: Vec<Workload>,
    class_macs: Vec<u64>,
    setup_errors: Vec<String>,
    last: Option<ServeReport>,
    /// Counters read from the program's obs session.
    des_events: f64,
    sim_evaluations: f64,
    rss_bytes_per_request: f64,
}

impl Fleet {
    /// A queue filled with the first `depth` requests of the stream.
    fn filled_queue(arrivals: &[Request], depth: usize) -> AdmissionController {
        let mut q = AdmissionController::new(QUEUE);
        for r in arrivals.iter().take(depth.clamp(1, QUEUE)) {
            q.offer(*r);
        }
        q
    }

    /// Builds the fleet, its classes and its arrival stream's
    /// configuration from `seed`; `short` offers a tenth of the requests.
    pub fn setup(kind: Kind, seed: u64, short: bool) -> Result<Self, String> {
        let (offered, gap) = load(kind, short);
        let classes = classes()?;
        let config = config(kind, seed, (offered * gap) as u64, gap);
        // The packed tier must render the same report as the
        // cycle-accurate tier; checked on a short horizon.
        let mut probe = config.clone();
        probe.duration_cycles = (2_000.0 * gap) as u64;
        let renders = [Fidelity::Packed, Fidelity::CycleAccurate].map(|fidelity| {
            probe.fidelity = fidelity;
            serve(&probe, &classes).map(|r| r.to_json().render())
        });
        let mut setup_errors = Vec::new();
        match (&renders[0], &renders[1]) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => setup_errors.push("packed report differs from cycle-accurate".into()),
            (Err(e), _) | (_, Err(e)) => setup_errors.push(e.to_string()),
        }
        let class_macs = classes
            .iter()
            .map(|w| w.layers.iter().map(GemmConfig::macs).sum())
            .collect();
        Ok(Self {
            config,
            classes,
            class_macs,
            setup_errors,
            last: None,
            des_events: 0.0,
            sim_evaluations: 0.0,
            rss_bytes_per_request: 0.0,
        })
    }
}

impl Bench for Fleet {
    type Output = Result<ServeReport, String>;

    const HOST_REF: Kernel = Kernel::Mixed;

    fn setup_errors(&self) -> Vec<String> {
        self.setup_errors.clone()
    }

    fn work(&self) -> (f64, f64) {
        let Some(r) = &self.last else {
            return (0.0, 0.0);
        };
        let macs: u64 = r
            .per_class_completed
            .iter()
            .zip(&self.class_macs)
            .map(|(n, m)| n * m)
            .sum();
        (macs as f64, r.offered as f64)
    }

    fn iterate(&mut self, spans: &mut Spans) -> Self::Output {
        let (config, classes) = (&self.config, &self.classes);
        spans
            .span("serve", "serve", || serve(config, classes))
            .map_err(|e| e.to_string())
    }

    fn check(&mut self, out: Self::Output) -> Checked {
        let report = match out {
            Ok(r) => r,
            Err(e) => {
                return Checked {
                    errors: vec![e],
                    exact: Vec::new(),
                }
            }
        };
        let mut errors = Vec::new();
        if !report.conserved() || report.lost() != 0 {
            errors.push(format!(
                "request ledger does not close: offered {} admitted {} rejected {} lost {}",
                report.offered,
                report.admitted,
                report.rejected,
                report.lost()
            ));
        }
        let exact = vec![
            (
                "exact.sim_p99_latency_ms",
                ServeReport::cycles_to_ms(report.latency.p99_cycles),
            ),
            ("exact.sim_throughput_per_s", report.throughput_per_s),
            ("sim_mean_utilization", report.mean_utilization),
            (
                "sim_p50_queue_wait_cycles",
                report.queue_wait.p50_cycles as f64,
            ),
            (
                "sim_p99_queue_wait_cycles",
                report.queue_wait.p99_cycles as f64,
            ),
            ("serve.offered", report.offered as f64),
            ("serve.batches", report.batches as f64),
            ("serve.max_queue_depth", report.max_queue_depth as f64),
            ("serve.rejected", report.rejected as f64),
            ("serve.timed_out", report.timed_out as f64),
            ("serve.retries", report.retries as f64),
        ];
        self.last = Some(report);
        Checked { errors, exact }
    }

    fn absorb(&mut self, session: &Session, rss_growth_bytes: f64) {
        let metrics = &session.metrics;
        self.des_events = metrics.counter("des.events.dispatched") as f64;
        // Layer profiles: once per layer up front, and again per dispatch
        // at cycle-accurate fidelity.
        self.sim_evaluations = self
            .classes
            .iter()
            .map(|w| {
                let batches = metrics
                    .histogram_labeled("serve.batch_size", &[("class", w.name.as_str())])
                    .map_or(0, |h| h.count());
                let per_dispatch = u64::from(self.config.fidelity == Fidelity::CycleAccurate);
                (w.layers.len() as u64 * (1 + batches * per_dispatch)) as f64
            })
            .sum();
        if let Some(r) = &self.last {
            self.rss_bytes_per_request = rss_growth_bytes / r.offered.max(1) as f64;
        }
    }

    fn layer_metrics(
        &mut self,
        spans: &mut Spans,
        root: usize,
        wall_s: f64,
    ) -> BTreeMap<&'static str, f64> {
        let report = self.last.as_ref().expect("a checked iteration ran");
        let serve_s = spans
            .self_s_by_layer_under(root)
            .get("serve")
            .copied()
            .unwrap_or(0.0);
        let mut m = BTreeMap::new();

        // serve: the whole arrival stream, generated as serve() does.
        let mut load = self.config.load;
        load.classes = self.classes.len();
        let t = Instant::now();
        let arrivals = spans.span("serve", "serve.loadgen", || {
            LoadGen::new(load).initial_arrivals(self.config.duration_cycles)
        });
        let loadgen_s = t.elapsed().as_secs_f64();

        // des: schedule then pop that stream.
        let t = Instant::now();
        let peak = spans.span("des", "des.calendar", || {
            let mut q: EventQueue<EventKind> = EventQueue::new();
            for r in &arrivals {
                q.schedule(r.arrival, EventKind::Arrival(*r));
            }
            let peak = q.len();
            while let Some(e) = q.pop() {
                std::hint::black_box(e);
            }
            peak
        });
        let ns_per_event = t.elapsed().as_secs_f64() * 1e9 / arrivals.len().max(1) as f64;

        // sim: the layer timing every profile derivation runs.
        let layers: Vec<&GemmConfig> = self.classes.iter().flat_map(|w| &w.layers).collect();
        let reps = 200;
        let t = Instant::now();
        spans.span("sim", "sim.layer_timing", || {
            for _ in 0..reps {
                for g in &layers {
                    std::hint::black_box(ideal_cycles(g, &self.config.array));
                    std::hint::black_box(layer_traffic(g, &self.config.array, &self.config.memory));
                }
            }
        });
        let layer_timing_us = t.elapsed().as_secs_f64() * 1e6 / (reps * layers.len()) as f64;

        // serve: one scheduling decision and one timeout removal on a
        // queue as deep as this run's deepest.
        let depth = report.max_queue_depth;
        let scheduler = Scheduler::new(MAX_BATCH);
        let mut rng = SplitMix64::new(self.config.load.seed);
        let (mut next_batch, mut remove) = (Vec::new(), Vec::new());
        spans.span("serve", "serve.queue", || {
            for _ in 0..QUEUE_PROBE_SAMPLES {
                let mut q = Self::filled_queue(&arrivals, depth);
                let t = Instant::now();
                std::hint::black_box(scheduler.next_batch(&mut q));
                next_batch.push(t.elapsed().as_secs_f64() * 1e6);
                let mut q = Self::filled_queue(&arrivals, depth);
                let id = q.queued()[rng.below(q.depth() as u64) as usize].id;
                let t = Instant::now();
                std::hint::black_box(q.remove_by_id(id));
                remove.push(t.elapsed().as_secs_f64() * 1e6);
            }
        });
        let next_batch_us = median(&next_batch);
        let remove_us = median(&remove);

        // Estimated shares of serve(): unit cost × the program's counts.
        let des_s = ns_per_event * 1e-9 * self.des_events;
        let sim_s = layer_timing_us * 1e-6 * self.sim_evaluations;
        let next_batch_s = next_batch_us * 1e-6 * report.batches as f64;
        // Every admission and every retry arms one timeout, and every
        // timeout that fires calls remove_by_id.
        let removals = if self.config.faults.timeout_cycles.is_some() {
            (report.admitted + report.failovers) as f64
        } else {
            0.0
        };
        let remove_s = remove_us * 1e-6 * removals;
        m.insert("serve.loadgen_s", loadgen_s);
        m.insert("des.ns_per_event", ns_per_event);
        m.insert("des.events", self.des_events);
        m.insert("des.peak_pending", peak as f64);
        m.insert("sim.layer_timing_us", layer_timing_us);
        m.insert("serve.next_batch_us", next_batch_us);
        m.insert("serve.remove_by_id_us", remove_us);
        m.insert("serve.rss_bytes_per_request", self.rss_bytes_per_request);
        m.insert("share.des", des_s / wall_s);
        m.insert("share.sim", sim_s / wall_s);
        m.insert("share.serve", (serve_s - des_s - sim_s).max(0.0) / wall_s);
        m.insert("share.serve.loadgen", loadgen_s / wall_s);
        m.insert("share.serve.next_batch", next_batch_s / wall_s);
        m.insert("share.serve.remove_by_id", remove_s / wall_s);
        m
    }
}
