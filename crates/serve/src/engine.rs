//! The serving engine: a deterministic discrete-event simulation on the
//! shared `usystolic_des` core.
//!
//! [`serve`] is the one-call entry point ([`serve_with`] also hands every
//! per-request record to a caller's sink). It runs two phases:
//!
//! 1. **Profile** (parallel) — every `(workload, layer)` pair is profiled
//!    into the batched service-time model of
//!    [`WorkloadProfile`](crate::workload::WorkloadProfile) on the
//!    work-stealing pool, the only work the pool does. Profiling is pure,
//!    so the phase is result-identical for any worker count.
//! 2. **Event loop** (sequential, deterministic) — the whole fleet is one
//!    [`Component`] on the `usystolic_des` calendar: arrivals flow
//!    through the bounded [`AdmissionController`], the EDF/priority
//!    [`Scheduler`] packs same-class batches onto free instances, and
//!    completions free instances and (in closed-loop mode) trigger the
//!    next client request. An open loop's arrivals are drawn one ahead:
//!    each arrival schedules the next, so the calendar holds one arrival
//!    plus in-flight completions, fault events and armed timers, never
//!    the whole stream. Every request that leaves the system — completed,
//!    rejected, timed out or failed — is folded into the
//!    latency/wait/service [`QuantileHistogram`]s right there; no
//!    per-request record is kept. Service times
//!    resolve at the configured [`Fidelity`]: cycle-accurate re-derives
//!    each class's layer profiles from first principles at every
//!    dispatch, packed uses the hoisted totals (same bits, faster), and
//!    analytic interpolates the `analyze` closed-form
//!    [`ServiceEstimate`] in `O(1)` per dispatch. Shared-DRAM contention
//!    scales with the number of busy instances at dispatch.
//!
//! The caller's `usystolic_obs` session (if installed) receives queue
//! depth gauges, admission/rejection/deadline counters, batch-size and
//! latency histograms, the ledger's latency and queue-wait quantile
//! histograms (merged once, after the report is built), and one
//! Chrome-trace span per dispatched batch on the simulated-cycle lane
//! (`tid` = instance); the des engine adds
//! `des.events.*`, `des.dispatch{fidelity}` and
//! `des.queue_depth{component}` on the same sequential loop.

use crate::admission::{Admission, AdmissionController};
use crate::loadgen::LoadGen;
use crate::pool::run_indexed;
use crate::report::{ServeConfig, ServeError, ServeReport};
use crate::request::{Disposition, Request, RequestRecord};
use crate::scheduler::Scheduler;
use crate::workload::{batched_service_cycles, LayerProfile, Workload, WorkloadProfile};
use std::collections::BTreeMap;
use usystolic_analyze::ServiceEstimate;
use usystolic_des::{Component, Context, Engine, Event, EventQueue, Fidelity, Scheduled};
use usystolic_obs::{QuantileHistogram, ToJson};
use usystolic_sim::CLOCK_HZ;

/// What happens when a fleet event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A batch on the given instance (1-based) finishes.
    Completion {
        /// Instance index, 1-based.
        instance: usize,
        /// The instance's crash epoch at dispatch time. A completion
        /// whose epoch no longer matches the instance is stale — the
        /// shard crashed under the batch — and is ignored.
        epoch: u64,
    },
    /// A shard fail-stops (scripted by the fleet fault plan).
    ShardFail {
        /// Instance index, 1-based.
        instance: usize,
    },
    /// A shard degrades to a fraction of its nominal speed.
    ShardSlow {
        /// Instance index, 1-based.
        instance: usize,
        /// Service multiplier in percent (100 = nominal).
        factor_percent: u32,
    },
    /// A queued request's wait budget expires (no-op if it already
    /// dispatched, or if a shard crash has since resubmitted it with a
    /// fresh budget).
    Timeout {
        /// Request id.
        id: u64,
        /// Retry attempt the budget was armed for (0 = first submission).
        attempt: u32,
    },
    /// A request lost to a shard crash re-enters the queue after
    /// backoff.
    Retry(Request),
    /// A request reaches the admission controller.
    Arrival(Request),
}

impl Event for EventKind {
    /// Same-cycle tie order: completions free instances first, then
    /// fleet faults land, then timeouts expire, then retries re-enter,
    /// and fresh arrivals come last (a freed instance or queue slot can
    /// serve a same-cycle arrival; a batch finishing exactly when its
    /// shard dies still completes).
    fn class(&self) -> u8 {
        match self {
            EventKind::Completion { .. } => 0,
            EventKind::ShardFail { .. } => 1,
            EventKind::ShardSlow { .. } => 2,
            EventKind::Timeout { .. } => 3,
            EventKind::Retry(_) => 4,
            EventKind::Arrival(_) => 5,
        }
    }
}

/// A batch in flight on one instance.
#[derive(Debug, Clone)]
struct InFlight {
    dispatch: u64,
    batch: Vec<Request>,
    degraded: bool,
}

/// Per-instance bookkeeping during the event loop.
#[derive(Debug, Clone)]
struct Instance {
    /// In-flight batch, if busy.
    in_flight: Option<InFlight>,
    busy_cycles: u64,
    batches: u64,
    /// False once the shard fail-stops; a dead shard never dispatches.
    alive: bool,
    /// Bumped on every crash; stale completions (dispatched before the
    /// crash) carry the old epoch and are ignored.
    epoch: u64,
    /// Service-time multiplier in percent (100 = nominal).
    slow_percent: u32,
}

/// Statistics folded from every request as it leaves the system, plus
/// the caller's sink that sees each request's record.
struct Ledger<S> {
    latency: QuantileHistogram,
    queue_wait: QuantileHistogram,
    service: QuantileHistogram,
    completed: u64,
    deadline_missed: u64,
    per_class_completed: Vec<u64>,
    sink: S,
}

impl<S: FnMut(&RequestRecord)> Ledger<S> {
    /// Folds one terminal request into the statistics, then hands its
    /// record to the sink.
    fn settle(&mut self, record: RequestRecord) {
        if record.deadline_missed() {
            self.deadline_missed += 1;
        }
        if let (Some(lat), Some(wait), Some(svc)) = (
            record.latency_cycles(),
            record.queue_wait_cycles(),
            record.service_cycles(),
        ) {
            self.latency.observe(lat);
            self.queue_wait.observe(wait);
            self.service.observe(svc);
            self.completed += 1;
            self.per_class_completed[record.request.class] += 1;
        }
        (self.sink)(&record);
    }
}

/// Terminal counters the fault paths accumulate during the event loop.
#[derive(Debug, Default)]
struct FaultTally {
    timed_out: u64,
    failed: u64,
    retries: u64,
    failovers: u64,
    brownout_requests: u64,
    shard_crashes: u64,
}

/// The whole serving fleet as one des component: admission, scheduling,
/// instances, fault handling and the request ledger.
struct Fleet<'a, S> {
    config: &'a ServeConfig,
    workloads: &'a [Workload],
    profiles: &'a [WorkloadProfile],
    /// Per-class `(max_batch, instances)` operating-point estimates;
    /// populated only at [`Fidelity::Analytic`].
    estimates: Vec<ServiceEstimate>,
    load: LoadGen,
    admission: AdmissionController,
    scheduler: Scheduler,
    instances: Vec<Instance>,
    busy: usize,
    ledger: Ledger<S>,
    offered: u64,
    tally: FaultTally,
    /// Retry attempts consumed per request id, keyed deterministically.
    retry_counts: BTreeMap<u64, u32>,
}

impl<S> Fleet<'_, S> {
    /// Retry attempts request `id` has consumed so far.
    fn retries(&self, id: u64) -> u32 {
        self.retry_counts.get(&id).copied().unwrap_or(0)
    }

    /// Service cycles of a batch at the configured fidelity.
    /// `compute_permille == 1000` is nominal; lower is brown-out.
    fn service_cycles_at(
        &self,
        class: usize,
        batch: usize,
        concurrency: usize,
        compute_permille: u32,
    ) -> u64 {
        match self.config.fidelity {
            // Re-derive every layer profile from the raw GEMMs at
            // dispatch time. The integer layer sums commute, so this is
            // bit-identical to the packed totals — just slower, which is
            // the point of the reference tier. The re-derivation runs
            // with the obs session shelved: the profile phase already
            // counted this traffic once, and re-counting it per dispatch
            // would make metric snapshots depend on the fidelity tier.
            Fidelity::CycleAccurate => {
                let shelved = usystolic_obs::take();
                let totals = self.workloads[class].layers.iter().fold(
                    LayerProfile::default(),
                    |acc, gemm| {
                        acc.accumulate(LayerProfile::compute(
                            gemm,
                            &self.config.array,
                            &self.config.memory,
                        ))
                    },
                );
                if let Some(session) = shelved {
                    usystolic_obs::install(session);
                }
                batched_service_cycles(
                    &totals,
                    self.profiles[class].dram_bytes_per_cycle,
                    batch,
                    concurrency,
                    compute_permille,
                )
            }
            Fidelity::Packed => {
                self.profiles[class].service_cycles_scaled(batch, concurrency, compute_permille)
            }
            // Linear interpolation between the closed-form endpoints of
            // the `analyze` ServiceEstimate: O(1), ignores instantaneous
            // DRAM concurrency (the estimate already bakes in the
            // configured fleet width).
            Fidelity::Analytic => {
                let est = &self.estimates[class];
                let span = est.batch_cycles.saturating_sub(est.single_cycles);
                let slope = match self.config.max_batch {
                    0 | 1 => 0,
                    b => span / (b as u64 - 1),
                };
                let nominal = est.single_cycles + (batch as u64 - 1) * slope;
                nominal * u64::from(compute_permille) / 1000
            }
        }
    }

    /// Greedy dispatch: fill every free *alive* instance while the queue
    /// has work. Under brown-out (queue at or past the depth threshold)
    /// batches run degraded — scaled compute and traffic, the serving
    /// analogue of raised early termination. A slowed shard stretches
    /// its service time by its percent factor.
    fn dispatch_free_instances(&mut self, now: u64, ctx: &mut Context<'_, EventKind>) {
        loop {
            if self.admission.depth() == 0 {
                return;
            }
            let Some(free_idx) = self
                .instances
                .iter()
                .position(|i| i.alive && i.in_flight.is_none())
            else {
                return;
            };
            // Brown-out is decided on the depth seen *before* this batch
            // drains it — the signal an overloaded fleet actually has.
            let degraded = self.config.faults.brownout.filter(|b| {
                self.admission.depth() * 1000
                    >= b.depth_permille as usize * self.admission.capacity()
            });
            let Some(batch) = self.scheduler.next_batch(&mut self.admission) else {
                return;
            };
            let class = batch[0].class;
            let concurrency = self.busy + 1;
            let permille = degraded.map_or(1000, |b| b.service_permille);
            let service = self.service_cycles_at(class, batch.len(), concurrency, permille);
            // A slowed shard serves at factor_percent of nominal speed.
            let service =
                service.saturating_mul(u64::from(self.instances[free_idx].slow_percent)) / 100;
            let completion = now + service;
            if degraded.is_some() {
                self.tally.brownout_requests += batch.len() as u64;
                usystolic_obs::with(|o| {
                    o.metrics
                        .count("serve.brownout_requests", batch.len() as u64);
                });
            }
            let profiles = self.profiles;
            let admission = &self.admission;
            usystolic_obs::with(|o| {
                let class_name = profiles[class].name.as_str();
                o.metrics.count("serve.dispatched", batch.len() as u64);
                o.metrics.count_labeled(
                    "serve.dispatched",
                    &[("class", class_name)],
                    batch.len() as u64,
                );
                o.metrics.observe("serve.batch_size", batch.len() as f64);
                o.metrics.observe_labeled(
                    "serve.batch_size",
                    &[("class", class_name)],
                    batch.len() as f64,
                );
                let depth = admission.depth() as f64;
                o.metrics.gauge("serve.queue_depth", depth);
                o.metrics.series_record("serve.queue_depth", now, depth);
                o.metrics
                    .series_record("serve.dispatches", now, batch.len() as f64);
                // Correlate the batch span with the shard executing it and
                // the requests it carries, so one request's admission →
                // batch path reconstructs in Perfetto.
                o.shard_id = Some(free_idx as u64 + 1);
                o.request_id = batch.first().map(|r| r.id);
                let args = o.correlated_args(vec![
                    ("class".to_owned(), profiles[class].name.to_json()),
                    ("batch".to_owned(), (batch.len() as u64).to_json()),
                    ("concurrency".to_owned(), (concurrency as u64).to_json()),
                    (
                        "dram_limited".to_owned(),
                        profiles[class]
                            .dram_limited(batch.len(), concurrency)
                            .to_json(),
                    ),
                    (
                        "req_ids".to_owned(),
                        usystolic_obs::JsonValue::Array(
                            batch.iter().map(|r| r.id.to_json()).collect(),
                        ),
                    ),
                ]);
                o.tracer.complete(
                    format!("batch {}", profiles[class].name),
                    "serve",
                    usystolic_obs::PID_SIM,
                    free_idx as u32 + 1,
                    now as f64,
                    service as f64,
                    args,
                );
                o.request_id = None;
                o.shard_id = None;
            });
            let slot = &mut self.instances[free_idx];
            slot.in_flight = Some(InFlight {
                dispatch: now,
                batch,
                degraded: degraded.is_some(),
            });
            slot.batches += 1;
            self.busy += 1;
            ctx.schedule_at(
                completion,
                EventKind::Completion {
                    instance: free_idx + 1,
                    epoch: slot.epoch,
                },
            );
        }
    }
}

impl<S: FnMut(&RequestRecord)> Component<EventKind> for Fleet<'_, S> {
    fn name(&self) -> &'static str {
        "fleet"
    }

    fn handle(&mut self, event: Scheduled<EventKind>, ctx: &mut Context<'_, EventKind>) {
        let now = event.at;
        match event.event {
            EventKind::Arrival(request) => {
                self.offered += 1;
                // An open loop keeps one arrival on the calendar: this
                // one draws the next (closed loops draw none here).
                if let Some(next) = self.load.next_arrival(self.config.duration_cycles) {
                    ctx.schedule_at(next.arrival, EventKind::Arrival(next));
                }
                usystolic_obs::with(|o| {
                    o.metrics.series_record("serve.arrivals", now, 1.0);
                });
                // Brown-out takes the overflow path *before* `offer`
                // would count a rejection: quality degrades instead.
                let decision = if self.admission.depth() < self.admission.capacity()
                    || self.config.faults.brownout.is_none()
                {
                    self.admission.offer(request)
                } else if self.admission.depth() < self.config.queue_capacity * 2 {
                    self.admission.force_admit(request);
                    Admission::Admitted
                } else {
                    self.admission.offer(request)
                };
                match decision {
                    Admission::Admitted => {
                        if let Some(t) = self.config.faults.timeout_cycles {
                            ctx.schedule_in(
                                t,
                                EventKind::Timeout {
                                    id: request.id,
                                    attempt: 0,
                                },
                            );
                        }
                        let admission = &self.admission;
                        usystolic_obs::with(|o| {
                            let depth = admission.depth() as f64;
                            o.metrics.gauge("serve.queue_depth", depth);
                            o.metrics.series_record("serve.queue_depth", now, depth);
                        });
                    }
                    Admission::Rejected => {
                        let workloads = self.workloads;
                        usystolic_obs::with(|o| {
                            o.metrics.count("serve.rejected", 1);
                            o.metrics.count_labeled(
                                "serve.rejected",
                                &[
                                    ("class", workloads[request.class].name.as_str()),
                                    ("priority", request.priority.label()),
                                ],
                                1,
                            );
                            o.metrics.count_labeled(
                                "serve.rejections",
                                &[("reason", "capacity")],
                                1,
                            );
                            o.metrics.series_record("serve.rejections", now, 1.0);
                            o.request_id = Some(request.id);
                            let args = o.correlated_args(vec![(
                                "class".to_owned(),
                                workloads[request.class].name.to_json(),
                            )]);
                            o.tracer.instant(
                                "rejected",
                                "serve",
                                usystolic_obs::PID_SIM,
                                0,
                                now as f64,
                                args,
                            );
                            o.request_id = None;
                        });
                        self.ledger.settle(RequestRecord::dropped(
                            request,
                            Disposition::Rejected,
                            0,
                        ));
                    }
                }
            }
            EventKind::Completion { instance, epoch } => {
                let slot = &mut self.instances[instance - 1];
                // A completion from before the shard's crash is stale:
                // the batch was lost, ShardFail already re-routed it.
                if slot.epoch != epoch {
                    return;
                }
                if let Some(fl) = slot.in_flight.take() {
                    self.busy -= 1;
                    slot.busy_cycles += now - fl.dispatch;
                    let size = fl.batch.len();
                    let dispatch = fl.dispatch;
                    for request in fl.batch {
                        let retries = self.retries(request.id);
                        self.ledger.settle(RequestRecord {
                            request,
                            disposition: Disposition::Completed,
                            dispatch,
                            completion: now,
                            instance,
                            batch_size: size,
                            retries,
                            degraded: fl.degraded,
                        });
                        let workloads = self.workloads;
                        usystolic_obs::with(|o| {
                            let class = workloads[request.class].name.as_str();
                            let latency = now - request.arrival;
                            let wait = dispatch - request.arrival;
                            o.metrics.count("serve.completed", 1);
                            o.metrics.count_labeled(
                                "serve.completed",
                                &[("class", class), ("priority", request.priority.label())],
                                1,
                            );
                            o.metrics
                                .observe("serve.latency_ms", ServeReport::cycles_to_ms(latency));
                            o.metrics
                                .observe("serve.queue_wait_ms", ServeReport::cycles_to_ms(wait));
                            // The unlabeled totals are the ledger's own
                            // histograms, merged once after the run.
                            o.metrics.record_quantile_labeled(
                                "serve.latency_cycles",
                                &[("class", class)],
                                latency,
                            );
                        });
                        if let Some(client) = request.client {
                            if let Some(next) =
                                self.load
                                    .after_completion(client, now, self.config.duration_cycles)
                            {
                                ctx.schedule_at(next.arrival, EventKind::Arrival(next));
                            }
                        }
                    }
                }
            }
            EventKind::ShardFail { instance } => {
                let slot = &mut self.instances[instance - 1];
                if slot.alive {
                    slot.alive = false;
                    slot.epoch += 1;
                    self.tally.shard_crashes += 1;
                    usystolic_obs::with(|o| {
                        o.metrics
                            .count_labeled("faults.injected", &[("kind", "shard_fail")], 1);
                        o.tracer.instant(
                            "shard_fail",
                            "faults",
                            usystolic_obs::PID_SIM,
                            instance as u32,
                            now as f64,
                            Vec::new(),
                        );
                    });
                    if let Some(fl) = slot.in_flight.take() {
                        self.busy -= 1;
                        slot.busy_cycles += now - fl.dispatch;
                        for request in fl.batch {
                            let attempt = self.retries(request.id);
                            if attempt < self.config.faults.retry.max_retries {
                                self.retry_counts.insert(request.id, attempt + 1);
                                self.tally.retries += 1;
                                let delay = self.config.faults.backoff_cycles(request.id, attempt);
                                ctx.schedule_in(delay, EventKind::Retry(request));
                                usystolic_obs::with(|o| o.metrics.count("serve.retries", 1));
                            } else {
                                self.tally.failed += 1;
                                self.ledger.settle(RequestRecord::dropped(
                                    request,
                                    Disposition::Failed,
                                    attempt,
                                ));
                                usystolic_obs::with(|o| {
                                    o.metrics.count("serve.failed", 1);
                                    o.metrics.count_labeled(
                                        "serve.rejections",
                                        &[("reason", "shard_down")],
                                        1,
                                    );
                                });
                            }
                        }
                    }
                }
            }
            EventKind::ShardSlow {
                instance,
                factor_percent,
            } => {
                let slot = &mut self.instances[instance - 1];
                if slot.alive {
                    slot.slow_percent = factor_percent;
                    usystolic_obs::with(|o| {
                        o.metrics
                            .count_labeled("faults.injected", &[("kind", "shard_slow")], 1);
                    });
                }
            }
            // A timer armed for an earlier attempt is stale: a crash has
            // resubmitted the request since, restarting its budget.
            EventKind::Timeout { id, attempt } if attempt != self.retries(id) => {}
            EventKind::Timeout { id, .. } => {
                // Only bites while the request still waits in the queue;
                // dispatched or completed requests ignore stale timers.
                if let Some(request) = self.admission.remove_by_id(id) {
                    self.tally.timed_out += 1;
                    let retries = self.retries(id);
                    self.ledger.settle(RequestRecord::dropped(
                        request,
                        Disposition::TimedOut,
                        retries,
                    ));
                    usystolic_obs::with(|o| {
                        o.metrics.count("serve.timeouts", 1);
                        o.metrics
                            .count_labeled("serve.rejections", &[("reason", "timeout")], 1);
                        o.metrics.series_record("serve.rejections", now, 1.0);
                    });
                }
            }
            EventKind::Retry(request) => {
                // Failover: the shard that held it is gone; the request
                // re-enters the queue for the survivors. Its wait budget
                // restarts from this resubmission.
                self.tally.failovers += 1;
                self.admission.requeue(request);
                if let Some(t) = self.config.faults.timeout_cycles {
                    let attempt = self.retries(request.id);
                    ctx.schedule_in(
                        t,
                        EventKind::Timeout {
                            id: request.id,
                            attempt,
                        },
                    );
                }
                usystolic_obs::with(|o| o.metrics.count("serve.failovers", 1));
            }
        }
        if self.config.faults.shed_expired {
            for request in self.admission.expire_before(now) {
                self.tally.timed_out += 1;
                let retries = self.retries(request.id);
                self.ledger.settle(RequestRecord::dropped(
                    request,
                    Disposition::TimedOut,
                    retries,
                ));
                usystolic_obs::with(|o| {
                    o.metrics.count("serve.timeouts", 1);
                    o.metrics
                        .count_labeled("serve.rejections", &[("reason", "deadline")], 1);
                });
            }
        }
        self.dispatch_free_instances(now, ctx);
    }
}

/// Runs the serving simulation to completion.
///
/// # Errors
///
/// Returns a [`ServeError`] when the configuration is degenerate (no
/// workloads, an empty workload, zero instances/queue/batch/duration) or
/// when a worker thread fails.
pub fn serve(config: &ServeConfig, workloads: &[Workload]) -> Result<ServeReport, ServeError> {
    serve_with(config, workloads, |_: &RequestRecord| {})
}

/// [`serve`], handing every offered request's [`RequestRecord`] to
/// `sink` as the request leaves the system: one record per offered
/// request, in the order requests complete, are rejected, time out or
/// fail (requests the whole fleet could not serve come last). The
/// report does not keep them; [`serve`] passes a sink that drops them.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with(
    config: &ServeConfig,
    workloads: &[Workload],
    sink: impl FnMut(&RequestRecord),
) -> Result<ServeReport, ServeError> {
    if workloads.is_empty() {
        return Err(ServeError::NoWorkloads);
    }
    if let Some(w) = workloads.iter().find(|w| w.layers.is_empty()) {
        return Err(ServeError::EmptyWorkload(w.name.clone()));
    }
    if config.instances == 0 {
        return Err(ServeError::InvalidConfig("instances must be at least 1"));
    }
    if config.queue_capacity == 0 {
        return Err(ServeError::InvalidConfig(
            "queue_capacity must be at least 1",
        ));
    }
    if config.max_batch == 0 {
        return Err(ServeError::InvalidConfig("max_batch must be at least 1"));
    }
    if config.duration_cycles == 0 {
        return Err(ServeError::InvalidConfig(
            "duration_cycles must be at least 1",
        ));
    }
    config.faults.validate(config.instances)?;

    // ---- Phase 1: profile every (workload, layer) in parallel. --------
    let profiles = profile_workloads(config, workloads)?;

    // ---- Phase 2: the deterministic event loop on the des core. -------
    // Windowed series share one bucket geometry derived from the run
    // horizon, so rolling arrival/rejection/queue-depth rates line up
    // bucket-for-bucket (the signal an autoscaler consumes).
    usystolic_obs::with(|o| {
        let width = (config.duration_cycles / 64).max(1);
        for name in [
            "serve.arrivals",
            "serve.rejections",
            "serve.dispatches",
            "serve.queue_depth",
        ] {
            o.metrics.register_series(name, &[], width, 128);
        }
    });
    let mut load = {
        let mut lc = config.load;
        lc.classes = workloads.len();
        LoadGen::new(lc)
    };
    let mut events: EventQueue<EventKind> = EventQueue::new();
    // Closed loops seed one request per client. An open loop schedules
    // only its first arrival; each arrival then schedules the next.
    // Open-loop arrival cycles strictly increase and `Arrival` is the
    // last same-cycle class, so this pops in the order the whole stream
    // scheduled up front would.
    let seeds = if load.is_closed_loop() {
        load.initial_arrivals(config.duration_cycles)
    } else {
        load.next_arrival(config.duration_cycles)
            .into_iter()
            .collect()
    };
    for r in seeds {
        events.schedule(r.arrival, EventKind::Arrival(r));
    }
    for f in &config.faults.failures {
        events.schedule(
            f.at,
            EventKind::ShardFail {
                instance: f.instance,
            },
        );
    }
    for s in &config.faults.slowdowns {
        events.schedule(
            s.at,
            EventKind::ShardSlow {
                instance: s.instance,
                factor_percent: s.factor_percent,
            },
        );
    }

    // Analytic operating-point endpoints; the exact tiers never look at
    // them, so skip the (cheap) derivation unless they will be used.
    let estimates = if config.fidelity == Fidelity::Analytic {
        profiles
            .iter()
            .map(|p| p.service_estimate(config.max_batch, config.instances))
            .collect()
    } else {
        Vec::new()
    };

    let mut fleet = Fleet {
        config,
        workloads,
        profiles: &profiles,
        estimates,
        load,
        admission: AdmissionController::new(config.queue_capacity),
        scheduler: Scheduler::new(config.max_batch),
        instances: vec![
            Instance {
                in_flight: None,
                busy_cycles: 0,
                batches: 0,
                alive: true,
                epoch: 0,
                slow_percent: 100,
            };
            config.instances
        ],
        busy: 0,
        ledger: Ledger {
            latency: QuantileHistogram::new(),
            queue_wait: QuantileHistogram::new(),
            service: QuantileHistogram::new(),
            completed: 0,
            deadline_missed: 0,
            per_class_completed: vec![0; workloads.len()],
            sink,
        },
        offered: 0,
        tally: FaultTally::default(),
        retry_counts: BTreeMap::new(),
    };

    let makespan = Engine::new(config.fidelity).run(&mut events, &mut fleet);

    // With the whole fleet down, queued requests have no instance left
    // to serve them: record each as failed so the ledger still closes.
    for request in fleet.admission.drain_remaining() {
        fleet.tally.failed += 1;
        let retries = fleet.retries(request.id);
        fleet.ledger.settle(RequestRecord::dropped(
            request,
            Disposition::Failed,
            retries,
        ));
        usystolic_obs::with(|o| {
            o.metrics.count("serve.failed", 1);
            o.metrics
                .count_labeled("serve.rejections", &[("reason", "shard_down")], 1);
        });
    }

    let stats = fleet.ledger;
    let makespan = makespan.max(config.duration_cycles);
    let busy_cycles: Vec<u64> = fleet.instances.iter().map(|i| i.busy_cycles).collect();
    let batches: u64 = fleet.instances.iter().map(|i| i.batches).sum();
    let elapsed_s = makespan as f64 / CLOCK_HZ;
    let total_busy: u64 = busy_cycles.iter().sum();

    let report = ServeReport {
        instances: config.instances,
        workers: config.workers.max(1),
        queue_capacity: config.queue_capacity,
        max_batch: config.max_batch,
        duration_cycles: config.duration_cycles,
        makespan_cycles: makespan,
        offered: fleet.offered,
        admitted: fleet.admission.admitted(),
        rejected: fleet.admission.rejected(),
        completed: stats.completed,
        timed_out: fleet.tally.timed_out,
        failed: fleet.tally.failed,
        retries: fleet.tally.retries,
        failovers: fleet.tally.failovers,
        brownout_requests: fleet.tally.brownout_requests,
        shard_crashes: fleet.tally.shard_crashes,
        deadline_missed: stats.deadline_missed,
        batches,
        max_queue_depth: fleet.admission.max_depth(),
        latency: (&stats.latency).into(),
        queue_wait: (&stats.queue_wait).into(),
        service: (&stats.service).into(),
        instance_busy_cycles: busy_cycles,
        throughput_per_s: stats.completed as f64 / elapsed_s,
        mean_utilization: total_busy as f64 / (config.instances as f64 * makespan as f64),
        workload_names: workloads.iter().map(|w| w.name.clone()).collect(),
        per_class_completed: stats.per_class_completed,
    };

    // Request conservation is an invariant, not a statistic: every
    // offered request is admitted or rejected, and every admitted
    // request ends exactly one way — completed, timed out or failed.
    assert!(
        report.conserved(),
        "request conservation violated: offered={} admitted={} rejected={} \
         completed={} timed_out={} failed={} (lost={})",
        report.offered,
        report.admitted,
        report.rejected,
        report.completed,
        report.timed_out,
        report.failed,
        report.lost(),
    );

    usystolic_obs::with(|o| {
        o.metrics.count("serve.offered", report.offered);
        o.metrics.count("serve.admitted", report.admitted);
        o.metrics.count("serve.batches", report.batches);
        o.metrics
            .count("serve.deadline_missed", report.deadline_missed);
        o.metrics
            .gauge("serve.max_queue_depth", report.max_queue_depth as f64);
        o.metrics
            .gauge("serve.mean_utilization", report.mean_utilization);
        o.metrics
            .gauge("serve.throughput_per_s", report.throughput_per_s);
        if stats.latency.count() > 0 {
            o.metrics
                .merge_quantile("serve.latency_cycles", stats.latency);
            o.metrics
                .merge_quantile("serve.queue_wait_cycles", stats.queue_wait);
        }
    });
    Ok(report)
}

/// Phase 1: per-layer profiles on the pool, folded per workload.
fn profile_workloads(
    config: &ServeConfig,
    workloads: &[Workload],
) -> Result<Vec<WorkloadProfile>, ServeError> {
    let tasks: Vec<(usize, usize)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(w, wl)| (0..wl.layers.len()).map(move |l| (w, l)))
        .collect();
    let layer_profiles = run_indexed(config.workers.max(1), tasks.len(), |i| {
        let (w, l) = tasks[i];
        LayerProfile::compute(&workloads[w].layers[l], &config.array, &config.memory)
    })
    .map_err(ServeError::Pool)?;
    Ok(workloads
        .iter()
        .enumerate()
        .map(|(w, wl)| {
            let layers: Vec<LayerProfile> = tasks
                .iter()
                .zip(&layer_profiles)
                .filter(|((tw, _), _)| *tw == w)
                .map(|(_, &p)| p)
                .collect();
            WorkloadProfile::from_layers(&wl.name, &layers, &config.memory)
        })
        .collect())
}
