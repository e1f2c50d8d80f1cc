//! The serving engine: a deterministic discrete-event simulation on the
//! `usystolic_des` calendar.
//!
//! [`serve`] is the one-call entry point ([`serve_with`] also hands every
//! per-request record to a caller's sink). It runs two phases:
//!
//! 1. **Profile** (parallel) — every `(workload, layer)` pair is profiled
//!    into the batched service-time model of
//!    [`WorkloadProfile`](crate::workload::WorkloadProfile) on the
//!    work-stealing pool, the only work the pool does. Profiling is pure,
//!    so the phase is result-identical for any worker count.
//! 2. **Event loop** (sequential, deterministic) — the fleet takes its
//!    events in `(cycle, class, insertion)` order and handles each:
//!    arrivals flow through the bounded [`AdmissionController`], the
//!    EDF/priority [`Scheduler`] packs same-class batches onto free
//!    instances, and completions free instances and (in closed-loop mode)
//!    trigger the next client request. Events wait in three sources: an
//!    open loop's next arrival, drawn one ahead (each arrival draws the
//!    next, never the whole stream); the armed timeouts, a FIFO because
//!    one fixed budget makes arming order firing order; and the
//!    `usystolic_des` [`EventQueue`] for completions, fleet faults,
//!    retries and closed-loop arrivals. The loop takes the earliest head
//!    by `(cycle, class)` ([`EventQueue::peek`] for the calendar's), the
//!    calendar's own tie order, so only out-of-order events pay for the
//!    heap. Every request that leaves the system — completed,
//!    rejected, timed out or failed — is folded into the
//!    latency/wait/service [`QuantileHistogram`]s right there; no
//!    per-request record is kept. Service times
//!    resolve at the configured [`Fidelity`], both exact: cycle-accurate
//!    re-derives each class's layer profiles from its raw GEMMs at every
//!    dispatch, and packed reads the totals hoisted into the profile
//!    phase (same bits, less work per dispatch). Shared-DRAM contention
//!    scales with the number of busy instances at dispatch.
//!
//! The caller's `usystolic_obs` session (if installed) receives each
//! metric from one site, where its value is final. The ledger's `settle`
//! counts every request that leaves the system by outcome (and by
//! rejection reason, each such request also one `serve.rejections`
//! series sample) and samples its per-class latency; each dispatch
//! records its batch size, the queue depth and, when the session's tracer
//! is on, one Chrome-trace span on the simulated-cycle lane (`tid` =
//! instance); arrivals and queue depth also feed windowed series. The run
//! totals (offered, admitted, batches, retries, failovers, brown-out
//! requests, injected fleet faults and the `des.events.dispatched` event
//! count) and the ledger's latency and queue-wait histograms are written
//! once, after the report is built. The event loop itself records only
//! the `des.queue_depth{component="fleet"}` series, counting the events
//! of all three sources. The layer profiles record nothing, so a snapshot
//! is the same at any worker count and either fidelity.

use crate::admission::{Admission, AdmissionController};
use crate::loadgen::LoadGen;
use crate::pool::run_indexed;
use crate::report::{ServeConfig, ServeError, ServeReport};
use crate::request::{Disposition, Request, RequestRecord};
use crate::scheduler::Scheduler;
use crate::workload::{batched_service_cycles, LayerProfile, Workload, WorkloadProfile};
use std::collections::{BTreeMap, VecDeque};
use usystolic_des::{Event, EventQueue, Fidelity};
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

/// Same-cycle class of [`EventKind::Timeout`].
const TIMEOUT_CLASS: u8 = 3;
/// Same-cycle class of [`EventKind::Arrival`].
const ARRIVAL_CLASS: u8 = 5;

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
            EventKind::Timeout { .. } => TIMEOUT_CLASS,
            EventKind::Retry(_) => 4,
            EventKind::Arrival(_) => ARRIVAL_CLASS,
        }
    }
}

/// Per-instance bookkeeping during the event loop.
#[derive(Debug)]
struct Instance {
    /// The batch in flight, empty while idle. The buffer is kept across
    /// dispatches, so a steady fleet allocates no batch.
    batch: Vec<Request>,
    /// Cycle the in-flight batch was dispatched at.
    dispatch: u64,
    /// Whether the in-flight batch runs degraded (brown-out).
    degraded: bool,
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
struct Ledger<'a, S> {
    latency: QuantileHistogram,
    queue_wait: QuantileHistogram,
    /// Observed once per completed batch, weighted by its size: every
    /// request of a batch shares its service time.
    service: QuantileHistogram,
    completed: u64,
    timed_out: u64,
    failed: u64,
    deadline_missed: u64,
    per_class_completed: Vec<u64>,
    /// The classes, for the `{class}` labels.
    workloads: &'a [Workload],
    sink: S,
}

impl<S: FnMut(&RequestRecord)> Ledger<'_, S> {
    /// Folds one terminal request into the statistics and the session's
    /// outcome metrics, then hands its record to the sink. `reason`
    /// labels `serve.rejections` for a request that was not served
    /// (`None` for a completion), which also samples the
    /// `serve.rejections` series at cycle `now`.
    // Always inlined: called once per settled request, an outlined call
    // cost perfbench's `fleet_steady` ~12% of its wall time.
    #[inline(always)]
    fn settle(&mut self, now: u64, record: RequestRecord, reason: Option<&'static str>) {
        let request = record.request;
        if record.deadline_missed() {
            self.deadline_missed += 1;
        }
        // The outcome counter, and whether `{class, priority}` splits it.
        let (outcome, by_class) = match record.disposition {
            Disposition::Completed => {
                self.latency.observe(record.completion - request.arrival);
                self.queue_wait.observe(record.dispatch - request.arrival);
                self.completed += 1;
                self.per_class_completed[request.class] += 1;
                ("serve.completed", true)
            }
            Disposition::Rejected => ("serve.rejected", true),
            Disposition::TimedOut => {
                self.timed_out += 1;
                ("serve.timeouts", false)
            }
            Disposition::Failed => {
                self.failed += 1;
                ("serve.failed", false)
            }
        };
        let (workloads, latency) = (self.workloads, record.latency_cycles());
        usystolic_obs::with(|o| {
            let class = workloads[request.class].name.as_str();
            o.metrics.count(outcome, 1);
            if by_class {
                let labels = [("class", class), ("priority", request.priority.label())];
                o.metrics.count_labeled(outcome, &labels, 1);
            }
            // The unlabeled latency is the ledger's own histogram, merged
            // once after the run.
            if let Some(latency) = latency {
                o.metrics
                    .observe_labeled("serve.latency_cycles", &[("class", class)], latency);
            }
            if let Some(reason) = reason {
                o.metrics
                    .count_labeled("serve.rejections", &[("reason", reason)], 1);
                o.metrics.series_record("serve.rejections", now, 1.0);
            }
        });
        (self.sink)(&record);
    }
}

/// Fault-path totals the event loop accumulates, written to the session
/// once after the run.
#[derive(Debug, Default)]
struct FaultTally {
    retries: u64,
    failovers: u64,
    brownout_requests: u64,
    shard_crashes: u64,
    shard_slowdowns: u64,
}

/// The alive, idle instances as a bitset: bit `i % 64` of word `i / 64`
/// is set iff instance `i` (0-based) is alive and has no batch in flight.
/// The lowest set bit is the lowest-index free instance, the one
/// dispatch fills first.
#[derive(Debug)]
struct IdleSet(Vec<u64>);

impl IdleSet {
    /// A set holding all of instances `0..n`.
    fn full(n: usize) -> Self {
        let mut set = Self(vec![0; n.div_ceil(64)]);
        for i in 0..n {
            set.insert(i);
        }
        set
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1u64 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1u64 << (i % 64));
    }

    /// The lowest member, if any.
    fn first(&self) -> Option<usize> {
        let (word, bits) = self.0.iter().enumerate().find(|(_, &bits)| bits != 0)?;
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

/// Labels of the `des.queue_depth` series.
const FLEET: [(&str, &str); 1] = [("component", "fleet")];

/// Where the fleet's next event waits.
#[derive(Debug, Clone, Copy)]
enum Source {
    Calendar,
    Arrival,
    Timer,
}

/// The whole serving fleet: its event sources, admission, scheduling,
/// instances, fault handling and the request ledger.
///
/// Events wait in three sources, merged by `(cycle, class)`, the
/// calendar's own tie order. Two kinds arrive already in firing order
/// and skip the calendar's heap: an open loop's arrivals (strictly
/// increasing cycles, drawn one ahead) and the timeouts (each armed at
/// `now + timeout_cycles` with one budget, so arming order is firing
/// order). Every other event goes through the calendar. Each class lives
/// in one source (a closed loop's arrivals go to the calendar, and then
/// `arrival` stays empty), so no two sources tie.
struct Fleet<'a, S> {
    /// Completions, fleet faults, retries and closed-loop arrivals.
    events: EventQueue<EventKind>,
    /// The open loop's next arrival.
    arrival: Option<Request>,
    /// Armed timeouts `(at, id, attempt)`, earliest first.
    timers: VecDeque<(u64, u64, u32)>,
    config: &'a ServeConfig,
    workloads: &'a [Workload],
    profiles: &'a [WorkloadProfile],
    load: LoadGen,
    admission: AdmissionController,
    scheduler: Scheduler,
    instances: Vec<Instance>,
    /// The instances dispatch may fill.
    idle: IdleSet,
    busy: usize,
    ledger: Ledger<'a, S>,
    offered: u64,
    tally: FaultTally,
    /// Retry attempts consumed per request id, keyed deterministically.
    /// Only requests still in the system have an entry: settling a
    /// request takes its entry out.
    retry_counts: BTreeMap<u64, u32>,
}

impl<S> Fleet<'_, S> {
    /// Puts `event` on the calendar at cycle `at`, handling cycle `now`.
    /// Nothing is scheduled in the past, so the calendar's clamp never
    /// moves an event of the fleet.
    fn schedule(&mut self, now: u64, at: u64, event: EventKind) {
        debug_assert!(at >= now, "event scheduled at {at}, before cycle {now}");
        self.events.schedule(at, event);
    }

    /// Arms request `id`'s wait budget for `attempt`, if timeouts are on.
    fn arm_timeout(&mut self, now: u64, id: u64, attempt: u32) {
        if let Some(t) = self.config.faults.timeout_cycles {
            let at = now.saturating_add(t);
            debug_assert!(
                self.timers.back().is_none_or(|&(last, ..)| last <= at),
                "timers must be armed in firing order"
            );
            self.timers.push_back((at, id, attempt));
        }
    }

    /// Events waiting in all three sources.
    fn pending(&self) -> usize {
        self.events.len() + usize::from(self.arrival.is_some()) + self.timers.len()
    }

    /// Takes the earliest event of the three sources by `(cycle, class)`.
    fn next_event(&mut self) -> Option<(u64, EventKind)> {
        let mut next = self.events.peek();
        let mut source = Source::Calendar;
        if let Some(r) = &self.arrival {
            let key = (r.arrival, ARRIVAL_CLASS);
            if next.is_none_or(|n| key < n) {
                (next, source) = (Some(key), Source::Arrival);
            }
        }
        if let Some(&(at, ..)) = self.timers.front() {
            let key = (at, TIMEOUT_CLASS);
            if next.is_none_or(|n| key < n) {
                source = Source::Timer;
            }
        }
        match source {
            Source::Calendar => self.events.pop().map(|s| (s.at, s.event)),
            Source::Arrival => self
                .arrival
                .take()
                .map(|r| (r.arrival, EventKind::Arrival(r))),
            Source::Timer => self
                .timers
                .pop_front()
                .map(|(at, id, attempt)| (at, EventKind::Timeout { id, attempt })),
        }
    }

    /// Retry attempts request `id` has consumed so far.
    fn retries(&self, id: u64) -> u32 {
        self.retry_counts.get(&id).copied().unwrap_or(0)
    }

    /// [`Self::retries`], dropping the entry: for a request that is
    /// leaving the system (or about to record its next attempt).
    fn take_retries(&mut self, id: u64) -> u32 {
        self.retry_counts.remove(&id).unwrap_or(0)
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
            // bit-identical to the packed totals: the reference the
            // hoisted totals are checked against.
            Fidelity::CycleAccurate => {
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
        }
    }

    /// Greedy dispatch: fill every free *alive* instance while the queue
    /// has work. Under brown-out (queue at or past the depth threshold)
    /// batches run degraded — scaled compute and traffic, the serving
    /// analogue of raised early termination. A slowed shard stretches
    /// its service time by its percent factor.
    fn dispatch_free_instances(&mut self, now: u64) {
        loop {
            if self.admission.depth() == 0 {
                return;
            }
            let Some(free_idx) = self.idle.first() else {
                return;
            };
            // Brown-out is decided on the depth seen *before* this batch
            // drains it — the signal an overloaded fleet actually has.
            let degraded = self.config.faults.brownout.filter(|b| {
                self.admission.depth() * 1000
                    >= b.depth_permille as usize * self.admission.capacity()
            });
            // An idle instance's buffer is empty; the batch fills it.
            if !self
                .scheduler
                .next_batch_into(&mut self.admission, &mut self.instances[free_idx].batch)
            {
                return;
            }
            let batch = &self.instances[free_idx].batch;
            let class = batch[0].class;
            let concurrency = self.busy + 1;
            let permille = degraded.map_or(1000, |b| b.service_permille);
            let service = self.service_cycles_at(class, batch.len(), concurrency, permille);
            // A slowed shard serves at factor_percent of nominal speed.
            let service =
                service.saturating_mul(u64::from(self.instances[free_idx].slow_percent)) / 100;
            let completion = now.saturating_add(service);
            if degraded.is_some() {
                self.tally.brownout_requests += batch.len() as u64;
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
                o.metrics.observe("serve.batch_size", batch.len() as u64);
                o.metrics.observe_labeled(
                    "serve.batch_size",
                    &[("class", class_name)],
                    batch.len() as u64,
                );
                let depth = admission.depth() as f64;
                o.metrics.gauge("serve.queue_depth", depth);
                o.metrics.series_record("serve.queue_depth", now, depth);
                o.metrics
                    .series_record("serve.dispatches", now, batch.len() as f64);
                if !o.tracer.enabled() {
                    return;
                }
                // The span carries the requests it serves (`req` is the
                // lead one) and the shard running them, so one request's
                // admission → batch path reconstructs in Perfetto.
                o.tracer.complete(
                    format!("batch {}", profiles[class].name),
                    "serve",
                    usystolic_obs::PID_SIM,
                    free_idx as u32 + 1,
                    now as f64,
                    service as f64,
                    vec![
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
                        ("req".to_owned(), batch[0].id.to_json()),
                        ("shard".to_owned(), (free_idx as u64 + 1).to_json()),
                    ],
                );
            });
            let slot = &mut self.instances[free_idx];
            slot.dispatch = now;
            slot.degraded = degraded.is_some();
            slot.batches += 1;
            let epoch = slot.epoch;
            self.idle.remove(free_idx);
            self.busy += 1;
            self.schedule(
                now,
                completion,
                EventKind::Completion {
                    instance: free_idx + 1,
                    epoch,
                },
            );
        }
    }
}

impl<S: FnMut(&RequestRecord)> Fleet<'_, S> {
    /// Takes and handles events until every source drains; returns the
    /// cycle of the last event (0 when none fired) and the number of
    /// events handled. Each event records one sample of the
    /// `des.queue_depth{component="fleet"}` series: the events still
    /// waiting in all three sources.
    fn run(&mut self) -> (u64, u64) {
        let mut last = 0;
        let mut handled = 0;
        while let Some((at, event)) = self.next_event() {
            last = at;
            handled += 1;
            self.handle(at, event);
            let depth = self.pending() as f64;
            usystolic_obs::with(|o| {
                o.metrics
                    .series_record_labeled("des.queue_depth", &FLEET, at, depth);
            });
        }
        (last, handled)
    }

    fn handle(&mut self, now: u64, event: EventKind) {
        match event {
            EventKind::Arrival(request) => {
                self.offered += 1;
                // An open loop holds one arrival ahead: this one draws the
                // next (closed loops draw none here).
                self.arrival = self.load.next_arrival(self.config.duration_cycles);
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
                let (admission, workloads) = (&self.admission, self.workloads);
                usystolic_obs::with(|o| {
                    o.metrics.series_record("serve.arrivals", now, 1.0);
                    if decision == Admission::Admitted {
                        let depth = admission.depth() as f64;
                        o.metrics.gauge("serve.queue_depth", depth);
                        o.metrics.series_record("serve.queue_depth", now, depth);
                        return;
                    }
                    if !o.tracer.enabled() {
                        return;
                    }
                    o.tracer.instant(
                        "rejected",
                        "serve",
                        usystolic_obs::PID_SIM,
                        0,
                        now as f64,
                        vec![
                            ("class".to_owned(), workloads[request.class].name.to_json()),
                            ("req".to_owned(), request.id.to_json()),
                        ],
                    );
                });
                match decision {
                    Admission::Admitted => self.arm_timeout(now, request.id, 0),
                    Admission::Rejected => self.ledger.settle(
                        now,
                        RequestRecord::dropped(request, Disposition::Rejected, 0),
                        Some("capacity"),
                    ),
                }
            }
            EventKind::Completion { instance, epoch } => {
                let slot = &mut self.instances[instance - 1];
                // A completion from before the shard's crash is stale:
                // the batch was lost, ShardFail already re-routed it.
                if slot.epoch != epoch {
                    return;
                }
                // The buffer goes back to the instance emptied, keeping its
                // capacity for the next dispatch.
                let mut batch = std::mem::take(&mut slot.batch);
                if !batch.is_empty() {
                    self.busy -= 1;
                    slot.busy_cycles += now - slot.dispatch;
                    let size = batch.len();
                    let (dispatch, degraded) = (slot.dispatch, slot.degraded);
                    self.idle.insert(instance - 1);
                    self.ledger.service.observe_n(now - dispatch, size as u64);
                    for request in batch.drain(..) {
                        let retries = self.take_retries(request.id);
                        self.ledger.settle(
                            now,
                            RequestRecord {
                                request,
                                disposition: Disposition::Completed,
                                dispatch,
                                completion: now,
                                instance,
                                batch_size: size,
                                retries,
                                degraded,
                            },
                            None,
                        );
                        if let Some(client) = request.client {
                            if let Some(next) =
                                self.load
                                    .after_completion(client, now, self.config.duration_cycles)
                            {
                                self.schedule(now, next.arrival, EventKind::Arrival(next));
                            }
                        }
                    }
                }
                self.instances[instance - 1].batch = batch;
            }
            EventKind::ShardFail { instance } => {
                let slot = &mut self.instances[instance - 1];
                if slot.alive {
                    slot.alive = false;
                    slot.epoch += 1;
                    self.idle.remove(instance - 1);
                    self.tally.shard_crashes += 1;
                    usystolic_obs::with(|o| {
                        o.tracer.instant(
                            "shard_fail",
                            "faults",
                            usystolic_obs::PID_SIM,
                            instance as u32,
                            now as f64,
                            Vec::new(),
                        );
                    });
                    // A dead shard never dispatches again: its buffer goes.
                    let batch = std::mem::take(&mut slot.batch);
                    if !batch.is_empty() {
                        self.busy -= 1;
                        slot.busy_cycles += now - slot.dispatch;
                        for request in batch {
                            let attempt = self.take_retries(request.id);
                            if attempt < self.config.faults.retry.max_retries {
                                self.retry_counts.insert(request.id, attempt + 1);
                                self.tally.retries += 1;
                                let delay = self.config.faults.backoff_cycles(request.id, attempt);
                                self.schedule(
                                    now,
                                    now.saturating_add(delay),
                                    EventKind::Retry(request),
                                );
                            } else {
                                self.ledger.settle(
                                    now,
                                    RequestRecord::dropped(request, Disposition::Failed, attempt),
                                    Some("shard_down"),
                                );
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
                    self.tally.shard_slowdowns += 1;
                }
            }
            // A timer armed for an earlier attempt is stale: a crash has
            // resubmitted the request since, restarting its budget.
            EventKind::Timeout { id, attempt } if attempt != self.retries(id) => {}
            EventKind::Timeout { id, .. } => {
                // Only bites while the request still waits in the queue;
                // dispatched or completed requests ignore stale timers.
                if let Some(request) = self.admission.remove_by_id(id) {
                    let retries = self.take_retries(id);
                    self.ledger.settle(
                        now,
                        RequestRecord::dropped(request, Disposition::TimedOut, retries),
                        Some("timeout"),
                    );
                }
            }
            EventKind::Retry(request) => {
                // Failover: the shard that held it is gone; the request
                // re-enters the queue for the survivors. Its wait budget
                // restarts from this resubmission.
                self.tally.failovers += 1;
                self.admission.requeue(request);
                self.arm_timeout(now, request.id, self.retries(request.id));
            }
        }
        if self.config.faults.shed_expired {
            for request in self.admission.expire_before(now) {
                let retries = self.take_retries(request.id);
                self.ledger.settle(
                    now,
                    RequestRecord::dropped(request, Disposition::TimedOut, retries),
                    Some("deadline"),
                );
            }
        }
        self.dispatch_free_instances(now);
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

    // ---- Phase 2: the deterministic event loop on the des calendar. ---
    let mut load = {
        let mut lc = config.load;
        lc.classes = workloads.len();
        LoadGen::new(lc)
    };
    let mut events: EventQueue<EventKind> = EventQueue::new();
    // Closed loops seed one request per client on the calendar. An open
    // loop holds only its first arrival; each arrival then draws the
    // next. Open-loop arrival cycles strictly increase and `Arrival` is
    // the last same-cycle class, so this fires in the order the whole
    // stream scheduled up front would.
    let mut arrival = None;
    if load.is_closed_loop() {
        for r in load.initial_arrivals(config.duration_cycles) {
            events.schedule(r.arrival, EventKind::Arrival(r));
        }
    } else {
        arrival = load.next_arrival(config.duration_cycles);
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
    // Windowed series share one bucket geometry derived from the run
    // horizon, so rolling arrival/rejection/queue-depth rates line up
    // bucket-for-bucket (the signal an autoscaler consumes). The
    // calendar-depth series joins them only when an event will fire, so
    // an empty run records no `des.*` key.
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
        if !events.is_empty() || arrival.is_some() {
            o.metrics
                .register_series("des.queue_depth", &FLEET, width, 128);
        }
    });

    let mut fleet = Fleet {
        events,
        arrival,
        timers: VecDeque::new(),
        config,
        workloads,
        profiles: &profiles,
        load,
        admission: AdmissionController::new(config.queue_capacity),
        scheduler: Scheduler::new(config.max_batch),
        instances: (0..config.instances)
            .map(|_| Instance {
                batch: Vec::new(),
                dispatch: 0,
                degraded: false,
                busy_cycles: 0,
                batches: 0,
                alive: true,
                epoch: 0,
                slow_percent: 100,
            })
            .collect(),
        idle: IdleSet::full(config.instances),
        busy: 0,
        ledger: Ledger {
            latency: QuantileHistogram::new(),
            queue_wait: QuantileHistogram::new(),
            service: QuantileHistogram::new(),
            completed: 0,
            deadline_missed: 0,
            timed_out: 0,
            failed: 0,
            per_class_completed: vec![0; workloads.len()],
            workloads,
            sink,
        },
        offered: 0,
        tally: FaultTally::default(),
        retry_counts: BTreeMap::new(),
    };

    let (makespan, events) = fleet.run();

    // With the whole fleet down, queued requests have no instance left
    // to serve them: record each as failed, at the last event's cycle, so
    // the ledger still closes.
    for request in fleet.admission.drain_remaining() {
        let retries = fleet.take_retries(request.id);
        fleet.ledger.settle(
            makespan,
            RequestRecord::dropped(request, Disposition::Failed, retries),
            Some("shard_down"),
        );
    }

    // Every request has left the system, taking its retry entry along.
    debug_assert!(fleet.retry_counts.is_empty(), "retry ledger leaked");
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
        timed_out: stats.timed_out,
        failed: stats.failed,
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
        // Totals of what a run may never do write no key while zero.
        let mut total = |name: &str, labels: &[(&str, &str)], v: u64| {
            if v > 0 {
                o.metrics.count_labeled(name, labels, v);
            }
        };
        total("serve.retries", &[], report.retries);
        total("serve.failovers", &[], report.failovers);
        total("serve.brownout_requests", &[], report.brownout_requests);
        total(
            "faults.injected",
            &[("kind", "shard_fail")],
            report.shard_crashes,
        );
        total(
            "faults.injected",
            &[("kind", "shard_slow")],
            fleet.tally.shard_slowdowns,
        );
        total("des.events.dispatched", &[], events);
        o.metrics
            .gauge("serve.max_queue_depth", report.max_queue_depth as f64);
        o.metrics
            .gauge("serve.mean_utilization", report.mean_utilization);
        o.metrics
            .gauge("serve.throughput_per_s", report.throughput_per_s);
        if stats.latency.count() > 0 {
            o.metrics
                .merge_histogram("serve.latency_cycles", stats.latency);
            o.metrics
                .merge_histogram("serve.queue_wait_cycles", stats.queue_wait);
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

#[cfg(test)]
mod tests {
    use super::IdleSet;

    #[test]
    fn idle_set_yields_the_lowest_member_across_words() {
        let mut idle = IdleSet::full(96);
        assert_eq!(idle.first(), Some(0));
        for i in 0..70 {
            idle.remove(i);
        }
        assert_eq!(idle.first(), Some(70), "second word");
        idle.insert(63);
        assert_eq!(idle.first(), Some(63), "back in the first word");
        idle.remove(63);
        for i in 70..96 {
            idle.remove(i);
        }
        assert_eq!(idle.first(), None);
        idle.insert(95);
        assert_eq!(idle.first(), Some(95));
        assert_eq!(IdleSet::full(0).first(), None);
    }
}
