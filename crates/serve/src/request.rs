//! Requests and their lifecycle records.
//!
//! A [`Request`] is one inference demand: a workload class (an index into
//! the serving system's registered [`Workload`]s), an arrival cycle, a
//! priority and an optional absolute deadline. The serving engine turns
//! each request into a [`RequestRecord`] — either rejected at admission or
//! completed with its full per-stage timeline — from which every latency
//! metric is derived.
//!
//! [`Workload`]: crate::workload::Workload

/// Scheduling priority. Higher values pre-empt lower ones at dispatch
/// time (they never pre-empt an in-flight batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort traffic.
    Normal,
    /// Latency-sensitive traffic, dispatched ahead of normal requests.
    High,
}

impl Priority {
    /// Numeric rank used by the scheduler (higher = more urgent).
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            Priority::Normal => 0,
            Priority::High => 1,
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One inference request flowing through the serving system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique, monotonically assigned id (also the deterministic
    /// tie-breaker everywhere ordering matters).
    pub id: u64,
    /// Index into the serving system's workload table.
    pub class: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// Scheduling priority.
    pub priority: Priority,
    /// Absolute deadline cycle (`arrival + relative deadline`), if any.
    pub deadline: Option<u64>,
    /// Closed-loop client that issued the request, if any (the client
    /// re-issues after completion plus think time).
    pub client: Option<usize>,
}

impl Request {
    /// The scheduler's dispatch key: high priority first, then earliest
    /// deadline, then earliest arrival, then id. Smaller sorts first.
    #[must_use]
    pub fn dispatch_key(&self) -> (u8, u64, u64, u64) {
        (
            u8::MAX - self.priority.rank(),
            self.deadline.unwrap_or(u64::MAX),
            self.arrival,
            self.id,
        )
    }
}

/// Why a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served to completion.
    Completed,
    /// Turned away by the admission controller (bounded queue full).
    Rejected,
    /// Expired while queued: its wait budget ran out, or shedding
    /// dropped it past its deadline.
    TimedOut,
    /// Lost to shard failure with retries exhausted (or the whole fleet
    /// down at end of run).
    Failed,
}

impl Disposition {
    /// Short label for metrics and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::Rejected => "rejected",
            Disposition::TimedOut => "timed_out",
            Disposition::Failed => "failed",
        }
    }
}

/// The full lifecycle record of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request as admitted (or rejected).
    pub request: Request,
    /// How the request left the system.
    pub disposition: Disposition,
    /// Cycle the request was packed onto an instance (0 unless
    /// completed).
    pub dispatch: u64,
    /// Cycle the batch carrying the request completed (0 unless
    /// completed).
    pub completion: u64,
    /// Instance that served it (0 unless completed; 1-based otherwise).
    pub instance: usize,
    /// Size of the batch it was served in (0 unless completed).
    pub batch_size: usize,
    /// Retry attempts consumed after shard crashes (0 when its shard
    /// never crashed under it).
    pub retries: u32,
    /// Whether it was served degraded under brown-out (raised early
    /// termination, reduced precision).
    pub degraded: bool,
}

impl RequestRecord {
    /// The record of a request that left without being served —
    /// rejected, timed out or failed — after `retries` retry attempts.
    /// Its timeline fields (dispatch, completion, instance, batch size)
    /// are all zero.
    #[must_use]
    pub fn dropped(request: Request, disposition: Disposition, retries: u32) -> Self {
        debug_assert_ne!(
            disposition,
            Disposition::Completed,
            "completions carry a timeline"
        );
        Self {
            request,
            disposition,
            dispatch: 0,
            completion: 0,
            instance: 0,
            batch_size: 0,
            retries,
            degraded: false,
        }
    }

    /// End-to-end latency in cycles (admission to completion); `None`
    /// unless completed.
    #[must_use]
    pub fn latency_cycles(&self) -> Option<u64> {
        match self.disposition {
            Disposition::Completed => Some(self.completion - self.request.arrival),
            _ => None,
        }
    }

    /// Cycles spent waiting in the admission queue; `None` unless
    /// completed.
    #[must_use]
    pub fn queue_wait_cycles(&self) -> Option<u64> {
        match self.disposition {
            Disposition::Completed => Some(self.dispatch - self.request.arrival),
            _ => None,
        }
    }

    /// Cycles spent in service (dispatch to completion); `None` unless
    /// completed.
    #[must_use]
    pub fn service_cycles(&self) -> Option<u64> {
        match self.disposition {
            Disposition::Completed => Some(self.completion - self.dispatch),
            _ => None,
        }
    }

    /// Whether the request completed after its deadline (requests with
    /// a deadline that never complete — rejected, timed out, failed —
    /// also count as missed).
    #[must_use]
    pub fn deadline_missed(&self) -> bool {
        match (self.request.deadline, self.disposition) {
            (None, _) => false,
            (Some(d), Disposition::Completed) => self.completion > d,
            (Some(_), _) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request {
            id,
            class: 0,
            arrival: 100,
            priority: Priority::Normal,
            deadline: None,
            client: None,
        }
    }

    #[test]
    fn dispatch_key_orders_priority_then_deadline_then_arrival() {
        let normal = req(5);
        let mut high = req(9);
        high.priority = Priority::High;
        assert!(high.dispatch_key() < normal.dispatch_key());

        let mut tight = req(7);
        tight.deadline = Some(200);
        let mut loose = req(3);
        loose.deadline = Some(300);
        assert!(tight.dispatch_key() < loose.dispatch_key());
        // No deadline sorts after any deadline at equal priority.
        assert!(tight.dispatch_key() < normal.dispatch_key());

        // Equal priority and deadline: earlier arrival, then id.
        let mut early = req(8);
        early.arrival = 50;
        assert!(early.dispatch_key() < normal.dispatch_key());
        assert!(req(1).dispatch_key() < req(2).dispatch_key());
    }

    #[test]
    fn record_derives_stage_latencies() {
        let r = RequestRecord {
            request: req(1),
            disposition: Disposition::Completed,
            dispatch: 150,
            completion: 400,
            instance: 1,
            batch_size: 2,
            retries: 0,
            degraded: false,
        };
        assert_eq!(r.latency_cycles(), Some(300));
        assert_eq!(r.queue_wait_cycles(), Some(50));
        assert_eq!(r.service_cycles(), Some(250));
        assert!(!r.deadline_missed());
    }

    #[test]
    fn deadline_missed_semantics() {
        let mut r = RequestRecord {
            request: req(1),
            disposition: Disposition::Completed,
            dispatch: 150,
            completion: 400,
            instance: 1,
            batch_size: 1,
            retries: 0,
            degraded: false,
        };
        r.request.deadline = Some(399);
        assert!(r.deadline_missed());
        r.request.deadline = Some(400);
        assert!(!r.deadline_missed());

        let mut rejected = r;
        rejected.disposition = Disposition::Rejected;
        assert!(rejected.deadline_missed());
        rejected.request.deadline = None;
        assert!(!rejected.deadline_missed());
        assert_eq!(rejected.latency_cycles(), None);
        assert_eq!(rejected.queue_wait_cycles(), None);
        assert_eq!(rejected.service_cycles(), None);
    }

    #[test]
    fn terminal_fault_dispositions_carry_no_latency() {
        let mut r = RequestRecord::dropped(req(2), Disposition::TimedOut, 1);
        assert_eq!(
            (r.dispatch, r.completion, r.instance, r.batch_size),
            (0, 0, 0, 0)
        );
        assert_eq!((r.retries, r.degraded), (1, false));
        assert_eq!(r.latency_cycles(), None);
        assert_eq!(r.service_cycles(), None);
        assert!(!r.deadline_missed());
        r.request.deadline = Some(50);
        assert!(r.deadline_missed());
        r.disposition = Disposition::Failed;
        assert!(r.deadline_missed());
        assert_eq!(r.queue_wait_cycles(), None);
        assert_eq!(Disposition::TimedOut.label(), "timed_out");
        assert_eq!(Disposition::Failed.label(), "failed");
    }
}
