//! Deadline- and priority-aware batching dispatch.
//!
//! Whenever an instance is free and the admission queue is non-empty, the
//! scheduler picks the *leader* — the queued request with the smallest
//! [`dispatch_key`](crate::request::Request::dispatch_key) (highest
//! priority, then earliest deadline, then earliest arrival, then id; a
//! priority-tiered EDF) — and then packs up to `max_batch − 1` further
//! requests **of the same workload class** behind it, again in key order.
//! Same-class batching is what amortises the weight preload: the batch
//! pays the class's weight DRAM traffic once and streams each member's
//! inputs through the resident weights (see
//! [`WorkloadProfile::service_cycles`]).
//!
//! The scheduler never pre-empts an in-flight batch and never migrates a
//! dispatched request; all decisions happen at event boundaries, so the
//! dispatch sequence is a deterministic function of the queue contents.
//! The [`AdmissionController`] keeps each class sorted by dispatch key,
//! so a decision costs `O(classes + max_batch)`, not a scan of the queue.
//!
//! [`WorkloadProfile::service_cycles`]: crate::workload::WorkloadProfile::service_cycles

use crate::admission::AdmissionController;
use crate::request::Request;

/// The batching policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler {
    /// Largest batch one dispatch may carry (≥ 1).
    pub max_batch: usize,
}

impl Scheduler {
    /// Creates a scheduler with the given batch bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    #[must_use]
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        Self { max_batch }
    }

    /// Removes and returns the next batch to dispatch, or `None` when the
    /// queue is empty. All returned requests share one workload class;
    /// the first element is the leader.
    pub fn next_batch(&self, queue: &mut AdmissionController) -> Option<Vec<Request>> {
        // Each class queue is sorted by dispatch key, so the leader heads
        // its class and its followers are the requests right behind it.
        let class = queue.leading_class()?;
        Some(queue.take_front(class, self.max_batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn req(id: u64, class: usize) -> Request {
        Request {
            id,
            class,
            arrival: id,
            priority: Priority::Normal,
            deadline: None,
            client: None,
        }
    }

    fn filled(reqs: &[Request]) -> AdmissionController {
        let mut q = AdmissionController::new(64);
        for &r in reqs {
            q.offer(r);
        }
        q
    }

    #[test]
    fn empty_queue_yields_no_batch() {
        let mut q = AdmissionController::new(4);
        assert!(Scheduler::new(4).next_batch(&mut q).is_none());
    }

    #[test]
    fn leader_is_edf_within_priority() {
        let mut a = req(1, 0);
        a.deadline = Some(500);
        let mut b = req(2, 0);
        b.deadline = Some(300);
        let mut hi = req(3, 1);
        hi.priority = Priority::High;
        hi.deadline = Some(900);
        let mut q = filled(&[a, b, hi]);
        // High priority wins even with the latest deadline.
        let batch = Scheduler::new(1).next_batch(&mut q).expect("non-empty");
        assert_eq!(batch[0].id, 3);
        // Then EDF among the normals.
        let batch = Scheduler::new(1).next_batch(&mut q).expect("non-empty");
        assert_eq!(batch[0].id, 2);
    }

    #[test]
    fn batch_packs_only_the_leader_class() {
        let reqs = [req(1, 0), req(2, 1), req(3, 0), req(4, 0), req(5, 1)];
        let mut q = filled(&reqs);
        let batch = Scheduler::new(8).next_batch(&mut q).expect("non-empty");
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 3, 4]);
        let left: Vec<u64> = q.queued().iter().map(|r| r.id).collect();
        assert_eq!(left, [2, 5]);
    }

    #[test]
    fn max_batch_bounds_the_pack() {
        let reqs: Vec<Request> = (1..=6).map(|id| req(id, 0)).collect();
        let mut q = filled(&reqs);
        let batch = Scheduler::new(4).next_batch(&mut q).expect("non-empty");
        assert_eq!(batch.len(), 4);
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn followers_ride_in_key_order() {
        let mut urgent = req(9, 0);
        urgent.deadline = Some(100);
        let reqs = [req(1, 0), urgent, req(3, 0)];
        let mut q = filled(&reqs);
        let batch = Scheduler::new(8).next_batch(&mut q).expect("non-empty");
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        // Leader has the tightest deadline; followers by arrival.
        assert_eq!(ids, [9, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_bound_rejected() {
        let _ = Scheduler::new(0);
    }
}
