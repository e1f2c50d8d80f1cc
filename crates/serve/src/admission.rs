//! Admission control: a bounded queue with explicit rejection.
//!
//! Every arriving request passes through the [`AdmissionController`]
//! before it can be scheduled. The controller holds at most
//! `capacity` queued requests; when the queue is full the request is
//! *rejected* — it never enters the system, the rejection counter ticks,
//! and the caller records a rejected [`RequestRecord`]. A bounded queue
//! is what keeps tail latency meaningful under overload: without it,
//! queueing delay grows without bound and every deadline is eventually
//! missed.
//!
//! The queue is indexed for the [`Scheduler`]: one `VecDeque` per
//! workload class, each held sorted by [`Request::dispatch_key`]. A
//! request whose key is not below its class's tail — every open-loop
//! arrival within one priority tier — is appended in `O(1)`; any other
//! (a requeued retry, a high-priority arrival) binary-searches its slot
//! and shifts the shorter side. Dispatch reads one head per class and
//! drains a prefix of one class, so it costs `O(classes + max_batch)`
//! however deep the backlog.
//!
//! [`RequestRecord`]: crate::request::RequestRecord
//! [`Scheduler`]: crate::scheduler::Scheduler

use crate::request::Request;
use std::collections::VecDeque;

/// Outcome of offering a request to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; the scheduler will dispatch it.
    Admitted,
    /// Queue full; the request is turned away.
    Rejected,
}

/// A bounded admission queue.
#[derive(Debug)]
pub struct AdmissionController {
    /// The queued requests of class `c` at index `c`, each sorted
    /// ascending by dispatch key (keys are unique: the id is their last
    /// component).
    classes: Vec<VecDeque<Request>>,
    depth: usize,
    capacity: usize,
    admitted: u64,
    rejected: u64,
    max_depth: usize,
}

impl AdmissionController {
    /// Creates a controller holding at most `capacity` queued requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs capacity");
        Self {
            classes: Vec::new(),
            depth: 0,
            capacity,
            admitted: 0,
            rejected: 0,
            max_depth: 0,
        }
    }

    /// Offers a request; queues it or rejects it.
    pub fn offer(&mut self, request: Request) -> Admission {
        if self.depth >= self.capacity {
            self.rejected += 1;
            return Admission::Rejected;
        }
        self.enqueue(request);
        self.admitted += 1;
        Admission::Admitted
    }

    /// Admits past the bound (brown-out overflow). Counts as admitted;
    /// the caller enforces its own overflow ceiling.
    pub fn force_admit(&mut self, request: Request) {
        self.enqueue(request);
        self.admitted += 1;
    }

    /// Re-enqueues an already-admitted request (retry after a shard
    /// crash) without recounting it — the admission ledger sees each
    /// request once, however many times it is retried.
    pub fn requeue(&mut self, request: Request) {
        self.enqueue(request);
    }

    /// Inserts `request` at its dispatch-key slot in its class queue.
    fn enqueue(&mut self, request: Request) {
        if request.class >= self.classes.len() {
            self.classes.resize_with(request.class + 1, VecDeque::new);
        }
        let queue = &mut self.classes[request.class];
        let key = request.dispatch_key();
        if queue.back().is_none_or(|tail| tail.dispatch_key() <= key) {
            queue.push_back(request);
        } else {
            let slot = queue.partition_point(|r| r.dispatch_key() < key);
            queue.insert(slot, request);
        }
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }

    /// Removes and returns the queued request with the given id, if it
    /// is still waiting (a dispatched or completed request is not).
    pub fn remove_by_id(&mut self, id: u64) -> Option<Request> {
        for queue in &mut self.classes {
            if let Some(pos) = queue.iter().position(|r| r.id == id) {
                self.depth -= 1;
                return queue.remove(pos);
            }
        }
        None
    }

    /// Removes and returns every queued request whose absolute deadline
    /// is before `now` (deadline shedding), class by class, each class
    /// in dispatch-key order.
    pub fn expire_before(&mut self, now: u64) -> Vec<Request> {
        let mut expired = Vec::new();
        for queue in &mut self.classes {
            queue.retain(|r| match r.deadline {
                Some(d) if d < now => {
                    expired.push(*r);
                    false
                }
                _ => true,
            });
        }
        self.depth -= expired.len();
        expired
    }

    /// Drains whatever is still queued, class by class, each class in
    /// dispatch-key order (end of run with the whole fleet down —
    /// nothing left to serve them).
    pub fn drain_remaining(&mut self) -> Vec<Request> {
        self.depth = 0;
        self.classes.iter_mut().flat_map(|q| q.drain(..)).collect()
    }

    /// A snapshot of the queued requests, class by class, each class in
    /// dispatch-key order.
    #[must_use]
    pub fn queued(&self) -> Vec<Request> {
        self.classes.iter().flatten().copied().collect()
    }

    /// The class whose head has the smallest dispatch key — the class of
    /// the next batch's leader — or `None` when the queue is empty.
    pub(crate) fn leading_class(&self) -> Option<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(class, q)| q.front().map(|r| (r.dispatch_key(), class)))
            .min()
            .map(|(_, class)| class)
    }

    /// Removes the first `n` requests of `class` (fewer if it holds
    /// fewer) and appends them to `out`, in dispatch-key order. `class`
    /// must be one [`Self::leading_class`] returned.
    pub(crate) fn take_front(&mut self, class: usize, n: usize, out: &mut Vec<Request>) {
        let queue = &mut self.classes[class];
        let n = n.min(queue.len());
        self.depth -= n;
        // Copy out through an exact-length iterator (one reserve, no
        // per-element capacity check), then drop the prefix in place.
        out.extend(queue.range(..n).copied());
        queue.drain(..n);
    }

    /// Current queue depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deepest the queue ever got (`<= capacity` unless brown-out
    /// overflow used [`Self::force_admit`]).
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Requests admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use crate::scheduler::Scheduler;

    fn ids(requests: &[Request]) -> Vec<u64> {
        requests.iter().map(|r| r.id).collect()
    }

    fn req(id: u64) -> Request {
        Request {
            id,
            class: 0,
            arrival: id,
            priority: Priority::Normal,
            deadline: None,
            client: None,
        }
    }

    #[test]
    fn rejects_beyond_capacity() {
        let mut a = AdmissionController::new(2);
        assert_eq!(a.offer(req(1)), Admission::Admitted);
        assert_eq!(a.offer(req(2)), Admission::Admitted);
        assert_eq!(a.offer(req(3)), Admission::Rejected);
        assert_eq!(a.depth(), 2);
        assert_eq!(a.admitted(), 2);
        assert_eq!(a.rejected(), 1);
        assert_eq!(a.max_depth(), 2);
    }

    #[test]
    fn next_batch_drains_a_prefix_of_the_leader_class() {
        let mut a = AdmissionController::new(8);
        for id in 1..=5 {
            let mut r = req(id);
            r.class = (id % 2) as usize;
            a.offer(r);
        }
        // The leader (id 1) is in class 1; its next class-mate rides along.
        let batch = Scheduler::new(2).next_batch(&mut a).expect("non-empty");
        assert_eq!(ids(&batch), [1, 3]);
        // The snapshot lists class 0, then class 1, each in key order.
        assert_eq!(ids(&a.queued()), [2, 4, 5]);
        assert_eq!(a.depth(), 3);
    }

    #[test]
    fn depth_bound_holds_under_churn() {
        let mut a = AdmissionController::new(3);
        let scheduler = Scheduler::new(1);
        for id in 0..100 {
            a.offer(req(id));
            if a.depth() == 3 {
                let batch = scheduler.next_batch(&mut a).expect("non-empty");
                assert_eq!(ids(&batch), [id - 2], "oldest dispatches first");
            }
            assert!(a.depth() <= a.capacity());
        }
        assert!(a.max_depth() <= 3);
        assert!(a.rejected() == 0);
    }

    #[test]
    fn out_of_order_keys_take_their_slot() {
        let mut a = AdmissionController::new(8);
        for id in [3, 5] {
            a.offer(req(id));
        }
        // A retry of an older request, then a high-priority arrival.
        a.requeue(req(1));
        let mut urgent = req(9);
        urgent.priority = Priority::High;
        a.offer(urgent);
        a.offer(req(7));
        assert_eq!(ids(&a.queued()), [9, 1, 3, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        let _ = AdmissionController::new(0);
    }

    #[test]
    fn force_admit_overflows_without_rejecting() {
        let mut a = AdmissionController::new(2);
        a.offer(req(1));
        a.offer(req(2));
        a.force_admit(req(3));
        assert_eq!(a.depth(), 3);
        assert_eq!(a.admitted(), 3);
        assert_eq!(a.rejected(), 0);
        assert_eq!(a.max_depth(), 3);
    }

    #[test]
    fn requeue_does_not_recount_admission() {
        let mut a = AdmissionController::new(4);
        a.offer(req(1));
        let r = a.remove_by_id(1).expect("queued");
        assert_eq!(a.depth(), 0);
        a.requeue(r);
        assert_eq!(a.depth(), 1);
        assert_eq!(a.admitted(), 1);
        assert_eq!(a.remove_by_id(99), None);
    }

    #[test]
    fn expire_before_sheds_past_deadlines_in_order() {
        let mut a = AdmissionController::new(8);
        for id in 1..=4 {
            let mut r = req(id);
            r.deadline = if id % 2 == 0 { Some(10 * id) } else { None };
            a.offer(r);
        }
        // Deadlines: req2 at 20, req4 at 40. At now=30 only req2 expires.
        let expired = a.expire_before(30);
        assert_eq!(ids(&expired), [2]);
        assert_eq!(a.depth(), 3);
        // Key order: a deadline sorts before none, then arrival.
        let rest = a.drain_remaining();
        assert_eq!(ids(&rest), [4, 1, 3]);
        assert_eq!(a.depth(), 0);
    }
}
