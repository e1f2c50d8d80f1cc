//! Property tests for the indexed admission queue: random sequences of
//! `offer`, `force_admit`, `requeue`, `remove_by_id`, `expire_before` and
//! `Scheduler::next_batch`, checked after every step against a
//! brute-force reference model — a flat `Vec` in arrival order that
//! dispatches by scanning for the smallest dispatch key and sorting that
//! leader's class-mates.
//!
//! Randomness comes from [`SplitMix64`] with fixed seeds — the sequences
//! are deterministic across runs and platforms, so a failure is always
//! reproducible from the seed printed in the assertion message.

use usystolic_serve::{Admission, AdmissionController, Priority, Request, Scheduler};
use usystolic_unary::rng::SplitMix64;

/// The reference queue: arrival order, scanned and sorted per dispatch.
struct Model {
    queue: Vec<Request>,
    capacity: usize,
    admitted: u64,
    rejected: u64,
    max_depth: usize,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Self {
            queue: Vec::new(),
            capacity,
            admitted: 0,
            rejected: 0,
            max_depth: 0,
        }
    }

    fn push(&mut self, request: Request) {
        self.queue.push(request);
        self.max_depth = self.max_depth.max(self.queue.len());
    }

    fn offer(&mut self, request: Request) -> Admission {
        if self.queue.len() >= self.capacity {
            self.rejected += 1;
            return Admission::Rejected;
        }
        self.push(request);
        self.admitted += 1;
        Admission::Admitted
    }

    fn force_admit(&mut self, request: Request) {
        self.push(request);
        self.admitted += 1;
    }

    fn remove_by_id(&mut self, id: u64) -> Option<Request> {
        let pos = self.queue.iter().position(|r| r.id == id)?;
        Some(self.queue.remove(pos))
    }

    fn expire_before(&mut self, now: u64) -> Vec<Request> {
        let (expired, kept) = self
            .queue
            .iter()
            .partition(|r| r.deadline.is_some_and(|d| d < now));
        self.queue = kept;
        expired
    }

    /// Leader: the smallest key anywhere. Followers: its class-mates in
    /// key order, up to the batch bound.
    fn next_batch(&mut self, max_batch: usize) -> Option<Vec<Request>> {
        let leader = *self.queue.iter().min_by_key(|r| r.dispatch_key())?;
        let mut followers: Vec<Request> = self
            .queue
            .iter()
            .filter(|r| r.class == leader.class && r.id != leader.id)
            .copied()
            .collect();
        followers.sort_by_key(Request::dispatch_key);
        followers.truncate(max_batch - 1);
        let mut batch = vec![leader];
        batch.extend(followers);
        self.queue.retain(|r| batch.iter().all(|b| b.id != r.id));
        Some(batch)
    }

    /// The queue in the order the controller documents for its
    /// snapshots: class by class, each class in key order.
    fn by_class(mut requests: Vec<Request>) -> Vec<Request> {
        requests.sort_by_key(|r| (r.class, r.dispatch_key()));
        requests
    }
}

/// Mints requests with unique ids: random class, priority and deadline,
/// at a clock that advances by small steps (equal arrivals included).
struct Minter {
    rng: SplitMix64,
    classes: u64,
    clock: u64,
    next_id: u64,
}

impl Minter {
    fn mint(&mut self) -> Request {
        self.clock += self.rng.below(8);
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            class: self.rng.below(self.classes) as usize,
            arrival: self.clock,
            priority: if self.rng.below(4) == 0 {
                Priority::High
            } else {
                Priority::Normal
            },
            deadline: self
                .rng
                .next_bool()
                .then(|| self.clock + self.rng.below(200)),
            client: None,
        }
    }
}

/// How often one run reached the paths worth covering.
#[derive(Default)]
struct Coverage {
    rejected: u64,
    requeued: u64,
    removed: u64,
    expired: u64,
    packed: u64,
}

fn run_random_ops(seed: u64, ops: usize, seen: &mut Coverage) {
    let mut rng = SplitMix64::new(seed);
    let capacity = 1 + rng.below(16) as usize;
    let mut minter = Minter {
        rng: SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15),
        classes: 1 + rng.below(6),
        clock: 0,
        next_id: 0,
    };
    let mut queue = AdmissionController::new(capacity);
    let mut model = Model::new(capacity);
    // Dispatched requests a simulated shard crash may send back.
    let mut dispatched: Vec<Request> = Vec::new();

    for step in 0..ops {
        let ctx = |what: &str| format!("seed={seed} step={step} capacity={capacity}: {what}");
        match rng.below(20) {
            0..=10 => {
                let r = minter.mint();
                assert_eq!(queue.offer(r), model.offer(r), "{}", ctx("offer"));
            }
            11 => {
                let r = minter.mint();
                queue.force_admit(r);
                model.force_admit(r);
            }
            12 | 13 if !dispatched.is_empty() => {
                let r = dispatched.swap_remove(rng.below(dispatched.len() as u64) as usize);
                queue.requeue(r);
                model.push(r);
                seen.requeued += 1;
            }
            14 | 15 => {
                // A queued id half the time, else any id ever minted
                // (dispatched, rejected or expired) or one never minted.
                let id = if !model.queue.is_empty() && rng.next_bool() {
                    model.queue[rng.below(model.queue.len() as u64) as usize].id
                } else {
                    rng.below(minter.next_id + 2)
                };
                let removed = queue.remove_by_id(id);
                assert_eq!(removed, model.remove_by_id(id), "{}", ctx("remove_by_id"));
                seen.removed += u64::from(removed.is_some());
            }
            16 => {
                let now = rng.below(minter.clock + 200);
                let expect = Model::by_class(model.expire_before(now));
                assert_eq!(queue.expire_before(now), expect, "{}", ctx("expire_before"));
                seen.expired += expect.len() as u64;
            }
            _ => {
                let max_batch = 1 + rng.below(9) as usize;
                let real = Scheduler::new(max_batch).next_batch(&mut queue);
                let expect = model.next_batch(max_batch);
                assert_eq!(real, expect, "{}", ctx("next_batch"));
                seen.packed += u64::from(real.as_ref().is_some_and(|b| b.len() > 1));
                dispatched.extend(real.into_iter().flatten());
            }
        }
        assert_eq!(queue.depth(), model.queue.len(), "{}", ctx("depth"));
        assert_eq!(queue.admitted(), model.admitted, "{}", ctx("admitted"));
        assert_eq!(queue.rejected(), model.rejected, "{}", ctx("rejected"));
        assert_eq!(queue.max_depth(), model.max_depth, "{}", ctx("max_depth"));
        assert_eq!(
            queue.queued(),
            Model::by_class(model.queue.clone()),
            "{}",
            ctx("queued")
        );
    }

    let expect = Model::by_class(std::mem::take(&mut model.queue));
    assert_eq!(queue.drain_remaining(), expect, "seed={seed} drain");
    assert_eq!(queue.depth(), 0, "seed={seed} drained depth");
    seen.rejected += model.rejected;
}

#[test]
fn random_op_sequences_match_the_reference_model() {
    let mut seen = Coverage::default();
    for seed in 0..48 {
        run_random_ops(seed, 800, &mut seen);
    }
    // Agreement on an always-empty queue would prove nothing: the mix
    // must reach every path it claims to cover.
    assert!(seen.rejected > 0, "no run filled the queue");
    assert!(seen.requeued > 0, "no run requeued a retry");
    assert!(seen.removed > 0, "no run removed a queued request");
    assert!(seen.expired > 0, "no run expired a request");
    assert!(seen.packed > 0, "no batch carried a follower");
}
