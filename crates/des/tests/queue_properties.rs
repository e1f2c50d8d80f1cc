//! Property tests for the event calendar: random schedule / pop
//! sequences checked against a brute-force reference model that sorts a
//! `Vec` by the documented `(at, class, seq)` key.
//!
//! Randomness comes from [`SplitMix64`] with fixed seeds — the sequences
//! are deterministic across runs and platforms, so a failure is always
//! reproducible from the seed printed in the assertion message.

use usystolic_des::{Event, EventQueue, Scheduled};
use usystolic_unary::rng::SplitMix64;

/// Payload carrying its own class byte and a unique tag for identity
/// checks against the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Item {
    class: u8,
    tag: u64,
}

impl Event for Item {
    fn class(&self) -> u8 {
        self.class
    }
}

/// Brute-force reference: a flat list of pending events, popped by
/// scanning for the minimum `(at, class, seq)` key. A schedule before
/// the last popped cycle is clamped to it.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u8, u64, Item)>, // (at, class, seq, payload)
    next_seq: u64,
    now: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, item: Item) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at.max(self.now), item.class, seq, item));
    }

    /// Position in `pending` of the next event to pop.
    fn next(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, class, seq, _))| (at, class, seq))
            .map(|(i, _)| i)
    }

    fn peek(&self) -> Option<(u64, u8)> {
        self.next().map(|i| (self.pending[i].0, self.pending[i].1))
    }

    fn pop(&mut self) -> Option<(u64, Item)> {
        let (at, _, _, item) = self.pending.remove(self.next()?);
        self.now = at;
        Some((at, item))
    }
}

/// One random operation mix: `ops` steps against both the real queue and
/// the model, each a schedule with probability `schedule_tenths / 10` and
/// a pop otherwise, checking every observable after each step: `len`,
/// `is_empty` and `peek`, which must name the model's next `(at, class)`
/// (`None` when empty) without changing what the following pops return.
///
/// Most cycles are drawn from `0..64` whatever has popped, so later
/// schedules often land in the past and exercise the clamp; one in
/// sixteen comes from the top 65 cycles, where saturated timers (a
/// `now + t` that overflowed) sit. Classes are mostly `0..3` (many ties)
/// and otherwise anything in the `u8` range. A balanced mix over many
/// steps keeps popping and rescheduling, so freed payload slots are
/// reused throughout.
fn run_random_ops(seed: u64, ops: usize, schedule_tenths: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut queue: EventQueue<Item> = EventQueue::new();
    let mut model = Model::default();
    let mut next_tag = 0u64;

    for step in 0..ops {
        let ctx = |extra: &str| format!("seed={seed} step={step} {extra}");
        if rng.next_u64() % 10 < schedule_tenths {
            let at = if rng.next_u64().is_multiple_of(16) {
                u64::MAX - rng.next_u64() % 65
            } else {
                rng.next_u64() % 64 // dense → many ties
            };
            let class = if rng.next_u64().is_multiple_of(4) {
                (rng.next_u64() >> 56) as u8
            } else {
                (rng.next_u64() % 3) as u8
            };
            let item = Item {
                class,
                tag: next_tag,
            };
            next_tag += 1;
            queue.schedule(at, item);
            model.schedule(at, item);
        } else {
            match (queue.pop(), model.pop()) {
                (None, None) => {}
                (Some(Scheduled { at, event }), Some((m_at, m_item))) => {
                    assert_eq!(at, m_at, "{}", ctx("pop cycle"));
                    assert_eq!(event, m_item, "{}", ctx("pop payload"));
                }
                (real, expect) => {
                    panic!(
                        "{}: queue {real:?} vs model {expect:?}",
                        ctx("pop presence")
                    );
                }
            }
        }
        assert_eq!(queue.len(), model.pending.len(), "{}", ctx("len"));
        assert_eq!(
            queue.is_empty(),
            model.pending.is_empty(),
            "{}",
            ctx("is_empty")
        );
        assert_eq!(queue.peek(), model.peek(), "{}", ctx("peek"));
    }

    // Drain both sides: the tail order must match exactly, and each peek
    // names the event the next pop returns.
    while let Some(expect) = model.pop() {
        let peeked = queue.peek();
        let real = queue.pop().expect("queue drained before model");
        assert_eq!((real.at, real.event), expect, "seed={seed} drain order");
        assert_eq!(
            peeked,
            Some((real.at, real.event.class)),
            "seed={seed} drain peek"
        );
    }
    assert_eq!(queue.peek(), None, "seed={seed} peek when empty");
    assert!(queue.pop().is_none(), "seed={seed} queue outlived model");
}

#[test]
fn random_op_sequences_match_the_reference_model() {
    // schedule: 6/10, pop: 4/10
    for seed in [1, 7, 42, 0xDEAD_BEEF, 0x5EED_5EED_5EED] {
        run_random_ops(seed, 600, 6);
    }
}

#[test]
fn long_interleavings_reuse_slots_in_order() {
    // Balanced schedules and pops: the queue hovers at a shallow depth
    // while thousands of events pass through its reused slots.
    for seed in [2, 0xC0FFEE] {
        run_random_ops(seed, 20_000, 5);
    }
}

#[test]
fn heap_order_holds_for_random_bulk_schedules() {
    // Pure schedule-then-drain: pops must be sorted by (at, class, seq),
    // i.e. non-decreasing cycle, and FIFO within (cycle, class).
    for seed in [3, 11, 99] {
        let mut rng = SplitMix64::new(seed);
        let mut queue = EventQueue::new();
        let mut seq_of: Vec<(u64, u8, u64)> = Vec::new(); // (at, class, tag)
        for tag in 0..500 {
            let at = rng.next_u64() % 32;
            let class = (rng.next_u64() % 4) as u8;
            queue.schedule(at, Item { class, tag });
            seq_of.push((at, class, tag));
        }
        let mut prev: Option<(u64, u8, u64)> = None;
        while let Some(s) = queue.pop() {
            let key = (s.at, s.event.class, s.event.tag);
            if let Some(p) = prev {
                assert!(
                    p < key,
                    "seed={seed}: pop order regressed: {p:?} then {key:?}"
                );
            }
            prev = Some(key);
        }
        // Every scheduled event came back out exactly once (tags are
        // unique and the final key comparison is strict).
        assert!(queue.is_empty());
    }
}
