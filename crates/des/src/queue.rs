//! The deterministic future-event list.
//!
//! Simulated time is an integer cycle counter. Events are totally
//! ordered by `(cycle, class, seq)`: the [`Event::class`] byte decides
//! which kinds fire first at the same cycle (e.g. completions before
//! arrivals), and `seq` — a monotonically assigned insertion number —
//! breaks every remaining tie, so the pop order is a pure function of
//! the schedule calls. Time never runs backwards: a schedule before the
//! last popped cycle is clamped to it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A schedulable event payload.
///
/// The only requirement is a same-cycle dispatch [`class`](Self::class):
/// at equal timestamps, lower classes fire first; within one class,
/// insertion order (FIFO) decides.
pub trait Event {
    /// Same-cycle tie order (lower fires first). Defaults to one class
    /// for everything, i.e. pure FIFO at equal timestamps.
    fn class(&self) -> u8 {
        0
    }
}

/// One event as popped from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Cycle at which the event fires.
    pub at: u64,
    /// The payload.
    pub event: E,
}

/// Heap entry: the deterministic key and the slab slot of its payload.
///
/// `tie` packs `class << 56 | seq`, so comparing `(at, tie)` is comparing
/// `(at, class, seq)`. Ordering is reversed, so `BinaryHeap::pop` yields
/// the earliest event; the slot never decides, since no two entries share
/// a `seq`. The payload stays in the slab, so a sift moves 24 bytes
/// however large `E` is.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: u64,
    tie: u64,
    slot: usize,
}

/// Bits of `seq` in [`Key::tie`]; the class byte sits above them.
const SEQ_BITS: u32 = 56;

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.tie) == (other.at, other.tie)
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.tie).cmp(&(self.at, self.tie))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap of future events: keys in a binary heap,
/// payloads in a slab whose freed slots are reused, so the slab never
/// holds more slots than the most events ever pending at once.
#[derive(Debug)]
pub struct EventQueue<E: Event> {
    heap: BinaryHeap<Key>,
    /// Payload of the pending event whose key names the slot; `None` in
    /// free slots.
    slab: Vec<Option<E>>,
    /// Slots of `slab` free for reuse.
    free: Vec<usize>,
    next_seq: u64,
    /// Cycle of the last popped event; schedules are clamped to it.
    now: u64,
}

impl<E: Event> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Event> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`, or at the last popped
    /// cycle if `at` is before it, so causality cannot run backwards.
    ///
    /// `seq` has 56 bits, so the order holds for the first 2^56 (about
    /// 7·10^16) schedules of one queue.
    pub fn schedule(&mut self, at: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < 1 << SEQ_BITS, "event sequence overflow");
        let tie = (u64::from(event.class()) << SEQ_BITS) | seq;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(Key {
            at: at.max(self.now),
            tie,
            slot,
        });
    }

    /// Pops the next event in deterministic `(at, class, seq)` order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let key = self.heap.pop()?;
        // Every key names a filled slot: `schedule` fills it and only
        // this pop empties it.
        let event = self.slab[key.slot].take()?;
        self.free.push(key.slot);
        self.now = key.at;
        Some(Scheduled { at: key.at, event })
    }

    /// The `(at, class)` of the event [`pop`](Self::pop) would return
    /// next, or `None` when empty. A caller that keeps in-order events of
    /// its own merges them with the calendar by this key.
    #[must_use]
    pub fn peek(&self) -> Option<(u64, u8)> {
        self.heap
            .peek()
            .map(|key| (key.at, (key.tie >> SEQ_BITS) as u8))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tagged(u8, u64);

    impl Event for Tagged {
        fn class(&self) -> u8 {
            self.0
        }
    }

    fn drain(q: &mut EventQueue<Tagged>) -> Vec<(u64, u8, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|s| (s.at, s.event.0, s.event.1))
            .collect()
    }

    #[test]
    fn pops_in_cycle_order() {
        let mut q = EventQueue::new();
        q.schedule(30, Tagged(0, 1));
        q.schedule(10, Tagged(0, 2));
        q.schedule(20, Tagged(0, 3));
        let order: Vec<u64> = drain(&mut q).iter().map(|&(at, _, _)| at).collect();
        assert_eq!(order, [10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn class_orders_same_cycle_events() {
        let mut q = EventQueue::new();
        q.schedule(10, Tagged(5, 1));
        q.schedule(10, Tagged(3, 2));
        q.schedule(10, Tagged(0, 3));
        q.schedule(10, Tagged(1, 4));
        let classes: Vec<u8> = drain(&mut q).iter().map(|&(_, c, _)| c).collect();
        assert_eq!(classes, [0, 1, 3, 5]);
    }

    #[test]
    fn insertion_order_breaks_remaining_ties() {
        let mut q = EventQueue::new();
        q.schedule(5, Tagged(0, 7));
        q.schedule(5, Tagged(0, 9));
        let tags: Vec<u64> = drain(&mut q).iter().map(|&(_, _, t)| t).collect();
        assert_eq!(tags, [7, 9]);
    }

    #[test]
    fn queue_clamps_past_schedules_to_now() {
        let mut q = EventQueue::new();
        q.schedule(7, Tagged(0, 1));
        assert_eq!(q.pop().map(|s| s.at), Some(7));
        q.schedule(0, Tagged(0, 2)); // in the past → clamped
        q.schedule(9, Tagged(0, 3));
        assert_eq!(drain(&mut q), [(7, 0, 2), (9, 0, 3)]);
    }

    #[test]
    fn slab_never_outgrows_the_peak_pending_count() {
        let mut q = EventQueue::new();
        let mut peak = 0;
        let mut tag = 0;
        // Waves of schedules and pops: every pop frees a slot the next
        // schedule reuses, so the slab tracks the deepest wave.
        for wave in [3usize, 10, 1, 7, 10, 2] {
            for _ in 0..wave {
                tag += 1;
                q.schedule(tag % 5, Tagged((tag % 3) as u8, tag));
            }
            peak = peak.max(q.len());
            assert_eq!(q.slab.len(), peak);
            for _ in 0..wave.div_ceil(2) {
                assert!(q.pop().is_some());
            }
        }
        drain(&mut q);
        assert_eq!(q.slab.len(), peak);
        assert_eq!(q.free.len(), peak);
        assert!(q.slab.iter().all(Option::is_none));
    }
}
