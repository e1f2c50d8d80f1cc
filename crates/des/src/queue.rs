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

/// Heap entry ordered as a max-heap on the *reversed* deterministic key
/// `(at, class, seq)`, so `BinaryHeap::pop` yields the earliest event.
/// Ordering ignores the payload entirely, so `E` needs no `Ord`.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    at: u64,
    class: u8,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u8, u64) {
        (self.at, self.class, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap of future events.
#[derive(Debug)]
pub struct EventQueue<E: Event> {
    heap: BinaryHeap<Entry<E>>,
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
            next_seq: 0,
            now: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`, or at the last popped
    /// cycle if `at` is before it, so causality cannot run backwards.
    pub fn schedule(&mut self, at: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at: at.max(self.now),
            class: event.class(),
            seq,
            event,
        });
    }

    /// Pops the next event in deterministic `(at, class, seq)` order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some(Scheduled {
            at: entry.at,
            event: entry.event,
        })
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
}
