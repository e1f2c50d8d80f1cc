//! The deterministic future-event list.
//!
//! Simulated time is an integer cycle counter. Events are totally
//! ordered by `(cycle, class, seq)`: the [`Event::class`] byte decides
//! which kinds fire first at the same cycle (e.g. completions before
//! arrivals), and `seq` — a monotonically assigned insertion number —
//! breaks every remaining tie, so the pop order is a pure function of
//! the schedule calls. Cancellation is lazy: `cancel` clears the
//! [`EventId`]'s bit in a seq-indexed live bitset and `pop` skips dead
//! heap entries, so cancelling is `O(1)` and popping `O(log n)`, without
//! re-heapifying. Seqs are dense from 0, so the bitset costs one bit per
//! event ever scheduled and never allocates per event.

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

/// Token returned by [`EventQueue::schedule`]; identifies one scheduled
/// event for [`cancel`](EventQueue::cancel) /
/// [`reschedule`](EventQueue::reschedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventId(u64);

/// One event as popped from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Cycle at which the event fires.
    pub at: u64,
    /// The schedule token it was created with.
    pub id: EventId,
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

/// A deterministic min-heap of future events with token-based
/// cancellation.
#[derive(Debug)]
pub struct EventQueue<E: Event> {
    heap: BinaryHeap<Entry<E>>,
    /// Bit `seq` (word `seq / 64`) is set while that event is scheduled
    /// and neither popped nor cancelled. A heap entry whose bit is clear
    /// is a dead tombstone that `pop` discards.
    live: Vec<u64>,
    /// Number of set bits in `live`.
    pending: usize,
    next_seq: u64,
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
            live: Vec::new(),
            pending: 0,
            next_seq: 0,
        }
    }

    /// The word index and bit mask of `seq` in the live bitset.
    fn slot(seq: u64) -> (usize, u64) {
        ((seq / 64) as usize, 1 << (seq % 64))
    }

    fn is_live(&self, seq: u64) -> bool {
        let (word, bit) = Self::slot(seq);
        self.live.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Clears `seq`'s live bit; returns whether it was set.
    fn retire(&mut self, seq: u64) -> bool {
        let (word, bit) = Self::slot(seq);
        let Some(w) = self.live.get_mut(word) else {
            return false;
        };
        let hit = *w & bit != 0;
        *w &= !bit;
        self.pending -= usize::from(hit);
        hit
    }

    /// Schedules `event` to fire at cycle `at`; returns a token for
    /// [`cancel`](Self::cancel) / [`reschedule`](Self::reschedule).
    pub fn schedule(&mut self, at: u64, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            class: event.class(),
            seq,
            event,
        });
        let (word, bit) = Self::slot(seq);
        if word == self.live.len() {
            self.live.push(0);
        }
        self.live[word] |= bit;
        self.pending += 1;
        usystolic_obs::with(|o| o.metrics.count("des.events.scheduled", 1));
        EventId(seq)
    }

    /// Cancels a scheduled event. Returns `true` when the token named a
    /// still-pending event, `false` when it already fired or was already
    /// cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.retire(id.0);
        if hit {
            usystolic_obs::with(|o| o.metrics.count("des.events.cancelled", 1));
        }
        hit
    }

    /// Cancels `id` and schedules `event` at the new cycle in one step.
    /// Returns the replacement token (the old one is dead either way).
    pub fn reschedule(&mut self, id: EventId, at: u64, event: E) -> EventId {
        self.cancel(id);
        self.schedule(at, event)
    }

    /// Pops the next live event in deterministic `(at, class, seq)`
    /// order, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        while let Some(entry) = self.heap.pop() {
            if !self.retire(entry.seq) {
                continue; // cancelled tombstone
            }
            usystolic_obs::with(|o| o.metrics.count("des.events.dispatched", 1));
            return Some(Scheduled {
                at: entry.at,
                id: EventId(entry.seq),
                event: entry.event,
            });
        }
        None
    }

    /// The cycle of the next live event, without popping it.
    #[must_use]
    pub fn peek_at(&self) -> Option<u64> {
        self.heap
            .iter()
            .filter(|e| self.is_live(e.seq))
            .map(|e| e.key())
            .min()
            .map(|(at, _, _)| at)
    }

    /// Number of pending (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no live events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
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
    fn cancel_skips_the_event_and_fixes_len() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, Tagged(0, 1));
        q.schedule(20, Tagged(0, 2));
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(a), "double cancel is a no-op");
        let rest = drain(&mut q);
        assert_eq!(rest, [(20, 0, 2)]);
    }

    #[test]
    fn cancel_after_pop_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, Tagged(0, 1));
        assert!(q.pop().is_some());
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn reschedule_moves_the_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, Tagged(0, 1));
        q.schedule(20, Tagged(0, 2));
        q.reschedule(a, 30, Tagged(0, 1));
        let order: Vec<u64> = drain(&mut q).iter().map(|&(_, _, t)| t).collect();
        assert_eq!(order, [2, 1]);
    }

    #[test]
    fn peek_at_sees_through_tombstones() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, Tagged(0, 1));
        q.schedule(20, Tagged(0, 2));
        assert_eq!(q.peek_at(), Some(10));
        q.cancel(a);
        assert_eq!(q.peek_at(), Some(20));
    }

    #[test]
    fn stale_token_for_unscheduled_seq_is_rejected() {
        let mut q: EventQueue<Tagged> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
        assert!(q.is_empty());
    }
}
