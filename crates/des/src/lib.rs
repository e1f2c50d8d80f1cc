//! # usystolic-des — the deterministic event calendar
//!
//! `usystolic_serve`'s fleet event loop schedules and pops through the
//! [`EventQueue`]. The queue is a binary heap of keys over the total
//! order `(time, event class, insertion sequence)`, each naming its
//! payload's slot in a slab — no hash containers, no wall clock — so the
//! pop order, and therefore every simulation built on it, is a pure
//! function of the inputs. The fleet keeps the events it creates already
//! in order (an open loop's next arrival, its armed timeouts) beside the
//! queue and merges them by [`EventQueue::peek`]'s `(time, class)`, so
//! the heap orders only the rest.
//!
//! The surface is two small pieces:
//!
//! * [`EventQueue`] / [`Event`] / [`Scheduled`] — the calendar:
//!   `schedule`, `pop`, `peek`, `len`, `is_empty`. A schedule before the
//!   last popped cycle is clamped to it, so time never runs backwards.
//! * [`Fidelity`] — when a serve run derives its service times, one tier
//!   per run and both exact: [`Fidelity::CycleAccurate`] re-derives each
//!   class's layer profiles at every dispatch, and [`Fidelity::Packed`]
//!   reads the totals hoisted out of the event loop (same bits, less
//!   work per dispatch).
//!
//! The queue records no metrics; the loop that drives it does (serve's
//! fleet writes the `des.*` family).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fidelity;
pub mod queue;

pub use fidelity::Fidelity;
pub use queue::{Event, EventQueue, Scheduled};
