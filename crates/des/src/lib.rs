//! # usystolic-des — the deterministic event calendar
//!
//! `usystolic_serve`'s fleet event loop schedules and pops through the
//! [`EventQueue`]. The queue is a binary heap over the total order
//! `(time, event class, insertion sequence)` — no hash containers, no
//! wall clock — so the pop order, and therefore every simulation built
//! on it, is a pure function of the inputs.
//!
//! The surface is two small pieces:
//!
//! * [`EventQueue`] / [`Event`] / [`Scheduled`] — the calendar:
//!   `schedule`, `pop`, `len`, `is_empty`. A schedule before the last
//!   popped cycle is clamped to it, so time never runs backwards.
//! * [`Fidelity`] — the timing-model resolution, one tier per run:
//!   [`Fidelity::CycleAccurate`] re-derives timing from first principles
//!   at every dispatch, [`Fidelity::Packed`] uses the hoisted exact
//!   closed forms (same bits, faster — the timing analogue of the
//!   closed-form MAC kernel), and [`Fidelity::Analytic`] trades exactness
//!   for `O(1)` closed-form estimates so thousand-instance fleets
//!   simulate in seconds.
//!
//! The queue records no metrics; the loop that drives it does (serve's
//! fleet writes the `des.*` family).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fidelity;
pub mod queue;

pub use fidelity::Fidelity;
pub use queue::{Event, EventQueue, Scheduled};
