//! Discrete-event simulation kernel.
//!
//! A deliberately small, deterministic DES core used by `alm-sim` to model
//! the paper's 21-node testbed:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a priority queue of typed events with deterministic
//!   FIFO tie-breaking for simultaneous events. It is an indexed heap, so a
//!   pending event can be cancelled or moved in place in O(log n); the
//!   simulator moves far more events than it pops. The *driver* owns the
//!   loop (`while let Some((t, e)) = q.pop() { model.handle(...) }`) so
//!   model state never needs to live inside closures.
//! * [`FlowPool`] — an equal-share (processor-sharing) bandwidth resource
//!   used to model NICs and disks: `n` concurrent flows each progress at
//!   `capacity / n`, and the pool predicts the next flow completion so the
//!   driver can schedule a kernel event for it.
//! * [`rng`] — deterministic per-component random streams derived from a
//!   single experiment seed.

#![forbid(unsafe_code)]

pub mod flow;
pub mod queue;
pub mod rng;
pub mod time;

pub use flow::{FlowId, FlowPool};
pub use queue::{EventQueue, EventToken};
pub use time::{SimDuration, SimTime};
