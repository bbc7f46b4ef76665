//! Discrete-event simulation kernel for the SHRIMP UDMA reproduction.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! - [`BufPool`] / [`Payload`] — recyclable packet buffers for the
//!   allocation-free data plane,
//! - [`Clock`] — a monotonically advancing per-node clock,
//! - [`EventQueue`] — a deterministic time-ordered event queue,
//! - [`parallel`] — conservative parallel-execution primitives (epoch
//!   barrier, sharded exchange, deterministic merge, commit horizon),
//! - [`SplitMix64`] — a tiny, dependency-free deterministic RNG,
//! - [`Counter`] / [`Histogram`] / [`StatSet`] — measurement plumbing,
//! - [`MetricSet`] / [`Gauge`] — the metrics plane: typed-id snapshot
//!   values with deterministic sorted rendering and high-water gauges (see
//!   `DESIGN.md` §10),
//! - [`FlightRecorder`] / [`SpanRecord`] / [`XferId`] — the transfer-level
//!   flight recorder: typed five-stage spans with cross-node correlation
//!   IDs and a deterministic merge for the parallel engine,
//! - [`MachineEvent`] / [`EventRing`] — typed, allocation-free machine
//!   event records, each rendering its own one-line text form,
//! - [`CostModel`] — every timing constant used by the simulated machine,
//!   documented with its calibration source (see `DESIGN.md` §4).
//!
//! # Example
//!
//! ```
//! use shrimp_sim::{Clock, EventQueue, SimDuration, SimTime};
//!
//! let mut clock = Clock::new();
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_us(5.0), "dma-done");
//! clock.advance(SimDuration::from_us(10.0));
//! let fired: Vec<_> = queue.pop_until(clock.now()).collect();
//! assert_eq!(fired.len(), 1);
//! assert_eq!(fired[0].payload, "dma-done");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod clock;
mod cost;
mod event;
pub mod metrics;
pub mod parallel;
mod rng;
mod span;
mod stats;
mod time;

pub use buf::{BufPool, Payload};
pub use clock::Clock;
pub use cost::CostModel;
pub use event::{Event, EventQueue, PopUntil};
pub use metrics::{Gauge, MetricId, MetricSet};
pub use parallel::{merge_tag, ExchangeGrid, MergeQueue, SpinBarrier, TimeFrontier};
pub use rng::SplitMix64;
pub use span::{
    EventRing, FlightRecorder, MachineEvent, MachineEventKind, SpanRecord, Stage, XferId, XferMeta,
    STAGE_COUNT,
};
pub use stats::{Counter, Histogram, StatSet};
pub use time::{SimDuration, SimTime};
