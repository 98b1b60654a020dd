//! # lancet — open-loop load generation and tail-latency measurement
//!
//! A software model of the Lancet load generator (Kogias, Mallon & Bugnion,
//! USENIX ATC '19) that drives every experiment in the HovercRaft paper:
//! an **open-loop Poisson arrival process** ([`PoissonArrivals`]) so
//! queueing is exposed honestly, exact order-statistics percentiles
//! ([`LatencyRecorder`]) for trustworthy 99th-percentile reporting, and a
//! windowed time series ([`WindowedSeries`]) for failure timelines
//! (Figure 12).
//!
//! The crate is clock-agnostic: times are plain nanoseconds supplied by the
//! caller, so the same instruments run against the simulator's virtual
//! clock or a real one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod poisson;
mod stats;

pub use poisson::PoissonArrivals;
pub use stats::{LatencyRecorder, WindowSummary, WindowedSeries};
