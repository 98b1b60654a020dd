//! # testbed — the simulated evaluation infrastructure
//!
//! Assembles complete HovercRaft deployments on the `simnet` fabric: the
//! four system setups of §7 ([`Setup`]), server agents wrapping
//! [`hovercraft::HcNode`] (or the plain unreplicated R2P2 server), Lancet-
//! style open-loop clients, the flow-control middlebox, and the
//! HovercRaft++ aggregator mounted as switch pipeline programs.
//!
//! The main entry point is [`run_experiment`]: configure a point with
//! [`ClusterOpts`], get back an [`ExpResult`] with goodput and latency
//! percentiles. For scripted scenarios (failure injection, time series),
//! build a [`Cluster`] directly and drive `cluster.sim` by hand. Every
//! randomized fault-injection test case runs through [`chaos`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
mod client;
mod cluster;
mod digest;
pub mod invariants;
mod programs;
mod runner;
mod server;
mod setup;

pub use client::{ClientAgent, ClientResults, ClientWorkload, RetryPolicy};
pub use cluster::{Cluster, ClusterOpts, ServiceKind, WorkloadKind};
pub use digest::{DigestReport, TraceDigest};
pub use invariants::{InvariantChecker, Violation};
pub use programs::{AggProgram, FcProgram};
pub use runner::{run_experiment, run_experiment_checked, summarize, ExpResult};
pub use server::{ServerAgent, UnrepAgent};
pub use setup::{addrs, Setup};
