//! # hovercraft-repro — umbrella crate
//!
//! A complete, from-scratch Rust reproduction of **HovercRaft: Achieving
//! Scalability and Fault-tolerance for microsecond-scale Datacenter
//! Services** (Kogias & Bugnion, EuroSys '20). This crate re-exports every
//! subsystem so examples and downstream users can depend on one name:
//!
//! * [`hovercraft`] — the paper's contribution: the SMR-aware RPC layer,
//!   replier load balancing, bounded queues, the in-network aggregator, and
//!   flow control;
//! * [`raft`] — the sans-io Raft consensus substrate;
//! * [`r2p2`] — the datacenter RPC transport;
//! * [`simnet`] — the deterministic discrete-event fabric that stands in
//!   for the paper's DPDK/10GbE/Tofino testbed;
//! * [`minikv`] — the Redis-like store with YCSB-E module operations;
//! * [`workload`] / [`lancet`] — workload generation and open-loop load
//!   measurement;
//! * [`testbed`] — cluster assembly and the experiment runner.
//!
//! See `examples/` for runnable entry points and the `hovercraft-bench`
//! crate for the per-figure reproduction harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hovercraft;
pub use lancet;
pub use minikv;
pub use r2p2;
pub use raft;
pub use simnet;
pub use testbed;
pub use workload;
