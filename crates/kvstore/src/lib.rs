//! # minikv — a deterministic, Redis-like in-memory data store
//!
//! The application substrate for the HovercRaft reproduction's §7.5
//! experiment: the paper runs Redis with a user-defined module implementing
//! the YCSB-E `INSERT`/`SCAN` operations as single atomic commands. This
//! crate provides the equivalent, built for state-machine replication from
//! the start:
//!
//! * **deterministic**: all iteration orders come from B-tree structures,
//!   so identical command sequences produce identical replies and state on
//!   every replica;
//! * **binary-safe codec**: commands ([`Command`]) and replies ([`Reply`])
//!   have compact binary wire forms — the analogue of RESP;
//! * **module ops**: [`Command::Insert`] and [`Command::Scan`] execute as
//!   isolated transactions over composite `table/key` records, modelling
//!   the paper's Redis module (§7.5);
//! * **cost model**: [`CostModel`] converts per-command execution metrics
//!   into application-thread CPU time for the simulator, calibrated to the
//!   tens-of-µs YCSB-E regime;
//! * **SMR adapter**: [`KvService`] implements `hovercraft::Service`, so
//!   the store becomes fault-tolerant with zero code changes — the paper's
//!   application-agnostic claim, demonstrated.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod command;
mod cost;
mod reply;
mod service;
mod store;
mod value;

pub use command::{CodecError, Command};
pub use cost::CostModel;
pub use reply::Reply;
pub use service::KvService;
pub use store::{ExecMetrics, Store};
pub use value::Value;
