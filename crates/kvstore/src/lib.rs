//! # minikv — a deterministic in-memory record store
//!
//! The application substrate for the HovercRaft reproduction's §7.5
//! experiment: the paper runs Redis with a user-defined module implementing
//! the YCSB-E `INSERT`/`SCAN` operations as single atomic commands. The
//! command set here is exactly that module — [`Command::Insert`] and
//! [`Command::Scan`] — which is all any workload issues (YCSB A–D read
//! with a one-record SCAN and update with INSERT). Built for
//! state-machine replication from the start:
//!
//! * **deterministic**: records live in one B-tree under composite
//!   `table/key` keys, so identical command sequences produce identical
//!   replies, state and snapshots on every replica;
//! * **binary-safe codec**: commands ([`Command`]) and replies ([`Reply`])
//!   have compact binary wire forms — the analogue of RESP;
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

pub use command::{CodecError, Command};
pub use cost::CostModel;
pub use reply::Reply;
pub use service::KvService;
pub use store::{ExecMetrics, Store};
