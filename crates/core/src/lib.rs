//! # hovercraft — scalable, fault-tolerant SMR for µs-scale services
//!
//! A from-scratch Rust reproduction of **HovercRaft** (Kogias & Bugnion,
//! EuroSys '20): an extension of Raft that makes *adding nodes increase both
//! resilience and performance*, by integrating state-machine replication
//! into the R2P2 RPC transport and surgically removing the leader's CPU and
//! I/O bottlenecks:
//!
//! | Bottleneck (§2.1.2)            | Mechanism (module)                                   |
//! |--------------------------------|------------------------------------------------------|
//! | Leader TX for request bodies   | multicast replication, metadata-only ordering ([`UnorderedPool`], [`Cmd`]) |
//! | Leader TX for client replies   | designated repliers + bounded queues ([`ReplierLedger`]) |
//! | Leader CPU for read-only ops   | replier-only execution of reads ([`HcNode`])          |
//! | Leader packet processing rate  | in-network aggregation ([`Aggregator`])               |
//!
//! plus the multicast flow-control middlebox ([`FlowControl`]) that replaces
//! vanilla Raft's implicit leader-drop flow control (§6.3).
//!
//! The crate is **sans-io**: [`HcNode`], [`Aggregator`], and [`FlowControl`]
//! are pure state machines producing explicit outputs, so the same code
//! runs under the deterministic `simnet` testbed, property-based tests, or
//! a real packet runtime. Applications plug in through [`Service`] with no
//! code changes — the paper's application-agnostic fault-tolerance claim.
//!
//! Three deployment modes ([`Mode`]) correspond to the paper's evaluated
//! setups: `Vanilla` (Raft-on-R2P2), `Hovercraft`, and `HovercraftPp`
//! (with the in-network aggregator). The unreplicated baseline needs none
//! of this machinery and lives in the testbed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aggregator;
mod archive;
mod cmd;
mod config;
mod flowctl;
mod msg;
mod node;
mod policy;
mod pool;
mod service;
mod trace;

pub use aggregator::{AggStats, Aggregator};
pub use cmd::{Cmd, CmdRecord, EntryDesc, OpKind};
pub use config::{HcConfig, Mode};
pub use flowctl::{FcDecision, FcStats, FlowControl, RECLAIM_NS};
pub use msg::{AggStatus, WireMsg};
pub use node::{DurableState, HcNode, HcStats, Input, Output, RestoreRejected};
pub use policy::{PolicyKind, ReplierLedger};
pub use pool::{PooledReq, UnorderedPool};
pub use service::{EchoService, Executed, Service};
pub use trace::ProtoEvent;
