//! # raft — a sans-io, deterministic Raft consensus library
//!
//! A production-style reimplementation of the Raft consensus algorithm
//! (Ongaro & Ousterhout, "In Search of an Understandable Consensus
//! Algorithm", USENIX ATC '14), built as the consensus substrate for the
//! HovercRaft reproduction — playing the role the `willemt/raft` C library
//! plays in the paper's implementation (§6).
//!
//! The node ([`RaftNode`]) is a pure state machine: drivers feed it incoming
//! [`Message`]s and clock readings, and it emits [`Action`]s (messages to
//! send, commit notifications, role changes). There is no I/O, no threads,
//! and no wall clock anywhere in this crate, which makes it equally at home
//! under the deterministic simulator, property-based tests, or a real
//! network runtime.
//!
//! ## HovercRaft extension points
//!
//! HovercRaft (§5) leaves the consensus core untouched and needs exactly two
//! hooks, both inert under vanilla use:
//!
//! * [`RaftNode::set_ceiling`] — the leader withholds entries above the
//!   ceiling from AppendEntries, so the HovercRaft layer can stamp each
//!   entry's designated replier *before* its first transmission and enforce
//!   the bounded-queue invariant (§3.3–3.4);
//! * `applied_index` in the AppendEntries reply (§6.2) — reported via
//!   [`RaftNode::set_applied`], consumed by bounded queues and JBSQ.
//!
//! ## Example
//!
//! ```
//! use raft::{Config, RaftNode, Action, Message};
//!
//! // A single-node "cluster" elects itself and commits immediately.
//! let mut n = RaftNode::<u64>::new(Config::new(0, vec![0]), 0);
//! // Every call appends its actions to a buffer the driver owns and reuses.
//! let mut actions = Vec::new();
//! // Advance past the election timeout.
//! n.tick_into(50_000_000, &mut actions);
//! assert!(actions.iter().any(|a| matches!(a, Action::BecameLeader { .. })));
//! actions.clear();
//! n.propose(42).unwrap();
//! n.pump_into(50_000_001, &mut actions);
//! assert!(actions.iter().any(|a| matches!(a, Action::Commit { upto: 1 })));
//! assert_eq!(n.commit_index(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod log;
mod message;
mod node;
mod progress;
mod types;

pub use config::Config;
pub use log::{Entry, RaftLog};
pub use message::Message;
pub use node::{quorum_index, Action, NotLeader, RaftNode};
pub use progress::Progress;
pub use types::{LogIndex, RaftId, Role, Term};
