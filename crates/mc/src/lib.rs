//! `mc` — an explicit-state model checker for the HovercRaft core.
//!
//! This crate exhaustively explores every reachable state of a small
//! HovercRaft cluster — the *real* sans-io [`hovercraft::HcNode`] /
//! `raft` / [`hovercraft::Aggregator`] state machines, not an abstract
//! respecification — under bounded message reordering, duplication,
//! loss, and crash–restart, checking every transition with the sampler
//! that checks the chaos runs, [`testbed::InvariantChecker`].
//!
//! Where the chaos suite samples deep executions of a big random space,
//! the checker *proves* the absence of invariant violations over the
//! complete small-scope space: every interleaving of every enabled
//! action. The two share their invariant checker and their corpus
//! file, so a counterexample found here becomes a deterministic `mc:`
//! regression seed next to the chaos seeds (see [`corpus`]).
//!
//! Layout:
//!
//! * [`scope`] — the finite parameterizations (budgets, mode, timing);
//! * [`model`] — system state, actions, transition semantics;
//! * [`explore`] — BFS with 128-bit state fingerprints and
//!   parent-pointer counterexample traces;
//! * [`corpus`] — `mc:<scope>:<trace>` seed encode/parse/replay.
//!
//! The `mc_explore` binary drives exploration from CI (see the `mc` job)
//! and dumps counterexample bundles on failure.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod explore;
pub mod model;
pub mod scope;

pub use corpus::{parse_corpus, CorpusSeed};
pub use explore::{explore, fingerprint, replay, Counterexample, Limits, Report};
pub use model::{McAction, ModelState};
pub use scope::Scope;
