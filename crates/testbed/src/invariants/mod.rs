//! Cross-node protocol invariant checking.
//!
//! [`InvariantChecker`] is the one sampler of HovercRaft's cross-node
//! invariants, with two drivers:
//!
//! * [`InvariantChecker::check`] inspects a whole [`Cluster`] between
//!   simulation steps. Integration tests drive it through
//!   [`Cluster::run_checked`](crate::Cluster::run_checked), which calls it
//!   every simulated millisecond and turns the first [`Violation`] into a
//!   panic plus a replayable trace bundle.
//! * The `mc` model checker calls [`InvariantChecker::check_nodes`] on
//!   every transition of its exhaustive small-scope search: a fresh
//!   checker primed with the pre-state, then the post-state.
//!
//! [`InvariantChecker::check_nodes`] reads only the live
//! [`HcNode`]s, so both drivers evaluate the same rules over the same
//! observations. The trace invariants (6, 9, 10) and flow conservation (7)
//! need the simulator and run only in [`InvariantChecker::check`]; `mc`
//! feeds its replies to the same [`ReplyLedger`] at send time.
//!
//! Invariants (all scoped to *live* nodes; killed nodes keep arbitrary
//! stale state):
//!
//! 1. **Apply bound** — `applied ≤ commit` on every node: execution never
//!    outruns durability.
//! 2. **Monotonicity** — per-node `commit` and `applied` never regress
//!    within one incarnation ([`HcNode::epoch`]; a crash–restart wipes
//!    volatile state, so the watermarks reset when the epoch advances).
//! 3. **Log matching / committed-prefix agreement** — for every pair of
//!    live nodes, an index both have committed holds the *same* entry
//!    (term and full descriptor, replier included), and an index on which
//!    they agree on the term holds the same entry (Raft's Log Matching
//!    property). Compared over the replier window below plus every index
//!    committed everywhere since the previous check, so each committed
//!    index is compared at least once.
//! 4. **Replier immutability** (§3.3) — once an entry carries a replier,
//!    that field never changes for the lifetime of that `(term, index)`
//!    entry. Checked over a sliding window above the cluster-wide applied
//!    floor (minus a safety margin), so the scan cost tracks the in-flight
//!    window, not total log length.
//! 5. **Bounded replier queues** (§3.4) — on every live node that believes
//!    it leads, no member's outstanding-assignment depth exceeds the bound
//!    `B`. A freshly elected leader may inherit more than `B` immutable
//!    assignments from previous terms (§5), so the limit for a term is
//!    `max(B, depth first observed in that term)` — inherited debt may
//!    only drain, never grow.
//! 6. **Exactly-one reply** — no request id is answered twice (by any
//!    node, across elections and recoveries), with one carve-out: the same
//!    node may re-answer at a strictly higher incarnation (a restarted
//!    replier re-executing its log).
//! 7. **Flow-control conservation** — at the middlebox,
//!    `admitted − (feedback − spurious) − reclaimed == in_flight`.
//! 8. **Snapshot bounds** — both the log's snapshot boundary and the held
//!    snapshot stay at or below `applied` on every node: compaction never
//!    outruns execution (with invariant 1, `snapshot ≤ applied ≤ commit`),
//!    and the boundary itself never regresses within one incarnation.
//! 9. **Transfer-resume monotonicity** — scanning the protocol trace, a
//!    node's cumulative snapshot-chunk acknowledgement (`chunk_acked`
//!    `next` offset) never regresses for a given `(node, snapshot index)`
//!    within one incarnation, with one carve-out: a rewind to exactly 0
//!    *before* the snapshot installs is a legitimate from-scratch restart
//!    of the stream (peer-served failover drops the reassembly buffer, and
//!    a blob that does not frame is dropped). A partial rewind, a rewind
//!    after `snapshot_installed`, or a rewind in a fresh incarnation
//!    claiming old progress is a protocol bug.
//! 10. **Executed once** — across the cluster, a request id is executed
//!     (or skipped as read-only) at one log index only. A committed entry
//!     has one index on every node and a restart re-executes the same
//!     index, so a second index means the request was ordered twice —
//!     even when the second reply was lost or skipped and invariant 6 saw
//!     none.
//!
//! The trace scan is incremental: events evicted from the bounded ring
//! before the checker saw them are reported as a `trace_gap` violation,
//! since invariants 6, 9 and 10 would otherwise skip them silently.
//!
//! The checker is stateful (watermarks, first-seen replier stamps, reply
//! ledger, trace cursor); create one per cluster and feed it every step.

pub mod predicates;

use std::fmt;

use fxhash::{FxHashMap, FxHashSet};

use hovercraft::{HcNode, Service};
use raft::LogIndex;
use simnet::NodeId;

use crate::cluster::Cluster;
use crate::programs::FcProgram;
use crate::server::ServerAgent;
use crate::setup::Setup;

use predicates::{Mutation, ReplierStep};

/// How far below the cluster-wide applied floor the replier-immutability
/// and log-agreement window reaches. Entries older than this (applied
/// everywhere) can no longer affect protocol behaviour and are not
/// rescanned.
const REPLIER_WINDOW_SLACK: u64 = 64;

/// A detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant fired (stable identifier, e.g. `"replier_immutable"`).
    pub invariant: &'static str,
    /// The node it was detected on, when node-scoped.
    pub node: Option<NodeId>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{}] on n{}: {}", self.invariant, n, self.detail),
            None => write!(f, "[{}]: {}", self.invariant, self.detail),
        }
    }
}

fn violation(
    invariant: &'static str,
    node: impl Into<Option<NodeId>>,
    detail: String,
) -> Result<(), Violation> {
    Err(Violation {
        invariant,
        node: node.into(),
        detail,
    })
}

/// Invariant 6 bookkeeping: the latest legal answer to every request —
/// the answering node and its incarnation. A second reply is legal only
/// from the *same* node at a *strictly higher* incarnation (a restarted
/// replier re-executing its log).
#[derive(Clone, Default)]
pub struct ReplyLedger {
    answered: FxHashMap<u64, (NodeId, u64)>,
}

impl ReplyLedger {
    /// Records that `node`, in incarnation `inc`, answered request `id`.
    pub fn record(&mut self, id: u64, node: NodeId, inc: u64) -> Result<(), Violation> {
        match self.answered.get_mut(&id) {
            None => {
                self.answered.insert(id, (node, inc));
                Ok(())
            }
            Some(first) if predicates::duplicate_reply_ok(first.0, first.1, node, inc) => {
                *first = (node, inc);
                Ok(())
            }
            Some(&mut (node0, inc0)) => violation(
                "exactly_one_reply",
                node,
                format!(
                    "request {id:#x} answered twice: first by n{node0} incarnation \
                     {inc0}, again by n{node} incarnation {inc}"
                ),
            ),
        }
    }

    /// Every `(request id, node, incarnation)` record, in no fixed order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, NodeId, u64)> + '_ {
        self.answered
            .iter()
            .map(|(&id, &(node, inc))| (id, node, inc))
    }
}

/// One node's watermarks within one incarnation (invariants 2 and 8).
#[derive(Clone, Copy, Default)]
struct Marks {
    epoch: u64,
    commit: LogIndex,
    applied: LogIndex,
    snap: LogIndex,
}

/// Stateful cross-node invariant checker (see module docs for the list).
#[derive(Default)]
pub struct InvariantChecker {
    /// Per-node high-water marks, reset when the node's epoch advances.
    marks: FxHashMap<NodeId, Marks>,
    /// Every index up to here was committed on all live nodes at some
    /// check, and compared then.
    matched_upto: LogIndex,
    /// First-seen `(term, replier)` per live `(node, index)` in the window.
    repliers: FxHashMap<(NodeId, LogIndex), (u64, Option<u32>)>,
    /// Per `(term, member)`: assignment depth at first observation, to
    /// absorb inherited over-`B` debt after elections.
    depth_baseline: FxHashMap<(u64, NodeId), usize>,
    /// Requests already answered (invariant 6).
    replies: ReplyLedger,
    /// The log index each executed request id ran at (invariant 10).
    executed: FxHashMap<u64, LogIndex>,
    /// Highest cumulative chunk-ack offset per
    /// `(node, snapshot index, incarnation)` (invariant 9).
    ack_progress: FxHashMap<(NodeId, u64, u64), u64>,
    /// Transfers sealed by a `snapshot_installed` event (invariant 9): once
    /// installed, any further chunk ack for that snapshot must report it
    /// complete — a rewind past an install means `applied` regressed.
    installed: FxHashSet<(NodeId, u64, u64)>,
    /// Next trace sequence number to consume; `None` before the first
    /// scan, which may start past events evicted before checking began.
    trace_cursor: Option<u64>,
}

impl InvariantChecker {
    /// A fresh checker (all watermarks empty).
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// Checks every invariant against the cluster's current state,
    /// returning the first violation found. Call between simulation steps;
    /// the checker assumes the cluster is not mutated behind its back
    /// except by simulation itself.
    pub fn check(&mut self, cl: &mut Cluster) -> Result<(), Violation> {
        if cl.opts().setup == Setup::Unrep {
            return Ok(());
        }
        let live: Vec<_> = cl
            .servers
            .iter()
            .copied()
            .filter(|&s| cl.sim.is_alive(s))
            .map(|s| (s, cl.sim.agent::<ServerAgent>(s).node()))
            .collect();
        self.check_nodes(&live, Mutation::None)?;
        self.check_trace_invariants(cl)?;
        self.check_flow_conservation(cl)
    }

    /// Checks the node-state invariants 1–5 and 8 over the `live` nodes,
    /// returning the first violation found. `mutation` is threaded into
    /// invariant 4 for harness self-tests; production callers pass
    /// [`Mutation::None`].
    pub fn check_nodes<S: Service>(
        &mut self,
        live: &[(NodeId, &HcNode<S>)],
        mutation: Mutation,
    ) -> Result<(), Violation> {
        for &(id, hc) in live {
            self.check_watermarks(id, hc)?;
            if hc.is_leader() {
                self.check_bounded_queues(id, hc)?;
            }
        }
        let applied_floor = live
            .iter()
            .map(|(_, hc)| hc.applied_index())
            .min()
            .unwrap_or(0);
        let window_lo = applied_floor.saturating_sub(REPLIER_WINDOW_SLACK).max(1);
        self.check_replier_immutability(live, window_lo, mutation)?;
        self.check_log_agreement(live, window_lo)
    }

    /// Invariants 1, 2 and 8: `snapshot ≤ applied ≤ commit`, and the
    /// watermarks never regress within one incarnation.
    fn check_watermarks<S: Service>(
        &mut self,
        id: NodeId,
        hc: &HcNode<S>,
    ) -> Result<(), Violation> {
        let commit = hc.raft().commit_index();
        let applied = hc.applied_index();
        let snap = hc.raft().log().snapshot_index();
        if applied > commit {
            return violation(
                "applied_le_commit",
                id,
                format!("applied={applied} > commit={commit}"),
            );
        }
        if snap > applied {
            return violation(
                "snapshot_le_applied",
                id,
                format!("log snapshot boundary {snap} > applied={applied}"),
            );
        }
        // The held snapshot (the blob it would serve to a lagging peer)
        // must also describe a prefix the node has actually executed.
        let held = hc.snapshot_index();
        if held > applied {
            return violation(
                "snapshot_le_applied",
                id,
                format!("held snapshot at {held} > applied={applied}"),
            );
        }
        let epoch = hc.epoch();
        let marks = self.marks.entry(id).or_default();
        if marks.epoch != epoch {
            *marks = Marks {
                epoch,
                ..Marks::default()
            };
        }
        for (invariant, what, was, is) in [
            ("commit_monotone", "commit", marks.commit, commit),
            ("applied_monotone", "applied", marks.applied, applied),
            ("snapshot_monotone", "snapshot boundary", marks.snap, snap),
        ] {
            if is < was {
                return violation(
                    invariant,
                    id,
                    format!("{what} regressed {was} -> {is} (epoch {epoch})"),
                );
            }
        }
        *marks = Marks {
            epoch,
            commit,
            applied,
            snap,
        };
        Ok(())
    }

    /// Invariant 5: a leader's replier queues stay within the bound,
    /// modulo inherited (immutable) pre-election debt that may only drain.
    fn check_bounded_queues<S: Service>(
        &mut self,
        leader: NodeId,
        hc: &HcNode<S>,
    ) -> Result<(), Violation> {
        let bound = hc.config().bound;
        let term = hc.raft().term();
        for &m in &hc.config().raft.members {
            let depth = hc.queue_depth(m);
            let baseline = *self.depth_baseline.entry((term, m)).or_insert(depth);
            if depth > bound.max(baseline) {
                return violation(
                    "bounded_queue",
                    leader,
                    format!(
                        "member n{m} depth {depth} exceeds bound {bound} \
                         (term {term} inherited baseline {baseline})"
                    ),
                );
            }
        }
        Ok(())
    }

    /// Invariant 4: a stamped replier never changes for a `(term, index)`.
    fn check_replier_immutability<S: Service>(
        &mut self,
        live: &[(NodeId, &HcNode<S>)],
        window_lo: LogIndex,
        mutation: Mutation,
    ) -> Result<(), Violation> {
        for &(id, hc) in live {
            let log = hc.raft().log();
            for idx in window_lo.max(log.first_index())..=log.last_index() {
                let Some(e) = log.get(idx) else { continue };
                let cur = (e.term, e.cmd.desc.replier);
                let seen = self.repliers.get(&(id, idx)).copied();
                match predicates::replier_step(seen, cur, mutation) {
                    ReplierStep::Track => {
                        self.repliers.insert((id, idx), cur);
                    }
                    ReplierStep::Keep => {}
                    ReplierStep::Violation => {
                        return violation(
                            "replier_immutable",
                            id,
                            format!(
                                "index {idx} term {}: replier changed {:?} -> {:?}",
                                cur.0,
                                seen.and_then(|s| s.1),
                                cur.1
                            ),
                        );
                    }
                }
            }
        }
        // Entries everyone applied long ago can't affect behaviour; drop
        // them so the map tracks the window, not the whole history.
        self.repliers.retain(|&(_, idx), _| idx >= window_lo);
        Ok(())
    }

    /// Invariant 3, over every pair of live nodes: an index both have
    /// committed holds identical entries; an index whose terms agree holds
    /// identical entries. Compared from the window's edge, or from the
    /// first index not yet committed everywhere at the previous check if
    /// that is lower.
    fn check_log_agreement<S: Service>(
        &mut self,
        live: &[(NodeId, &HcNode<S>)],
        window_lo: LogIndex,
    ) -> Result<(), Violation> {
        let lo = (self.matched_upto + 1).min(window_lo);
        for (i, &(a, ha)) in live.iter().enumerate() {
            for &(b, hb) in &live[i + 1..] {
                let (la, lb) = (ha.raft().log(), hb.raft().log());
                let committed = ha.raft().commit_index().min(hb.raft().commit_index());
                let from = lo.max(la.first_index()).max(lb.first_index());
                for idx in from..=la.last_index().min(lb.last_index()) {
                    let (Some(ea), Some(eb)) = (la.get(idx), lb.get(idx)) else {
                        continue;
                    };
                    let invariant = if idx <= committed {
                        if ea.term == eb.term && ea.cmd == eb.cmd {
                            continue;
                        }
                        "committed_prefix_agreement"
                    } else {
                        if ea.term != eb.term || ea.cmd == eb.cmd {
                            continue;
                        }
                        "log_matching"
                    };
                    return violation(
                        invariant,
                        b,
                        format!(
                            "index {idx}: n{b} has (term {}, {:?}), n{a} has (term {}, {:?})",
                            eb.term, eb.cmd.desc, ea.term, ea.cmd.desc
                        ),
                    );
                }
            }
        }
        self.matched_upto = live
            .iter()
            .map(|(_, hc)| hc.raft().commit_index())
            .min()
            .unwrap_or(0);
        Ok(())
    }

    /// Invariants 6, 9 and 10, one incremental pass over the protocol trace
    /// (they share the cursor, so all must be checked in the same scan).
    ///
    /// **6 — exactly-one reply**: every `reply` event goes through the
    /// [`ReplyLedger`]. A reply is attributed to the incarnation live at
    /// its timestamp via [`simnet::Sim::restart_times`] — exact even when a
    /// restart's own trace marker has been evicted from the bounded ring
    /// by a re-execution burst in the same check window.
    ///
    /// **9 — transfer-resume monotonicity**: a node's cumulative
    /// `chunk_acked` offset for one snapshot never regresses within an
    /// incarnation, except a pre-install rewind to exactly 0 (from-scratch
    /// failover to a competing serving peer). A partial rewind means the
    /// protocol lost buffered chunks; a post-install rewind means the
    /// `applied` cursor itself regressed.
    ///
    /// **10 — executed once**: every `executed` and `ro_skipped` event
    /// names the index its id ran at, the same on every node.
    fn check_trace_invariants(&mut self, cl: &Cluster) -> Result<(), Violation> {
        // Borrow-only incremental scan: the checker runs every simulated
        // millisecond, so it visits only events newer than its cursor,
        // in place in the ring — no per-tick clone of the event window.
        let replies = &mut self.replies;
        let acks = &mut self.ack_progress;
        let installed = &mut self.installed;
        let executed = &mut self.executed;
        let mut expect = self.trace_cursor;
        let mut cursor = expect.unwrap_or(0);
        let mut found: Option<Violation> = None;
        cl.tracer().for_each_since(cursor, |e| {
            cursor = e.seq + 1;
            if let Some(want) = expect.take().filter(|&want| e.seq > want) {
                found = Some(Violation {
                    invariant: "trace_gap",
                    node: None,
                    detail: format!(
                        "{} events (seq {want}..{}) were evicted from the trace ring \
                         before the checker saw them",
                        e.seq - want,
                        e.seq
                    ),
                });
            }
            if found.is_some() {
                return;
            }
            match e.kind {
                "executed" | "ro_skipped" => {
                    // Recorded as [index, id, _]; `key` is the id.
                    let index = e.args[0];
                    let first = *executed.entry(e.key).or_insert(index);
                    if first != index {
                        found = Some(Violation {
                            invariant: "executed_once",
                            node: Some(e.node),
                            detail: format!(
                                "request {:#x} executed at index {first} and again at index {index}",
                                e.key
                            ),
                        });
                    }
                    return;
                }
                "reply" | "chunk_acked" | "snapshot_installed" => {}
                _ => return,
            }
            let inc = if (e.node as usize) < cl.sim.num_nodes() {
                cl.sim
                    .restart_times(e.node)
                    .iter()
                    .filter(|&&t| t <= e.at)
                    .count() as u64
            } else {
                0
            };
            if e.kind == "snapshot_installed" {
                installed.insert((e.node, e.key, inc));
                return;
            }
            if e.kind == "chunk_acked" {
                // Recorded as [index, next, _]; `key` is the index.
                let next = e.args[1];
                let high = acks.entry((e.node, e.key, inc)).or_insert(next);
                let sealed = installed.contains(&(e.node, e.key, inc));
                if !predicates::transfer_resume_ok(*high, next, sealed) {
                    found = Some(Violation {
                        invariant: "transfer_resume_monotone",
                        node: Some(e.node),
                        detail: format!(
                            "snapshot {} incarnation {inc}: cumulative ack \
                             regressed {} -> {next}",
                            e.key, *high
                        ),
                    });
                }
                *high = next;
                return;
            }
            found = replies.record(e.key, e.node, inc).err();
        });
        self.trace_cursor = Some(cursor);
        match found {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }

    /// Invariant 7: flow-control slot conservation at the middlebox.
    fn check_flow_conservation(&mut self, cl: &mut Cluster) -> Result<(), Violation> {
        let Some(idx) = cl.fc_prog_index() else {
            return Ok(());
        };
        let fc = &cl.sim.switch_program_mut::<FcProgram>(idx).fc;
        let s = fc.stats();
        if !predicates::flow_conservation_ok(
            s.admitted,
            s.feedback,
            s.spurious_feedback,
            s.reclaimed,
            fc.in_flight() as u64,
        ) {
            let outstanding = s.admitted as i128
                - (s.feedback as i128 - s.spurious_feedback as i128)
                - s.reclaimed as i128;
            return violation(
                "flow_conservation",
                None,
                format!(
                    "admitted {} - (feedback {} - spurious {}) - reclaimed {} = \
                     {outstanding} != in_flight {}",
                    s.admitted,
                    s.feedback,
                    s.spurious_feedback,
                    s.reclaimed,
                    fc.in_flight()
                ),
            );
        }
        Ok(())
    }
}
