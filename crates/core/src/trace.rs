//! Structured protocol events emitted by [`HcNode`](crate::HcNode).
//!
//! Every externally meaningful protocol step — elections, append/ack
//! traffic, commit advancement, replier assignment, recovery, reply and
//! flow-control emission — is recorded as a [`ProtoEvent`] in a per-step
//! buffer that the driver drains after each
//! [`HcNode::step`](crate::HcNode::step)
//! ([`HcNode::drain_events`](crate::HcNode::drain_events)); the next step
//! discards what a driver that does not trace leaves behind. The testbed
//! forwards the drained events into a `simnet::Tracer`, stamping them with
//! virtual time; the invariant checker consumes the same stream (e.g. the
//! exactly-one-reply-per-request check keys on the record's key).
//! [`ProtoEvent::parts`] is each event's one encoding as a record.
//!
//! Events are plain data — no strings are allocated at record time; the
//! human-readable rendering happens only when a trace is displayed or
//! dumped.

use std::fmt;

use r2p2::ReqId;
use raft::{LogIndex, RaftId};

/// Renders a lazily recorded detail payload from up to three raw words.
///
/// Structurally identical to `simnet::DetailFn` — declared here with std
/// types only, so the protocol crate stays independent of the simulator
/// while drivers can pass [`ProtoEvent::parts`] straight into
/// `Tracer::record_lazy`.
pub type DetailRender = fn(&mut fmt::Formatter<'_>, u64, u64, u64) -> fmt::Result;

/// Writes a packed [`ReqId::as_u64`] back out as `src_ip:src_port:rid`.
fn w_req(f: &mut fmt::Formatter<'_>, key: u64) -> fmt::Result {
    write!(f, "{}:{}:{}", key >> 32, (key >> 16) & 0xffff, key & 0xffff)
}

// Lazy renderers, one per payload shape. Each reproduces the text of the
// historical eager formatter byte for byte (pinned by the golden test).
fn d_term(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "term={a}")
}
fn d_append_sent(f: &mut fmt::Formatter<'_>, a: u64, b: u64, c: u64) -> fmt::Result {
    write!(f, "dst={a:#x} entries={b} commit={c}")
}
fn d_append_acked(f: &mut fmt::Formatter<'_>, a: u64, b: u64, c: u64) -> fmt::Result {
    write!(f, "from=n{a} success={} match={c}", b != 0)
}
fn d_to(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "to={a}")
}
fn d_index_id(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "index={a} id=")?;
    w_req(f, b)
}
fn d_replier_assigned(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "index={a} replier=n{b}")
}
fn d_upto(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "upto={a}")
}
fn d_id_to(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    f.write_str("id=")?;
    w_req(f, a)?;
    write!(f, " to=n{b}")
}
fn d_id(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    f.write_str("id=")?;
    w_req(f, a)
}
fn d_reply(f: &mut fmt::Formatter<'_>, a: u64, b: u64, c: u64) -> fmt::Result {
    write!(f, "index={a} id=")?;
    w_req(f, b)?;
    write!(f, " to=n{c}")
}
fn d_index(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "index={a}")
}
fn d_node(f: &mut fmt::Formatter<'_>, a: u64, _b: u64, _c: u64) -> fmt::Result {
    write!(f, "node=n{a}")
}
fn d_index_bytes(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "index={a} bytes={b}")
}
fn d_index_term(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "index={a} term={b}")
}
fn d_upto_dropped(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "upto={a} dropped={b}")
}
fn d_to_index_bytes(f: &mut fmt::Formatter<'_>, a: u64, b: u64, c: u64) -> fmt::Result {
    write!(f, "to=n{a} index={b} bytes={c}")
}
fn d_to_index_off(f: &mut fmt::Formatter<'_>, a: u64, b: u64, c: u64) -> fmt::Result {
    write!(f, "to=n{a} index={b} offset={c}")
}
fn d_to_index(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "to=n{a} index={b}")
}
fn d_index_next(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "index={a} next={b}")
}
fn d_epochs(f: &mut fmt::Formatter<'_>, a: u64, b: u64, _c: u64) -> fmt::Result {
    write!(f, "from_epoch={a} new_epoch={b}")
}

/// One protocol-level event in the life of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoEvent {
    /// This node started (or joined) an election for `term`.
    ElectionStarted {
        /// The term being campaigned for.
        term: u64,
    },
    /// This node started a Pre-Vote probe for `term` (its term + 1) without
    /// bumping its durable term (Ongaro's thesis §9.6).
    PreVoteStarted {
        /// The term being probed for.
        term: u64,
    },
    /// This node won the election for `term`.
    BecameLeader {
        /// The won term.
        term: u64,
    },
    /// This node stepped down / learned of a higher term.
    BecameFollower {
        /// The new term.
        term: u64,
    },
    /// Leader shipped an AppendEntries batch.
    AppendSent {
        /// Destination network address (follower or aggregator group).
        dst: u32,
        /// Number of entries in the batch (0 = heartbeat).
        entries: u64,
        /// Leader commit index carried by the message.
        commit: LogIndex,
    },
    /// Leader observed an AppendEntries reply (direct or via aggregator).
    AppendAcked {
        /// Replying follower.
        from: RaftId,
        /// Whether the append succeeded.
        success: bool,
        /// The follower's match index.
        match_index: LogIndex,
    },
    /// The local commit index advanced.
    CommitAdvanced {
        /// New commit index.
        to: LogIndex,
    },
    /// Leader ordered a client request into the log.
    Proposed {
        /// Assigned log index.
        index: LogIndex,
        /// The ordered request.
        id: ReqId,
    },
    /// Leader stamped a designated replier into an entry (§3.3).
    ReplierAssigned {
        /// The entry.
        index: LogIndex,
        /// The chosen replier.
        replier: RaftId,
    },
    /// Leader raised the replication ceiling (§3.6): entries up to `upto`
    /// are now announced.
    Announced {
        /// New announcement horizon.
        upto: LogIndex,
    },
    /// This node asked a peer for a missing request body (§5).
    RecoveryRequested {
        /// The missing request.
        id: ReqId,
        /// Peer asked.
        to: u32,
    },
    /// This node served a body recovery for a peer (§5).
    RecoveryServed {
        /// The recovered request.
        id: ReqId,
        /// Requesting peer.
        to: u32,
    },
    /// A previously missing body arrived; recovery for `id` is complete.
    RecoveryCompleted {
        /// The recovered request.
        id: ReqId,
    },
    /// Apply stalled: entry `index` is committed but its body is missing.
    ApplyStalled {
        /// The stalled entry.
        index: LogIndex,
        /// The missing request.
        id: ReqId,
    },
    /// Entry `index` was handed to the application thread for execution.
    Executed {
        /// The applied entry.
        index: LogIndex,
        /// The request it carries.
        id: ReqId,
    },
    /// Read-only entry `index` skipped locally: another node replies (§3.5).
    RoSkipped {
        /// The skipped entry.
        index: LogIndex,
        /// The request it carries.
        id: ReqId,
    },
    /// This node (the designated replier) answered the client.
    ReplySent {
        /// The answered entry.
        index: LogIndex,
        /// The answered request.
        id: ReqId,
        /// Client address.
        to: u32,
    },
    /// This node emitted a flow-control FEEDBACK after replying (§6.3).
    FeedbackSent {
        /// The entry whose reply freed the slot.
        index: LogIndex,
    },
    /// Vanilla mode: a non-leader NACKed a misdirected client request.
    NackSent {
        /// The rejected request.
        id: ReqId,
    },
    /// Leader stopped routing replier assignments to `node`: no applied
    /// progress heard from it within the stall timeout (§3.4).
    ReplierStalled {
        /// The node now considered stalled.
        node: RaftId,
    },
    /// Previously stalled `node` reported progress again and is back in the
    /// replier-selection candidate set.
    ReplierRecovered {
        /// The recovered node.
        node: RaftId,
    },
    /// This node serialized its state machine and compacted the ordering
    /// log up to `index`.
    SnapshotTaken {
        /// Applied index the snapshot covers.
        index: LogIndex,
        /// Snapshot blob size.
        bytes: u64,
    },
    /// Snapshot compaction dropped archived request bodies — the payload
    /// half of the dual compaction schedule.
    BodiesCompacted {
        /// Log horizon whose bodies were dropped.
        upto: LogIndex,
        /// Number of bodies dropped from the archive.
        dropped: u64,
    },
    /// Leader began streaming a snapshot to a behind-horizon follower.
    TransferStarted {
        /// The receiving follower.
        to: RaftId,
        /// Snapshot index being transferred.
        index: LogIndex,
        /// Snapshot blob size.
        bytes: u64,
    },
    /// Leader sent one snapshot chunk.
    ChunkSent {
        /// The receiving follower.
        to: RaftId,
        /// Snapshot index being transferred.
        index: LogIndex,
        /// Byte offset of the chunk.
        offset: u64,
    },
    /// Follower acked transfer progress: bytes below `next` are on hand.
    /// Within one (incarnation, snapshot index) this is monotone — the
    /// invariant checker enforces transfer-resume monotonicity on it.
    ChunkAcked {
        /// Snapshot index being transferred.
        index: LogIndex,
        /// First byte offset still missing.
        next: u64,
    },
    /// Follower received the full snapshot and installed it: the state
    /// machine was restored, the log reset/compacted to `index`.
    SnapshotInstalled {
        /// The installed snapshot's index.
        index: LogIndex,
        /// The installed snapshot's term.
        term: u64,
    },
    /// Leader saw the transfer to `to` complete; replication resumes from
    /// `index + 1`.
    TransferDone {
        /// The follower that finished installing.
        to: RaftId,
        /// The installed snapshot's index.
        index: LogIndex,
    },
    /// A restart-restore was rejected: the durable state came from a stale
    /// incarnation epoch (satellite: `HcNode::restore` must never silently
    /// reinitialize from old state).
    RestoreRejected {
        /// Epoch of the durable state offered for restore.
        from_epoch: u64,
        /// The incarnation epoch the restore was attempted for.
        new_epoch: u64,
    },
}

impl ProtoEvent {
    /// The event's one encoding as a trace record: its static kind tag
    /// (stable across runs; checkers and trace filters match on it), its
    /// key (the packed request id for request-scoped events, the log index
    /// or term otherwise), and a renderer over three raw words. Checkers
    /// read the words in the renderer's argument order, so the words are
    /// as much a part of the format as the rendered text.
    pub fn parts(&self) -> (&'static str, u64, DetailRender, [u64; 3]) {
        use ProtoEvent as E;
        match *self {
            E::ElectionStarted { term } => ("election_started", term, d_term, [term, 0, 0]),
            E::PreVoteStarted { term } => ("prevote_started", term, d_term, [term, 0, 0]),
            E::BecameLeader { term } => ("became_leader", term, d_term, [term, 0, 0]),
            E::BecameFollower { term } => ("became_follower", term, d_term, [term, 0, 0]),
            E::AppendSent {
                dst,
                entries,
                commit,
            } => (
                "append_sent",
                commit,
                d_append_sent,
                [dst.into(), entries, commit],
            ),
            E::AppendAcked {
                from,
                success,
                match_index: m,
            } => (
                "append_acked",
                m,
                d_append_acked,
                [from.into(), success.into(), m],
            ),
            E::CommitAdvanced { to } => ("commit_advance", to, d_to, [to, 0, 0]),
            E::Proposed { index, id } => {
                ("proposed", id.as_u64(), d_index_id, [index, id.as_u64(), 0])
            }
            E::ReplierAssigned { index, replier } => (
                "replier_assigned",
                index,
                d_replier_assigned,
                [index, replier.into(), 0],
            ),
            E::Announced { upto } => ("announced", upto, d_upto, [upto, 0, 0]),
            E::RecoveryRequested { id, to } => (
                "recovery_req",
                id.as_u64(),
                d_id_to,
                [id.as_u64(), to.into(), 0],
            ),
            E::RecoveryServed { id, to } => (
                "recovery_served",
                id.as_u64(),
                d_id_to,
                [id.as_u64(), to.into(), 0],
            ),
            E::RecoveryCompleted { id } => {
                ("recovery_done", id.as_u64(), d_id, [id.as_u64(), 0, 0])
            }
            E::ApplyStalled { index, id } => (
                "apply_stalled",
                id.as_u64(),
                d_index_id,
                [index, id.as_u64(), 0],
            ),
            E::Executed { index, id } => {
                ("executed", id.as_u64(), d_index_id, [index, id.as_u64(), 0])
            }
            E::RoSkipped { index, id } => (
                "ro_skipped",
                id.as_u64(),
                d_index_id,
                [index, id.as_u64(), 0],
            ),
            E::ReplySent { index, id, to } => (
                "reply",
                id.as_u64(),
                d_reply,
                [index, id.as_u64(), to.into()],
            ),
            E::FeedbackSent { index } => ("feedback", index, d_index, [index, 0, 0]),
            E::NackSent { id } => ("nack", id.as_u64(), d_id, [id.as_u64(), 0, 0]),
            E::ReplierStalled { node } => {
                ("replier_stalled", node.into(), d_node, [node.into(), 0, 0])
            }
            E::ReplierRecovered { node } => (
                "replier_recovered",
                node.into(),
                d_node,
                [node.into(), 0, 0],
            ),
            E::SnapshotTaken { index, bytes } => {
                ("snapshot_taken", index, d_index_bytes, [index, bytes, 0])
            }
            E::BodiesCompacted { upto, dropped } => {
                ("bodies_compacted", upto, d_upto_dropped, [upto, dropped, 0])
            }
            E::TransferStarted { to, index, bytes } => (
                "transfer_started",
                index,
                d_to_index_bytes,
                [to.into(), index, bytes],
            ),
            E::ChunkSent { to, index, offset } => (
                "chunk_sent",
                index,
                d_to_index_off,
                [to.into(), index, offset],
            ),
            E::ChunkAcked { index, next } => ("chunk_acked", index, d_index_next, [index, next, 0]),
            E::SnapshotInstalled { index, term } => {
                ("snapshot_installed", index, d_index_term, [index, term, 0])
            }
            E::TransferDone { to, index } => {
                ("transfer_done", index, d_to_index, [to.into(), index, 0])
            }
            E::RestoreRejected {
                from_epoch,
                new_epoch,
            } => (
                "restore_rejected",
                new_epoch,
                d_epochs,
                [from_epoch, new_epoch, 0],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders an event's detail through its one encoding.
    fn detail(ev: &ProtoEvent) -> String {
        struct D(DetailRender, [u64; 3]);
        impl fmt::Display for D {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let [a, b, c] = self.1;
                (self.0)(f, a, b, c)
            }
        }
        let (_, _, render, args) = ev.parts();
        D(render, args).to_string()
    }

    #[test]
    fn kinds_are_distinct_for_reply_and_execute() {
        let id = ReqId::new(1, 2, 3);
        let (rk, rkey, _, _) = ProtoEvent::ReplySent {
            index: 4,
            id,
            to: 1,
        }
        .parts();
        let (ek, ekey, _, _) = ProtoEvent::Executed { index: 4, id }.parts();
        assert_eq!(rk, "reply");
        assert_eq!(ek, "executed");
        assert_eq!(rkey, ekey);
        assert_eq!(rkey, id.as_u64());
    }

    #[test]
    fn lazy_renderers_produce_the_historical_text() {
        // Golden strings from the pre-lazy eager formatter; the deferred
        // renderers must reproduce them byte for byte (trace dumps and
        // replay comparisons match on this text).
        let id = ReqId::new(7, 9003, 42);
        let cases: &[(ProtoEvent, &str)] = &[
            (ProtoEvent::ElectionStarted { term: 3 }, "term=3"),
            (
                ProtoEvent::AppendSent {
                    dst: 0x8000_0001,
                    entries: 5,
                    commit: 17,
                },
                "dst=0x80000001 entries=5 commit=17",
            ),
            (
                ProtoEvent::AppendAcked {
                    from: 2,
                    success: true,
                    match_index: 9,
                },
                "from=n2 success=true match=9",
            ),
            (
                ProtoEvent::AppendAcked {
                    from: 4,
                    success: false,
                    match_index: 0,
                },
                "from=n4 success=false match=0",
            ),
            (ProtoEvent::CommitAdvanced { to: 11 }, "to=11"),
            (
                ProtoEvent::Proposed { index: 8, id },
                "index=8 id=7:9003:42",
            ),
            (
                ProtoEvent::ReplierAssigned {
                    index: 8,
                    replier: 1,
                },
                "index=8 replier=n1",
            ),
            (ProtoEvent::Announced { upto: 20 }, "upto=20"),
            (
                ProtoEvent::RecoveryRequested { id, to: 3 },
                "id=7:9003:42 to=n3",
            ),
            (ProtoEvent::RecoveryCompleted { id }, "id=7:9003:42"),
            (
                ProtoEvent::ReplySent {
                    index: 8,
                    id,
                    to: 7,
                },
                "index=8 id=7:9003:42 to=n7",
            ),
            (ProtoEvent::FeedbackSent { index: 8 }, "index=8"),
            (ProtoEvent::ReplierStalled { node: 2 }, "node=n2"),
            (
                ProtoEvent::SnapshotTaken {
                    index: 640,
                    bytes: 4096,
                },
                "index=640 bytes=4096",
            ),
            (
                ProtoEvent::BodiesCompacted {
                    upto: 640,
                    dropped: 512,
                },
                "upto=640 dropped=512",
            ),
            (
                ProtoEvent::TransferStarted {
                    to: 2,
                    index: 640,
                    bytes: 4096,
                },
                "to=n2 index=640 bytes=4096",
            ),
            (
                ProtoEvent::ChunkSent {
                    to: 2,
                    index: 640,
                    offset: 1024,
                },
                "to=n2 index=640 offset=1024",
            ),
            (
                ProtoEvent::ChunkAcked {
                    index: 640,
                    next: 2048,
                },
                "index=640 next=2048",
            ),
            (
                ProtoEvent::SnapshotInstalled {
                    index: 640,
                    term: 3,
                },
                "index=640 term=3",
            ),
            (
                ProtoEvent::TransferDone { to: 2, index: 640 },
                "to=n2 index=640",
            ),
            (
                ProtoEvent::RestoreRejected {
                    from_epoch: 1,
                    new_epoch: 3,
                },
                "from_epoch=1 new_epoch=3",
            ),
        ];
        for (ev, want) in cases {
            assert_eq!(detail(ev), *want, "renderer drift for {ev:?}");
        }
    }
}
