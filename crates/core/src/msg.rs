//! The on-wire message vocabulary of a HovercRaft deployment.
//!
//! Everything — client RPCs, Raft RPCs, recovery, flow-control feedback, and
//! the HovercRaft++ aggregator messages — travels over R2P2 (§3.1, §6.1);
//! [`WireMsg::r2p2_type`] gives the R2P2 message-type each variant maps to,
//! and [`WireMsg::wire_size`] its size on the wire, which every component
//! must charge identically.

use std::sync::Arc;

use bytes::Bytes;
use r2p2::{control_wire_size, msg_wire_size, MsgType, ReqId};
use raft::{LogIndex, Message, RaftId, Term};

use crate::cmd::{Cmd, OpKind};

/// Per-follower status snapshot carried in an [`WireMsg::AggCommit`]: the
/// aggregator's `match_idx` and `completed` registers for one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AggStatus {
    /// The follower.
    pub node: RaftId,
    /// Its match index (ingress register).
    pub match_index: LogIndex,
    /// Its applied index (egress "completed requests" register).
    pub applied_index: LogIndex,
}

/// A message on the simulated wire.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum WireMsg {
    /// Client → service (unicast to the leader, the flow-control VIP, or
    /// the group multicast address depending on the deployment).
    Request {
        /// The R2P2 3-tuple.
        id: ReqId,
        /// Read-write or read-only (from the POLICY field).
        kind: OpKind,
        /// Opaque request payload, handed to the [`crate::Service`].
        body: Bytes,
    },
    /// Designated replier → client. The source address may differ from the
    /// address the client sent its request to — R2P2's key affordance.
    Response {
        /// Echo of the request's 3-tuple.
        id: ReqId,
        /// Service reply payload.
        body: Bytes,
    },
    /// Flow-control shed a request (§6.3); the client should back off.
    Nack {
        /// Echo of the request's 3-tuple.
        id: ReqId,
    },
    /// Replier → flow-control middlebox: one request left the system.
    Feedback,
    /// A Raft RPC between group members (or via the aggregator).
    Raft(Message<Cmd>),
    /// Follower → peer: resend the body of a request seen in an
    /// append_entries but missing from the unordered set (§3.2).
    RecoveryReq {
        /// The missing request.
        id: ReqId,
    },
    /// Reply carrying a recovered request body. Its kind is not carried:
    /// the requester reads it from the log entry that ordered the request.
    RecoveryRep {
        /// The recovered request.
        id: ReqId,
        /// Its payload.
        body: Bytes,
    },
    /// Aggregator → all nodes: the commit index advanced (or a pending
    /// re-announce); carries the per-follower register snapshot (§6.4).
    AggCommit {
        /// Aggregator's current term.
        term: Term,
        /// Committed log index.
        commit: LogIndex,
        /// Register snapshot per follower. Every copy of one multicast
        /// shares this one allocation.
        status: Arc<[AggStatus]>,
    },
    /// Serving peer → recovering node: one chunk of a snapshot state
    /// transfer (InstallSnapshot, chunked so the chaos layer can kill,
    /// pause, partition, or duplicate-deliver mid-transfer). Transfers are
    /// peer-served (§5): usually the leader streams to a lagging follower,
    /// but any replica answers a RecoveryReq for a compacted body this way
    /// — including healing a rejoined *leader* that won election on log
    /// completeness while missing compacted bodies. Offsets address the
    /// snapshot blob, so duplicates and reorderings are idempotent; the
    /// receiver acks cumulatively and the sender streams stop-and-wait.
    SnapChunk {
        /// Serving peer's term.
        term: Term,
        /// Serving peer's id (counts as peer contact: suppresses elections
        /// on a catching-up follower without asserting leadership).
        from: RaftId,
        /// Log index the snapshot covers.
        snap_index: LogIndex,
        /// Term of the entry at `snap_index`.
        snap_term: Term,
        /// Byte offset of this chunk within the snapshot blob.
        offset: u64,
        /// Total snapshot size in bytes.
        total: u64,
        /// The chunk payload.
        data: Bytes,
    },
    /// Recovering node → serving peer: cumulative snapshot-transfer ack;
    /// `next_offset` is the first byte not yet received (== the blob size
    /// once the snapshot is fully received and installed). A node that
    /// restarted mid-transfer acks 0, rewinding the sender cleanly across
    /// incarnation epochs.
    SnapAck {
        /// Responder's current term.
        term: Term,
        /// Echo of the transfer's snapshot index.
        snap_index: LogIndex,
        /// First byte offset still missing.
        next_offset: u64,
        /// Responder id.
        from: RaftId,
    },
    /// New leader → aggregator: liveness probe (§6.4). The aggregator
    /// flushes and answers; it never votes.
    VoteProbe {
        /// The new leader's term.
        term: Term,
    },
    /// Aggregator → leader: probe answer.
    VoteProbeRep {
        /// Echoed term.
        term: Term,
    },
}

/// Fixed per-message field overhead beyond the R2P2 header for Raft RPCs
/// (terms, indices, ids).
const RAFT_FIXED: usize = 40;

impl WireMsg {
    /// The R2P2 message type this variant is carried as.
    pub fn r2p2_type(&self) -> MsgType {
        match self {
            WireMsg::Request { .. } => MsgType::Request,
            WireMsg::Response { .. } => MsgType::Response,
            WireMsg::Nack { .. } => MsgType::Nack,
            WireMsg::Feedback => MsgType::Feedback,
            WireMsg::Raft(m) => match m {
                Message::RequestVote { .. }
                | Message::PreVote { .. }
                | Message::AppendEntries { .. } => MsgType::RaftReq,
                _ => MsgType::RaftRep,
            },
            WireMsg::RecoveryReq { .. } => MsgType::RecoveryReq,
            WireMsg::RecoveryRep { .. } => MsgType::RecoveryRep,
            WireMsg::SnapChunk { .. } => MsgType::RaftReq,
            WireMsg::SnapAck { .. } => MsgType::RaftRep,
            WireMsg::AggCommit { .. } => MsgType::RaftRep,
            WireMsg::VoteProbe { .. } => MsgType::RaftReq,
            WireMsg::VoteProbeRep { .. } => MsgType::RaftRep,
        }
    }

    /// Size of this message on the wire (R2P2 headers included), using the
    /// standard 1500-byte MTU for fragmentation accounting.
    pub fn wire_size(&self) -> u32 {
        const MTU: usize = 1500;
        match self {
            WireMsg::Request { body, .. } => msg_wire_size(body.len() + 8, MTU),
            WireMsg::Response { body, .. } => msg_wire_size(body.len() + 8, MTU),
            WireMsg::Nack { .. } | WireMsg::Feedback => control_wire_size(),
            WireMsg::Raft(m) => match m {
                Message::RequestVote { .. }
                | Message::RequestVoteReply { .. }
                | Message::PreVote { .. }
                | Message::PreVoteReply { .. } => msg_wire_size(RAFT_FIXED, MTU),
                Message::AppendEntries { entries, .. } => {
                    let payload: usize = entries.iter().map(|e| e.cmd.wire_size() as usize).sum();
                    msg_wire_size(RAFT_FIXED + payload, MTU)
                }
                Message::AppendEntriesReply { .. } => msg_wire_size(RAFT_FIXED, MTU),
            },
            WireMsg::RecoveryReq { .. } => msg_wire_size(16, MTU),
            WireMsg::RecoveryRep { body, .. } => msg_wire_size(16 + body.len(), MTU),
            WireMsg::SnapChunk { data, .. } => msg_wire_size(RAFT_FIXED + data.len(), MTU),
            WireMsg::SnapAck { .. } => msg_wire_size(RAFT_FIXED, MTU),
            WireMsg::AggCommit { status, .. } => msg_wire_size(24 + 20 * status.len(), MTU),
            WireMsg::VoteProbe { .. } | WireMsg::VoteProbeRep { .. } => msg_wire_size(16, MTU),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::EntryDesc;
    use raft::Entry;

    fn id() -> ReqId {
        ReqId::new(1, 2, 3)
    }

    /// Every ordered request is retained as a log entry, an archived body
    /// and (in flight) wire messages, so these sizes are paid per request
    /// per node: a field added to any of them is a deliberate re-pin.
    #[test]
    fn retained_request_layouts_are_pinned() {
        use crate::PooledReq;
        use std::mem::size_of;
        assert_eq!(size_of::<Bytes>(), 24);
        assert_eq!(size_of::<Option<Bytes>>(), 32);
        assert_eq!(size_of::<PooledReq>(), 40, "parked request");
        // Sixteen archived bodies and their presence mask: 24.5 B per body
        // once the block fills.
        assert_eq!(size_of::<crate::archive::Block>(), 392, "archive block");
        // A log slot holds only the command: index and term are implied.
        assert_eq!(size_of::<Cmd>(), 8, "log slot");
        assert_eq!(size_of::<Entry<Cmd>>(), 24, "wire entry");
        assert_eq!(size_of::<crate::CmdRecord>(), 64, "shared record");
        assert_eq!(size_of::<WireMsg>(), 72);
    }

    #[test]
    fn request_size_tracks_body() {
        let small = WireMsg::Request {
            id: id(),
            kind: OpKind::ReadWrite,
            body: Bytes::from(vec![0; 24]),
        };
        let big = WireMsg::Request {
            id: id(),
            kind: OpKind::ReadWrite,
            body: Bytes::from(vec![0; 512]),
        };
        assert!(big.wire_size() > small.wire_size() + 400);
    }

    #[test]
    fn metadata_append_entries_is_fixed_cost() {
        // The HovercRaft claim of §3.2: AE size is independent of the
        // request size because entries are metadata-only.
        let desc = EntryDesc::new(id(), 7, OpKind::ReadWrite);
        let entry = |cmd| Entry {
            term: 1,
            index: 1,
            cmd,
        };
        let meta = WireMsg::Raft(Message::AppendEntries {
            term: 1,
            leader: 0,
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![entry(Cmd::meta(desc))],
            leader_commit: 0,
        });
        let full = WireMsg::Raft(Message::AppendEntries {
            term: 1,
            leader: 0,
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![entry(Cmd::full(desc, Bytes::from(vec![0u8; 512])))],
            leader_commit: 0,
        });
        assert!(meta.wire_size() < 120);
        assert!(full.wire_size() > meta.wire_size() + 500);
    }

    #[test]
    fn control_messages_are_tiny() {
        assert_eq!(WireMsg::Feedback.wire_size(), 16);
        assert_eq!(WireMsg::Nack { id: id() }.wire_size(), 16);
    }

    #[test]
    fn r2p2_type_mapping() {
        assert_eq!(
            WireMsg::Request {
                id: id(),
                kind: OpKind::ReadOnly,
                body: Bytes::new()
            }
            .r2p2_type(),
            MsgType::Request
        );
        let ae: WireMsg = WireMsg::Raft(Message::AppendEntries {
            term: 1,
            leader: 0,
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![],
            leader_commit: 0,
        });
        assert_eq!(ae.r2p2_type(), MsgType::RaftReq);
        let rep: WireMsg = WireMsg::Raft(Message::AppendEntriesReply {
            term: 1,
            success: true,
            match_index: 0,
            conflict_index: 0,
            applied_index: 0,
            from: 1,
        });
        assert_eq!(rep.r2p2_type(), MsgType::RaftRep);
    }

    #[test]
    fn snap_chunk_size_tracks_payload() {
        let chunk = |n: usize| WireMsg::SnapChunk {
            term: 2,
            from: 0,
            snap_index: 100,
            snap_term: 2,
            offset: 0,
            total: n as u64,
            data: Bytes::from(vec![0u8; n]),
        };
        assert!(chunk(4096).wire_size() > chunk(64).wire_size() + 4000);
        assert_eq!(chunk(0).r2p2_type(), MsgType::RaftReq);
        let ack = WireMsg::SnapAck {
            term: 2,
            snap_index: 100,
            next_offset: 64,
            from: 1,
        };
        assert_eq!(ack.r2p2_type(), MsgType::RaftRep);
        assert!(ack.wire_size() < 120, "acks are a single small packet");
    }

    #[test]
    fn agg_commit_scales_with_cluster_size() {
        let status = |n: usize| {
            (0..n)
                .map(|i| AggStatus {
                    node: i as RaftId,
                    match_index: 1,
                    applied_index: 1,
                })
                .collect::<Arc<[_]>>()
        };
        let s3 = WireMsg::AggCommit {
            term: 1,
            commit: 5,
            status: status(2),
        };
        let s9 = WireMsg::AggCommit {
            term: 1,
            commit: 5,
            status: status(8),
        };
        assert!(s9.wire_size() > s3.wire_size());
        assert!(s9.wire_size() < 300, "still a single small packet");
    }
}
