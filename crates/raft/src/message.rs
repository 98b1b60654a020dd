//! Raft RPC messages.
//!
//! Two RPCs as in the Raft paper (Ongaro & Ousterhout, ATC '14):
//! RequestVote and AppendEntries, each with a reply. Following HovercRaft
//! §6.2, the AppendEntries *reply* additionally carries the follower's
//! `applied_index`, which the leader's bounded-queue and load-balancing
//! logic consume; vanilla Raft simply ignores the field.

use crate::log::Entry;
use crate::types::{LogIndex, RaftId, Term};

/// A Raft protocol message, generic over the log command type `C`.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Message<C> {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// Candidate requesting the vote.
        candidate: RaftId,
        /// Index of the candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to [`Message::RequestVote`].
    RequestVoteReply {
        /// Voter's current term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Pre-Vote probe (Ongaro's thesis §9.6): would you vote for me at
    /// `term` (my current term + 1)? Carries no durable consequences for
    /// either side — the sender has *not* bumped its term, and the receiver
    /// does not record a vote. This is what lets a node returning from a
    /// partition or restart rejoin without deposing a stable leader.
    PreVote {
        /// The term the sender *would* campaign at (its current term + 1).
        term: Term,
        /// Prospective candidate.
        candidate: RaftId,
        /// Index of the candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to [`Message::PreVote`].
    PreVoteReply {
        /// On grant: echoes the probed term. On rejection: the voter's
        /// actual current term, so a stale prospective candidate catches up.
        term: Term,
        /// Whether a real vote would be granted.
        granted: bool,
    },
    /// Leader replicates entries / sends heartbeats.
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Leader id, so followers can redirect clients.
        leader: RaftId,
        /// Index of the entry immediately preceding `entries`.
        prev_log_index: LogIndex,
        /// Term of the `prev_log_index` entry.
        prev_log_term: Term,
        /// New entries to append (empty for pure heartbeats).
        entries: Vec<Entry<C>>,
        /// Leader's commit index.
        leader_commit: LogIndex,
    },
    /// Reply to [`Message::AppendEntries`].
    AppendEntriesReply {
        /// Follower's current term.
        term: Term,
        /// Whether the append matched.
        success: bool,
        /// On success: index of the last entry known to match the leader.
        match_index: LogIndex,
        /// On failure: a hint for the leader to rewind `next_index`
        /// (first index of the conflicting term, or last+1 when the
        /// follower's log is simply short).
        conflict_index: LogIndex,
        /// HovercRaft extension (§6.2): the follower's applied index, used
        /// for bounded queues and reply load balancing.
        applied_index: LogIndex,
        /// Responder id (needed because replies may be aggregated in the
        /// network and arrive from a different source address).
        from: RaftId,
    },
}

impl<C> Message<C> {
    /// The term carried by this message.
    pub fn term(&self) -> Term {
        match self {
            Message::RequestVote { term, .. }
            | Message::RequestVoteReply { term, .. }
            | Message::PreVote { term, .. }
            | Message::PreVoteReply { term, .. }
            | Message::AppendEntries { term, .. }
            | Message::AppendEntriesReply { term, .. } => *term,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_extraction() {
        let m: Message<u8> = Message::RequestVote {
            term: 7,
            candidate: 1,
            last_log_index: 0,
            last_log_term: 0,
        };
        assert_eq!(m.term(), 7);
        let m: Message<u8> = Message::AppendEntriesReply {
            term: 9,
            success: true,
            match_index: 4,
            conflict_index: 0,
            applied_index: 2,
            from: 3,
        };
        assert_eq!(m.term(), 9);
    }
}
