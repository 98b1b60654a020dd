//! Per-follower replication progress, as tracked by the leader.

use crate::types::LogIndex;

/// The leader's view of one follower.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Next log index to send to this follower (optimistically advanced
    /// when entries are sent; rewound on a failed AppendEntries reply).
    pub next: LogIndex,
    /// Highest log index known to be replicated on this follower.
    pub matched: LogIndex,
    /// Highest log index the follower reports having *applied* to its state
    /// machine — HovercRaft extension (§6.2), consumed by the bounded-queue
    /// eligibility check and JBSQ load balancing.
    pub applied: LogIndex,
    /// Highest commit index this follower has been told: the
    /// `leader_commit` of the last AppendEntries sent to it, or a value
    /// the driver reported via [`crate::RaftNode::note_commit_told`]
    /// (HovercRaft++'s `AGG_COMMIT`). Lets the leader notice a follower
    /// that is fully caught up on entries but behind on the commit index —
    /// and skip one that is not.
    pub commit_told: LogIndex,
    /// When the leader last heard *anything* current-term from this
    /// follower, in driver-clock ns; consumed by check-quorum.
    pub last_heard: u64,
    /// True while a snapshot transfer to this follower is pending: the
    /// leader has emitted [`crate::Action::NeedsSnapshot`] and not yet seen
    /// the install acknowledged. Dedups the action and parks replication.
    pub pending_snapshot: bool,
}

impl Progress {
    /// Fresh progress for a follower right after election at time `now`
    /// (the election instant counts as having heard from everyone, which
    /// gives check-quorum a full timeout of grace).
    pub fn new(last_index: LogIndex, now: u64) -> Progress {
        Progress {
            next: last_index + 1,
            matched: 0,
            applied: 0,
            commit_told: 0,
            last_heard: now,
            pending_snapshot: false,
        }
    }

    /// Records a successful append up to `match_index` with the follower's
    /// reported `applied_index`.
    pub fn on_success(&mut self, match_index: LogIndex, applied_index: LogIndex) {
        self.matched = self.matched.max(match_index);
        self.next = self.next.max(match_index + 1);
        self.applied = self.applied.max(applied_index);
    }

    /// Rewinds `next` after a failed append, using the follower's conflict
    /// hint (never below 1, never below what is already matched).
    pub fn on_conflict(&mut self, conflict_index: LogIndex) {
        self.next = conflict_index.max(self.matched + 1).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_is_monotone() {
        let mut p = Progress::new(10, 0);
        assert_eq!(p.next, 11);
        p.on_success(5, 3);
        assert_eq!((p.matched, p.applied), (5, 3));
        // Stale replies cannot move progress backwards.
        p.on_success(4, 2);
        assert_eq!((p.matched, p.applied), (5, 3));
        assert_eq!(p.next, 11);
    }

    #[test]
    fn conflict_rewinds_but_not_below_matched() {
        let mut p = Progress::new(10, 0);
        p.on_success(5, 5);
        p.on_conflict(3);
        assert_eq!(p.next, 6, "never below matched + 1");
        p.on_conflict(8);
        assert_eq!(p.next, 8);
    }

    #[test]
    fn conflict_never_reaches_zero() {
        let mut p = Progress::new(0, 0);
        p.on_conflict(0);
        assert_eq!(p.next, 1);
    }
}
