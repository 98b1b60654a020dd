//! Node configuration and timing parameters.
//!
//! The library is sans-io: it never reads a clock. Callers pass `now` (in
//! nanoseconds, from whatever clock drives the deployment — the simulator's
//! virtual clock in the testbed) into every entry point, and the node
//! compares it against deadlines derived from these parameters.

use crate::types::RaftId;

/// Static configuration of one Raft node.
#[derive(Clone, Debug)]
pub struct Config {
    /// This node's id.
    pub id: RaftId,
    /// All members of the group, including this node.
    pub members: Vec<RaftId>,
    /// Lower bound of the randomized election timeout, in ns.
    pub election_timeout_min: u64,
    /// Upper bound (exclusive) of the randomized election timeout, in ns.
    pub election_timeout_max: u64,
    /// Leader heartbeat period, in ns. Must be well below the election
    /// timeout.
    pub heartbeat_interval: u64,
    /// Maximum entries per AppendEntries message.
    pub max_batch: usize,
    /// Maximum entries a follower may have in flight (sent past its
    /// acknowledged `matched` index) before the pipeline pauses. Without
    /// this cap, a leader catching up a healed follower streams the whole
    /// backlog at the offered rate; the follower's receive ring overflows,
    /// the resulting gaps produce conflict/rewind/resend churn, and the
    /// leader's network thread saturates re-sending the same batches. When
    /// the window is full and a heartbeat fires, the unacked window is
    /// retransmitted from `matched + 1` (presumed lost).
    pub max_inflight: usize,
    /// Seed for the node's deterministic election-timeout randomness.
    pub seed: u64,
}

impl Config {
    /// A configuration with timing defaults appropriate for a µs-scale
    /// datacenter deployment: 10 ms election timeouts, 1 ms heartbeats.
    pub fn new(id: RaftId, members: Vec<RaftId>) -> Config {
        Config {
            id,
            members,
            election_timeout_min: 10_000_000,
            election_timeout_max: 20_000_000,
            heartbeat_interval: 1_000_000,
            max_batch: 64,
            max_inflight: 256,
            seed: 0x5eed + id as u64,
        }
    }

    /// Number of members in the group.
    pub fn cluster_size(&self) -> usize {
        self.members.len()
    }

    /// Votes (including one's own) needed to win an election or commit.
    pub fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// The other members of the group.
    pub fn peers(&self) -> impl Iterator<Item = RaftId> + '_ {
        let me = self.id;
        self.members.iter().copied().filter(move |m| *m != me)
    }

    /// Validates invariants; called by the node constructor.
    pub(crate) fn validate(&self) {
        assert!(
            self.members.contains(&self.id),
            "node {} not in member list",
            self.id
        );
        assert!(!self.members.is_empty());
        assert!(self.election_timeout_min > 0);
        assert!(self.election_timeout_max > self.election_timeout_min);
        assert!(self.heartbeat_interval > 0);
        assert!(
            self.heartbeat_interval < self.election_timeout_min,
            "heartbeats must outpace election timeouts"
        );
        assert!(self.max_batch > 0);
        assert!(
            self.max_inflight >= self.max_batch,
            "inflight window must fit at least one batch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes() {
        for (n, q) in [(1, 1), (2, 2), (3, 2), (5, 3), (7, 4), (9, 5)] {
            let c = Config::new(0, (0..n).collect());
            assert_eq!(c.quorum(), q, "n = {n}");
        }
    }

    #[test]
    fn peers_excludes_self() {
        let c = Config::new(1, vec![0, 1, 2]);
        let peers: Vec<RaftId> = c.peers().collect();
        assert_eq!(peers, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "not in member list")]
    fn validate_rejects_foreign_id() {
        let c = Config::new(9, vec![0, 1, 2]);
        let mut c2 = c;
        c2.id = 9;
        c2.members = vec![0, 1, 2];
        c2.validate();
    }

    #[test]
    #[should_panic(expected = "heartbeats must outpace")]
    fn validate_rejects_slow_heartbeat() {
        let mut c = Config::new(0, vec![0, 1, 2]);
        c.heartbeat_interval = c.election_timeout_min * 2;
        c.validate();
    }
}
