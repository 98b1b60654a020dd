//! HovercRaft deployment configuration.

use crate::policy::PolicyKind;

/// Which protocol variant a node runs — the three replicated setups of the
/// evaluation (§7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Vanilla Raft ported onto R2P2: clients talk to the leader, requests
    /// are replicated inline in AppendEntries, the leader replies.
    Vanilla,
    /// HovercRaft: multicast request replication, metadata-only ordering,
    /// reply and read-only load balancing, bounded queues.
    Hovercraft,
    /// HovercRaft plus the in-network aggregator (§4).
    HovercraftPp,
}

impl Mode {
    /// True for the two modes that separate replication from ordering.
    pub fn is_hovercraft(self) -> bool {
        matches!(self, Mode::Hovercraft | Mode::HovercraftPp)
    }
}

/// Full configuration of one HovercRaft node.
#[derive(Clone, Debug)]
pub struct HcConfig {
    /// The underlying Raft configuration (ids double as network addresses).
    pub raft: raft::Config,
    /// Protocol variant.
    pub mode: Mode,
    /// Bounded-queue bound `B` (§3.4): max assigned-but-unapplied
    /// operations per node.
    pub bound: usize,
    /// Replier-selection policy among eligible nodes (§3.6).
    pub policy: PolicyKind,
    /// Load-balance client replies across the group (§3.3). When false the
    /// leader is always the designated replier (the Figure 7 baseline).
    pub lb_replies: bool,
    /// Execute read-only operations only on the designated replier (§3.5).
    /// When false, read-only operations run on every node like writes.
    pub lb_reads: bool,
    /// Network address of the in-network aggregator: set exactly when
    /// `mode` is HovercRaft++ (`HcNode::new` asserts it; [`HcConfig::new`]
    /// leaves it unset, so the caller supplies it).
    pub agg_addr: Option<u32>,
    /// Network address of the flow-control middlebox, if deployed; repliers
    /// send it a FEEDBACK per completed request (§6.3).
    pub flowctl_addr: Option<u32>,
    /// GC timeout for unordered requests, ns (§5).
    pub gc_timeout_ns: u64,
    /// Retry interval for outstanding recovery requests, ns.
    pub recovery_retry_ns: u64,
    /// Stall-detection timeout, ns (§3.4): a member whose FEEDBACK/applied
    /// progress has not been heard by the leader within this window is
    /// treated as stalled and excluded from replier selection until it
    /// reports progress again.
    pub stall_timeout_ns: u64,
    /// Applied-index horizon between snapshots: once `applied` is this many
    /// entries past the last snapshot, the node serializes its state
    /// machine, compacts the ordering log below the applied index, and
    /// drops the archived bodies the compacted entries referenced. `0`
    /// (the default) disables snapshotting entirely — the log grows without
    /// bound, as before this mechanism existed.
    pub snapshot_interval: u64,
    /// Maximum snapshot bytes per SNAP_CHUNK during follower state
    /// transfer. Transfers are stop-and-wait per chunk, so this bounds both
    /// the in-flight transfer data and the retransmit unit.
    pub snap_chunk_bytes: usize,
}

impl HcConfig {
    /// A configuration with the defaults used throughout the evaluation:
    /// JBSQ policy, B = 128, both load-balancing mechanisms on.
    pub fn new(raft: raft::Config, mode: Mode) -> HcConfig {
        HcConfig {
            raft,
            mode,
            bound: 128,
            policy: PolicyKind::Jbsq,
            lb_replies: mode.is_hovercraft(),
            lb_reads: mode.is_hovercraft(),
            agg_addr: None,
            flowctl_addr: None,
            // Comfortably above any queueing delay the flow-control cap
            // admits; early GC is safe but triggers needless recovery (§5).
            gc_timeout_ns: 500_000_000,   // 500 ms
            recovery_retry_ns: 1_000_000, // 1 ms
            // A few heartbeat intervals: long enough that scheduling jitter
            // never trips it, short enough that a stalled node stops
            // receiving assignments well before its bounded queue fills.
            stall_timeout_ns: 5_000_000, // 5 ms
            snapshot_interval: 0,        // disabled
            snap_chunk_bytes: 16 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(!Mode::Vanilla.is_hovercraft());
        assert!(Mode::Hovercraft.is_hovercraft());
        assert!(Mode::HovercraftPp.is_hovercraft());
    }

    #[test]
    fn defaults_follow_mode() {
        let rc = raft::Config::new(0, vec![0, 1, 2]);
        let v = HcConfig::new(rc.clone(), Mode::Vanilla);
        assert!(!v.lb_replies && !v.lb_reads);
        let h = HcConfig::new(rc, Mode::Hovercraft);
        assert!(h.lb_replies && h.lb_reads);
    }
}
