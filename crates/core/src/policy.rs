//! Replier-selection policies (§3.3, §3.6) and the bounded-queue ledger
//! (§3.4).
//!
//! The leader assigns every log entry a designated replier when it advances
//! the announced index. Eligibility is governed by the bounded-queue
//! invariant — a node with `B` or more assigned-but-unapplied operations
//! receives no more work, which both caps replies lost to a replica failure
//! at `B` and keeps work away from stalled nodes. Among eligible nodes the
//! policy picks either uniformly at random or by Join-Bounded-Shortest-Queue
//! (JBSQ), which the paper shows wins under high service-time dispersion
//! (Figure 11).

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

use raft::{LogIndex, RaftId};

/// Which selection rule to apply among eligible nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PolicyKind {
    /// Uniform random choice among eligible nodes.
    Random,
    /// Join-Bounded-Shortest-Queue: the eligible node with the fewest
    /// outstanding assignments (ties broken randomly).
    #[default]
    Jbsq,
}

/// The leader's ledger of replier assignments: per node, the queue of log
/// indices assigned to it that it has not yet applied, plus the time each
/// node was last heard from — a node silent for longer than the stall
/// timeout is excluded from selection outright instead of being drip-fed
/// work until its bounded queue fills.
#[derive(Clone, Debug, Default)]
pub struct ReplierLedger {
    /// One slot per node the ledger has heard of since the last reset,
    /// sorted by node id: a group has a handful of members, so a scan
    /// beats hashing on the leader's per-request `pick`.
    members: Vec<Member>,
}

/// One node's slot in the [`ReplierLedger`].
#[derive(Clone, Debug)]
struct Member {
    node: RaftId,
    /// Assigned, not yet applied.
    queue: VecDeque<LogIndex>,
    /// Ever assigned since the last reset: a node whose queue has emptied
    /// still has a (hashed) queue.
    queued: bool,
    last_heard: Option<u64>,
}

impl ReplierLedger {
    /// An empty ledger (fresh leadership term).
    pub fn new() -> Self {
        Self::default()
    }

    fn member(&self, node: RaftId) -> Option<&Member> {
        self.members.iter().find(|m| m.node == node)
    }

    /// `node`'s slot, opened (in node order) if it has none.
    fn member_mut(&mut self, node: RaftId) -> &mut Member {
        let at = match self.members.iter().position(|m| m.node >= node) {
            Some(i) if self.members[i].node == node => return &mut self.members[i],
            Some(i) => i,
            None => self.members.len(),
        };
        let fresh = Member {
            node,
            queue: VecDeque::new(),
            queued: false,
            last_heard: None,
        };
        self.members.insert(at, fresh);
        &mut self.members[at]
    }

    /// Records that entry `idx` was assigned to `node`.
    pub fn assign(&mut self, node: RaftId, idx: LogIndex) {
        let m = self.member_mut(node);
        m.queued = true;
        m.queue.push_back(idx);
    }

    /// Updates the ledger with `node`'s reported applied index, retiring
    /// every assignment at or below it.
    pub fn observe_applied(&mut self, node: RaftId, applied: LogIndex) {
        if let Some(m) = self.members.iter_mut().find(|m| m.node == node) {
            while m.queue.front().is_some_and(|&i| i <= applied) {
                m.queue.pop_front();
            }
        }
    }

    /// Outstanding (assigned but unapplied) operations for `node` — the
    /// queue depth JBSQ balances on.
    pub fn depth(&self, node: RaftId) -> usize {
        self.member(node).map_or(0, |m| m.queue.len())
    }

    /// Records that `node` showed signs of life at time `now` (an
    /// AppendEntries reply or an aggregator register snapshot).
    pub fn note_heard(&mut self, node: RaftId, now: u64) {
        let t = &mut self.member_mut(node).last_heard;
        *t = Some(t.map_or(now, |t| t.max(now)));
    }

    /// True when `node` has not been heard from for longer than
    /// `stall_timeout` ns as of `now`. A node never heard from at all (no
    /// `note_heard` yet) is *not* stalled — fresh leaders give everyone the
    /// benefit of the doubt until the first timeout elapses.
    pub fn is_stalled(&self, node: RaftId, now: u64, stall_timeout: u64) -> bool {
        self.member(node)
            .and_then(|m| m.last_heard)
            .is_some_and(|t| now.saturating_sub(t) > stall_timeout)
    }

    /// Clears all state (leadership change).
    pub fn reset(&mut self) {
        self.members.clear();
    }

    /// Feeds the ledger into `h` for model-checker state fingerprints:
    /// queues and last-heard marks in node order, times as ages relative
    /// to `now`.
    pub fn hash_state(&self, now: u64, h: &mut dyn std::hash::Hasher) {
        h.write_usize(self.members.iter().filter(|m| m.queued).count());
        for m in self.members.iter().filter(|m| m.queued) {
            h.write_u32(m.node);
            h.write_usize(m.queue.len());
            for &idx in &m.queue {
                h.write_u64(idx);
            }
        }
        let heard = || {
            self.members
                .iter()
                .filter_map(|m| Some((m.node, m.last_heard?)))
        };
        h.write_usize(heard().count());
        for (n, t) in heard() {
            h.write_u32(n);
            h.write_u64(now.saturating_sub(t));
        }
    }

    /// Picks a replier for the next entry among `candidates`, honouring the
    /// bounded-queue invariant with bound `b`, skipping nodes that are
    /// stalled as of `now` (no progress heard within `stall_timeout` ns),
    /// and applying `kind` among the eligible ones. Returns `None` when no
    /// node is eligible — the caller must *wait* (§3.4: this never affects
    /// liveness; progress on any node re-opens eligibility).
    ///
    /// If *every* candidate within the bound is stalled, the stall filter is
    /// ignored: assigning into a possibly dead node's bounded queue (at most
    /// `B` lost replies) beats stopping the whole group on a false alarm.
    pub fn pick(
        &self,
        candidates: &[RaftId],
        b: usize,
        kind: PolicyKind,
        rng: &mut SmallRng,
        now: u64,
        stall_timeout: u64,
    ) -> Option<RaftId> {
        // Counting passes and `nth` instead of collected candidate lists:
        // this runs once per ordered request on the leader. The draw (one
        // `gen_range` over the same count, indexing the same order) is
        // unchanged.
        let in_bound = |n: &RaftId| self.depth(*n) < b;
        let live = |n: &RaftId| in_bound(n) && !self.is_stalled(*n, now, stall_timeout);
        let any_live = candidates.iter().any(live);
        let eligible = |n: &RaftId| if any_live { live(n) } else { in_bound(n) };
        match kind {
            PolicyKind::Random => draw(candidates, eligible, rng),
            PolicyKind::Jbsq => {
                let among = candidates.iter().filter(|n| eligible(n));
                let min = among.map(|n| self.depth(*n)).min()?;
                draw(candidates, |n| eligible(n) && self.depth(*n) == min, rng)
            }
        }
    }
}

/// Uniform draw among the `candidates` satisfying `wanted`, `None` when
/// there are none.
fn draw(
    candidates: &[RaftId],
    wanted: impl Fn(&RaftId) -> bool,
    rng: &mut SmallRng,
) -> Option<RaftId> {
    let n = candidates.iter().filter(|n| wanted(n)).count();
    if n == 0 {
        return None;
    }
    let k = rng.gen_range(0..n);
    candidates.iter().copied().filter(|n| wanted(n)).nth(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn depth_tracks_assign_and_applied() {
        let mut l = ReplierLedger::new();
        l.assign(1, 10);
        l.assign(1, 12);
        l.assign(2, 11);
        assert_eq!(l.depth(1), 2);
        assert_eq!(l.depth(2), 1);
        assert_eq!(l.depth(3), 0);
        l.observe_applied(1, 11);
        assert_eq!(l.depth(1), 1, "entry 10 retired, 12 outstanding");
        l.observe_applied(1, 12);
        assert_eq!(l.depth(1), 0);
    }

    #[test]
    fn bounded_queue_blocks_full_nodes() {
        let mut l = ReplierLedger::new();
        let mut r = rng();
        for i in 0..4 {
            l.assign(1, i);
        }
        // Node 1 is at the bound; only node 2 is eligible.
        for _ in 0..20 {
            assert_eq!(
                l.pick(&[1, 2], 4, PolicyKind::Random, &mut r, 0, u64::MAX),
                Some(2)
            );
        }
    }

    #[test]
    fn no_eligible_node_returns_none() {
        let mut l = ReplierLedger::new();
        let mut r = rng();
        l.assign(1, 1);
        l.assign(2, 2);
        assert_eq!(
            l.pick(&[1, 2], 1, PolicyKind::Jbsq, &mut r, 0, u64::MAX),
            None
        );
    }

    #[test]
    fn jbsq_prefers_shortest_queue() {
        let mut l = ReplierLedger::new();
        let mut r = rng();
        for i in 0..3 {
            l.assign(1, i);
        }
        l.assign(2, 10);
        // Depths: node1 = 3, node2 = 1, node3 = 0.
        for _ in 0..20 {
            assert_eq!(
                l.pick(&[1, 2, 3], 8, PolicyKind::Jbsq, &mut r, 0, u64::MAX),
                Some(3)
            );
        }
    }

    #[test]
    fn random_spreads_over_eligible() {
        let l = ReplierLedger::new();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(
                l.pick(&[1, 2, 3], 4, PolicyKind::Random, &mut r, 0, u64::MAX)
                    .unwrap(),
            );
        }
        assert_eq!(seen.len(), 3, "all nodes chosen eventually");
    }

    #[test]
    fn jbsq_breaks_ties_randomly() {
        let l = ReplierLedger::new();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(
                l.pick(&[1, 2], 4, PolicyKind::Jbsq, &mut r, 0, u64::MAX)
                    .unwrap(),
            );
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn reset_clears_queues() {
        let mut l = ReplierLedger::new();
        l.assign(1, 1);
        l.reset();
        assert_eq!(l.depth(1), 0);
    }

    #[test]
    fn hash_state_keeps_an_emptied_queue_until_reset() {
        struct Fed(Vec<u8>);
        impl std::hash::Hasher for Fed {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let fed = |l: &ReplierLedger| {
            let mut h = Fed(Vec::new());
            l.hash_state(100, &mut h);
            h.0
        };
        let mut l = ReplierLedger::new();
        l.note_heard(3, 40);
        l.assign(2, 7);
        l.observe_applied(2, 7);
        l.note_heard(1, 90);
        let mut want = Vec::new();
        // One queue, node 2's, empty; two last-heard ages in node order.
        want.extend(1usize.to_ne_bytes());
        want.extend(2u32.to_ne_bytes());
        want.extend(0usize.to_ne_bytes());
        want.extend(2usize.to_ne_bytes());
        want.extend(1u32.to_ne_bytes());
        want.extend(10u64.to_ne_bytes());
        want.extend(3u32.to_ne_bytes());
        want.extend(60u64.to_ne_bytes());
        assert_eq!(fed(&l), want);
        l.reset();
        assert_eq!(
            fed(&l),
            [0usize.to_ne_bytes(), 0usize.to_ne_bytes()].concat()
        );
    }

    #[test]
    fn stalled_node_stays_blocked_forever() {
        // A failed node's applied index never advances; after B assignments
        // it can never be picked again — the §3.4 failure-containment story.
        let mut l = ReplierLedger::new();
        let mut r = rng();
        let b = 3;
        let mut next_idx = 1;
        let mut dead_got = 0;
        for _ in 0..200 {
            // Random (not JBSQ) keeps offering work to the dead node until
            // its bounded queue fills — the worst case the bound protects.
            let n = l
                .pick(&[1, 2], b, PolicyKind::Random, &mut r, 0, u64::MAX)
                .unwrap();
            l.assign(n, next_idx);
            next_idx += 1;
            if n == 1 {
                dead_got += 1; // node 1 is dead: never applies
            } else {
                l.observe_applied(2, next_idx - 1); // node 2 applies instantly
            }
        }
        assert_eq!(dead_got, b, "dead node received exactly B assignments");
    }

    #[test]
    fn stall_filter_excludes_silent_nodes() {
        let mut l = ReplierLedger::new();
        let mut r = rng();
        let stall = 5_000_000; // 5 ms
        l.note_heard(1, 0);
        l.note_heard(2, 0);
        // At 10 ms only node 2 has shown recent progress.
        l.note_heard(2, 10_000_000);
        for _ in 0..20 {
            assert_eq!(
                l.pick(&[1, 2], 8, PolicyKind::Random, &mut r, 10_000_000, stall),
                Some(2),
                "silent node 1 must be routed around"
            );
        }
        // Node 1 reports progress again — back in the candidate set.
        l.note_heard(1, 10_500_000);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(
                l.pick(&[1, 2], 8, PolicyKind::Random, &mut r, 10_600_000, stall)
                    .unwrap(),
            );
        }
        assert_eq!(seen.len(), 2, "recovered node is eligible again");
    }

    #[test]
    fn all_stalled_falls_back_to_bounded_queue_rule() {
        let mut l = ReplierLedger::new();
        let mut r = rng();
        l.note_heard(1, 0);
        l.note_heard(2, 0);
        // Everyone is silent: the stall filter must not wedge the group.
        assert!(l
            .pick(&[1, 2], 8, PolicyKind::Jbsq, &mut r, 100_000_000, 5_000_000)
            .is_some());
    }

    #[test]
    fn stale_note_heard_cannot_rewind_the_clock() {
        let mut l = ReplierLedger::new();
        l.note_heard(1, 10_000_000);
        l.note_heard(1, 2_000_000); // reordered observation
        assert!(!l.is_stalled(1, 12_000_000, 5_000_000));
        assert!(l.is_stalled(1, 16_000_000, 5_000_000));
    }
}
