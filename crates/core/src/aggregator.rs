//! The HovercRaft++ in-network aggregator (§4, §6.4).
//!
//! A model of the paper's P414 Tofino program: a line-rate packet processor
//! that owns the leader's fan-out/fan-in. It keeps **soft state only** —
//! per-follower `match_idx` (ingress) and `completed` (egress) registers,
//! the current term, commit index, and a `pending` flag — and is flushed on
//! every term change, which is what makes a failed aggregator replaceable by
//! an empty one (§8).
//!
//! Dataplane behaviour (Figure 6):
//!
//! * **AppendEntries from the leader** → forwarded to every follower
//!   (multicast group excluding the sender). If the announced log index does
//!   not exceed what is already committed, the `pending` flag is set so the
//!   next reply still triggers an `AGG_COMMIT` (keeping followers' election
//!   timers quiet).
//! * **Successful AppendEntries replies from followers** → absorbed into
//!   the registers; when a quorum matches a new index the aggregator
//!   multicasts `AGG_COMMIT` carrying the commit index and the register
//!   snapshot; otherwise the reply is dropped (never reaching the leader —
//!   that is the whole point).
//! * **VoteProbe from a new leader** → flush, answer `VoteProbeRep`. The
//!   aggregator never votes (§6.4).
//!
//! The struct is pure (no I/O): [`Aggregator::on_packet_into`] maps one
//! incoming packet to the `(dst, msg)` emissions it appends to a caller's
//! buffer. The testbed adapts it onto the simulator's switch pipeline.
//!
//! Like the device's per-port registers, the registers are slots in
//! `members` order, and every AGG_COMMIT copy of one round shares one
//! snapshot of them.

use std::sync::Arc;

use raft::{LogIndex, Message, RaftId, Term};

use crate::cmd::Cmd;
use crate::msg::{AggStatus, WireMsg};

/// Activity counters (test/observability only; a real ASIC has none).
#[derive(Clone, Copy, Debug, Default)]
pub struct AggStats {
    /// AppendEntries requests fanned out.
    pub fanouts: u64,
    /// Follower replies absorbed.
    pub replies_absorbed: u64,
    /// AGG_COMMIT messages multicast.
    pub commits_sent: u64,
    /// State flushes (term changes / probes).
    pub flushes: u64,
}

/// The in-network aggregation program. `Clone` supports explicit-state
/// model checking (the checker snapshots whole system states).
#[derive(Clone)]
pub struct Aggregator {
    /// All group members (node addresses double as Raft ids).
    members: Vec<RaftId>,
    /// Quorum of the full group (members / 2 + 1).
    quorum: usize,
    term: Term,
    leader: Option<RaftId>,
    /// Per-member registers, in `members` order: the ingress `match_idx`
    /// and the egress applied ("completed") index. `None` until the
    /// member's first absorbed reply since the last flush.
    regs: Vec<Option<(LogIndex, LogIndex)>>,
    commit: LogIndex,
    /// Set when the leader re-announces an already-committed index; forces
    /// an AGG_COMMIT on the next reply (Figure 6 `set_pending`).
    pending: bool,
    last_target: LogIndex,
    stats: AggStats,
}

impl Aggregator {
    /// Creates an aggregator for a group. `members` are the node addresses
    /// of the fault-tolerance group.
    pub fn new(members: Vec<RaftId>) -> Aggregator {
        let quorum = members.len() / 2 + 1;
        Aggregator {
            regs: vec![None; members.len()],
            members,
            quorum,
            term: 0,
            leader: None,
            commit: 0,
            pending: false,
            last_target: 0,
            stats: AggStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> AggStats {
        self.stats
    }

    /// Current term the registers belong to.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Current aggregated commit index.
    pub fn commit(&self) -> LogIndex {
        self.commit
    }

    /// Feeds the aggregator's soft state into `h` for model-checker state
    /// fingerprints: each register is hashed as its present rows sorted by
    /// node id, whatever the member order. `stats` is excluded
    /// (observability only).
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher) {
        let mut rows: Vec<(RaftId, (LogIndex, LogIndex))> = self
            .members
            .iter()
            .zip(&self.regs)
            .filter_map(|(&n, r)| Some((n, (*r)?)))
            .collect();
        rows.sort_unstable();
        let mut members: Vec<RaftId> = self.members.clone();
        members.sort_unstable();
        h.write_usize(members.len());
        for n in members {
            h.write_u32(n);
        }
        h.write_usize(self.quorum);
        h.write_u64(self.term);
        match self.leader {
            Some(l) => {
                h.write_u8(1);
                h.write_u32(l);
            }
            None => h.write_u8(0),
        }
        let regs: [fn((LogIndex, LogIndex)) -> LogIndex; 2] = [|r| r.0, |r| r.1];
        for reg in regs {
            h.write_usize(rows.len());
            for &(n, r) in &rows {
                h.write_u32(n);
                h.write_u64(reg(r));
            }
        }
        h.write_u64(self.commit);
        h.write_u8(self.pending as u8);
        h.write_u64(self.last_target);
    }

    /// Flushes all soft state (device replacement / term change).
    pub fn flush(&mut self) {
        self.regs.fill(None);
        self.commit = 0;
        self.pending = false;
        self.last_target = 0;
        self.leader = None;
        self.stats.flushes += 1;
    }

    /// Processes one packet addressed to the aggregator and returns the
    /// packets to emit; [`Aggregator::on_packet_into`] into a fresh `Vec`.
    pub fn on_packet(&mut self, src: u32, msg: WireMsg) -> Vec<(u32, WireMsg)> {
        let mut out = Vec::new();
        self.on_packet_into(src, msg, &mut out);
        out
    }

    /// Processes one packet addressed to the aggregator, appending the
    /// packets to emit to `out`. `src` is the sender's network address.
    pub fn on_packet_into(&mut self, src: u32, msg: WireMsg, out: &mut Vec<(u32, WireMsg)>) {
        match msg {
            WireMsg::Raft(m) => self.on_raft(m, out),
            WireMsg::VoteProbe { term } => {
                // New leader probing: flush and acknowledge (§6.4). The
                // reply does not count as a vote.
                self.flush();
                self.term = term;
                out.push((src, WireMsg::VoteProbeRep { term }));
            }
            // Anything else addressed to the device is dropped.
            _ => {}
        }
    }

    fn on_raft(&mut self, m: Message<Cmd>, out: &mut Vec<(u32, WireMsg)>) {
        match m {
            Message::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => {
                if term > self.term {
                    self.flush();
                    self.term = term;
                }
                if term < self.term {
                    return; // stale leader
                }
                self.leader = Some(leader);
                let target = prev_log_index + entries.len() as u64;
                if target <= self.commit || target == self.last_target {
                    // Re-announcement of known ground: make sure an
                    // AGG_COMMIT still goes out so followers hear from the
                    // "leader" and elections stay quiet.
                    self.pending = true;
                }
                self.last_target = self.last_target.max(target);
                self.stats.fanouts += 1;
                // Fan out to every member except the leader.
                fan_out(&self.members, Some(leader), entries, out, |entries| {
                    WireMsg::Raft(Message::AppendEntries {
                        term,
                        leader,
                        prev_log_index,
                        prev_log_term,
                        entries,
                        leader_commit,
                    })
                })
            }
            Message::AppendEntriesReply {
                term,
                success,
                match_index,
                applied_index,
                from,
                ..
            } => {
                // Failed appends never come here (followers send them
                // directly to the leader), stale terms are dropped, a
                // pristine device that no leader has adopted yet absorbs
                // nothing, and a node outside the group has no register.
                if term != self.term || !success || self.leader.is_none() {
                    return;
                }
                let Some(slot) = self.members.iter().position(|&n| n == from) else {
                    return;
                };
                self.stats.replies_absorbed += 1;
                let (m, c) = self.regs[slot].get_or_insert((0, 0));
                *m = (*m).max(match_index);
                *c = (*c).max(applied_index);

                // Quorum check: the leader trivially holds every announced
                // entry, so `quorum - 1` follower matches suffice.
                let needed = self.quorum - 1;
                let candidate = if needed == 0 {
                    self.last_target
                } else {
                    let follower_matches = self
                        .members
                        .iter()
                        .zip(&self.regs)
                        .filter(|(&n, _)| Some(n) != self.leader)
                        .map(|(_, r)| r.map_or(0, |(m, _)| m));
                    raft::quorum_index(follower_matches, needed)
                };

                if candidate > self.commit {
                    self.commit = candidate;
                } else if !self.pending {
                    return; // absorbed: the leader never sees it
                }
                self.pending = false;
                self.stats.commits_sent += 1;
                self.emit_commit(out);
            }
            // Vote traffic is never addressed to the aggregator.
            _ => {}
        }
    }

    /// Multicasts one AGG_COMMIT to every member: each copy shares one
    /// snapshot of the followers' registers.
    fn emit_commit(&self, out: &mut Vec<(u32, WireMsg)>) {
        // A `Range` map knows its length, so the snapshot is allocated
        // once, at its exact size.
        let skip = self.members.iter().position(|&n| Some(n) == self.leader);
        let rows = self.members.len() - usize::from(skip.is_some());
        let status: Arc<[AggStatus]> = (0..rows)
            .map(|i| {
                let slot = if skip.is_some_and(|l| i >= l) {
                    i + 1
                } else {
                    i
                };
                let (match_index, applied_index) = self.regs[slot].unwrap_or((0, 0));
                AggStatus {
                    node: self.members[slot],
                    match_index,
                    applied_index,
                }
            })
            .collect();
        let (term, commit) = (self.term, self.commit);
        fan_out(&self.members, None, status, out, |status| {
            WireMsg::AggCommit {
                term,
                commit,
                status,
            }
        })
    }
}

/// Appends one message per member other than `skip`, in member order,
/// each built from its own copy of `payload`: every copy but the last is
/// a clone, and the last takes the original.
fn fan_out<T: Clone>(
    members: &[RaftId],
    skip: Option<RaftId>,
    payload: T,
    out: &mut Vec<(u32, WireMsg)>,
    msg: impl Fn(T) -> WireMsg,
) {
    let mut last = None;
    for n in members.iter().copied().filter(|&n| Some(n) != skip) {
        if let Some(prev) = last.replace(n) {
            out.push((prev, msg(payload.clone())));
        }
    }
    if let Some(n) = last {
        out.push((n, msg(payload)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::{EntryDesc, OpKind};
    use r2p2::ReqId;
    use raft::Entry;

    fn ae(term: Term, prev: LogIndex, n: usize, commit: LogIndex) -> WireMsg {
        ae_by(0, term, prev, n, commit)
    }

    fn ae_by(leader: RaftId, term: Term, prev: LogIndex, n: usize, commit: LogIndex) -> WireMsg {
        let entries = (0..n)
            .map(|i| Entry {
                term,
                index: prev + 1 + i as u64,
                cmd: Cmd::meta(EntryDesc::new(
                    ReqId::new(9, 9, (prev + 1 + i as u64) as u16),
                    0,
                    OpKind::ReadWrite,
                )),
            })
            .collect();
        WireMsg::Raft(Message::AppendEntries {
            term,
            leader,
            prev_log_index: prev,
            prev_log_term: term,
            entries,
            leader_commit: commit,
        })
    }

    fn reply(term: Term, m: LogIndex, applied: LogIndex, from: RaftId) -> WireMsg {
        WireMsg::Raft(Message::AppendEntriesReply {
            term,
            success: true,
            match_index: m,
            conflict_index: 0,
            applied_index: applied,
            from,
        })
    }

    #[test]
    fn fans_out_to_all_followers_but_not_leader() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        let out = a.on_packet(0, ae(1, 0, 1, 0));
        let dsts: Vec<u32> = out.iter().map(|(d, _)| *d).collect();
        assert_eq!(dsts, vec![1, 2]);
    }

    #[test]
    fn absorbs_minority_reply_and_commits_on_quorum() {
        let mut a = Aggregator::new(vec![0, 1, 2, 3, 4]); // quorum 3: leader + 2
        a.on_packet(0, ae(1, 0, 1, 0));
        let out = a.on_packet(1, reply(1, 1, 0, 1));
        assert!(out.is_empty(), "first reply absorbed");
        let out = a.on_packet(2, reply(1, 1, 0, 2));
        // Second follower match ⇒ quorum ⇒ AGG_COMMIT to all 5 members.
        assert_eq!(out.len(), 5);
        for (_, m) in &out {
            match m {
                WireMsg::AggCommit { commit, term, .. } => {
                    assert_eq!(*commit, 1);
                    assert_eq!(*term, 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(a.commit(), 1);
        // A third, late reply is silently absorbed.
        let out = a.on_packet(3, reply(1, 1, 0, 3));
        assert!(out.is_empty());
    }

    #[test]
    fn commit_is_monotone_per_term() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        a.on_packet(0, ae(1, 0, 2, 0));
        let out = a.on_packet(1, reply(1, 2, 0, 1));
        assert!(!out.is_empty());
        assert_eq!(a.commit(), 2);
        // A slow follower's older match cannot regress the commit.
        let out = a.on_packet(2, reply(1, 1, 0, 2));
        assert!(out.is_empty());
        assert_eq!(a.commit(), 2);
    }

    #[test]
    fn higher_term_flushes_state() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        a.on_packet(0, ae(1, 0, 1, 0));
        a.on_packet(1, reply(1, 1, 1, 1));
        assert_eq!(a.commit(), 1);
        a.on_packet(2, ae(2, 1, 1, 1)); // new leader, term 2
        assert_eq!(a.commit(), 0, "registers flushed");
        assert_eq!(a.term(), 2);
        // Stale term-1 replies are now ignored.
        let out = a.on_packet(1, reply(1, 2, 0, 1));
        assert!(out.is_empty());
        assert_eq!(a.commit(), 0);
    }

    #[test]
    fn pending_reannouncement_triggers_commit_echo() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        a.on_packet(0, ae(1, 0, 1, 0));
        a.on_packet(1, reply(1, 1, 0, 1));
        assert_eq!(a.commit(), 1);
        // Leader re-announces the same index (empty heartbeat at target 1).
        a.on_packet(0, ae(1, 1, 0, 1));
        // The next reply does not advance commit, but pending forces an
        // AGG_COMMIT so followers keep hearing progress.
        let out = a.on_packet(2, reply(1, 1, 0, 2));
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, WireMsg::AggCommit { commit: 1, .. })),
            "pending echo"
        );
    }

    #[test]
    fn vote_probe_flushes_and_answers_without_voting() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        a.on_packet(0, ae(1, 0, 1, 0));
        a.on_packet(1, reply(1, 1, 0, 1));
        let out = a.on_packet(2, WireMsg::VoteProbe { term: 5 });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
        assert!(matches!(out[0].1, WireMsg::VoteProbeRep { term: 5 }));
        assert_eq!(a.commit(), 0);
        assert_eq!(a.term(), 5);
    }

    #[test]
    fn agg_commit_carries_register_snapshot() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        a.on_packet(0, ae(3, 0, 1, 0));
        let out = a.on_packet(1, reply(3, 1, 1, 1));
        let (_, m) = &out[0];
        match m {
            WireMsg::AggCommit { status, .. } => {
                assert_eq!(status.len(), 2, "one row per follower");
                let s1 = status.iter().find(|s| s.node == 1).unwrap();
                assert_eq!(s1.match_index, 1);
                assert_eq!(s1.applied_index, 1);
                let s2 = status.iter().find(|s| s.node == 2).unwrap();
                assert_eq!(s2.match_index, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_replies_are_ignored() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        a.on_packet(0, ae(1, 0, 1, 0));
        let out = a.on_packet(
            1,
            WireMsg::Raft(Message::AppendEntriesReply {
                term: 1,
                success: false,
                match_index: 0,
                conflict_index: 1,
                applied_index: 0,
                from: 1,
            }),
        );
        assert!(out.is_empty());
        assert_eq!(a.stats().replies_absorbed, 0);
    }

    /// The bytes a hasher is fed.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl std::hash::Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn hash_bytes(a: &Aggregator) -> Vec<u8> {
        let mut r = Recorder::default();
        a.hash_state(&mut r);
        r.0
    }

    /// `hash_state` as it was written when the registers were two maps
    /// keyed by node id, each hashed as its rows sorted by id.
    #[allow(clippy::too_many_arguments)]
    fn map_encoding(
        members: &[RaftId],
        term: Term,
        leader: Option<RaftId>,
        match_idx: &[(RaftId, LogIndex)],
        completed: &[(RaftId, LogIndex)],
        commit: LogIndex,
        pending: bool,
        last_target: LogIndex,
    ) -> Vec<u8> {
        use std::collections::BTreeMap;
        use std::hash::Hasher;
        let mut h = Recorder::default();
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        h.write_usize(sorted.len());
        for n in sorted {
            h.write_u32(n);
        }
        h.write_usize(members.len() / 2 + 1);
        h.write_u64(term);
        match leader {
            Some(l) => {
                h.write_u8(1);
                h.write_u32(l);
            }
            None => h.write_u8(0),
        }
        for regs in [match_idx, completed] {
            let rows: BTreeMap<RaftId, LogIndex> = regs.iter().copied().collect();
            h.write_usize(rows.len());
            for (n, i) in rows {
                h.write_u32(n);
                h.write_u64(i);
            }
        }
        h.write_u64(commit);
        h.write_u8(pending as u8);
        h.write_u64(last_target);
        h.0
    }

    #[test]
    fn hash_state_writes_the_map_encoding_for_an_unsorted_group() {
        let members = [9, 2, 7];
        let mut a = Aggregator::new(members.to_vec());
        assert_eq!(
            hash_bytes(&a),
            map_encoding(&members, 0, None, &[], &[], 0, false, 0),
            "pristine"
        );
        a.on_packet(9, ae_by(9, 1, 0, 2, 0));
        assert_eq!(
            hash_bytes(&a),
            map_encoding(&members, 1, Some(9), &[], &[], 0, false, 2),
            "adopted, no reply yet"
        );
        a.on_packet(7, reply(1, 2, 1, 7));
        a.on_packet(2, reply(1, 1, 0, 2));
        assert_eq!(a.commit(), 2);
        assert_eq!(
            hash_bytes(&a),
            map_encoding(
                &members,
                1,
                Some(9),
                &[(7, 2), (2, 1)],
                &[(7, 1), (2, 0)],
                2,
                false,
                2
            ),
            "two registers, stored in member order"
        );
        a.flush();
        assert_eq!(
            hash_bytes(&a),
            map_encoding(&members, 1, None, &[], &[], 0, false, 0),
            "flushed"
        );
        a.on_packet(2, ae_by(2, 3, 4, 1, 4));
        a.on_packet(9, reply(3, 5, 4, 9));
        assert_eq!(
            hash_bytes(&a),
            map_encoding(&members, 3, Some(2), &[(9, 5)], &[(9, 4)], 5, false, 5),
            "after the flush, under a new leader"
        );
    }

    #[test]
    fn every_agg_commit_copy_shares_one_snapshot() {
        let mut a = Aggregator::new(vec![0, 1, 2, 3, 4]);
        let mut out = Vec::new();
        a.on_packet_into(0, ae(1, 0, 1, 0), &mut out);
        assert_eq!(out.len(), 4, "fan-out to four followers");
        out.clear();
        a.on_packet_into(1, reply(1, 1, 0, 1), &mut out);
        a.on_packet_into(2, reply(1, 1, 1, 2), &mut out);
        let snaps: Vec<&Arc<[AggStatus]>> = out
            .iter()
            .map(|(_, m)| match m {
                WireMsg::AggCommit { status, .. } => status,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(snaps.len(), 5, "one copy per member");
        assert!(snaps.iter().all(|s| Arc::ptr_eq(s, snaps[0])));
        let rows: Vec<(RaftId, LogIndex, LogIndex)> = snaps[0]
            .iter()
            .map(|s| (s.node, s.match_index, s.applied_index))
            .collect();
        assert_eq!(rows, [(1, 1, 0), (2, 1, 1), (3, 0, 0), (4, 0, 0)]);
        // 24 B of body header and 20 B per follower row, plus the 16 B
        // R2P2 header, as when the snapshot was a `Vec`.
        for (_, m) in &out {
            assert_eq!(m.wire_size(), r2p2::msg_wire_size(24 + 20 * 4, 1500));
        }
        assert_eq!(out[0].1.wire_size(), 120);
    }

    #[test]
    fn a_reply_from_outside_the_group_is_not_absorbed() {
        let mut a = Aggregator::new(vec![0, 1, 2]);
        a.on_packet(0, ae(1, 0, 1, 0));
        assert!(a.on_packet(8, reply(1, 1, 1, 8)).is_empty());
        assert_eq!(a.stats().replies_absorbed, 0);
        assert_eq!(a.commit(), 0);
    }
}
