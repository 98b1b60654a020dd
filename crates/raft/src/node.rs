//! The Raft state machine: elections, replication, and commit.
//!
//! [`RaftNode`] is sans-io and deterministic. Drivers feed it messages
//! ([`RaftNode::step`]) and clock readings ([`RaftNode::tick`]), and it
//! returns [`Action`]s — messages to transmit and state transitions to act
//! on. It never blocks, sleeps, or reads a clock.
//!
//! The implementation follows the Raft paper (Ongaro & Ousterhout, ATC '14)
//! with the standard industrial refinements: conflict-hint fast backtracking
//! for `next_index`, pipelined (optimistically advanced) replication, and
//! batched AppendEntries. Two deliberate extension points exist for
//! HovercRaft, neither of which alters the consensus core (paper §5):
//!
//! * a **replication ceiling** ([`RaftNode::set_ceiling`]): the leader never
//!   sends entries above the ceiling, which is how HovercRaft withholds
//!   entries until a designated replier has been stamped into them and the
//!   bounded-queue invariant holds (§3.4). A ceiling of `u64::MAX` (the
//!   default) yields vanilla Raft.
//! * the AppendEntries **reply carries `applied_index`** (§6.2), which
//!   vanilla Raft ignores.

use fxhash::FxHashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::Config;
use crate::log::{Entry, RaftLog};
use crate::message::Message;
use crate::progress::Progress;
use crate::types::{LogIndex, RaftId, Role, Term};

/// An effect the driver must carry out.
#[derive(Clone, Debug)]
pub enum Action<C> {
    /// Transmit `msg` to peer `to`.
    Send {
        /// Destination peer.
        to: RaftId,
        /// The message.
        msg: Message<C>,
    },
    /// The commit index advanced; entries up to `upto` are now durable and
    /// may be applied in order.
    Commit {
        /// New commit index.
        upto: LogIndex,
    },
    /// This node won an election.
    BecameLeader {
        /// The term it leads.
        term: Term,
    },
    /// This node (re)entered the follower role.
    BecameFollower {
        /// Its current term.
        term: Term,
    },
    /// Durable state changed; a persistent deployment must sync this before
    /// transmitting any message produced by the same call.
    SaveHardState {
        /// Current term.
        term: Term,
        /// Vote cast in `term`, if any.
        voted_for: Option<RaftId>,
    },
    /// Leader-only: peer `to` is behind the log's compaction horizon, so no
    /// AppendEntries can be built for it. The driver must stream the current
    /// snapshot to `to` (chunked InstallSnapshot) and report completion via
    /// [`RaftNode::on_snapshot_installed_into`]. Emitted at most once per
    /// transfer (deduped by `Progress::pending_snapshot`).
    NeedsSnapshot {
        /// The follower that needs a snapshot.
        to: RaftId,
    },
}

/// Error returned by [`RaftNode::propose`] on a non-leader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotLeader {
    /// Best-known current leader, if any.
    pub hint: Option<RaftId>,
}

impl std::fmt::Display for NotLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not the leader (hint: {:?})", self.hint)
    }
}
impl std::error::Error for NotLeader {}

/// A deterministic, sans-io Raft node.
///
/// `Clone` supports explicit-state model checking: the `mc` crate forks a
/// node per explored branch. All state (including the seeded generator) is
/// plain data, so a clone behaves bit-identically to the original.
#[derive(Clone)]
pub struct RaftNode<C> {
    cfg: Config,
    log: RaftLog<C>,
    role: Role,
    term: Term,
    voted_for: Option<RaftId>,
    leader_id: Option<RaftId>,
    commit: LogIndex,
    applied: LogIndex,
    progress: FxHashMap<RaftId, Progress>,
    votes: usize,
    voters: Vec<RaftId>,
    election_deadline: u64,
    heartbeat_due: u64,
    ceiling: LogIndex,
    announced: LogIndex,
    /// When a valid AppendEntries from the current leader last arrived;
    /// Pre-Vote leader stickiness refuses probes while this is fresh.
    last_leader_contact: u64,
    /// `cfg.peers()` precomputed: membership is fixed for a node's
    /// lifetime, and the replication paths walk this every pump/heartbeat.
    peer_ids: Vec<RaftId>,
    rng: SmallRng,
}

impl<C: Clone + std::fmt::Debug> RaftNode<C> {
    /// Creates a node at term 0 with an empty log. `now` seeds the first
    /// election deadline.
    pub fn new(cfg: Config, now: u64) -> Self {
        cfg.validate();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Width-1 jitter windows skip the draw (see reset_election_deadline).
        let election_deadline = now
            + if cfg.election_timeout_max - cfg.election_timeout_min == 1 {
                cfg.election_timeout_min
            } else {
                rng.gen_range(cfg.election_timeout_min..cfg.election_timeout_max)
            };
        let peer_ids: Vec<RaftId> = cfg.peers().collect();
        RaftNode {
            cfg,
            log: RaftLog::new(),
            role: Role::Follower,
            term: 0,
            voted_for: None,
            leader_id: None,
            commit: 0,
            applied: 0,
            progress: FxHashMap::default(),
            votes: 0,
            voters: Vec::new(),
            election_deadline,
            heartbeat_due: 0,
            ceiling: LogIndex::MAX,
            announced: 0,
            last_leader_contact: 0,
            peer_ids,
            rng,
        }
    }

    /// Rebuilds a node from durable hard state after a crash–restart: the
    /// `term` and `voted_for` last persisted via [`Action::SaveHardState`]
    /// and the persisted log entries. All volatile state (commit, applied,
    /// leadership, progress) restarts from zero, as Raft prescribes — the
    /// commit index is re-learned from the next leader contact.
    /// `snap_index`/`snap_term` describe the durable snapshot boundary the
    /// entries sit on top of (0/0 when no snapshot was taken): the log
    /// restarts at `snap_index + 1`, and — unlike the volatile commit index,
    /// which is re-learned from the next leader — both `commit` and
    /// `applied` restart *at* `snap_index`, because the snapshot embodies
    /// durably applied state that can never be re-derived from entries.
    pub fn restore(
        cfg: Config,
        now: u64,
        term: Term,
        voted_for: Option<RaftId>,
        snap_index: LogIndex,
        snap_term: Term,
        entries: Vec<Entry<C>>,
    ) -> Self {
        let mut node = RaftNode::new(cfg, now);
        node.term = term;
        node.voted_for = voted_for;
        if snap_index > 0 {
            node.log.reset_to(snap_index, snap_term);
            node.commit = snap_index;
            node.applied = snap_index;
        }
        for e in entries {
            node.log.push(e);
        }
        node
    }

    // ---- accessors --------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> RaftId {
        self.cfg.id
    }
    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }
    /// True if this node is the leader of its current term.
    pub fn is_leader(&self) -> bool {
        self.role.is_leader()
    }
    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }
    /// Best-known leader, if any.
    pub fn leader_hint(&self) -> Option<RaftId> {
        self.leader_id
    }
    /// The vote recorded in the current term, if any (durable state).
    pub fn voted_for(&self) -> Option<RaftId> {
        self.voted_for
    }
    /// Current commit index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit
    }
    /// Index the driver has reported applied via [`RaftNode::set_applied`].
    pub fn applied_index(&self) -> LogIndex {
        self.applied
    }
    /// Borrow the log.
    pub fn log(&self) -> &RaftLog<C> {
        &self.log
    }
    /// Mutably borrow the log. HovercRaft stamps replier fields through
    /// this; entries at or below the announced index must not be modified.
    pub fn log_mut(&mut self) -> &mut RaftLog<C> {
        &mut self.log
    }
    /// Leader-side progress for `peer` (None on non-leaders).
    pub fn progress(&self, peer: RaftId) -> Option<&Progress> {
        self.progress.get(&peer)
    }
    /// Highest index ever shipped in an AppendEntries this term.
    pub fn announced_index(&self) -> LogIndex {
        self.announced
    }
    /// Current replication ceiling.
    pub fn ceiling(&self) -> LogIndex {
        self.ceiling
    }
    /// The static configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Feeds the node's full behavioural state into `h` for model-checker
    /// fingerprinting. `now` is the owning driver's logical clock:
    /// deadlines hash as time-to-fire and contact marks as age, so states
    /// that differ only by a uniform clock shift coincide. Id-keyed
    /// collections hash as id-sorted vectors. The generator words are
    /// included — the seeded stream decides tie-breaks, so it is part of
    /// the behavioural state.
    pub fn hash_state(&self, now: u64, h: &mut dyn std::hash::Hasher)
    where
        C: std::hash::Hash,
    {
        fn opt_id(h: &mut dyn std::hash::Hasher, v: Option<RaftId>) {
            match v {
                Some(id) => {
                    h.write_u8(1);
                    h.write_u32(id);
                }
                None => h.write_u8(0),
            }
        }
        h.write_u32(self.cfg.id);
        h.write_u8(match self.role {
            Role::Follower => 0,
            Role::PreCandidate => 1,
            Role::Candidate => 2,
            Role::Leader => 3,
        });
        h.write_u64(self.term);
        opt_id(h, self.voted_for);
        opt_id(h, self.leader_id);
        h.write_u64(self.commit);
        h.write_u64(self.applied);
        h.write_u64(self.ceiling);
        h.write_u64(self.announced);
        h.write_u64(self.log.snapshot_index());
        h.write_u64(self.log.snapshot_term());
        h.write_usize(self.log.len());
        for e in self
            .log
            .range(self.log.first_index(), self.log.last_index())
        {
            // `Hash::hash` wants a sized hasher, which `&mut dyn Hasher` is.
            std::hash::Hash::hash(&e, &mut &mut *h);
        }
        let mut prog: Vec<(RaftId, Progress)> =
            self.progress.iter().map(|(&id, p)| (id, *p)).collect();
        prog.sort_by_key(|&(id, _)| id);
        h.write_usize(prog.len());
        for (id, p) in prog {
            h.write_u32(id);
            h.write_u64(p.next);
            h.write_u64(p.matched);
            h.write_u64(p.applied);
            h.write_u64(p.commit_told);
            h.write_u64(now.saturating_sub(p.last_heard));
            h.write_u8(p.pending_snapshot as u8);
        }
        h.write_usize(self.votes);
        let mut voters = self.voters.clone();
        voters.sort_unstable();
        for v in voters {
            h.write_u32(v);
        }
        h.write_u64(self.election_deadline.saturating_sub(now));
        h.write_u64(self.heartbeat_due.saturating_sub(now));
        h.write_u64(now.saturating_sub(self.last_leader_contact));
        for w in self.rng.state_words() {
            h.write_u64(w);
        }
    }

    /// Sets the replication ceiling: the leader will not ship entries above
    /// `idx`. Monotone per term; HovercRaft advances it as repliers are
    /// assigned (§3.4).
    pub fn set_ceiling(&mut self, idx: LogIndex) {
        self.ceiling = idx;
    }

    /// Driver feedback: entries up to `idx` have been applied to the local
    /// state machine. Reported to the leader in AppendEntries replies.
    pub fn set_applied(&mut self, idx: LogIndex) {
        debug_assert!(idx <= self.commit);
        self.applied = self.applied.max(idx);
    }

    /// Compacts the log up to `idx` after the driver has taken a snapshot
    /// covering it. Only applied entries may be compacted (the snapshot must
    /// actually contain their effects), so `idx` is clamped to the applied
    /// index.
    pub fn compact_to(&mut self, idx: LogIndex) {
        debug_assert!(idx <= self.applied, "compacting unapplied entries");
        self.log.compact_to(idx.min(self.applied));
    }

    /// Follower side of InstallSnapshot: the driver has fully received and
    /// restored a snapshot at (`index`, `term`). If the local log already
    /// holds a matching entry at `index` the retained suffix is kept (the
    /// log is merely compacted); otherwise the whole log is replaced by the
    /// snapshot boundary. Commit and applied jump to at least `index`. A
    /// stale snapshot (at or below the local *applied* index) is ignored —
    /// the guard is on applied, not commit, because a follower can hold
    /// committed-but-unapplied entries whose bodies were compacted away
    /// everywhere; the snapshot is exactly what unsticks it.
    pub fn install_snapshot_into(&mut self, index: LogIndex, term: Term, out: &mut Vec<Action<C>>) {
        if index <= self.applied || index <= self.log.snapshot_index() {
            return;
        }
        if self.log.term_at(index) == Some(term) {
            self.log.compact_to(index);
        } else {
            // A term mismatch below our commit index is impossible (Raft
            // safety: committed entries never diverge), so replacing the
            // log with the snapshot boundary is always safe here.
            self.log.reset_to(index, term);
        }
        self.applied = index;
        if index > self.commit {
            self.commit = index;
            out.push(Action::Commit { upto: index });
        }
    }

    /// Leader side of InstallSnapshot completion: follower `peer` reported
    /// a fully installed snapshot at `index`. Progress jumps to `index`,
    /// the pending-snapshot park is lifted, and replication resumes
    /// immediately from `index + 1`.
    pub fn on_snapshot_installed_into(
        &mut self,
        peer: RaftId,
        index: LogIndex,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        if !self.is_leader() {
            return;
        }
        let Some(p) = self.progress.get_mut(&peer) else {
            return;
        };
        p.pending_snapshot = false;
        p.last_heard = now;
        p.on_success(index, index);
        self.maybe_commit(out);
        let target = self.log.last_index().min(self.ceiling);
        self.send_append(peer, target, true, out);
    }

    /// Driver hook: a snapshot chunk arrived from *some* peer serving a
    /// transfer — not necessarily the leader (recovery is peer-served, §5).
    /// This never asserts leadership on behalf of the sender: a same-term
    /// leader receiving a chunk stays leader, and no `leader_id` hint is
    /// planted. It still suppresses elections on followers — a node
    /// mid-catch-up gets no AppendEntries (nothing can be built for it below
    /// the serving peer's horizon) and must not depose a healthy leader
    /// while the stream runs.
    pub fn note_peer_contact_into(&mut self, term: Term, now: u64, out: &mut Vec<Action<C>>) {
        if term < self.term {
            return;
        }
        if term > self.term {
            self.become_follower(term, None, now, out);
        }
        if self.role == Role::Follower {
            self.last_leader_contact = now;
            self.reset_election_deadline(now);
        }
    }

    /// Driver hook: the leader heard a current-term control message (e.g. a
    /// snapshot-chunk ack) from `peer`. Feeds check-quorum, which would
    /// otherwise depose a leader spending many election timeouts streaming
    /// a large snapshot to its only reachable follower.
    pub fn note_peer_heard(&mut self, peer: RaftId, now: u64) {
        if let Some(p) = self.progress.get_mut(&peer) {
            p.last_heard = now;
        }
    }

    /// Driver hook: `peer` has been told commit index `upto` by a channel
    /// other than this leader's own AppendEntries — HovercRaft++'s
    /// `AGG_COMMIT` multicast reaches every follower (§4). The eager
    /// commit-notify paths then skip `peer` until the commit index moves
    /// past `upto`; heartbeats and data-carrying appends still carry
    /// `leader_commit`, which is what heals a lost copy.
    pub fn note_commit_told(&mut self, peer: RaftId, upto: LogIndex) {
        if let Some(p) = self.progress.get_mut(&peer) {
            p.commit_told = p.commit_told.max(upto);
        }
    }

    /// HovercRaft++ hook (§4): a follower advances its commit index on an
    /// `AGG_COMMIT` from the in-network aggregator. The aggregator is an
    /// extension of the leader, so this is the moral equivalent of learning
    /// `leader_commit` from an AppendEntries; the caller must have verified
    /// the message's term. Only locally present entries can commit. No-op
    /// on a leader (its commit comes from quorum accounting). Like every
    /// `*_into` call, appends its actions to a caller-owned buffer, so a
    /// driver reuses one scratch `Vec` across calls.
    pub fn observe_commit_into(&mut self, upto: LogIndex, out: &mut Vec<Action<C>>) {
        if self.is_leader() {
            return;
        }
        let new = upto.min(self.log.last_index());
        if new > self.commit {
            self.commit = new;
            out.push(Action::Commit { upto: new });
        }
    }

    // ---- client interface --------------------------------------------------

    /// Appends a command to the leader's log. Returns its index; the entry
    /// is shipped by the next [`RaftNode::pump_into`] (subject to the ceiling).
    pub fn propose(&mut self, cmd: C) -> Result<LogIndex, NotLeader> {
        if !self.is_leader() {
            return Err(NotLeader {
                hint: self.leader_id,
            });
        }
        let idx = self.log.append(self.term, cmd);
        // Single-node cluster: quorum is 1, commit immediately.
        Ok(idx)
    }

    /// Ships pending entries (up to the ceiling, batched) to all followers,
    /// and on a single-node cluster advances the commit index directly.
    pub fn pump_into(&mut self, _now: u64, out: &mut Vec<Action<C>>) {
        if !self.is_leader() {
            return;
        }
        let target = self.log.last_index().min(self.ceiling);
        for i in 0..self.peer_ids.len() {
            let peer = self.peer_ids[i];
            self.send_append(peer, target, false, out);
        }
        if target > self.announced {
            self.announced = target;
        }
        if self.cfg.cluster_size() == 1 {
            self.maybe_commit(out);
        }
    }

    // ---- time --------------------------------------------------------------

    /// Drives elections and heartbeats; call at least a few times per
    /// heartbeat interval.
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<Action<C>>) {
        match self.role {
            Role::Follower | Role::PreCandidate | Role::Candidate => {
                if now >= self.election_deadline {
                    self.start_election(now, out);
                }
            }
            Role::Leader => {
                if now >= self.heartbeat_due {
                    // Check-quorum: a leader that has not heard from a
                    // quorum within an election timeout is probably on the
                    // minority side of a partition; step down so clients
                    // stop being admitted into a log that cannot commit.
                    let grace = self.cfg.election_timeout_max;
                    let heard = 1 + self
                        .progress
                        .values()
                        .filter(|p| now.saturating_sub(p.last_heard) < grace)
                        .count();
                    if heard < self.cfg.quorum() {
                        self.become_follower(self.term, None, now, out);
                        return;
                    }
                    self.heartbeat_due = now + self.cfg.heartbeat_interval;
                    let target = self.log.last_index().min(self.ceiling);
                    for i in 0..self.peer_ids.len() {
                        let peer = self.peer_ids[i];
                        self.send_append(peer, target, true, out);
                    }
                    if target > self.announced {
                        self.announced = target;
                    }
                }
            }
        }
    }

    // ---- message handling ----------------------------------------------------

    /// Processes one incoming message from `from`.
    pub fn step_into(&mut self, from: RaftId, msg: Message<C>, now: u64, out: &mut Vec<Action<C>>) {
        // Pre-Vote traffic never adjusts terms: a probe's term is
        // speculative (the sender has not actually bumped its own), so the
        // generic "higher term ⇒ become follower" rule must not see it.
        match &msg {
            Message::PreVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                self.on_pre_vote(*term, *candidate, *last_log_index, *last_log_term, now, out);
                return;
            }
            Message::PreVoteReply { term, granted } => {
                self.on_pre_vote_reply(from, *term, *granted, now, out);
                return;
            }
            _ => {}
        }
        if msg.term() > self.term {
            let leader = match &msg {
                Message::AppendEntries { leader, .. } => Some(*leader),
                _ => None,
            };
            self.become_follower(msg.term(), leader, now, out);
        }
        match msg {
            Message::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(term, candidate, last_log_index, last_log_term, now, out),
            Message::RequestVoteReply { term, granted } => {
                self.on_vote_reply(from, term, granted, now, out)
            }
            Message::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => self.on_append(
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
                now,
                out,
            ),
            Message::AppendEntriesReply {
                term,
                success,
                match_index,
                conflict_index,
                applied_index,
                from: responder,
            } => self.on_append_reply(
                responder,
                term,
                success,
                match_index,
                conflict_index,
                applied_index,
                now,
                out,
            ),
            Message::PreVote { .. } | Message::PreVoteReply { .. } => {
                unreachable!("pre-vote traffic is routed before the term check")
            }
        }
    }

    // ---- internals -------------------------------------------------------

    fn reset_election_deadline(&mut self, now: u64) {
        // A degenerate jitter window (width 1) draws nothing: the outcome
        // is forced, and skipping the draw keeps the generator stream — and
        // with it the model checker's state fingerprints — independent of
        // how many times the deadline was reset.
        let jitter = if self.cfg.election_timeout_max - self.cfg.election_timeout_min == 1 {
            self.cfg.election_timeout_min
        } else {
            self.rng
                .gen_range(self.cfg.election_timeout_min..self.cfg.election_timeout_max)
        };
        self.election_deadline = now + jitter;
    }

    fn become_follower(
        &mut self,
        term: Term,
        leader: Option<RaftId>,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        let was_leader = self.is_leader();
        let term_bumped = term > self.term;
        if term_bumped {
            self.term = term;
            self.voted_for = None;
            out.push(Action::SaveHardState {
                term: self.term,
                voted_for: self.voted_for,
            });
        }
        self.role = Role::Follower;
        self.leader_id = leader;
        self.progress.clear();
        self.votes = 0;
        self.voters.clear();
        self.reset_election_deadline(now);
        if was_leader || term_bumped {
            out.push(Action::BecameFollower { term: self.term });
        }
    }

    /// Election timeout fired: probe for a Pre-Vote quorum (Ongaro's thesis
    /// §9.6; no term bump, no durable state change) and campaign only once
    /// a quorum would grant the vote, so a node returning from a partition,
    /// pause, or restart cannot depose a stable leader with an inflated term.
    fn start_election(&mut self, now: u64, out: &mut Vec<Action<C>>) {
        self.role = Role::PreCandidate;
        self.votes = 1;
        self.voters = vec![self.cfg.id];
        self.reset_election_deadline(now);
        if self.votes >= self.cfg.quorum() {
            self.campaign(now, out);
            return;
        }
        let msg = Message::PreVote {
            term: self.term + 1,
            candidate: self.cfg.id,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        for i in 0..self.peer_ids.len() {
            let peer = self.peer_ids[i];
            out.push(Action::Send {
                to: peer,
                msg: msg.clone(),
            });
        }
    }

    /// A real election: bump the term, vote for self, solicit votes.
    fn campaign(&mut self, now: u64, out: &mut Vec<Action<C>>) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.cfg.id);
        self.leader_id = None;
        self.votes = 1;
        self.voters = vec![self.cfg.id];
        self.reset_election_deadline(now);
        out.push(Action::SaveHardState {
            term: self.term,
            voted_for: self.voted_for,
        });
        if self.votes >= self.cfg.quorum() {
            self.become_leader(now, out);
            return;
        }
        let msg = Message::RequestVote {
            term: self.term,
            candidate: self.cfg.id,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        for i in 0..self.peer_ids.len() {
            let peer = self.peer_ids[i];
            out.push(Action::Send {
                to: peer,
                msg: msg.clone(),
            });
        }
    }

    /// Answers a Pre-Vote probe. Grants iff the probe's prospective term
    /// beats ours, the candidate's log is up to date, *and* we are not in
    /// live contact with a leader (leader stickiness) — a node returning
    /// from a partition or restart therefore cannot assemble a Pre-Vote
    /// quorum against a healthy leader. Grants change no state.
    fn on_pre_vote(
        &mut self,
        term: Term,
        candidate: RaftId,
        last_log_index: LogIndex,
        last_log_term: Term,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        let up_to_date = last_log_term > self.log.last_term()
            || (last_log_term == self.log.last_term() && last_log_index >= self.log.last_index());
        let in_leader_contact = self.is_leader()
            || (self.leader_id.is_some()
                && now < self.last_leader_contact + self.cfg.election_timeout_min);
        let granted = term > self.term && up_to_date && !in_leader_contact;
        out.push(Action::Send {
            to: candidate,
            msg: Message::PreVoteReply {
                term: if granted { term } else { self.term },
                granted,
            },
        });
    }

    fn on_pre_vote_reply(
        &mut self,
        from: RaftId,
        term: Term,
        granted: bool,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        if !granted {
            // A rejection carrying a newer term means we fell behind while
            // disconnected; adopt it so the next probe is meaningful.
            if term > self.term {
                self.become_follower(term, None, now, out);
            }
            return;
        }
        if self.role != Role::PreCandidate || term != self.term + 1 {
            return;
        }
        if !self.voters.contains(&from) {
            self.voters.push(from);
            self.votes += 1;
        }
        if self.votes >= self.cfg.quorum() {
            self.campaign(now, out);
        }
    }

    fn become_leader(&mut self, now: u64, out: &mut Vec<Action<C>>) {
        self.role = Role::Leader;
        self.leader_id = Some(self.cfg.id);
        self.heartbeat_due = now; // assert leadership immediately
        let last = self.log.last_index();
        self.progress = self
            .cfg
            .peers()
            .map(|p| (p, Progress::new(last, now)))
            .collect();
        // A new term starts with a fresh announcement horizon: HovercRaft
        // re-announces (and re-assigns repliers for) entries the old leader
        // had shipped but the new one has not.
        self.announced = 0;
        self.ceiling = LogIndex::MAX;
        out.push(Action::BecameLeader { term: self.term });
        if self.cfg.cluster_size() == 1 {
            self.maybe_commit(out);
        }
    }

    /// Builds and emits one AppendEntries to `peer`, shipping entries
    /// `[next, target]` (batched). When `force` is set an empty heartbeat is
    /// sent even if there is nothing new.
    fn send_append(
        &mut self,
        peer: RaftId,
        target: LogIndex,
        force: bool,
        out: &mut Vec<Action<C>>,
    ) {
        let Some(p) = self.progress.get(&peer) else {
            return;
        };
        let mut next = p.next;
        let has_new = next <= target;
        if !has_new && !force {
            return;
        }
        if has_new && next > p.matched + self.cfg.max_inflight as u64 {
            // The pipeline to this follower is full of unacked entries.
            if !force {
                return; // pump backs off; acks (or a heartbeat) resume it
            }
            // A heartbeat fired with the window still full: nothing has
            // been acked for a full heartbeat interval, so treat the
            // outstanding window as lost and retransmit from the last
            // acknowledged index. Acks are monotone, so late duplicates
            // of the original sends are harmless.
            next = p.matched + 1;
        }
        if next < self.log.first_index() {
            // The retransmit start is below the compaction horizon (e.g. a
            // peer with no acks this term resets to `matched + 1 == 1`).
            // The explicit check matters: `term_at(0)` is the sentinel
            // `Some(0)` even on a compacted log, which would otherwise let
            // this degenerate into an empty-AppendEntries loop that never
            // ships an entry and never detects the horizon. Park and ask
            // the driver to stream the snapshot instead.
            if let Some(p) = self.progress.get_mut(&peer) {
                if !p.pending_snapshot {
                    p.pending_snapshot = true;
                    out.push(Action::NeedsSnapshot { to: peer });
                }
            }
            return;
        }
        let hi = if has_new {
            target.min(next + self.cfg.max_batch as u64 - 1)
        } else {
            0
        };
        let prev = next - 1;
        let Some(prev_term) = self.log.term_at(prev) else {
            // Peer is behind the compaction horizon: no AppendEntries can
            // be built, so ask the driver to stream the snapshot. Emitted
            // once per transfer; replication to this peer parks until
            // `on_snapshot_installed_into` lifts the flag.
            if let Some(p) = self.progress.get_mut(&peer) {
                if !p.pending_snapshot {
                    p.pending_snapshot = true;
                    out.push(Action::NeedsSnapshot { to: peer });
                }
            }
            return;
        };
        let entries: Vec<Entry<C>> = if has_new {
            self.log.to_vec(next, hi)
        } else {
            Vec::new()
        };
        let n = entries.len() as u64;
        let msg = Message::AppendEntries {
            term: self.term,
            leader: self.cfg.id,
            prev_log_index: prev,
            prev_log_term: prev_term,
            entries,
            leader_commit: self.commit,
        };
        if let Some(p) = self.progress.get_mut(&peer) {
            if n > 0 {
                p.next = next + n; // optimistic pipelining
            }
            p.commit_told = p.commit_told.max(self.commit);
        }
        out.push(Action::Send { to: peer, msg });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_request_vote(
        &mut self,
        term: Term,
        candidate: RaftId,
        last_log_index: LogIndex,
        last_log_term: Term,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        let up_to_date = last_log_term > self.log.last_term()
            || (last_log_term == self.log.last_term() && last_log_index >= self.log.last_index());
        let can_vote = self.voted_for.is_none() || self.voted_for == Some(candidate);
        let granted = term == self.term && up_to_date && can_vote;
        if granted {
            self.voted_for = Some(candidate);
            self.reset_election_deadline(now);
            out.push(Action::SaveHardState {
                term: self.term,
                voted_for: self.voted_for,
            });
        }
        out.push(Action::Send {
            to: candidate,
            msg: Message::RequestVoteReply {
                term: self.term,
                granted,
            },
        });
    }

    fn on_vote_reply(
        &mut self,
        from: RaftId,
        term: Term,
        granted: bool,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        if self.role != Role::Candidate || term != self.term || !granted {
            return;
        }
        if !self.voters.contains(&from) {
            self.voters.push(from);
            self.votes += 1;
        }
        if self.votes >= self.cfg.quorum() {
            self.become_leader(now, out);
            // Announce immediately with empty appends.
            for i in 0..self.peer_ids.len() {
                let peer = self.peer_ids[i];
                self.send_append(peer, 0, true, out);
            }
            self.heartbeat_due = now + self.cfg.heartbeat_interval;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append(
        &mut self,
        term: Term,
        leader: RaftId,
        prev_log_index: LogIndex,
        prev_log_term: Term,
        entries: Vec<Entry<C>>,
        leader_commit: LogIndex,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        if term < self.term {
            out.push(Action::Send {
                to: leader,
                msg: Message::AppendEntriesReply {
                    term: self.term,
                    success: false,
                    match_index: 0,
                    conflict_index: 0,
                    applied_index: self.applied,
                    from: self.cfg.id,
                },
            });
            return;
        }
        // A valid AppendEntries from the current term's leader.
        if self.role != Role::Follower {
            self.become_follower(term, Some(leader), now, out);
        }
        self.leader_id = Some(leader);
        self.last_leader_contact = now;
        self.reset_election_deadline(now);

        // Consistency check on the previous entry.
        match self.log.term_at(prev_log_index) {
            Some(t) if t == prev_log_term => {}
            Some(_) => {
                // Conflicting term: hint the first index of that term.
                let ci = self.log.run_start(prev_log_index);
                out.push(Action::Send {
                    to: leader,
                    msg: Message::AppendEntriesReply {
                        term: self.term,
                        success: false,
                        match_index: 0,
                        conflict_index: ci,
                        applied_index: self.applied,
                        from: self.cfg.id,
                    },
                });
                return;
            }
            None => {
                out.push(Action::Send {
                    to: leader,
                    msg: Message::AppendEntriesReply {
                        term: self.term,
                        success: false,
                        match_index: 0,
                        conflict_index: self.log.last_index() + 1,
                        applied_index: self.applied,
                        from: self.cfg.id,
                    },
                });
                return;
            }
        }

        // Append, truncating conflicts.
        let mut last_new = prev_log_index;
        for e in entries {
            match self.log.term_at(e.index) {
                Some(t) if t == e.term => {
                    last_new = e.index;
                }
                Some(_) => {
                    assert!(
                        e.index > self.commit,
                        "protocol violation: truncating a committed entry"
                    );
                    self.log.truncate_from(e.index);
                    last_new = e.index;
                    self.log.push(e);
                }
                None => {
                    if e.index == self.log.last_index() + 1 {
                        last_new = e.index;
                        self.log.push(e);
                    }
                    // else: gap (stale out-of-order AE) — ignore the rest.
                }
            }
        }

        if leader_commit > self.commit {
            let new_commit = leader_commit.min(last_new);
            if new_commit > self.commit {
                self.commit = new_commit;
                out.push(Action::Commit { upto: self.commit });
            }
        }

        out.push(Action::Send {
            to: leader,
            msg: Message::AppendEntriesReply {
                term: self.term,
                success: true,
                match_index: last_new,
                conflict_index: 0,
                applied_index: self.applied,
                from: self.cfg.id,
            },
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_reply(
        &mut self,
        from: RaftId,
        term: Term,
        success: bool,
        match_index: LogIndex,
        conflict_index: LogIndex,
        applied_index: LogIndex,
        now: u64,
        out: &mut Vec<Action<C>>,
    ) {
        if !self.is_leader() || term != self.term {
            return;
        }
        let Some(p) = self.progress.get_mut(&from) else {
            return;
        };
        p.last_heard = now;
        if success {
            p.on_success(match_index, applied_index);
            self.maybe_commit(out);
            // A follower that is fully caught up on entries but was last
            // told a stale commit index would otherwise not learn the
            // commit until the next heartbeat — fatal for the latency of
            // load-balanced repliers (§3.7's 2.5-RTT path). Nudge it now.
            if let Some(p) = self.progress.get(&from) {
                let target = self.log.last_index().min(self.ceiling);
                if p.matched + 1 == p.next && p.next > target && p.commit_told < self.commit {
                    self.send_append(from, target, true, out);
                }
            }
        } else {
            p.on_conflict(conflict_index);
            // Resend immediately from the rewound position.
            let target = self.log.last_index().min(self.ceiling);
            self.send_append(from, target, true, out);
        }
    }

    /// Advances the commit index if a quorum matches, restricted to entries
    /// of the current term (Raft §5.4.2), and on advance broadcasts the new
    /// commit index eagerly.
    fn maybe_commit(&mut self, out: &mut Vec<Action<C>>) {
        let own = self.log.last_index().min(self.ceiling);
        let matches = self
            .progress
            .values()
            .map(|p| p.matched)
            .chain(std::iter::once(own));
        let candidate = quorum_index(matches, self.cfg.quorum());
        if candidate > self.commit && self.log.term_at(candidate) == Some(self.term) {
            self.commit = candidate;
            out.push(Action::Commit { upto: self.commit });
            // Tell followers about the new commit index right away (the
            // "next communication round" of Figure 2 collapsed to its
            // minimum, which gives the 2.5-RTT unloaded latency of §3.7) —
            // but only the ones with nothing in flight that have not
            // already been told it. A busy pipeline delivers the commit
            // index on its next data-carrying AppendEntries anyway, and
            // forcing empty appends at high load would double the
            // leader's packet rate; a follower the driver reported via
            // `note_commit_told` heard it from the aggregator.
            let target = self.log.last_index().min(self.ceiling);
            for i in 0..self.peer_ids.len() {
                let peer = self.peer_ids[i];
                let notify = self.progress.get(&peer).is_some_and(|p| {
                    p.matched + 1 == p.next && p.next > target && p.commit_told < self.commit
                });
                if notify {
                    self.send_append(peer, target, true, out);
                }
            }
        }
    }
}

/// The highest index held by at least `quorum` of `matches` — the
/// `quorum`-th largest value, 0 when fewer than `quorum` values exist —
/// found by counting instead of sorting, so the per-ack commit check does
/// not allocate. Quadratic in the group size, which is single digits.
pub fn quorum_index(matches: impl Iterator<Item = LogIndex> + Clone, quorum: usize) -> LogIndex {
    matches
        .clone()
        .filter(|&m| matches.clone().filter(|&x| x >= m).count() >= quorum)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: u64 = 50_000_000;

    /// Node 0 of a five-node group, elected at `T0` with entry 1 shipped to
    /// every follower and nothing acknowledged yet.
    fn leader_with_one_entry_in_flight() -> RaftNode<u64> {
        let mut n = RaftNode::new(Config::new(0, vec![0, 1, 2, 3, 4]), 0);
        let sink = &mut Vec::new();
        n.tick_into(T0, sink);
        // A quorum grants the Pre-Vote probe, then the vote itself.
        let granted = true;
        for peer in [1, 2] {
            n.step_into(peer, Message::PreVoteReply { term: 1, granted }, T0, sink);
        }
        for peer in [1, 2] {
            let vote = Message::RequestVoteReply { term: 1, granted };
            n.step_into(peer, vote, T0, sink);
        }
        assert!(n.is_leader());
        n.propose(7).unwrap();
        n.pump_into(T0, sink);
        n
    }

    fn ack(n: &mut RaftNode<u64>, from: RaftId, match_index: LogIndex) -> Vec<Action<u64>> {
        let reply = Message::AppendEntriesReply {
            term: 1,
            success: true,
            match_index,
            conflict_index: 0,
            applied_index: 0,
            from,
        };
        let mut acts = Vec::new();
        n.step_into(from, reply, T0, &mut acts);
        acts
    }

    /// `(destination, leader_commit)` of every empty AppendEntries in `acts`.
    fn empty_appends(acts: &[Action<u64>]) -> Vec<(RaftId, LogIndex)> {
        acts.iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg:
                        Message::AppendEntries {
                            entries,
                            leader_commit,
                            ..
                        },
                } if entries.is_empty() => Some((*to, *leader_commit)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn commit_advance_notifies_only_followers_not_yet_told() {
        let mut n = leader_with_one_entry_in_flight();
        n.note_commit_told(1, 1);
        assert!(ack(&mut n, 1, 1).is_empty(), "no quorum yet");
        // The quorum ack commits entry 1 with followers 1 and 2 caught up:
        // 2 has not heard the commit index, 1 has.
        let acts = ack(&mut n, 2, 1);
        assert!(acts.iter().any(|a| matches!(a, Action::Commit { upto: 1 })));
        assert_eq!(empty_appends(&acts), vec![(2, 1)]);
        // Late acks take the nudge path, under the same condition.
        n.note_commit_told(3, 1);
        assert!(ack(&mut n, 3, 1).is_empty());
        assert_eq!(empty_appends(&ack(&mut n, 4, 1)), vec![(4, 1)]);
    }

    #[test]
    fn a_told_commit_index_is_monotone_and_does_not_cover_later_commits() {
        let mut n = leader_with_one_entry_in_flight();
        n.note_commit_told(1, 1);
        n.note_commit_told(1, 0);
        assert_eq!(n.progress(1).unwrap().commit_told, 1);
        ack(&mut n, 1, 1);
        ack(&mut n, 2, 1);
        // A later commit is news again to a follower told only the old one.
        n.propose(8).unwrap();
        n.pump_into(T0, &mut Vec::new());
        assert!(ack(&mut n, 1, 2).is_empty(), "no quorum yet");
        assert_eq!(empty_appends(&ack(&mut n, 2, 2)), vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn heartbeat_carries_the_commit_to_told_followers_too() {
        let mut n = leader_with_one_entry_in_flight();
        for peer in 1..=4 {
            n.note_commit_told(peer, 1);
            ack(&mut n, peer, 1);
        }
        assert_eq!(n.commit_index(), 1);
        let mut beat = Vec::new();
        n.tick_into(T0 + n.config().heartbeat_interval, &mut beat);
        assert_eq!(empty_appends(&beat), vec![(1, 1), (2, 1), (3, 1), (4, 1)]);
    }

    #[test]
    fn quorum_index_is_the_quorum_th_largest() {
        let q = |m: &[LogIndex], k| quorum_index(m.iter().copied(), k);
        assert_eq!(q(&[5, 3, 9, 3, 7], 3), 5);
        assert_eq!(q(&[5, 3, 9, 3, 7], 1), 9);
        assert_eq!(q(&[5, 3, 9, 3, 7], 5), 3);
        assert_eq!(q(&[4, 4], 2), 4);
        assert_eq!(q(&[4], 2), 0, "fewer values than the quorum");
        assert_eq!(q(&[], 1), 0);
    }
}
