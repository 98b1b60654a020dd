//! The HovercRaft node: the SMR-aware RPC layer (§3).
//!
//! [`HcNode`] wraps a [`raft::RaftNode`] and implements every HovercRaft
//! mechanism on top of it without touching the consensus core:
//!
//! * client requests arrive over the multicast group and are parked in the
//!   unordered pool; the leader orders them by proposing metadata-only
//!   commands (§3.2);
//! * the leader stamps a designated replier into every entry before first
//!   transmission, honouring the bounded-queue invariant, and only then
//!   raises the raft replication ceiling (§3.3–3.4, §3.6);
//! * committed entries are executed in log order on the application thread;
//!   read-only entries execute only on their replier (§3.5); the replier
//!   sends the client response and a flow-control FEEDBACK;
//! * missing request bodies trigger the recovery protocol (§5);
//! * in HovercRaft++ mode, AppendEntries are routed through the in-network
//!   aggregator and `AGG_COMMIT` messages are folded back into Raft (§4).
//!
//! Like the raft layer, the node is sans-io, with one entry point:
//! [`HcNode::step`] takes an [`Input`] and returns [`Output`]s — packets
//! to transmit and work to schedule on the application thread. The driver
//! owns the clock and the wires, and says whether a step ends a batch of
//! input: new entries ship only then. [`HcNode::drain_events`] yields the
//! step's protocol events until the next step replaces them.

use std::collections::VecDeque;
use std::fmt;

use fxhash::{FxHashMap, FxHashSet};

use bytes::{BufMut, ByteArena, Bytes};
use r2p2::{body_hash, ReqId};
use raft::{Action, LogIndex, Message, RaftId, RaftLog, RaftNode, Role};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cmd::{Cmd, EntryDesc, OpKind};
use crate::config::{HcConfig, Mode};
use crate::msg::{AggStatus, WireMsg};
use crate::policy::ReplierLedger;
use crate::pool::{merge_sorted_ids, UnorderedPool};
use crate::service::Service;
use crate::trace::ProtoEvent;

/// One protocol input to [`HcNode::step`].
#[derive(Debug)]
pub enum Input {
    /// A message arrived from network address `src`.
    Message {
        /// Sender's network address.
        src: u32,
        /// The message.
        msg: WireMsg,
    },
    /// Periodic maintenance (elections, heartbeats, GC, retries); drive it
    /// a few times per Raft heartbeat interval.
    Tick,
    /// The application thread finished executing this log index.
    ExecDone(LogIndex),
}

/// An effect the driver must carry out for the node.
#[derive(Clone, Debug)]
pub enum Output {
    /// Transmit `msg` to network address `dst` (a node or group address in
    /// the deployment's address space).
    Send {
        /// Destination address.
        dst: u32,
        /// The message.
        msg: WireMsg,
    },
    /// Charge `cost_ns` to the application thread, then feed back
    /// [`Input::ExecDone`]`(index)`.
    Execute {
        /// The log entry being applied.
        index: LogIndex,
        /// Application CPU cost.
        cost_ns: u64,
    },
}

/// Counters a node keeps about its own protocol activity (inspected by
/// tests and experiments).
#[derive(Clone, Copy, Debug, Default)]
pub struct HcStats {
    /// Client requests received.
    pub requests: u64,
    /// Client responses sent by this node.
    pub responses: u64,
    /// Operations executed on the application thread.
    pub executed: u64,
    /// Read-only operations skipped because another node is the replier.
    pub ro_skipped: u64,
    /// Recovery requests sent.
    pub recoveries_sent: u64,
    /// Recovery replies served to peers.
    pub recoveries_served: u64,
    /// Entries whose apply stalled on a missing body at least once.
    pub apply_stalls: u64,
    /// Snapshots taken (state serialized + log compacted).
    pub snapshots: u64,
    /// Snapshot state transfers started toward followers (leader side).
    pub transfers: u64,
    /// Snapshot chunks sent (leader side, retransmits included).
    pub chunks_sent: u64,
    /// Snapshots fully received and installed (follower side).
    pub installs: u64,
    /// Pool entries examined by [`UnorderedPool::gc`]: the maintenance work
    /// the tick actually did (zero while nothing can expire).
    pub gc_examined: u64,
    /// Data-carrying AppendEntries this node sent as leader (one aggregator
    /// copy counts once).
    pub appends_sent: u64,
    /// Entries carried by those AppendEntries: `entries_sent /
    /// appends_sent` is the mean batch.
    pub entries_sent: u64,
    /// Ids snapshot capture passed through a comparison sort: the retained
    /// entries of each capture, never the live tombstones (the pool keeps
    /// those sorted).
    pub snapshot_ids_sorted: u64,
}

/// Durable per-node state captured across a crash–restart: what a real
/// deployment would have fsynced — the Raft hard state, the log suffix
/// above the last snapshot, the snapshot blob itself, and the incarnation
/// epoch that wrote it all.
#[derive(Clone, Debug)]
pub struct DurableState {
    /// Persisted current term.
    pub term: u64,
    /// Persisted vote in `term`.
    pub voted_for: Option<RaftId>,
    /// Snapshot boundary index (0 = no snapshot was ever taken).
    pub snap_index: LogIndex,
    /// Term of the entry at `snap_index`.
    pub snap_term: u64,
    /// Framed snapshot blob at `snap_index`: the serialized state machine
    /// ([`Service::snapshot`]) plus the dedupe ids the snapshot covers.
    pub snapshot: Bytes,
    /// Log entries above the snapshot boundary.
    pub entries: Vec<raft::Entry<Cmd>>,
    /// Incarnation epoch of the node that wrote this state.
    pub epoch: u64,
}

/// Error from [`HcNode::restore`]: the durable state belongs to a stale
/// incarnation epoch. Restoring from it would silently resurrect state a
/// later incarnation has already superseded, so the restore is refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestoreRejected {
    /// Epoch the offered durable state was written by.
    pub from_epoch: u64,
    /// The incarnation epoch the restore was attempted for.
    pub new_epoch: u64,
}

impl RestoreRejected {
    /// The traced form of this rejection, for drivers to record.
    pub fn event(&self) -> ProtoEvent {
        ProtoEvent::RestoreRejected {
            from_epoch: self.from_epoch,
            new_epoch: self.new_epoch,
        }
    }
}

impl fmt::Display for RestoreRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restore rejected: durable state from epoch {} cannot start incarnation {}",
            self.from_epoch, self.new_epoch
        )
    }
}
impl std::error::Error for RestoreRejected {}

/// A serialized state-machine snapshot held in memory. `data` is the framed
/// blob produced by [`encode_snapshot_blob`] — the service state plus the
/// dedupe-id set covering everything ordered at or below `index` — and is
/// what gets chunked over the wire and persisted in [`DurableState`].
#[derive(Clone)]
struct Snapshot {
    index: LogIndex,
    term: u64,
    data: Bytes,
}

/// Frames a snapshot blob: `[service_len][service][n_ids][packed ids…]`,
/// all integers u64 little-endian. The id set travels *inside* the snapshot
/// because it is exactly the state an installer cannot reconstruct: ids of
/// entries it never received leave no tombstone when its own log compacts,
/// so a covered request parked in its unordered pool would be re-proposed
/// — and re-executed — by a later leader election (§5's new-leader backlog
/// flush), violating exactly-one-reply. The set is bounded: tombstones
/// expire on the pool GC boundary, so it holds at most one GC window of
/// ids plus the entries of the snapshot interval being compacted. `ids`
/// must be sorted and duplicate-free.
fn encode_snapshot_blob(service: Bytes, ids: &[ReqId]) -> Bytes {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted, unique");
    Bytes::build(16 + service.len() + 8 * ids.len(), |mut buf| {
        buf.put_slice(&(service.len() as u64).to_le_bytes());
        buf.put_slice(&service);
        buf.put_slice(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            buf.put_slice(&id.as_u64().to_le_bytes());
        }
    })
}

/// Inverse of [`encode_snapshot_blob`]; `None` when `data` does not
/// frame (truncated, trailing bytes, or not a snapshot blob at all).
fn decode_snapshot_blob(data: &Bytes) -> Option<(Bytes, Vec<ReqId>)> {
    let read_u64 = |off: usize| -> Option<u64> {
        off.checked_add(8)
            .and_then(|end| data.get(off..end))
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    };
    let service_len = read_u64(0)? as usize;
    let n_ids = read_u64(8usize.saturating_add(service_len))?;
    let tail = data.get(16usize.saturating_add(service_len)..)?;
    if tail.len() != (n_ids as usize).saturating_mul(8) {
        return None;
    }
    let service = data.slice(8..8 + service_len);
    let ids = tail
        .chunks_exact(8)
        .map(|c| ReqId::from_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
        .collect();
    Some((service, ids))
}

/// Ids of the requests `log`'s retained entries up to `upto` (inclusive)
/// name. A compaction enumerates them before the log changes, so their
/// archived bodies leave with the entries.
fn log_ids(log: &RaftLog<Cmd>, upto: LogIndex) -> impl Iterator<Item = ReqId> + '_ {
    log.range(log.first_index(), upto).map(|e| e.cmd.desc.id)
}

/// Leader side of one in-flight snapshot transfer (stop-and-wait).
#[derive(Clone)]
struct OutXfer {
    /// The snapshot being streamed (pinned for the transfer's lifetime,
    /// even if a newer snapshot is taken meanwhile — `Bytes` is refcounted).
    snap: Snapshot,
    /// Cumulatively acked byte offset; the next chunk starts here.
    acked: u64,
    /// When the last chunk was sent, for retransmit.
    last_sent: u64,
}

/// Follower side of one in-flight snapshot transfer.
#[derive(Clone)]
struct InXfer {
    snap_index: LogIndex,
    snap_term: u64,
    total: u64,
    buf: Vec<u8>,
    /// When the reassembly buffer last grew; a stream that stalls for a
    /// full retry interval loses the buffer to a competing transfer.
    last_progress: u64,
}

#[derive(Clone)]
struct PendingReply {
    id: ReqId,
    reply: Option<Bytes>,
    respond: bool,
}

/// A full HovercRaft (or VanillaRaft) server node. `Clone` (for `S:
/// Clone` services) supports explicit-state model checking, which snapshots
/// and branches whole system states.
#[derive(Clone)]
pub struct HcNode<S> {
    cfg: HcConfig,
    raft: RaftNode<Cmd>,
    pool: UnorderedPool,
    ledger: ReplierLedger,
    service: S,
    rng: SmallRng,
    /// Next log index to hand to the application thread.
    next_apply: LogIndex,
    /// Last log index whose execution completed.
    applied: LogIndex,
    /// Reply duty of each entry handed to the application thread and not
    /// yet completed, in log order: the front is entry `applied + 1`.
    pending: VecDeque<PendingReply>,
    /// HovercRaft++ leader: followers being repaired over direct
    /// point-to-point AppendEntries after a failed append (§5).
    recovering: FxHashSet<RaftId>,
    /// HovercRaft++ leader: the aggregator answered our VoteProbe.
    agg_confirmed: bool,
    /// HovercRaft++ follower: the last AppendEntries arrived via the
    /// aggregator, so successful replies retrace that path.
    last_ae_via_agg: bool,
    stats: HcStats,
    /// Protocol events of the current step (cleared when the next begins).
    events: Vec<ProtoEvent>,
    /// Term of the last election we recorded a trace event for (dedupes the
    /// per-peer RequestVote fan-out into one event).
    last_election_term: u64,
    /// Term of the last Pre-Vote probe we recorded a trace event for
    /// (dedupes the per-peer PreVote fan-out, like `last_election_term`).
    last_prevote_term: u64,
    /// Leader only: members currently considered stalled by the replier
    /// selector (tracked to emit one transition event per episode).
    stalled_members: FxHashSet<RaftId>,
    /// The most recent snapshot taken or installed by this node (serves
    /// restarts and outbound transfers).
    last_snapshot: Option<Snapshot>,
    /// A snapshot captured at issue time (the service has executed exactly
    /// the entries up to its index) but not yet publishable: it becomes
    /// [`Self::last_snapshot`] once `applied` catches up to it. Capturing
    /// at the moment of issue is the only point where the serialized state
    /// corresponds to a known log index — the service runs ahead of
    /// `applied` by the depth of the app-thread pipeline.
    pending_snap: Option<Snapshot>,
    /// Leader only: in-flight outbound snapshot transfers, per follower.
    xfers: FxHashMap<RaftId, OutXfer>,
    /// Follower only: the inbound snapshot transfer being reassembled.
    /// Boxed, since only a transfer needs it: inline it costs `HcNode`
    /// 48 B, which steps `small`'s peak RSS (DESIGN.md §8).
    incoming: Option<Box<InXfer>>,
    /// Incarnation epoch: 0 for a fresh node, incremented by every
    /// successful [`HcNode::restore`]. Guards against restoring from a
    /// stale incarnation's durable state.
    epoch: u64,
    /// Reusable raft-action scratch for [`HcNode::with_raft`]: steady-state
    /// message handling produces actions without allocating a `Vec` each.
    acts: Vec<Action<Cmd>>,
    /// Reusable AppendEntries scratch for [`HcNode::drain`], kept like
    /// `acts`, so a leader's drain does not allocate one per call.
    appends: Vec<(RaftId, Message<Cmd>)>,
}

impl<S: Service> HcNode<S> {
    /// Creates a node. `now` seeds the election timer of the underlying
    /// Raft instance.
    ///
    /// # Panics
    ///
    /// When `cfg.agg_addr` is set for any mode but HovercRaft++, or unset
    /// for HovercRaft++ (which would otherwise run as plain HovercRaft).
    pub fn new(cfg: HcConfig, service: S, now: u64) -> Self {
        assert_eq!(
            cfg.mode == Mode::HovercraftPp,
            cfg.agg_addr.is_some(),
            "an aggregator address is set exactly for HovercRaft++ ({:?})",
            cfg.mode
        );
        let raft = RaftNode::new(cfg.raft.clone(), now);
        let rng = SmallRng::seed_from_u64(cfg.raft.seed ^ 0x486f_7665_7263_5261);
        HcNode {
            cfg,
            raft,
            pool: UnorderedPool::new(),
            ledger: ReplierLedger::new(),
            service,
            rng,
            next_apply: 1,
            applied: 0,
            pending: VecDeque::new(),
            recovering: FxHashSet::default(),
            agg_confirmed: false,
            last_ae_via_agg: false,
            stats: HcStats::default(),
            events: Vec::new(),
            last_election_term: 0,
            last_prevote_term: 0,
            stalled_members: FxHashSet::default(),
            last_snapshot: None,
            pending_snap: None,
            xfers: FxHashMap::default(),
            incoming: None,
            epoch: 0,
            acts: Vec::new(),
            appends: Vec::new(),
        }
    }

    /// Captures the durable state a crash–restart would recover from: Raft
    /// hard state, the log suffix above the snapshot boundary, the snapshot
    /// blob, and this incarnation's epoch.
    pub fn durable_state(&self) -> DurableState {
        let log = self.raft.log();
        DurableState {
            term: self.raft.term(),
            voted_for: self.raft.voted_for(),
            snap_index: log.snapshot_index(),
            snap_term: log.snapshot_term(),
            snapshot: self
                .last_snapshot
                .as_ref()
                .map(|s| s.data.clone())
                .unwrap_or_default(),
            entries: log.to_vec(log.first_index(), log.last_index()),
            epoch: self.epoch,
        }
    }

    /// Feeds the node's full protocol state into `h` for model-checker
    /// state fingerprints. Conventions: id-keyed maps are hashed as
    /// vectors sorted by the key, timestamps are hashed relative to `now`,
    /// and the rng's raw state words are included (the seeded stream is
    /// part of the deterministic system definition). Excluded as trace/observability-only: `stats`,
    /// `events`, `last_election_term`, `last_prevote_term`,
    /// `stalled_members`; `cfg` is static per model scope.
    pub fn hash_state(&self, now: u64, h: &mut dyn std::hash::Hasher) {
        self.raft.hash_state(now, h);
        self.pool.hash_state(now, h);
        self.ledger.hash_state(now, h);
        let snap = self.service.snapshot();
        h.write_usize(snap.len());
        h.write(&snap);
        for w in self.rng.state_words() {
            h.write_u64(w);
        }
        h.write_u64(self.next_apply);
        h.write_u64(self.applied);
        h.write_usize(self.pending.len());
        for (idx, p) in (self.applied + 1..).zip(&self.pending) {
            h.write_u64(idx);
            h.write_u64(p.id.as_u64());
            h.write_u8(p.reply.is_some() as u8);
            h.write(p.reply.as_deref().unwrap_or_default());
            h.write_u8(p.respond as u8);
        }
        let mut rec: Vec<RaftId> = self.recovering.iter().copied().collect();
        rec.sort_unstable();
        h.write_usize(rec.len());
        for n in rec {
            h.write_u32(n);
        }
        h.write_u8(self.agg_confirmed as u8);
        h.write_u8(self.last_ae_via_agg as u8);
        let hash_snap = |h: &mut dyn std::hash::Hasher, s: &Option<Snapshot>| match s {
            Some(s) => {
                h.write_u8(1);
                h.write_u64(s.index);
                h.write_u64(s.term);
                h.write(&s.data);
            }
            None => h.write_u8(0),
        };
        hash_snap(h, &self.last_snapshot);
        hash_snap(h, &self.pending_snap);
        let mut xf: Vec<(RaftId, &OutXfer)> = self.xfers.iter().map(|(&n, x)| (n, x)).collect();
        xf.sort_unstable_by_key(|&(n, _)| n);
        h.write_usize(xf.len());
        for (n, x) in xf {
            h.write_u32(n);
            h.write_u64(x.snap.index);
            h.write_u64(x.snap.term);
            h.write_u64(x.acked);
            h.write_u64(now.saturating_sub(x.last_sent));
        }
        match &self.incoming {
            Some(x) => {
                h.write_u8(1);
                h.write_u64(x.snap_index);
                h.write_u64(x.snap_term);
                h.write_u64(x.total);
                h.write(&x.buf);
                h.write_u64(now.saturating_sub(x.last_progress));
            }
            None => h.write_u8(0),
        }
        h.write_u64(self.epoch);
    }

    /// Rebuilds a node after a crash–restart from its durable state.
    /// The state machine resumes from the snapshot (if any) and committed
    /// entries above it re-execute; everything volatile — the unordered
    /// pool, the replier ledger, the commit index — comes back empty, and
    /// bodies lost with the old pool are re-fetched through the recovery
    /// protocol (§5). The pool learns that the restored entries' ids are
    /// ordered, so a client retry of one is never parked and re-proposed.
    ///
    /// `new_epoch` must be exactly `durable.epoch + 1`: each restart is one
    /// incarnation, and restoring from any other epoch's state (a stale
    /// copy from two crashes ago, or a future epoch that cannot exist)
    /// is rejected with [`RestoreRejected`] instead of silently
    /// reinitializing. Drivers should trace [`RestoreRejected::event`].
    pub fn restore(
        cfg: HcConfig,
        service: S,
        now: u64,
        durable: DurableState,
        new_epoch: u64,
    ) -> Result<Self, RestoreRejected> {
        if new_epoch != durable.epoch + 1 {
            return Err(RestoreRejected {
                from_epoch: durable.epoch,
                new_epoch,
            });
        }
        let mut node = HcNode::new(cfg, service, now);
        node.epoch = new_epoch;
        node.raft = RaftNode::restore(
            node.cfg.raft.clone(),
            now,
            durable.term,
            durable.voted_for,
            durable.snap_index,
            durable.snap_term,
            durable.entries,
        );
        if durable.snap_index > 0 {
            let (service_blob, covered) = decode_snapshot_blob(&durable.snapshot)
                .expect("a node's own snapshot blob is framed");
            node.service.restore(&service_blob);
            // Re-seed the snapshot's dedupe tombstones into the fresh pool:
            // late duplicates of covered requests may still be in flight
            // and must not be re-ordered by this incarnation.
            node.pool.seed_tombstones(&covered, now);
            node.applied = durable.snap_index;
            node.next_apply = durable.snap_index + 1;
            node.last_snapshot = Some(Snapshot {
                index: durable.snap_index,
                term: durable.snap_term,
                data: durable.snapshot,
            });
        }
        node.pool
            .restore_ordered(log_ids(node.raft.log(), LogIndex::MAX));
        Ok(node)
    }

    /// Traces one AppendEntries leaving this node and counts it if it
    /// carries entries.
    fn note_append_sent(&mut self, dst: u32, entries: u64, commit: LogIndex) {
        if entries > 0 {
            self.stats.appends_sent += 1;
            self.stats.entries_sent += entries;
        }
        self.events.push(ProtoEvent::AppendSent {
            dst,
            entries,
            commit,
        });
    }

    // ---- accessors ---------------------------------------------------------

    /// This node's id (== its unicast network address).
    pub fn id(&self) -> RaftId {
        self.raft.id()
    }
    /// True if this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.raft.is_leader()
    }
    /// Current role.
    pub fn role(&self) -> Role {
        self.raft.role()
    }
    /// The underlying Raft instance (read-only).
    pub fn raft(&self) -> &RaftNode<Cmd> {
        &self.raft
    }
    /// Index of the last operation whose execution completed locally.
    pub fn applied_index(&self) -> LogIndex {
        self.applied
    }
    /// Protocol activity counters.
    pub fn stats(&self) -> HcStats {
        self.stats
    }
    /// The node's configuration.
    pub fn config(&self) -> &HcConfig {
        &self.cfg
    }
    /// The application service (e.g. to inspect state in tests).
    pub fn service(&self) -> &S {
        &self.service
    }
    /// Mutable access to the application service.
    pub fn service_mut(&mut self) -> &mut S {
        &mut self.service
    }
    /// Whether the aggregator is confirmed live for this term (HC++).
    pub fn aggregator_confirmed(&self) -> bool {
        self.agg_confirmed
    }
    /// This node's incarnation epoch (0 = never restarted).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
    /// Index covered by the last snapshot taken or installed (0 = none).
    pub fn snapshot_index(&self) -> LogIndex {
        self.last_snapshot.as_ref().map_or(0, |s| s.index)
    }
    /// The unordered pool (read-only; tests and figures inspect retained
    /// bodies and tombstones to chart the dual compaction schedule).
    pub fn pool(&self) -> &UnorderedPool {
        &self.pool
    }
    /// Outstanding replier-queue depth for `node` (leader only; §3.6).
    pub fn queue_depth(&self, node: RaftId) -> usize {
        self.ledger.depth(node)
    }
    /// Takes the protocol events of the last [`HcNode::step`], oldest
    /// first, without allocating. Drivers that trace consume this after
    /// every step: the next step discards whatever is left undrained.
    pub fn drain_events(&mut self) -> impl Iterator<Item = ProtoEvent> + '_ {
        self.events.drain(..)
    }
    /// Mutable access to the underlying Raft instance.
    ///
    /// This exists for fault-injection and invariant-checker meta-tests
    /// (e.g. corrupting a replier field to prove the checker fires); the
    /// protocol itself never needs it.
    #[doc(hidden)]
    pub fn raft_mut(&mut self) -> &mut RaftNode<Cmd> {
        &mut self.raft
    }
    /// Mutable access to the replier ledger — test support, like
    /// [`HcNode::raft_mut`].
    #[doc(hidden)]
    pub fn ledger_mut(&mut self) -> &mut ReplierLedger {
        &mut self.ledger
    }

    // ---- the entry point -----------------------------------------------------

    /// Feeds one input to the node at time `now`, appending the effects to
    /// `out` (caller-owned scratch, reused so the steady state never
    /// allocates). Set `batch_ends` when no input is queued behind this one
    /// (a simulated node: its RX ring is empty); only then do new entries
    /// leave the leader, so under load one AppendEntries per follower
    /// carries a whole batch. A driver without an input queue always sets it.
    pub fn step(
        &mut self,
        now: u64,
        input: Input,
        batch_ends: bool,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        self.events.clear();
        match input {
            Input::Message { src, msg } => self.on_message(src, msg, now, out, arena),
            Input::Tick => self.tick(now, out, arena),
            Input::ExecDone(index) => self.on_exec_done(index, now, out),
        }
        if batch_ends {
            self.flush(now, out, arena);
        }
        debug_assert_eq!(
            self.last_snapshot.is_some(),
            self.raft.log().snapshot_index() > 0,
            "a node holds a snapshot exactly when its log is compacted"
        );
    }

    /// Handles one incoming message; `src` is the sender's network address.
    fn on_message(
        &mut self,
        src: u32,
        msg: WireMsg,
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        match msg {
            WireMsg::Request { id, kind, body } => {
                self.on_request(id, kind, body, now, out);
            }
            WireMsg::Raft(m) => self.on_raft(src, m, now, out, arena),
            WireMsg::RecoveryReq { id } => {
                if let Some(body) = self.pool.get(id).cloned() {
                    self.stats.recoveries_served += 1;
                    self.events.push(ProtoEvent::RecoveryServed { id, to: src });
                    out.push(Output::Send {
                        dst: src,
                        msg: WireMsg::RecoveryRep { id, body },
                    });
                } else if self.last_snapshot.is_some()
                    && src != self.id()
                    && self.cfg.raft.members.contains(&src)
                {
                    // The body is gone — compacted below the snapshot
                    // horizon (everywhere, if it is gone here). Per-request
                    // recovery can never serve this requester again; stream
                    // the snapshot instead, which jumps it past the horizon
                    // entirely. Any replica can serve this (§5): snapshots
                    // are taken at identical indexes from an identical
                    // deterministic apply sequence, so a follower's snapshot
                    // is as good as the leader's — and the requester may
                    // *be* the leader (a rejoined node can win an election
                    // on log completeness while still missing compacted
                    // bodies; only its peers can heal it). A requester that
                    // turns out to be already caught up acks the transfer
                    // complete immediately.
                    self.ensure_transfer(src, now, out);
                }
            }
            WireMsg::RecoveryRep { id, body } => {
                if self.pool.insert_recovered(id, body) {
                    self.events.push(ProtoEvent::RecoveryCompleted { id });
                }
                self.try_apply(now, out, arena);
            }
            WireMsg::AggCommit {
                term,
                commit,
                status,
            } => self.on_agg_commit(term, commit, &status, now, out, arena),
            WireMsg::VoteProbeRep { term } => {
                if self.is_leader() && term == self.raft.term() {
                    self.agg_confirmed = true;
                }
            }
            WireMsg::SnapChunk {
                term,
                from,
                snap_index,
                snap_term,
                offset,
                total,
                data,
            } => {
                self.on_snap_chunk(
                    term, from, snap_index, snap_term, offset, total, data, now, out, arena,
                );
            }
            WireMsg::SnapAck {
                term,
                snap_index,
                next_offset,
                from,
            } => {
                self.on_snap_ack(term, snap_index, next_offset, from, now, out, arena);
            }
            // Servers are not the audience for these.
            WireMsg::Response { .. }
            | WireMsg::Nack { .. }
            | WireMsg::Feedback
            | WireMsg::VoteProbe { .. } => {}
        }
    }

    /// Periodic maintenance ([`Input::Tick`]).
    fn tick(&mut self, now: u64, out: &mut Vec<Output>, arena: &mut ByteArena) {
        self.with_raft(|r, a| r.tick_into(now, a), now, out, arena);
        self.stats.gc_examined += self.pool.gc(now, self.cfg.gc_timeout_ns).1 as u64;
        self.retry_recoveries(now, out);
        self.retry_transfers(now, out);
        // An inbound transfer overtaken by ordinary replication (we applied
        // past its horizon) will never install; drop the buffer.
        self.incoming.take_if(|x| x.snap_index <= self.applied);
        self.try_announce(now);
    }

    /// The application thread finished executing entry `index`.
    fn on_exec_done(&mut self, index: LogIndex, now: u64, out: &mut Vec<Output>) {
        if index <= self.applied {
            // A snapshot install jumped the applied cursor past this
            // execution while it sat on the app thread. Its effects are
            // subsumed by the restored snapshot and its reply duty was
            // voided by the install; completing it must not regress
            // `applied` (or re-answer).
            return;
        }
        debug_assert_eq!(index, self.applied + 1, "app thread must be FIFO");
        self.applied = index;
        self.raft.set_applied(index);
        if self.is_leader() {
            self.ledger.observe_applied(self.id(), index);
            self.try_announce(now);
        }
        if let Some(p) = self.pending.pop_front() {
            if p.respond {
                self.stats.responses += 1;
                self.events.push(ProtoEvent::ReplySent {
                    index,
                    id: p.id,
                    to: p.id.src_ip,
                });
                out.push(Output::Send {
                    dst: p.id.src_ip,
                    msg: WireMsg::Response {
                        id: p.id,
                        body: p.reply.unwrap_or_default(),
                    },
                });
                if let Some(fc) = self.cfg.flowctl_addr {
                    self.events.push(ProtoEvent::FeedbackSent { index });
                    out.push(Output::Send {
                        dst: fc,
                        msg: WireMsg::Feedback,
                    });
                }
            }
        }
        self.maybe_snapshot(now);
    }

    /// Ships every announced entry not yet sent to each follower whose
    /// in-flight window is open, at the end of a batch (see
    /// [`HcNode::step`]). A no-op on followers and when nothing new is
    /// shippable.
    fn flush(&mut self, now: u64, out: &mut Vec<Output>, arena: &mut ByteArena) {
        // One pump ships at most `max_batch` entries per follower; repeat
        // until a pump sends nothing.
        loop {
            let sent = self.stats.appends_sent;
            self.with_raft(|r, a| r.pump_into(now, a), now, out, arena);
            if self.stats.appends_sent == sent {
                return;
            }
        }
    }

    // ---- client requests ---------------------------------------------------

    fn on_request(
        &mut self,
        id: ReqId,
        kind: OpKind,
        body: Bytes,
        now: u64,
        out: &mut Vec<Output>,
    ) {
        self.stats.requests += 1;
        match self.cfg.mode {
            Mode::Vanilla => {
                if !self.is_leader() {
                    // Clients are expected to target the leader; NACK so the
                    // client can rediscover it.
                    self.events.push(ProtoEvent::NackSent { id });
                    out.push(Output::Send {
                        dst: id.src_ip,
                        msg: WireMsg::Nack { id },
                    });
                    return;
                }
                // Client retransmissions must not be ordered twice; the
                // pool doubles as the leader's dedupe set in this mode.
                if self.pool.is_ordered(id) {
                    return;
                }
                let mut desc = EntryDesc::new(id, body_hash(&body), kind);
                // Vanilla Raft: the leader answers everything.
                desc.replier = Some(self.id());
                if let Ok(index) = self.raft.propose(Cmd::full(desc, body.clone())) {
                    self.events.push(ProtoEvent::Proposed { index, id });
                    self.pool.insert(id, kind, body, now);
                    self.pool.mark_ordered(id);
                }
            }
            Mode::Hovercraft | Mode::HovercraftPp => {
                let leader = self.is_leader();
                // Every node parks the multicast request. Duplicate
                // suppression: a request already bound to a log slot here
                // is not parked again.
                let Some(parked) = self.pool.insert(id, kind, body, now) else {
                    return;
                };
                // Only the leader orders it, so only the leader pays for the
                // hashing pass over the body (the hash exists to go into the
                // `EntryDesc`).
                if leader {
                    let hash = body_hash(&parked.body);
                    let desc = EntryDesc::new(id, hash, kind);
                    if let Ok(index) = self.raft.propose(Cmd::meta(desc)) {
                        self.events.push(ProtoEvent::Proposed { index, id });
                        self.pool.mark_ordered(id);
                        self.try_announce(now);
                    }
                }
            }
        }
    }

    // ---- raft plumbing ------------------------------------------------------

    fn on_raft(
        &mut self,
        src: u32,
        m: Message<Cmd>,
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        // Guard: ignore echoes of our own AppendEntries (safety against any
        // reflected copy of a message we originated).
        if let Message::AppendEntries { leader, .. } = &m {
            if *leader == self.id() {
                return;
            }
            // Remember the fan-out path so successful replies retrace it
            // (aggregator vs direct, §4).
            self.last_ae_via_agg = Some(src) == self.cfg.agg_addr;
        }
        // Follower side, HovercRaft modes: entries are metadata-only; check
        // body availability and fire recovery for gaps (§3.2/§5).
        if self.cfg.mode.is_hovercraft() {
            if let Message::AppendEntries {
                entries, leader, ..
            } = &m
            {
                for e in entries {
                    let id = e.cmd.desc.id;
                    if self.pool.bind(id, now) {
                        self.stats.recoveries_sent += 1;
                        self.events
                            .push(ProtoEvent::RecoveryRequested { id, to: *leader });
                        out.push(Output::Send {
                            dst: *leader,
                            msg: WireMsg::RecoveryReq { id },
                        });
                    }
                }
            }
        }
        // Leader side: fold the applied index and recovery bookkeeping out
        // of replies before the core consumes them.
        if let Message::AppendEntriesReply {
            success,
            match_index,
            applied_index,
            from,
            term,
            ..
        } = &m
        {
            if self.is_leader() && *term == self.raft.term() {
                self.ledger.observe_applied(*from, *applied_index);
                self.ledger.note_heard(*from, now);
                self.events.push(ProtoEvent::AppendAcked {
                    from: *from,
                    success: *success,
                    match_index: *match_index,
                });
                if self.cfg.mode == Mode::HovercraftPp {
                    if !*success {
                        self.recovering.insert(*from);
                    } else if *match_index >= self.raft.announced_index() {
                        self.recovering.remove(from);
                    }
                }
            }
        }
        let from = Self::raft_peer_of(src, &m);
        self.with_raft(|r, a| r.step_into(from, m, now, a), now, out, arena);
        self.try_announce(now);
    }

    /// The Raft-level peer a message is from. Replies carry an explicit
    /// `from` (they may arrive via the aggregator); requests are attributed
    /// to their protocol-level originator.
    fn raft_peer_of(src: u32, m: &Message<Cmd>) -> RaftId {
        match m {
            Message::AppendEntriesReply { from, .. } => *from,
            Message::AppendEntries { leader, .. } => *leader,
            Message::RequestVote { candidate, .. } => *candidate,
            Message::PreVote { candidate, .. } => *candidate,
            Message::RequestVoteReply { .. } | Message::PreVoteReply { .. } => src,
        }
    }

    fn on_agg_commit(
        &mut self,
        term: u64,
        commit: LogIndex,
        status: &[AggStatus],
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        if term != self.raft.term() {
            return;
        }
        if self.is_leader() {
            // This multicast *is* the commit notification (§4, Table 1): it
            // carried `commit` to every follower, and a follower commits
            // what it holds of it — at least up to its register. Record
            // that first, so the commit advance below finds nobody left to
            // tell; re-announcing through the aggregator would cost a
            // fan-out and an AGG_COMMIT echo per round. A lost copy heals
            // on the next data-carrying AppendEntries or the heartbeat, and
            // a follower under point-to-point repair, whose register is
            // stale, keeps its eager nudge.
            for s in status {
                self.raft
                    .note_commit_told(s.node, commit.min(s.match_index));
            }
            // Fold the register snapshot back into Raft as the per-follower
            // replies the aggregator absorbed (§6.4: the aggregator is part
            // of the leader; this reconstruction costs no wire messages).
            for s in status {
                self.ledger.observe_applied(s.node, s.applied_index);
                self.ledger.note_heard(s.node, now);
                self.events.push(ProtoEvent::AppendAcked {
                    from: s.node,
                    success: true,
                    match_index: s.match_index,
                });
                let synthetic: Message<Cmd> = Message::AppendEntriesReply {
                    term,
                    success: true,
                    match_index: s.match_index,
                    conflict_index: 0,
                    applied_index: s.applied_index,
                    from: s.node,
                };
                self.with_raft(
                    |r, a| r.step_into(s.node, synthetic, now, a),
                    now,
                    out,
                    arena,
                );
            }
            self.try_announce(now);
        } else {
            self.with_raft(|r, a| r.observe_commit_into(commit, a), now, out, arena);
        }
    }

    /// Runs `f` against the raft core with the node's reusable action
    /// scratch, then drains the produced actions, so steady state never
    /// allocates here. (A re-entrant call would see an empty buffer via
    /// `std::mem::take` and fall back to a fresh allocation.)
    fn with_raft(
        &mut self,
        f: impl FnOnce(&mut RaftNode<Cmd>, &mut Vec<Action<Cmd>>),
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        let mut acts = std::mem::take(&mut self.acts);
        f(&mut self.raft, &mut acts);
        self.drain(&mut acts, now, out, arena);
        acts.clear();
        self.acts = acts;
    }

    /// Applies raft actions: routes sends (aggregator vs point-to-point),
    /// reacts to commits and role changes.
    fn drain(
        &mut self,
        actions: &mut Vec<Action<Cmd>>,
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        // Collect AppendEntries so HC++ can deduplicate the fan-out.
        let mut appends = std::mem::take(&mut self.appends);
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => {
                    match &msg {
                        Message::RequestVote { term, .. } if *term != self.last_election_term => {
                            // One event per election, not per solicited peer.
                            self.last_election_term = *term;
                            self.events
                                .push(ProtoEvent::ElectionStarted { term: *term });
                        }
                        Message::PreVote { term, .. } if *term != self.last_prevote_term => {
                            self.last_prevote_term = *term;
                            self.events.push(ProtoEvent::PreVoteStarted { term: *term });
                        }
                        Message::AppendEntries {
                            entries,
                            leader_commit,
                            ..
                        } if !self.use_aggregator(to) => {
                            self.note_append_sent(to, entries.len() as u64, *leader_commit);
                        }
                        _ => {}
                    }
                    match &msg {
                        Message::AppendEntries { .. } if self.use_aggregator(to) => {
                            appends.push((to, msg));
                        }
                        Message::AppendEntriesReply { success, .. }
                            if self.reply_via_aggregator(*success) =>
                        {
                            out.push(Output::Send {
                                dst: self.cfg.agg_addr.expect("checked by predicate"),
                                msg: WireMsg::Raft(msg),
                            });
                        }
                        _ => out.push(Output::Send {
                            dst: to,
                            msg: WireMsg::Raft(msg),
                        }),
                    }
                }
                Action::Commit { upto } => {
                    self.events.push(ProtoEvent::CommitAdvanced { to: upto });
                    self.try_apply(now, out, arena);
                }
                Action::BecameLeader { term } => {
                    self.events.push(ProtoEvent::BecameLeader { term });
                    self.on_became_leader(now, out);
                }
                Action::BecameFollower { term } => {
                    self.events.push(ProtoEvent::BecameFollower { term });
                    self.ledger.reset();
                    self.stalled_members.clear();
                    self.recovering.clear();
                    self.agg_confirmed = false;
                    self.xfers.clear();
                }
                Action::NeedsSnapshot { to } => {
                    self.ensure_transfer(to, now, out);
                }
                Action::SaveHardState { .. } => {}
            }
        }
        self.route_appends(&mut appends, out);
        self.appends = appends;
    }

    /// True when an AppendEntries to `to` should go through the aggregator.
    fn use_aggregator(&self, to: RaftId) -> bool {
        self.cfg.mode == Mode::HovercraftPp
            && self.agg_confirmed
            && !self.recovering.contains(&to)
            && self.commit_settled_in_term()
    }

    /// Aggregator safety gate: the device commits by counting matches and
    /// cannot see entry terms, so the leader only routes through it once its
    /// commit index points at an entry of its own term (or the log is
    /// empty). Above such a point every entry is current-term, which makes
    /// match-counting equivalent to Raft's commit rule (§5.4.2 restriction).
    fn commit_settled_in_term(&self) -> bool {
        let c = self.raft.commit_index();
        (c == 0 && self.raft.log().last_index() == 0)
            || self.raft.log().term_at(c) == Some(self.raft.term())
    }

    /// Followers return successful AppendEntries replies to whatever device
    /// fanned the request out; failures always go straight to the leader so
    /// it can repair us point-to-point (§5).
    fn reply_via_aggregator(&self, success: bool) -> bool {
        self.cfg.mode == Mode::HovercraftPp && success && self.last_ae_via_agg
    }

    /// Sends collected AppendEntries: one aggregator copy when every healthy
    /// follower would receive an identical message, individual unicasts
    /// otherwise (divergent followers fail the append and enter recovery,
    /// which is safe — appends are idempotent). Leaves `appends` empty.
    fn route_appends(&mut self, appends: &mut Vec<(RaftId, Message<Cmd>)>, out: &mut Vec<Output>) {
        if !appends.is_empty() && appends.windows(2).all(|w| w[0].1 == w[1].1) {
            appends.truncate(1);
            appends[0].0 = self.cfg.agg_addr.expect("HC++ mode");
        }
        for (to, msg) in appends.drain(..) {
            if let Message::AppendEntries {
                entries,
                leader_commit,
                ..
            } = &msg
            {
                self.note_append_sent(to, entries.len() as u64, *leader_commit);
            }
            out.push(Output::Send {
                dst: to,
                msg: WireMsg::Raft(msg),
            });
        }
    }

    fn on_became_leader(&mut self, now: u64, out: &mut Vec<Output>) {
        self.ledger.reset();
        self.stalled_members.clear();
        self.xfers.clear();
        self.incoming = None;
        // The election instant counts as hearing from everyone: stall
        // detection starts with a full timeout of grace, like check-quorum.
        for m in self.cfg.raft.members.clone() {
            self.ledger.note_heard(m, now);
        }
        self.recovering.clear();
        self.agg_confirmed = false;
        if self.cfg.mode.is_hovercraft() {
            // Entries inherited from previous terms keep their immutable
            // replier assignment; rebuild the ledger from them (§5).
            let log = self.raft.log();
            for e in log.range(self.applied + 1, log.last_index()) {
                if let Some(r) = e.cmd.desc.replier {
                    self.ledger.assign(r, e.index);
                }
            }
            // Freeze announcements at the inherited horizon; entries above
            // it (our own un-announced proposals, if any) go through
            // replier assignment first.
            self.raft.set_ceiling(self.last_assigned_index());
            // §5: requests the failed leader received but never ordered are
            // still parked in our unordered set (the multicast reached us
            // directly). Order them now, deterministically.
            for id in self.pool.unordered_ids() {
                let r = self.pool.parked(id).expect("listed id present");
                let desc = EntryDesc::new(id, body_hash(&r.body), r.kind);
                if let Ok(index) = self.raft.propose(Cmd::meta(desc)) {
                    self.events.push(ProtoEvent::Proposed { index, id });
                    self.pool.mark_ordered(id);
                }
            }
        }
        if let Some(agg) = self.cfg.agg_addr {
            out.push(Output::Send {
                dst: agg,
                msg: WireMsg::VoteProbe {
                    term: self.raft.term(),
                },
            });
        }
        self.try_announce(now);
    }

    /// Highest contiguous log index whose replier is already assigned.
    fn last_assigned_index(&self) -> LogIndex {
        let mut idx = self.raft.log().last_index();
        while idx >= self.raft.log().first_index() {
            match self.raft.log().get(idx) {
                Some(e) if e.cmd.desc.replier.is_none() => idx -= 1,
                _ => break,
            }
        }
        idx
    }

    /// §3.3–3.4: stamp repliers into fresh entries (bounded queues + policy)
    /// and raise the replication ceiling over them; the next
    /// [`HcNode::flush`] ships them. Vanilla mode has nothing to do here:
    /// its ceiling is infinite.
    fn try_announce(&mut self, now: u64) {
        if !self.is_leader() || !self.cfg.mode.is_hovercraft() {
            return;
        }
        let last = self.raft.log().last_index();
        let mut ceiling = self.raft.ceiling().min(last);
        let me = self.id();
        let only_me = [me];
        // The leader is trivially alive; never let it self-stall.
        self.ledger.note_heard(me, now);
        self.note_stall_transitions(now);
        let mut advanced = false;
        while ceiling < last {
            let idx = ceiling + 1;
            let needs_assignment = self
                .raft
                .log()
                .get(idx)
                .map(|e| e.cmd.desc.replier.is_none())
                .unwrap_or(false);
            if needs_assignment {
                let candidates: &[RaftId] = if self.cfg.lb_replies {
                    &self.cfg.raft.members
                } else {
                    &only_me
                };
                let Some(r) = self.ledger.pick(
                    candidates,
                    self.cfg.bound,
                    self.cfg.policy,
                    &mut self.rng,
                    now,
                    self.cfg.stall_timeout_ns,
                ) else {
                    break; // no eligible node: wait (§3.4 — liveness preserved)
                };
                if let Some(cmd) = self.raft.log_mut().get_mut(idx) {
                    cmd.make_mut().desc.replier = Some(r);
                }
                self.ledger.assign(r, idx);
                self.events.push(ProtoEvent::ReplierAssigned {
                    index: idx,
                    replier: r,
                });
            }
            ceiling = idx;
            advanced = true;
        }
        if advanced {
            self.raft.set_ceiling(ceiling);
            self.events.push(ProtoEvent::Announced { upto: ceiling });
        }
    }

    /// Emits one [`ProtoEvent::ReplierStalled`] / [`ProtoEvent::ReplierRecovered`]
    /// pair per stall episode by diffing the current stall verdicts against
    /// the remembered set (leader only).
    fn note_stall_transitions(&mut self, now: u64) {
        for i in 0..self.cfg.raft.members.len() {
            let m = self.cfg.raft.members[i];
            let stalled = self.ledger.is_stalled(m, now, self.cfg.stall_timeout_ns);
            if stalled && self.stalled_members.insert(m) {
                self.events.push(ProtoEvent::ReplierStalled { node: m });
            } else if !stalled && self.stalled_members.remove(&m) {
                self.events.push(ProtoEvent::ReplierRecovered { node: m });
            }
        }
    }

    // ---- apply path ---------------------------------------------------------

    /// Hands committed entries to the application thread in log order,
    /// stopping at the first entry whose body is still missing.
    fn try_apply(&mut self, now: u64, out: &mut Vec<Output>, arena: &mut ByteArena) {
        while self.next_apply <= self.raft.commit_index() {
            let idx = self.next_apply;
            let Some(entry) = self.raft.log().get(idx) else {
                break;
            };
            let desc = entry.cmd.desc;
            let body = match entry.cmd.body.clone() {
                Some(b) => b,
                None => match self.pool.ordered_body(desc.id) {
                    Some(b) => b,
                    None => {
                        // Committed but body still in flight: recovery is
                        // already running (or starts now); apply stalls.
                        self.stats.apply_stalls += 1;
                        self.request_missing_window(idx, now, out);
                        return;
                    }
                },
            };
            // Committed entries were always announced, hence assigned; fall
            // back to the leader for defence in depth.
            let replier = desc
                .replier
                .or(self.raft.leader_hint())
                .unwrap_or_else(|| self.id());
            let am_replier = replier == self.id();
            let lb_read =
                desc.kind.is_read_only() && self.cfg.lb_reads && self.cfg.mode.is_hovercraft();
            let execute = am_replier || !lb_read;
            let (reply, cost) = if execute {
                self.stats.executed += 1;
                self.events.push(ProtoEvent::Executed {
                    index: idx,
                    id: desc.id,
                });
                let r = self.service.execute(&body, desc.kind.is_read_only(), arena);
                (Some(r.reply), r.cost_ns)
            } else {
                self.stats.ro_skipped += 1;
                self.events.push(ProtoEvent::RoSkipped {
                    index: idx,
                    id: desc.id,
                });
                (None, 0)
            };
            self.pending.push_back(PendingReply {
                id: desc.id,
                reply,
                respond: am_replier && execute,
            });
            out.push(Output::Execute {
                index: idx,
                cost_ns: cost,
            });
            self.next_apply += 1;
            // Capture the snapshot blob *here*, where the service state is
            // exactly the prefix through `idx`; it is published once the
            // app thread completes `idx` (see `maybe_snapshot`). If applied
            // lags more than a full interval, the unpublished capture is
            // superseded in place.
            let interval = self.cfg.snapshot_interval;
            if interval > 0
                && idx >= self.raft.log().snapshot_index() + interval
                && self
                    .pending_snap
                    .as_ref()
                    .is_none_or(|p| idx >= p.index + interval)
            {
                if let Some(term) = self.raft.log().term_at(idx) {
                    let ids = self.covered_ids(idx);
                    self.pending_snap = Some(Snapshot {
                        index: idx,
                        term,
                        data: encode_snapshot_blob(self.service.snapshot(), &ids),
                    });
                }
            }
        }
    }

    /// §5, pipelined: when apply stalls at `from`, request the bodies of
    /// *every* committed-but-missing entry in a bounded window ahead of the
    /// cursor, not just the blocking one. A restarted follower whose pool
    /// came back empty catches up in one recovery round-trip per window
    /// instead of one per entry. The stall is traced when it starts a
    /// recovery of the blocking entry's body.
    fn request_missing_window(&mut self, from: LogIndex, now: u64, out: &mut Vec<Output>) {
        /// Entries scanned past the stalled apply cursor per invocation.
        const RECOVERY_WINDOW: u64 = 64;
        let hi = self
            .raft
            .commit_index()
            .min(from.saturating_add(RECOVERY_WINDOW - 1));
        let leader = self.raft.leader_hint().filter(|&l| l != self.id());
        let log = self.raft.log();
        for e in log.range(from, hi) {
            let id = e.cmd.desc.id;
            if e.cmd.body.is_some() || !self.pool.await_body(id, now) {
                continue;
            }
            if e.index == from {
                self.events
                    .push(ProtoEvent::ApplyStalled { index: from, id });
            }
            // Even without a known leader the id is awaited;
            // `retry_recoveries` will fan out to a random member shortly.
            if let Some(l) = leader {
                self.stats.recoveries_sent += 1;
                self.events
                    .push(ProtoEvent::RecoveryRequested { id, to: l });
                out.push(Output::Send {
                    dst: l,
                    msg: WireMsg::RecoveryReq { id },
                });
            }
        }
    }

    fn retry_recoveries(&mut self, now: u64, out: &mut Vec<Output>) {
        if self.pool.awaited_mut().len() == 0 {
            return;
        }
        let leader = self.raft.leader_hint();
        let me = self.id();
        for (&id, last) in self.pool.awaited_mut() {
            if now.saturating_sub(*last) < self.cfg.recovery_retry_ns {
                continue;
            }
            *last = now;
            // Prefer the leader; fall back to a random other member — any
            // node that saw the multicast can serve it (§5).
            let dst = match leader {
                Some(l) if l != me => l,
                _ => {
                    let members = self.cfg.raft.members.iter().copied();
                    let others: Vec<RaftId> = members.filter(|m| *m != me).collect();
                    if others.is_empty() {
                        continue;
                    }
                    others[self.rng.gen_range(0..others.len())]
                }
            };
            self.stats.recoveries_sent += 1;
            self.events
                .push(ProtoEvent::RecoveryRequested { id, to: dst });
            out.push(Output::Send {
                dst,
                msg: WireMsg::RecoveryReq { id },
            });
        }
    }

    // ---- snapshotting & state transfer (log compaction + InstallSnapshot) --

    /// The ids a snapshot at `upto` carries, sorted and duplicate-free:
    /// everything ordered at or below `upto`, that is the retained entries
    /// being compacted plus the live tombstones of earlier compactions
    /// (older ids have expired along with their duplicates). Only the
    /// retained entries are sorted here; the pool keeps its tombstones
    /// sorted, so they cost one merge.
    fn covered_ids(&mut self, upto: LogIndex) -> Vec<ReqId> {
        let mut ids: Vec<ReqId> = log_ids(self.raft.log(), upto).collect();
        self.stats.snapshot_ids_sorted += ids.len() as u64;
        ids.sort_unstable();
        ids.dedup();
        merge_sorted_ids(&mut ids, self.pool.tombstones());
        ids
    }

    /// Takes a snapshot at the configured horizon: every
    /// `snapshot_interval` applied entries (0 disables snapshotting
    /// entirely, preserving pre-snapshot behavior bit-for-bit).
    fn maybe_snapshot(&mut self, now: u64) {
        if let Some(snap) = self.pending_snap.take_if(|p| p.index <= self.applied) {
            self.commit_snapshot(snap, now);
        }
    }

    /// Publishes a snapshot whose blob is known to correspond exactly to
    /// its index: compacts the ordering log below it and drops the archived
    /// bodies the compacted entries referenced (leaving dedupe tombstones —
    /// the dual compaction schedule: bodies and ordering metadata compact
    /// independently).
    fn commit_snapshot(&mut self, snap: Snapshot, now: u64) {
        if snap.index == 0 || snap.index <= self.raft.log().snapshot_index() {
            return;
        }
        let ids: Vec<ReqId> = log_ids(self.raft.log(), snap.index).collect();
        let dropped = self.pool.compact_archive(&ids, now);
        self.raft.compact_to(snap.index);
        self.stats.snapshots += 1;
        self.events.push(ProtoEvent::SnapshotTaken {
            index: snap.index,
            bytes: snap.data.len() as u64,
        });
        if dropped > 0 {
            self.events.push(ProtoEvent::BodiesCompacted {
                upto: snap.index,
                dropped: dropped as u64,
            });
        }
        self.last_snapshot = Some(snap);
    }

    /// Starts streaming the latest snapshot to `to` unless a transfer to it
    /// is already running. Entered from [`raft::Action::NeedsSnapshot`]
    /// (leader replication fell below the compaction horizon) or from a
    /// RecoveryReq for a body that was compacted away — the latter on any
    /// replica, leader or follower (peer-served recovery, §5).
    fn ensure_transfer(&mut self, to: RaftId, now: u64, out: &mut Vec<Output>) {
        if to == self.id() || self.xfers.contains_key(&to) {
            return;
        }
        let Some(snap) = self.last_snapshot.clone() else {
            return;
        };
        self.stats.transfers += 1;
        self.events.push(ProtoEvent::TransferStarted {
            to,
            index: snap.index,
            bytes: snap.data.len() as u64,
        });
        self.xfers.insert(
            to,
            OutXfer {
                snap,
                acked: 0,
                last_sent: now,
            },
        );
        self.send_chunk(to, now, out);
    }

    /// Sends the next stop-and-wait chunk of the transfer to `to`, starting
    /// at the cumulatively acked offset.
    fn send_chunk(&mut self, to: RaftId, now: u64, out: &mut Vec<Output>) {
        let term = self.raft.term();
        let me = self.id();
        let chunk_bytes = self.cfg.snap_chunk_bytes.max(1) as u64;
        let Some(x) = self.xfers.get_mut(&to) else {
            return;
        };
        let total = x.snap.data.len() as u64;
        let offset = x.acked.min(total);
        let end = (offset + chunk_bytes).min(total);
        let data = x.snap.data.slice(offset as usize..end as usize);
        let snap_index = x.snap.index;
        let snap_term = x.snap.term;
        x.last_sent = now;
        self.stats.chunks_sent += 1;
        self.events.push(ProtoEvent::ChunkSent {
            to,
            index: snap_index,
            offset,
        });
        out.push(Output::Send {
            dst: to,
            msg: WireMsg::SnapChunk {
                term,
                from: me,
                snap_index,
                snap_term,
                offset,
                total,
                data,
            },
        });
    }

    /// Retransmits the current chunk of every transfer that has gone one
    /// recovery-retry interval without an ack (lost chunk or lost ack; also
    /// how a transfer reaches a follower that restarted mid-stream).
    fn retry_transfers(&mut self, now: u64, out: &mut Vec<Output>) {
        if self.xfers.is_empty() {
            return;
        }
        let retry = self.cfg.recovery_retry_ns.max(1);
        let mut due: Vec<RaftId> = self
            .xfers
            .iter()
            .filter(|(_, x)| now.saturating_sub(x.last_sent) >= retry)
            .map(|(&peer, _)| peer)
            .collect();
        due.sort_unstable();
        for peer in due {
            self.send_chunk(peer, now, out);
        }
    }

    /// Receiving side: one snapshot chunk arrived from a serving peer.
    /// Chunks are offset-addressed, so duplicates and reorderings are
    /// idempotent; the ack is cumulative (`next_offset` = first byte still
    /// missing). A restarted node naturally acks 0, rewinding the sender
    /// cleanly across incarnation epochs.
    #[allow(clippy::too_many_arguments)]
    fn on_snap_chunk(
        &mut self,
        term: u64,
        from: RaftId,
        snap_index: LogIndex,
        snap_term: u64,
        offset: u64,
        total: u64,
        data: Bytes,
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        if term < self.raft.term() {
            return;
        }
        // A chunk is proof of a live peer streaming to us: it must suppress
        // elections for the whole (possibly long) transfer, since no
        // AppendEntries can be built for us below the sender's compaction
        // horizon. Peer contact, not leader contact: the sender may be a
        // follower healing us (§5), and a leader receiving a chunk must not
        // depose itself.
        self.with_raft(
            |r, a| r.note_peer_contact_into(term, now, a),
            now,
            out,
            arena,
        );
        let me = self.id();
        if snap_index < self.next_apply {
            // Already at or past this horizon (e.g. a duplicate of the
            // final chunk, or replication overtook the transfer). The guard
            // is on the *issue* cursor, not `applied`: the service executes
            // entries when they are issued to the app thread, so a snapshot
            // landing below `next_apply` could only wipe effects of entries
            // already executing — the node provably holds every body up to
            // `next_apply - 1` and will apply past the horizon on its own.
            // Ack completion so the sender stops streaming.
            out.push(Output::Send {
                dst: from,
                msg: WireMsg::SnapAck {
                    term: self.raft.term(),
                    snap_index,
                    next_offset: total,
                    from: me,
                },
            });
            return;
        }
        // With several peers serving concurrently (round-robin RecoveryReqs
        // fan out), transfers at the *same* index merge idempotently below.
        // A transfer at a different index must not thrash the single
        // reassembly buffer: prefer the higher horizon, and ignore the
        // lower-index stream (unacked, it retries once per retry interval)
        // — unless the preferred stream itself has stalled for a full retry
        // interval (its server died), in which case fail over.
        let replace = match &self.incoming {
            Some(x) => {
                x.snap_index != snap_index
                    && (snap_index > x.snap_index
                        || now.saturating_sub(x.last_progress) >= self.cfg.recovery_retry_ns.max(1))
            }
            None => true,
        };
        if let Some(x) = &self.incoming {
            if !replace && x.snap_index != snap_index {
                return;
            }
        }
        if replace {
            self.incoming = Some(Box::new(InXfer {
                snap_index,
                snap_term,
                total,
                buf: Vec::with_capacity(total.min(1 << 22) as usize),
                last_progress: now,
            }));
        }
        let (mut next, complete) = {
            let x = self.incoming.as_mut().expect("ensured above");
            if offset == x.buf.len() as u64 && offset < x.total {
                let want = ((x.total - offset) as usize).min(data.len());
                x.buf.extend_from_slice(&data[..want]);
                x.last_progress = now;
            }
            let next = (x.buf.len() as u64).min(x.total);
            (next, next >= x.total)
        };
        let mut install = None;
        if complete {
            let x = *self.incoming.take().expect("present");
            let blob = Bytes::from(x.buf);
            // A blob that does not frame (corrupted or hostile stream) is
            // dropped, and the ack rewinds the sender to offset 0.
            match decode_snapshot_blob(&blob) {
                Some(decoded) => install = Some((x.snap_term, blob, decoded)),
                None => next = 0,
            }
        }
        self.events.push(ProtoEvent::ChunkAcked {
            index: snap_index,
            next,
        });
        if let Some((snap_term, blob, decoded)) = install {
            self.finish_install(snap_index, snap_term, blob, decoded, now, out, arena);
        }
        out.push(Output::Send {
            dst: from,
            msg: WireMsg::SnapAck {
                term: self.raft.term(),
                snap_index,
                next_offset: next,
                from: me,
            },
        });
    }

    /// Serving side: a cumulative transfer ack arrived.
    #[allow(clippy::too_many_arguments)]
    fn on_snap_ack(
        &mut self,
        term: u64,
        snap_index: LogIndex,
        next_offset: u64,
        from: RaftId,
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        if term != self.raft.term() {
            return;
        }
        // Acks feed check-quorum: a leader spending many election timeouts
        // streaming to its only reachable follower must not self-depose.
        // (Both calls degrade to liveness bookkeeping on a follower server.)
        self.raft.note_peer_heard(from, now);
        self.ledger.note_heard(from, now);
        let Some(x) = self.xfers.get_mut(&from) else {
            return;
        };
        if x.snap.index != snap_index {
            // Ack for a superseded transfer; the retransmit timer keeps the
            // live one moving.
            return;
        }
        let total = x.snap.data.len() as u64;
        if next_offset >= total {
            self.xfers.remove(&from);
            self.events.push(ProtoEvent::TransferDone {
                to: from,
                index: snap_index,
            });
            self.with_raft(
                |r, a| r.on_snapshot_installed_into(from, snap_index, now, a),
                now,
                out,
                arena,
            );
            self.try_announce(now);
        } else {
            // Cumulative: a lower-than-acked offset legitimately rewinds
            // the stream (the follower restarted and lost its buffer).
            x.acked = next_offset;
            self.send_chunk(from, now, out);
        }
    }

    /// Fully received a snapshot: restore the state machine, jump the Raft
    /// log/commit/applied cursors past the horizon, and drop bookkeeping
    /// for everything the snapshot covers.
    #[allow(clippy::too_many_arguments)]
    fn finish_install(
        &mut self,
        snap_index: LogIndex,
        snap_term: u64,
        data: Bytes,
        (service_blob, covered): (Bytes, Vec<ReqId>),
        now: u64,
        out: &mut Vec<Output>,
        arena: &mut ByteArena,
    ) {
        // Guard on the issue cursor, not `applied`: entries in
        // `(applied, next_apply)` have already executed against the service
        // (completion only moves the cursor), so restoring a snapshot below
        // `next_apply` would silently wipe their effects while their
        // completions still advance `applied` past the restored state.
        if snap_index < self.next_apply {
            return;
        }
        // Bodies referenced by entries the install will discard leave the
        // archive with them (enumerated before the log changes).
        let ids: Vec<ReqId> = log_ids(self.raft.log(), snap_index).collect();
        let mut dropped = self.pool.compact_archive(&ids, now);
        // The snapshot carries the ids of *every* request it covers —
        // including entries this node never received, which its own log
        // cannot enumerate. Seeding them as tombstones purges parked
        // unordered copies so a later leader election cannot re-propose
        // (and re-execute) a request the snapshot already ordered.
        dropped += self.pool.seed_tombstones(&covered, now);
        self.service.restore(&service_blob);
        // The install's actions are drained last, once the cursors below
        // have moved past the horizon.
        let mut acts = std::mem::take(&mut self.acts);
        self.raft
            .install_snapshot_into(snap_index, snap_term, &mut acts);
        // Replies for entries the install jumps over are void: their
        // repliers re-elect elsewhere, bounded by B per episode (§3.4).
        let jumped = (snap_index - self.applied) as usize;
        self.pending.drain(..jumped.min(self.pending.len()));
        self.applied = snap_index;
        self.next_apply = self.next_apply.max(snap_index + 1);
        // Any unpublished capture predates the install horizon (installs
        // are refused below `next_apply`, and captures sit below it too).
        self.pending_snap = None;
        // Outstanding body recoveries survive only if a retained log entry
        // still references them.
        self.pool
            .retain_awaited(log_ids(self.raft.log(), LogIndex::MAX));
        self.last_snapshot = Some(Snapshot {
            index: snap_index,
            term: snap_term,
            data,
        });
        self.stats.installs += 1;
        self.events.push(ProtoEvent::SnapshotInstalled {
            index: snap_index,
            term: snap_term,
        });
        if dropped > 0 {
            self.events.push(ProtoEvent::BodiesCompacted {
                upto: snap_index,
                dropped: dropped as u64,
            });
        }
        self.drain(&mut acts, now, out, arena);
        self.acts = acts;
        self.try_apply(now, out, arena);
    }
}

#[cfg(test)]
mod snapshot_blob_tests {
    use super::*;
    use crate::service::EchoService;

    #[test]
    fn blob_round_trips_service_and_ids() {
        let service = Bytes::from_static(b"state-machine-bytes");
        let ids = [ReqId::new(1, 2, 3), ReqId::new(5, 1000, 994)];
        let blob = encode_snapshot_blob(service.clone(), &ids);
        let mut framed = 19u64.to_le_bytes().to_vec();
        framed.extend_from_slice(b"state-machine-bytes");
        framed.extend_from_slice(&2u64.to_le_bytes());
        framed.extend_from_slice(&ids[0].as_u64().to_le_bytes());
        framed.extend_from_slice(&ids[1].as_u64().to_le_bytes());
        assert_eq!(&blob[..], &framed[..], "frame layout is pinned");
        let (svc, got) = decode_snapshot_blob(&blob).expect("framed");
        assert_eq!(svc, service);
        assert_eq!(got, ids);
    }

    #[test]
    fn empty_service_and_empty_ids_round_trip() {
        let blob = encode_snapshot_blob(Bytes::new(), &[]);
        let (svc, ids) = decode_snapshot_blob(&blob).expect("framed");
        assert!(svc.is_empty());
        assert!(ids.is_empty());
    }

    #[test]
    #[should_panic(expected = "aggregator address is set exactly for HovercRaft++")]
    fn hovercraft_pp_without_an_aggregator_is_rejected() {
        let cfg = HcConfig::new(raft::Config::new(0, vec![0, 1, 2]), Mode::HovercraftPp);
        HcNode::new(cfg, EchoService::default(), 0);
    }

    #[test]
    fn unframed_snapshot_from_the_wire_is_not_installed() {
        // A follower receives `abc` as a complete snapshot at index 5. The
        // blob does not frame, so the follower must not install it (an
        // empty store with `applied` at 5 would silently diverge) and must
        // ask the sender to start over from offset 0.
        let cfg = HcConfig::new(raft::Config::new(1, vec![0, 1, 2]), Mode::Hovercraft);
        let mut node = HcNode::new(cfg, EchoService::default(), 0);
        let mut arena = ByteArena::new();
        let mut out = Vec::new();
        let msg = WireMsg::SnapChunk {
            term: 1,
            from: 0,
            snap_index: 5,
            snap_term: 1,
            offset: 0,
            total: 3,
            data: Bytes::from_static(b"abc"),
        };
        node.step(
            1_000,
            Input::Message { src: 0, msg },
            true,
            &mut out,
            &mut arena,
        );
        assert_eq!(node.applied_index(), 0);
        assert_eq!(node.snapshot_index(), 0);
        let acks: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                Output::Send {
                    msg: WireMsg::SnapAck { next_offset, .. },
                    ..
                } => Some(*next_offset),
                _ => None,
            })
            .collect();
        assert_eq!(acks, [0]);
        assert!(node
            .drain_events()
            .all(|e| !matches!(e, ProtoEvent::SnapshotInstalled { .. })));
    }

    /// Steps `node` and completes every execution it issues at once and in
    /// order, as the `mc` model does.
    fn drive(node: &mut HcNode<EchoService>, now: u64, input: Input, arena: &mut ByteArena) {
        let mut out = Vec::new();
        node.step(now, input, true, &mut out, arena);
        let mut i = 0;
        while i < out.len() {
            if let Output::Execute { index, .. } = out[i] {
                node.step(now, Input::ExecDone(index), true, &mut out, arena);
            }
            i += 1;
        }
    }

    #[test]
    fn capture_sorts_each_interval_once_and_never_the_tombstones() {
        const INTERVAL: u64 = 100;
        const REQUESTS: u16 = 1_000;
        let mut cfg = HcConfig::new(raft::Config::new(0, vec![0]), Mode::Hovercraft);
        cfg.snapshot_interval = INTERVAL;
        let mut node = HcNode::new(cfg, EchoService::default(), 0);
        let mut arena = ByteArena::new();
        let mut now = 0;
        while !node.is_leader() {
            now += 250_000;
            assert!(now < 1_000_000_000, "a single node elects itself");
            drive(&mut node, now, Input::Tick, &mut arena);
        }
        for rid in 0..REQUESTS {
            now += 1_000;
            let msg = WireMsg::Request {
                id: ReqId::new(100, 1, rid),
                kind: OpKind::ReadWrite,
                body: Bytes::from_static(b"w"),
            };
            drive(&mut node, now, Input::Message { src: 100, msg }, &mut arena);
        }
        // Ten snapshots, each capture sorting only the 100 entries of its
        // interval: 1 000 ids, where sorting the tombstones as well would
        // have been 100 + 200 + … + 1 000 = 5 500.
        let stats = node.stats();
        assert_eq!(stats.snapshots, 10);
        assert_eq!(stats.snapshot_ids_sorted, 1_000);
        assert_eq!(node.pool().tombstones().len(), 1_000);
        // The last blob still carries every covered id, sorted.
        let (_, ids) = decode_snapshot_blob(&node.durable_state().snapshot).expect("framed");
        let expected: Vec<ReqId> = (0..REQUESTS).map(|rid| ReqId::new(100, 1, rid)).collect();
        assert_eq!(ids, expected);
    }

    /// Pinned regression: restoring a node from a stale incarnation epoch must
    /// be rejected with a traceable `restore_rejected` event, not silently
    /// accepted (which once produced a node whose dedup/reply state belonged
    /// to a *previous* life, double-answering after back-to-back restarts).
    #[test]
    fn restore_from_stale_epoch_is_rejected() {
        let cfg = HcConfig::new(raft::Config::new(0, vec![0, 1, 2]), Mode::Hovercraft);
        let node = HcNode::new(cfg.clone(), EchoService::default(), 0);
        assert_eq!(node.epoch(), 0, "a fresh node is incarnation 0");
        let durable = node.durable_state();

        // Same epoch as the durable state: a re-restore of the *current*
        // incarnation, rejected.
        let err = HcNode::restore(cfg.clone(), EchoService::default(), 0, durable.clone(), 0)
            .err()
            .expect("same-epoch restore must be rejected");
        assert_eq!(
            err,
            RestoreRejected {
                from_epoch: 0,
                new_epoch: 0
            }
        );
        assert_eq!(
            err.event().parts().0,
            "restore_rejected",
            "rejection carries a traceable protocol event"
        );

        // Skipping an incarnation (epoch + 2) is just as stale a handoff.
        let err = HcNode::restore(cfg.clone(), EchoService::default(), 0, durable.clone(), 2)
            .err()
            .expect("epoch-skipping restore must be rejected");
        assert_eq!(err.new_epoch, 2);

        // The one legal successor: exactly epoch + 1.
        let restored = HcNode::restore(cfg, EchoService::default(), 0, durable, 1)
            .expect("successor-epoch restore succeeds");
        assert_eq!(restored.epoch(), 1);
        let durable2 = restored.durable_state();
        assert_eq!(durable2.epoch, 1, "durable state carries the new epoch");
    }
}
