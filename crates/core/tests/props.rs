//! Property-based tests of the HovercRaft components: the in-network
//! aggregator's register semantics, the replier ledger's bounded-queue
//! invariant and the unordered pool against its reference model, under
//! arbitrary event sequences.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hasher;

use bytes::{ByteArena, Bytes};
use hovercraft::{
    Aggregator, Cmd, EchoService, EntryDesc, HcConfig, HcNode, Input, Mode, OpKind, Output,
    PolicyKind, PooledReq, ReplierLedger, UnorderedPool, WireMsg,
};
use proptest::prelude::*;
use r2p2::ReqId;
use raft::{Entry, LogIndex, Message, RaftId};

fn ae(term: u64, prev: LogIndex, n: usize) -> WireMsg {
    let entries = (0..n)
        .map(|i| Entry {
            term,
            index: prev + 1 + i as u64,
            cmd: Cmd::meta(EntryDesc::new(
                ReqId::new(1, 1, (prev as u16).wrapping_add(i as u16)),
                0,
                OpKind::ReadWrite,
            )),
        })
        .collect();
    WireMsg::Raft(Message::AppendEntries {
        term,
        leader: 0,
        prev_log_index: prev,
        prev_log_term: term,
        entries,
        leader_commit: 0,
    })
}

fn reply(term: u64, m: LogIndex, from: RaftId) -> WireMsg {
    WireMsg::Raft(Message::AppendEntriesReply {
        term,
        success: true,
        match_index: m,
        conflict_index: 0,
        applied_index: m,
        from,
    })
}

/// Reference model of [`UnorderedPool`]: the pool as it was before `gc`
/// learned to skip scans and the request path stopped re-probing — one map
/// or set per state, every method the obvious one, `gc` two unconditional
/// `retain`s. `pool_matches_reference_model` drives both with the same
/// calls.
#[derive(Default)]
struct RefPool {
    unordered: HashMap<ReqId, PooledReq>,
    archive: HashMap<ReqId, Bytes>,
    awaited: HashMap<ReqId, u64>,
    restored: HashSet<ReqId>,
    compacted: HashMap<ReqId, u64>,
}

impl RefPool {
    fn insert(&mut self, id: ReqId, kind: OpKind, body: Bytes, now: u64) {
        if self.archive.contains_key(&id) || self.compacted.contains_key(&id) {
            return;
        }
        if self.awaited.contains_key(&id) || self.restored.remove(&id) {
            self.archive.insert(id, body);
            return;
        }
        self.unordered.entry(id).or_insert(PooledReq {
            kind,
            body,
            arrived: now,
        });
    }

    fn is_ordered(&self, id: ReqId) -> bool {
        self.archive.contains_key(&id)
            || self.compacted.contains_key(&id)
            || self.awaited.contains_key(&id)
            || self.restored.contains(&id)
    }

    fn bind(&mut self, id: ReqId, now: u64) -> bool {
        if self.mark_ordered(id) || self.awaited.contains_key(&id) {
            return false;
        }
        self.restored.remove(&id);
        self.awaited.insert(id, now);
        true
    }

    /// The stalled apply's variant: a tombstone does not stop recovery.
    fn await_body(&mut self, id: ReqId, now: u64) -> bool {
        self.mark_ordered(id);
        if self.get(id).is_some() || self.awaited.contains_key(&id) {
            return false;
        }
        self.restored.remove(&id);
        self.awaited.insert(id, now);
        true
    }

    fn restore_ordered(&mut self, ids: &[ReqId]) {
        for &id in ids {
            if !self.mark_ordered(id) && !self.awaited.contains_key(&id) {
                self.restored.insert(id);
            }
        }
    }

    fn ordered_body(&mut self, id: ReqId) -> Option<Bytes> {
        self.mark_ordered(id);
        self.archive.get(&id).cloned()
    }

    fn retain_awaited(&mut self, named: &[ReqId]) {
        self.awaited.retain(|id, _| named.contains(id));
    }

    fn get(&self, id: ReqId) -> Option<&Bytes> {
        self.unordered
            .get(&id)
            .map(|r| &r.body)
            .or_else(|| self.archive.get(&id))
    }

    fn mark_ordered(&mut self, id: ReqId) -> bool {
        if self.archive.contains_key(&id) || self.compacted.contains_key(&id) {
            return true;
        }
        match self.unordered.remove(&id) {
            Some(PooledReq { body, .. }) => {
                self.archive.insert(id, body);
                true
            }
            None => false,
        }
    }

    fn insert_recovered(&mut self, id: ReqId, body: Bytes) -> bool {
        let awaited = self.awaited.remove(&id).is_some();
        self.restored.remove(&id);
        if !self.compacted.contains_key(&id) {
            self.unordered.remove(&id);
            self.archive.entry(id).or_insert(body);
        }
        awaited
    }

    fn gc(&mut self, now: u64, timeout: u64) -> usize {
        let before = self.unordered.len();
        self.unordered
            .retain(|_, r| now.saturating_sub(r.arrived) <= timeout);
        self.compacted
            .retain(|_, t| now.saturating_sub(*t) <= timeout);
        before - self.unordered.len()
    }

    fn seed_tombstones(&mut self, ids: &[ReqId], now: u64) -> usize {
        let mut dropped = 0;
        for id in ids {
            if self.unordered.remove(id).is_some() {
                dropped += 1;
            }
            if self.archive.remove(id).is_some() {
                dropped += 1;
            }
            self.restored.remove(id);
            self.compacted.entry(*id).or_insert(now);
        }
        dropped
    }

    fn compact_archive(&mut self, ids: &[ReqId], now: u64) -> usize {
        let before = self.archive.len();
        for id in ids {
            if self.archive.remove(id).is_some() {
                self.compacted.insert(*id, now);
            }
        }
        before - self.archive.len()
    }

    fn unordered_ids(&self) -> Vec<ReqId> {
        let mut ids: Vec<ReqId> = self.unordered.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn tombstone_ids(&self) -> Vec<ReqId> {
        let mut ids: Vec<ReqId> = self.compacted.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn hash_state(&self, now: u64, h: &mut dyn Hasher) {
        let mut parked: Vec<(&ReqId, &PooledReq)> = self.unordered.iter().collect();
        parked.sort_unstable_by_key(|&(id, _)| id.as_u64());
        h.write_usize(parked.len());
        for (id, r) in parked {
            h.write_u64(id.as_u64());
            h.write_u8(r.kind as u8);
            h.write(&r.body);
            h.write_u64(now.saturating_sub(r.arrived));
        }
        // An archived body carries no kind (its log entry holds it) and no
        // age (GC never expires it).
        let mut archived: Vec<(&ReqId, &Bytes)> = self.archive.iter().collect();
        archived.sort_unstable_by_key(|&(id, _)| id.as_u64());
        h.write_usize(archived.len());
        for (id, body) in archived {
            h.write_u64(id.as_u64());
            h.write(body);
        }
        let mut restored: Vec<u64> = self.restored.iter().map(|id| id.as_u64()).collect();
        restored.sort_unstable();
        h.write_usize(restored.len());
        for id in restored {
            h.write_u64(id);
        }
        // Recovery and tombstone stamps, as ages.
        for stamps in [&self.awaited, &self.compacted] {
            let mut aged: Vec<(u64, u64)> = stamps
                .iter()
                .map(|(id, &t)| (id.as_u64(), now.saturating_sub(t)))
                .collect();
            aged.sort_unstable();
            h.write_usize(aged.len());
            for (id, age) in aged {
                h.write_u64(id);
                h.write_u64(age);
            }
        }
    }

    /// Every stamp GC will ever compare against, oldest first.
    fn stamps(&self) -> Vec<u64> {
        let mut stamps: Vec<u64> = self
            .unordered
            .values()
            .map(|r| r.arrived)
            .chain(self.compacted.values().copied())
            .collect();
        stamps.sort_unstable();
        stamps
    }
}

/// A `Hasher` that keeps the bytes it is fed instead of mixing them, so two
/// `hash_state` walks compare byte for byte.
#[derive(Default)]
struct FedBytes(Vec<u8>);

impl Hasher for FedBytes {
    fn finish(&self) -> u64 {
        0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

/// Ids the pool model draws from: few enough that every id meets every
/// mutator many times in one case. The archive files bodies in blocks of
/// sixteen consecutive packed ids, so these straddle block boundaries: rids
/// around 15/16 and 31/32, the last rids of port 5 and the first of port 6
/// (the rid carry into the port), and one id far from all of them.
const POOL_IDS: [(u32, u16, u16); 12] = [
    (5, 5, 14),
    (5, 5, 15),
    (5, 5, 16),
    (5, 5, 17),
    (5, 5, 31),
    (5, 5, 32),
    (5, 5, 33),
    (5, 5, 65_534),
    (5, 5, 65_535),
    (5, 6, 0),
    (5, 6, 1),
    (0xdead_beef, 40_000, 4_242),
];

fn pool_id(n: u64) -> ReqId {
    let (ip, port, rid) = POOL_IDS[n as usize % POOL_IDS.len()];
    ReqId::new(ip, port, rid)
}

/// What `insert` and `parked` return, in comparable form.
fn seen(r: Option<&PooledReq>) -> Option<(OpKind, Vec<u8>, u64)> {
    r.map(|r| (r.kind, r.body.to_vec(), r.arrived))
}

/// What `get` returns, in comparable form.
fn body_of(b: Option<&Bytes>) -> Option<Vec<u8>> {
    b.map(|b| b.to_vec())
}

/// When [`hand_elected_leader`] wins its election; far enough out that the
/// first tick fires the election timer.
const ELECTED_AT: u64 = 1 << 41;

/// Node 0 of a three-node HovercRaft group, elected leader of term 1 by
/// feeding it its peers' votes. Batches of two, an in-flight window of five
/// and a replier bound of three make a handful of requests fill each; the
/// election timeout is out of reach, so check-quorum never deposes it.
fn hand_elected_leader() -> HcNode<EchoService> {
    let mut rc = raft::Config::new(0, vec![0, 1, 2]);
    rc.election_timeout_min = ELECTED_AT / 2;
    rc.election_timeout_max = ELECTED_AT;
    rc.max_batch = 2;
    rc.max_inflight = 5;
    let mut cfg = HcConfig::new(rc, Mode::Hovercraft);
    cfg.bound = 3;
    let mut node = HcNode::new(cfg, EchoService::default(), 0);
    let (mut out, mut arena) = (Vec::new(), ByteArena::new());
    node.step(ELECTED_AT, Input::Tick, false, &mut out, &mut arena);
    for vote in [
        Message::PreVoteReply {
            term: 1,
            granted: true,
        },
        Message::RequestVoteReply {
            term: 1,
            granted: true,
        },
    ] {
        let (src, msg) = (1, WireMsg::Raft(vote));
        let input = Input::Message { src, msg };
        node.step(ELECTED_AT, input, false, &mut out, &mut arena);
    }
    assert!(node.is_leader());
    node
}

/// Records what a leader step emitted: the highest index each node has
/// been sent and the executions queued for the application thread. Fails
/// if an AppendEntries carries an entry with no replier, or if a step that
/// is not allowed to ship (`may_ship == false`) did.
fn absorb(
    outs: Vec<Output>,
    may_ship: bool,
    shipped: &mut [LogIndex; 3],
    app: &mut VecDeque<LogIndex>,
) -> TestCaseResult {
    for o in outs {
        match o {
            Output::Send {
                dst,
                msg:
                    WireMsg::Raft(Message::AppendEntries {
                        prev_log_index,
                        entries,
                        ..
                    }),
            } if !entries.is_empty() => {
                prop_assert!(may_ship, "entries left outside a batch end or a heartbeat");
                for e in &entries {
                    prop_assert!(e.cmd.desc.replier.is_some(), "entry {} unstamped", e.index);
                }
                let hi = prev_log_index + entries.len() as u64;
                shipped[dst as usize] = shipped[dst as usize].max(hi);
            }
            Output::Execute { index, .. } => app.push_back(index),
            Output::Send { .. } => {}
        }
    }
    Ok(())
}

proptest! {
    /// The aggregator's commit register is monotone within a term, never
    /// exceeds the announced horizon, and fan-out never targets the leader.
    #[test]
    fn aggregator_register_invariants(
        events in proptest::collection::vec((0u8..4, 0u64..30, 1u32..5), 1..200),
    ) {
        let mut agg = Aggregator::new(vec![0, 1, 2, 3, 4]);
        let mut horizon = 0u64; // highest index ever announced this term
        let mut last_commit = 0u64;
        let mut term = 1u64;
        for (kind, val, node) in events {
            match kind {
                0 => {
                    // Leader announces entries [horizon+1, horizon+k].
                    let k = (val % 4) as usize;
                    let out = agg.on_packet(0, ae(term, horizon, k));
                    for (dst, _) in &out {
                        prop_assert_ne!(*dst, 0, "fan-out must exclude the leader");
                    }
                    horizon += k as u64;
                }
                1 => {
                    // Follower acks some match index ≤ horizon.
                    let m = val.min(horizon);
                    let _ = agg.on_packet(node, reply(term, m, node));
                }
                2 => {
                    // New term: flush, registers restart.
                    term += 1;
                    let _ = agg.on_packet(0, ae(term, horizon, 0));
                    last_commit = 0;
                }
                _ => {
                    // Stale-term garbage must be inert.
                    let _ = agg.on_packet(node, reply(term.saturating_sub(1), val, node));
                }
            }
            prop_assert!(agg.commit() <= horizon, "commit beyond announcements");
            if kind != 2 {
                prop_assert!(agg.commit() >= last_commit, "commit regressed");
            }
            last_commit = agg.commit();
        }
    }

    /// Ledger depth always equals the exact count of assigned-but-unapplied
    /// entries, and `pick` never selects a node at or over the bound.
    #[test]
    fn ledger_bounded_queue_invariant(
        ops in proptest::collection::vec((0u8..2, 0u32..3, 1u64..200), 1..300),
        b in 1usize..16,
    ) {
        use rand::SeedableRng;
        let mut ledger = ReplierLedger::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        // Ground truth: per node, the set of assigned indices > applied.
        let mut assigned: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut applied = [0u64; 3];
        let mut next_idx = 1u64;
        for (kind, node, val) in ops {
            let node = node as usize;
            match kind {
                0 => {
                    // Try to assign the next entry via pick().
                    if let Some(r) =
                        ledger.pick(&[0, 1, 2], b, PolicyKind::Jbsq, &mut rng, 0, u64::MAX)
                    {
                        prop_assert!(
                            ledger.depth(r) < b,
                            "picked node at bound"
                        );
                        ledger.assign(r, next_idx);
                        assigned[r as usize].push(next_idx);
                        next_idx += 1;
                    } else {
                        // No eligible node: every node must be at the bound.
                        for n in 0..3u32 {
                            prop_assert!(ledger.depth(n) >= b);
                        }
                    }
                }
                _ => {
                    // Node reports applied progress.
                    let new_applied = applied[node].max(val.min(next_idx));
                    applied[node] = new_applied;
                    ledger.observe_applied(node as RaftId, new_applied);
                    assigned[node].retain(|&i| i > new_applied);
                }
            }
            for (n, a) in assigned.iter().enumerate() {
                prop_assert_eq!(
                    ledger.depth(n as RaftId),
                    a.len(),
                    "depth mismatch for node {}",
                    n
                );
            }
        }
    }

    /// The unordered pool: archives never lose bodies, GC touches only the
    /// unordered side, and `mark_ordered` is exactly once per id.
    #[test]
    fn pool_lifecycle_invariants(
        ops in proptest::collection::vec((0u8..4, 0u16..64, 0u64..1_000), 1..300),
    ) {
        let mut pool = UnorderedPool::new();
        let mut archived = std::collections::HashSet::new();
        let mut now = 0u64;
        for (kind, rid, t) in ops {
            now += t;
            let id = ReqId::new(5, 5, rid);
            match kind {
                0 => {
                    pool.insert(id, OpKind::ReadWrite, Bytes::from_static(b"x"), now);
                }
                1 => {
                    if pool.mark_ordered(id) {
                        archived.insert(id);
                    }
                }
                2 => {
                    pool.gc(now, 100);
                }
                _ => {
                    pool.insert_recovered(id, Bytes::from_static(b"y"));
                    archived.insert(id);
                }
            }
            // Every archived id remains retrievable (recovery serving).
            for a in &archived {
                prop_assert!(pool.get(*a).is_some(), "archived body lost");
                prop_assert!(pool.is_ordered(*a));
            }
            prop_assert_eq!(pool.archived_len(), archived.len());
        }
    }

    /// Shipping happens at the end of a batch, not per request: over any
    /// interleaving of client requests, follower acks, ticks and
    /// application completions, each ending a batch or not, only a
    /// batch-ending step (or a heartbeat) puts entries on the wire, and
    /// after a final batch-ending step every announced entry is in flight
    /// to every follower whose window still has room.
    #[test]
    fn final_flush_leaves_no_announced_entry_unsent(
        ops in proptest::collection::vec((0u8..4, 0u64..1_000, any::<bool>()), 1..150),
    ) {
        let mut node = hand_elected_leader();
        let mut arena = ByteArena::new();
        let mut now = ELECTED_AT;
        let mut shipped = [0 as LogIndex; 3];
        let mut app = VecDeque::new();
        let mut rid = 0u16;
        for (op, val, batch_ends) in ops {
            let input = match op {
                0 => {
                    rid += 1;
                    let req = WireMsg::Request {
                        id: ReqId::new(9, 9, rid),
                        kind: OpKind::ReadWrite,
                        body: Bytes::from(rid.to_le_bytes().to_vec()),
                    };
                    Input::Message { src: 9, msg: req }
                }
                1 => {
                    // A follower acks some prefix of what it was sent.
                    let f = 1 + (val % 2) as u32;
                    let matched = node.raft().progress(f).map_or(0, |p| p.matched);
                    let sent = shipped[f as usize].max(matched);
                    let m = matched + val % (sent - matched + 1);
                    let ack = Message::AppendEntriesReply {
                        term: 1,
                        success: true,
                        match_index: m,
                        conflict_index: 0,
                        applied_index: m.min(node.raft().commit_index()),
                        from: f,
                    };
                    Input::Message { src: f, msg: WireMsg::Raft(ack) }
                }
                2 => {
                    now += val * 1_000;
                    Input::Tick
                }
                _ => match app.pop_front() {
                    Some(index) => Input::ExecDone(index),
                    None => continue,
                },
            };
            let mut out = Vec::new();
            node.step(now, input, batch_ends, &mut out, &mut arena);
            absorb(out, batch_ends || op == 2, &mut shipped, &mut app)?;
        }
        // The final flush: a batch-ending tick at the same instant.
        let mut out = Vec::new();
        node.step(now, Input::Tick, true, &mut out, &mut arena);
        absorb(out, true, &mut shipped, &mut app)?;

        let raft = node.raft();
        prop_assert!(raft.is_leader());
        let announced = raft.log().last_index().min(raft.ceiling());
        let window = raft.config().max_inflight as u64;
        for f in [1u32, 2] {
            let p = raft.progress(f).expect("the leader tracks every follower");
            if p.next <= p.matched + window {
                prop_assert!(
                    shipped[f as usize] >= announced,
                    "follower {} has room (next {}, matched {}) but was sent up to {} of {} announced",
                    f, p.next, p.matched, shipped[f as usize], announced
                );
            }
        }
    }

    /// Differential test of the whole pool: every mutator, in random order,
    /// against [`RefPool`], comparing everything observable after each
    /// step. Time moves in the steps GC is sensitive to — nothing, one
    /// nanosecond, to an age of exactly `timeout` or `timeout + 1` of some
    /// live stamp, past several timeouts — and the tombstone corner cases
    /// (a late `insert_recovered` of a tombstoned id, seeding over an
    /// existing tombstone) are steps of their own rather than left to
    /// chance.
    ///
    /// After every step, whatever the model says: no id the pool has
    /// ordered is offered for re-proposal, and a body that arrived for an
    /// awaited id sits in the archive.
    #[test]
    fn pool_matches_reference_model(
        timeout in prop_oneof![Just(0u64), Just(1u64), 2u64..300],
        steps in proptest::collection::vec((0u8..15, 0u8..6, 0u64..1_000), 1..250),
    ) {
        let mut pool = UnorderedPool::new();
        let mut model = RefPool::default();
        let mut now = 1_000u64;
        for (op, jump, val) in steps {
            // Land on an age of exactly `timeout + extra` of some live stamp
            // (time never runs backwards: a stamp already older stays put).
            let stamps = model.stamps();
            let before = now;
            let pick = move |extra: u64| {
                stamps
                    .get(val as usize % stamps.len().max(1))
                    .map_or(before, |s| (s + timeout + extra).max(before))
            };
            now = match jump {
                0 => now,
                1 => now + 1,
                2 => now + val % 40,
                3 => pick(0),
                4 => pick(1),
                _ => now + 3 * timeout + val,
            };
            let id = pool_id(val);
            let kind = if val & 16 == 0 { OpKind::ReadWrite } else { OpKind::ReadOnly };
            let body = Bytes::from(vec![id.rid as u8, (val >> 5) as u8]);
            let ids = [id, pool_id(val / 7), pool_id(val / 91)];
            let tombs = model.tombstone_ids();
            let live_tomb = tombs.get(val as usize % tombs.len().max(1)).copied();
            match op {
                0 | 1 => {
                    let ordered = model.is_ordered(id);
                    // (A tombstone wins: a snapshot covers the id.)
                    let awaited = model.awaited.contains_key(&id) && !model.compacted.contains_key(&id);
                    model.insert(id, kind, body.clone(), now);
                    let parked = seen(pool.insert(id, kind, body, now));
                    prop_assert_eq!(parked.is_none(), ordered);
                    if !ordered {
                        prop_assert_eq!(parked, seen(model.unordered.get(&id)), "first copy is the one kept");
                    }
                    if awaited {
                        prop_assert!(pool.get(id).is_some() && pool.parked(id).is_none(), "awaited body archived");
                    }
                }
                2 => prop_assert_eq!(pool.mark_ordered(id), model.mark_ordered(id)),
                3 => prop_assert_eq!(
                    pool.insert_recovered(id, body.clone()),
                    model.insert_recovered(id, body)
                ),
                4 => prop_assert_eq!(
                    pool.compact_archive(&ids, now),
                    model.compact_archive(&ids, now)
                ),
                5 => prop_assert_eq!(
                    pool.seed_tombstones(&ids, now),
                    model.seed_tombstones(&ids, now)
                ),
                6 => prop_assert_eq!(pool.gc(now, timeout).0, model.gc(now, timeout)),
                7 => {
                    // A run of ticks, most of them with nothing to expire.
                    for _ in 0..40 {
                        now += val % 3;
                        prop_assert_eq!(pool.gc(now, timeout).0, model.gc(now, timeout));
                    }
                }
                10 => prop_assert_eq!(pool.bind(id, now), model.bind(id, now)),
                14 => prop_assert_eq!(pool.await_body(id, now), model.await_body(id, now)),
                11 => {
                    // A restart brings back log entries naming these ids.
                    model.restore_ordered(&ids);
                    pool.restore_ordered(ids.into_iter());
                }
                12 => prop_assert_eq!(
                    body_of(pool.ordered_body(id).as_ref()),
                    body_of(model.ordered_body(id).as_ref())
                ),
                13 => {
                    // An install whose retained log names only these ids.
                    model.retain_awaited(&ids);
                    pool.retain_awaited(ids.into_iter());
                }
                8 => {
                    // Seed over an existing tombstone (the older stamp
                    // stays) and a fresh id in the same call.
                    let ids = [live_tomb.unwrap_or(id), id];
                    prop_assert_eq!(
                        pool.seed_tombstones(&ids, now),
                        model.seed_tombstones(&ids, now)
                    );
                }
                9 => {
                    // A late recovery reply for a tombstoned id brings no
                    // body back: the id stays tombstoned and unarchived,
                    // and compacting it again a little later drops nothing.
                    let id = live_tomb.unwrap_or(id);
                    prop_assert_eq!(
                        pool.insert_recovered(id, body.clone()),
                        model.insert_recovered(id, body)
                    );
                    if live_tomb.is_some() {
                        prop_assert!(pool.tombstones().contains(&id), "tombstone kept");
                        prop_assert!(pool.get(id).is_none(), "compacted body resurrected");
                    }
                    prop_assert_eq!(pool.is_ordered(id), model.is_ordered(id));
                    prop_assert_eq!(body_of(pool.get(id)), body_of(model.get(id)));
                    now += val % 5;
                    prop_assert_eq!(
                        pool.compact_archive(&[id], now),
                        model.compact_archive(&[id], now)
                    );
                }
                _ => unreachable!("ops are drawn from 0..15"),
            }
            for n in 0..POOL_IDS.len() as u64 {
                let id = pool_id(n);
                prop_assert_eq!(pool.is_ordered(id), model.is_ordered(id), "is_ordered {:?}", id);
                prop_assert_eq!(body_of(pool.get(id)), body_of(model.get(id)), "get {:?}", id);
                prop_assert_eq!(seen(pool.parked(id)), seen(model.unordered.get(&id)), "parked {:?}", id);
            }
            prop_assert_eq!(pool.unordered_ids(), model.unordered_ids());
            for id in pool.unordered_ids() {
                prop_assert!(!pool.is_ordered(id), "{:?} is both parked and ordered", id);
            }
            for id in model.awaited.keys() {
                prop_assert!(pool.parked(*id).is_none(), "awaited {:?} parked", id);
            }
            prop_assert_eq!(pool.tombstones(), &model.tombstone_ids()[..], "sorted tombstone mirror");
            prop_assert_eq!(pool.unordered_len(), model.unordered.len());
            prop_assert_eq!(pool.archived_len(), model.archive.len());
            prop_assert_eq!(pool.tombstone_len(), model.compacted.len());
            let (mut fed, mut expected) = (FedBytes::default(), FedBytes::default());
            pool.hash_state(now, &mut fed);
            model.hash_state(now, &mut expected);
            prop_assert_eq!(fed.0, expected.0, "hash_state bytes");
        }
    }
}
