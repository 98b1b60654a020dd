//! Cluster scenarios: the protocol's behaviours (§3.2–§5) as scripted
//! schedules on the model the explorer drives. A script chooses requests,
//! first-in-first-out delivery, leader ticks for heartbeats, and crashes.
//! A tick is one election timeout, so followers are ticked only to force
//! an election after a crash. After every step a script samples one
//! [`InvariantChecker`], and every reply to [`CLIENT_ADDR`] goes through
//! the model's exactly-one-reply ledger.

use bytes::{ByteArena, Bytes};
use hovercraft::{
    Cmd, CmdRecord, EchoService, HcNode, Input, Mode, OpKind, Output, ProtoEvent, WireMsg,
};
use mc::model::Env;
use mc::scope::{AGG_ADDR, CLIENT_ADDR};
use mc::{McAction, ModelState, Scope};
use r2p2::{ReqId, ReqIdAlloc};
use raft::Message;
use testbed::invariants::predicates::Mutation;
use testbed::invariants::{InvariantChecker, Violation};

/// One scripted run: the model, its scope, the checker sampled after every
/// step, and the client's request ids.
struct Script {
    st: ModelState,
    scope: Scope,
    checker: InvariantChecker,
    ids: ReqIdAlloc,
}

impl Script {
    /// `n` nodes in `mode` with node 0 elected. Every node may campaign,
    /// and the queue bound is `HcConfig`'s default B = 128.
    fn new(mode: Mode, n: u32) -> Script {
        let scope = Scope {
            mode,
            n_nodes: n,
            candidates: n as u8,
            bound: 128,
            ..Scope::default_scope()
        };
        let mut s = Script {
            st: ModelState::init(&scope),
            scope,
            checker: InvariantChecker::new(),
            ids: ReqIdAlloc::new(CLIENT_ADDR, 1000),
        };
        s.checked(Ok(()));
        s
    }

    /// Panics if `step` or the state it left violates an invariant.
    fn checked(&mut self, step: Result<(), Violation>) {
        let live = self.st.live();
        if let Err(v) = step.and_then(|()| self.checker.check_nodes(&live, Mutation::None)) {
            panic!("invariant violated: {v}");
        }
    }

    fn apply(&mut self, act: McAction) {
        let step = self.st.apply(&self.scope, act);
        self.checked(step);
    }

    fn settle(&mut self) {
        let step = self.st.settle(&self.scope);
        self.checked(step);
    }

    /// `rounds` heartbeats (settle, tick the leader), then a last settle,
    /// one delivery at a time: `watch` sees each delivered packet and the
    /// packets its delivery sent.
    fn run_watching(&mut self, rounds: usize, mut watch: impl FnMut(&Env, &[Env])) {
        for round in 0..=rounds {
            while let Some(env) = self.st.net().first().cloned() {
                let kept = self.st.net().len() - 1;
                self.apply(McAction::Deliver(0));
                watch(&env, &self.st.net()[kept..]);
            }
            match self.leader() {
                Some(l) if round < rounds => self.apply(McAction::Tick(l)),
                _ => {}
            }
        }
    }

    fn run(&mut self, rounds: usize) {
        self.run_watching(rounds, |_, _| {});
    }

    /// The live leader of the highest term.
    fn leader(&self) -> Option<u32> {
        let leaders = self.st.live().into_iter().filter(|(_, n)| n.is_leader());
        leaders
            .max_by_key(|(_, n)| n.raft().term())
            .map(|(id, _)| id)
    }

    /// Ticks the live nodes in turn, settling after each tick, until one
    /// leads.
    fn elect(&mut self) -> u32 {
        for n in (0..self.scope.n_nodes).cycle().take(24) {
            if let Some(l) = self.leader() {
                return l;
            }
            if self.st.node(n).is_some() {
                self.apply(McAction::Tick(n));
                self.settle();
            }
        }
        panic!("no leader after 24 ticks");
    }

    /// Request `id` arrives at each live node of `dsts`.
    fn request(&mut self, id: ReqId, kind: OpKind, body: &[u8], dsts: &[u32]) {
        let step = self
            .st
            .request(id, kind, Bytes::copy_from_slice(body), dsts);
        self.checked(step);
    }

    /// Sends a fresh request the way the mode's client does: to the leader
    /// in Vanilla, to the whole group otherwise.
    fn send(&mut self, kind: OpKind, body: &[u8]) {
        let id = self.ids.allocate();
        let dsts: Vec<u32> = match self.scope.mode {
            Mode::Vanilla => vec![self.leader().expect("vanilla needs a leader")],
            _ => (0..self.scope.n_nodes).collect(),
        };
        self.request(id, kind, body, &dsts);
    }

    /// Sends one request per body, running `rounds` heartbeats after every
    /// `batch` of them.
    fn load<B: AsRef<[u8]>>(
        &mut self,
        kind: OpKind,
        bodies: impl IntoIterator<Item = B>,
        batch: usize,
        rounds: usize,
    ) {
        for (i, body) in bodies.into_iter().enumerate() {
            self.send(kind, body.as_ref());
            if i % batch == batch - 1 {
                self.run(rounds);
            }
        }
    }

    fn node(&self, n: u32) -> &HcNode<EchoService> {
        self.st.node(n).expect("live node")
    }

    /// Writes each live node's service executed, in id order.
    fn writes(&self) -> Vec<u64> {
        self.st
            .live()
            .iter()
            .map(|(_, n)| n.service().writes)
            .collect()
    }
}

/// Steps `node` outside the model, returning its outputs.
fn hand_step(node: &mut HcNode<EchoService>, now: u64, input: Input, ends: bool) -> Vec<Output> {
    let mut outs = Vec::new();
    node.step(now, input, ends, &mut outs, &mut ByteArena::new());
    outs
}

/// Client request `id`, carrying `n`, as a node input.
fn request_input(id: ReqId, n: u64) -> Input {
    let (kind, body) = (OpKind::ReadWrite, Bytes::copy_from_slice(&n.to_le_bytes()));
    let (src, msg) = (CLIENT_ADDR, WireMsg::Request { id, kind, body });
    Input::Message { src, msg }
}

#[test]
fn hovercraft_round_trip_single_reply() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    // A client outside the model: its reply stays on the wire, where the
    // script reads it.
    let id = ReqId::new(CLIENT_ADDR + 1, 1000, 0);
    s.request(id, OpKind::ReadWrite, b"hello", &[0, 1, 2]);
    let mut replies = Vec::new();
    s.run_watching(3, |env, _| {
        if let WireMsg::Response { id, body } = &env.msg {
            replies.push((*id, body.clone()));
        }
    });
    assert_eq!(replies.len(), 1, "exactly one reply");
    assert_eq!(replies[0].0, id);
    assert_eq!(&replies[0].1[..], b"hello");
}

#[test]
fn vanilla_round_trip_leader_replies() {
    let mut s = Script::new(Mode::Vanilla, 3);
    let leader = s.leader().unwrap();
    s.load(OpKind::ReadWrite, (0..5u64).map(u64::to_le_bytes), 1, 3);
    assert_eq!(s.st.reply_count(), 5);
    // Only the leader responds in vanilla mode.
    for n in 0..3 {
        let expected = if n == leader { 5 } else { 0 };
        assert_eq!(s.node(n).stats().responses, expected);
    }
    // And every node executed every write (full SMR).
    assert_eq!(s.writes(), [5; 3]);
}

#[test]
fn hovercraft_replicates_writes_everywhere() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    s.load(OpKind::ReadWrite, (0..10u64).map(u64::to_le_bytes), 1, 3);
    s.run(3);
    assert_eq!(s.st.reply_count(), 10);
    assert_eq!(s.writes(), [10; 3], "every node applied all writes");
    for n in 0..3 {
        assert_eq!(s.node(n).applied_index(), s.node(0).applied_index());
    }
}

#[test]
fn replies_are_load_balanced_across_nodes() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    s.load(OpKind::ReadWrite, (0..60u64).map(u64::to_le_bytes), 4, 1);
    s.run(5);
    assert_eq!(s.st.reply_count(), 60);
    let responders = (0..3).filter(|&n| s.node(n).stats().responses > 0).count();
    assert!(
        responders >= 2,
        "replies spread over ≥2 nodes, got {responders}"
    );
}

#[test]
fn read_only_ops_execute_on_exactly_one_node() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    s.load(OpKind::ReadOnly, (0..30u64).map(u64::to_le_bytes), 5, 1);
    s.run(5);
    assert_eq!(s.st.reply_count(), 30);
    let total_exec: u64 = (0..3).map(|n| s.node(n).stats().executed).sum();
    let total_skip: u64 = (0..3).map(|n| s.node(n).stats().ro_skipped).sum();
    assert_eq!(total_exec, 30, "each RO op executed exactly once");
    assert_eq!(total_skip, 60, "and skipped on the other two nodes");
    // Reads never mutate the echo service's write counter.
    assert_eq!(s.writes(), [0; 3]);
}

#[test]
fn hovercraft_pp_commits_through_aggregator() {
    let mut s = Script::new(Mode::HovercraftPp, 3);
    // Bootstrap: first entries flow point-to-point until the leader trusts
    // the aggregator and a current-term entry commits.
    s.load(OpKind::ReadWrite, (0..20u64).map(u64::to_le_bytes), 1, 3);
    s.run(3);
    assert_eq!(s.st.reply_count(), 20);
    let leader = s.leader().unwrap();
    assert!(
        s.node(leader).aggregator_confirmed(),
        "leader confirmed the aggregator via VoteProbe"
    );
    let st = s.st.agg().expect("HC++ has an aggregator").stats();
    assert!(st.fanouts > 0, "aggregator fanned out appends");
    assert!(st.commits_sent > 0, "aggregator multicast AGG_COMMITs");
    assert!(st.replies_absorbed >= st.commits_sent);
    assert_eq!(s.writes(), [20; 3]);
}

#[test]
fn agg_commit_is_the_commit_notification() {
    // §4 / Table 1: the AGG_COMMIT multicast already told every follower
    // the commit index, so a leader with nothing new to announce answers
    // it with silence — no empty AppendEntries through the aggregator, no
    // echo round. Requests are spaced so each finds the pipeline idle.
    let mut s = Script::new(Mode::HovercraftPp, 5);
    s.load(OpKind::ReadWrite, (0..10u64).map(u64::to_le_bytes), 1, 3);
    let commits_before = s.st.agg().unwrap().stats().commits_sent;
    let l = s.leader().unwrap();
    let mut appends_on_agg_commit = 0;
    for i in 0..40u64 {
        s.send(OpKind::ReadWrite, &(1000 + i).to_le_bytes());
        s.run_watching(3, |env, sent| {
            if env.dst == l && matches!(env.msg, WireMsg::AggCommit { .. }) {
                let append =
                    |e: &&Env| matches!(e.msg, WireMsg::Raft(Message::AppendEntries { .. }));
                appends_on_agg_commit += sent.iter().filter(append).count();
            }
        });
    }
    assert_eq!(s.st.reply_count(), 50);
    assert!(
        s.st.agg().unwrap().stats().commits_sent >= commits_before + 40,
        "every request committed through the aggregator"
    );
    assert_eq!(appends_on_agg_commit, 0);
    assert_eq!(s.writes(), [50; 5], "every replica applied everything");
}

/// The AppendEntries in `outs` that carry entries, as (destination, entry
/// count).
fn data_appends(outs: &[Output]) -> Vec<(u32, usize)> {
    let mut v: Vec<(u32, usize)> = outs
        .iter()
        .filter_map(|o| match o {
            Output::Send {
                dst,
                msg: WireMsg::Raft(Message::AppendEntries { entries, .. }),
            } if !entries.is_empty() => Some((*dst, entries.len())),
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn one_flush_ships_a_whole_batch_in_one_append_per_follower() {
    const K: usize = 7;
    for mode in [Mode::Vanilla, Mode::Hovercraft, Mode::HovercraftPp] {
        let mut s = Script::new(mode, 5);
        // Warm-up: HC++ routes through the aggregator once it answered the
        // leader's probe and an entry of the term has committed.
        s.load(OpKind::ReadWrite, (0..5u64).map(u64::to_le_bytes), 1, 3);
        let l = s.leader().expect("leader");
        let (node, now) = s.st.node_mut(l).expect("live leader");
        // A batch-ending tick at the instant the leader last ticked: due
        // for nothing itself, so whatever it sends is the flush's.
        let idle = hand_step(node, now, Input::Tick, true);
        assert!(idle.is_empty(), "{mode:?}: nothing new, nothing sent");

        let before = node.stats();
        let mut outs = Vec::new();
        for i in 0..K as u64 {
            let input = request_input(s.ids.allocate(), 100 + i);
            outs.extend(hand_step(node, now, input, false));
        }
        assert_eq!(
            data_appends(&outs),
            [],
            "{mode:?}: requests alone ship nothing"
        );
        let outs = hand_step(node, now, Input::Tick, true);
        let expected: Vec<(u32, usize)> = match mode {
            Mode::HovercraftPp => vec![(AGG_ADDR, K)],
            _ => (0..5).filter(|&n| n != l).map(|n| (n, K)).collect(),
        };
        assert_eq!(data_appends(&outs), expected, "{mode:?}");
        let after = node.stats();
        assert_eq!(
            after.appends_sent - before.appends_sent,
            expected.len() as u64
        );
        assert_eq!(
            after.entries_sent - before.entries_sent,
            (expected.len() * K) as u64
        );

        let again = hand_step(node, now, Input::Tick, true);
        assert!(again.is_empty(), "{mode:?}: a second flush has nothing new");
        s.checked(Ok(()));
    }
}

/// A driver that never drains holds one step's events, not the node's
/// history: after 10 000 undrained steps, `drain_events` returns exactly
/// what the last one recorded.
#[test]
fn undrained_events_do_not_outlive_their_step() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    let l = s.leader().expect("leader");
    let (node, now) = s.st.node_mut(l).expect("live leader");
    let mut last = None;
    for i in 0..10_000 {
        let id = s.ids.allocate();
        hand_step(node, now, request_input(id, i), true);
        last = Some(id);
    }
    // Every replier queue filled long ago, so the last request was
    // proposed and left unannounced: one event.
    let index = node.raft().log().last_index();
    let events: Vec<ProtoEvent> = node.drain_events().collect();
    let id = last.expect("requests were sent");
    assert_eq!(events, [ProtoEvent::Proposed { index, id }]);
    assert_eq!(node.drain_events().count(), 0, "drained means empty");
    s.checked(Ok(()));
}

#[test]
fn aggregator_offloads_leader_rx() {
    // Table 1: in HC++ the leader receives ~1 message per request
    // (AGG_COMMIT) instead of N-1 append replies.
    let mut rx = Vec::new();
    for mode in [Mode::Hovercraft, Mode::HovercraftPp] {
        let mut s = Script::new(mode, 5);
        // Warm up to steady state, then measure.
        s.load(OpKind::ReadWrite, (0..10u64).map(u64::to_le_bytes), 1, 3);
        let l = s.leader().unwrap();
        // Each multicast request reaches the leader too.
        let mut leader_rx = 40;
        for i in 0..40u64 {
            s.send(OpKind::ReadWrite, &(1000 + i).to_le_bytes());
            s.run_watching(3, |env, _| leader_rx += usize::from(env.dst == l));
        }
        assert_eq!(s.leader(), Some(l));
        rx.push(leader_rx);
    }
    let (rx_hc, rx_pp) = (rx[0], rx[1]);
    assert!(
        rx_pp * 2 < rx_hc,
        "HC++ leader RX ({rx_pp}) should be well below HovercRaft ({rx_hc})"
    );
}

#[test]
fn lost_multicast_copy_recovers_from_leader() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    let leader = s.leader().unwrap();
    let victim = (0..3u32).find(|&n| n != leader).unwrap();
    // A lost multicast copy: the request reaches every node except the
    // victim follower.
    let id = s.ids.allocate();
    let dsts: Vec<u32> = (0..3).filter(|&n| n != victim).collect();
    s.request(id, OpKind::ReadWrite, b"lossy", &dsts);
    s.run(5);
    assert_eq!(s.st.reply_count(), 1);
    // The victim recovered the body and applied the entry.
    let v = s.node(victim);
    assert_eq!(v.service().writes, 1, "victim executed after recovery");
    assert!(v.stats().recoveries_sent >= 1, "victim used recovery");
    let served: u64 = (0..3).map(|n| s.node(n).stats().recoveries_served).sum();
    assert!(served >= 1, "someone served the recovery");
}

#[test]
fn leader_failure_elects_new_leader_and_resumes() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    s.load(OpKind::ReadWrite, (0..5u64).map(u64::to_le_bytes), 1, 3);
    assert_eq!(s.st.reply_count(), 5);
    let old = s.leader().unwrap();
    s.apply(McAction::Crash(old));
    let new = s.elect();
    assert_ne!(new, old);
    // The new leader's fresh ledger will assign up to B = 128 entries to
    // the dead node before its bounded queue fills (their replies are
    // lost); everything beyond that must be answered.
    s.load(
        OpKind::ReadWrite,
        (0..300u64).map(|i| (100 + i).to_le_bytes()),
        4,
        1,
    );
    s.run(5);
    let answered = s.st.reply_count();
    assert!(
        answered >= 305 - 128 - 5,
        "post-failover requests served ({answered})"
    );
    // Survivors agree on the applied prefix.
    let applied: Vec<u64> = s.st.live().iter().map(|(_, n)| n.applied_index()).collect();
    assert_eq!(applied[0], applied[1]);
}

/// Checks, on every live replica, that each committed entry's `desc.hash`
/// is the hash of the body that replica itself holds for it (inline in
/// Vanilla mode, pooled otherwise), and returns how many entries the
/// replica that committed the fewest had.
fn committed_hashes_match_local_bodies(s: &Script) -> u64 {
    let mut fewest = u64::MAX;
    for (n, node) in s.st.live() {
        let log = node.raft().log();
        let commit = node.raft().commit_index();
        for idx in log.first_index()..=commit {
            let e = log.get(idx).expect("committed entry present");
            let id = e.cmd.desc.id;
            let body = match &e.cmd.body {
                Some(inline) => inline,
                None => match node.pool().get(id) {
                    Some(held) => held,
                    None => panic!("node {n} holds no body for {id:?}"),
                },
            };
            assert_eq!(
                e.cmd.desc.hash,
                r2p2::body_hash(body),
                "node {n}, index {idx}: the ordered hash is not the hash of the held body"
            );
        }
        fewest = fewest.min(commit + 1 - log.first_index());
    }
    fewest
}

/// Bodies of assorted sizes around the 8-byte word boundary, mostly zero
/// like the synthetic workload's.
fn padded_body(i: u64) -> Vec<u8> {
    let mut b = i.to_le_bytes().to_vec();
    b.resize(8 + (i as usize * 37) % 530, 0);
    b
}

#[test]
fn ordered_hash_is_the_hash_of_the_body_each_replica_holds() {
    // Only the proposing leader hashes a body; followers take the value
    // from the log. A leader that shipped a zero, stale or differently
    // computed hash would go unnoticed by the protocol (followers do not
    // verify it), so check it here, in every mode.
    for mode in [Mode::Hovercraft, Mode::HovercraftPp, Mode::Vanilla] {
        let mut s = Script::new(mode, 3);
        s.load(OpKind::ReadWrite, (0..40u64).map(padded_body), 4, 1);
        s.run(5);
        assert_eq!(s.st.reply_count(), 40, "{mode:?}");
        assert_eq!(committed_hashes_match_local_bodies(&s), 40, "{mode:?}");
    }
}

#[test]
fn backlog_flushed_by_a_new_leader_carries_body_hashes() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    s.load(OpKind::ReadWrite, (0..5u64).map(padded_body), 1, 3);
    let old = s.leader().unwrap();
    s.apply(McAction::Crash(old));
    // The multicast still reaches the survivors, which park the requests
    // unhashed; nobody orders them until one of the two wins the election
    // and flushes its unordered set (§5) — the other hashing site.
    s.load(
        OpKind::ReadWrite,
        (0..20u64).map(|i| padded_body(100 + i)),
        20,
        0,
    );
    let parked: Vec<usize> =
        s.st.live()
            .iter()
            .map(|(_, n)| n.pool().unordered_len())
            .collect();
    assert_eq!(parked, [20, 20], "survivors hold the backlog unordered");
    let new = s.elect();
    assert_ne!(new, old);
    // And steady state under the new leader.
    s.load(
        OpKind::ReadWrite,
        (0..10u64).map(|i| padded_body(200 + i)),
        1,
        3,
    );
    s.run(3);
    assert_eq!(committed_hashes_match_local_bodies(&s), 35);
    assert_eq!(s.writes(), [35; 2], "survivors applied the backlog");
}

#[test]
fn dead_follower_stops_receiving_assignments() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    let leader = s.leader().unwrap();
    let victim = (0..3u32).find(|&n| n != leader).unwrap();
    s.apply(McAction::Crash(victim));
    // Throw enough requests that an unbounded balancer would assign many to
    // the dead node. Bound B = 128, and the stall timeout never fires, so
    // the bound alone limits the loss.
    s.load(OpKind::ReadWrite, (0..400u64).map(u64::to_le_bytes), 8, 1);
    s.run(5);
    // All but ≤B requests were answered (those assigned to the dead node
    // before its queue filled are lost — §3.4's bounded loss).
    let answered = s.st.reply_count();
    assert!(
        answered >= 400 - 128,
        "lost replies bounded by B: {answered} answered"
    );
    let lost = 400 - answered;
    assert!(lost <= 128, "at most B replies lost, got {lost}");
}

#[test]
fn duplicate_client_request_is_ordered_once() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    let id = s.ids.allocate();
    // The client "retries" the same request three times.
    for _ in 0..3 {
        s.request(id, OpKind::ReadWrite, b"dup", &[0, 1, 2]);
        s.run(3);
    }
    s.run(3);
    assert_eq!(s.writes(), [1; 3], "executed exactly once per node");
}

/// The leader proposes request X without shipping it (its batch has not
/// ended), crashes and restarts with X in its restored log, and wins the
/// next election: only it holds X. The client's copy of X reaches it
/// before the election, or after it with `retransmit_after_election` (a
/// VanillaRaft client sends to the leader). X must be ordered once: one
/// more request commits the restored entry.
fn restarted_leader_orders_x_once(mode: Mode, retransmit_after_election: bool) {
    let mut s = Script::new(mode, 3);
    s.load(OpKind::ReadWrite, (0..3u64).map(u64::to_le_bytes), 1, 3);
    let l = s.leader().expect("leader");
    let x = s.ids.allocate();
    let (node, now) = s.st.node_mut(l).expect("live leader");
    hand_step(node, now, request_input(x, 7), false);
    let proposed_at = node.raft().log().last_index();
    s.apply(McAction::Crash(l));
    s.apply(McAction::Restart(l));
    let body = 7u64.to_le_bytes();
    if !retransmit_after_election {
        s.request(x, OpKind::ReadWrite, &body, &[l]);
    }
    // The followers' election timeouts pass, and their own pre-votes are
    // lost.
    for f in (0..3).filter(|&n| n != l) {
        s.apply(McAction::Tick(f));
    }
    while !s.st.net().is_empty() {
        s.apply(McAction::Drop(0));
    }
    assert_eq!(s.elect(), l, "{mode:?}: only the restarted node holds X");
    if retransmit_after_election {
        s.request(x, OpKind::ReadWrite, &body, &[l]);
    }
    s.load(OpKind::ReadWrite, [8u64.to_le_bytes()], 1, 3);
    let log = s.node(l).raft().log();
    let ordered = log
        .range(1, log.last_index())
        .filter(|e| e.cmd.desc.id == x);
    assert_eq!(
        ordered.map(|e| e.index).collect::<Vec<_>>(),
        [proposed_at],
        "{mode:?}"
    );
    // Each follower executes each write once. (A restarted HovercRaft
    // leader cannot apply: no retry fetches its lost bodies in this scope.)
    let writes = s.writes();
    for n in (0..3).filter(|&n| n != l || mode == Mode::Vanilla) {
        assert_eq!(writes[n as usize], 5, "{mode:?}: node {n} executed X once");
    }
}

#[test]
fn restarted_leader_does_not_re_propose_a_request_its_log_holds() {
    // A duplicated multicast copy of X parks in the restarted node's fresh
    // pool unless the pool knows the restored log names X; §5's backlog
    // flush would then order X a second time.
    restarted_leader_orders_x_once(Mode::Hovercraft, false);
}

#[test]
fn restored_vanilla_leader_drops_a_retransmission_its_log_holds() {
    restarted_leader_orders_x_once(Mode::Vanilla, true);
}

/// Node `n`'s log entry at `idx`.
fn entry_cmd(s: &Script, n: u32, idx: u64) -> &Cmd {
    s.node(n).raft().log().get(idx).expect("entry in log").cmd
}

#[test]
fn a_replicated_entry_is_the_leaders_record_on_every_node() {
    for mode in [Mode::Hovercraft, Mode::HovercraftPp, Mode::Vanilla] {
        let mut s = Script::new(mode, 3);
        s.load(OpKind::ReadWrite, [b"one write"], 1, 3);
        assert_eq!(s.writes(), [1; 3], "{mode:?}: replicated everywhere");
        let leader = s.leader().unwrap();
        let idx = s.node(leader).raft().log().last_index();
        let record: *const CmdRecord = &**entry_cmd(&s, leader, idx);
        for n in 0..3 {
            let cmd = entry_cmd(&s, n, idx);
            assert!(
                cmd.desc.replier.is_some(),
                "{mode:?}: stamped before shipping"
            );
            assert!(
                std::ptr::eq(&**cmd, record),
                "{mode:?}: node {n} shares the record"
            );
        }
    }
}

#[test]
fn forging_one_followers_entry_leaves_every_other_copy_unchanged() {
    let mut s = Script::new(Mode::Hovercraft, 3);
    s.load(OpKind::ReadWrite, [b"one write"], 1, 3);
    let leader = s.leader().unwrap();
    let idx = s.node(leader).raft().log().last_index();
    let original = entry_cmd(&s, leader, idx).clone();
    let mut followers = (0..3u32).filter(|&n| n != leader);
    let (forged, other) = (followers.next().unwrap(), followers.next().unwrap());
    let (node, _) = s.st.node_mut(forged).unwrap();
    let cmd = node.raft_mut().log_mut().get_mut(idx).unwrap();
    let replier = cmd.desc.replier.unwrap();
    cmd.make_mut().desc.replier = Some((replier + 1) % 3);
    assert_ne!(*entry_cmd(&s, forged, idx), original, "the forge took");
    for n in [leader, other] {
        let cmd = entry_cmd(&s, n, idx);
        assert_eq!(
            cmd.desc.replier,
            Some(replier),
            "node {n} keeps its replier"
        );
        assert!(
            std::ptr::eq(&**cmd, &*original),
            "node {n} keeps the shared record"
        );
    }
}
