//! Protocol-level cluster tests: full HovercRaft nodes, the in-network
//! aggregator, and the flow-control middlebox wired over a logical
//! in-memory bus (constant latency, controllable loss). These validate the
//! protocol semantics independently of the performance simulator.

use bytes::Bytes;
use hovercraft::{
    Aggregator, EchoService, FcDecision, FlowControl, HcConfig, HcNode, Input, Mode, OpKind,
    Output, PolicyKind, ProtoEvent, WireMsg,
};
use r2p2::{ReqId, ReqIdAlloc};
use raft::RaftId;

const GROUP: u32 = 0x8000_0000;
const AGG: u32 = 200;
const VIP: u32 = 300;
const CLIENT: u32 = 100;

/// Drop predicate: (message, destination) → drop?
type DropFn = Box<dyn FnMut(&WireMsg, u32) -> bool>;

struct Bus {
    inflight: Vec<(u64, u32, u32, WireMsg)>, // (deliver_at, src, dst, msg)
    latency: u64,
    /// Per-destination one-shot drop predicate, for loss injection.
    drop: Option<DropFn>,
    /// Wire message counters per (src) node address for Table-1 style
    /// accounting: (tx, rx).
    tx: Vec<u64>,
    rx: Vec<u64>,
}

impl Bus {
    fn new(latency: u64) -> Bus {
        Bus {
            inflight: Vec::new(),
            latency,
            drop: None,
            tx: vec![0; 512],
            rx: vec![0; 512],
        }
    }
    fn send(&mut self, now: u64, src: u32, dst: u32, msg: WireMsg) {
        if (src as usize) < self.tx.len() {
            self.tx[src as usize] += 1;
        }
        self.inflight.push((now + self.latency, src, dst, msg));
    }
}

struct Cluster {
    nodes: Vec<HcNode<EchoService>>,
    alive: Vec<bool>,
    agg: Aggregator,
    fc: Option<FlowControl>,
    bus: Bus,
    now: u64,
    /// Responses the client has observed: (rid, body).
    responses: Vec<(ReqId, Bytes)>,
    nacks: u64,
    /// AppendEntries a leader emitted while handling an AGG_COMMIT.
    appends_on_agg_commit: u64,
    alloc: ReqIdAlloc,
    arena: bytes::ByteArena,
}

impl Cluster {
    fn new(n: u32, mode: Mode, with_fc: Option<u32>) -> Cluster {
        let members: Vec<RaftId> = (0..n).collect();
        let nodes = members
            .iter()
            .map(|&id| {
                let mut rc = raft::Config::new(id, members.clone());
                rc.seed = 40 + id as u64 * 13;
                let mut cfg = HcConfig::new(rc, mode);
                cfg.agg_addr = (mode == Mode::HovercraftPp).then_some(AGG);
                cfg.flowctl_addr = with_fc.map(|_| VIP);
                cfg.policy = PolicyKind::Jbsq;
                HcNode::new(cfg, EchoService::default(), 0)
            })
            .collect();
        Cluster {
            nodes,
            alive: vec![true; n as usize],
            agg: Aggregator::new(members),
            fc: with_fc.map(|cap| FlowControl::new(GROUP, cap)),
            bus: Bus::new(5_000), // 5µs one-way
            now: 0,
            responses: Vec::new(),
            nacks: 0,
            appends_on_agg_commit: 0,
            alloc: ReqIdAlloc::new(CLIENT, 1000),
            arena: bytes::ByteArena::new(),
        }
    }

    /// Steps `node` with one input and returns the outputs. The bus has no
    /// receive queue, so every step ends a batch.
    fn step_node(&mut self, node: u32, input: Input) -> Vec<Output> {
        let mut outs = Vec::new();
        self.nodes[node as usize].step(self.now, input, true, &mut outs, &mut self.arena);
        outs
    }

    fn handle_outputs(&mut self, node: u32, outs: Vec<Output>) {
        for o in outs {
            match o {
                Output::Send { dst, msg } => self.bus.send(self.now, node, dst, msg),
                Output::Execute { index, .. } => {
                    // Logical harness: app work completes instantly and in
                    // order.
                    let outs = self.step_node(node, Input::ExecDone(index));
                    self.handle_outputs(node, outs);
                }
            }
        }
    }

    fn deliver_to_node(&mut self, node: u32, src: u32, msg: WireMsg) {
        if !self.alive[node as usize] {
            return;
        }
        if (node as usize) < self.bus.rx.len() {
            self.bus.rx[node as usize] += 1;
        }
        let agg_commit = matches!(msg, WireMsg::AggCommit { .. });
        let outs = self.step_node(node, Input::Message { src, msg });
        if agg_commit {
            self.appends_on_agg_commit += outs
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        Output::Send {
                            msg: WireMsg::Raft(raft::Message::AppendEntries { .. }),
                            ..
                        }
                    )
                })
                .count() as u64;
        }
        self.handle_outputs(node, outs);
    }

    fn step(&mut self, dt: u64) {
        self.now += dt;
        for id in 0..self.nodes.len() {
            if !self.alive[id] {
                continue;
            }
            let outs = self.step_node(id as u32, Input::Tick);
            self.handle_outputs(id as u32, outs);
        }
        let mut due = Vec::new();
        let now = self.now;
        self.bus.inflight.retain(|m| {
            if m.0 <= now {
                due.push((m.1, m.2, m.3.clone()));
                false
            } else {
                true
            }
        });
        for (src, dst, msg) in due {
            if let Some(f) = self.bus.drop.as_mut() {
                if f(&msg, dst) {
                    continue;
                }
            }
            match dst {
                GROUP => {
                    for n in 0..self.nodes.len() as u32 {
                        if n != src {
                            self.deliver_to_node(n, src, msg.clone());
                        }
                    }
                }
                AGG => {
                    let emissions = self.agg.on_packet(src, msg);
                    for (d, m) in emissions {
                        self.bus.send(self.now, AGG, d, m);
                    }
                }
                VIP => {
                    let Some(fc) = self.fc.as_mut() else { continue };
                    match fc.on_packet(&msg, self.now) {
                        FcDecision::Admit { rewritten_dst } => {
                            self.bus.send(self.now, src, rewritten_dst, msg);
                        }
                        FcDecision::Nack { client, id } => {
                            self.bus.send(self.now, VIP, client, WireMsg::Nack { id });
                        }
                        FcDecision::Absorbed | FcDecision::Pass => {}
                    }
                }
                CLIENT => match msg {
                    WireMsg::Response { id, body } => self.responses.push((id, body)),
                    WireMsg::Nack { .. } => self.nacks += 1,
                    _ => {}
                },
                n if (n as usize) < self.nodes.len() => self.deliver_to_node(n, src, msg),
                _ => {}
            }
        }
    }

    fn run_ms(&mut self, ms: u64) {
        for _ in 0..ms * 4 {
            self.step(250_000);
        }
    }

    fn leader(&self) -> Option<u32> {
        (0..self.nodes.len())
            .filter(|&i| self.alive[i] && self.nodes[i].is_leader())
            .max_by_key(|&i| self.nodes[i].raft().term())
            .map(|i| i as u32)
    }
}

/// A [`Cluster`] plus the deployment mode, which decides where client
/// requests are addressed.
struct TestCluster {
    c: Cluster,
    mode: Mode,
}

impl std::ops::Deref for TestCluster {
    type Target = Cluster;
    fn deref(&self) -> &Cluster {
        &self.c
    }
}
impl std::ops::DerefMut for TestCluster {
    fn deref_mut(&mut self) -> &mut Cluster {
        &mut self.c
    }
}

impl TestCluster {
    fn new(n: u32, mode: Mode) -> TestCluster {
        TestCluster {
            c: Cluster::new(n, mode, None),
            mode,
        }
    }
    fn with_flowctl(n: u32, mode: Mode, cap: u32) -> TestCluster {
        TestCluster {
            c: Cluster::new(n, mode, Some(cap)),
            mode,
        }
    }
    fn send(&mut self, kind: OpKind, body: &[u8]) -> ReqId {
        let id = self.c.alloc.allocate();
        let msg = WireMsg::Request {
            id,
            kind,
            body: Bytes::copy_from_slice(body),
        };
        let dst = match self.mode {
            Mode::Vanilla => self.c.leader().expect("vanilla needs a leader"),
            _ if self.c.fc.is_some() => VIP,
            _ => GROUP,
        };
        let now = self.c.now;
        self.c.bus.send(now, CLIENT, dst, msg);
        id
    }
}

fn settle(mode: Mode, n: u32) -> TestCluster {
    let mut tc = TestCluster::new(n, mode);
    tc.run_ms(100);
    assert!(tc.leader().is_some(), "leader elected");
    tc
}

#[test]
fn hovercraft_round_trip_single_reply() {
    let mut tc = settle(Mode::Hovercraft, 3);
    let id = tc.send(OpKind::ReadWrite, b"hello");
    tc.run_ms(10);
    assert_eq!(tc.responses.len(), 1, "exactly one reply");
    assert_eq!(tc.responses[0].0, id);
    assert_eq!(&tc.responses[0].1[..], b"hello");
}

#[test]
fn vanilla_round_trip_leader_replies() {
    let mut tc = settle(Mode::Vanilla, 3);
    let leader = tc.leader().unwrap();
    for i in 0..5u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
        tc.run_ms(5);
    }
    assert_eq!(tc.responses.len(), 5);
    // Only the leader responds in vanilla mode.
    for (i, n) in tc.nodes.iter().enumerate() {
        let s = n.stats();
        if i as u32 == leader {
            assert_eq!(s.responses, 5);
        } else {
            assert_eq!(s.responses, 0);
        }
    }
    // And every node executed every write (full SMR).
    for n in &tc.nodes {
        assert_eq!(n.service().writes, 5);
    }
}

#[test]
fn hovercraft_replicates_writes_everywhere() {
    let mut tc = settle(Mode::Hovercraft, 3);
    for i in 0..10u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
        tc.run_ms(5);
    }
    tc.run_ms(20);
    assert_eq!(tc.responses.len(), 10);
    for (i, n) in tc.nodes.iter().enumerate() {
        assert_eq!(n.service().writes, 10, "node {i} applied all writes");
        assert_eq!(n.applied_index(), tc.nodes[0].applied_index());
    }
}

#[test]
fn replies_are_load_balanced_across_nodes() {
    let mut tc = settle(Mode::Hovercraft, 3);
    for i in 0..60u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
        if i % 4 == 3 {
            tc.run_ms(3);
        }
    }
    tc.run_ms(50);
    assert_eq!(tc.responses.len(), 60);
    let responders = tc.nodes.iter().filter(|n| n.stats().responses > 0).count();
    assert!(
        responders >= 2,
        "replies spread over ≥2 nodes, got {responders}"
    );
}

#[test]
fn read_only_ops_execute_on_exactly_one_node() {
    let mut tc = settle(Mode::Hovercraft, 3);
    for i in 0..30u64 {
        tc.send(OpKind::ReadOnly, &i.to_le_bytes());
        if i % 5 == 4 {
            tc.run_ms(3);
        }
    }
    tc.run_ms(50);
    assert_eq!(tc.responses.len(), 30);
    let total_exec: u64 = tc.nodes.iter().map(|n| n.stats().executed).sum();
    let total_skip: u64 = tc.nodes.iter().map(|n| n.stats().ro_skipped).sum();
    assert_eq!(total_exec, 30, "each RO op executed exactly once");
    assert_eq!(total_skip, 60, "and skipped on the other two nodes");
    // Reads never mutate the echo service's write counter.
    for n in &tc.nodes {
        assert_eq!(n.service().writes, 0);
    }
}

#[test]
fn hovercraft_pp_commits_through_aggregator() {
    let mut tc = settle(Mode::HovercraftPp, 3);
    // Bootstrap: first entries flow point-to-point until the leader trusts
    // the aggregator and a current-term entry commits.
    for i in 0..20u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
        tc.run_ms(5);
    }
    tc.run_ms(20);
    assert_eq!(tc.responses.len(), 20);
    let leader = tc.leader().unwrap();
    assert!(
        tc.nodes[leader as usize].aggregator_confirmed(),
        "leader confirmed the aggregator via VoteProbe"
    );
    let st = tc.agg.stats();
    assert!(st.fanouts > 0, "aggregator fanned out appends");
    assert!(st.commits_sent > 0, "aggregator multicast AGG_COMMITs");
    assert!(st.replies_absorbed >= st.commits_sent);
    for n in &tc.nodes {
        assert_eq!(n.service().writes, 20);
    }
}

#[test]
fn agg_commit_is_the_commit_notification() {
    // §4 / Table 1: the AGG_COMMIT multicast already told every follower
    // the commit index, so a leader with nothing new to announce answers
    // it with silence — no empty AppendEntries through the aggregator, no
    // echo round. Requests are spaced so each finds the pipeline idle.
    let mut tc = settle(Mode::HovercraftPp, 5);
    for i in 0..10u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
        tc.run_ms(5);
    }
    let commits_before = tc.agg.stats().commits_sent;
    tc.appends_on_agg_commit = 0;
    for i in 0..40u64 {
        tc.send(OpKind::ReadWrite, &(1000 + i).to_le_bytes());
        tc.run_ms(5);
    }
    assert_eq!(tc.responses.len(), 50);
    assert!(
        tc.agg.stats().commits_sent >= commits_before + 40,
        "every request committed through the aggregator"
    );
    assert_eq!(tc.appends_on_agg_commit, 0);
    for n in &tc.nodes {
        assert_eq!(n.service().writes, 50, "every replica applied everything");
    }
}

/// The AppendEntries in `outs` that carry entries, as (destination, entry
/// count).
fn data_appends(outs: &[Output]) -> Vec<(u32, usize)> {
    let mut v: Vec<(u32, usize)> = outs
        .iter()
        .filter_map(|o| match o {
            Output::Send {
                dst,
                msg: WireMsg::Raft(raft::Message::AppendEntries { entries, .. }),
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
        let mut tc = settle(mode, 5);
        // Warm-up: HC++ routes through the aggregator once it answered the
        // leader's probe and an entry of the term has committed.
        for i in 0..5u64 {
            tc.send(OpKind::ReadWrite, &i.to_le_bytes());
            tc.run_ms(5);
        }
        let l = tc.leader().expect("leader");
        // A batch-ending tick at the instant the cluster just ticked: due
        // for nothing itself, so whatever it sends is the flush's.
        let idle = tc.step_node(l, Input::Tick);
        assert!(idle.is_empty(), "{mode:?}: nothing new, nothing sent");

        let before = tc.nodes[l as usize].stats();
        let mut outs = Vec::new();
        for i in 0..K as u64 {
            let msg = WireMsg::Request {
                id: tc.c.alloc.allocate(),
                kind: OpKind::ReadWrite,
                body: Bytes::copy_from_slice(&(100 + i).to_le_bytes()),
            };
            let input = Input::Message { src: CLIENT, msg };
            tc.c.nodes[l as usize].step(tc.c.now, input, false, &mut outs, &mut tc.c.arena);
        }
        assert_eq!(
            data_appends(&outs),
            [],
            "{mode:?}: requests alone ship nothing"
        );
        let outs = tc.step_node(l, Input::Tick);
        let expected: Vec<(u32, usize)> = match mode {
            Mode::HovercraftPp => vec![(AGG, K)],
            _ => (0..5).filter(|&n| n != l).map(|n| (n, K)).collect(),
        };
        assert_eq!(data_appends(&outs), expected, "{mode:?}");
        let after = tc.nodes[l as usize].stats();
        assert_eq!(
            after.appends_sent - before.appends_sent,
            expected.len() as u64
        );
        assert_eq!(
            after.entries_sent - before.entries_sent,
            (expected.len() * K) as u64
        );

        let again = tc.step_node(l, Input::Tick);
        assert!(again.is_empty(), "{mode:?}: a second flush has nothing new");
    }
}

/// A driver that never drains holds one step's events, not the node's
/// history: after 10 000 undrained steps, `drain_events` returns exactly
/// what the last one recorded.
#[test]
fn undrained_events_do_not_outlive_their_step() {
    let mut tc = settle(Mode::Hovercraft, 3);
    let l = tc.leader().expect("leader");
    let mut last = None;
    for i in 0..10_000u64 {
        let id = tc.c.alloc.allocate();
        let msg = WireMsg::Request {
            id,
            kind: OpKind::ReadWrite,
            body: Bytes::copy_from_slice(&i.to_le_bytes()),
        };
        tc.step_node(l, Input::Message { src: CLIENT, msg });
        last = Some(id);
    }
    // Every replier queue filled long ago, so the last request was
    // proposed and left unannounced: one event.
    let node = &mut tc.c.nodes[l as usize];
    let index = node.raft().log().last_index();
    let events: Vec<ProtoEvent> = node.drain_events().collect();
    let id = last.expect("requests were sent");
    assert_eq!(events, [ProtoEvent::Proposed { index, id }]);
    assert_eq!(node.drain_events().count(), 0, "drained means empty");
}

#[test]
fn aggregator_offloads_leader_rx() {
    // Table 1: in HC++ the leader receives ~1 message per request
    // (AGG_COMMIT) instead of N-1 append replies.
    let mut hc = settle(Mode::Hovercraft, 5);
    let mut pp = settle(Mode::HovercraftPp, 5);
    for tc in [&mut hc, &mut pp] {
        // Warm up to steady state, then measure.
        for i in 0..10u64 {
            tc.send(OpKind::ReadWrite, &i.to_le_bytes());
            tc.run_ms(5);
        }
        let l = tc.leader().unwrap() as usize;
        tc.bus.rx[l] = 0;
        for i in 0..40u64 {
            tc.send(OpKind::ReadWrite, &(1000 + i).to_le_bytes());
            tc.run_ms(5);
        }
    }
    let rx_hc = hc.bus.rx[hc.leader().unwrap() as usize];
    let rx_pp = pp.bus.rx[pp.leader().unwrap() as usize];
    assert!(
        rx_pp * 2 < rx_hc,
        "HC++ leader RX ({rx_pp}) should be well below HovercRaft ({rx_hc})"
    );
}

#[test]
fn lost_multicast_copy_recovers_from_leader() {
    let mut tc = settle(Mode::Hovercraft, 3);
    let victim = (0..3u32).find(|&n| Some(n) != tc.leader()).unwrap();
    // Simulate a lost multicast copy: deliver the request to every node
    // except the victim follower.
    let id = tc.alloc.allocate();
    let msg = WireMsg::Request {
        id,
        kind: OpKind::ReadWrite,
        body: Bytes::from_static(b"lossy"),
    };
    for n in 0..3u32 {
        if n != victim {
            let now = tc.now;
            tc.c.bus.send(now, CLIENT, n, msg.clone());
        }
    }
    tc.run_ms(30);
    assert_eq!(tc.responses.len(), 1);
    // The victim recovered the body and applied the entry.
    let v = &tc.nodes[victim as usize];
    assert_eq!(v.service().writes, 1, "victim executed after recovery");
    assert!(v.stats().recoveries_sent >= 1, "victim used recovery");
    let served: u64 = tc.nodes.iter().map(|n| n.stats().recoveries_served).sum();
    assert!(served >= 1, "someone served the recovery");
}

#[test]
fn leader_failure_elects_new_leader_and_resumes() {
    let mut tc = settle(Mode::Hovercraft, 3);
    for i in 0..5u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
        tc.run_ms(5);
    }
    assert_eq!(tc.responses.len(), 5);
    let old = tc.leader().unwrap();
    tc.c.alive[old as usize] = false;
    tc.run_ms(300);
    let new = tc.leader().expect("re-elected");
    assert_ne!(new, old);
    // The new leader's fresh ledger will assign up to B = 128 entries to
    // the dead node before its bounded queue fills (their replies are
    // lost); everything beyond that must be answered.
    for i in 0..300u64 {
        tc.send(OpKind::ReadWrite, &(100 + i).to_le_bytes());
        if i % 4 == 3 {
            tc.run_ms(2);
        }
    }
    tc.run_ms(100);
    assert!(
        tc.responses.len() >= 305 - 128 - 5,
        "post-failover requests served ({})",
        tc.responses.len()
    );
    // Survivors agree on the applied prefix.
    let survivors: Vec<usize> = (0..3).filter(|&i| i != old as usize).collect();
    assert_eq!(
        tc.nodes[survivors[0]].applied_index(),
        tc.nodes[survivors[1]].applied_index()
    );
}

/// Checks, on every live replica, that each committed entry's `desc.hash`
/// is the hash of the body that replica itself holds for it (inline in
/// Vanilla mode, pooled otherwise), and returns how many entries the
/// replica that committed the fewest had.
fn committed_hashes_match_local_bodies(tc: &TestCluster) -> u64 {
    let mut fewest = u64::MAX;
    for (n, node) in tc.nodes.iter().enumerate() {
        if !tc.alive[n] {
            continue;
        }
        let log = node.raft().log();
        let commit = node.raft().commit_index();
        for idx in log.first_index()..=commit {
            let e = log.get(idx).expect("committed entry present");
            let id = e.cmd.desc.id;
            let body = match &e.cmd.body {
                Some(inline) => inline,
                None => match node.pool().get(id) {
                    Some(held) => &held.body,
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
        let mut tc = settle(mode, 3);
        for i in 0..40u64 {
            tc.send(OpKind::ReadWrite, &padded_body(i));
            if i % 4 == 3 {
                tc.run_ms(3);
            }
        }
        tc.run_ms(30);
        assert_eq!(tc.responses.len(), 40, "{mode:?}");
        assert_eq!(committed_hashes_match_local_bodies(&tc), 40, "{mode:?}");
    }
}

#[test]
fn backlog_flushed_by_a_new_leader_carries_body_hashes() {
    let mut tc = settle(Mode::Hovercraft, 3);
    for i in 0..5u64 {
        tc.send(OpKind::ReadWrite, &padded_body(i));
        tc.run_ms(5);
    }
    let old = tc.leader().unwrap();
    tc.c.alive[old as usize] = false;
    // The multicast still reaches the survivors, which park the requests
    // unhashed; nobody orders them until one of the two wins the election
    // and flushes its unordered set (§5) — the other hashing site.
    for i in 0..20u64 {
        tc.send(OpKind::ReadWrite, &padded_body(100 + i));
    }
    tc.run_ms(2);
    let parked: Vec<usize> = (0..3usize)
        .filter(|&n| tc.alive[n])
        .map(|n| tc.nodes[n].pool().unordered_len())
        .collect();
    assert_eq!(parked, [20, 20], "survivors hold the backlog unordered");
    tc.run_ms(300);
    let new = tc.leader().expect("re-elected");
    assert_ne!(new, old);
    // And steady state under the new leader.
    for i in 0..10u64 {
        tc.send(OpKind::ReadWrite, &padded_body(200 + i));
        tc.run_ms(3);
    }
    tc.run_ms(30);
    assert_eq!(committed_hashes_match_local_bodies(&tc), 35);
    for n in (0..3usize).filter(|&n| tc.alive[n]) {
        assert_eq!(
            tc.nodes[n].service().writes,
            35,
            "node {n} applied the backlog"
        );
    }
}

#[test]
fn flow_control_nacks_beyond_cap() {
    let mut tc = TestCluster::with_flowctl(3, Mode::Hovercraft, 4);
    tc.run_ms(100);
    assert!(tc.leader().is_some());
    // Fire a burst of 20 requests in one step: only 4 can be in flight.
    for i in 0..20u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
    }
    tc.run_ms(30);
    assert!(tc.nacks > 0, "some requests were NACKed");
    assert_eq!(
        tc.responses.len() + tc.nacks as usize,
        20,
        "every request either answered or NACKed"
    );
    let fc = tc.c.fc.as_ref().unwrap();
    assert_eq!(fc.in_flight(), 0, "feedback drained the counter");
}

#[test]
fn dead_follower_stops_receiving_assignments() {
    let mut tc = settle(Mode::Hovercraft, 3);
    let leader = tc.leader().unwrap();
    let victim = (0..3u32).find(|&n| n != leader).unwrap();
    tc.c.alive[victim as usize] = false;
    // Throw enough requests that an unbounded balancer would assign many to
    // the dead node. Bound B = 128 (default config).
    for i in 0..400u64 {
        tc.send(OpKind::ReadWrite, &i.to_le_bytes());
        if i % 8 == 7 {
            tc.run_ms(2);
        }
    }
    tc.run_ms(100);
    // All but ≤B requests were answered (those assigned to the dead node
    // before its queue filled are lost — §3.4's bounded loss).
    assert!(
        tc.responses.len() >= 400 - 128,
        "lost replies bounded by B: {} answered",
        tc.responses.len()
    );
    let lost = 400 - tc.responses.len();
    assert!(lost <= 128, "at most B replies lost, got {lost}");
}

#[test]
fn duplicate_client_request_is_ordered_once() {
    let mut tc = settle(Mode::Hovercraft, 3);
    let id = tc.alloc.allocate();
    let msg = WireMsg::Request {
        id,
        kind: OpKind::ReadWrite,
        body: Bytes::from_static(b"dup"),
    };
    // The client "retries" the same request three times.
    for _ in 0..3 {
        let now = tc.now;
        tc.c.bus.send(now, CLIENT, GROUP, msg.clone());
        tc.run_ms(5);
    }
    tc.run_ms(20);
    for n in &tc.nodes {
        assert_eq!(n.service().writes, 1, "executed exactly once per node");
    }
}

/// Pinned regression: restoring a node from a stale incarnation epoch must
/// be rejected with a traceable `restore_rejected` event, not silently
/// accepted (which once produced a node whose dedup/reply state belonged
/// to a *previous* life, double-answering after back-to-back restarts).
#[test]
fn restore_from_stale_epoch_is_rejected() {
    use hovercraft::RestoreRejected;

    let members: Vec<RaftId> = vec![0, 1, 2];
    let rc = raft::Config::new(0, members);
    let cfg = HcConfig::new(rc, Mode::Hovercraft);
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
        err.event().kind(),
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
