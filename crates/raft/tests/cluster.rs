//! Cluster-level tests of the Raft implementation over an ideal in-memory
//! bus with controllable delivery: elections, replication, commit safety,
//! log repair, partitions, and leader failover.

use std::collections::VecDeque;

use raft::{Action, Config, LogIndex, Message, RaftId, RaftNode, Role};

/// A deterministic in-memory cluster harness. Messages are delivered with a
/// fixed latency unless a link is cut; time advances in fixed steps.
struct Harness {
    nodes: Vec<RaftNode<u64>>,
    alive: Vec<bool>,
    /// (deliver_at, from, to, msg)
    inflight: VecDeque<(u64, RaftId, RaftId, Message<u64>)>,
    /// cut[a][b] == true means a → b messages are dropped.
    cut: Vec<Vec<bool>>,
    now: u64,
    latency: u64,
    committed: Vec<Vec<u64>>, // applied commands per node, in order
}

impl Harness {
    fn new(n: usize) -> Harness {
        let members: Vec<RaftId> = (0..n as RaftId).collect();
        let nodes = members
            .iter()
            .map(|&id| {
                let mut cfg = Config::new(id, members.clone());
                // Distinct, spread-out seeds give clean single-candidate
                // elections in most tests.
                cfg.seed = 1000 + id as u64 * 7;
                RaftNode::new(cfg, 0)
            })
            .collect();
        Harness {
            nodes,
            alive: vec![true; n],
            inflight: VecDeque::new(),
            cut: vec![vec![false; n]; n],
            now: 0,
            latency: 10_000, // 10µs
            committed: vec![Vec::new(); n],
        }
    }

    fn handle(&mut self, id: RaftId, actions: Vec<Action<u64>>) {
        for a in actions {
            match a {
                Action::Send { to, msg }
                    if self.alive[id as usize] && !self.cut[id as usize][to as usize] =>
                {
                    self.inflight
                        .push_back((self.now + self.latency, id, to, msg));
                }
                Action::Commit { upto } => {
                    // Apply newly committed entries in order.
                    let node = &self.nodes[id as usize];
                    let from = self.committed[id as usize].len() as LogIndex + 1;
                    for e in node.log().range(from, upto) {
                        self.committed[id as usize].push(*e.cmd);
                    }
                    let applied = self.committed[id as usize].len() as LogIndex;
                    self.nodes[id as usize].set_applied(applied);
                }
                _ => {}
            }
        }
    }

    /// Advances time by `dt`, ticking every node and delivering due
    /// messages.
    fn step(&mut self, dt: u64) {
        self.now += dt;
        for id in 0..self.nodes.len() {
            if !self.alive[id] {
                continue;
            }
            let mut acts = Vec::new();
            self.nodes[id].tick_into(self.now, &mut acts);
            self.handle(id as RaftId, acts);
        }
        let mut due = Vec::new();
        self.inflight.retain(|m| {
            if m.0 <= self.now {
                due.push(m.clone());
                false
            } else {
                true
            }
        });
        for (_, from, to, msg) in due {
            if !self.alive[to as usize] {
                continue;
            }
            let mut acts = Vec::new();
            self.nodes[to as usize].step_into(from, msg, self.now, &mut acts);
            self.handle(to, acts);
        }
    }

    /// Runs for `total` ns in 0.5 ms steps.
    fn run(&mut self, total: u64) {
        let step = 500_000;
        let mut t = 0;
        while t < total {
            self.step(step);
            t += step;
        }
    }

    fn leader(&self) -> Option<RaftId> {
        let leaders: Vec<RaftId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| self.alive[*i] && n.is_leader())
            .map(|(i, _)| i as RaftId)
            .collect();
        match leaders.as_slice() {
            [l] => Some(*l),
            [] => None,
            many => {
                // Multiple leaders may coexist transiently across terms; the
                // highest term is the real one.
                many.iter()
                    .copied()
                    .max_by_key(|&l| self.nodes[l as usize].term())
            }
        }
    }

    fn propose(&mut self, cmd: u64) -> Option<LogIndex> {
        let l = self.leader()?;
        let idx = self.nodes[l as usize].propose(cmd).ok()?;
        let mut acts = Vec::new();
        self.nodes[l as usize].pump_into(self.now, &mut acts);
        self.handle(l, acts);
        Some(idx)
    }
}

#[test]
fn elects_exactly_one_leader() {
    let mut h = Harness::new(3);
    h.run(100_000_000);
    let l = h.leader().expect("a leader");
    let term = h.nodes[l as usize].term();
    let leaders = h
        .nodes
        .iter()
        .filter(|n| n.is_leader() && n.term() == term)
        .count();
    assert_eq!(leaders, 1);
    // Followers agree on who leads.
    for n in &h.nodes {
        if !n.is_leader() {
            assert_eq!(n.leader_hint(), Some(l));
            assert_eq!(n.role(), Role::Follower);
        }
    }
}

#[test]
fn replicates_and_commits_everywhere() {
    let mut h = Harness::new(3);
    h.run(100_000_000);
    for i in 0..20 {
        h.propose(i).expect("leader accepts");
        h.run(2_000_000);
    }
    h.run(20_000_000);
    let expect: Vec<u64> = (0..20).collect();
    for (i, c) in h.committed.iter().enumerate() {
        assert_eq!(c, &expect, "node {i} applied sequence");
    }
}

#[test]
fn five_node_cluster_commits() {
    let mut h = Harness::new(5);
    h.run(100_000_000);
    for i in 0..10 {
        h.propose(i * 3).unwrap();
        h.run(2_000_000);
    }
    h.run(20_000_000);
    for c in &h.committed {
        assert_eq!(c.len(), 10);
    }
}

#[test]
fn leader_failover_preserves_committed_prefix() {
    let mut h = Harness::new(3);
    h.run(100_000_000);
    for i in 0..5 {
        h.propose(i).unwrap();
        h.run(2_000_000);
    }
    h.run(10_000_000);
    let old = h.leader().unwrap();
    let committed_before = h.committed[old as usize].clone();
    assert_eq!(committed_before.len(), 5);

    h.alive[old as usize] = false;
    h.run(200_000_000);
    let new = h.leader().expect("new leader elected");
    assert_ne!(new, old);

    for i in 5..10 {
        h.propose(i).unwrap();
        h.run(2_000_000);
    }
    h.run(20_000_000);
    for (i, c) in h.committed.iter().enumerate() {
        if i == old as usize {
            continue;
        }
        assert_eq!(c[..5], committed_before[..], "node {i} prefix");
        assert_eq!(c.len(), 10, "node {i} caught up");
    }
}

#[test]
fn minority_partition_cannot_commit() {
    let mut h = Harness::new(5);
    h.run(100_000_000);
    let l = h.leader().unwrap();
    // Partition the leader together with exactly one follower.
    let buddy = (0..5u32).find(|&x| x != l).unwrap();
    for a in 0..5u32 {
        for b in 0..5u32 {
            let a_in = a == l || a == buddy;
            let b_in = b == l || b == buddy;
            if a_in != b_in {
                h.cut[a as usize][b as usize] = true;
            }
        }
    }
    // Old leader accepts a proposal but can never commit it.
    let before = h.committed[l as usize].len();
    h.nodes[l as usize].propose(99).unwrap();
    let mut acts = Vec::new();
    h.nodes[l as usize].pump_into(h.now, &mut acts);
    h.handle(l, acts);
    h.run(300_000_000);
    assert_eq!(
        h.committed[l as usize].len(),
        before,
        "no quorum, no commit"
    );
    // The majority side elected a new leader that can commit.
    let majority_leader = h.leader().expect("majority leader");
    assert!(majority_leader != l && majority_leader != buddy);
    let idx = h.propose(7).unwrap();
    h.run(20_000_000);
    assert!(h.nodes[majority_leader as usize].commit_index() >= idx);
}

#[test]
fn healed_partition_repairs_divergent_logs() {
    let mut h = Harness::new(5);
    h.run(100_000_000);
    let l = h.leader().unwrap();
    let buddy = (0..5u32).find(|&x| x != l).unwrap();
    for a in 0..5u32 {
        for b in 0..5u32 {
            let a_in = a == l || a == buddy;
            let b_in = b == l || b == buddy;
            if a_in != b_in {
                h.cut[a as usize][b as usize] = true;
            }
        }
    }
    // Diverge: old leader appends uncommittable entries.
    h.nodes[l as usize].propose(666).unwrap();
    h.nodes[l as usize].propose(667).unwrap();
    let mut acts = Vec::new();
    h.nodes[l as usize].pump_into(h.now, &mut acts);
    h.handle(l, acts);
    h.run(300_000_000);
    // Majority commits different entries.
    h.propose(1).unwrap();
    h.run(10_000_000);
    h.propose(2).unwrap();
    h.run(10_000_000);
    // Heal.
    for a in 0..5 {
        for b in 0..5 {
            h.cut[a][b] = false;
        }
    }
    h.run(300_000_000);
    for i in 0..5 {
        assert_eq!(h.committed[i], vec![1, 2], "node {i} repaired");
    }
}

#[test]
fn ceiling_withholds_entries_until_raised() {
    let mut h = Harness::new(3);
    h.run(100_000_000);
    let l = h.leader().unwrap() as usize;
    let base = h.nodes[l].log().last_index();
    h.nodes[l].set_ceiling(base); // freeze announcements
    h.nodes[l].propose(11).unwrap();
    h.nodes[l].propose(12).unwrap();
    let mut acts = Vec::new();
    h.nodes[l].pump_into(h.now, &mut acts);
    h.handle(l as RaftId, acts);
    h.run(50_000_000);
    assert_eq!(
        h.nodes[l].commit_index(),
        base,
        "entries above the ceiling never commit"
    );
    for (i, n) in h.nodes.iter().enumerate() {
        if i != l {
            assert_eq!(n.log().last_index(), base, "follower {i} saw nothing");
        }
    }
    // Raise the ceiling: both entries flow and commit.
    h.nodes[l].set_ceiling(base + 2);
    let mut acts = Vec::new();
    h.nodes[l].pump_into(h.now, &mut acts);
    h.handle(l as RaftId, acts);
    h.run(50_000_000);
    assert_eq!(h.nodes[l].commit_index(), base + 2);
    let tail = |v: &Vec<u64>| v.iter().rev().take(2).copied().collect::<Vec<_>>();
    for c in &h.committed {
        assert_eq!(tail(c), vec![12, 11]);
    }
}

#[test]
fn lossy_network_still_makes_progress() {
    // Drop every third message by cutting links intermittently.
    let mut h = Harness::new(3);
    h.run(100_000_000);
    for (k, i) in (0..30u64).enumerate() {
        // Toggle one random-ish link each round.
        let a = k % 3;
        let b = (k + 1) % 3;
        h.cut[a][b] = k.is_multiple_of(3);
        if h.propose(i).is_some() {
            h.run(3_000_000);
        } else {
            h.run(30_000_000);
        }
    }
    for a in 0..3 {
        for b in 0..3 {
            h.cut[a][b] = false;
        }
    }
    h.run(100_000_000);
    // All alive nodes converge to identical applied sequences.
    assert!(h.committed[0].len() >= 25);
    assert_eq!(h.committed[0], h.committed[1]);
    assert_eq!(h.committed[1], h.committed[2]);
}

#[test]
fn applied_index_propagates_to_leader() {
    let mut h = Harness::new(3);
    h.run(100_000_000);
    for i in 0..5 {
        h.propose(i).unwrap();
        h.run(2_000_000);
    }
    h.run(30_000_000);
    let l = h.leader().unwrap() as usize;
    let last = h.nodes[l].log().last_index();
    for peer in 0..3u32 {
        if peer as usize == l {
            continue;
        }
        let p = h.nodes[l].progress(peer).expect("progress tracked");
        assert_eq!(p.matched, last, "peer {peer} matched");
        assert_eq!(p.applied, last, "peer {peer} applied reported");
    }
}

#[test]
fn stale_term_messages_are_rejected() {
    let mut h = Harness::new(3);
    h.run(100_000_000);
    let l = h.leader().unwrap();
    let term = h.nodes[l as usize].term();
    // A stale AppendEntries from a deposed "leader" at term-1.
    let stale: Message<u64> = Message::AppendEntries {
        term: term - 1,
        leader: 99,
        prev_log_index: 0,
        prev_log_term: 0,
        entries: vec![],
        leader_commit: 0,
    };
    let follower = (0..3u32).find(|&x| x != l).unwrap();
    let mut acts = Vec::new();
    h.nodes[follower as usize].step_into(99, stale, h.now, &mut acts);
    let mut rejected = false;
    for a in acts {
        if let Action::Send {
            msg: Message::AppendEntriesReply {
                success, term: t, ..
            },
            ..
        } = a
        {
            assert!(!success);
            assert_eq!(t, term);
            rejected = true;
        }
    }
    assert!(rejected);
    assert_eq!(h.nodes[follower as usize].term(), term, "term unchanged");
}

#[test]
fn replication_pipeline_to_a_silent_follower_is_bounded() {
    let mut h = Harness::new(3);
    h.run(100_000_000);
    let l = h.leader().expect("a leader") as usize;
    let f = (0..3).find(|&i| i != l).unwrap();
    let base = h.nodes[l].progress(f as RaftId).unwrap().matched;

    // Silence the follower's replies (it still receives everything), then
    // offer far more than one pipeline window of new entries.
    h.cut[f][l] = true;
    for c in 0..1_000 {
        h.propose(c);
        h.step(10_000);
    }
    h.run(2_000_000); // drain in-flight acks from the responsive follower

    // The leader must not stream past max_inflight unacked entries; the
    // follower's log shows exactly what was put on the wire for it.
    // (Heartbeat retransmits resend the same window, not fresh entries.)
    let max_inflight = 256; // Config::new default
    let shipped = h.nodes[f].log().last_index();
    assert!(
        h.nodes[l].log().last_index() >= 1_000,
        "leader kept appending"
    );
    assert!(
        shipped <= base + max_inflight,
        "silent follower was streamed {} entries past its last ack (cap {})",
        shipped - base,
        max_inflight
    );
    assert!(
        h.nodes[l].commit_index() >= 1_000,
        "the responsive majority still commits"
    );

    // Once replies flow again, retransmit-from-matched plus the reopened
    // window catch the follower all the way up.
    h.cut[f][l] = false;
    h.run(50_000_000);
    assert_eq!(
        h.nodes[f].log().last_index(),
        h.nodes[l].log().last_index(),
        "healed follower catches up fully"
    );
}
