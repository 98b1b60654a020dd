//! Property-based tests of Raft's safety invariants under adversarial
//! message schedules: randomized delivery delays, drops, duplications, and
//! node crashes must never violate Election Safety, Log Matching, or the
//! State Machine Safety property (committed prefixes never diverge).

use std::collections::BTreeMap;

use proptest::prelude::*;
use raft::{Action, Config, LogIndex, Message, RaftId, RaftNode, Term};

/// One scheduled network event.
#[derive(Clone, Debug)]
struct NetEvent {
    deliver_at: u64,
    from: RaftId,
    to: RaftId,
    msg: Message<u64>,
}

/// A deterministic chaos harness: messages are delayed by schedule-driven
/// amounts, dropped or duplicated by schedule-driven coin flips.
struct Chaos {
    nodes: Vec<RaftNode<u64>>,
    alive: Vec<bool>,
    inflight: Vec<NetEvent>,
    now: u64,
    /// Per-term leaders observed (for Election Safety).
    leaders_by_term: BTreeMap<Term, Vec<RaftId>>,
    /// Applied command sequences (for State Machine Safety).
    applied: Vec<Vec<(LogIndex, u64)>>,
    /// Schedule randomness, consumed round-robin.
    dice: Vec<u8>,
    dice_pos: usize,
}

impl Chaos {
    fn new(n: usize, dice: Vec<u8>) -> Chaos {
        let members: Vec<RaftId> = (0..n as RaftId).collect();
        let nodes = members
            .iter()
            .map(|&id| {
                let mut cfg = Config::new(id, members.clone());
                cfg.seed = 7_777 + id as u64;
                RaftNode::new(cfg, 0)
            })
            .collect();
        Chaos {
            nodes,
            alive: vec![true; n],
            inflight: Vec::new(),
            now: 0,
            leaders_by_term: BTreeMap::new(),
            applied: vec![Vec::new(); n],
            dice,
            dice_pos: 0,
        }
    }

    fn roll(&mut self) -> u8 {
        if self.dice.is_empty() {
            return 0;
        }
        let v = self.dice[self.dice_pos % self.dice.len()];
        self.dice_pos += 1;
        v
    }

    fn handle(&mut self, id: usize, actions: Vec<Action<u64>>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    let roll = self.roll();
                    if roll < 40 {
                        continue; // ~16% drop
                    }
                    let delay = 5_000 + (roll as u64 % 7) * 20_000; // 5..125µs
                    let ev = NetEvent {
                        deliver_at: self.now + delay,
                        from: id as RaftId,
                        to,
                        msg,
                    };
                    if roll > 230 {
                        self.inflight.push(ev.clone()); // ~10% duplicate
                    }
                    self.inflight.push(ev);
                }
                Action::BecameLeader { term } => {
                    self.leaders_by_term
                        .entry(term)
                        .or_default()
                        .push(id as RaftId);
                }
                Action::Commit { upto } => {
                    let from = self.applied[id].last().map(|(i, _)| i + 1).unwrap_or(1);
                    let new: Vec<(LogIndex, u64)> = self.nodes[id]
                        .log()
                        .range(from, upto)
                        .map(|e| (e.index, *e.cmd))
                        .collect();
                    self.applied[id].extend(new);
                    let last = upto.min(self.nodes[id].log().last_index());
                    self.nodes[id].set_applied(last);
                }
                _ => {}
            }
        }
    }

    fn step(&mut self, dt: u64) {
        self.now += dt;
        for id in 0..self.nodes.len() {
            if !self.alive[id] {
                continue;
            }
            let mut acts = Vec::new();
            self.nodes[id].tick_into(self.now, &mut acts);
            self.handle(id, acts);
        }
        let now = self.now;
        let mut due = Vec::new();
        self.inflight.retain(|e| {
            if e.deliver_at <= now {
                due.push(e.clone());
                false
            } else {
                true
            }
        });
        for e in due {
            if !self.alive[e.to as usize] {
                continue;
            }
            let mut acts = Vec::new();
            self.nodes[e.to as usize].step_into(e.from, e.msg, self.now, &mut acts);
            self.handle(e.to as usize, acts);
        }
    }

    fn try_propose(&mut self, cmd: u64) {
        for id in 0..self.nodes.len() {
            if self.alive[id] && self.nodes[id].is_leader() {
                if self.nodes[id].propose(cmd).is_ok() {
                    let mut acts = Vec::new();
                    self.nodes[id].pump_into(self.now, &mut acts);
                    self.handle(id, acts);
                }
                return;
            }
        }
    }
}

fn check_invariants(c: &Chaos) -> Result<(), TestCaseError> {
    // Election Safety: at most one leader per term.
    for (term, leaders) in &c.leaders_by_term {
        prop_assert!(
            leaders.len() <= 1,
            "term {term} had multiple leaders: {leaders:?}"
        );
    }
    // State Machine Safety: applied sequences are prefixes of each other.
    for a in &c.applied {
        for b in &c.applied {
            let common = a.len().min(b.len());
            prop_assert_eq!(&a[..common], &b[..common], "applied prefixes diverged");
        }
    }
    // Log Matching: same (index, term) ⇒ same command and same prefix.
    for i in 0..c.nodes.len() {
        for j in (i + 1)..c.nodes.len() {
            let (a, b) = (c.nodes[i].log(), c.nodes[j].log());
            let last = a.last_index().min(b.last_index());
            // Find the highest common (index, term); below it, entries must
            // be identical.
            let mut hi = last;
            while hi > 0 && a.term_at(hi) != b.term_at(hi) {
                hi -= 1;
            }
            for idx in 1..=hi {
                if a.term_at(idx) == b.term_at(idx) {
                    prop_assert_eq!(
                        a.get(idx).map(|e| e.cmd),
                        b.get(idx).map(|e| e.cmd),
                        "log matching violated at {}",
                        idx
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Safety under a lossy, duplicating, delaying network.
    #[test]
    fn safety_under_chaotic_network(
        n in prop_oneof![Just(3usize), Just(5usize)],
        dice in proptest::collection::vec(any::<u8>(), 64..512),
        proposals in 5usize..40,
    ) {
        let mut c = Chaos::new(n, dice);
        // Let a leader emerge.
        for _ in 0..100 {
            c.step(1_000_000);
        }
        for p in 0..proposals {
            c.try_propose(p as u64);
            for _ in 0..4 {
                c.step(1_000_000);
            }
        }
        for _ in 0..200 {
            c.step(1_000_000);
        }
        check_invariants(&c)?;
    }

    /// Safety across a randomly timed leader crash.
    #[test]
    fn safety_across_leader_crash(
        dice in proptest::collection::vec(any::<u8>(), 64..512),
        crash_round in 5usize..25,
        proposals in 10usize..30,
    ) {
        let mut c = Chaos::new(3, dice);
        for _ in 0..100 {
            c.step(1_000_000);
        }
        for p in 0..proposals {
            c.try_propose(p as u64);
            for _ in 0..4 {
                c.step(1_000_000);
            }
            if p == crash_round % proposals {
                if let Some(l) = (0..3).find(|&i| c.nodes[i].is_leader()) {
                    c.alive[l] = false;
                }
            }
        }
        for _ in 0..400 {
            c.step(1_000_000);
        }
        check_invariants(&c)?;
        // Liveness: the two survivors still commit (quorum of 3 = 2).
        let max_applied = c.applied.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert!(max_applied > 0, "nothing ever committed");
    }
}
