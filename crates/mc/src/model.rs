//! The small-scope HovercRaft cluster model: state, actions, transition
//! semantics, and invariant evaluation.
//!
//! The model drives the *real* sans-io state machines — [`HcNode`], the
//! raft core underneath it, and (in `hcpp` scopes) the switch
//! [`Aggregator`] — with the checker playing the role the simulation
//! harness plays in the chaos suite: it owns the clocks and the wires.
//! Two deliberate reductions keep the space tractable without hiding
//! protocol behavior:
//!
//! * **Synchronous execution**: an [`Output::Execute`] is completed
//!   (FIFO) before the action that produced it returns, modeling an
//!   infinitely fast application thread. Apply-pipeline interleavings are
//!   the chaos suite's department; the checker targets message-level
//!   interleaving, duplication, loss, and crash–restart.
//! * **Client absorption**: packets to the client address are consumed at
//!   send time (recording replies in the exactly-one-reply
//!   [`ReplyLedger`]) instead of entering the in-flight set — a client is
//!   a sink, not a state machine.
//!
//! Scripted scenarios drive the same model along one chosen schedule:
//! [`ModelState::request`] for client requests, [`ModelState::settle`] for
//! first-in-first-out delivery, and [`ModelState::apply`] for ticks and
//! crashes.
//!
//! The model samples nothing itself: [`ModelState::check_invariants`]
//! hands the live nodes to [`InvariantChecker::check_nodes`], the sampler
//! that checks the chaos runs.
//!
//! [`ModelState::hash_state`] is what the explorer fingerprints: every
//! node's own `hash_state` in id order, the aggregator, the wire with its
//! reordering window hashed as a set, the budgets and the reply ledger.
//! Node ids are hashed as they are, so mirror-image states stay distinct.

use std::fmt;
use std::hash::{Hash, Hasher};

use bytes::{ByteArena, Bytes};
use hovercraft::{
    Aggregator, DurableState, EchoService, HcNode, Input, Mode, OpKind, Output, WireMsg,
};
use r2p2::ReqId;
use testbed::invariants::predicates::Mutation;
use testbed::invariants::{InvariantChecker, ReplyLedger, Violation};

use crate::scope::{Scope, AGG_ADDR, CLIENT_ADDR, TICK_QUANTUM};

// Node entry points want the world's buffer arena; the checker has no world,
// and `ModelState` must stay a cheap Clone (the explorer stores millions).
// One per-thread scratch arena serves every transition instead — replies are
// tiny EchoService bodies, and determinism does not depend on pooling.
thread_local! {
    static SCRATCH_ARENA: std::cell::RefCell<ByteArena> =
        std::cell::RefCell::new(ByteArena::new());
}

fn with_arena<R>(f: impl FnOnce(&mut ByteArena) -> R) -> R {
    SCRATCH_ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// Steps `node` with one input, returning the outputs. The model has no RX
/// ring to batch over, so every step ends a batch: the leader ships what
/// the step announced before anything else can happen.
fn step_node(node: &mut HcNode<EchoService>, now: u64, input: Input) -> Vec<Output> {
    with_arena(|arena| {
        let mut outs = Vec::new();
        node.step(now, input, true, &mut outs, arena);
        outs
    })
}

/// One schedulable step of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McAction {
    /// Inject the next client command (multicast to every live node).
    ClientReq,
    /// Deliver in-flight envelope `i` (removing it).
    Deliver(usize),
    /// Re-deliver in-flight envelope `i` without removing it.
    Duplicate(usize),
    /// Drop in-flight envelope `i` without delivering it.
    Drop(usize),
    /// Advance node `n`'s clock by one quantum and run its periodic tick.
    Tick(u32),
    /// Crash node `n`, capturing its durable state.
    Crash(u32),
    /// Restart a crashed node `n` from its durable state.
    Restart(u32),
}

impl fmt::Display for McAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McAction::ClientReq => write!(f, "q"),
            McAction::Deliver(i) => write!(f, "d{i}"),
            McAction::Duplicate(i) => write!(f, "u{i}"),
            McAction::Drop(i) => write!(f, "x{i}"),
            McAction::Tick(n) => write!(f, "t{n}"),
            McAction::Crash(n) => write!(f, "c{n}"),
            McAction::Restart(n) => write!(f, "r{n}"),
        }
    }
}

impl McAction {
    /// Parses the compact form produced by `Display` (`q`, `d3`, `t1`, …).
    pub fn parse(s: &str) -> Option<McAction> {
        if s == "q" {
            return Some(McAction::ClientReq);
        }
        let mut chars = s.chars();
        let op = chars.next()?;
        let v: usize = chars.as_str().parse().ok()?;
        let node = || u32::try_from(v).ok();
        Some(match op {
            'd' => McAction::Deliver(v),
            'u' => McAction::Duplicate(v),
            'x' => McAction::Drop(v),
            't' => McAction::Tick(node()?),
            'c' => McAction::Crash(node()?),
            'r' => McAction::Restart(node()?),
            _ => return None,
        })
    }
}

/// An in-flight packet.
#[derive(Clone, PartialEq)]
pub struct Env {
    /// Sender's network address.
    pub src: u32,
    /// Destination network address.
    pub dst: u32,
    /// The packet.
    pub msg: WireMsg,
}

/// The full system state the checker branches on.
#[derive(Clone)]
pub struct ModelState {
    /// Live nodes (`None` = crashed).
    nodes: Vec<Option<HcNode<EchoService>>>,
    /// Durable state captured at crash time, consumed by `Restart`.
    durable: Vec<Option<DurableState>>,
    /// The switch aggregator (`hcpp` scopes only).
    agg: Option<Aggregator>,
    /// Per-node logical clock (nodes never compare clocks).
    clock: Vec<u64>,
    /// In-flight packets, in deterministic append order.
    net: Vec<Env>,
    next_client: u8,
    dup_used: u8,
    drop_used: u8,
    crash_used: u8,
    ticks_used: Vec<u8>,
    /// Replies sent so far (invariant 6 bookkeeping).
    replies: ReplyLedger,
}

impl ModelState {
    /// The initial state of a scope: `n_nodes` fresh followers, empty
    /// wires. When the scope sets `pre_elect`, a deterministic prologue
    /// (tick node 0 and [settle](ModelState::settle) until it leads) runs
    /// here, outside the explored space: election interleavings are the
    /// `elect` scope's job, and starting the other scopes from a stable
    /// leader keeps the two spaces from multiplying. The prologue spends
    /// no scope budgets.
    pub fn init(scope: &Scope) -> ModelState {
        let n = scope.n_nodes as usize;
        let nodes = (0..scope.n_nodes)
            .map(|id| Some(HcNode::new(scope.cfg(id), EchoService::default(), 0)))
            .collect();
        let mut st = ModelState {
            nodes,
            durable: vec![None; n],
            agg: (scope.mode == Mode::HovercraftPp)
                .then(|| Aggregator::new((0..scope.n_nodes).collect())),
            clock: vec![0; n],
            net: Vec::new(),
            next_client: 0,
            dup_used: 0,
            drop_used: 0,
            crash_used: 0,
            ticks_used: vec![0; n],
            replies: ReplyLedger::default(),
        };
        if scope.pre_elect {
            let mut ticks = 0;
            while !st.nodes[0].as_ref().is_some_and(|n| n.is_leader()) {
                st.apply(scope, McAction::Tick(0))
                    .and_then(|()| st.settle(scope))
                    .expect("election prologue cannot violate invariants");
                ticks += 1;
                assert!(ticks < 100, "election prologue failed to converge");
            }
            st.ticks_used = vec![0; n];
        }
        st
    }

    /// Node `n`, unless it is crashed.
    pub fn node(&self, n: u32) -> Option<&HcNode<EchoService>> {
        self.nodes.get(n as usize)?.as_ref()
    }

    /// Node `n` and its clock, to step it by hand. Outputs of a hand step
    /// bypass the model: nothing routes them.
    pub fn node_mut(&mut self, n: u32) -> Option<(&mut HcNode<EchoService>, u64)> {
        let clock = *self.clock.get(n as usize)?;
        Some((self.nodes[n as usize].as_mut()?, clock))
    }

    /// The switch aggregator (`HovercraftPp` scopes only).
    pub fn agg(&self) -> Option<&Aggregator> {
        self.agg.as_ref()
    }

    /// The in-flight packets, in arrival order.
    pub fn net(&self) -> &[Env] {
        &self.net
    }

    /// Number of distinct client requests that have received a reply.
    pub fn reply_count(&self) -> usize {
        self.replies.iter().count()
    }

    /// Enumerates every action enabled in this state, in the canonical
    /// order that defines counterexample traces. Only envelopes inside
    /// the scope's reordering window (the first `reorder_window`
    /// in-flight packets) are schedulable, and identical ones are
    /// deduplicated: delivering (or dropping, or doubling) either copy
    /// reaches the same successor.
    pub fn enabled(&self, scope: &Scope) -> Vec<McAction> {
        let mut acts = Vec::new();
        // Client command `k` is injectable once a leader has applied the
        // previous command. The *replication tail* of command `k-1`
        // (AppendEntries, acks, commit notifications, body deliveries to
        // followers) still races freely with command `k` — only the
        // client-side injection is sequenced, which is how a closed-loop
        // client behaves and what keeps two multicast commands from
        // multiplying each other's full interleaving spaces.
        if self.next_client < scope.client_reqs
            && (self.next_client == 0
                || self
                    .nodes
                    .iter()
                    .flatten()
                    .any(|nd| nd.is_leader() && nd.applied_index() >= self.next_client as u64))
        {
            acts.push(McAction::ClientReq);
        }
        let w = scope.reorder_window.min(self.net.len());
        let mut firsts: Vec<usize> = Vec::with_capacity(w);
        for i in 0..w {
            if !firsts.iter().any(|&j| self.net[j] == self.net[i]) {
                firsts.push(i);
            }
        }
        for &i in &firsts {
            acts.push(McAction::Deliver(i));
        }
        if self.dup_used < scope.dup_budget {
            for &i in &firsts {
                acts.push(McAction::Duplicate(i));
            }
        }
        if self.drop_used < scope.drop_budget {
            for &i in &firsts {
                acts.push(McAction::Drop(i));
            }
        }
        // Only candidate nodes tick: with retries and GC quiescent a
        // non-candidate's tick is a no-op that would only split states
        // on its clock value.
        for n in 0..scope.candidates as u32 {
            if self.nodes[n as usize].is_some() && self.ticks_used[n as usize] < scope.tick_budget {
                acts.push(McAction::Tick(n));
            }
        }
        let ids = 0..self.nodes.len() as u32;
        let crashable = self.crash_used < scope.crash_budget;
        let live = |n: &u32| self.node(*n).is_some();
        acts.extend(
            ids.clone()
                .filter(|n| crashable && live(n))
                .map(McAction::Crash),
        );
        acts.extend(ids.filter(|n| !live(n)).map(McAction::Restart));
        acts
    }

    /// Applies `action` in place. Returns `Err` the moment a send-time
    /// invariant (exactly-one reply) breaks; state invariants are checked
    /// separately by [`ModelState::check_invariants`].
    pub fn apply(&mut self, scope: &Scope, action: McAction) -> Result<(), Violation> {
        match action {
            McAction::ClientReq => {
                let k = self.next_client;
                self.next_client += 1;
                let id = ReqId::new(CLIENT_ADDR, 7, k as u16);
                let kind = if scope.ro_second && k == 1 {
                    OpKind::ReadOnly
                } else {
                    OpKind::ReadWrite
                };
                let all: Vec<u32> = (0..self.nodes.len() as u32).collect();
                self.request(id, kind, Bytes::from(vec![b'k', k]), &all)
            }
            McAction::Deliver(i) => {
                let env = self.net.remove(i);
                self.deliver(env)
            }
            McAction::Duplicate(i) => {
                self.dup_used += 1;
                let env = self.net[i].clone();
                self.deliver(env)
            }
            McAction::Drop(i) => {
                self.drop_used += 1;
                self.net.remove(i);
                Ok(())
            }
            McAction::Tick(n) => {
                let n = n as usize;
                // Saturating: scripted runs tick far past any scope's budget.
                self.ticks_used[n] = self.ticks_used[n].saturating_add(1);
                self.clock[n] += TICK_QUANTUM;
                let now = self.clock[n];
                if let Some(node) = self.nodes[n].as_mut() {
                    let outs = step_node(node, now, Input::Tick);
                    self.run_outputs(n as u32, outs)?;
                }
                Ok(())
            }
            McAction::Crash(n) => {
                let n = n as usize;
                self.crash_used += 1;
                let node = self.nodes[n].take().expect("crash of a live node");
                self.durable[n] = Some(node.durable_state());
                Ok(())
            }
            McAction::Restart(n) => {
                let n = n as usize;
                let durable = self.durable[n].take().expect("restart of a crashed node");
                let epoch = durable.epoch + 1;
                let node = HcNode::restore(
                    scope.cfg(n as u32),
                    EchoService::default(),
                    self.clock[n],
                    durable,
                    epoch,
                )
                .expect("epoch+1 restore cannot be rejected");
                self.nodes[n] = Some(node);
                Ok(())
            }
        }
    }

    /// Client request `id` arrives at each live node of `dsts`, in order,
    /// from the client `id` names. Replies to [`CLIENT_ADDR`] are absorbed
    /// into the reply ledger; replies to any other address stay on the
    /// wire until delivered, which drops them.
    pub fn request(
        &mut self,
        id: ReqId,
        kind: OpKind,
        body: Bytes,
        dsts: &[u32],
    ) -> Result<(), Violation> {
        for &n in dsts {
            let now = self.clock[n as usize];
            if let Some(node) = self.nodes[n as usize].as_mut() {
                let (src, body) = (id.src_ip, body.clone());
                let msg = WireMsg::Request { id, kind, body };
                let outs = step_node(node, now, Input::Message { src, msg });
                self.run_outputs(n, outs)?;
            }
        }
        Ok(())
    }

    /// Delivers in-flight packets first in, first out until the wire is
    /// empty.
    pub fn settle(&mut self, scope: &Scope) -> Result<(), Violation> {
        for _ in 0..1_000_000 {
            if self.net.is_empty() {
                return Ok(());
            }
            self.apply(scope, McAction::Deliver(0))?;
        }
        panic!("the wire did not go quiet");
    }

    /// Routes one envelope to its destination and runs the effects.
    fn deliver(&mut self, Env { src, dst, msg }: Env) -> Result<(), Violation> {
        if dst == AGG_ADDR {
            if let Some(agg) = self.agg.as_mut() {
                let emitted = agg.on_packet(src, msg);
                for (dst, msg) in emitted {
                    self.net.push(Env {
                        src: AGG_ADDR,
                        dst,
                        msg,
                    });
                }
            }
            return Ok(());
        }
        let n = dst as usize;
        if n >= self.nodes.len() || self.nodes[n].is_none() {
            // A packet to a crashed node dies at the dead NIC.
            return Ok(());
        }
        let now = self.clock[n];
        let node = self.nodes[n].as_mut().expect("live");
        let outs = step_node(node, now, Input::Message { src, msg });
        self.run_outputs(dst, outs)
    }

    /// Carries out a node's outputs: sends enter the in-flight set (or
    /// are absorbed, for the client sink), executions complete
    /// synchronously in FIFO order.
    fn run_outputs(&mut self, src: u32, outputs: Vec<Output>) -> Result<(), Violation> {
        let mut queue = std::collections::VecDeque::from(outputs);
        while let Some(out) = queue.pop_front() {
            match out {
                Output::Send { dst, msg } => {
                    if dst == CLIENT_ADDR {
                        if let WireMsg::Response { id, .. } = &msg {
                            let epoch = self.nodes[src as usize].as_ref().map_or(0, |n| n.epoch());
                            self.replies.record(id.as_u64(), src, epoch)?;
                        }
                        // Nacks and responses are absorbed by the client.
                    } else {
                        self.net.push(Env { src, dst, msg });
                    }
                }
                Output::Execute { index, .. } => {
                    let n = src as usize;
                    let now = self.clock[n];
                    let node = self.nodes[n].as_mut().expect("executing node is live");
                    let more = step_node(node, now, Input::ExecDone(index));
                    // FIFO: effects of this completion run before any
                    // later queued execution.
                    for (k, o) in more.into_iter().enumerate() {
                        queue.insert(k, o);
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks every state and transition invariant of the post-state
    /// against `pre` (the state before the action): a fresh
    /// [`InvariantChecker`] observes `pre`, then samples this state under
    /// `mutation`. A state invariant broken by `pre` itself is reported
    /// too: nothing else checks the initial state.
    pub fn check_invariants(&self, pre: &ModelState, mutation: Mutation) -> Result<(), Violation> {
        let mut checker = InvariantChecker::new();
        checker.check_nodes(&pre.live(), Mutation::None)?;
        checker.check_nodes(&self.live(), mutation)
    }

    /// The live nodes with their ids, in id order.
    pub fn live(&self) -> Vec<(u32, &HcNode<EchoService>)> {
        (0..)
            .zip(&self.nodes)
            .filter_map(|(n, node)| Some((n, node.as_ref()?)))
            .collect()
    }

    /// Feeds the whole system state into `h`.
    /// Per-node clocks are *not* hashed: nodes never compare clocks, and
    /// each node's own timers are hashed relative to its clock. `window`
    /// must be the scope's `reorder_window` — it decides how much of the
    /// in-flight queue's order is semantically irrelevant.
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher, window: usize) {
        for n in 0..self.nodes.len() {
            match (&self.nodes[n], &self.durable[n]) {
                (Some(node), _) => {
                    h.write_u8(1);
                    node.hash_state(self.clock[n], h);
                }
                (None, Some(d)) => {
                    h.write_u8(2);
                    h.write_u64(d.term);
                    match d.voted_for {
                        Some(v) => {
                            h.write_u8(1);
                            h.write_u32(v);
                        }
                        None => h.write_u8(0),
                    }
                    h.write_u64(d.snap_index);
                    h.write_u64(d.snap_term);
                    h.write(&d.snapshot);
                    h.write_usize(d.entries.len());
                    for e in &d.entries {
                        // `Hash::hash` wants a sized hasher, which `&mut dyn Hasher` is.
                        e.hash(&mut &mut *h);
                    }
                    h.write_u64(d.epoch);
                }
                (None, None) => h.write_u8(0),
            }
        }
        if let Some(agg) = &self.agg {
            h.write_u8(1);
            agg.hash_state(h);
        } else {
            h.write_u8(0);
        }
        // The reordering window is a *set* — any of its envelopes can be
        // scheduled next, and removing one slides the tail head in, so
        // two states whose windows hold the same envelopes in different
        // positions are bisimilar. Canonicalize: sorted sub-hashes for
        // the window, arrival order for the tail (whose order *is*
        // observable as it feeds the window).
        let mut sub: Vec<u64> = self
            .net
            .iter()
            .map(|e| {
                let mut eh = fxhash::FxHasher::default();
                eh.write_u32(e.src);
                eh.write_u32(e.dst);
                e.msg.hash(&mut eh);
                eh.finish()
            })
            .collect();
        let w = window.min(sub.len());
        sub[..w].sort_unstable();
        h.write_usize(sub.len());
        for s in sub {
            h.write_u64(s);
        }
        h.write_u8(self.next_client);
        h.write_u8(self.dup_used);
        h.write_u8(self.drop_used);
        h.write_u8(self.crash_used);
        for &t in &self.ticks_used {
            h.write_u8(t);
        }
        let mut reps: Vec<(u64, u32, u64)> = self.replies.iter().collect();
        reps.sort_unstable();
        h.write_usize(reps.len());
        for (id, node, epoch) in reps {
            h.write_u64(id);
            h.write_u32(node);
            h.write_u64(epoch);
        }
    }

    /// Summarizes the state for human-readable traces.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for n in 0..self.nodes.len() {
            match &self.nodes[n] {
                Some(node) => parts.push(format!(
                    "n{n}[{:?} t{} c{} a{}]",
                    node.role(),
                    node.raft().term(),
                    node.raft().commit_index(),
                    node.applied_index()
                )),
                None => parts.push(format!("n{n}[down]")),
            }
        }
        format!("{} net={}", parts.join(" "), self.net.len())
    }

    /// One-line description of in-flight envelope `i` (for traces).
    pub fn describe_env(&self, i: usize) -> String {
        let e = &self.net[i];
        format!("{} -> {}: {}", e.src, e.dst, wire_kind(&e.msg))
    }
}

/// Short human-readable tag for a wire message.
pub fn wire_kind(msg: &WireMsg) -> &'static str {
    use raft::Message;
    match msg {
        WireMsg::Request { .. } => "Request",
        WireMsg::Response { .. } => "Response",
        WireMsg::Nack { .. } => "Nack",
        WireMsg::Feedback => "Feedback",
        WireMsg::Raft(Message::PreVote { .. }) => "PreVote",
        WireMsg::Raft(Message::PreVoteReply { .. }) => "PreVoteReply",
        WireMsg::Raft(Message::RequestVote { .. }) => "RequestVote",
        WireMsg::Raft(Message::RequestVoteReply { .. }) => "RequestVoteReply",
        WireMsg::Raft(Message::AppendEntries { .. }) => "AppendEntries",
        WireMsg::Raft(Message::AppendEntriesReply { .. }) => "AppendEntriesReply",
        WireMsg::RecoveryReq { .. } => "RecoveryReq",
        WireMsg::RecoveryRep { .. } => "RecoveryRep",
        WireMsg::AggCommit { .. } => "AggCommit",
        WireMsg::SnapChunk { .. } => "SnapChunk",
        WireMsg::SnapAck { .. } => "SnapAck",
        WireMsg::VoteProbe { .. } => "VoteProbe",
        WireMsg::VoteProbeRep { .. } => "VoteProbeRep",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::fingerprint;

    /// The reordering window hashes as a set and the tail in arrival
    /// order: permuting inside the window keeps the fingerprint, moving
    /// an envelope across the window's edge changes it.
    #[test]
    fn reorder_window_is_hashed_as_a_set() {
        let scope = Scope::default_scope();
        assert_eq!(scope.reorder_window, 2);
        let mut st = ModelState::init(&scope);
        st.apply(&scope, McAction::ClientReq).unwrap();
        st.apply(&scope, McAction::Duplicate(0)).unwrap();
        // Both AppendEntries, then node 1's reply to the duplicate copy.
        let kinds: Vec<&str> = st.net.iter().map(|e| wire_kind(&e.msg)).collect();
        assert_eq!(
            kinds,
            ["AppendEntries", "AppendEntries", "AppendEntriesReply"]
        );
        let fp = fingerprint(&st, &scope);

        let mut in_window = st.clone();
        in_window.net.swap(0, 1);
        assert_eq!(fingerprint(&in_window, &scope), fp);

        let mut across_edge = st.clone();
        across_edge.net.swap(1, 2);
        assert_ne!(fingerprint(&across_edge, &scope), fp);
    }
}
