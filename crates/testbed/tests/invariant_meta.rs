//! Meta-tests for the invariant checker itself: prove that injected
//! protocol corruption, forged trace events and lost trace events are
//! detected within one checked step, that a forced failure produces a
//! replayable bundle, and that replaying the same (config, seed)
//! reproduces the identical trace.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hovercraft::{PolicyKind, ProtoEvent};
use r2p2::ReqId;
use simnet::{SimDur, SimTime, DEFAULT_TRACE_CAP};
use testbed::{Cluster, ClusterOpts, ServerAgent, Setup};

fn build(seed: u64, bound: usize) -> Cluster {
    let mut o = ClusterOpts::new(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 20_000.0);
    o.seed = seed;
    o.bound = bound;
    let mut cluster = Cluster::build(o);
    cluster.settle();
    // Run well into the load so committed, applied, replier-stamped
    // entries exist and the checker has observed them.
    cluster.run_until_checked(SimTime::ZERO + SimDur::millis(250));
    cluster
}

/// Panic message of the checked step that must detect the corruption.
fn panic_message(cluster: &mut Cluster) -> String {
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.run_checked(SimDur::millis(1));
    }));
    let err = result.expect_err("the invariant checker must fire within one step");
    err.downcast_ref::<String>()
        .expect("panic payload is the violation message")
        .clone()
}

#[test]
fn checker_detects_mutated_replier_within_one_step() {
    let mut cluster = build(9001, 128);

    // Corrupt a replier stamp on an entry every node has applied: harmless
    // to future protocol behaviour (it is only read at apply time), so only
    // the checker can notice.
    let min_applied = cluster
        .servers
        .iter()
        .map(|&s| cluster.sim.agent::<ServerAgent>(s).node().applied_index())
        .min()
        .unwrap();
    assert!(min_applied > 0, "load must have produced applied entries");
    let leader = cluster.leader().unwrap();
    let servers = cluster.servers.clone();
    let agent = cluster.sim.agent_mut::<ServerAgent>(leader);
    let mut idx = min_applied;
    let old = loop {
        let e = agent.node().raft().log().get(idx).expect("entry in window");
        if let Some(r) = e.cmd.desc.replier {
            break r;
        }
        idx -= 1;
    };
    let forged = servers.iter().copied().find(|&s| s != old).unwrap();
    agent
        .node_mut()
        .raft_mut()
        .log_mut()
        .get_mut(idx)
        .unwrap()
        .make_mut()
        .desc
        .replier = Some(forged);

    let msg = panic_message(&mut cluster);
    assert!(msg.contains("replier_immutable"), "wrong invariant: {msg}");

    // The failure must come with a replayable bundle on disk.
    let path = msg
        .lines()
        .find_map(|l| l.strip_prefix("replay bundle: "))
        .expect("panic message names the bundle path");
    let bundle = std::fs::read_to_string(path).expect("bundle written");
    assert!(bundle.contains("seed: 9001"));
    assert!(bundle.contains("## node state"));
    assert!(bundle.contains("## trace tail"));
    assert!(bundle.contains("replier_immutable"));
}

#[test]
fn checker_detects_over_bound_assignment_within_one_step() {
    let bound = 16;
    let mut cluster = build(9002, bound);

    // Force the leader's ledger over the bound for one member, using fake
    // far-future indices so nothing the member reports can retire them.
    let leader = cluster.leader().unwrap();
    let member = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .unwrap();
    let agent = cluster.sim.agent_mut::<ServerAgent>(leader);
    let base = agent.node().raft().log().last_index() + 1_000;
    for i in 0..(bound as u64 + 8) {
        agent.node_mut().ledger_mut().assign(member, base + i);
    }

    let msg = panic_message(&mut cluster);
    assert!(msg.contains("bounded_queue"), "wrong invariant: {msg}");
}

#[test]
fn replay_bundle_is_reproduced_bit_for_bit() {
    // The bundle (node state + trace tail) is a pure function of
    // (opts, seed, virtual time): rebuilding the cluster and re-running to
    // the same instant must reproduce it exactly — the replay workflow the
    // bundle instructions describe.
    let run = || {
        let mut cluster = build(9003, 128);
        cluster.run_until_checked(SimTime::ZERO + SimDur::millis(300));
        let path = cluster.dump_bundle("meta-replay");
        std::fs::read_to_string(path).expect("bundle written")
    };
    let a = run();
    let b = run();
    assert!(!a.contains("trace tail (0 of 0"), "trace must be nonempty");
    assert_eq!(a, b, "replay must reproduce the identical bundle");
}

#[test]
fn checker_detects_rewritten_committed_entry_within_one_step() {
    let mut cluster = build(9004, 128);

    // Rewrite the request hash of an entry one follower has applied and
    // committed. Its replier is unchanged, so only the comparison of
    // committed entries across nodes can notice.
    let leader = cluster.leader().unwrap();
    let follower = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .unwrap();
    let agent = cluster.sim.agent_mut::<ServerAgent>(follower);
    let idx = agent.node().applied_index();
    assert!(idx > 0, "load must have produced applied entries");
    assert!(idx <= agent.node().raft().commit_index());
    agent
        .node_mut()
        .raft_mut()
        .log_mut()
        .get_mut(idx)
        .expect("applied entry still in the log")
        .make_mut()
        .desc
        .hash ^= 1;

    let msg = panic_message(&mut cluster);
    assert!(
        msg.contains("committed_prefix_agreement"),
        "wrong invariant: {msg}"
    );
}

#[test]
fn checker_reports_trace_events_lost_to_eviction() {
    let mut cluster = build(9005, 128);
    cluster.run_checked(SimDur::millis(1));

    // More events than the ring holds land between two checks: the
    // oldest of them are evicted unseen, and the checker must say so.
    fn render(f: &mut std::fmt::Formatter<'_>, _: u64, _: u64, _: u64) -> std::fmt::Result {
        f.write_str("filler")
    }
    let now = cluster.sim.now();
    for i in 0..=DEFAULT_TRACE_CAP as u64 {
        cluster
            .tracer()
            .record_lazy(now, 0, "filler", i, render, 0, 0, 0);
    }

    let msg = panic_message(&mut cluster);
    assert!(msg.contains("trace_gap"), "wrong invariant: {msg}");
}

/// Records `ev` as `node`'s event through its one encoding, the way a
/// server does, so these tests pin the word layout the checker decodes.
fn record(cluster: &Cluster, node: u32, ev: ProtoEvent) {
    let (kind, key, render, [a, b, c]) = ev.parts();
    let now = cluster.sim.now();
    cluster
        .tracer()
        .record_lazy(now, node, kind, key, render, a, b, c);
}

#[test]
fn checker_detects_a_second_replier_in_the_trace() {
    let mut cluster = build(9006, 128);
    // An id no client issues, answered by two different nodes.
    let id = ReqId::new(0xdead, 1, 2);
    for node in [0, 1] {
        record(
            &cluster,
            node,
            ProtoEvent::ReplySent {
                index: 1,
                id,
                to: 3,
            },
        );
    }
    let msg = panic_message(&mut cluster);
    assert!(msg.contains("exactly_one_reply"), "wrong invariant: {msg}");
}

#[test]
fn checker_detects_a_request_executed_at_two_indexes() {
    let mut cluster = build(9008, 128);
    // An id no client issues, ordered twice: executed at one index and
    // skipped as read-only at another, with no second reply to give it away.
    let id = ReqId::new(0xdead, 1, 3);
    record(&cluster, 0, ProtoEvent::Executed { index: 7, id });
    record(&cluster, 1, ProtoEvent::Executed { index: 7, id });
    record(&cluster, 2, ProtoEvent::RoSkipped { index: 9, id });
    let msg = panic_message(&mut cluster);
    assert!(msg.contains("executed_once"), "wrong invariant: {msg}");
    assert!(msg.contains("index 7 and again at index 9"), "{msg}");
}

#[test]
fn checker_detects_a_regressed_transfer_ack_in_the_trace() {
    let mut cluster = build(9007, 128);
    for next in [1024, 512] {
        record(&cluster, 1, ProtoEvent::ChunkAcked { index: 640, next });
    }
    let msg = panic_message(&mut cluster);
    assert!(
        msg.contains("transfer_resume_monotone"),
        "wrong invariant: {msg}"
    );
}
