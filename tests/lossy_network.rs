//! Packet-loss integration tests: HovercRaft does not assume reliable
//! multicast (§5) — lost request copies are repaired by the recovery
//! protocol, lost consensus messages by Raft's own retransmission, and the
//! system keeps its SMR guarantees throughout.

use hovercraft::{PolicyKind, WireMsg};
use simnet::SimDur;
use testbed::{summarize, Cluster, ClusterOpts, ServerAgent, Setup};

fn lossy_run(setup: Setup, loss: f64, rate: f64, seed: u64) -> (testbed::ExpResult, u64, u64) {
    let mut o = ClusterOpts::new(setup, 3, rate);
    o.warmup = SimDur::millis(50);
    o.measure = SimDur::millis(300);
    o.seed = seed;
    let mut cluster = Cluster::build(o);
    cluster.sim.set_loss_rate(loss);
    cluster.run_to_completion_checked();
    let mut recoveries = 0;
    let mut served = 0;
    for &s in &cluster.servers.clone() {
        let st = cluster.sim.agent::<ServerAgent>(s).node().stats();
        recoveries += st.recoveries_sent;
        served += st.recoveries_served;
    }
    (summarize(&mut cluster), recoveries, served)
}

#[test]
fn one_percent_loss_triggers_recovery_but_service_continues() {
    let (r, recoveries, served) =
        lossy_run(Setup::Hovercraft(PolicyKind::Jbsq), 0.01, 50_000.0, 31);
    assert!(recoveries > 0, "multicast gaps must exercise recovery");
    assert!(served > 0, "peers must serve recovered bodies");
    // Replies themselves can be lost to the client (at-most-once), but the
    // overwhelming majority completes.
    assert!(
        r.responses as f64 > 0.95 * r.sent as f64,
        "answered {}/{} with {} recoveries",
        r.responses,
        r.sent,
        recoveries
    );
}

#[test]
fn five_percent_loss_still_makes_progress() {
    let (r, recoveries, _) = lossy_run(Setup::Hovercraft(PolicyKind::Jbsq), 0.05, 20_000.0, 37);
    assert!(recoveries > 0);
    assert!(
        r.responses as f64 > 0.85 * r.sent as f64,
        "answered {}/{}",
        r.responses,
        r.sent
    );
}

#[test]
fn hovercraft_pp_handles_loss_of_aggregator_traffic() {
    // Loss hits AppendEntries to/from the aggregator and AGG_COMMITs too;
    // heartbeat retransmission and the pending-flag path (§6.4) cover it.
    let (r, _, _) = lossy_run(Setup::HovercraftPp(PolicyKind::Jbsq), 0.02, 30_000.0, 41);
    assert!(
        r.responses as f64 > 0.9 * r.sent as f64,
        "answered {}/{}",
        r.responses,
        r.sent
    );
}

#[test]
fn replicas_converge_despite_loss() {
    let mut o = ClusterOpts::new(Setup::Hovercraft(PolicyKind::Jbsq), 3, 30_000.0);
    o.warmup = SimDur::millis(50);
    o.measure = SimDur::millis(200);
    o.seed = 43;
    let mut cluster = Cluster::build(o);
    cluster.sim.set_loss_rate(0.03);
    cluster.run_to_completion_checked();
    // Lossless drain so everyone catches up.
    cluster.sim.set_loss_rate(0.0);
    cluster.run_checked(SimDur::millis(100));
    let applied: Vec<u64> = cluster
        .servers
        .clone()
        .into_iter()
        .map(|s| cluster.sim.agent::<ServerAgent>(s).node().applied_index())
        .collect();
    assert!(applied[0] > 0);
    assert_eq!(applied[0], applied[1], "{applied:?}");
    assert_eq!(applied[1], applied[2], "{applied:?}");
}

#[test]
fn follower_deaf_to_agg_commit_learns_the_commit_within_a_heartbeat() {
    // In HovercRaft++ the AGG_COMMIT multicast is the only eager commit
    // notification: the leader does not repeat it. A follower that loses
    // every copy must still heal the paper's way — the next data-carrying
    // AppendEntries or the 1 ms heartbeat carries `leader_commit`.
    let mut o = ClusterOpts::new(Setup::HovercraftPp(PolicyKind::Jbsq), 5, 20_000.0);
    o.warmup = SimDur::millis(20);
    o.measure = SimDur::millis(100);
    o.seed = 47;
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let leader = cluster.leader().expect("leader");
    let victim = *cluster
        .servers
        .iter()
        .find(|&&s| s != leader)
        .expect("a follower");
    cluster
        .sim
        .set_drop_filter(Some(Box::new(move |pkt, to, _| {
            to == victim && matches!(pkt.payload, WireMsg::AggCommit { .. })
        })));
    let commit_of = |c: &Cluster, s| c.sim.agent::<ServerAgent>(s).node().raft().commit_index();
    // One heartbeat interval plus the 250 µs protocol tick that fires it
    // and the network hops, in 500 µs samples.
    const LAG_SAMPLES: usize = 3;
    let step = SimDur::micros(500);
    let end = cluster.opts().load_end() + SimDur::millis(20);
    let mut leader_commits = Vec::new();
    while cluster.sim.now() < end {
        cluster.run_checked(step);
        leader_commits.push(commit_of(&cluster, leader));
        if let Some(i) = leader_commits.len().checked_sub(1 + LAG_SAMPLES) {
            assert!(
                commit_of(&cluster, victim) >= leader_commits[i],
                "victim commit {} still behind the leader's {} of {LAG_SAMPLES} samples ago at {:?}",
                commit_of(&cluster, victim),
                leader_commits[i],
                cluster.sim.now()
            );
        }
    }
    assert_eq!(cluster.leader(), Some(leader), "no election was provoked");
    let dropped = cluster.sim.counters(victim).dropped_loss;
    assert!(
        dropped > 1_000,
        "the filter dropped {dropped} AGG_COMMIT copies"
    );
    let applied: Vec<u64> = cluster
        .servers
        .iter()
        .map(|&s| cluster.sim.agent::<ServerAgent>(s).node().applied_index())
        .collect();
    assert!(applied[0] > 2_000, "{applied:?}");
    assert!(applied.iter().all(|&a| a == applied[0]), "{applied:?}");
    // Exactly once: the invariant checker ran every millisecond (at most
    // one reply per request), and the servers answered every request they
    // received — none unanswered, none repeated.
    let stats_of = |&s| cluster.sim.agent::<ServerAgent>(s).node().stats();
    let answered: u64 = cluster.servers.iter().map(|s| stats_of(s).responses).sum();
    assert_eq!(answered, stats_of(&victim).requests);
    assert_eq!(cluster.client_results().duplicates, 0);
}
