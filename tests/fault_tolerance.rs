//! Failure-mode integration tests across the full stack: follower and
//! leader fail-stop under load, bounded reply loss, and in-network
//! aggregator failure with fallback to point-to-point Raft (§5, §7.4).

use hovercraft::PolicyKind;
use simnet::{SimDur, SimTime};
use testbed::{
    summarize, AggProgram, ClientAgent, Cluster, ClusterOpts, FcProgram, ServerAgent, Setup,
};

fn opts(setup: Setup, n: u32, rate: f64, bound: usize, seed: u64) -> ClusterOpts {
    let mut o = ClusterOpts::new(setup, n, rate);
    o.warmup = SimDur::millis(50);
    o.measure = SimDur::millis(400);
    o.bound = bound;
    o.seed = seed;
    o
}

#[test]
fn follower_failure_is_invisible_except_bounded_loss() {
    let o = opts(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 100_000.0, 32, 11);
    let mut cluster = Cluster::build(o.clone());
    cluster.settle();
    let leader = cluster.leader().unwrap();
    let victim = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .unwrap();
    // Kill one follower in the middle of the measured window.
    cluster
        .sim
        .kill_at(victim, SimTime::ZERO + SimDur::millis(300));
    cluster.run_to_completion_checked();
    let r = summarize(&mut cluster);
    // 40k measured requests; replies already assigned to the victim when it
    // died (≤ B = 32) plus its committed-but-unexecuted window are lost;
    // everything else must be answered.
    let lost = r.sent - r.responses - r.nacks;
    assert!(lost <= 64, "lost {lost} replies, expected ≲ B");
    assert!(r.achieved_rps > 95_000.0, "{r:?}");
}

#[test]
fn leader_failure_degrades_gracefully_and_recovers() {
    let o = opts(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 80_000.0, 32, 13);
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let old = cluster.leader().unwrap();
    cluster
        .sim
        .kill_at(old, SimTime::ZERO + SimDur::millis(250));
    cluster.run_to_completion_checked();
    let new = cluster.leader().expect("new leader");
    assert_ne!(new, old);
    let r = summarize(&mut cluster);
    // Election (10-20ms) plus ≤B lost replies out of 32k measured requests:
    // at least ~90% still answered.
    assert!(
        r.responses as f64 > 0.9 * r.sent as f64,
        "answered {}/{}",
        r.responses,
        r.sent
    );
    // Survivors converge.
    let survivors: Vec<u64> = cluster
        .servers
        .clone()
        .into_iter()
        .filter(|&s| cluster.sim.is_alive(s))
        .map(|s| cluster.sim.agent::<ServerAgent>(s).node().applied_index())
        .collect();
    assert_eq!(survivors.len(), 2);
    assert!(survivors[0].abs_diff(survivors[1]) < 10, "{survivors:?}");
}

#[test]
fn aggregator_failure_falls_back_to_point_to_point() {
    // Blackhole the aggregator mid-run: AppendEntries routed through it
    // vanish, followers stop hearing from the leader, an election fires,
    // the new leader's VoteProbe goes unanswered, and the cluster continues
    // in plain point-to-point HovercRaft (§5).
    let o = opts(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 50_000.0, 128, 17);
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let t_fail = SimTime::ZERO + SimDur::millis(250);
    cluster.run_until_checked(t_fail);
    // From now on, nothing addressed to the aggregator gets through.
    cluster.fail_aggregator();
    cluster.run_to_completion_checked();
    let leader = cluster.leader().expect("a leader exists");
    let node = cluster.sim.agent::<ServerAgent>(leader).node();
    assert!(
        !node.aggregator_confirmed(),
        "leader must not trust a dead aggregator"
    );
    let r = summarize(&mut cluster);
    // Some requests are lost around the election; the vast majority of the
    // 20k measured requests complete over the direct path.
    assert!(
        r.responses as f64 > 0.85 * r.sent as f64,
        "answered {}/{}",
        r.responses,
        r.sent
    );
}

#[test]
fn replaced_aggregator_is_adopted_by_the_next_leader() {
    // §5: an aggregator holds soft state only, so a failed one is replaced
    // by an empty device and the next elected leader adopts it through a
    // VoteProbe. Fail the device mid-load (the cluster falls back to
    // point-to-point), replace it, then force one more election.
    let o = opts(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 50_000.0, 128, 19);
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let agg = cluster.agg_prog_index().expect("HovercRaft++ has a device");
    let confirmed = |c: &Cluster, n| c.sim.agent::<ServerAgent>(n).node().aggregator_confirmed();
    let fanouts = |c: &mut Cluster| {
        c.sim
            .switch_program_mut::<AggProgram>(agg)
            .agg
            .stats()
            .fanouts
    };
    cluster.run_until_checked(SimTime::ZERO + SimDur::millis(200));
    cluster.fail_aggregator();
    cluster.run_until_checked(SimTime::ZERO + SimDur::millis(300));
    let fallback = cluster.leader().expect("a leader without the device");
    assert!(
        !confirmed(&cluster, fallback),
        "leader must not trust a dead aggregator"
    );
    cluster.replace_aggregator();
    let before = fanouts(&mut cluster);
    cluster
        .sim
        .kill_at(fallback, SimTime::ZERO + SimDur::millis(320));
    cluster.run_to_completion_checked();
    let next = cluster.leader().expect("a third leader");
    assert_ne!(next, fallback);
    assert!(
        confirmed(&cluster, next),
        "the leader elected after the replacement adopts the new device"
    );
    let after = fanouts(&mut cluster);
    assert!(
        after > before,
        "the device fans out again: {before} -> {after}"
    );
}

#[test]
fn whole_cluster_survives_f_failures_but_not_more() {
    // 5 nodes tolerate 2 failures; a third stops progress entirely.
    let o = opts(Setup::Hovercraft(PolicyKind::Jbsq), 5, 40_000.0, 64, 19);
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let leader = cluster.leader().unwrap();
    let followers: Vec<u32> = cluster
        .servers
        .iter()
        .copied()
        .filter(|&s| s != leader)
        .collect();
    cluster
        .sim
        .kill_at(followers[0], SimTime::ZERO + SimDur::millis(200));
    cluster
        .sim
        .kill_at(followers[1], SimTime::ZERO + SimDur::millis(220));
    cluster.run_to_completion_checked();
    let r = summarize(&mut cluster);
    assert!(
        r.responses as f64 > 0.85 * r.sent as f64,
        "2 of 5 dead is fine: {}/{}",
        r.responses,
        r.sent
    );

    // Now a fresh cluster where 3 of 5 die: no quorum, no progress.
    let o = opts(Setup::Hovercraft(PolicyKind::Jbsq), 5, 40_000.0, 64, 23);
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let t = SimTime::ZERO + SimDur::millis(160);
    let leader = cluster.leader().unwrap();
    let mut killed = 0;
    for &s in &cluster.servers.clone() {
        if s != leader && killed < 2 {
            cluster.sim.kill_at(s, t);
            killed += 1;
        }
    }
    cluster.sim.kill_at(leader, t);
    cluster.run_to_completion_checked();
    // Completions only for requests finished before the kill (measurement
    // starts at 200ms > kill at 160ms → none).
    let clients = cluster.clients.clone();
    let mut responses = 0;
    for &c in &clients {
        responses += cluster.sim.agent_mut::<ClientAgent>(c).results().responses;
    }
    assert_eq!(responses, 0, "no quorum, no commits, no replies");
}

#[test]
fn leader_death_does_not_wedge_flow_control() {
    // The Figure 12 scenario with a deliberately tight admission cap:
    // killing the leader strands its assigned-but-unanswered requests, and
    // during the election no FEEDBACK flows at all, so the in-flight gauge
    // pins at the cap and admission wedges. Without slot reclamation the
    // middlebox NACKs every request for the rest of time; with it, the
    // stranded slots age out and service resumes after the election.
    let mut o = opts(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 80_000.0, 32, 29);
    o.flow_cap = Some(48);
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let old = cluster.leader().unwrap();
    cluster
        .sim
        .kill_at(old, SimTime::ZERO + SimDur::millis(250));
    cluster.run_to_completion_checked();
    assert_ne!(cluster.leader().expect("new leader"), old);

    let idx = cluster.fc_prog_index().expect("flow control deployed");
    let fc = &cluster.sim.switch_program_mut::<FcProgram>(idx).fc;
    let st = fc.stats();
    assert!(
        st.reclaimed > 0,
        "stranded slots must be reclaimed after the leader kill: {st:?}"
    );
    assert!(
        fc.in_flight() < 48,
        "admission must not stay wedged at the cap: in_flight={}",
        fc.in_flight()
    );

    // The bulk of the measured window is after the kill; most of it must
    // still be answered once admission recovers.
    let r = summarize(&mut cluster);
    assert!(
        r.responses as f64 > 0.6 * r.sent as f64,
        "service must resume after reclamation: answered {}/{} ({} nacked)",
        r.responses,
        r.sent,
        r.nacks
    );
}
