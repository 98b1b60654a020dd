//! Property-based tests over the whole stack: randomized configurations,
//! seeds, and fault schedules must never violate the system's core
//! invariants (determinism, accounting sanity, replica agreement, bounded
//! reply loss).

use hovercraft::PolicyKind;
use proptest::prelude::*;
use simnet::{FaultPlan, FaultPlanConfig, SimDur, SimTime};
use testbed::{
    run_experiment_checked, summarize, Cluster, ClusterOpts, RetryPolicy, ServerAgent, Setup,
};

fn arb_setup() -> impl Strategy<Value = Setup> {
    prop_oneof![
        Just(Setup::Vanilla),
        Just(Setup::Hovercraft(PolicyKind::Random)),
        Just(Setup::Hovercraft(PolicyKind::Jbsq)),
        Just(Setup::HovercraftPp(PolicyKind::Jbsq)),
    ]
}

fn quick(setup: Setup, n: u32, rate: f64, seed: u64) -> ClusterOpts {
    let mut o = ClusterOpts::new(setup, n, rate);
    o.warmup = SimDur::millis(30);
    o.measure = SimDur::millis(100);
    o.seed = seed;
    o.clients = 2;
    o
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a full cluster simulation
        parallel: true, // bodies run on the HC_JOBS pool; reporting is serial-identical
    })]

    /// Accounting sanity and replica agreement for arbitrary healthy
    /// configurations and seeds.
    #[test]
    fn healthy_runs_answer_everything_and_agree(
        setup in arb_setup(),
        n in prop_oneof![Just(3u32), Just(5u32)],
        rate in 10_000.0f64..150_000.0,
        seed in 0u64..1_000,
    ) {
        let mut cluster = Cluster::build(quick(setup, n, rate, seed));
        cluster.run_to_completion_checked();
        let r = summarize(&mut cluster);
        prop_assert!(r.responses <= r.sent, "{r:?}");
        prop_assert!(r.p50_ns <= r.p99_ns, "{r:?}");
        // Healthy cluster at sub-saturation load: everything answered,
        // modulo the handful of window-edge requests whose replies land
        // just after the measurement cutoff.
        prop_assert!(
            r.responses + r.nacks + 8 >= r.sent,
            "unanswered requests in a healthy run: {r:?}"
        );
        // All replicas applied the same prefix after the drain.
        cluster.run_checked(SimDur::millis(100));
        let applied: Vec<u64> = cluster
            .servers
            .clone()
            .into_iter()
            .map(|s| cluster.sim.agent::<ServerAgent>(s).node().applied_index())
            .collect();
        prop_assert!(applied.windows(2).all(|w| w[0] == w[1]), "{applied:?}");
    }

    /// Bit-exact determinism: identical (config, seed) ⇒ identical results.
    #[test]
    fn experiments_are_deterministic(
        setup in arb_setup(),
        rate in 10_000.0f64..100_000.0,
        seed in 0u64..1_000,
    ) {
        let a = run_experiment_checked(quick(setup, 3, rate, seed));
        let b = run_experiment_checked(quick(setup, 3, rate, seed));
        prop_assert_eq!(a.responses, b.responses);
        prop_assert_eq!(a.p99_ns, b.p99_ns);
        prop_assert_eq!(a.p50_ns, b.p50_ns);
        prop_assert_eq!(a.nacks, b.nacks);
    }

    /// A follower killed at a random instant under load never costs more
    /// than the bounded-queue bound in lost replies (§3.4).
    #[test]
    fn follower_death_loss_is_bounded_by_b(
        bound in prop_oneof![Just(8usize), Just(32usize), Just(128usize)],
        kill_ms in 60u64..300,
        seed in 0u64..500,
    ) {
        let mut o = quick(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 80_000.0, seed);
        o.warmup = SimDur::millis(50);
        o.measure = SimDur::millis(300);
        o.bound = bound;
        let mut cluster = Cluster::build(o);
        cluster.settle();
        let leader = cluster.leader().expect("leader");
        let victim = cluster
            .servers
            .iter()
            .copied()
            .find(|&s| s != leader)
            .expect("a follower");
        cluster.sim.kill_at(victim, SimTime::ZERO + SimDur::millis(kill_ms));
        cluster.run_to_completion_checked();
        let r = summarize(&mut cluster);
        let lost = r.sent - r.responses - r.nacks;
        // B assigned-but-unapplied replies plus the victim's in-execution
        // window can be lost; nothing else.
        prop_assert!(
            lost as usize <= bound + 32,
            "lost {lost} > bound {bound} (+32 slack)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case is a full chaos simulation
        parallel: true, // bodies run on the HC_JOBS pool; reporting is serial-identical
    })]

    /// Arbitrary (snapshot horizon, run length, fault plan) triples: log
    /// compaction plus chunked state transfer under randomized chaos —
    /// crash–restarts included, so transfers resume or restart across
    /// incarnation epochs — must preserve `applied ≤ commit`, the snapshot
    /// bound chain, and exactly-one-reply (all enforced continuously by
    /// the invariant checker inside the `*_checked` runners), and leave
    /// every live replica on an identical applied prefix.
    #[test]
    fn snapshot_horizons_preserve_invariants_under_chaos(
        interval in prop_oneof![Just(16u64), Just(64u64), Just(256u64)],
        measure_ms in 120u64..240,
        episodes in 1usize..=3,
        plan_seed in 0u64..10_000,
        seed in 0u64..1_000,
    ) {
        let mut o = quick(Setup::Hovercraft(PolicyKind::Jbsq), 5, 20_000.0, seed);
        o.warmup = SimDur::millis(40);
        o.measure = SimDur::millis(measure_ms);
        o.bound = 64;
        o.retry = Some(RetryPolicy::default());
        o.snapshot_interval = interval;
        o.snap_chunk_bytes = 256;
        let mut cluster = Cluster::build(o);
        cluster.settle();
        let plan = FaultPlan::generate(&FaultPlanConfig {
            nodes: cluster.servers.clone(),
            window_start: SimTime::ZERO + SimDur::millis(190),
            window_end: cluster.opts().load_end(),
            episodes,
            seed: plan_seed,
        });
        cluster.sim.apply_fault_plan(&plan);
        cluster.run_to_completion_checked();
        cluster.run_checked(SimDur::millis(250));
        let applied: Vec<u64> = cluster
            .servers
            .clone()
            .into_iter()
            .filter(|&s| cluster.sim.is_alive(s))
            .map(|s| cluster.sim.agent::<ServerAgent>(s).node().applied_index())
            .collect();
        prop_assert!(applied.len() >= 3, "a majority survived {plan:?}");
        prop_assert!(
            applied.windows(2).all(|w| w[0] == w[1]),
            "diverged at horizon {interval} after {plan:?}: {applied:?}"
        );
    }

    /// Arbitrary survivable fault plans (partitions, pauses, restarts,
    /// link faults — never cutting a majority) leave the cluster
    /// convergent, invariant-clean, and within the bounded-loss budget
    /// once client retries are on.
    #[test]
    fn survivable_fault_plans_converge_with_bounded_loss(
        episodes in 1usize..=2,
        plan_seed in 0u64..10_000,
        seed in 0u64..1_000,
    ) {
        let mut o = quick(Setup::Hovercraft(PolicyKind::Jbsq), 3, 20_000.0, seed);
        o.warmup = SimDur::millis(40);
        o.measure = SimDur::millis(160);
        o.bound = 64;
        o.retry = Some(RetryPolicy::default());
        let mut cluster = Cluster::build(o);
        cluster.settle();
        let plan = FaultPlan::generate(&FaultPlanConfig {
            nodes: cluster.servers.clone(),
            window_start: SimTime::ZERO + SimDur::millis(190),
            window_end: SimTime::ZERO + SimDur::millis(280),
            episodes,
            seed: plan_seed,
        });
        cluster.sim.apply_fault_plan(&plan);
        cluster.run_to_completion_checked();
        cluster.run_checked(SimDur::millis(200));
        let applied: Vec<u64> = cluster
            .servers
            .clone()
            .into_iter()
            .filter(|&s| cluster.sim.is_alive(s))
            .map(|s| cluster.sim.agent::<ServerAgent>(s).node().applied_index())
            .collect();
        prop_assert!(
            applied.windows(2).all(|w| w[0] == w[1]),
            "diverged after {plan:?}: {applied:?}"
        );
        let r = cluster.client_results();
        let lost = r.sent.saturating_sub(r.responses + r.nacks);
        let budget = (episodes * 64 + 64) as u64;
        prop_assert!(
            lost <= budget,
            "lost {lost} > budget {budget} under {plan:?} ({r:?})"
        );
    }
}
