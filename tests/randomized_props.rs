//! Randomized properties over the whole stack: configurations, seeds and
//! fault schedules drawn by the [`testbed::chaos`] families must never
//! violate the system's core invariants (determinism, accounting sanity,
//! replica agreement, bounded reply loss). Each test sweeps one family;
//! a failure names the `<family>:<seed>` line that replays it.

use hovercraft_bench::sweep::par_map;
use simnet::SimDur;
use testbed::chaos::{self, Case, Family, HEALTHY_SETUPS};
use testbed::{ClusterOpts, Setup};

/// Accounting sanity and replica agreement for arbitrary healthy
/// configurations and seeds: everything answered, modulo the handful of
/// window-edge requests whose replies land after the cutoff.
#[test]
fn healthy_runs_answer_everything_and_agree() {
    par_map(Family::Healthy.sweep(12), chaos::check);
}

/// Bit-exact determinism: a case replays to an identical report, for
/// every setup the `healthy` family draws.
#[test]
fn experiments_are_deterministic() {
    let cases: Vec<Case> = HEALTHY_SETUPS
        .iter()
        .map(|&setup| {
            (0..)
                .map(|seed| Case::new(Family::Healthy, seed))
                .find(|c| c.shape().opts.setup == setup)
                .expect("the family draws every setup")
        })
        .collect();
    par_map(cases, |case| chaos::replay(case, SimDur::millis(1)));
}

/// A follower killed at a random instant under load never costs more
/// than the bounded-queue bound in lost replies (§3.4).
#[test]
fn follower_death_loss_is_bounded_by_b() {
    par_map(Family::FollowerDeath.sweep(12), chaos::check);
}

/// Arbitrary (snapshot horizon, run length, fault plan) triples: log
/// compaction plus chunked state transfer under randomized chaos —
/// crash–restarts included, so transfers resume or restart across
/// incarnation epochs — must preserve `applied ≤ commit`, the snapshot
/// bound chain and exactly-one-reply, and leave a majority of live
/// replicas on an identical applied prefix and state.
#[test]
fn snapshot_horizons_preserve_invariants_under_chaos() {
    par_map(Family::Horizon.sweep(6), chaos::check);
}

/// Arbitrary survivable fault plans (partitions, pauses, restarts, link
/// faults — never cutting a majority) leave the cluster convergent,
/// invariant-clean, and within the bounded-loss budget once client
/// retries are on.
#[test]
fn survivable_fault_plans_converge_with_bounded_loss() {
    par_map(Family::Survivable.sweep(6), chaos::check);
}

/// A healthy-family shape the old property generator once drew and kept
/// as a regression: VanillaRaft, 3 nodes, near the top of the family's
/// rate range.
#[test]
fn regression_healthy_vanilla_n3_at_120k_rps() {
    let mut shape = Case::new(Family::Healthy, 42).shape();
    shape.opts = ClusterOpts {
        warmup: shape.opts.warmup,
        measure: shape.opts.measure,
        seed: 42,
        ..ClusterOpts::new(Setup::Vanilla, 3, 120_554.285_449_387_11)
    };
    shape.check();
}
