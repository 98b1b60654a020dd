//! Chaos property suite: deterministic, seeded fault injection across the
//! full stack. Scenario tests pin down the three headline behaviours —
//! majority-side progress under partition with Pre-Vote term stability,
//! stall-aware replier routing around a paused node (§3.4), and
//! crash–restart rejoin via log catch-up plus body recovery (§5) — while
//! the `plain` and `snap` families of [`testbed::chaos`] (env-scalable via
//! `CHAOS_CASES` / `CHAOS_SEED`) and the committed corpus sweep the space,
//! sharded across cores by the workspace pool (`HC_JOBS`; each case is one
//! single-threaded deterministic simulation). Every case is replayable
//! from its corpus line alone; a meta-test proves it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hovercraft::PolicyKind;
use hovercraft_bench::sweep::par_map;
use simnet::{FaultCmd, SimDur, SimTime, TraceEvent};
use testbed::chaos::{self, assert_converged, Case, Family};
use testbed::{Cluster, ClusterOpts, ServerAgent, Setup};

fn ms(x: u64) -> SimTime {
    SimTime::ZERO + SimDur::millis(x)
}

/// The cluster options of `family`'s case for `seed`: the scenarios below
/// run at the chaos points the sweeps use.
fn opts(family: Family, seed: u64) -> ClusterOpts {
    Case::new(family, seed).shape().opts
}

fn term_of(cluster: &Cluster, node: u32) -> u64 {
    cluster.sim.agent::<ServerAgent>(node).node().raft().term()
}

fn commit_of(cluster: &Cluster, node: u32) -> u64 {
    cluster
        .sim
        .agent::<ServerAgent>(node)
        .node()
        .raft()
        .commit_index()
}

/// Visits every trace event from `cursor` on, oldest first, and advances
/// `cursor` past them. Panics if the ring evicted any of them unseen: a
/// harvest that skipped events would let an absence assertion pass over
/// them.
fn harvest(cluster: &Cluster, cursor: &mut u64, mut f: impl FnMut(&TraceEvent)) {
    cluster.tracer().for_each_since(*cursor, |e| {
        assert_eq!(
            e.seq, *cursor,
            "trace events {}..{} were evicted before the harvest saw them",
            *cursor, e.seq
        );
        *cursor += 1;
        f(e);
    });
}

/// Runs the rest of the load window and a `drain` under invariant
/// checking, harvesting the trace every 5 ms (the ring is bounded).
fn run_and_harvest(cluster: &mut Cluster, cursor: &mut u64, drain: SimDur) -> Vec<TraceEvent> {
    let mut harvested = Vec::new();
    let end = cluster.opts().load_end() + SimDur::millis(20);
    while cluster.sim.now() < end {
        let next = (cluster.sim.now() + SimDur::millis(5)).min(end);
        cluster.run_until_checked(next);
        harvest(cluster, cursor, |e| harvested.push(e.clone()));
    }
    cluster.run_checked(drain);
    harvest(cluster, cursor, |e| harvested.push(e.clone()));
    harvested
}

#[test]
fn majority_partition_keeps_committing_and_pre_vote_freezes_terms() {
    let mut cluster = Cluster::build(opts(Family::Plain, 101));
    cluster.settle();
    let leader = cluster.leader().expect("settled leader");
    let term0 = term_of(&cluster, leader);

    // Cut off two followers; the leader keeps a quorum of three.
    let minority: Vec<u32> = cluster
        .servers
        .iter()
        .copied()
        .filter(|&s| s != leader)
        .take(2)
        .collect();
    let majority: Vec<u32> = cluster
        .servers
        .iter()
        .copied()
        .filter(|&s| !minority.contains(&s))
        .collect();
    cluster.sim.schedule_fault(
        ms(250),
        FaultCmd::Partition {
            groups: vec![majority, minority],
        },
    );
    cluster.sim.schedule_fault(ms(400), FaultCmd::Heal);

    cluster.run_until_checked(ms(280));
    let c1 = commit_of(&cluster, leader);
    cluster.run_until_checked(ms(380));
    let c2 = commit_of(&cluster, leader);
    assert!(
        c2 > c1 + 1_000,
        "majority side must keep committing through the partition: {c1} -> {c2}"
    );

    let end = cluster.opts().load_end() + SimDur::millis(20);
    cluster.run_until_checked(end);
    cluster.run_checked(SimDur::millis(150));

    // Pre-Vote: the healed minority's election attempts never reached a
    // quorum and never bumped terms, so the stable leader is undisturbed.
    assert_eq!(
        cluster.leader(),
        Some(leader),
        "healed minority must not depose the stable leader"
    );
    assert_eq!(
        term_of(&cluster, leader),
        term0,
        "no term change across partition + heal"
    );
    assert_converged(&cluster);
}

#[test]
fn paused_replier_is_detected_and_routed_around() {
    let mut cluster = Cluster::build(opts(Family::Plain, 202));
    cluster.settle();
    let leader = cluster.leader().expect("settled leader");
    let victim = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .expect("a follower");
    let paused_at = ms(250);
    let resumed_at = ms(420);
    cluster
        .sim
        .schedule_fault(paused_at, FaultCmd::Pause { node: victim });
    cluster
        .sim
        .schedule_fault(resumed_at, FaultCmd::Resume { node: victim });

    // Harvest the trace from the first event on while running the full
    // load under invariant checking.
    let harvested = run_and_harvest(&mut cluster, &mut 0, SimDur::millis(150));

    // Within the stall-detection timeout (5 ms, plus announcement slack)
    // the leader must stop assigning replies to the silent node, and not
    // resume until the node is back.
    let grace = paused_at + SimDur::millis(15);
    let bad: Vec<&TraceEvent> = harvested
        .iter()
        .filter(|e| {
            e.kind == "replier_assigned"
                && e.at >= grace
                && e.at < resumed_at
                && e.args[1] == u64::from(victim)
        })
        .collect();
    assert!(
        bad.is_empty(),
        "leader kept assigning replies to a stalled node: {bad:?}"
    );
    assert!(
        harvested
            .iter()
            .any(|e| e.kind == "replier_stalled" && e.key == victim as u64 && e.at < grace),
        "stall must be detected and traced within the timeout"
    );
    assert!(
        harvested
            .iter()
            .any(|e| e.kind == "replier_recovered" && e.key == victim as u64 && e.at >= resumed_at),
        "resumed node must re-enter the candidate set"
    );
    assert_converged(&cluster);
}

#[test]
fn restarted_follower_rejoins_and_catches_up() {
    let mut cluster = Cluster::build(opts(Family::Plain, 303));
    cluster.settle();
    let leader = cluster.leader().expect("settled leader");
    let victim = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .expect("a follower");
    cluster.sim.restart_at(victim, ms(300));

    let end = cluster.opts().load_end() + SimDur::millis(20);
    cluster.run_until_checked(end);
    assert_eq!(cluster.sim.restarts(victim), 1, "exactly one crash–restart");
    assert!(cluster.sim.is_alive(victim), "restarted node is back");

    // Drain: log catch-up, body recovery for unpooled entries, and
    // re-execution from index 1 all complete within the run, so the
    // restarted follower is on the leader's applied index.
    cluster.run_checked(SimDur::millis(200));
    let leader_now = cluster.leader().expect("a leader at the end");
    let node = cluster.sim.agent::<ServerAgent>(leader_now).node();
    assert!(node.applied_index() > 0, "the run made progress");
    assert_converged(&cluster);
}

/// The tentpole recovery scenario, pinned deterministically: a follower
/// fail-stops long enough that the leader's compaction horizon passes its
/// entire log (rejoin *must* go through chunked snapshot state transfer,
/// not log catch-up), and is then crashed again mid-stream — between two
/// cumulative chunk acks. The transfer must rewind across the incarnation
/// boundary and still converge to a state bit-identical to the replaying
/// replicas.
#[test]
fn state_transfer_resumes_after_midstream_crash() {
    let mut cluster = Cluster::build(opts(Family::Snap, 404));
    cluster.settle();
    let leader = cluster.leader().expect("settled leader");
    let victim = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .expect("a follower");

    // 70 ms down at 25 krps with a 64-entry snapshot horizon: the leader
    // compacts ~27 intervals past the victim's log end while it is dark.
    cluster.sim.kill_at(victim, ms(250));
    cluster.sim.restart_at(victim, ms(320));
    cluster.run_until_checked(ms(320));

    // Step at 10 µs granularity until the transfer is streaming (the
    // victim cumulatively acks chunks), then crash it again mid-stream.
    let mut cursor = cluster.tracer().total_recorded();
    let mut crash_at: Option<SimTime> = None;
    let deadline = ms(360);
    while crash_at.is_none() && cluster.sim.now() < deadline {
        cluster.sim.run_for(SimDur::micros(10));
        let mut acked = false;
        harvest(&cluster, &mut cursor, |e| {
            acked |= e.kind == "chunk_acked" && e.node == victim;
        });
        if acked {
            let t = cluster.sim.now() + SimDur::micros(10);
            cluster.sim.restart_at(victim, t);
            crash_at = Some(t);
        } else {
            cluster.assert_invariants();
        }
    }
    let crash_at = crash_at.expect("state transfer never started streaming after rejoin");

    // Harvest the rest of the run under invariant checking.
    let harvested = run_and_harvest(&mut cluster, &mut cursor, SimDur::millis(200));

    assert_eq!(
        cluster.sim.restarts(victim),
        2,
        "rejoin restart plus the mid-stream crash"
    );
    assert!(
        harvested
            .iter()
            .any(|e| e.kind == "snapshot_installed" && e.node == victim && e.at > crash_at),
        "the victim's final incarnation must complete a snapshot install"
    );
    let vstats = cluster.sim.agent::<ServerAgent>(victim).node().stats();
    assert!(
        vstats.installs >= 1,
        "rejoined follower must install a transferred snapshot: {vstats:?}"
    );
    assert_converged(&cluster);
}

// ---------------------------------------------------------------------
// Chaos-found bugs, promoted to named regression tests. Each replays,
// unchanged, the seeded fault plan that first exposed the bug during the
// snapshot/compaction work (the same seeds stay in tests/chaos_corpus.txt
// for the sweep; the named anchors keep the diagnosis greppable next to
// the code that fixes it). Each is its `snap:` case run through
// `chaos::check`: the full invariant set at every sampled millisecond,
// convergence, bit-identical state machines, compaction actually running,
// and bounded client-visible reply loss.
// ---------------------------------------------------------------------

/// snap:8 — stale-completion applied regression. A restart of n1 at
/// 228 ms plus a delay spike into the rejoiner during catch-up left an
/// entry executing on the app thread while a snapshot install jumped the
/// applied cursor past it; the entry's late completion then moved
/// `applied` *backwards* (tripping monotonicity and re-answering a voided
/// reply duty). Fixed by the `index <= self.applied` guard in
/// `HcNode::on_exec_done`: completions at or below the cursor are
/// subsumed by the restored snapshot and dropped.
#[test]
fn regression_snap8_stale_completion_must_not_regress_applied() {
    chaos::check(Case::new(Family::Snap, 8));
}

/// snap:13 — unhealable rejoined node. A follower mid-state-transfer
/// receives no AppendEntries (nothing can be built for it below the
/// serving peer's compaction horizon), so its election timer fired and it
/// called an election against a healthy leader from a log still behind
/// the horizon — deposing progress it could not replace. Fixed by
/// `RaftNode::note_peer_contact`: a snapshot chunk from *any* serving
/// peer resets the follower's election deadline (without planting a
/// leader hint or asserting leadership on the sender's behalf).
#[test]
fn regression_snap13_rejoiner_mid_transfer_must_not_depose_leader() {
    chaos::check(Case::new(Family::Snap, 13));
}

/// snap:34 — two bugs in one plan (pause + partition + a 33% duplicate
/// window). First, issue-cursor/applied skew: snapshot blobs are captured
/// at issue time while the service executes ahead of `applied`, so
/// promoting or installing against `applied` could wipe the effects of
/// entries already executing; installs now guard on the issue cursor
/// (`next_apply`) instead. Second, the `term_at(0)` sentinel wedge: a
/// retransmit reset below the compaction horizon saw `term_at(0) ==
/// Some(0)` on a compacted log and degenerated into an empty
/// AppendEntries loop that never shipped an entry and never requested a
/// snapshot; replication now checks `next < log.first_index()` explicitly
/// and parks the peer behind a `NeedsSnapshot`.
#[test]
fn regression_snap34_install_guards_issue_cursor_and_compacted_sentinel() {
    chaos::check(Case::new(Family::Snap, 34));
}

/// snap:55 — double execution across a snapshot install. A node that
/// installed a snapshot held parked unordered copies of requests the
/// snapshot had already ordered and executed (its own log could not
/// enumerate them); when it later won an election it re-proposed one,
/// executing it twice. Fixed by framing the covered request-id set into
/// the snapshot blob: installers seed those ids as dedupe tombstones and
/// purge the parked copies, so a later leadership change cannot resurrect
/// a covered request.
#[test]
fn regression_snap55_install_seeds_dedupe_tombstones_for_covered_ids() {
    chaos::check(Case::new(Family::Snap, 55));
}

/// The transfer-livelock regression, pinned as a deterministic scenario
/// rather than a seed: with chunking slow enough that streaming one
/// snapshot takes longer than one compaction interval, the serving side
/// used to abandon the stream at every new horizon — no transfer ever
/// completed and the rejoiner never caught up. The fix pins the outgoing
/// blob for the lifetime of a transfer (`OutXfer.snap`): a started
/// stream runs to completion at its original horizon even as the sender
/// compacts past it, the install jumps the rejoiner forward, and a
/// follow-up transfer (or plain log catch-up once load stops) covers the
/// remainder. Chunks here are 8 bytes against the standard 256, so a
/// full blob takes hundreds of stop-and-wait round trips — several
/// compaction intervals' worth while load is running.
#[test]
fn regression_transfer_slower_than_compaction_still_converges() {
    let mut opts = opts(Family::Snap, 909);
    opts.snap_chunk_bytes = 8;
    let mut cluster = Cluster::build(opts);
    cluster.settle();
    let leader = cluster.leader().expect("settled leader");
    let victim = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .expect("a follower");
    // 70 ms dark at 25 krps with a 64-entry horizon: rejoin must go
    // through state transfer, and at 8-byte chunks the stream cannot
    // finish inside one compaction interval.
    cluster.sim.kill_at(victim, ms(250));
    cluster.sim.restart_at(victim, ms(320));

    let end = cluster.opts().load_end() + SimDur::millis(20);
    cluster.run_until_checked(end);
    // Generous drain: the final transfer plus log catch-up must land.
    cluster.run_checked(SimDur::millis(300));

    let vstats = cluster.sim.agent::<ServerAgent>(victim).node().stats();
    assert!(
        vstats.installs >= 1,
        "rejoin must complete at least one snapshot install: {vstats:?}"
    );
    assert_converged(&cluster);
}

#[test]
fn chaos_env_knobs_parse_or_panic() {
    let parse_u64 = chaos::parse_u64;
    assert_eq!(parse_u64("CHAOS_CASES", None, 3), 3);
    assert_eq!(parse_u64("CHAOS_CASES", Some("64"), 3), 64);
    assert_eq!(parse_u64("CHAOS_SEED", Some(" 0xc0ffee\n"), 0), 0xc0ffee);
    for (name, typo) in [
        ("CHAOS_CASES", "64x"),
        ("CHAOS_SEED", "0xZZ"),
        ("CHAOS_SEED", ""),
    ] {
        let err = std::panic::catch_unwind(|| parse_u64(name, Some(typo), 3)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains(&format!("{name}={typo:?}")), "{msg}");
    }
}

/// Fresh `plain:` cases: three fault episodes against the standard chaos
/// point, with convergence and bounded loss required.
#[test]
fn random_fault_plans_preserve_invariants_and_liveness() {
    par_map(Family::Plain.sweep(3), chaos::check);
}

/// Fresh `snap:` cases — the CI chaos job runs this with `CHAOS_CASES=64`,
/// so every CI run explores ≥ 64 new kill/partition/pause schedules
/// against in-flight state transfers.
#[test]
fn random_snapshot_fault_plans_converge_with_identical_state() {
    par_map(Family::Snap.sweep(3), chaos::check);
}

/// Every case in the committed corpus replays a fault mix that once ran in
/// CI; keeping them green makes past chaos runs regression tests.
#[test]
fn committed_fault_plan_corpus_stays_green() {
    let cases: Vec<Case> = include_str!("chaos_corpus.txt")
        .lines()
        .map(str::trim)
        // `mc:` lines are model-checker action traces, not chaos cases;
        // tests/mc.rs::committed_mc_corpus_seeds_verify replays them.
        .filter(|line| !line.is_empty() && !line.starts_with('#') && !line.starts_with("mc:"))
        .map(|line| line.parse().unwrap_or_else(|e| panic!("{e}")))
        .collect();
    for family in [Family::Plain, Family::Snap] {
        let n = cases.iter().filter(|c| c.family == family).count();
        assert!(n >= 4, "{family:?} corpus unexpectedly small: {n} cases");
    }
    par_map(cases, chaos::check);
}

#[test]
fn chaos_runs_are_bit_exact_replayable() {
    chaos::replay(Case::new(Family::Plain, 777), SimDur::millis(1));
}

#[test]
fn invariant_violations_dump_a_replayable_bundle() {
    let mut o = ClusterOpts::new(Setup::Hovercraft(PolicyKind::Jbsq), 3, 5_000.0);
    o.seed = 424_242;
    let mut cluster = Cluster::build(o);
    cluster.settle();
    // A few checked steps establish the checker's per-term queue-depth
    // baseline before the corruption.
    cluster.run_checked(SimDur::millis(30));
    let leader = cluster.leader().expect("leader");
    let member = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .expect("a follower");
    let bound = cluster.opts().bound;
    {
        let node = cluster.sim.agent_mut::<ServerAgent>(leader).node_mut();
        for idx in 1..=(2 * bound as u64 + 1) {
            node.ledger_mut().assign(member, idx);
        }
    }
    let err = catch_unwind(AssertUnwindSafe(|| cluster.assert_invariants()))
        .expect_err("an over-B replier queue must trip the checker");
    let msg = err
        .downcast_ref::<String>()
        .expect("violation panics carry a message")
        .clone();
    assert!(msg.contains("bounded_queue"), "{msg}");
    let path = msg
        .split("replay bundle: ")
        .nth(1)
        .expect("panic message names the bundle")
        .trim();
    let bundle = std::fs::read_to_string(path).expect("bundle written to disk");
    assert!(bundle.contains("seed: 424242"), "bundle records the seed");
    assert!(
        bundle.contains("## node state"),
        "bundle records node state"
    );
    assert!(bundle.contains("## trace tail"), "bundle records the trace");
}
