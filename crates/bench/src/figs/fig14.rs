//! Figure 14 (extension): snapshotting, log compaction, and large-state
//! recovery. Not a paper figure — HovercRaft (§5) assumes peer-served
//! recovery of individual bodies and leaves log growth out of scope; this
//! extension charts what snapshotting buys on top:
//!
//! * **log memory vs snapshot horizon** — peak retained ordering entries,
//!   archived bodies, and dedupe tombstones as the compaction horizon
//!   varies (0 = snapshotting disabled: memory grows with history);
//! * **long-horizon bounded memory** — a ≥10⁷-request run at a fixed
//!   horizon must hold peak log/body memory flat while throughput and the
//!   dual compaction schedule (bodies and ordering metadata compact
//!   independently) keep up;
//! * **recovery time vs state size** — a follower that falls behind the
//!   compaction horizon can only rejoin via chunked snapshot transfer;
//!   recovery time is charted against the serialized state-machine size
//!   (YCSB keyspaces of increasing record counts).

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use simnet::{SimDur, SimTime};
use testbed::{Cluster, ClusterOpts, ServerAgent, ServiceKind, Setup, WorkloadKind};
use workload::YcsbWorkload;

use crate::sweep::{Figure, Sweep};
use crate::{fast, write_banner};

/// Figure 14 — snapshotting, compaction, and large-state recovery.
pub const FIG: Figure = Figure {
    name: "fig14_recovery",
    run,
};

/// Load for the memory sections: the baseline 1 µs all-write synthetic
/// point, high enough that an unbounded log visibly grows.
const MEM_RATE: f64 = 200_000.0;

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 14 — snapshotting, log compaction, and large-state recovery (extension)",
        "bounded horizons hold log memory flat where horizon 0 grows with \
         history; a >=1e7-request run stays within one compaction interval \
         of memory; recovery time scales with serialized state size, not \
         with how far the follower fell behind",
    );

    let _ = writeln!(out, "--- log memory vs snapshot horizon ---");
    let _ = writeln!(
        out,
        "{:>9} {:>10} {:>12} {:>12} {:>11} {:>10}",
        "horizon", "applied", "peak log", "peak bodies", "tombstones", "snapshots"
    );
    let horizons: Vec<u64> = vec![0, 1_024, 8_192, 65_536];
    for row in sw.map(horizons, memory_row) {
        out.push_str(&row);
    }

    let _ = writeln!(out, "--- long-horizon bounded memory (horizon 8192) ---");
    let body = sw
        .map(vec![()], |()| long_horizon_row())
        .pop()
        .expect("long-horizon job");
    out.push_str(&body);

    let _ = writeln!(out, "--- recovery time vs state size (horizon 2048) ---");
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>10} {:>13} {:>9}",
        "records", "state KiB", "behind", "recovery ms", "installs"
    );
    let records: Vec<u64> = if fast() {
        vec![1_000, 5_000]
    } else {
        vec![1_000, 10_000, 50_000]
    };
    for row in sw.map(records, recovery_row) {
        out.push_str(&row);
    }
    out
}

/// Peak (across time and replicas) log entries, archived bodies, and
/// tombstones over a fixed-load run at the given compaction horizon.
fn memory_row(horizon: u64) -> String {
    let measure = if fast() {
        SimDur::millis(400)
    } else {
        SimDur::secs(2)
    };
    let mut o = ClusterOpts::new(Setup::Hovercraft(PolicyKind::Jbsq), 3, MEM_RATE);
    o.warmup = SimDur::millis(0);
    o.measure = measure;
    o.snapshot_interval = horizon;
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let (applied, peak_log, peak_bodies, peak_tombs, snaps) = sample_memory(&mut cluster);
    format!("{horizon:>9} {applied:>10} {peak_log:>12} {peak_bodies:>12} {peak_tombs:>11} {snaps:>10}\n")
}

/// The bounded-memory demonstration: >=1e7 requests of virtual time at a
/// fixed horizon; memory must not scale with history.
fn long_horizon_row() -> String {
    let mut out = String::new();
    // 200 kRPS × 50 s = 1e7 ordered requests (HC_FAST trims the world for
    // CI smoke; the committed results file is rendered at full scale).
    let secs: u64 = if fast() { 2 } else { 50 };
    let mut o = ClusterOpts::new(Setup::Hovercraft(PolicyKind::Jbsq), 3, MEM_RATE);
    o.warmup = SimDur::millis(0);
    o.measure = SimDur::secs(secs);
    o.snapshot_interval = 8_192;
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let (applied, peak_log, peak_bodies, peak_tombs, snaps) = sample_memory(&mut cluster);
    let _ = writeln!(out, "requests applied:      {applied}");
    let _ = writeln!(out, "snapshots taken:       {snaps}");
    let _ = writeln!(out, "peak retained entries: {peak_log}");
    let _ = writeln!(out, "peak archived bodies:  {peak_bodies}");
    let _ = writeln!(out, "peak dedupe tombstones:{peak_tombs:>7}");
    let bound = 2 * 8_192 + 1_024;
    let _ = writeln!(
        out,
        "memory bounded:        {} (peak log {} <= 2 intervals + slack = {})",
        if (peak_log as u64) <= bound {
            "yes"
        } else {
            "NO"
        },
        peak_log,
        bound,
    );
    out
}

/// Steps the cluster to the end of load in 50 ms strides, sampling every
/// replica's retained-log length, archived-body count, and tombstone
/// count. Returns (applied, peak_log, peak_bodies, peak_tombstones,
/// snapshots).
fn sample_memory(cluster: &mut Cluster) -> (u64, usize, usize, usize, u64) {
    let end = cluster.opts().load_end() + SimDur::millis(50);
    let mut peak_log = 0usize;
    let mut peak_bodies = 0usize;
    let mut peak_tombs = 0usize;
    while cluster.sim.now() < end {
        let next = (cluster.sim.now() + SimDur::millis(50)).min(end);
        cluster.sim.run_until(next);
        for &s in &cluster.servers.clone() {
            let n = cluster.sim.agent::<ServerAgent>(s).node();
            let log = n.raft().log();
            peak_log = peak_log.max((log.last_index() - log.snapshot_index()) as usize);
            peak_bodies = peak_bodies.max(n.pool().archived_len());
            peak_tombs = peak_tombs.max(n.pool().tombstone_len());
        }
    }
    let leader = cluster.leader().expect("leader");
    let n = cluster.sim.agent::<ServerAgent>(leader).node();
    (
        n.applied_index(),
        peak_log,
        peak_bodies,
        peak_tombs,
        n.stats().snapshots,
    )
}

/// One recovery point: preload `records` YCSB records, let a follower fall
/// a full compaction horizon behind while dark, and measure restart →
/// caught-up-to-the-commit-it-missed. The follower can only rejoin via the
/// chunked snapshot state transfer (its missing bodies are compacted
/// everywhere), so recovery time tracks the serialized state size.
fn recovery_row(records: u64) -> String {
    let mut o = ClusterOpts::new(Setup::Hovercraft(PolicyKind::Jbsq), 3, 50_000.0);
    o.service = ServiceKind::Kv;
    o.workload = WorkloadKind::Ycsb {
        workload: YcsbWorkload::E,
        records,
    };
    o.bound = 64;
    o.warmup = SimDur::millis(0);
    o.measure = SimDur::millis(1_500);
    o.snapshot_interval = 2_048;
    let mut cluster = Cluster::build(o);
    cluster.settle();
    let leader = cluster.leader().expect("leader");
    let victim = cluster
        .servers
        .iter()
        .copied()
        .find(|&s| s != leader)
        .expect("a follower");

    // 200 ms dark at 50 kRPS ≈ 10k entries — five horizons past the log
    // end the victim crashed with.
    let kill_at = SimTime::ZERO + SimDur::millis(400);
    let restart_at = kill_at + SimDur::millis(200);
    cluster.sim.kill_at(victim, kill_at);
    cluster.sim.restart_at(victim, restart_at);
    cluster.sim.run_until(kill_at);
    let commit_at_kill = leader_commit(&cluster, leader);
    cluster.sim.run_until(restart_at);
    let missed_commit = leader_commit(&cluster, leader);
    let behind = missed_commit.saturating_sub(commit_at_kill);
    let deadline = cluster.opts().load_end() + SimDur::millis(500);
    let mut recovered_at: Option<SimTime> = None;
    while cluster.sim.now() < deadline {
        cluster.sim.run_for(SimDur::millis(1));
        let n = cluster.sim.agent::<ServerAgent>(victim).node();
        if n.applied_index() >= missed_commit && n.stats().installs >= 1 {
            recovered_at = Some(cluster.sim.now());
            break;
        }
    }
    let n = cluster.sim.agent::<ServerAgent>(victim).node();
    let state_kib = n.service().snapshot().len() as f64 / 1024.0;
    let recovery_ms = match recovered_at {
        Some(t) => format!("{:.2}", (t - restart_at).as_nanos() as f64 / 1e6),
        None => "DNF".to_string(),
    };
    format!(
        "{records:>9} {state_kib:>12.1} {behind:>10} {recovery_ms:>13} {:>9}\n",
        n.stats().installs
    )
}

/// The leader's current commit index.
fn leader_commit(cluster: &Cluster, leader: u32) -> u64 {
    cluster
        .sim
        .agent::<ServerAgent>(leader)
        .node()
        .raft()
        .commit_index()
}
