//! Figure 12: throughput and tail latency through a leader failure (§7.4).
//! A 3-node HovercRaft++ cluster runs the bimodal S̄=10µs, 75%-read-only
//! workload at 165 kRPS — below the 3-node capacity but above the 2-node
//! capacity — with multicast flow control capped at 1000 in-flight
//! requests. The leader is killed mid-run; a follower takes over, bounded
//! queues keep work away from the dead node, and flow control sheds the
//! excess load instead of letting the system collapse.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use simnet::{SimDur, SimTime};
use testbed::{Cluster, ClusterOpts, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec};

use crate::sweep::{Figure, Sweep};
use crate::{fast, write_banner};

/// Figure 12 — leader-kill timeline with flow control.
pub const FIG: Figure = Figure {
    name: "fig12_failover",
    run,
};

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 12 — leader failure at fixed 165 kRPS offered load (N=3, B=32, cap=1000)",
        "before the kill: 165 kRPS at low latency; after: throughput drops \
         to the 2-node capacity (~160 kRPS), flow control NACKs ~5 kRPS, \
         latency rises but the system does not collapse",
    );
    // One long single-world timeline: a single job, submitted through the
    // sweep so it runs on a worker like every other world — figure threads
    // only plan and render, and do not count against the core cap.
    let body = sw
        .map(vec![()], |()| render_timeline())
        .pop()
        .expect("timeline job");
    out.push_str(&body);
    out
}

fn render_timeline() -> String {
    let mut out = String::new();
    let total_s: u64 = if fast() { 8 } else { 20 };
    let kill_s: u64 = total_s / 2;

    let mut o = ClusterOpts::new(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 165_000.0);
    o.workload = WorkloadKind::Synth(SynthSpec {
        dist: ServiceDist::Bimodal {
            mean_ns: 10_000,
            frac_long: 0.1,
            mult: 10,
        },
        req_size: 24,
        reply_size: 8,
        ro_fraction: 0.75,
    });
    o.bound = 32;
    o.flow_cap = Some(1_000);
    o.clients = 4;
    o.load_start = SimTime::ZERO + SimDur::millis(150);
    o.warmup = SimDur::millis(0);
    o.measure = SimDur::secs(total_s);

    let mut cluster = Cluster::build(o);
    cluster.settle();
    let leader = cluster.leader().expect("leader elected");
    let kill_at = SimTime::ZERO + SimDur::secs(kill_s);
    cluster.sim.kill_at(leader, kill_at);
    let _ = writeln!(out, "leader is node {leader}; killing it at t = {kill_s}s");

    let end = SimTime::ZERO + SimDur::secs(total_s) + SimDur::millis(500);
    cluster.sim.run_until(end);

    // Merge the per-second series across clients.
    let clients = cluster.clients.clone();
    let mut per_sec: Vec<(usize, u64)> = Vec::new(); // (completions, worst p99)
    let mut nacks_per_sec: Vec<usize> = Vec::new();
    for &c in &clients {
        let agent = cluster.sim.agent_mut::<testbed::ClientAgent>(c);
        for w in agent.series.summarize() {
            let i = (w.start_ns / 1_000_000_000) as usize;
            if per_sec.len() <= i {
                per_sec.resize(i + 1, (0, 0));
                nacks_per_sec.resize(i + 1, 0);
            }
            per_sec[i].0 += w.count;
            per_sec[i].1 = per_sec[i].1.max(w.p99_ns);
        }
        for w in agent.nack_series.summarize() {
            let i = (w.start_ns / 1_000_000_000) as usize;
            if nacks_per_sec.len() <= i {
                nacks_per_sec.resize(i + 1, 0);
                per_sec.resize(i + 1, (0, 0));
            }
            nacks_per_sec[i] += w.count;
        }
    }
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>10} {:>12}",
        "t(s)", "kRPS", "NACK/s", "p99 (ms)"
    );
    for (i, ((count, p99), nacks)) in per_sec.iter().zip(&nacks_per_sec).enumerate() {
        let marker = if i as u64 == kill_s {
            "  <- leader killed"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:>4} {:>10.1} {:>10} {:>12.3}{marker}",
            i,
            *count as f64 / 1_000.0,
            nacks,
            *p99 as f64 / 1e6,
        );
    }
    let new_leader = cluster.leader().expect("new leader");
    let _ = writeln!(out, "new leader after failover: node {new_leader}");
    out
}
