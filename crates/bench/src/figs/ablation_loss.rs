//! Ablation: multicast loss and the recovery protocol (§3.2, §5).
//!
//! HovercRaft does not assume reliable multicast; lost request copies are
//! repaired with recovery_request messages. Sweeps the independent
//! per-copy loss probability and reports the recovery traffic and its
//! latency cost.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use simnet::SimDur;
use testbed::{summarize, Cluster, ClusterOpts, ServerAgent, Setup};

use crate::sweep::{Figure, Sweep};
use crate::{windows, write_banner};

/// Ablation — fabric loss rate vs recovery traffic.
pub const FIG: Figure = Figure {
    name: "ablation_loss",
    run,
};

/// One measured row: (achieved, p99, recoveries sent, served, stalls).
struct Row {
    achieved_rps: f64,
    p99_ns: u64,
    recov: u64,
    served: u64,
    stalls: u64,
}

fn measure(loss: f64) -> Row {
    let (w, m) = windows();
    let mut o = ClusterOpts::new(Setup::Hovercraft(PolicyKind::Jbsq), 3, 100_000.0);
    o.warmup = w;
    o.measure = m;
    o.clients = 4;
    let mut cluster = Cluster::build(o);
    cluster.sim.set_loss_rate(loss);
    cluster.run_to_completion();
    cluster.sim.set_loss_rate(0.0);
    cluster.sim.run_for(SimDur::millis(50));
    let mut recov = 0;
    let mut served = 0;
    let mut stalls = 0;
    for &s in &cluster.servers.clone() {
        let st = cluster.sim.agent::<ServerAgent>(s).node().stats();
        recov += st.recoveries_sent;
        served += st.recoveries_served;
        stalls += st.apply_stalls;
    }
    let r = summarize(&mut cluster);
    Row {
        achieved_rps: r.achieved_rps,
        p99_ns: r.p99_ns,
        recov,
        served,
        stalls,
    }
}

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Ablation — fabric loss rate vs recovery traffic and latency (N=3, 100 kRPS)",
        "loss triggers recovery_request repair; goodput holds while tail \
         latency grows with the repair round trips",
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>11} {:>11} {:>12} {:>10}",
        "loss", "achieved", "p99(us)", "recoveries", "served", "stalls"
    );
    let losses = vec![0.0, 0.001, 0.005, 0.01, 0.02, 0.05];
    let rows = sw.map(losses.clone(), measure);
    for (loss, r) in losses.iter().zip(&rows) {
        let _ = writeln!(
            out,
            "{:>6.1}% {:>12.0} {:>11.1} {:>11} {:>12} {:>10}",
            loss * 100.0,
            r.achieved_rps,
            r.p99_ns as f64 / 1e3,
            r.recov,
            r.served,
            r.stalls
        );
    }
    out
}
