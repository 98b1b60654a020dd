//! Figure 11: CPU load balancing of read-only operations under service-time
//! dispersion (§7.3): bimodal S̄ = 10µs (10% of requests 10x longer), 75%
//! read-only, on a 3-node cluster with bounded queues of 32. JBSQ beats
//! RANDOM replier selection at the tail.

use std::fmt::Write as _;

use hovercraft::PolicyKind;
use testbed::{run_experiment, ClusterOpts, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec};

use crate::sweep::{Figure, Sweep};
use crate::{grid, with_windows, write_banner, write_point};

/// Figure 11 — JBSQ vs RANDOM read-only load balancing.
pub const FIG: Figure = Figure {
    name: "fig11_readonly_lb",
    run,
};

fn wl() -> WorkloadKind {
    WorkloadKind::Synth(SynthSpec {
        dist: ServiceDist::Bimodal {
            mean_ns: 10_000,
            frac_long: 0.1,
            mult: 10,
        },
        req_size: 24,
        reply_size: 8,
        ro_fraction: 0.75,
    })
}

fn run(sw: &Sweep<'_>) -> String {
    let mut out = String::new();
    write_banner(
        &mut out,
        "Figure 11 — bimodal S=10us, 75% read-only, N=3, B=32: JBSQ vs RANDOM vs UnRep",
        "read-only load balancing lifts capacity ~57% over UnRep (~100k); \
         JBSQ sustains lower tail latency than RANDOM near saturation",
    );
    let mut sections: Vec<(String, String, Vec<ClusterOpts>)> = Vec::new();
    sections.push((
        "--- UnRep ---".to_string(),
        "UnRep".to_string(),
        grid(vec![
            25_000.0, 50_000.0, 75_000.0, 90_000.0, 97_000.0, 105_000.0,
        ])
        .iter()
        .map(|&rate| {
            let mut o = with_windows(ClusterOpts::new(Setup::Unrep, 1, rate));
            o.workload = wl();
            o
        })
        .collect(),
    ));
    for policy in [PolicyKind::Random, PolicyKind::Jbsq] {
        sections.push((
            format!("--- HovercRaft++ {policy:?} ---"),
            format!("HC++ {policy:?}"),
            grid(vec![
                50_000.0, 100_000.0, 125_000.0, 150_000.0, 165_000.0, 180_000.0, 195_000.0,
            ])
            .iter()
            .map(|&rate| {
                let mut o = with_windows(ClusterOpts::new(Setup::HovercraftPp(policy), 3, rate));
                o.workload = wl();
                o.bound = 32; // §7.3: longer service time, smaller bound
                o
            })
            .collect(),
        ));
    }
    let jobs: Vec<ClusterOpts> = sections.iter().flat_map(|(_, _, j)| j.clone()).collect();
    let results = sw.map(jobs, run_experiment);
    let mut it = results.iter();
    for (header, label, section_jobs) in &sections {
        let _ = writeln!(out, "{header}");
        for _ in section_jobs {
            write_point(&mut out, label, it.next().expect("grid point"));
        }
    }
    out
}
